"""Section 4.1 — validating the decode cost model C = beta*P + gamma*T, and
the re-tile cost R(s, L) the regret rule weighs against it.

The paper fits a linear model to the measured decode times of over 1,400
(video, query object, layout) combinations and reports R^2 = 0.996.  This
benchmark collects measured decode times from the simulated codec across many
layouts and query objects, fits the same linear model, and checks that pixels
and tiles decoded explain nearly all of the variance here too.

A re-tile reads the stored SOT and encodes it again, so ``R`` is a whole-SOT
decode under the current layout plus an encode under the new one, in the
units of ``beta * P + gamma * T``.  The R section fits encode seconds against
pixels and tiles encoded, converts the coefficients to those units with the
seconds a unit of cold whole-SOT decode takes, prints them beside the
constants ``repro.core.cost.ENCODE_COST_PER_PIXEL`` / ``ENCODE_COST_PER_TILE``
(set them to the printed fit to re-fit them), and holds
``CostModel.retile_cost`` to measured cold ``TASM.retile_sot`` seconds.
"""

from __future__ import annotations

import statistics
import time
from itertools import combinations

import numpy as np
import pytest

from repro.analysis import (
    apply_object_layout,
    apply_uniform_layout,
    format_table,
    measure_query,
    prepare_tasm,
)
from repro.core.cost import (
    ENCODE_COST_PER_PIXEL,
    ENCODE_COST_PER_TILE,
    CostModel,
    fit_cost_model,
)
from repro.core.tasm import TASM
from repro.datasets import netflix_public_scene, visual_road_scene, xiph_scene
from repro.tiles.layout import uniform_layout
from repro.tiles.partitioner import TileGranularity
from repro.video.codec import TileCodec

from _bench_utils import emit_bench, print_section


def _cases():
    return [
        (visual_road_scene("fit-visual-road", duration_seconds=6.0, frame_rate=10, seed=901), ["car", "person"]),
        (xiph_scene("fit-crossing", style="crossing", duration_seconds=6.0, seed=903), ["car", "person"]),
        (netflix_public_scene("fit-birds", primary_object="bird", duration_seconds=6.0, seed=907), ["bird"]),
    ]


@pytest.fixture(scope="module")
def decode_samples(config):
    samples = []
    details = []
    for video, labels in _cases():
        layout_builders = [
            ("untiled", lambda tasm, name: None),
            ("uniform 2x2", lambda tasm, name: apply_uniform_layout(tasm, name, 2, 2)),
            ("uniform 4x4", lambda tasm, name: apply_uniform_layout(tasm, name, 4, 4)),
            ("uniform 5x5", lambda tasm, name: apply_uniform_layout(tasm, name, 5, 5)),
            (
                "non-uniform fine",
                lambda tasm, name: apply_object_layout(tasm, name, labels, TileGranularity.FINE),
            ),
            (
                "non-uniform coarse",
                lambda tasm, name: apply_object_layout(tasm, name, labels, TileGranularity.COARSE),
            ),
        ]
        for description, builder in layout_builders:
            tasm = prepare_tasm(video, config)
            builder(tasm, video.name)
            for label in labels:
                measurement = measure_query(tasm, video.name, label, description, repeats=3)
                samples.append(
                    (measurement.pixels_decoded, measurement.tiles_decoded, measurement.decode_seconds)
                )
                details.append(
                    {
                        "video": video.name,
                        "object": label,
                        "layout": description,
                        "pixels": measurement.pixels_decoded,
                        "tiles": measurement.tiles_decoded,
                        "seconds": round(measurement.decode_seconds, 4),
                    }
                )
    return samples, details


def test_cost_model_linear_fit(benchmark, decode_samples):
    samples, details = decode_samples
    fitted = benchmark.pedantic(lambda: fit_cost_model(samples), rounds=3, iterations=1)

    print_section("Section 4.1: decode time vs (pixels, tiles) linear fit")
    print(format_table(details))
    emit_bench("cost_model_fit", "linear_fit", details)
    print(
        f"\nfit over {len(samples)} measurements: "
        f"beta={fitted.beta:.3e} s/pixel, gamma={fitted.gamma:.3e} s/tile, "
        f"intercept={fitted.intercept:.3e} s, R^2={fitted.r_squared:.4f} "
        f"(paper: R^2 = 0.996 over 1,400 measurements)"
    )

    assert len(samples) >= 30
    assert fitted.beta > 0, "decode time must grow with pixels decoded"
    assert fitted.r_squared > 0.90, "pixels and tiles should explain nearly all decode-time variance"


# ----------------------------------------------------------------------
# R(s, L): what a re-tile costs
# ----------------------------------------------------------------------
#: Uniform grids every scene below can hold at 64-pixel minimum tiles.
GRIDS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (3, 5), (3, 6)]
#: Grids the measured re-tiles move between, each pair both ways.
RETILE_GRIDS = [(1, 1), (2, 2), (3, 3), (2, 5)]
#: Runs per timing; the fastest is kept, as the least disturbed.
REPEATS = 3


def _retile_scenes():
    return [
        visual_road_scene("fit-road-2k", "2K", 3.0, frame_rate=10, seed=101),
        visual_road_scene("fit-road-4k", "4K", 3.0, frame_rate=10, seed=131),
        xiph_scene("fit-harbour", style="harbour", resolution="4K", duration_seconds=3.0, seed=307),
        netflix_public_scene("fit-birds-r", primary_object="bird", duration_seconds=3.0, seed=211),
    ]


def _fastest(action) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def _grid(video, rows: int, columns: int, config):
    return uniform_layout(video.width, video.height, rows, columns, config.codec.block_size)


@pytest.fixture(scope="module")
def transcode_samples(config):
    """Both halves of every transcode of every SOT to every grid, cold: the
    encode as ``(pixels, tiles, seconds)`` and the decode of the result as
    ``(model units, seconds)``.  What is encoded is what a re-tile encodes,
    the SOT decoded from storage."""
    codec, model = TileCodec(config.codec), CostModel(config)
    encodes, decodes = [], []
    for video in _retile_scenes():
        tiled = TASM(config).ingest(video)
        for sot_index in range(tiled.sot_count):
            (gop,) = tiled.encoded_sot(sot_index).gops  # one GOP per SOT
            frames = list(codec.decode_gop(gop, video.width, video.height))
            for rows, columns in GRIDS:
                layout = _grid(video, rows, columns, config)
                regions = layout.tile_rectangles()
                pixels, tiles = layout.frame_pixels * len(frames), layout.tile_count
                encode = lambda: codec.encode_gop(frames, regions, 0, gop.frame_start)  # noqa: E731
                encodes.append((pixels, tiles, _fastest(encode)))
                encoded = encode()
                decode = lambda: codec.decode_gop(encoded, video.width, video.height)  # noqa: E731
                decodes.append((model.cost(pixels, tiles), _fastest(decode)))
    return encodes, decodes


@pytest.fixture(scope="module")
def retile_samples(config):
    """Cold ``TASM.retile_sot`` of a stored SOT between two grids and back,
    each way timed REPEATS times: ``(current, new, frames, fastest seconds)``."""
    samples = []
    for video in _retile_scenes():
        tasm = TASM(config)  # no decode cache: a re-tile reads every tile from storage
        tiled = tasm.ingest(video)
        start, stop = tiled.frame_range(0)
        frames = stop - start
        layouts = [_grid(video, rows, columns, config) for rows, columns in RETILE_GRIDS]
        for first, second in combinations(layouts, 2):
            tasm.retile_sot(video.name, 0, first)
            fastest = {(first, second): float("inf"), (second, first): float("inf")}
            for _ in range(REPEATS):
                for current, new in fastest:
                    started = time.perf_counter()
                    tasm.retile_sot(video.name, 0, new)
                    elapsed = time.perf_counter() - started
                    fastest[current, new] = min(fastest[current, new], elapsed)
            assert tiled.stored_layout(0) == first
            samples.extend((current, new, frames, seconds) for (current, new), seconds in fastest.items())
    return samples


def _seconds_per_unit(decodes) -> float:
    """Seconds one unit of ``beta * P + gamma * T`` takes to decode cold."""
    return statistics.median(seconds / units for units, seconds in decodes)


def test_retile_write_half_fit(transcode_samples):
    encodes, decodes = transcode_samples
    per_unit = _seconds_per_unit(decodes)
    # Through the origin, like R itself: the write half has no fixed term.
    matrix = np.array([[pixels, tiles] for pixels, tiles, _ in encodes], dtype=np.float64)
    observed = np.array([seconds for *_, seconds in encodes], dtype=np.float64)
    (per_pixel, per_tile), *_ = np.linalg.lstsq(matrix, observed, rcond=None)
    residual = observed - matrix @ (per_pixel, per_tile)
    r_squared = 1.0 - float(residual @ residual) / float(np.sum((observed - observed.mean()) ** 2))
    rows = [
        {
            "coefficient": "ENCODE_COST_PER_PIXEL",
            "fitted": f"{per_pixel / per_unit:.3e}",
            "default": f"{ENCODE_COST_PER_PIXEL:.3e}",
        },
        {
            "coefficient": "ENCODE_COST_PER_TILE",
            "fitted": f"{per_tile / per_unit:.3e}",
            "default": f"{ENCODE_COST_PER_TILE:.3e}",
        },
    ]
    print_section("R(s, L), write half: encode seconds vs (pixels, tiles), in beta units")
    print(format_table(rows))
    print(
        f"\nfit over {len(encodes)} transcodes: R^2={r_squared:.4f}; one unit of "
        f"beta*P + gamma*T decodes in {per_unit * 1e3:.3f} ms "
        f"(median over {len(decodes)} cold whole-SOT decodes)"
    )
    emit_bench("cost_model_fit", "retile_write_fit", rows)

    assert len(encodes) >= 100
    assert per_pixel > 0, "encode time must grow with pixels encoded"


def test_retile_cost_matches_measured_retiles(transcode_samples, retile_samples, config):
    per_unit = _seconds_per_unit(transcode_samples[1])
    model = CostModel(config)
    rows, errors = [], []
    for current, new, frames, seconds in retile_samples:
        modelled = model.retile_cost(current, new, frames) * per_unit
        errors.append(abs(modelled - seconds) / seconds)
        rows.append(
            {
                "from": current.describe(),
                "to": new.describe(),
                "frame size": f"{new.frame_width}x{new.frame_height}",
                "measured ms": round(seconds * 1e3, 2),
                "modelled ms": round(modelled * 1e3, 2),
                "rel err": round(errors[-1], 3),
            }
        )
    error = statistics.median(errors)
    print_section("R(s, L): CostModel.retile_cost against cold TASM.retile_sot")
    print(format_table(rows))
    print(f"\nmedian relative error over {len(rows)} re-tiles: {error:.3f} (bar: 0.15)")
    emit_bench("cost_model_fit", "retile_cost", rows)

    assert error <= 0.15, "R(s, L) should price a re-tile within 15% of what it takes"
