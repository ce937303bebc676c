"""Shared measurement harness for the microbenchmarks (Figures 6–10).

Each microbenchmark follows the same recipe: take a video and a query
object, physically encode the video under some tile layout (untiled, a
uniform grid, or a non-uniform layout around a set of objects), execute the
query against the encoded tiles, and report decode time, pixels/tiles
decoded, storage size, and optionally stitched-video PSNR.  This module owns
that recipe so the individual benchmark files stay small and the logic is
unit-testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..config import TasmConfig
from ..core.cost import CostModel
from ..core.tasm import TASM
from ..detection.base import Detection
from ..tiles.layout import TileLayout, uniform_layout
from ..tiles.partitioner import TileGranularity
from ..video.quality import average_psnr
from ..video.stitching import stitch_tiles
from ..video.synthetic import SyntheticVideo
from .stats import improvement_percent

__all__ = [
    "LayoutMeasurement",
    "prepare_tasm",
    "apply_uniform_layout",
    "apply_object_layout",
    "measure_query",
    "measure_psnr",
    "improvement_over_untiled",
    "modelled_improvement",
]


@dataclass
class LayoutMeasurement:
    """One measured (video, query object, layout) data point."""

    video: str
    label: str
    layout_description: str
    decode_seconds: float
    pixels_decoded: int
    tiles_decoded: int
    returned_pixels: int
    size_bytes: int = 0
    psnr_db: float | None = None


def prepare_tasm(
    video: SyntheticVideo,
    config: TasmConfig,
    detections: Iterable[Detection] | None = None,
    detect_every: int = 1,
) -> TASM:
    """Ingest a video and populate the semantic index with its ground truth."""
    tasm = TASM(config=config)
    tasm.ingest(video)
    if detections is None:
        detections = [
            detection
            for frame_index in range(0, video.frame_count, max(detect_every, 1))
            for detection in video.ground_truth(frame_index)
        ]
    tasm.add_detections(video.name, list(detections))
    return tasm


def apply_uniform_layout(tasm: TASM, video_name: str, rows: int, columns: int) -> TileLayout:
    """Tile every SOT of the video with the same uniform grid."""
    tiled = tasm.video(video_name)
    layout = uniform_layout(
        tiled.video.width,
        tiled.video.height,
        rows,
        columns,
        block_size=tasm.config.codec.block_size,
    )
    for sot_index in range(tiled.sot_count):
        tasm.retile_sot(video_name, sot_index, layout)
    return layout


def apply_object_layout(
    tasm: TASM,
    video_name: str,
    objects: Sequence[str],
    granularity: TileGranularity = TileGranularity.FINE,
) -> dict[int, TileLayout]:
    """Tile every SOT around the indexed boxes of ``objects``; returns the layouts."""
    tiled = tasm.video(video_name)
    layouts: dict[int, TileLayout] = {}
    for sot_index in range(tiled.sot_count):
        layout = tasm.layout_around(video_name, sot_index, objects, granularity)
        tasm.retile_sot(video_name, sot_index, layout)
        layouts[sot_index] = layout
    return layouts


def measure_query(
    tasm: TASM,
    video_name: str,
    label: str,
    layout_description: str,
    repeats: int = 1,
) -> LayoutMeasurement:
    """Execute ``SELECT label FROM video`` and measure decode work.

    Every SOT is materialised (encoded) before timing so the measurement
    reflects decode work only, matching how the paper reports query times on
    already-tiled videos.
    """
    tiled = tasm.video(video_name)
    tiled.materialise_all()
    best_seconds = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        result = tasm.scan(video_name, label)
        elapsed = time.perf_counter() - started
        best_seconds = min(best_seconds, elapsed)
    assert result is not None
    return LayoutMeasurement(
        video=video_name,
        label=label,
        layout_description=layout_description,
        decode_seconds=best_seconds,
        pixels_decoded=result.pixels_decoded,
        tiles_decoded=result.tiles_decoded,
        returned_pixels=result.returned_pixels,
        size_bytes=tiled.total_size_bytes(),
    )


def measure_psnr(
    tasm: TASM, video: SyntheticVideo, max_frames: int | None = None
) -> float:
    """PSNR of the stitched tiled video against the original raw frames."""
    tiled = tasm.video(video.name)
    tiled.materialise_all()
    reference = []
    reconstructed = []
    remaining = video.frame_count if max_frames is None else max_frames
    for sot_index in range(tiled.sot_count):
        if remaining <= 0:
            break
        stitched = stitch_tiles(tiled.encoded_sot(sot_index), tasm.config.codec)
        for frame in stitched.frames:
            if remaining <= 0:
                break
            reference.append(video.frame(frame.index))
            reconstructed.append(frame)
            remaining -= 1
    return average_psnr(reference, reconstructed)


def improvement_over_untiled(
    untiled: LayoutMeasurement, tiled: LayoutMeasurement
) -> float:
    """Percentage improvement in query (decode) time of a tiled layout."""
    return improvement_percent(untiled.decode_seconds, tiled.decode_seconds)


def modelled_improvement(
    untiled: LayoutMeasurement, tiled: LayoutMeasurement, config: TasmConfig
) -> float:
    """Improvement computed from decode *work* (pixels and tiles) via the cost model.

    Wall-clock decode times on laptop-scale videos carry millisecond-level
    noise; the benchmark assertions therefore check the deterministic
    ``beta*P + gamma*T`` improvement, while the measured seconds are still
    reported (and validated against the model in ``bench_cost_model_fit``).
    """
    cost = CostModel(config)
    untiled_cost = cost.cost(untiled.pixels_decoded, untiled.tiles_decoded)
    tiled_cost = cost.cost(tiled.pixels_decoded, tiled.tiles_decoded)
    return improvement_percent(untiled_cost, tiled_cost)
