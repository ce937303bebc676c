"""A clock-free budget for the warm scan path.

``ops_per_s`` cannot gate on a noisy runner; counts can.  Once every tile a
scan needs is cached and the scan has been asked before, serving a region is
one copy of a slice: the index is not looked up, no
:class:`~repro.video.decoder.RegionRequest` or
:class:`~repro.geometry.Rectangle` is built, no box is spanned over the tile
grid, no decode plan is made and no layout's tile rectangles are recomputed.
So every one of those counts, taken over a warm ``TASM.execute`` (or a warm
one-query ``execute_batch``), is zero, and stays zero when the scan returns
twice the regions.  A window asked for the first time, of a SOT that has been
asked about since its frames were last written, adds one thing: its plan is
cut out of the SOT's.  What that memory costs is bounded by a count of regions.
"""

from __future__ import annotations

from repro.config import TasmConfig
from repro.core import tasm as tasm_module
from repro.core.predicates import LabelPredicate, TemporalPredicate
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.geometry import Rectangle
from repro.index.semantic_index import BTreeSemanticIndex
from repro.tiles.layout import TileLayout, uniform_layout
from repro.video.decoder import RegionRequest, VideoDecoder
from tests.conftest import build_tiny_video

PREDICATE = LabelPredicate.any_of(["car", "person", "sign"])


def tiled_tasm(config: TasmConfig):
    """The tiny video, fully indexed, 3x3 tiles on every SOT — so boxes land
    inside tiles and across them — behind a cache that holds everything."""
    video = build_tiny_video()
    tasm = TASM(config=config.with_updates(decode_cache_bytes=64 * 1024 * 1024))
    tasm.ingest(video)
    tasm.add_detections(
        video.name, [d for frame in range(video.frame_count) for d in video.ground_truth(frame)]
    )
    layout = uniform_layout(video.width, video.height, 3, 3, config.codec.block_size)
    for sot_index in range(tasm.video(video.name).sot_count):
        tasm.retile_sot(video.name, sot_index, layout)
    return tasm, video


def count_calls(monkeypatch) -> dict:
    """Count, from now on, everything a repeated warm scan must not do."""
    counts = dict.fromkeys(
        ("rectangles", "layouts", "lookups", "requests", "spans", "plans", "depths"), 0
    )

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name, owner, attribute in (
        ("rectangles", Rectangle, "__init__"),
        ("lookups", BTreeSemanticIndex, "lookup"),
        ("requests", RegionRequest, "__init__"),
        ("spans", TileLayout, "tile_span"),
        ("plans", VideoDecoder, "_plan"),
    ):
        monkeypatch.setattr(owner, attribute, counting(name, getattr(owner, attribute)))
    depths = counting("depths", VideoDecoder._with_depths)  # every plan made, spanned or cut
    monkeypatch.setattr(VideoDecoder, "_with_depths", staticmethod(depths))
    rectangles = TileLayout.__dict__["_rectangles"]
    monkeypatch.setattr(rectangles, "func", counting("layouts", rectangles.func))
    return counts


def check_a_repeated_warm_scan_plans_nothing(config: TasmConfig, monkeypatch, execute) -> None:
    tasm, video = tiled_tasm(config)

    def run(scan: Query):
        return execute(tasm, scan)

    def query(frames: int) -> Query:
        return Query(video.name, PREDICATE, TemporalPredicate.between(0, frames))

    half, whole = query(5), query(10)  # one SOT's worth of frames, then two
    run(whole), run(half)  # warm every tile, and ask each scan once
    counts = count_calls(monkeypatch)

    def measure(scan: Query) -> tuple[int, dict]:
        counts.update(dict.fromkeys(counts, 0))
        result = run(scan)
        assert result.pixels_decoded == 0 and result.cache_hits > 0
        return len(result.regions), dict(counts)

    n, small = measure(half)
    two_n, large = measure(whole)
    assert two_n == 2 * n > 0
    assert small == large == dict.fromkeys(counts, 0), f"{small} for {n}, {large} for {two_n}"
    # Frames 5-6 were not asked for by themselves before, but SOT 1 was: its
    # part of this scan is a slice of that piece, its plan a cut of that plan's
    # entries with the tile depths worked out again — nothing else.
    _, first_time = measure(query(7))
    assert first_time == {**small, "depths": 1}
    # The counters do count: after a write to SOT 1's frames, SOT 1 — all of it,
    # whatever the window — is looked up (three labels) and planned, once.
    tasm.add_metadata(video.name, 6, "car", 0, 0, 10, 10)
    _, new = measure(query(7))
    assert new["lookups"] == 3 and new["plans"] == 1 and new["spans"] == new["requests"] > n
    assert measure(query(8))[1] == first_time and measure(query(7))[1] == small


def test_warm_execute_builds_no_geometry_per_region(config: TasmConfig, monkeypatch):
    check_a_repeated_warm_scan_plans_nothing(
        config, monkeypatch, lambda tasm, scan: tasm.execute(scan)
    )


def test_a_warm_one_query_batch_shares_the_memoised_plan(config: TasmConfig, monkeypatch):
    """Warm (prefetch) and serve of a SOT one query wants are handed the same
    piece, so neither plans."""
    check_a_repeated_warm_scan_plans_nothing(
        config, monkeypatch, lambda tasm, scan: tasm.execute_batch([scan]).results[0]
    )


def test_memoised_regions_are_bounded_and_an_evicted_piece_is_planned_again(
    config: TasmConfig, monkeypatch
):
    assert tasm_module._MEMOISED_SCAN_REGIONS == 16_384  # ~8 MB; see its comment
    bound = 40
    monkeypatch.setattr(tasm_module, "_MEMOISED_SCAN_REGIONS", bound)
    tasm, video = tiled_tasm(config)

    def findable() -> int:
        return sum(
            len(answer.requests) or 1
            for _, answers in tasm._what_if.values()
            for question, answer in answers.items()
            if len(question) == 3
        )

    first = Query(video.name, PREDICATE, TemporalPredicate.between(0, 3))
    expected = [(r.frame_index, r.region, r.pixels.tobytes()) for r in tasm.execute(first).regions]
    first_piece = tasm._plan(first).sot_requests[0][1]
    windows = [(start, stop) for start in range(15) for stop in range(start + 1, 16)]
    total = 0
    for start, stop in windows:  # 120 distinct windows, far more regions than the bound
        scan = Query(video.name, PREDICATE, TemporalPredicate.between(start, stop))
        total += len(tasm.execute(scan).regions)
        assert findable() <= tasm._scan_regions <= bound
    assert total > 10 * bound
    assert tasm._plan(first).sot_requests[0][1] is not first_piece  # it went
    again = tasm.execute(first)
    assert [(r.frame_index, r.region, r.pixels.tobytes()) for r in again.regions] == expected
    # A write strands pieces in the queue; they stay counted until they leave.
    tasm.add_metadata(video.name, 1, "car", 0, 0, 10, 10)
    tasm.execute(first)
    assert findable() <= tasm._scan_regions <= bound
