"""A clock-free budget for the warm scan path.

``ops_per_s`` cannot gate on a noisy runner; counts can.  Once every tile a
scan needs is cached, serving a region is integer clipping plus one copy of a
slice: no :class:`~repro.geometry.Rectangle` is built per region and no
layout's tile rectangles are recomputed.  So both counts, taken over a warm
``TASM.execute``, must stay the same when the scan returns twice the regions.
"""

from __future__ import annotations

from repro.config import TasmConfig
from repro.core.predicates import LabelPredicate, TemporalPredicate
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.geometry import Rectangle
from repro.tiles.layout import TileLayout, uniform_layout
from tests.conftest import build_tiny_video


def test_warm_execute_builds_no_geometry_per_region(config: TasmConfig, monkeypatch):
    video = build_tiny_video()
    tasm = TASM(config=config.with_updates(decode_cache_bytes=64 * 1024 * 1024))
    tasm.ingest(video)
    tasm.add_detections(
        video.name, [d for frame in range(video.frame_count) for d in video.ground_truth(frame)]
    )
    # 3x3 tiles on every SOT, so boxes land inside tiles and across them.
    layout = uniform_layout(video.width, video.height, 3, 3, config.codec.block_size)
    for sot_index in range(tasm.video(video.name).sot_count):
        tasm.retile_sot(video.name, sot_index, layout)

    predicate = LabelPredicate.any_of(["car", "person", "sign"])

    def query(frames: int) -> Query:
        return Query(video.name, predicate, TemporalPredicate.between(0, frames))

    half, whole = query(5), query(10)  # one SOT's worth of frames, then two
    tasm.execute(whole)  # warm every tile either scan touches

    counts = {"rectangles": 0, "layouts": 0}
    build_rectangle = Rectangle.__init__
    build_layout = TileLayout.__dict__["_rectangles"].func

    def counting_rectangle(self, *args, **kwargs):
        counts["rectangles"] += 1
        build_rectangle(self, *args, **kwargs)

    def counting_layout(self):
        counts["layouts"] += 1
        return build_layout(self)

    monkeypatch.setattr(Rectangle, "__init__", counting_rectangle)
    monkeypatch.setattr(TileLayout.__dict__["_rectangles"], "func", counting_layout)

    def measure(scan: Query) -> tuple[int, dict]:
        counts.update(rectangles=0, layouts=0)
        result = tasm.execute(scan)
        assert result.pixels_decoded == 0 and result.cache_hits > 0
        return len(result.regions), dict(counts)

    n, small = measure(half)
    two_n, large = measure(whole)
    assert two_n == 2 * n > 0
    assert large == small, f"geometry built per region: {small} for {n}, {large} for {two_n}"
    assert small["layouts"] == 0
