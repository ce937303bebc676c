"""A clock-free budget for decode work done twice (beside ``test_warm_path_budget``).

``pixels_decoded_per_op`` cannot gate on a runner that has no ledger; a count
of ``zlib.decompress`` calls per payload object can.  A cache entry is a
decoder paused at some depth, so while nothing is evicted no payload is ever
inflated twice: a scan that needs a held tile deeper resumes after the held
frames, and a re-tile hands the cache what its encoder reconstructed of the
area the cache held, so the new payloads of that area are not inflated at
all.  What the hand-over must not do is decode the video into the cache
during set-up: a SOT nothing was scanned from leaves nothing behind.  (At the
commit before the resume and the hand-over, W4 on the smoke scene inflated 64
of its 176 payloads two to four times over.)
"""

from __future__ import annotations

from collections import Counter

from repro.config import TasmConfig
from repro.core.query import Query, Workload
from repro.core.tasm import TASM
from repro.tiles.layout import uniform_layout
from repro.video.codec import TileCodec

from tests.conftest import build_tiny_video, run_w4_on_smoke_road
from tests.test_scan_plan_memo import regions_of


def test_w4_inflates_no_payload_twice_and_none_of_a_retiled_resident_area(monkeypatch):
    #: id(payload) -> [payload, times inflated]; holding the payload keeps its id its own.
    inflated: dict[int, list] = {}
    inflate = TileCodec._inflate

    def counting_inflate(payload, out, kind):
        inflated.setdefault(id(payload), [payload, 0])[1] += 1
        return inflate(payload, out, kind)

    #: Payloads a re-tile wrote for frames the cache held of that area.
    handed_over: list[bytes] = []
    retile_sot = TASM.retile_sot

    def recording_retile(self, video_name, sot_index, layout):
        tiled = self.video(video_name)
        old = tiled.encoded_sot(sot_index)
        with self.tile_cache._lock:
            resident = [
                (key[2], old.gops[(key[2] - old.frame_start) // old.gop_frames].tiles[key[3]].region,
                 entry.depth)
                for key, entry in self.tile_cache._entries.items()
                if key[:2] == (video_name, sot_index)
            ]
        record = retile_sot(self, video_name, sot_index, layout)
        new = tiled.encoded_sot(sot_index)
        for gop in new.gops if new is not old else ():
            for tile in gop.tiles:
                depth = max(
                    (held for start, area, held in resident
                     if start == gop.frame_start and area.intersects(tile.region)),
                    default=-1,
                )
                handed_over.extend(tile.payloads[: depth + 1])
        return record

    results: list = []
    with monkeypatch.context() as patched:
        patched.setattr(TileCodec, "_inflate", staticmethod(counting_inflate))
        patched.setattr(TASM, "retile_sot", recording_retile)
        tasm, video = run_w4_on_smoke_road(results=results)
    assert len(tasm.video(video.name).retile_history) == 3  # the run did re-tile
    assert tasm.tile_cache.stats.evictions == 0  # 16 MiB: unbounded, for this scene

    times = Counter(count for _, count in inflated.values())
    assert set(times) == {1}, f"payloads by times inflated: {dict(times)}"
    assert handed_over and not any(id(payload) in inflated for payload in handed_over)

    oracle: list = []
    run_w4_on_smoke_road(cache_bytes=0, results=oracle)
    assert len(results) == len(oracle) == 240
    for step, (result, expected) in enumerate(zip(results, oracle)):
        assert regions_of(result) == regions_of(expected), f"step {step}"
    assert sum(r.pixels_decoded for r in results) < sum(r.pixels_decoded for r in oracle)


def test_setting_up_layouts_with_a_cache_attached_leaves_it_empty(config: TasmConfig):
    """What a ledger workload does before its first scan (``build_tiled_tasm``:
    ingest, index, re-tile every SOT; ``optimize_for_workload``): no SOT has
    anything resident, so no re-tile keeps anything."""
    video = build_tiny_video()
    tasm = TASM(config.with_updates(decode_cache_bytes=64 << 20))
    tiled = tasm.ingest(video)
    tasm.add_detections(
        video.name, [d for frame in range(video.frame_count) for d in video.ground_truth(frame)]
    )
    chosen = tasm.optimize_for_workload(
        video.name,
        Workload("known", [Query.select("car", video.name), Query.select("person", video.name)]),
    )
    layout = uniform_layout(video.width, video.height, 2, 2, config.codec.block_size)
    for sot_index in range(tiled.sot_count):
        tasm.retile_sot(video.name, sot_index, layout)
    tiled.materialise_all()
    assert chosen and len(tiled.retile_history) == len(chosen) + tiled.sot_count
    assert tasm.tile_cache.current_bytes == 0 and len(tasm.tile_cache) == 0
    assert tasm.tile_cache.stats.insertions == 0
