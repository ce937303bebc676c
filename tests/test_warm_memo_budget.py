"""A repeated warm piece is served from the decode cache's region memo.

The decode cache keeps, per ``(video, SOT)``, the regions a warm serve of a
:class:`~repro.video.decoder.ScanPiece` built, filed under the piece with the
frame lists its tile lookups returned.  The properties:

* a repeated warm ``execute`` or ``execute_batch`` hands back the very region
  objects of the previous one, builds no region, and counts what the first
  warm serve counted (every tile is still looked up); each result's
  ``regions`` is still a list of its own;
* the memo holds no pixel buffer of its own: every frame list it keeps is an
  entry's, and every region views a held frame; a piece with a box across
  tiles, whose pixels are copied, is not memoised;
* whatever lets an entry of a SOT go — an eviction, ``retile_sot``, a
  ``TiledVideo.retile`` behind TASM's back (a token mismatch), a deeper query
  that resumes an entry — drops that SOT's memo with it, so a frame the cache
  let go dies once the caller's own results do, and the next scan equals a
  cache-less TASM's byte for byte;
* two threads serving one piece while a third re-tiles its SOT only ever see
  what a cache-less TASM decodes under one of the layouts.

Counts, identities and weak references, not clocks.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.config import TasmConfig
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.tiles.layout import TileLayout, uniform_layout
from repro.video import decoder as decoder_module
from repro.video.decoder import DecodedRegion
from tests.conftest import build_tiny_video
from tests.test_scan_plan_memo import regions_of
from tests.test_zero_copy_budget import ACROSS, HEIGHT, INSIDE, WIDTH

BIG_CACHE = 64 * 1024 * 1024
#: Four 2x2 tiles of 128x96 over one 5-frame SOT, and a little more: a
#: second SOT's tiles evict the first's.
ONE_SOT_CACHE = 300_000


def scene(config: TasmConfig, cache_bytes: int) -> tuple[TASM, object]:
    """A 256x192 scene in 2x2 tiles on every SOT: an "inside" box in each
    tile and an "across" box over all four, on every frame."""
    video = build_tiny_video(width=WIDTH, height=HEIGHT)
    tasm = TASM(config=config.with_updates(decode_cache_bytes=cache_bytes))
    tasm.ingest(video)
    for frame in range(video.frame_count):
        for box in INSIDE:
            tasm.add_metadata(video.name, frame, "inside", *box)
        tasm.add_metadata(video.name, frame, "across", *ACROSS)
    layout = uniform_layout(WIDTH, HEIGHT, 2, 2, config.codec.block_size)
    for sot_index in range(tasm.video(video.name).sot_count):
        tasm.retile_sot(video.name, sot_index, layout)
    return tasm, video


def cacheless(tasm: TASM, video) -> TASM:
    """A TASM with no decode cache, reading the same index and holding the
    same layouts as ``tasm`` now."""
    reference = TASM(config=tasm.config.with_updates(decode_cache_bytes=0),
                     semantic_index=tasm.semantic_index)
    reference.ingest(video)
    tiled = tasm.video(video.name)
    for sot_index in tiled.layout_spec.tiled_sots():
        reference.retile_sot(video.name, sot_index, tiled.layout_for(sot_index))
    return reference


def count_region_builds(monkeypatch) -> list[int]:
    """From now on, count every region built, by either constructor."""
    built = [0]

    def counting(original):
        def counted(*args, **kwargs):
            built[0] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(decoder_module, "make_region", counting(decoder_module.make_region))
    monkeypatch.setattr(DecodedRegion, "__init__", counting(DecodedRegion.__init__))
    return built


def assert_memo_views_only_held_frames(tasm: TASM) -> None:
    """Every frame list a memo keeps is a cache entry's own, and every region
    it keeps views a frame an entry holds."""
    cache = tasm.tile_cache
    with cache._lock:
        lists = [entry.frames for entry in cache._entries.values()]
        memos = [list(memo.values()) for memo in cache._memos.values()]
    held = [frame for frames in lists for frame in frames]
    for served in (value for values in memos for value in values):
        _, looked_up, regions = served
        assert all(any(frames is entry for entry in lists) for frames in looked_up)
        for region in regions:
            assert any(np.shares_memory(region.pixels, frame) for frame in held)


def frame_refs(tasm: TASM, video, sot_index: int) -> list[weakref.ref]:
    """Weak references to every frame the cache holds of one SOT, and to the
    blocks they are rows of."""
    cache = tasm.tile_cache
    with cache._lock:
        frames = [
            frame
            for key, entry in cache._entries.items()
            if key[:2] == (video.name, sot_index)
            for frame in entry.frames
        ]
    assert frames
    return [weakref.ref(array) for frame in frames for array in (frame, frame.base) if array is not None]


def assert_only_held_arrays_live(tasm: TASM, refs: list[weakref.ref]) -> int:
    """After a collection, every array ``refs`` name that is still alive is
    one the cache holds (a frame or the block it is a row of); returns how
    many have died."""
    gc.collect()
    with tasm.tile_cache._lock:
        held = {
            id(array)
            for entry in tasm.tile_cache._entries.values()
            for frame in entry.frames
            for array in (frame, frame.base)
        }
    alive = [array for array in (ref() for ref in refs) if array is not None]
    leaked = [array for array in alive if id(array) not in held]
    assert not leaked, f"{len(leaked)} arrays the cache let go are still alive"
    return len(refs) - len(alive)


@pytest.mark.parametrize("path", ["execute", "execute_batch"])
def test_a_repeated_warm_scan_hands_back_the_memoised_regions(config, monkeypatch, path):
    tasm, video = scene(config, BIG_CACHE)
    query = Query.select("inside", video.name)
    run = {
        "execute": lambda: [tasm.execute(query)],
        "execute_batch": lambda: tasm.execute_batch([query, query]).results,
    }[path]
    built = count_region_builds(monkeypatch)
    run()  # cold: decodes and fills the cache
    first = run()  # the first warm serve
    assert built[0] >= len(first[0].regions) > 0
    before = built[0]
    again = run()
    assert built[0] == before, "a repeated warm serve built regions"
    for previous, result in zip(first, again):
        assert result.pixels_decoded == 0
        assert result.regions is not previous.regions
        assert len(result.regions) == len(previous.regions) == 4 * video.frame_count
        assert all(ours is theirs for ours, theirs in zip(result.regions, previous.regions))
        assert result.stats == previous.stats
    # Each result's list is its own: changing one changes no other, nor the memo.
    again[0].regions.clear()
    assert regions_of(run()[0]) == regions_of(cacheless(tasm, video).execute(query))
    assert_memo_views_only_held_frames(tasm)


def test_a_piece_with_a_box_across_tiles_is_not_memoised(config):
    tasm, video = scene(config, BIG_CACHE)
    query = Query.select_any(["inside", "across"], video.name)
    tasm.execute(query)
    first, again = tasm.execute(query), tasm.execute(query)
    assert first.pixels_decoded == again.pixels_decoded == 0
    assert not any(ours is theirs for ours, theirs in zip(again.regions, first.regions))
    assert not any(len(memo) for memo in tasm.tile_cache._memos.values())
    assert regions_of(again) == regions_of(cacheless(tasm, video).execute(query))


def memoised_sot_0(config) -> tuple[TASM, object, Query, list[weakref.ref]]:
    """A SOT-0 scan served twice (so its regions are memoised), and weak
    references to every frame the cache holds of SOT 0."""
    tasm, video = scene(config, ONE_SOT_CACHE)
    query = Query.select_range("inside", video.name, 0, config.codec.gop_frames)
    tasm.execute(query)
    first, again = tasm.execute(query), tasm.execute(query)
    assert all(ours is theirs for ours, theirs in zip(again.regions, first.regions))
    assert len(tasm.tile_cache._memos[(video.name, 0)]) == 1
    return tasm, video, query, frame_refs(tasm, video, 0)


def evict(tasm: TASM, video, config) -> None:
    gop = config.codec.gop_frames
    tasm.execute(Query.select_range("inside", video.name, gop, 2 * gop))


def retile_through_tasm(tasm: TASM, video, config) -> None:
    tasm.retile_sot(video.name, 0, tasm.video(video.name).untiled_layout)


def retile_behind_tasms_back(tasm: TASM, video, config) -> None:
    tasm.video(video.name).retile(0, uniform_layout(WIDTH, HEIGHT, 2, 1, config.codec.block_size))


@pytest.mark.parametrize(
    "let_go", [evict, retile_through_tasm, retile_behind_tasms_back], ids=lambda f: f.__name__
)
def test_what_lets_a_frame_go_drops_the_memo_with_it(config, let_go):
    """The eviction case kills a memo that outlives the entries it viewed:
    the memo's frame lists would keep the evicted frames alive."""
    tasm, video, query, refs = memoised_sot_0(config)
    let_go(tasm, video, config)
    assert_only_held_arrays_live(tasm, refs)
    # Behind TASM's back nothing reaches the cache until a scan meets the new
    # checksums; that scan is where the old entries are removed.
    result = tasm.execute(query)
    assert regions_of(result) == regions_of(cacheless(tasm, video).execute(query))
    assert_memo_views_only_held_frames(tasm)
    del result
    assert assert_only_held_arrays_live(tasm, refs) > 0


def test_a_deeper_query_that_resumes_an_entry_drops_the_memo(config):
    tasm, video = scene(config, BIG_CACHE)
    shallow = Query.select_range("inside", video.name, 0, 2)
    tasm.execute(shallow)
    first, again = tasm.execute(shallow), tasm.execute(shallow)
    assert all(ours is theirs for ours, theirs in zip(again.regions, first.regions))
    held = {key: entry.frames for key, entry in tasm.tile_cache._entries.items() if key[1] == 0}
    tasm.execute(Query.select_range("inside", video.name, 0, config.codec.gop_frames))
    resumed = tasm.tile_cache._entries
    assert all(len(resumed[key].frames) > len(frames) for key, frames in held.items())
    assert (video.name, 0) not in tasm.tile_cache._memos
    after = tasm.execute(shallow)
    assert not any(ours is theirs for ours, theirs in zip(after.regions, first.regions))
    assert regions_of(after) == regions_of(cacheless(tasm, video).execute(shallow))
    assert_memo_views_only_held_frames(tasm)


RETILES = 24


def test_servers_of_one_piece_racing_a_retiler_see_one_layout_or_the_other(config):
    tasm, video = scene(config, BIG_CACHE)
    query = Query.select_range("inside", video.name, 0, config.codec.gop_frames)
    # Every box inside one tile under both; the second's tile edges meet two
    # of the boxes, so the keyframe ring they show differs.
    layouts = [tasm.video(video.name).layout_for(0), TileLayout(WIDTH, HEIGHT, (104, 88), (136, 120))]
    allowed = []
    for layout in layouts:
        reference = cacheless(tasm, video)
        reference.retile_sot(video.name, 0, layout)
        allowed.append(regions_of(reference.execute(query)))
    assert allowed[0] != allowed[1]  # the encodings' boundary pixels differ
    failures, repeats, serving = [], [], threading.Event()
    serving.set()

    def runner():
        previous = None
        try:
            while serving.is_set():
                results = [tasm.execute(query), *tasm.execute_batch([query, query]).results]
                for result in results:
                    assert regions_of(result) in allowed
                    if previous is not None and result.regions[0] is previous.regions[0]:
                        repeats.append(True)  # served from the memo
                    previous = result
        except BaseException as error:  # reported by the assertion below
            failures.append(error)

    def retiler():
        try:
            for step in range(RETILES):
                tasm.retile_sot(video.name, 0, layouts[(step + 1) % 2])
                time.sleep(0.005)  # let the runners serve the new tiles warm
        except BaseException as error:
            failures.append(error)
        finally:
            serving.clear()

    threads = [threading.Thread(target=runner) for _ in range(2)]
    threads.append(threading.Thread(target=retiler))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        serving.clear()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert repeats, "no serve came from the memo"
    assert regions_of(tasm.execute(query)) in allowed
    assert_memo_views_only_held_frames(tasm)
