"""A clock-free budget for the warm scan: it reads the decode cache in place.

A warm scan's regions are the cache's own frames.  Served through
``TASM.execute``, ``TASM.execute_batch`` or an in-process ``TasmServer``:

* every region whose box lies inside one tile shares memory with a frame a
  cache entry holds (a box across tiles is assembled, so it shares none);
* ``tracemalloc`` counts less than a tenth of the returned pixel bytes
  allocated while the warm scan runs — a copy per region would be all of
  them, plus the regions themselves.

Counts and bytes, not clocks, so it gates on a noisy runner.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.config import TasmConfig
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.service import TasmServer
from repro.tiles.layout import uniform_layout
from tests.conftest import build_tiny_video
from tests.test_exec_engine import assert_read_only_pixels

WIDTH, HEIGHT = 256, 192
#: Inside each tile of a 2x2 grid (tiles of 128x96), and one across all four.
INSIDE = [(8 + x, 8 + y, 120 + x, 88 + y) for y in (0, HEIGHT // 2) for x in (0, WIDTH // 2)]
ACROSS = (118, 86, 138, 106)


def boxed_tasm(config: TasmConfig, cache_bytes: int) -> tuple[TASM, object]:
    """A 256x192 scene in 2x2 tiles on every SOT, a "box" label on every
    frame: four large boxes inside tiles and a small one across them."""
    video = build_tiny_video(width=WIDTH, height=HEIGHT)
    tasm = TASM(config=replace(config, decode_cache_bytes=cache_bytes))
    tasm.ingest(video)
    for frame in range(video.frame_count):
        for box in INSIDE + [ACROSS]:
            tasm.add_metadata(video.name, frame, "box", *box)
    layout = uniform_layout(WIDTH, HEIGHT, 2, 2, config.codec.block_size)
    for sot_index in range(tasm.video(video.name).sot_count):
        tasm.retile_sot(video.name, sot_index, layout)
    return tasm, video


def cached_frames(tasm: TASM) -> list[np.ndarray]:
    with tasm.tile_cache._lock:
        return [frame for entry in tasm.tile_cache._entries.values() for frame in entry.frames]


def allocated_while(scan) -> tuple[object, int]:
    """What ``scan()`` returns, and the traced bytes it had allocated at its
    peak beyond what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results = scan()
        return results, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def warm_scan(tasm: TASM, video, path: str) -> tuple[list, int]:
    """One warm scan on ``path`` (a first one filled the cache): its
    results, and the bytes it allocated."""
    if path == "TasmServer":
        with TasmServer(tasm) as server:
            client = server.connect()
            client.scan(video.name, "box")
            return allocated_while(lambda: [client.scan(video.name, "box")])
    query = Query.select("box", video.name)
    scan = {
        "execute": lambda: [tasm.execute(query)],
        "execute_batch": lambda: list(tasm.execute_batch([query, query])),
    }[path]
    scan()
    return allocated_while(scan)


@pytest.mark.parametrize("path", ["execute", "execute_batch", "TasmServer"])
def test_a_warm_scan_views_the_cache_and_allocates_under_a_tenth_of_its_pixels(config, path):
    tasm, video = boxed_tasm(config, cache_bytes=64 * 1024 * 1024)
    results, allocated = warm_scan(tasm, video, path)
    frames = cached_frames(tasm)
    inside = across = pixel_bytes = 0
    for result in results:
        assert result.pixels_decoded == 0
        for region in result.regions:
            assert_read_only_pixels(region.pixels)
            pixel_bytes += region.pixels.nbytes
            shared = any(np.shares_memory(region.pixels, frame) for frame in frames)
            if region.region.as_int_tuple() == ACROSS:
                across += 1
                assert not shared, "a box across tiles is assembled, not a view"
            else:
                inside += 1
                assert shared, f"{region.region} inside one tile was copied"
    assert inside == 4 * across > 0
    assert allocated < pixel_bytes / 10, f"{allocated} bytes allocated for {pixel_bytes} returned"
