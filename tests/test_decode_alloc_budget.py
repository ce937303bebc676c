"""A clock-free budget for the memory a tile decode allocates.

``peak_rss_mb`` cannot gate on a noisy runner; ``tracemalloc``, which sees
numpy's buffers, can.  A decode call reconstructs its frames in one
``(n, h, w)`` block: libdeflate inflates each payload straight into its row
and the frame is rebuilt there, so the call allocates the frames it returns
and little else — no per-frame sample buffer, no temporary frame.  A resume
allocates only the frames past the held ones, plus, resuming after a
boundary tile's keyframe alone, the one reference that keyframe shows.  What
a cache entry holds is what it accounts for: no frame keeps a hidden row of
a larger buffer alive.

The budgets are libdeflate's: ``zlib.decompress`` returns its samples in a
bytes object of its own and allocates its inflate window through Python's
allocator, so on the fallback engine the same decode traces some 70 KiB
more.  Where libdeflate cannot be loaded the two budgets are skipped.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.query import Query
from repro.geometry import Rectangle
from repro.tiles.layout import uniform_layout
from repro.video import codec as codec_module
from repro.video.codec import TileCodec

from tests.test_kernel_goldens import CODEC
from tests.test_warm_path_budget import tiled_tasm

FRAMES, SIDE = 5, 128
FRAME_BYTES = SIDE * SIDE
#: Room for the objects around the buffers: the returned list, its row views.
SLACK = 8 << 10

needs_libdeflate = pytest.mark.skipif(
    codec_module._libdeflate is None, reason="libdeflate.so.0 cannot be loaded on this host"
)


@pytest.fixture(scope="module")
def tile():
    """A 128x128 boundary tile of five noisy frames (barely compressible)."""
    rng = np.random.default_rng(44)
    frames = [rng.integers(0, 256, (SIDE + 32, SIDE + 32), dtype=np.uint8) for _ in range(FRAMES)]
    return TileCodec(CODEC).encode_tile(frames, Rectangle(16, 16, 16 + SIDE, 16 + SIDE), 0)


def peak_bytes(decode) -> tuple[list[np.ndarray], int]:
    """``decode()``'s frames, and the most memory it held at once beyond
    what was allocated before it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        frames = decode()
        return frames, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@needs_libdeflate
def test_a_cold_decode_allocates_its_frames_and_no_temporaries(tile):
    codec = TileCodec(CODEC)
    frames, peak = peak_bytes(lambda: codec.decode_tile(tile))
    assert len(frames) == FRAMES
    assert peak <= FRAMES * FRAME_BYTES + SLACK, f"{peak - FRAMES * FRAME_BYTES} bytes over"


@needs_libdeflate
@pytest.mark.parametrize("held", [1, 2, 4])
def test_a_resume_allocates_only_its_new_frames(tile, held):
    codec = TileCodec(CODEC)
    resume_from = codec.decode_tile(tile, held - 1)
    frames, peak = peak_bytes(lambda: codec.decode_tile(tile, None, resume_from=resume_from))
    new = FRAMES - held
    # A boundary keyframe alone shows floors in its ring: the reference
    # frame 1 is predicted from is lifted out of it, in a copy.
    reference = FRAME_BYTES if held == 1 else 0
    assert frames[:held] == resume_from and len(frames) == FRAMES
    assert peak <= (new * FRAME_BYTES) + reference + SLACK, f"{peak - new * FRAME_BYTES} bytes"


def owners(frames: list[np.ndarray]) -> list[np.ndarray]:
    """The distinct buffers ``frames`` keep alive."""
    roots = {}
    for frame in frames:
        while frame.base is not None:
            frame = frame.base
        roots[id(frame)] = frame
    return list(roots.values())


def test_a_cache_entry_holds_no_bytes_beyond_its_accounted_size(config):
    """Cold, resumed and handed-over entries alike: every buffer an entry's
    frames keep alive is counted in its ``nbytes``."""
    tasm, video = tiled_tasm(config)
    gop = config.codec.gop_frames
    for query in (
        Query.select_range("car", video.name, 0, 2),  # shallow entries ...
        Query.select("car", video.name),  # ... resumed deeper
        Query.select("person", video.name),
    ):
        tasm.execute(query)
    layout = uniform_layout(video.width, video.height, 2, 2, config.codec.block_size)
    tasm.retile_sot(video.name, 0, layout)  # hands what was resident over
    # SOT 1's first sign tile: decoded two frames deep, then resumed to the
    # end of its GOP.
    key = (video.name, 1, gop, 0)
    tasm.execute(Query.select_range("sign", video.name, gop, gop + 2))
    assert len(tasm.tile_cache._entries[key].frames) == 2
    tasm.execute(Query.select_range("sign", video.name, gop, 2 * gop))
    resumed = tasm.tile_cache._entries[key]
    # A resumed entry's frames are rows of two blocks: the held and the new.
    assert len(resumed.frames) == gop and len(owners(resumed.frames)) == 2
    entries = list(tasm.tile_cache._entries.values())
    for entry in entries:
        held = sum(owner.nbytes for owner in owners(entry.frames))
        assert held == entry.nbytes == sum(frame.nbytes for frame in entry.frames)
