"""The decoder's serve path against the rectangle-scan decoder it replaced.

The tile-span kernel changed how a region is located and cut out of its
tiles, not what comes back.  The digests and counters below were captured
from the rectangle-scan decoder (the parent commit of the kernel) on shapes
the perf ledger's workloads do not produce: three SOTs, requests in every
SOT and one outside them, boxes inside one tile, across 2x2 tiles,
exactly on tile boundaries, with float edges, clipped by the frame edge and
wholly outside the frame — cold, warm, and against a cache entry that is
too shallow for the request.  (The digests were captured again, once, when
the boundary artifact left the codec's reference chain and residuals began
rounding to the nearest step: the pixels moved, the counters did not.)
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest

from repro.config import CodecConfig
from repro.exec.cache import TileDecodeCache
from repro.geometry import Rectangle
from repro.tiles.layout import TileLayout
from repro.video.decoder import DecodeResult, RegionRequest, VideoDecoder
from repro.video.encoder import VideoEncoder

from tests.conftest import build_tiny_video

CODEC = CodecConfig(gop_frames=5, frame_rate=5, block_size=8, min_tile_width=16, min_tile_height=16)
LAYOUT = TileLayout(128, 96, row_heights=(32, 40, 24), column_widths=(48, 32, 48))
SCOPE = "tiny-traffic"

#: (frame, box), deliberately out of frame order; frames 0-4 / 5-9 / 10-14 are
#: the three SOTs, frame 20 lies outside them.
REQUESTS = [
    (12, Rectangle(100, 80, 160, 120)),      # clipped by the frame's corner
    (1, Rectangle(4, 4, 30, 20)),            # inside tile (0, 0)
    (7, Rectangle(40, 24, 70, 50)),          # spans 2x2 tiles
    (20, Rectangle(0, 0, 16, 16)),           # outside the SOT: skipped
    (13, Rectangle(10.5, 33.2, 60.7, 71.9)),  # float edges, two tiles wide
    (3, Rectangle(48, 32, 80, 72)),          # exactly tile (1, 1)
    (9, Rectangle(200, 200, 250, 250)),      # wholly outside the frame
    (4, Rectangle(4, 4, 30, 20)),            # same tile as frame 1, deeper
    (8, Rectangle(-5, 60, 140, 90)),         # wider than the frame, two rows
    (14, Rectangle(79.5, 71.5, 80.5, 72.5)),  # a pixel straddling four tiles
]
SHALLOW = [(6, Rectangle(50, 40, 70, 60))]
DEEPER = [(9, Rectangle(50, 40, 70, 60)), (6, Rectangle(50, 40, 70, 60))]

#: mode -> (sha256 over every region's frame, shape and bytes; DecodeStats as
#: (P, T, frames, cache hits, cache misses, pixels served from cache)).
GOLDEN = {
    "cold": (
        "444c0c713491028b76c06edc88701dacde167d18989d586d2d5c055c776a6297",
        (86528, 15, 63, 0, 0, 0),
    ),
    "first": (
        "444c0c713491028b76c06edc88701dacde167d18989d586d2d5c055c776a6297",
        (86528, 15, 63, 0, 15, 0),
    ),
    "warm": (
        "444c0c713491028b76c06edc88701dacde167d18989d586d2d5c055c776a6297",
        (0, 0, 0, 15, 0, 86528),
    ),
    "shallow": (
        "b53238bc079155e4189c66e7f8860a78b74c023653e556c084e5592fb7413f5c",
        (2560, 1, 2, 0, 1, 0),
    ),
    "deeper": (
        "f64dd3cc39b32e927713aa66fe794bba7a2bfa45f1b013b0f8deef1b6f89a399",
        # A miss, but resumed: frames 5-6 are held, so 7-9 of the 32x40 tile
        # are the three decoded (the rectangle-scan decoder started over: 6400, 5).
        (3840, 1, 3, 0, 1, 0),
    ),
}


def _requests(pairs) -> list[RegionRequest]:
    return [RegionRequest(frame_index=frame, region=box, label="x") for frame, box in pairs]


def _digest(result) -> str:
    sha = hashlib.sha256()
    for region in result.regions:
        sha.update(repr((region.frame_index, region.label, region.pixels.shape)).encode())
        sha.update(region.pixels.tobytes())
    return sha.hexdigest()


def observed() -> dict:
    """Every mode's (digest, stats) from the decoder under test."""
    video, encoder = build_tiny_video(), VideoEncoder(CODEC)
    sots = [encoder.encode_sot(video, sot, 5 * sot, 5 * sot + 5, LAYOUT) for sot in range(3)]
    seen = {}

    def record(mode, decoder, pairs, scope):
        result = DecodeResult()
        for sot in sots:
            served = decoder.decode_regions(sot, _requests(pairs), scope=scope)
            result.regions.extend(served.regions)
            result.stats.merge(served.stats)
        seen[mode] = (_digest(result), astuple(result.stats))

    record("cold", VideoDecoder(CODEC), REQUESTS, None)
    cached = VideoDecoder(CODEC, cache=TileDecodeCache(capacity_bytes=1 << 30))
    record("first", cached, REQUESTS, SCOPE)
    record("warm", cached, REQUESTS, SCOPE)
    extended = VideoDecoder(CODEC, cache=TileDecodeCache(capacity_bytes=1 << 30))
    record("shallow", extended, SHALLOW, SCOPE)
    record("deeper", extended, DEEPER, SCOPE)
    return seen


@pytest.fixture(scope="module")
def seen() -> dict:
    return observed()


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_matches_the_rectangle_scan_decoder(seen, mode):
    digest, stats = GOLDEN[mode]
    assert seen[mode][1] == stats  # P, T, frames, hits, misses, pixels from cache
    assert seen[mode][0] == digest


def test_the_modes_agree_with_each_other(seen):
    """Same requests, same bytes, whether decoded, cached or re-served; only
    the counters say which happened."""
    assert seen["cold"][0] == seen["first"][0] == seen["warm"][0]
    assert seen["warm"][1][:3] == (0, 0, 0)
    assert seen["deeper"][1][4] == 1  # the shallow entry could not serve frame 9
