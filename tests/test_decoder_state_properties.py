"""Decoder state is cache state (beside ``test_kernel_goldens``, whose pins say
*what* the codec writes; this says the three ways of getting a tile's frames
agree).

The frames of a tile to depth *d* can come from a straight decode, from a
decode resumed after frames already held, or — for a tile just written — from
the encoder, which reconstructs every frame it predicts the next one from.
For generated frames under a 1x1, a 2x2 and an uneven layout, at the pinned
quantisation steps and at the harsh ones where the keyframe clip and the int8
residual clip both bind, all three are the same arrays, the work a resume
counts is exactly the work it did, a corrupt payload past the held frames is
still caught, and frames of another bitstream are never offered for a resume:
the cache compares tokens whatever the depth.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BitstreamCorruptionError
from repro.exec.cache import TileDecodeCache
from repro.geometry import Rectangle
from repro.video.codec import DecodeStats, TileCodec
from repro.video.decoder import RegionRequest, VideoDecoder
from repro.video.encoder import VideoEncoder

from tests.conftest import build_tiny_video
from tests.test_kernel_goldens import CODEC, HARSH_CODEC, LAYOUTS

CODECS = {"pinned": CODEC, "harsh": HARSH_CODEC}
WIDTH, HEIGHT = 128, 96


@st.composite
def gops(draw) -> list[np.ndarray]:
    """Two to six 128x96 frames: uniform noise over the full range (neighbours
    jump by up to 255, so the residual clip binds and 255s meet the keyframe
    clip), the goldens' modular ramps, or a slow drift that clips nothing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count, kind = draw(st.integers(2, 6)), draw(st.sampled_from(["noise", "ramps", "drift"]))
    if kind == "noise":
        return [rng.integers(0, 256, (HEIGHT, WIDTH), dtype=np.uint8) for _ in range(count)]
    grid = np.arange(HEIGHT * WIDTH, dtype=np.int64).reshape(HEIGHT, WIDTH)
    if kind == "ramps":
        a, b, c = (int(v) for v in rng.integers(1, 100, 3))
        return [((grid * (a + b * k) + c * k * k) % 256).astype(np.uint8) for k in range(count)]
    base = rng.integers(40, 200, (HEIGHT, WIDTH))
    return [np.clip(base + 3 * k, 0, 255).astype(np.uint8) for k in range(count)]


def encode_all(codec: TileCodec, frames, layout, keep_depth: int = -1):
    """``[(tile, frames the encoder kept)]`` for every tile of ``layout``."""
    encoded = []
    for region in layout.tile_rectangles():
        kept: list[np.ndarray] = []
        tile = codec.encode_tile(frames, region, 0, layout.tile_count > 1, None, kept, keep_depth)
        encoded.append((tile, kept))
    return encoded


def same_frames(actual, expected) -> bool:
    return len(actual) == len(expected) and all(
        got.dtype == np.uint8 and got.shape == want.shape and np.array_equal(got, want)
        for got, want in zip(actual, expected)
    )


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("steps", sorted(CODECS))
@settings(max_examples=12, deadline=None)
@given(frames=gops(), data=st.data())
def test_kept_resumed_and_straight_decodes_are_the_same_frames(steps, layout, frames, data):
    codec = TileCodec(CODECS[steps])
    last = len(frames) - 1
    keep_depth = data.draw(st.integers(-1, last), label="keep_depth")
    shallower = encode_all(codec, frames, LAYOUTS[layout], keep_depth)
    for n, (tile, kept) in enumerate(encode_all(codec, frames, LAYOUTS[layout], last)):
        # (a) what the encoder keeps is what the decoder reconstructs, to the
        # depth asked, and keeping changes nothing it writes.
        assert same_frames(kept, codec.decode_tile(tile))
        assert shallower[n][0] == tile and same_frames(shallower[n][1], kept[: keep_depth + 1])
        # (b) every split of a decode into a decode and a resume.
        for deep in range(1, last + 1):
            whole = DecodeStats()
            straight = codec.decode_tile(tile, deep, whole)
            for shallow in range(deep):
                first, rest = DecodeStats(), DecodeStats()
                held = codec.decode_tile(tile, shallow, first)
                resumed = codec.decode_tile(tile, deep, rest, resume_from=held)
                assert same_frames(resumed, straight)
                assert all(a is b for a, b in zip(resumed, held)) and len(held) == shallow + 1
                assert first.pixels_decoded + rest.pixels_decoded == whole.pixels_decoded
                assert first.frames_decoded + rest.frames_decoded == whole.frames_decoded == deep + 1
                assert rest.tiles_decoded == 1  # T counts the bitstream opened
        # ... and a resume from the encoder's own frames is one of them.
        if shallower[n][1]:
            assert same_frames(codec.decode_tile(tile, resume_from=shallower[n][1]), kept)


@pytest.mark.parametrize("steps", sorted(CODECS))
@settings(max_examples=10, deadline=None)
@given(frames=gops(), data=st.data())
def test_a_corrupt_payload_past_the_held_frames_still_fails_the_resume(steps, frames, data):
    codec = TileCodec(CODECS[steps])
    tile, _ = encode_all(codec, frames, LAYOUTS["uneven"])[data.draw(st.integers(0, 8))]
    broken = data.draw(st.integers(1, len(frames) - 1), label="corrupt offset")
    shallow = data.draw(st.integers(0, broken - 1), label="held depth")
    payloads = list(tile.payloads)
    payloads[broken] = payloads[broken][:-1] + bytes([payloads[broken][-1] ^ 0x01])
    flipped = dataclasses.replace(tile, payloads=tuple(payloads))
    # The same damage with its checksum made to match: inflate's own checks.
    checksums = tuple(zlib.crc32(payload) for payload in payloads)
    resealed = dataclasses.replace(flipped, checksums=checksums)
    held = codec.decode_tile(tile, shallow)
    for corrupted in (flipped, resealed):
        with pytest.raises(BitstreamCorruptionError):
            codec.decode_tile(corrupted, broken, resume_from=held)
        if broken - 1 > shallow:  # short of the damage the resume is sound
            assert same_frames(
                codec.decode_tile(corrupted, broken - 1, resume_from=held),
                codec.decode_tile(tile, broken - 1),
            )


def test_the_cache_offers_frames_for_a_resume_by_token_at_any_depth():
    """Two encodings of one rectangle — same key, same shapes, so nothing but
    the token tells their frames apart."""
    video, layout = build_tiny_video(), LAYOUTS["2x2"]
    sot = VideoEncoder(CODEC).encode_sot(video, 0, 0, 5, layout)
    other = VideoEncoder(HARSH_CODEC).encode_sot(video, 0, 0, 5, layout)
    tile, impostor = sot.gops[0].tiles[3], other.gops[0].tiles[3]
    assert tile.region == impostor.region and tile.checksums != impostor.checksums
    codec, key = TileCodec(CODEC), ("tiny-traffic", 0, 0, 3)

    cache = TileDecodeCache()
    shallow = codec.decode_tile(tile, 1)
    cache.put(key, shallow, token=tile.checksums)
    assert cache.get(key, min_depth=4, token=tile.checksums) is None  # too shallow to serve
    held = cache.held(key, tile.checksums)
    assert len(held) == 2 and all(a is b for a, b in zip(held, shallow))  # deep enough to resume
    assert cache.held(key, impostor.checksums) is None
    assert cache.held(("tiny-traffic", 0, 0, 2), tile.checksums) is None
    # ``held`` is not a read: it moves no count or rank, so the next eviction
    # still takes the older of two entries read once.
    lru = TileDecodeCache(capacity_bytes=2 * sum(frame.nbytes for frame in shallow))
    newer = ("tiny-traffic", 0, 0, 2)
    lru.put(key, shallow, token=tile.checksums)
    lru.put(newer, shallow, token=tile.checksums)
    assert lru.held(key, tile.checksums) is not None
    lru.put(("tiny-traffic", 0, 0, 1), shallow, token=tile.checksums)
    assert key not in lru and newer in lru

    # Through the decoder: an entry of the other bitstream under the tile's
    # key is neither served nor resumed from — the whole tile is decoded.
    cache.put(key, TileCodec(HARSH_CODEC).decode_tile(impostor, 1), token=impostor.checksums)
    request = [RegionRequest(4, Rectangle(70, 50, 120, 90))]
    cold = VideoDecoder(CODEC).decode_regions(sot, request)
    cached = VideoDecoder(CODEC, cache=cache).decode_regions(sot, request, scope="tiny-traffic")
    assert cached.regions[0].pixels.tobytes() == cold.regions[0].pixels.tobytes()
    assert cached.stats.pixels_decoded == cold.stats.pixels_decoded == 5 * tile.pixels_per_frame
    assert len(cache.held(key, tile.checksums)) == 5


def test_decoders_racing_to_deepen_one_tile_resume_and_never_decode_a_frame_twice():
    """Six threads over one shared cache, each asking the same tiles one frame
    deeper than the last (more threads than cores, a switch every 10 us): every
    region is the cold decode's, and with single-flight misses and resumes the
    frames decoded over the whole race are the frames of one straight decode."""
    video, layout = build_tiny_video(), LAYOUTS["uneven"]
    sot = VideoEncoder(CODEC).encode_sot(video, 0, 0, 5, layout)
    box = Rectangle(40, 24, 100, 80)  # spans all nine tiles' middle: 3x3
    cold = [
        VideoDecoder(CODEC).decode_regions(sot, [RegionRequest(frame, box)]).regions[0].pixels
        for frame in range(5)
    ]
    decoder = VideoDecoder(CODEC, cache=TileDecodeCache())
    decoded, failures = [], []

    def deepen():
        try:
            for frame in range(5):
                result = decoder.decode_regions(sot, [RegionRequest(frame, box)], scope="race")
                assert np.array_equal(result.regions[0].pixels, cold[frame])
                decoded.append(result.stats.frames_decoded)
        except BaseException as error:  # reported by the assertion below
            failures.append(error)

    threads = [threading.Thread(target=deepen) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not failures and not any(thread.is_alive() for thread in threads)
    touched = len(layout.tiles_intersecting(box))
    assert touched == 9 and sum(decoded) == touched * 5
