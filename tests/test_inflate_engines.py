"""One inflate seam, two engines.

``TileCodec._inflate`` inflates a payload with the host's libdeflate when it
loads at import, and with ``zlib`` when it does not (the module's private
``_libdeflate`` handle is then None; these tests set it to None to run the
fallback).  The engines must be one decoder: the same frames and the same
``DecodeStats`` from every decode path, the same refusal of every damaged
stream whose CRC was resealed to match (so inflate's own checks are what
catch it), and the same frames from threads sharing one tile.  Each checks
the stored CRC-32 with its own implementation; the two compute one value.  Where the
library cannot be loaded, the libdeflate half is skipped and says why.
"""

from __future__ import annotations

import dataclasses
import re
import sys
import threading
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BitstreamCorruptionError
from repro.geometry import Rectangle
from repro.video import codec as codec_module
from repro.video.codec import DecodeStats, TileCodec

from tests.test_decoder_state_properties import CODECS, HEIGHT, WIDTH, same_frames
from tests.test_kernel_goldens import CODEC, LAYOUTS

LIBDEFLATE = codec_module._libdeflate
NO_LIBDEFLATE = "libdeflate.so.0 cannot be loaded on this host: only the zlib fallback runs"


@pytest.fixture(params=["libdeflate", "zlib"])
def engine(request, monkeypatch) -> str:
    """Run the test with one inflater, the other one out of reach."""
    fast = request.param == "libdeflate"
    if fast and LIBDEFLATE is None:
        pytest.skip(NO_LIBDEFLATE)
    monkeypatch.setattr(codec_module, "_libdeflate", LIBDEFLATE if fast else None)
    return request.param


def _no_such_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize(
    "cdll", [_no_such_library, lambda name: object()], ids=["not installed", "no inflate symbols"]
)
def test_a_host_whose_libdeflate_cannot_be_loaded_gets_the_zlib_fallback(monkeypatch, cdll):
    monkeypatch.setattr(codec_module.ctypes, "CDLL", cdll)
    assert codec_module._load_libdeflate() is None


@st.composite
def contents(draw) -> list[np.ndarray]:
    """Two to six 128x96 frames: uniform noise (barely compressible), pixels
    jumping between 0 and 255 from frame to frame (every clip binds), or a
    flat grey field (long runs, tiny payloads)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count, kind = draw(st.integers(2, 6)), draw(st.sampled_from(["noise", "jumps", "flat"]))
    if kind == "noise":
        return [rng.integers(0, 256, (HEIGHT, WIDTH), dtype=np.uint8) for _ in range(count)]
    if kind == "jumps":
        return [(rng.integers(0, 2, (HEIGHT, WIDTH)) * 255).astype(np.uint8) for _ in range(count)]
    level = int(rng.integers(0, 256))
    return [np.full((HEIGHT, WIDTH), level, dtype=np.uint8) for _ in range(count)]


def everything_decoded(codec: TileCodec, tiles) -> list[tuple[list[np.ndarray], DecodeStats]]:
    """Each tile decoded cold and resumed after every depth, and the GOP
    whole, cold and with every other tile's keyframe held: (frames, stats)."""
    decoded = []
    for tile in tiles:
        stats = DecodeStats()
        decoded.append((codec.decode_tile(tile, None, stats), stats))
        for depth in range(tile.frame_count - 1):
            stats, held = DecodeStats(), codec.decode_tile(tile, depth)
            decoded.append((codec.decode_tile(tile, None, stats, resume_from=held), stats))
    for held in (None, {tile.region: codec.decode_tile(tile, 0) for tile in tiles[::2]}):
        stats = DecodeStats()
        decoded.append(([codec.decode_gop(tiles, WIDTH, HEIGHT, stats, held)], stats))
    return decoded


@pytest.mark.skipif(LIBDEFLATE is None, reason=NO_LIBDEFLATE)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("steps", sorted(CODECS))
@settings(max_examples=10, deadline=None)
@given(frames=contents())
def test_both_engines_decode_the_same_frames_and_count_the_same_work(steps, layout, frames):
    codec = TileCodec(CODECS[steps])
    tiles = codec.encode_gop(frames, LAYOUTS[layout].tile_rectangles(), 0)
    fast = everything_decoded(codec, tiles)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec_module, "_libdeflate", None)
        fallback = everything_decoded(codec, tiles)
    assert len(fast) == len(fallback)
    for (frames_fast, stats_fast), (frames_fallback, stats_fallback) in zip(fast, fallback):
        assert same_frames(frames_fast, frames_fallback)
        assert stats_fast == stats_fallback


@pytest.fixture(scope="module")
def tile():
    """A 48x32 boundary tile of three noisy frames, and its raw samples."""
    rng = np.random.default_rng(36)
    frames = [rng.integers(0, 256, (HEIGHT, WIDTH), dtype=np.uint8) for _ in range(3)]
    encoded = TileCodec(CODEC).encode_tile(frames, Rectangle(16, 16, 64, 48), 0)
    return encoded, [zlib.decompress(payload) for payload in encoded.payloads]


def with_payload(tile, offset: int, payload: bytes):
    """``tile`` with one payload replaced and its CRC resealed to match."""
    payloads = list(tile.payloads)
    payloads[offset] = payload
    return dataclasses.replace(
        tile, payloads=tuple(payloads), checksums=tuple(zlib.crc32(p) for p in payloads)
    )


DAMAGE = {
    "flipped Adler-32 trailer": lambda payload, raw: payload[:-1] + bytes([payload[-1] ^ 0x01]),
    "truncated inside the deflate data": lambda payload, raw: payload[: len(payload) // 2],
    "truncated inside the trailer": lambda payload, raw: payload[:-2],
    "one sample too few": lambda payload, raw: zlib.compress(raw[:-1], 1),
    "one sample too many": lambda payload, raw: zlib.compress(raw + b"\x00", 1),
    "random bytes": lambda payload, raw: np.random.default_rng(len(raw)).bytes(len(payload)),
    "nothing": lambda payload, raw: b"",
}


@pytest.mark.parametrize("offset", [0, 2], ids=["keyframe", "predicted"])
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_damaged_stream_with_a_matching_crc_fails_on_both_engines(engine, tile, damage, offset):
    encoded, raw = tile
    broken = with_payload(encoded, offset, DAMAGE[damage](encoded.payloads[offset], raw[offset]))
    with pytest.raises(BitstreamCorruptionError, match="keyframe" if offset == 0 else "predicted"):
        TileCodec(CODEC).decode_tile(broken)


def test_bytes_after_the_stream_are_ignored_on_both_engines(engine, tile):
    encoded, _ = tile
    padded = with_payload(encoded, 1, encoded.payloads[1] + b"\x00trailing")
    assert same_frames(TileCodec(CODEC).decode_tile(padded), TileCodec(CODEC).decode_tile(encoded))


def test_four_threads_decoding_one_tile_get_the_same_frames(engine, tile):
    encoded, _ = tile
    codec = TileCodec(CODEC)
    expected = codec.decode_tile(encoded)
    start, failures = threading.Barrier(4), []

    def decode():
        try:
            start.wait(timeout=10.0)
            for _ in range(25):
                assert same_frames(codec.decode_tile(encoded), expected)
        except BaseException as error:  # reported by the assertion below
            failures.append(error)

    threads = [threading.Thread(target=decode) for _ in range(4)]
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


@pytest.mark.skipif(LIBDEFLATE is None, reason=NO_LIBDEFLATE)
@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=1 << 12), start=st.integers(0, 2**32 - 1))
def test_libdeflate_and_zlib_compute_one_crc32(data, start):
    """Stored checksums are zlib's, and either engine may check them."""
    assert LIBDEFLATE.libdeflate_crc32(0, data, len(data)) == zlib.crc32(data)
    assert LIBDEFLATE.libdeflate_crc32(start, data, len(data)) == zlib.crc32(data, start)


@pytest.mark.parametrize("offset", [0, 2], ids=["keyframe", "predicted"])
@pytest.mark.parametrize("stale", ["checksum", "payload"])
def test_a_payload_that_fails_its_stored_crc_names_tile_and_offset(engine, tile, offset, stale):
    encoded, raw = tile
    if stale == "checksum":
        checksums = list(encoded.checksums)
        checksums[offset] ^= 1
        broken = dataclasses.replace(encoded, checksums=tuple(checksums))
    else:  # a valid stream, but not the one the CRC was taken of
        payloads = list(encoded.payloads)
        payloads[offset] = zlib.compress(raw[offset], 9)
        broken = dataclasses.replace(encoded, payloads=tuple(payloads))
    expected = f"tile {encoded.region} frame offset {offset} failed its checksum"
    with pytest.raises(BitstreamCorruptionError, match=re.escape(expected)):
        TileCodec(CODEC).decode_tile(broken)


def test_the_crc_is_taken_by_the_engine_that_inflates(engine, tile, monkeypatch):
    encoded, _ = tile
    calls: Counter = Counter()
    crc32 = zlib.crc32

    def counted_zlib_crc32(data, value=0):
        calls["zlib.crc32"] += 1
        return crc32(data, value)

    class CountedLibdeflate:
        def __getattr__(self, name):
            calls[name] += 1
            return getattr(LIBDEFLATE, name)

    if engine == "libdeflate":
        monkeypatch.setattr(codec_module, "_libdeflate", CountedLibdeflate())
    monkeypatch.setattr(zlib, "crc32", counted_zlib_crc32)
    TileCodec(CODEC).decode_tile(encoded)
    frames = encoded.frame_count
    crcs = calls["libdeflate_crc32"], calls["zlib.crc32"]
    assert crcs == ((frames, 0) if engine == "libdeflate" else (0, frames))
