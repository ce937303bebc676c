"""Tests for the simulated tile codec (repro.video.codec)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CodecConfig
from repro.errors import BitstreamCorruptionError, CodecError
from repro.geometry import Rectangle
from repro.video.codec import DecodeStats, EncodeStats, TileCodec
from repro.video.quality import psnr


@pytest.fixture
def codec(codec_config: CodecConfig) -> TileCodec:
    return TileCodec(codec_config)


def full_region(frames: list[np.ndarray]) -> Rectangle:
    height, width = frames[0].shape
    return Rectangle(0, 0, width, height)


class TestEncodeDecodeRoundTrip:
    def test_round_trip_quality(self, codec: TileCodec, flat_frames: list[np.ndarray]):
        tile = codec.encode_tile(flat_frames, full_region(flat_frames), 0, is_boundary_tile=False)
        decoded = codec.decode_tile(tile)
        assert len(decoded) == len(flat_frames)
        for original, reconstructed in zip(flat_frames, decoded):
            assert reconstructed.shape == original.shape
            assert psnr(original, reconstructed) > 35.0

    def test_boundary_tile_has_lower_quality(self, codec: TileCodec, flat_frames: list[np.ndarray]):
        region = full_region(flat_frames)
        clean = codec.decode_tile(
            codec.encode_tile(flat_frames, region, 0, is_boundary_tile=False)
        )
        degraded = codec.decode_tile(
            codec.encode_tile(flat_frames, region, 0, is_boundary_tile=True)
        )
        clean_psnr = np.mean([psnr(o, d) for o, d in zip(flat_frames, clean)])
        degraded_psnr = np.mean([psnr(o, d) for o, d in zip(flat_frames, degraded)])
        assert degraded_psnr < clean_psnr

    def test_sub_region_encoding(self, codec: TileCodec, flat_frames: list[np.ndarray]):
        region = Rectangle(8, 8, 32, 40)
        tile = codec.encode_tile(flat_frames, region, 0)
        decoded = codec.decode_tile(tile)
        assert decoded[0].shape == (32, 24)

    def test_partial_decode_matches_prefix_of_full_decode(
        self, codec: TileCodec, flat_frames: list[np.ndarray]
    ):
        tile = codec.encode_tile(flat_frames, full_region(flat_frames), 0, is_boundary_tile=False)
        partial = codec.decode_tile(tile, up_to_offset=3)
        complete = codec.decode_tile(tile)
        assert len(partial) == 4
        for a, b in zip(partial, complete[:4]):
            np.testing.assert_array_equal(a, b)


class TestStorageProperties:
    def test_keyframe_is_larger_than_predicted_frames(self, codec: TileCodec, tiny_video):
        # Use realistic textured frames: on real content intra frames compress
        # far less well than inter residuals, which is the storage property the
        # paper's GOP/SOT-length trade-off rests on.
        frames = [tiny_video.frame(index).pixels for index in range(5)]
        tile = codec.encode_tile(frames, full_region(frames), 0, is_boundary_tile=False)
        keyframe_size = len(tile.payloads[0])
        predicted_sizes = [len(payload) for payload in tile.payloads[1:]]
        assert keyframe_size > max(predicted_sizes)

    def test_size_accounting(self, codec: TileCodec, flat_frames: list[np.ndarray]):
        tile = codec.encode_tile(flat_frames, full_region(flat_frames), 0)
        assert tile.size_bytes == sum(len(p) for p in tile.payloads) + tile.header_bytes

    def test_static_content_compresses_well(self, codec: TileCodec):
        static = [np.full((48, 64), 100, dtype=np.uint8) for _ in range(8)]
        tile = codec.encode_tile(static, full_region(static), 0)
        # Predicted frames of a static scene are nearly empty.
        assert all(len(payload) < len(tile.payloads[0]) for payload in tile.payloads[1:])
        assert tile.size_bytes < static[0].size * len(static)


class TestStatsAccounting:
    def test_encode_stats(self, codec: TileCodec, flat_frames: list[np.ndarray]):
        stats = EncodeStats()
        region = Rectangle(0, 0, 32, 24)
        codec.encode_tile(flat_frames, region, 0, stats=stats)
        assert stats.tiles_encoded == 1
        assert stats.pixels_encoded == 32 * 24 * len(flat_frames)
        assert stats.bytes_written > 0

    def test_decode_stats_full(self, codec: TileCodec, flat_frames: list[np.ndarray]):
        stats = DecodeStats()
        tile = codec.encode_tile(flat_frames, full_region(flat_frames), 0)
        codec.decode_tile(tile, stats=stats)
        assert stats.tiles_decoded == 1
        assert stats.frames_decoded == len(flat_frames)
        assert stats.pixels_decoded == flat_frames[0].size * len(flat_frames)

    def test_decode_stats_partial(self, codec: TileCodec, flat_frames: list[np.ndarray]):
        stats = DecodeStats()
        tile = codec.encode_tile(flat_frames, full_region(flat_frames), 0)
        codec.decode_tile(tile, up_to_offset=2, stats=stats)
        assert stats.frames_decoded == 3
        assert stats.pixels_decoded == flat_frames[0].size * 3

    @pytest.mark.parametrize("asked", [0, 1, 3])
    def test_a_resume_that_inflates_nothing_counts_no_tile(self, codec, flat_frames, asked):
        """Another thread can deepen a cache entry between a miss and the
        decode: resuming from frames as deep as asked, or deeper, opens no
        bitstream."""
        tile = codec.encode_tile(flat_frames, full_region(flat_frames), 0)
        held = codec.decode_tile(tile, up_to_offset=3)
        stats = DecodeStats()
        frames = codec.decode_tile(tile, asked, stats, resume_from=held)
        assert stats == DecodeStats()
        assert len(frames) == len(held) and all(a is b for a, b in zip(frames, held))

    def test_stats_merge(self):
        a = DecodeStats(pixels_decoded=10, tiles_decoded=1, frames_decoded=2)
        b = DecodeStats(pixels_decoded=5, tiles_decoded=2, frames_decoded=3)
        a.merge(b)
        assert (a.pixels_decoded, a.tiles_decoded, a.frames_decoded) == (15, 3, 5)


class TestErrorHandling:
    def test_empty_gop_rejected(self, codec: TileCodec):
        with pytest.raises(CodecError):
            codec.encode_tile([], Rectangle(0, 0, 8, 8), 0)

    def test_region_outside_frame_rejected(self, codec: TileCodec, flat_frames):
        with pytest.raises(CodecError):
            codec.encode_tile(flat_frames, Rectangle(0, 0, 1000, 1000), 0)

    def test_empty_region_rejected(self, codec: TileCodec, flat_frames):
        with pytest.raises(CodecError):
            codec.encode_tile(flat_frames, Rectangle(8, 8, 8, 40), 0)

    def test_mismatched_frame_shapes_rejected(self, codec: TileCodec):
        frames = [np.zeros((16, 16), dtype=np.uint8), np.zeros((8, 8), dtype=np.uint8)]
        with pytest.raises(CodecError):
            codec.encode_tile(frames, Rectangle(0, 0, 16, 16), 0)

    def test_corrupted_payload_detected(self, codec: TileCodec, flat_frames):
        tile = codec.encode_tile(flat_frames, full_region(flat_frames), 0)
        corrupted_payloads = list(tile.payloads)
        corrupted_payloads[2] = b"garbage" + corrupted_payloads[2][7:]
        corrupted = type(tile)(
            region=tile.region,
            frame_start=tile.frame_start,
            frame_count=tile.frame_count,
            payloads=tuple(corrupted_payloads),
            checksums=tile.checksums,
            header_bytes=tile.header_bytes,
            is_boundary_tile=tile.is_boundary_tile,
        )
        with pytest.raises(BitstreamCorruptionError):
            codec.decode_tile(corrupted)

    def test_decode_offset_out_of_range(self, codec: TileCodec, flat_frames):
        tile = codec.encode_tile(flat_frames, full_region(flat_frames), 0)
        with pytest.raises(CodecError):
            codec.decode_tile(tile, up_to_offset=len(flat_frames))

    def test_encode_gop_requires_regions(self, codec: TileCodec, flat_frames):
        with pytest.raises(CodecError):
            codec.encode_gop(flat_frames, [], frame_start=0)


# ----------------------------------------------------------------------
# Property-based round-trip test
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    frame_count=st.integers(min_value=1, max_value=6),
)
def test_round_trip_is_within_quantisation_error(seed: int, frame_count: int):
    """Reconstructed pixels never drift more than the quantisation steps allow."""
    config = CodecConfig(
        gop_frames=frame_count,
        frame_rate=5,
        block_size=8,
        min_tile_width=16,
        min_tile_height=16,
    )
    codec = TileCodec(config)
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 255, size=(24, 32), dtype=np.uint8)
    frames = [base]
    for _ in range(frame_count - 1):
        drift = rng.integers(-3, 4, size=base.shape)
        frames.append(np.clip(frames[-1].astype(np.int16) + drift, 0, 255).astype(np.uint8))
    tile = codec.encode_tile(frames, Rectangle(0, 0, 32, 24), 0, is_boundary_tile=False)
    decoded = codec.decode_tile(tile)
    # The keyframe is within keyframe_quant; each predicted frame can add at
    # most predicted_quant of additional error.
    tolerance = config.keyframe_quant + config.predicted_quant
    for original, reconstructed in zip(frames, decoded):
        error = np.abs(original.astype(np.int16) - reconstructed.astype(np.int16))
        assert int(error.max()) <= tolerance
