"""Tests for SOT encoding, region decoding, and stitching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CodecConfig
from repro.errors import CodecError
from repro.geometry import Rectangle
from repro.tiles.layout import TileLayout, VideoLayoutSpec, uniform_layout, untiled_layout
from repro.video.codec import EncodeStats
from repro.video.decoder import RegionRequest, VideoDecoder
from repro.video.encoder import VideoEncoder
from repro.video.quality import psnr
from repro.video.stitching import stitch_tiles

from tests.conftest import crop, decode_full_frames


@pytest.fixture
def encoder(codec_config: CodecConfig) -> VideoEncoder:
    return VideoEncoder(codec_config)


@pytest.fixture
def decoder(codec_config: CodecConfig) -> VideoDecoder:
    return VideoDecoder(codec_config)


class TestVideoEncoder:
    def test_sot_structure(self, encoder, tiny_video, codec_config):
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, codec_config.block_size)
        sot = encoder.encode_sot(tiny_video, 0, 0, 10, layout)
        assert sot.frame_count == 10
        assert len(sot.gops) == 2  # 10 frames / 5-frame GOPs
        assert all(gop.tile_count == 4 for gop in sot.gops)
        assert sot.size_bytes > 0
        assert sot.encode_seconds > 0

    def test_layout_dimension_mismatch_rejected(self, encoder, tiny_video):
        wrong = untiled_layout(tiny_video.width + 8, tiny_video.height)
        with pytest.raises(CodecError):
            encoder.encode_sot(tiny_video, 0, 0, 5, wrong)

    def test_empty_range_rejected(self, encoder, tiny_video):
        layout = untiled_layout(tiny_video.width, tiny_video.height)
        with pytest.raises(CodecError):
            encoder.encode_sot(tiny_video, 0, 5, 5, layout)

    def test_encode_video_with_spec(self, encoder, tiny_video, codec_config):
        spec = VideoLayoutSpec(
            frame_width=tiny_video.width,
            frame_height=tiny_video.height,
            frame_count=tiny_video.frame_count,
            sot_frames=codec_config.gop_frames,
        )
        spec.set_layout(1, uniform_layout(tiny_video.width, tiny_video.height, 2, 2))
        stats = EncodeStats()
        sots = [
            encoder.encode_sot(
                tiny_video, sot, *spec.frame_range(sot), spec.layout_for(sot), stats=stats
            )
            for sot in range(spec.sot_count)
        ]
        assert len(sots) == spec.sot_count
        assert sots[0].layout.is_untiled
        assert sots[1].layout.tile_count == 4
        assert stats.pixels_encoded == tiny_video.width * tiny_video.height * tiny_video.frame_count

    def test_more_keyframes_means_more_bytes(self, tiny_video):
        short_gop = VideoEncoder(CodecConfig(gop_frames=3, frame_rate=5, block_size=8,
                                             min_tile_width=16, min_tile_height=16))
        long_gop = VideoEncoder(CodecConfig(gop_frames=15, frame_rate=5, block_size=8,
                                            min_tile_width=16, min_tile_height=16))
        layout = untiled_layout(tiny_video.width, tiny_video.height)
        short_size = short_gop.encode_sot(tiny_video, 0, 0, 15, layout).size_bytes
        long_size = long_gop.encode_sot(tiny_video, 0, 0, 15, layout).size_bytes
        assert short_size > long_size


class TestVideoDecoder:
    def test_region_pixels_match_source(self, encoder, decoder, tiny_video, codec_config):
        """Decoded region pixels equal the original within quantisation error."""
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, codec_config.block_size)
        sot = encoder.encode_sot(tiny_video, 0, 0, 10, layout)
        region = Rectangle(8, 40, 48, 64)
        result = decoder.decode_regions(sot, [RegionRequest(frame_index=4, region=region)])
        assert len(result.regions) == 1
        decoded = result.regions[0].pixels
        original = crop(tiny_video.frame(4), region)
        assert decoded.shape == original.shape
        assert psnr(original, decoded) > 28.0

    def test_only_intersecting_tiles_are_decoded(self, encoder, decoder, tiny_video, codec_config):
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, codec_config.block_size)
        sot = encoder.encode_sot(tiny_video, 0, 0, 5, layout)
        # A small region in the top-left tile only.
        result = decoder.decode_regions(sot, [RegionRequest(0, Rectangle(0, 0, 10, 10))])
        assert result.stats.tiles_decoded == 1
        tile_area = layout.tile_rectangles()[0].area
        assert result.stats.pixels_decoded == tile_area  # keyframe only

    def test_temporal_dependency_costs_pixels(self, encoder, decoder, tiny_video):
        layout = untiled_layout(tiny_video.width, tiny_video.height)
        sot = encoder.encode_sot(tiny_video, 0, 0, 5, layout)
        frame_pixels = tiny_video.width * tiny_video.height
        early = decoder.decode_regions(sot, [RegionRequest(0, Rectangle(0, 0, 16, 16))])
        late = decoder.decode_regions(sot, [RegionRequest(4, Rectangle(0, 0, 16, 16))])
        # Reaching frame 4 requires decoding frames 0..4 of the tile.
        assert early.stats.pixels_decoded == frame_pixels
        assert late.stats.pixels_decoded == frame_pixels * 5

    def test_shared_tile_decoded_once_per_gop(self, encoder, decoder, tiny_video):
        layout = untiled_layout(tiny_video.width, tiny_video.height)
        sot = encoder.encode_sot(tiny_video, 0, 0, 5, layout)
        requests = [
            RegionRequest(2, Rectangle(0, 0, 16, 16)),
            RegionRequest(4, Rectangle(32, 32, 48, 48)),
        ]
        result = decoder.decode_regions(sot, requests)
        assert result.stats.tiles_decoded == 1
        assert len(result.regions) == 2

    def test_requests_outside_sot_ignored(self, encoder, decoder, tiny_video):
        layout = untiled_layout(tiny_video.width, tiny_video.height)
        sot = encoder.encode_sot(tiny_video, 0, 0, 5, layout)
        result = decoder.decode_regions(sot, [RegionRequest(12, Rectangle(0, 0, 8, 8))])
        assert result.regions == []
        assert result.stats.pixels_decoded == 0

    def test_decode_full_frames(self, encoder, decoder, tiny_video, codec_config):
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 3, codec_config.block_size)
        sot = encoder.encode_sot(tiny_video, 0, 0, 5, layout)
        result = decode_full_frames(decoder, sot, [2])
        assert result.stats.tiles_decoded == layout.tile_count
        frame = result.regions[0].pixels
        assert frame.shape == (tiny_video.height, tiny_video.width)

    def test_region_spanning_multiple_tiles_is_assembled(self, encoder, decoder, tiny_video, codec_config):
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, codec_config.block_size)
        sot = encoder.encode_sot(tiny_video, 0, 0, 5, layout)
        # A region crossing all four tiles.
        center = Rectangle(tiny_video.width // 2 - 16, tiny_video.height // 2 - 16,
                           tiny_video.width // 2 + 16, tiny_video.height // 2 + 16)
        result = decoder.decode_regions(sot, [RegionRequest(1, center)])
        assert result.stats.tiles_decoded == 4
        original = crop(tiny_video.frame(1), center)
        assert psnr(original, result.regions[0].pixels) > 25.0


class TestStitching:
    def test_stitched_frames_cover_whole_frame(self, encoder, tiny_video, codec_config):
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, codec_config.block_size)
        sot = encoder.encode_sot(tiny_video, 0, 0, 10, layout)
        stitched = stitch_tiles(sot, codec_config)
        assert len(stitched.frames) == 10
        assert stitched.frames[0].pixels.shape == (tiny_video.height, tiny_video.width)
        assert stitched.stats.tiles_decoded == 4 * 2  # 4 tiles x 2 GOPs

    def test_stitching_preserves_quality(self, encoder, tiny_video, codec_config):
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, codec_config.block_size)
        sot = encoder.encode_sot(tiny_video, 0, 0, 10, layout)
        stitched = stitch_tiles(sot, codec_config)
        values = [
            psnr(tiny_video.frame(frame.index).pixels, frame.pixels)
            for frame in stitched.frames
        ]
        assert float(np.mean(values)) > 28.0

    def test_frame_at_lookup(self, encoder, tiny_video, codec_config):
        """Stitched frames come back in frame order, so the frame at video
        index ``f`` is ``frames[f - frame_start]``."""
        layout = untiled_layout(tiny_video.width, tiny_video.height)
        sot = encoder.encode_sot(tiny_video, 1, 5, 10, layout)
        stitched = stitch_tiles(sot, codec_config)
        assert [frame.index for frame in stitched.frames] == list(range(5, 10))
