"""Tests for repro.video.frame, repro.video.video, and repro.video.gop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, GeometryError, StorageError
from repro.geometry import Rectangle
from repro.video.frame import Frame
from repro.video.gop import GopStructure, gop_index_for_frame, gop_ranges
from repro.video.video import Video, VideoMetadata

from tests.conftest import crop, video_from_frames


class TestFrame:
    def test_blank_frame(self):
        frame = Frame(3, np.full((10, 20), 7, dtype=np.uint8))
        assert frame.width == 20
        assert frame.height == 10
        assert frame.pixel_count == 200
        assert int(frame.pixels[0, 0]) == 7
        assert frame.bounds == Rectangle(0, 0, 20, 10)

    def test_rejects_non_2d(self):
        with pytest.raises(GeometryError):
            Frame(0, np.zeros((4, 4, 3), dtype=np.uint8))

    def test_coerces_dtype(self):
        frame = Frame(0, np.zeros((4, 4), dtype=np.float64))
        assert frame.pixels.dtype == np.uint8

    def test_crop(self):
        frame = Frame(0, np.arange(100, dtype=np.uint8).reshape(10, 10))
        cropped = crop(frame, Rectangle(2, 3, 5, 6))
        assert cropped.shape == (3, 3)
        assert cropped[0, 0] == frame.pixels[3, 2]

    def test_crop_outside_returns_empty(self):
        frame = Frame(0, np.zeros((10, 10), dtype=np.uint8))
        assert crop(frame, Rectangle(20, 20, 30, 30)).size == 0


class TestVideoMetadata:
    def test_duration_and_pixels(self):
        metadata = VideoMetadata("v", width=100, height=50, frame_count=250, frame_rate=25)
        assert metadata.duration_seconds == 10.0
        assert metadata.pixels_per_frame == 5000

    def test_rejects_invalid(self):
        with pytest.raises(StorageError):
            VideoMetadata("v", 0, 10, 10)
        with pytest.raises(StorageError):
            VideoMetadata("v", 10, 10, 0)


class TestVideo:
    def test_frame_access(self):
        frames = [np.full((8, 12), value, dtype=np.uint8) for value in range(5)]
        video = video_from_frames("clip", frames, frame_rate=5)
        assert video.frame_count == 5
        assert video.frame(2).pixels[0, 0] == 2
        assert [frame.index for frame in video.frames(1, 4)] == [1, 2, 3]

    def test_out_of_range_frame(self):
        video = video_from_frames("clip", [np.zeros((4, 4), dtype=np.uint8)])
        with pytest.raises(StorageError):
            video.frame(1)
        with pytest.raises(StorageError):
            video.frame(-1)

    def test_frame_source_shape_validated(self):
        metadata = VideoMetadata("bad", width=8, height=8, frame_count=2)
        video = Video(metadata, lambda index: np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(StorageError):
            video.frame(0)


class TestGopHelpers:
    def test_gop_index_for_frame(self):
        assert gop_index_for_frame(0, 10) == 0
        assert gop_index_for_frame(9, 10) == 0
        assert gop_index_for_frame(10, 10) == 1

    def test_gop_index_validation(self):
        with pytest.raises(ConfigurationError):
            gop_index_for_frame(5, 0)
        with pytest.raises(ConfigurationError):
            gop_index_for_frame(-1, 10)

    def test_gop_ranges_cover_video(self):
        ranges = gop_ranges(25, 10)
        assert ranges == [(0, 10), (10, 20), (20, 25)]

    def test_gop_structure(self):
        structure = GopStructure(frame_count=25, gop_frames=10)
        assert structure.gop_count == 3
        assert structure.frame_range(2) == (20, 25)
        assert list(structure) == [(0, 10), (10, 20), (20, 25)]

    def test_gop_structure_out_of_range(self):
        structure = GopStructure(frame_count=10, gop_frames=10)
        with pytest.raises(ConfigurationError):
            structure.frame_range(1)
