"""Tests for the tiled-video storage layer (repro.storage)."""

from __future__ import annotations

import pytest

from repro.config import TasmConfig
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.errors import StorageError, UnknownVideoError
from repro.storage.files import TileFileFormatError, read_tiled_video, write_tiled_video
from repro.storage.tiled_video import TiledVideo
from repro.tiles.layout import uniform_layout, untiled_layout
from repro.video.decoder import RegionRequest, VideoDecoder
from repro.video.quality import psnr
from repro.video.video import Video
from repro.geometry import Rectangle

from tests.conftest import bitstreams, decode_full_frames


@pytest.fixture
def tiled(tiny_video, config: TasmConfig) -> TiledVideo:
    return TiledVideo(video=tiny_video, config=config)


class TestTiledVideo:
    def test_initial_state_is_untiled_and_unmaterialised(self, tiled):
        assert tiled.sot_count == 3  # 15 frames / 5-frame SOTs
        assert all(tiled.layout_for(index).is_untiled for index in range(tiled.sot_count))
        assert not tiled.is_materialised(0)
        assert tiled.total_size_bytes() == 0

    def test_lazy_encoding_on_access(self, tiled):
        sot = tiled.encoded_sot(1)
        assert tiled.is_materialised(1)
        assert not tiled.is_materialised(0)
        assert sot.frame_start == 5
        assert sot.frame_stop == 10

    def test_retile_changes_layout_and_records_work(self, tiled, config):
        layout = uniform_layout(tiled.video.width, tiled.video.height, 2, 2, config.codec.block_size)
        record = tiled.retile(0, layout)
        assert tiled.layout_for(0) == layout
        encoded = tiled.encoded_sot(0)
        assert (encoded.layout, encoded.frame_start, encoded.frame_stop) == (layout, 0, 5)
        assert record.pixels_encoded == tiled.video.width * tiled.video.height * 5
        assert record.tiles_encoded == 4
        assert record.encode_seconds > 0
        # A first encode reads the raw video, not storage.
        assert record.pixels_inflated == record.pixels_held == 0
        assert tiled.retile_history == [record]

    def test_retile_to_same_layout_is_free(self, tiled):
        layout = untiled_layout(tiled.video.width, tiled.video.height)
        tiled.encoded_sot(0)
        record = tiled.retile(0, layout)
        assert record.bytes_written == 0
        assert record.encode_seconds == 0.0
        assert tiled.retile_history == []

    def test_total_size_with_materialise(self, tiled):
        size = tiled.total_size_bytes(materialise=True)
        assert size > 0
        assert all(tiled.is_materialised(index) for index in range(tiled.sot_count))

    def test_storage_summary(self, tiled):
        tiled.materialise_all()
        keyframe_bytes = sum(
            len(tile.payloads[0])
            for sot in range(tiled.sot_count)
            for gop in tiled.encoded_sot(sot).gops
            for tile in gop.tiles
        )
        assert tiled.sot_count == 3
        assert 0 < keyframe_bytes <= tiled.total_size_bytes()

    def test_sots_for_frames(self, tiled):
        assert tiled.sots_for_frames(0, 6) == [0, 1]
        assert tiled.frame_range(2) == (10, 15)


class TestIngestedVideos:
    def test_ingest_and_get(self, tiny_video, config):
        tasm = TASM(config)
        tiled = tasm.ingest(tiny_video)
        assert tasm.video(tiny_video.name) is tiled
        assert tiled.video is tiny_video
        # Ingest stores nothing yet: every SOT starts untiled and unencoded.
        assert all(tiled.layout_for(sot).is_untiled for sot in range(tiled.sot_count))
        assert not any(tiled.is_materialised(sot) for sot in range(tiled.sot_count))

    def test_duplicate_ingest_rejected(self, tiny_video, config):
        tasm = TASM(config)
        tiled = tasm.ingest(tiny_video)
        with pytest.raises(StorageError, match="already been ingested") as raised:
            tasm.ingest(tiny_video)
        # A name TASM knows is not an unknown video.
        assert not isinstance(raised.value, UnknownVideoError)
        assert tasm.video(tiny_video.name) is tiled

    def test_unknown_video(self, config):
        tasm = TASM(config)
        with pytest.raises(UnknownVideoError):
            tasm.scan("missing", "car")
        with pytest.raises(UnknownVideoError):
            tasm.execute_batch([Query.select("car", "missing")])
        with pytest.raises(UnknownVideoError):
            tasm.layout_around("missing", 0, ["car"])


class TestOnDiskPersistence:
    def test_round_trip(self, tiny_video, config, tmp_path):
        original = TiledVideo(video=tiny_video, config=config)
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, config.codec.block_size)
        original.retile(0, layout)
        original.encoded_sot(1)  # untiled SOT, also persisted

        video_dir = write_tiled_video(original, tmp_path)
        assert (video_dir / "manifest.json").exists()
        assert (video_dir / "frames_0-4" / "tile0.bin").exists()
        assert (video_dir / "frames_0-4" / "tile3.bin").exists()

        restored = read_tiled_video(tiny_video, tmp_path, config)
        assert restored.layout_for(0) == layout
        assert restored.layout_for(1).is_untiled
        assert restored.is_materialised(0)
        assert restored.encoded_sot(0).size_bytes == original.encoded_sot(0).size_bytes

        # The restored tiles decode to the same pixels.
        decoder = VideoDecoder(config.codec)
        region = Rectangle(0, 0, 64, 48)
        from_original = decoder.decode_regions(
            original.encoded_sot(0), [RegionRequest(2, region)]
        ).regions[0].pixels
        from_restored = decoder.decode_regions(
            restored.encoded_sot(0), [RegionRequest(2, region)]
        ).regions[0].pixels
        assert (from_original == from_restored).all()

    def test_unmaterialised_sots_are_skipped(self, tiny_video, config, tmp_path):
        original = TiledVideo(video=tiny_video, config=config)
        original.encoded_sot(0)
        write_tiled_video(original, tmp_path)
        restored = read_tiled_video(tiny_video, tmp_path, config)
        assert restored.is_materialised(0)
        assert not restored.is_materialised(2)

    def test_missing_manifest(self, tiny_video, config, tmp_path):
        with pytest.raises(StorageError):
            read_tiled_video(tiny_video, tmp_path, config)

    def test_corrupt_tile_file_detected(self, tiny_video, config, tmp_path):
        original = TiledVideo(video=tiny_video, config=config)
        original.encoded_sot(0)
        video_dir = write_tiled_video(original, tmp_path)
        tile_path = video_dir / "frames_0-4" / "tile0.bin"
        blob = bytearray(tile_path.read_bytes())
        blob[8:12] = b"XXXX"  # stomp on the magic number of the first chunk
        tile_path.write_bytes(bytes(blob))
        with pytest.raises(TileFileFormatError):
            read_tiled_video(tiny_video, tmp_path, config)

    def test_a_version_1_tile_file_is_refused(self, tiny_video, config, tmp_path):
        """Version 1 payloads predicted with unclamped residuals and from a
        penalised boundary keyframe; they would decode to other pixels."""
        original = TiledVideo(video=tiny_video, config=config)
        original.encoded_sot(0)
        video_dir = write_tiled_video(original, tmp_path)
        tile_path = video_dir / "frames_0-4" / "tile0.bin"
        blob = bytearray(tile_path.read_bytes())
        assert blob[8:12] == b"TASM"
        blob[12] = 1  # the first chunk's header version byte
        tile_path.write_bytes(bytes(blob))
        with pytest.raises(TileFileFormatError, match="version 1"):
            read_tiled_video(tiny_video, tmp_path, config)

    def test_a_restored_video_retiles_without_its_raw_frames(self, tiny_video, config, tmp_path):
        """Every SOT read back from disk re-tiles from its own tiles, to the
        bytes the process that wrote it writes, over a frame source that
        refuses every read."""
        width, height, block = tiny_video.width, tiny_video.height, config.codec.block_size
        original = TiledVideo(video=tiny_video, config=config)
        original.retile(0, uniform_layout(width, height, 2, 2, block))
        original.materialise_all()
        write_tiled_video(original, tmp_path)

        def refuse(index):
            raise AssertionError(f"raw frame {index} was read")

        restored = read_tiled_video(Video(tiny_video.metadata, refuse), tmp_path, config)
        target = uniform_layout(width, height, 3, 2, block)
        for sot_index in range(original.sot_count):
            record = restored.retile(sot_index, target)
            original.retile(sot_index, target)
            assert record.pixels_inflated == width * height * 5
            assert bitstreams(restored.encoded_sot(sot_index)) == bitstreams(
                original.encoded_sot(sot_index)
            )

    def test_quality_preserved_through_disk(self, tiny_video, config, tmp_path):
        original = TiledVideo(video=tiny_video, config=config)
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, config.codec.block_size)
        original.retile(0, layout)
        write_tiled_video(original, tmp_path)
        restored = read_tiled_video(tiny_video, tmp_path, config)
        decoder = VideoDecoder(config.codec)
        result = decode_full_frames(decoder, restored.encoded_sot(0), [0])
        assert psnr(tiny_video.frame(0).pixels, result.regions[0].pixels) > 28.0
