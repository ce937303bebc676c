"""Tests for synthetic video generation and the dataset stand-ins."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    TABLE1_SPECS,
    dataset_registry,
    el_fuente_scene,
    mot16_scene,
    netflix_open_source_scene,
    netflix_public_scene,
    table1_rows,
    visual_road_scene,
    xiph_scene,
)
from repro.datasets.mot16 import MOT16_GENERIC_LABEL
from repro.detection import GroundTruthDetector
from repro.video.synthetic import SceneSpec, SyntheticVideo
from tests.conftest import build_tiny_video, crop


class TestSyntheticVideo:
    def test_rendering_is_deterministic(self, tiny_video):
        again = build_tiny_video()
        for index in (0, 7, 14):
            np.testing.assert_array_equal(tiny_video.frame(index).pixels, again.frame(index).pixels)

    def test_objects_are_visible_against_background(self, tiny_video):
        frame = tiny_video.frame(0)
        car_box = next(d.box for d in tiny_video.ground_truth(0) if d.label == "car")
        inside = crop(frame, car_box)
        assert float(inside.mean()) > float(frame.pixels.mean()) + 20

    def test_ground_truth_tracks_motion(self, tiny_video):
        first = next(d.box for d in tiny_video.ground_truth(0) if d.label == "car")
        later = next(d.box for d in tiny_video.ground_truth(10) if d.label == "car")
        assert later.x1 > first.x1  # the car moves to the right

    def test_labels_and_coverage(self, tiny_video, dense_video):
        assert tiny_video.labels() == {"car", "person", "sign"}
        assert tiny_video.is_sparse()
        assert not dense_video.is_sparse()
        assert 0.0 < tiny_video.average_object_coverage() < 0.2
        assert dense_video.average_object_coverage() >= 0.2

    def test_track_lifetime_limits(self):
        video = build_tiny_video()
        spec = video.spec
        limited = SceneSpec(
            name="limited",
            width=spec.width,
            height=spec.height,
            frame_count=spec.frame_count,
            frame_rate=spec.frame_rate,
            tracks=[
                type(spec.tracks[0])(
                    label="car",
                    width=20,
                    height=10,
                    motion=spec.tracks[0].motion,
                    first_frame=5,
                    last_frame=10,
                )
            ],
            seed=spec.seed,
        )
        scene = SyntheticVideo(limited)
        assert scene.ground_truth(0) == []
        assert scene.ground_truth(5) != []
        assert scene.ground_truth(10) == []

    def test_camera_pan_shifts_background(self):
        panning = build_tiny_video(name="pan", camera_pan=2.0)
        static = build_tiny_video(name="static", camera_pan=0.0)
        # Backgrounds differ by a horizontal shift on later frames.
        assert not np.array_equal(panning.frame(5).pixels, static.frame(5).pixels)


class TestDatasetGenerators:
    def test_visual_road_is_sparse_with_expected_objects(self):
        video = visual_road_scene(duration_seconds=4.0, frame_rate=5)
        assert video.is_sparse()
        assert {"car", "person", "traffic light"} <= video.labels()

    def test_resolution_classes(self):
        assert visual_road_scene(resolution="4K", duration_seconds=2.0).width > visual_road_scene(
            resolution="2K", duration_seconds=2.0
        ).width

    def test_netflix_public_single_subject(self):
        birds = netflix_public_scene(duration_seconds=3.0, primary_object="bird")
        assert birds.labels() == {"bird"}
        dense_people = netflix_public_scene(
            duration_seconds=3.0, primary_object="person", dense=True
        )
        assert not dense_people.is_sparse()

    def test_netflix_open_source_is_dense_and_mixed(self):
        video = netflix_open_source_scene(duration_seconds=4.0)
        assert {"person", "car", "sheep"} <= video.labels()
        assert not video.is_sparse()

    def test_xiph_styles(self):
        assert xiph_scene(style="harbour", duration_seconds=3.0).is_sparse()
        assert not xiph_scene(style="street", duration_seconds=3.0).is_sparse()
        with pytest.raises(ValueError):
            xiph_scene(style="volcano")

    def test_mot16_boxes_relabel_to_the_generic_label(self):
        video = mot16_scene(duration_seconds=3.0)
        detector = GroundTruthDetector(relabel=MOT16_GENERIC_LABEL)
        detections = detector.detect_range(video, every=2).detections
        assert detections
        assert {d.label for d in detections} == {MOT16_GENERIC_LABEL}

    def test_el_fuente_scene_styles(self):
        market = el_fuente_scene("market", duration_seconds=3.0)
        river = el_fuente_scene("river", duration_seconds=3.0)
        assert not market.is_sparse()
        assert river.is_sparse()
        with pytest.raises(ValueError):
            el_fuente_scene("moon")


class TestRegistryAndTable1:
    def test_registry_names_are_unique_factories(self):
        registry = dataset_registry()
        assert len(registry) >= 10
        video = registry["visual-road-2k"]()
        assert video.name == "visual-road-2k"

    def test_table1_specs_cover_all_paper_datasets(self):
        names = {spec.name for spec in TABLE1_SPECS}
        assert names == {
            "visual-road",
            "netflix-public",
            "netflix-open-source",
            "xiph",
            "mot16",
            "el-fuente",
        }

    @pytest.mark.slow
    def test_table1_rows_report_measured_coverage(self):
        rows = table1_rows()
        assert len(rows) == len(dataset_registry())
        for row in rows:
            assert 0.0 <= float(row["coverage_percent"]) <= 100.0
            assert row["frequent_objects"]
