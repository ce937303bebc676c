"""Tests for the simulated detectors (repro.detection)."""

from __future__ import annotations

import pytest

from repro.detection import (
    BackgroundSubtractionDetector,
    DetectionResult,
    GroundTruthDetector,
    SimulatedTinyYoloV3,
    SimulatedYoloV3,
)
from repro.detection.base import Detection
from repro.geometry import BoundingBox
from tests.conftest import build_tiny_video


class TestGroundTruthDetector:
    def test_matches_scene_ground_truth(self, tiny_video):
        detector = GroundTruthDetector()
        detections = detector.detect_frame(tiny_video, 0)
        assert detections == tiny_video.ground_truth(0)

    def test_relabel(self, tiny_video):
        detector = GroundTruthDetector(relabel="object")
        assert all(d.label == "object" for d in detector.detect_frame(tiny_video, 0))

    def test_detect_range_every(self, tiny_video):
        detector = GroundTruthDetector(seconds_per_frame=0.5)
        result = detector.detect_range(tiny_video, every=5)
        assert result.frames_processed == 3
        assert result.seconds_spent == pytest.approx(1.5)
        assert {d.frame_index for d in result.detections} == {0, 5, 10}


class TestSimulatedYolo:
    def test_detections_are_deterministic(self, tiny_video):
        detector = SimulatedYoloV3(seed=5)
        first = detector.detect_frame(tiny_video, 3)
        second = SimulatedYoloV3(seed=5).detect_frame(tiny_video, 3)
        assert first == second

    def test_high_recall_on_full_model(self, tiny_video):
        detector = SimulatedYoloV3()
        result = detector.detect_range(tiny_video)
        truth_count = sum(len(tiny_video.ground_truth(f)) for f in range(tiny_video.frame_count))
        assert result.frames_processed == tiny_video.frame_count
        assert len(result.detections) >= 0.8 * truth_count

    def test_boxes_overlap_ground_truth(self, tiny_video):
        detector = SimulatedYoloV3()
        for detection in detector.detect_frame(tiny_video, 4):
            best = max(
                truth.box.iou(detection.box)
                for truth in tiny_video.ground_truth(4)
                if truth.label == detection.label
            )
            assert best > 0.3

    def test_boxes_stay_inside_frame(self, tiny_video):
        detector = SimulatedYoloV3(position_noise=25.0)
        frame_bounds = BoundingBox(0, 0, tiny_video.width, tiny_video.height)
        for frame_index in range(tiny_video.frame_count):
            for detection in detector.detect_frame(tiny_video, frame_index):
                assert frame_bounds.contains(detection.box)

    def test_tiny_model_detects_less_but_runs_faster(self, tiny_video):
        full = SimulatedYoloV3().detect_range(tiny_video)
        tiny = SimulatedTinyYoloV3().detect_range(tiny_video)
        assert len(tiny.detections) < len(full.detections)
        assert tiny.seconds_spent < full.seconds_spent


class TestBackgroundSubtraction:
    def test_reports_generic_foreground_label(self, tiny_video):
        detector = BackgroundSubtractionDetector()
        result = detector.detect_range(tiny_video)
        assert result.detections, "moving objects should be reported as foreground"
        assert {d.label for d in result.detections} == {"foreground"}

    def test_misses_stationary_objects(self, tiny_video):
        detector = BackgroundSubtractionDetector()
        # The 'sign' object never moves; no blob should tightly match it.
        sign_boxes = [d.box for d in tiny_video.ground_truth(5) if d.label == "sign"]
        blobs = detector.detect_frame(tiny_video, 5)
        assert all(blob.box.iou(sign_boxes[0]) < 0.5 for blob in blobs)

    def test_camera_motion_produces_spurious_blobs(self):
        panning = build_tiny_video(name="panning", camera_pan=1.5)
        detector = BackgroundSubtractionDetector()
        blobs = detector.detect_frame(panning, 5)
        frame_area = panning.width * panning.height
        # Spurious blobs cover a large fraction of the frame.
        assert blobs
        assert max(blob.box.area for blob in blobs) > 0.15 * frame_area

    def test_cheaper_than_yolo(self, tiny_video):
        assert (
            BackgroundSubtractionDetector().seconds_per_frame
            < SimulatedTinyYoloV3().seconds_per_frame
            < SimulatedYoloV3().seconds_per_frame
        )


@pytest.mark.parametrize(
    "detector",
    [
        GroundTruthDetector(seconds_per_frame=0.25),
        SimulatedYoloV3(),
        SimulatedTinyYoloV3(),
        BackgroundSubtractionDetector(),
    ],
    ids=lambda detector: detector.name,
)
def test_detect_range_is_detect_frame_over_the_clipped_stride(detector, tiny_video):
    """Every detector runs the one frame loop: ``detect_range`` is
    ``detect_frame`` on ``range(start, min(stop, frame_count), max(every, 1))``,
    counting each frame it ran at ``seconds_per_frame``."""
    frame_count = tiny_video.frame_count
    for start, stop, every in [(0, None, 1), (2, 9, 3), (3, frame_count + 7, 4), (1, frame_count, 0)]:
        frames = range(start, min(frame_count if stop is None else stop, frame_count), max(every, 1))
        result = detector.detect_range(tiny_video, start, stop, every)
        assert result.detections == [
            detection for frame in frames for detection in detector.detect_frame(tiny_video, frame)
        ]
        assert result.frames_processed == len(frames)
        assert result.seconds_spent == len(frames) * detector.seconds_per_frame


class TestDetectionResult:
    def test_by_frame_grouping(self):
        detections = [
            Detection(0, "car", BoundingBox(0, 0, 5, 5)),
            Detection(0, "person", BoundingBox(5, 5, 8, 8)),
            Detection(2, "car", BoundingBox(1, 1, 4, 4)),
        ]
        result = DetectionResult(detections, frames_processed=3, seconds_spent=0.3)
        grouped = result.by_frame()
        assert set(grouped) == {0, 2}
        assert len(grouped[0]) == 2
        assert result.labels() == {"car", "person"}

    def test_merge(self):
        a = DetectionResult([Detection(0, "car", BoundingBox(0, 0, 1, 1))], 1, 0.1)
        b = DetectionResult([Detection(1, "car", BoundingBox(0, 0, 1, 1))], 2, 0.2)
        merged = DetectionResult.merge([a, b])
        assert len(merged.detections) == 2
        assert merged.frames_processed == 3
        assert merged.seconds_spent == pytest.approx(0.3)
