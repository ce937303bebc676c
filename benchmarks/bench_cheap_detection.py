"""Section 5.2.4 — tile layouts from cheap object detection (edge viability).

The paper compares layouts built from: KNN background subtraction (worse than
not tiling, ~-3%), YOLOv3-tiny (only ~16% improvement because of low recall),
and full YOLOv3 run every five frames (close to the per-frame result,
especially on sparse video).  This benchmark builds layouts from each
simulated detector on the edge camera and measures the resulting query
improvement against the untiled video.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    format_table,
    improvement_over_untiled,
    measure_query,
    modelled_improvement,
    prepare_tasm,
)
from repro.core.edge import EdgeCamera
from repro.datasets import visual_road_scene
from repro.detection import (
    BackgroundSubtractionDetector,
    SimulatedTinyYoloV3,
    SimulatedYoloV3,
)

from _bench_utils import emit_bench, print_section


def _video():
    return visual_road_scene("cheap-detection", duration_seconds=8.0, frame_rate=10, seed=271)


def _configurations():
    return [
        ("yolov3 every frame", SimulatedYoloV3(), 1),
        ("yolov3 every 5 frames", SimulatedYoloV3(), 5),
        ("yolov3-tiny every frame", SimulatedTinyYoloV3(), 1),
        ("background subtraction", BackgroundSubtractionDetector(), 1),
    ]


@pytest.fixture(scope="module")
def cheap_detection_rows(config):
    video = _video()
    label = "car"
    target_objects = {"car", "person"}

    untiled_tasm = prepare_tasm(video, config)
    untiled = measure_query(untiled_tasm, video.name, label, "untiled")

    rows = []
    for name, detector, every in _configurations():
        fresh_video = _video()
        camera = EdgeCamera(detector=detector, detect_every=every, config=config)
        edge_result = camera.process(fresh_video, target_objects)

        tasm = prepare_tasm(fresh_video, config)  # index from ground truth: judge layouts only
        for sot_index, layout in edge_result.layouts.items():
            tasm.retile_sot(fresh_video.name, sot_index, layout)
        measurement = measure_query(tasm, fresh_video.name, label, name)
        rows.append(
            {
                "detector": name,
                "detection_seconds": round(edge_result.detection_seconds, 2),
                "detections": len(edge_result.detections),
                "tiled_sots": len(edge_result.layouts),
                "improvement_%": improvement_over_untiled(untiled, measurement),
                "work_improvement_%": modelled_improvement(untiled, measurement, config),
            }
        )
    return rows


def test_cheap_detection_layout_quality(benchmark, cheap_detection_rows, config):
    video = _video()
    camera = EdgeCamera(detector=SimulatedYoloV3(), detect_every=5, config=config)
    benchmark.pedantic(lambda: camera.process(_video(), {"car", "person"}), rounds=1, iterations=1)

    print_section("Section 5.2.4: query improvement from layouts built by cheap detection")
    print(format_table(cheap_detection_rows))
    emit_bench("cheap_detection", "improvement", cheap_detection_rows)
    print("\n(paper: background subtraction ~-3%, tiny YOLO ~16%, "
          "full YOLO every 5 frames close to every-frame on sparse video)")

    by_name = {row["detector"]: row for row in cheap_detection_rows}
    full = by_name["yolov3 every frame"]
    sampled = by_name["yolov3 every 5 frames"]
    tiny = by_name["yolov3-tiny every frame"]
    background = by_name["background subtraction"]

    # Ordering of layout quality mirrors the paper.
    assert full["work_improvement_%"] > tiny["work_improvement_%"]
    assert tiny["work_improvement_%"] > background["work_improvement_%"]
    assert background["work_improvement_%"] < 10.0
    # Sampled full-model detection still produces useful layouts.
    assert sampled["work_improvement_%"] > tiny["work_improvement_%"]
    # And the cost ordering is the inverse: background subtraction is cheapest.
    assert background["detection_seconds"] < tiny["detection_seconds"] < full["detection_seconds"]
