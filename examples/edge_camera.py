"""Edge-camera tiling: detector quality versus tile-layout quality (Section 5.2.4).

Edge cameras can run object detection on-device, but not the full detector on
every frame.  This example compares the on-camera options the paper
evaluates — full YOLOv3 every frame, full YOLOv3 every five frames,
YOLOv3-tiny, and KNN background subtraction — by the quality of the tile
layouts each produces: how many pixels a vehicle query has to decode from the
video each one pre-tiled.
"""

from __future__ import annotations

from repro import (
    BackgroundSubtractionDetector,
    CodecConfig,
    EdgeCamera,
    SimulatedTinyYoloV3,
    SimulatedYoloV3,
    TASM,
    TasmConfig,
)
from repro.analysis import format_table
from repro.datasets import visual_road_scene


def evaluate_camera(camera: EdgeCamera, label: str) -> dict[str, object]:
    """Pre-tile a fresh copy of the scene with this camera and query it."""
    config = camera.config
    video = visual_road_scene("edge-intersection", duration_seconds=10.0, frame_rate=10, seed=77)
    edge_result = camera.process(video, target_objects={"car", "person"})

    tasm = TASM(config=config)
    camera.ingest_into(tasm, video, edge_result)
    # The semantic index needs real boxes to answer the query; use ground
    # truth so every configuration is judged purely on its *layouts*.
    truth = [
        detection
        for frame_index in range(video.frame_count)
        for detection in video.ground_truth(frame_index)
    ]
    tasm.add_detections(video.name, truth)
    result = tasm.scan(video.name, "car")

    untiled_pixels = video.width * video.height * video.frame_count
    return {
        "configuration": label,
        "detection_seconds": round(edge_result.detection_seconds, 2),
        "detections": len(edge_result.detections),
        "tiled_sots": len(edge_result.layouts),
        "pixels_decoded": result.pixels_decoded,
        "percent_of_video": round(100.0 * result.pixels_decoded / untiled_pixels, 1),
    }


def main() -> None:
    config = TasmConfig(codec=CodecConfig(gop_frames=10, frame_rate=10))
    configurations = [
        ("full YOLOv3, every frame", EdgeCamera(SimulatedYoloV3(), detect_every=1, config=config)),
        ("full YOLOv3, every 5 frames", EdgeCamera(SimulatedYoloV3(), detect_every=5, config=config)),
        ("YOLOv3-tiny, every frame", EdgeCamera(SimulatedTinyYoloV3(), detect_every=1, config=config)),
        (
            "background subtraction",
            EdgeCamera(BackgroundSubtractionDetector(), detect_every=1, config=config),
        ),
    ]
    rows = [evaluate_camera(camera, label) for label, camera in configurations]
    print("Vehicle query cost on video pre-tiled by each edge configuration")
    print("(lower pixels decoded = better layouts; detection seconds are simulated on-camera cost)\n")
    print(format_table(rows))


if __name__ == "__main__":
    main()
