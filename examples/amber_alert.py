"""Amber-alert scenario: known query objects, unknown locations (Section 4.3).

An amber-alert deployment knows queries will target vehicles but not where
they will appear.  This example compares the paper's three strategies for
that setting on a synthetic traffic video:

* eager detection  — detect everything at ingest, tile up front (KQKO);
* lazy detection   — detect and tile incrementally as queries arrive;
* edge tiling      — the camera detects vehicles and ships a pre-tiled video.

It also demonstrates a conjunctive predicate: ``(car) AND (dark)`` retrieves
pixels lying in the intersection of "car" boxes and "dark" property boxes,
the way the paper's blue-van example combines object and colour predicates.
"""

from __future__ import annotations

from repro import (
    CodecConfig,
    EdgeCamera,
    LabelPredicate,
    Query,
    SimulatedYoloV3,
    TASM,
    TasmConfig,
    TemporalPredicate,
    Workload,
)
from repro.core.policies import IncrementalMorePolicy, KnownWorkloadPolicy
from repro.datasets import visual_road_scene
from repro.workloads import WorkloadRunner


def build_workload(video_name: str, frame_count: int, queries: int = 40) -> Workload:
    """Vehicle queries over sliding windows — the amber-alert access pattern."""
    window = max(frame_count // 6, 1)
    step = max((frame_count - window) // max(queries - 1, 1), 1)
    return Workload.from_queries(
        "amber-alert",
        [
            Query.select_range("car", video_name, start, min(start + window, frame_count))
            for start in range(0, frame_count - window + 1, step)
        ][:queries],
    )


def main() -> None:
    config = TasmConfig(codec=CodecConfig(gop_frames=10, frame_rate=10))
    video = visual_road_scene("amber-alert-cam", duration_seconds=18.0, frame_rate=10, seed=42)
    workload = build_workload(video.name, video.frame_count)
    runner = WorkloadRunner(config=config, mode="modelled")

    print(f"workload: {len(workload)} vehicle queries over {video.name}")
    print("\nstrategy comparison (normalised decode + re-tiling cost; lower is better):")
    strategies = {
        "eager (KQKO up front)": KnownWorkloadPolicy(),
        "lazy (incremental)": IncrementalMorePolicy(),
    }
    baseline = runner.run_comparison(video, workload, strategies=list(strategies.values()))
    for label, policy in strategies.items():
        result = baseline[policy.name]
        print(f"  {label:28s} {result.total_normalized():6.1f} "
              f"(not tiled = {float(len(workload)):.1f})")

    # Edge tiling: the camera knows O_Q = {car} and pre-tiles before upload.
    camera = EdgeCamera(detector=SimulatedYoloV3(), detect_every=5, config=config)
    edge_result = camera.process(video, target_objects={"car"})
    tasm = TASM(config=config)
    camera.ingest_into(tasm, video, edge_result)
    plan = camera.upload_plan(video, edge_result)
    total_tiles = sum(
        tasm.video(video.name).layout_for(sot).tile_count for sot in plan
    )
    uploaded = sum(len(tiles) for tiles in plan.values())
    print("\nedge tiling:")
    print(f"  on-camera detection: {len(edge_result.detections)} boxes in "
          f"{edge_result.detection_seconds:.1f} simulated seconds")
    print(f"  pre-tiled SOTs: {len(edge_result.layouts)}; "
          f"tiles uploaded: {uploaded}/{total_tiles}")

    # The VDBMS can answer vehicle queries immediately, no re-encoding needed.
    first_query = tasm.scan(video.name, "car", TemporalPredicate.between(0, video.frame_count // 3))
    print(f"  first query on the pre-tiled video decoded {first_query.pixels_decoded:,} pixels "
          f"across {first_query.tiles_decoded} tiles")

    # Conjunctive predicate: mark the darker cars with a 'dark' property label,
    # then ask for pixels that are both 'car' and 'dark'.
    for frame_index in range(0, video.frame_count, 5):
        for detection in video.ground_truth(frame_index):
            if detection.label == "car" and detection.box.area > 1300:
                tasm.add_metadata(
                    video.name, frame_index, "dark",
                    detection.box.x1, detection.box.y1, detection.box.x2, detection.box.y2,
                )
    conjunction = LabelPredicate.all_of(["car", "dark"])
    result = tasm.scan(video.name, conjunction)
    print(f"  conjunctive query (car AND dark) returned {len(result.regions)} regions")


if __name__ == "__main__":
    main()
