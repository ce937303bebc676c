"""Edge-camera tiling (the paper's third contribution, Section 4.3 "Edge tiling").

When the objects queries will target (``O_Q``) are known ahead of time — an
amber-alert deployment only ever asks about vehicles — the camera itself can
run object detection as frames are captured and encode the video *already
tiled* around those objects.  The VDBMS then ingests a pre-tiled video plus a
pre-initialised semantic index and skips the re-encoding cost entirely.

Edge devices are slower than servers, so the camera may only be able to run
the full detector every few frames (the paper cites about 16 fps for full
YOLOv3 on an embedded GPU, against 30 fps capture).  The simulation captures
that with the ``detect_every`` parameter plus track interpolation, mirroring
the every-five-frames experiment of Section 5.2.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from ..config import TasmConfig
from ..geometry import Rectangle
from ..detection.base import Detection, DetectionResult, GroundTruthProvider
from ..detection.tracking import interpolate_detections
from ..tiles.layout import TileLayout
from ..tiles.partitioner import TileGranularity, partition_around_boxes
from ..video.video import Video
from .tasm import TASM

__all__ = ["EdgeCamera", "EdgeTilingResult"]


class _Detector(Protocol):
    seconds_per_frame: float
    name: str

    def detect_range(
        self,
        video: GroundTruthProvider,
        start: int = 0,
        stop: int | None = None,
        every: int = 1,
    ) -> DetectionResult:
        ...


@dataclass
class EdgeTilingResult:
    """What the camera ships to the VDBMS."""

    video_name: str
    detections: list[Detection]
    layouts: dict[int, TileLayout]
    detection_seconds: float
    frames_processed: int
    target_objects: frozenset[str] = frozenset()


@dataclass
class EdgeCamera:
    """Simulates a camera that detects objects and designs layouts on-device.

    Attributes:
        detector: the on-device detector (full YOLO, tiny YOLO, or background
            subtraction simulations).
        detect_every: run the detector on every Nth captured frame; skipped
            frames are filled in by track interpolation.
        granularity: granularity of the layouts designed on the camera.
        stream_only_object_tiles: when True, only tiles containing detections
            are considered "uploaded", reducing the bytes sent to the cloud.
    """

    detector: _Detector
    detect_every: int = 5
    granularity: TileGranularity = TileGranularity.FINE
    stream_only_object_tiles: bool = True
    config: TasmConfig = field(default_factory=TasmConfig)
    #: Extra pixels added around each detection before designing layouts, per
    #: skipped frame.  Sampled detection misses the object's motion between
    #: samples, so the true object can drift across a tile boundary; a margin
    #: trades slightly larger tiles for fewer boundary straddles.  Disabled by
    #: default because block snapping already provides most of the slack.
    layout_margin_per_skipped_frame: float = 0.0

    # ------------------------------------------------------------------
    # On-camera processing
    # ------------------------------------------------------------------
    def process(
        self, video: Video, target_objects: Iterable[str]
    ) -> EdgeTilingResult:
        """Detect the target objects and design per-SOT layouts around them.

        ``target_objects`` is the O_Q the VDBMS communicated to the camera;
        detections of other classes are discarded before layouts are designed.
        """
        targets = frozenset(target_objects)
        result = self.detector.detect_range(video, every=self.detect_every)
        filtered = [
            detection
            for detection in result.detections
            if not targets or detection.label in targets
        ]
        if self.detect_every > 1:
            filtered = interpolate_detections(filtered, video.frame_count)

        sot_frames = self.config.layout_duration_frames
        layouts: dict[int, TileLayout] = {}
        by_frame: dict[int, list[Detection]] = {}
        for detection in filtered:
            by_frame.setdefault(detection.frame_index, []).append(detection)

        frame_bounds = Rectangle(0, 0, video.width, video.height)
        margin = self.layout_margin_per_skipped_frame * max(self.detect_every - 1, 0)
        sot_count = -(-video.frame_count // sot_frames)
        for sot_index in range(sot_count):
            start = sot_index * sot_frames
            stop = min(start + sot_frames, video.frame_count)
            boxes = [
                detection.box.expand(margin, frame_bounds) if margin > 0 else detection.box
                for frame_index in range(start, stop)
                for detection in by_frame.get(frame_index, ())
            ]
            if not boxes:
                continue
            layout = partition_around_boxes(
                boxes,
                frame_width=video.width,
                frame_height=video.height,
                granularity=self.granularity,
                codec=self.config.codec,
            )
            if not layout.is_untiled:
                layouts[sot_index] = layout

        return EdgeTilingResult(
            video_name=video.name,
            detections=filtered,
            layouts=layouts,
            detection_seconds=result.seconds_spent,
            frames_processed=result.frames_processed,
            target_objects=targets,
        )

    # ------------------------------------------------------------------
    # Hand-off to the VDBMS
    # ------------------------------------------------------------------
    def ingest_into(self, tasm: TASM, video: Video, edge_result: EdgeTilingResult) -> None:
        """Load the pre-tiled video and pre-initialised index into TASM.

        The VDBMS does not need to re-run detection or re-encode: the layouts
        picked on the camera are applied directly, and the camera's detections
        seed the semantic index so even the first query benefits.
        """
        tasm.ingest(video)
        tasm.add_detections(video.name, edge_result.detections)
        for sot_index, layout in edge_result.layouts.items():
            tasm.retile_sot(video.name, sot_index, layout)

    def upload_plan(
        self, video: Video, edge_result: EdgeTilingResult
    ) -> dict[int, Sequence[int]]:
        """Which tiles of each SOT the camera would stream to the cloud.

        With ``stream_only_object_tiles`` the camera uploads only tiles that
        contain at least one detection, cutting upstream bandwidth — the
        benefit Section 1 attributes to encoding with tiles at the edge.
        """
        plan: dict[int, Sequence[int]] = {}
        sot_frames = self.config.layout_duration_frames
        for sot_index, layout in edge_result.layouts.items():
            start = sot_index * sot_frames
            stop = min(start + sot_frames, video.frame_count)
            if not self.stream_only_object_tiles:
                plan[sot_index] = list(range(layout.tile_count))
                continue
            needed: set[int] = set()
            for detection in edge_result.detections:
                if start <= detection.frame_index < stop:
                    needed.update(layout.tiles_intersecting(detection.box))
            plan[sot_index] = sorted(needed)
        return plan
