"""Detection primitives shared by the detector simulations and the index.

A :class:`Detection` is one labelled bounding box on one frame — exactly the
unit of metadata that TASM's ``AddMetadata`` call accepts and the semantic
index stores.  :class:`FrameDetector` owns the one loop over frames every
detector runs: a detector supplies ``detect_frame`` and
``seconds_per_frame``, and ``detect_range`` strides over the video with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

from ..geometry import BoundingBox

__all__ = ["Detection", "GroundTruthProvider", "DetectionResult", "FrameDetector"]


@dataclass(frozen=True)
class Detection:
    """A labelled bounding box on a single frame.

    Attributes:
        frame_index: frame the detection belongs to.
        label: object class (e.g. ``"car"``) or property (e.g. ``"red"``).
        box: bounding box in frame coordinates.
        confidence: detector confidence in [0, 1]; ground truth uses 1.0.
    """

    frame_index: int
    label: str
    box: BoundingBox
    confidence: float = 1.0

    def with_label(self, label: str) -> "Detection":
        return Detection(self.frame_index, label, self.box, self.confidence)


@runtime_checkable
class GroundTruthProvider(Protocol):
    """Anything that can report the true object boxes on a frame.

    Synthetic videos implement this; the simulated detectors consume it, which
    keeps the detector package independent of the video package.
    """

    def ground_truth(self, frame_index: int) -> Sequence[Detection]:
        ...

    @property
    def frame_count(self) -> int:
        ...

    @property
    def width(self) -> int:
        ...

    @property
    def height(self) -> int:
        ...


@dataclass
class DetectionResult:
    """Detections produced by a detector run plus its cost accounting."""

    detections: list[Detection]
    frames_processed: int
    seconds_spent: float

    def by_frame(self) -> dict[int, list[Detection]]:
        grouped: dict[int, list[Detection]] = {}
        for detection in self.detections:
            grouped.setdefault(detection.frame_index, []).append(detection)
        return grouped

    def labels(self) -> set[str]:
        return {detection.label for detection in self.detections}

    @staticmethod
    def merge(results: Iterable["DetectionResult"]) -> "DetectionResult":
        merged = DetectionResult([], 0, 0.0)
        for result in results:
            merged.detections.extend(result.detections)
            merged.frames_processed += result.frames_processed
            merged.seconds_spent += result.seconds_spent
        return merged


class FrameDetector:
    """The frame loop shared by every detector.

    A subclass supplies ``detect_frame(video, frame_index)`` and a
    ``seconds_per_frame`` cost; ``detect_range`` runs it on every
    ``every``-th frame of ``[start, stop)``, with ``stop`` clipped to the
    video and an ``every`` below 1 read as 1.
    """

    def detect_range(
        self,
        video: GroundTruthProvider,
        start: int = 0,
        stop: int | None = None,
        every: int = 1,
    ) -> DetectionResult:
        stop = video.frame_count if stop is None else min(stop, video.frame_count)
        detections: list[Detection] = []
        frames_processed = 0
        for frame_index in range(start, stop, max(every, 1)):
            detections.extend(self.detect_frame(video, frame_index))
            frames_processed += 1
        return DetectionResult(
            detections=detections,
            frames_processed=frames_processed,
            seconds_spent=frames_processed * self.seconds_per_frame,
        )
