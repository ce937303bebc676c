"""A detector that returns the scene's ground-truth boxes unchanged.

This models the MOT16 setting in the paper, where bounding boxes ship with
the dataset and no detector runs at query time.  It is also the oracle used
by tests to verify that the rest of the pipeline (index, layouts, scans) is
exact when detections are perfect.  Like every detector it supplies only
``detect_frame``; the loop over frames is :meth:`FrameDetector.detect_range`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import Detection, FrameDetector, GroundTruthProvider

__all__ = ["GroundTruthDetector"]


@dataclass
class GroundTruthDetector(FrameDetector):
    """Perfect detections at (effectively) zero cost.

    Attributes:
        seconds_per_frame: simulated cost per processed frame.  Zero by
            default because ground truth is free; the MOT16-style usage where
            boxes come with the dataset has no query-time detection cost.
        relabel: when set, every detection's label is replaced by this value.
            The paper stores MOT16 boxes under a generic "object" label
            because the dataset's boxes are unlabelled.
    """

    seconds_per_frame: float = 0.0
    relabel: str | None = None
    name: str = "ground-truth"

    def detect_frame(self, video: GroundTruthProvider, frame_index: int) -> list[Detection]:
        detections = list(video.ground_truth(frame_index))
        if self.relabel is not None:
            detections = [detection.with_label(self.relabel) for detection in detections]
        return detections
