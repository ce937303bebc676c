"""Simulated KNN background subtraction (Section 5.2.4).

The paper tries OpenCV's KNN background subtractor as a cheap alternative to
object detection and finds it produces poor tile layouts: it cannot tell
object classes apart (everything is "foreground"), it misses stationary
objects, and it breaks down when the camera moves.  This simulation
reproduces those failure modes against the synthetic scenes' ground truth:

* Moving objects are detected as loose "foreground" blobs (dilated boxes).
* Stationary objects are absorbed into the background model and missed.
* Camera pan makes most of the frame look like foreground, so the detector
  emits a handful of large spurious boxes that cover much of the frame.

The class supplies only ``detect_frame``; the loop over frames is
:meth:`FrameDetector.detect_range`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Rectangle
from .base import Detection, FrameDetector, GroundTruthProvider

__all__ = ["BackgroundSubtractionDetector"]

#: Minimum per-frame displacement (pixels) for an object to register as moving.
_MOTION_THRESHOLD = 0.5


@dataclass
class BackgroundSubtractionDetector(FrameDetector):
    """Foreground-blob detection with the paper's observed weaknesses."""

    #: Label attached to every blob (background subtraction cannot classify).
    label: str = "foreground"
    #: How much the reported blob over-estimates the true box on each side.
    dilation: float = 12.0
    seconds_per_frame: float = 1.0 / 200.0
    seed: int = 17
    name: str = "background-subtraction"

    def detect_frame(self, video: GroundTruthProvider, frame_index: int) -> list[Detection]:
        rng = np.random.default_rng((self.seed * 2_654_435_761 + frame_index) & 0xFFFFFFFF)
        frame_bounds = Rectangle(0, 0, video.width, video.height)
        camera_pan = float(getattr(getattr(video, "spec", None), "camera_pan_per_frame", 0.0))

        if abs(camera_pan) >= _MOTION_THRESHOLD:
            # Camera motion: the background model never converges, so large
            # swathes of the frame are flagged as foreground.
            return self._spurious_blobs(frame_index, frame_bounds, rng)

        detections: list[Detection] = []
        previous = {d.label + str(i): d.box for i, d in enumerate(video.ground_truth(max(frame_index - 1, 0)))}
        for index, truth in enumerate(video.ground_truth(frame_index)):
            key = truth.label + str(index)
            prior_box = previous.get(key)
            if prior_box is not None:
                displacement = abs(truth.box.x1 - prior_box.x1) + abs(truth.box.y1 - prior_box.y1)
                if displacement < _MOTION_THRESHOLD:
                    continue
            blob = truth.box.expand(self.dilation, frame_bounds)
            detections.append(Detection(frame_index, self.label, blob, confidence=0.5))
        return detections

    def _spurious_blobs(
        self, frame_index: int, frame_bounds: Rectangle, rng: np.random.Generator
    ) -> list[Detection]:
        """Large false-positive regions produced under camera motion."""
        blobs = []
        for _ in range(3):
            width = frame_bounds.width * rng.uniform(0.4, 0.8)
            height = frame_bounds.height * rng.uniform(0.4, 0.8)
            x1 = rng.uniform(0, frame_bounds.width - width)
            y1 = rng.uniform(0, frame_bounds.height - height)
            blob = Rectangle(x1, y1, x1 + width, y1 + height)
            blobs.append(Detection(frame_index, self.label, blob, confidence=0.3))
        return blobs
