"""Simulated object detectors.

The paper populates its semantic index with YOLOv3 detections (full YOLOv3,
YOLOv3-tiny, and OpenCV KNN background subtraction are compared in
Section 5.2.4).  None of those models can run here, so this package provides
detectors driven by the synthetic videos' ground truth, with configurable
recall, localisation noise, and per-frame cost chosen to reproduce the
relative quality/cost ordering the paper reports.  Each detector supplies
only ``detect_frame`` and ``seconds_per_frame``; ``FrameDetector.detect_range``
(``base.py``) is the one loop over frames they all run.
"""

from .base import Detection, DetectionResult, GroundTruthProvider
from .ground_truth import GroundTruthDetector
from .yolo import SimulatedYoloV3, SimulatedTinyYoloV3
from .background import BackgroundSubtractionDetector
from .tracking import interpolate_detections, IouTracker

__all__ = [
    "Detection",
    "DetectionResult",
    "GroundTruthProvider",
    "GroundTruthDetector",
    "SimulatedYoloV3",
    "SimulatedTinyYoloV3",
    "BackgroundSubtractionDetector",
    "interpolate_detections",
    "IouTracker",
]
