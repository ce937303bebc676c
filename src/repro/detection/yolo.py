"""Simulated YOLOv3 and YOLOv3-tiny detectors.

The real models cannot run offline; these simulations start from ground truth
and degrade it in the ways that matter for TASM's tiling decisions:

* **Recall** — the probability that a true object is reported at all.  Full
  YOLOv3 misses little; YOLOv3-tiny misses most objects, which the paper
  found leads to ineffective layouts (median improvement only 16%).
* **Localisation noise** — detected boxes are jittered and slightly resized,
  so layouts designed around detections are not pixel-perfect.
* **Cost** — full YOLOv3 is slow (the paper cites about 16 fps on an
  embedded GPU); tiny is several times faster.

Detection noise is deterministic given (detector seed, frame index), so runs
are reproducible.  Both classes supply only ``detect_frame``; the loop over
frames is :meth:`FrameDetector.detect_range`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Rectangle
from .base import Detection, FrameDetector, GroundTruthProvider

__all__ = ["SimulatedYoloV3", "SimulatedTinyYoloV3"]


@dataclass
class SimulatedYoloV3(FrameDetector):
    """Full YOLOv3: high recall and tight boxes, but expensive per frame."""

    recall: float = 0.95
    position_noise: float = 2.0
    size_noise: float = 0.03
    seconds_per_frame: float = 1.0 / 16.0
    seed: int = 11
    name: str = "yolov3"

    def detect_frame(self, video: GroundTruthProvider, frame_index: int) -> list[Detection]:
        rng = np.random.default_rng((self.seed * 2_654_435_761 + frame_index) & 0xFFFFFFFF)
        detections: list[Detection] = []
        for truth in video.ground_truth(frame_index):
            if rng.random() > self.recall:
                continue
            box = _perturb_box(
                truth.box,
                rng,
                self.position_noise,
                self.size_noise,
                video.width,
                video.height,
            )
            if box is None:
                continue
            confidence = float(np.clip(rng.normal(0.85, 0.08), 0.3, 1.0))
            detections.append(Detection(frame_index, truth.label, box, confidence))
        return detections


@dataclass
class SimulatedTinyYoloV3(FrameDetector):
    """YOLOv3-tiny: fast but low recall and loose boxes (Section 5.2.4)."""

    recall: float = 0.35
    position_noise: float = 6.0
    size_noise: float = 0.15
    seconds_per_frame: float = 1.0 / 90.0
    seed: int = 13
    name: str = "yolov3-tiny"

    def detect_frame(self, video: GroundTruthProvider, frame_index: int) -> list[Detection]:
        rng = np.random.default_rng((self.seed * 2_654_435_761 + frame_index) & 0xFFFFFFFF)
        detections: list[Detection] = []
        for truth in video.ground_truth(frame_index):
            # Tiny YOLO misses small objects disproportionately.
            size_factor = min(truth.box.area / (video.width * video.height * 0.02), 1.0)
            effective_recall = self.recall * (0.5 + 0.5 * size_factor)
            if rng.random() > effective_recall:
                continue
            box = _perturb_box(
                truth.box,
                rng,
                self.position_noise,
                self.size_noise,
                video.width,
                video.height,
            )
            if box is None:
                continue
            confidence = float(np.clip(rng.normal(0.6, 0.15), 0.2, 1.0))
            detections.append(Detection(frame_index, truth.label, box, confidence))
        return detections


def _perturb_box(
    box: Rectangle,
    rng: np.random.Generator,
    position_noise: float,
    size_noise: float,
    frame_width: int,
    frame_height: int,
) -> Rectangle | None:
    """Jitter a ground-truth box the way an imperfect detector would."""
    dx = rng.normal(0.0, position_noise)
    dy = rng.normal(0.0, position_noise)
    scale_w = 1.0 + rng.normal(0.0, size_noise)
    scale_h = 1.0 + rng.normal(0.0, size_noise)
    width = max(box.width * scale_w, 2.0)
    height = max(box.height * scale_h, 2.0)
    center_x, center_y = box.center
    jittered = Rectangle(
        center_x + dx - width / 2.0,
        center_y + dy - height / 2.0,
        center_x + dx + width / 2.0,
        center_y + dy + height / 2.0,
    )
    return jittered.clamp(Rectangle(0, 0, frame_width, frame_height))
