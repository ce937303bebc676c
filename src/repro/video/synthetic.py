"""Synthetic video generation with ground-truth object tracks.

The paper evaluates on real footage (Visual Road, Netflix, Xiph, MOT16,
El Fuente) with YOLOv3 detections.  Those datasets are not redistributable or
downloadable offline, so this module provides procedurally generated scenes
whose *statistics* — resolution, duration, number of object classes, and
per-frame object coverage (the paper's sparse/dense distinction) — are set to
match Table 1.  Every scene knows exactly where its objects are, which both
drives frame rendering and serves as ground truth for the simulated detectors.

Scenes are deterministic: the same spec and seed always produce the same
pixels, so encoding, decoding, and PSNR measurements are reproducible.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..detection.base import Detection
from ..errors import ConfigurationError
from ..geometry import Rectangle, total_covered_area
from .video import Video, VideoMetadata

__all__ = [
    "MotionModel",
    "LinearMotion",
    "OscillatingMotion",
    "StationaryMotion",
    "ObjectTrack",
    "SceneSpec",
    "SyntheticVideo",
]


class MotionModel(Protocol):
    """Maps a frame index to the top-left corner of an object."""

    def position(self, frame_index: int) -> tuple[float, float]:
        ...


@dataclass(frozen=True)
class LinearMotion:
    """Constant-velocity motion that wraps around the frame (traffic flow)."""

    start_x: float
    start_y: float
    velocity_x: float
    velocity_y: float
    frame_width: int
    frame_height: int

    def position(self, frame_index: int) -> tuple[float, float]:
        x = (self.start_x + self.velocity_x * frame_index) % max(self.frame_width, 1)
        y = (self.start_y + self.velocity_y * frame_index) % max(self.frame_height, 1)
        return x, y


@dataclass(frozen=True)
class OscillatingMotion:
    """Sinusoidal motion around a centre point (pedestrians, birds, boats)."""

    center_x: float
    center_y: float
    amplitude_x: float
    amplitude_y: float
    period_frames: float
    phase: float = 0.0

    def position(self, frame_index: int) -> tuple[float, float]:
        angle = 2.0 * math.pi * frame_index / max(self.period_frames, 1.0) + self.phase
        return (
            self.center_x + self.amplitude_x * math.sin(angle),
            self.center_y + self.amplitude_y * math.cos(angle),
        )


@dataclass(frozen=True)
class StationaryMotion:
    """An object that does not move (parked cars, traffic lights)."""

    x: float
    y: float

    def position(self, frame_index: int) -> tuple[float, float]:
        return self.x, self.y


@dataclass(frozen=True)
class ObjectTrack:
    """One object's label, size, appearance, and motion across the video.

    Attributes:
        label: object class used for queries (e.g. ``"car"``).
        width / height: object extent in pixels.
        motion: motion model giving the top-left corner per frame.
        intensity: base luma value of the object's pixels.
        first_frame / last_frame: frames during which the object is present
            (inclusive of first, exclusive of last; None means the whole video).
    """

    label: str
    width: int
    height: int
    motion: MotionModel
    intensity: int = 200
    first_frame: int = 0
    last_frame: int | None = None

    def box_at(self, frame_index: int, frame_width: int, frame_height: int) -> Rectangle | None:
        """The object's bounding box on the given frame, or None if absent."""
        if frame_index < self.first_frame:
            return None
        if self.last_frame is not None and frame_index >= self.last_frame:
            return None
        x, y = self.motion.position(frame_index)
        x = min(max(x, 0.0), max(frame_width - self.width, 0))
        y = min(max(y, 0.0), max(frame_height - self.height, 0))
        box = Rectangle(x, y, x + self.width, y + self.height)
        return box.clamp(Rectangle(0, 0, frame_width, frame_height))


@dataclass
class SceneSpec:
    """Full description of a synthetic scene."""

    name: str
    width: int
    height: int
    frame_count: int
    frame_rate: int = 30
    tracks: list[ObjectTrack] = field(default_factory=list)
    #: Standard deviation of per-frame sensor noise (0 disables it).
    noise_sigma: float = 2.0
    #: Horizontal camera pan in pixels per frame (camera motion breaks
    #: background subtraction, Section 5.2.4).
    camera_pan_per_frame: float = 0.0
    #: Seed controlling the background texture and noise.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0 or self.frame_count <= 0:
            raise ConfigurationError(f"scene {self.name!r} has non-positive dimensions")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be non-negative")


class SyntheticVideo(Video):
    """A procedurally rendered video with known object ground truth.

    The rendered frame is: a textured background (optionally panned to model
    camera motion), each object drawn as a textured rectangle, plus small
    per-frame sensor noise.  Object pixels differ from the background so that
    residual coding, PSNR, and detection all behave realistically.
    """

    def __init__(self, spec: SceneSpec):
        self.spec = spec
        self._background = self._build_background(spec)
        self._texture_cache: dict[tuple[str, int, int], np.ndarray] = {}
        metadata = VideoMetadata(
            name=spec.name,
            width=spec.width,
            height=spec.height,
            frame_count=spec.frame_count,
            frame_rate=spec.frame_rate,
        )
        super().__init__(metadata, self._render_frame)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def ground_truth(self, frame_index: int) -> list[Detection]:
        """The true labelled boxes present on a frame."""
        detections = []
        for track in self.spec.tracks:
            box = track.box_at(frame_index, self.width, self.height)
            if box is not None and not box.is_empty:
                detections.append(Detection(frame_index, track.label, box, confidence=1.0))
        return detections

    def labels(self) -> set[str]:
        """Every object class that appears somewhere in the video."""
        return {track.label for track in self.spec.tracks}

    def object_coverage(self, frame_index: int) -> float:
        """Fraction of the frame covered by objects (sparse/dense metric)."""
        boxes = [detection.box for detection in self.ground_truth(frame_index)]
        frame = Rectangle(0, 0, self.width, self.height)
        return total_covered_area(boxes, frame) / frame.area

    def average_object_coverage(self, sample_every: int = 10) -> float:
        """Mean object coverage sampled every ``sample_every`` frames."""
        samples = range(0, self.frame_count, max(sample_every, 1))
        values = [self.object_coverage(index) for index in samples]
        return float(np.mean(values)) if values else 0.0

    def is_sparse(self, threshold: float = 0.2) -> bool:
        """Paper classification: sparse when objects cover < 20% of a frame."""
        return self.average_object_coverage() < threshold

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _render_frame(self, frame_index: int) -> np.ndarray:
        pan = int(round(self.spec.camera_pan_per_frame * frame_index))
        frame = np.roll(self._background, shift=pan, axis=1)  # a fresh array
        for track in self.spec.tracks:
            box = track.box_at(frame_index, self.width, self.height)
            if box is None or box.is_empty:
                continue
            self._draw_object(frame, box, track, frame_index)
        if self.spec.noise_sigma > 0:
            rng = np.random.default_rng((self.spec.seed * 1_000_003 + frame_index) & 0xFFFFFFFF)
            noise = rng.normal(0.0, self.spec.noise_sigma, size=frame.shape)
            noise += frame  # float64, as rendered: the sum, clip and cast in one array
            np.clip(noise, 0, 255, out=noise)
            return noise.astype(np.uint8)
        return frame

    def _draw_object(
        self, frame: np.ndarray, box: Rectangle, track: ObjectTrack, frame_index: int
    ) -> None:
        x1, y1, x2, y2 = box.as_int_tuple()
        if x2 <= x1 or y2 <= y1:
            return
        texture = self._object_texture(track.label, x2 - x1, y2 - y1, track.intensity)
        frame[y1:y2, x1:x2] = texture

    def _object_texture(self, label: str, width: int, height: int, intensity: int) -> np.ndarray:
        """A deterministic textured patch so objects are not flat rectangles."""
        key = (label, width, height)
        cached = self._texture_cache.get(key)
        if cached is not None:
            return cached
        # zlib.crc32 keeps the texture stable across interpreter runs (the
        # builtin hash() of a string is randomised per process).
        rng = np.random.default_rng((zlib.crc32(label.encode()) ^ self.spec.seed) & 0xFFFFFFFF)
        base = np.full((height, width), intensity, dtype=np.float32)
        stripes = 20.0 * np.sin(np.arange(width, dtype=np.float32) / 3.0)
        speckle = rng.normal(0.0, 8.0, size=(height, width)).astype(np.float32)
        texture = np.clip(base + stripes[np.newaxis, :] + speckle, 0, 255).astype(np.uint8)
        self._texture_cache[key] = texture
        return texture

    @staticmethod
    def _build_background(spec: SceneSpec) -> np.ndarray:
        """A static textured background: vertical gradient plus low-frequency blobs."""
        rng = np.random.default_rng(spec.seed)
        rows = np.linspace(60.0, 140.0, spec.height, dtype=np.float32)[:, np.newaxis]
        gradient = np.repeat(rows, spec.width, axis=1)
        coarse = rng.normal(0.0, 12.0, size=(spec.height // 8 + 1, spec.width // 8 + 1))
        blobs = np.kron(coarse, np.ones((8, 8)))[: spec.height, : spec.width].astype(np.float32)
        return np.clip(gradient + blobs, 0, 255).astype(np.uint8)
