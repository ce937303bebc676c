"""A single video frame backed by a numpy array.

Frames are single-channel (luma) uint8 rasters.  Working in luma only keeps
the simulated codec fast while preserving everything the evaluation measures
(pixel counts, PSNR, storage size scaling); the paper's PSNR numbers are also
dominated by the luma channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from ..geometry import Rectangle

__all__ = ["Frame"]


@dataclass(frozen=True)
class Frame:
    """A single frame of video.

    Attributes:
        index: zero-based frame number within the video.
        pixels: 2-D uint8 array of shape ``(height, width)``.
    """

    index: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.ndim != 2:
            raise GeometryError(
                f"frame pixels must be a 2-D luma array, got shape {self.pixels.shape}"
            )
        if self.pixels.dtype != np.uint8:
            object.__setattr__(self, "pixels", self.pixels.astype(np.uint8))

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def bounds(self) -> Rectangle:
        """The frame extent as a rectangle anchored at the origin."""
        return Rectangle(0, 0, self.width, self.height)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def crop(self, region: Rectangle) -> np.ndarray:
        """Return a copy of the pixels inside ``region`` (clipped to the frame)."""
        clipped = region.clamp(self.bounds)
        if clipped is None:
            return np.zeros((0, 0), dtype=np.uint8)
        x1, y1, x2, y2 = clipped.as_int_tuple()
        return self.pixels[y1:y2, x1:x2].copy()

    def with_region(self, region: Rectangle, values: np.ndarray) -> "Frame":
        """Return a new frame with ``region`` replaced by ``values``."""
        x1, y1, x2, y2 = region.as_int_tuple()
        if values.shape != (y2 - y1, x2 - x1):
            raise GeometryError(
                f"region shape {(y2 - y1, x2 - x1)} does not match values {values.shape}"
            )
        updated = self.pixels.copy()
        updated[y1:y2, x1:x2] = values
        return Frame(self.index, updated)

    @classmethod
    def blank(cls, index: int, width: int, height: int, value: int = 0) -> "Frame":
        """Create a frame filled with a constant value."""
        return cls(index, np.full((height, width), value, dtype=np.uint8))
