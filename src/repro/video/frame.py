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
