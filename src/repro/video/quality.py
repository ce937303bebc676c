"""Video quality metrics: mean-squared error and peak signal-to-noise ratio.

The paper reports PSNR of tiled videos (stitched back together) against the
original: >=30 dB is acceptable, >=40 dB is good.  PSNR is computed per frame
and averaged over the frames compared, matching how FFmpeg reports it.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..errors import GeometryError
from .frame import Frame

__all__ = ["mse", "psnr", "average_psnr", "INFINITE_PSNR"]

#: PSNR reported when two frames are identical (finite so averages stay finite).
INFINITE_PSNR = 100.0

_MAX_PIXEL = 255.0


def mse(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean squared error between two rasters of identical shape."""
    if reference.shape != test.shape:
        raise GeometryError(
            f"cannot compare rasters of shapes {reference.shape} and {test.shape}"
        )
    diff = reference.astype(np.float64) - test.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio in decibels (capped at ``INFINITE_PSNR``)."""
    error = mse(reference, test)
    if error == 0.0:
        return INFINITE_PSNR
    value = 10.0 * math.log10((_MAX_PIXEL * _MAX_PIXEL) / error)
    return min(value, INFINITE_PSNR)


def average_psnr(
    reference_frames: Iterable[Frame | np.ndarray],
    test_frames: Iterable[Frame | np.ndarray],
) -> float:
    """Average per-frame PSNR over two equally long frame sequences."""
    values: list[float] = []
    for reference, test in zip(reference_frames, test_frames, strict=True):
        ref_pixels = reference.pixels if isinstance(reference, Frame) else reference
        test_pixels = test.pixels if isinstance(test, Frame) else test
        values.append(psnr(ref_pixels, test_pixels))
    if not values:
        raise GeometryError("average_psnr requires at least one frame pair")
    return float(np.mean(values))
