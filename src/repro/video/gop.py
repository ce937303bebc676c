"""Group-of-pictures frame ranges.

Videos are encoded as a sequence of GOPs.  The first frame of a GOP is a
keyframe (intra-coded, expensive to store, cheap to seek to); the remaining
frames are predicted from their predecessor.  Tile layouts may only change at
GOP boundaries, so TASM's sequences of tiles (SOTs) always cover a whole
number of GOPs.  :func:`gop_ranges` is the cut the encoder makes.
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = ["gop_ranges"]


def gop_ranges(frame_count: int, gop_frames: int) -> list[tuple[int, int]]:
    """Return the ``[start, stop)`` frame range of every GOP in a video."""
    if frame_count <= 0:
        raise ConfigurationError("frame_count must be positive")
    if gop_frames <= 0:
        raise ConfigurationError("gop_frames must be positive")
    return [
        (start, min(start + gop_frames, frame_count))
        for start in range(0, frame_count, gop_frames)
    ]
