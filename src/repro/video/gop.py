"""Group-of-pictures structure helpers.

Videos are encoded as a sequence of GOPs.  The first frame of a GOP is a
keyframe (intra-coded, expensive to store, cheap to seek to); the remaining
frames are predicted from their predecessor.  Tile layouts may only change at
GOP boundaries, so TASM's sequences of tiles (SOTs) always cover a whole
number of GOPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import ConfigurationError

__all__ = ["GopStructure", "gop_index_for_frame", "gop_ranges"]


def gop_index_for_frame(frame_index: int, gop_frames: int) -> int:
    """Return the GOP number containing ``frame_index``."""
    if gop_frames <= 0:
        raise ConfigurationError("gop_frames must be positive")
    if frame_index < 0:
        raise ConfigurationError("frame_index must be non-negative")
    return frame_index // gop_frames


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


@dataclass(frozen=True)
class GopStructure:
    """The GOP decomposition of a video: frame count plus GOP length."""

    frame_count: int
    gop_frames: int

    def __post_init__(self) -> None:
        if self.frame_count <= 0:
            raise ConfigurationError("frame_count must be positive")
        if self.gop_frames <= 0:
            raise ConfigurationError("gop_frames must be positive")

    @property
    def gop_count(self) -> int:
        return -(-self.frame_count // self.gop_frames)

    def frame_range(self, gop_index: int) -> tuple[int, int]:
        """Frame range ``[start, stop)`` of the given GOP."""
        if not 0 <= gop_index < self.gop_count:
            raise ConfigurationError(
                f"gop {gop_index} out of range (video has {self.gop_count} GOPs)"
            )
        start = gop_index * self.gop_frames
        return start, min(start + self.gop_frames, self.frame_count)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for gop_index in range(self.gop_count):
            yield self.frame_range(gop_index)
