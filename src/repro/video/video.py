"""Raw (un-encoded) video abstraction.

A :class:`Video` couples :class:`VideoMetadata` with a *frame source*: a
callable that produces the raster of any frame on demand.  Producing frames
lazily matters because the evaluation videos are minutes long — materialising
every frame of a 2K video would not fit in memory, and the paper's storage
manager never needs more than a GOP of raw frames at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..errors import StorageError
from .frame import Frame

__all__ = ["VideoMetadata", "FrameSource", "Video"]

#: A frame source maps a frame index to its raster.
FrameSource = Callable[[int], np.ndarray]


@dataclass(frozen=True)
class VideoMetadata:
    """Static facts about a video: identity, geometry, and timing."""

    name: str
    width: int
    height: int
    frame_count: int
    frame_rate: int = 30

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise StorageError(f"video {self.name!r} has non-positive dimensions")
        if self.frame_count <= 0:
            raise StorageError(f"video {self.name!r} has no frames")
        if self.frame_rate <= 0:
            raise StorageError(f"video {self.name!r} has non-positive frame rate")

    @property
    def duration_seconds(self) -> float:
        return self.frame_count / self.frame_rate

    @property
    def pixels_per_frame(self) -> int:
        return self.width * self.height


class Video:
    """A raw video: metadata plus a lazily evaluated frame source.

    The frame source must be deterministic — the same index always yields the
    same raster — because the encoder and the quality measurements read frames
    independently and compare them.
    """

    def __init__(self, metadata: VideoMetadata, frame_source: FrameSource):
        self._metadata = metadata
        self._frame_source = frame_source

    @property
    def metadata(self) -> VideoMetadata:
        return self._metadata

    @property
    def name(self) -> str:
        return self._metadata.name

    @property
    def width(self) -> int:
        return self._metadata.width

    @property
    def height(self) -> int:
        return self._metadata.height

    @property
    def frame_count(self) -> int:
        return self._metadata.frame_count

    @property
    def frame_rate(self) -> int:
        return self._metadata.frame_rate

    def frame(self, index: int) -> Frame:
        """Return the frame at ``index`` (0-based)."""
        if not 0 <= index < self.frame_count:
            raise StorageError(
                f"frame {index} out of range for video {self.name!r} "
                f"({self.frame_count} frames)"
            )
        pixels = self._frame_source(index)
        if pixels.shape != (self.height, self.width):
            raise StorageError(
                f"frame source for {self.name!r} returned shape {pixels.shape}, "
                f"expected {(self.height, self.width)}"
            )
        return Frame(index, pixels)

    def frames(self, start: int = 0, stop: int | None = None) -> Iterator[Frame]:
        """Iterate over frames in ``[start, stop)``."""
        stop = self.frame_count if stop is None else min(stop, self.frame_count)
        for index in range(start, stop):
            yield self.frame(index)

