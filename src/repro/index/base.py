"""Common types and the protocol every semantic-index backend implements."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

from ..detection.base import Detection
from ..geometry import BoundingBox

__all__ = ["IndexEntry", "SemanticIndexProtocol", "WriteGenerations"]


@dataclass(frozen=True)
class IndexEntry:
    """One row of the semantic index.

    The search key is ``(video, label, frame_index)`` — the clustering order
    of the B-tree — and the value is the bounding box plus an optional pointer
    to the tile that currently stores those pixels.  The tile pointer is
    refreshed when TASM re-tiles a SOT; the prototype in the paper instead
    recomputes the box-to-tile mapping at query time, which both backends here
    also support (the pointer is advisory).
    """

    video: str
    label: str
    frame_index: int
    box: BoundingBox
    confidence: float = 1.0
    tile_pointer: str | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.video, self.label, self.frame_index)

    def to_detection(self) -> Detection:
        return Detection(self.frame_index, self.label, self.box, self.confidence)

    @classmethod
    def from_detection(cls, video: str, detection: Detection) -> "IndexEntry":
        return cls(
            video=video,
            label=detection.label,
            frame_index=detection.frame_index,
            box=detection.box,
            confidence=detection.confidence,
        )


@runtime_checkable
class SemanticIndexProtocol(Protocol):
    """Operations TASM requires from a semantic-index backend."""

    def add(self, entry: IndexEntry) -> None:
        ...

    def add_detections(self, video: str, detections: Iterable[Detection]) -> int:
        ...

    def lookup(
        self,
        video: str,
        label: str,
        frame_start: int | None = None,
        frame_stop: int | None = None,
    ) -> list[IndexEntry]:
        ...

    def labels(self, video: str) -> set[str]:
        ...

    def frames_with_label(
        self,
        video: str,
        label: str,
        frame_start: int | None = None,
        frame_stop: int | None = None,
    ) -> list[int]:
        ...

    def count(self, video: str | None = None) -> int:
        ...

    def has_detections(
        self, video: str, labels: Sequence[str], frame_start: int, frame_stop: int
    ) -> bool:
        ...

    def generation(self, video: str, frame_start: int, frame_stop: int) -> int:
        ...


class WriteGenerations:
    """Write counts per ``(video, frame)``: what both backends answer
    :meth:`generation` from.

    Anything derived from a frame range's entries (a layout around its boxes,
    a query's estimated cost) is still current exactly when the range's
    generation is what it was *before* the entries were read.  For that to
    hold against a concurrent writer, a backend calls :meth:`_wrote` only
    once the entry is visible to ``lookup``.  The counts are this object's:
    they see every write made through it, whoever the caller.
    """

    def __init__(self) -> None:
        self._frame_writes: dict[str, dict[int, int]] = {}

    def _wrote(self, video: str, frame_index: int) -> None:
        writes = self._frame_writes.setdefault(video, {})
        writes[frame_index] = writes.get(frame_index, 0) + 1

    def generation(self, video: str, frame_start: int, frame_stop: int) -> int:
        """A number that moves whenever an entry is written for ``video`` with
        its frame in ``[frame_start, frame_stop)``, and only then."""
        writes = self._frame_writes.get(video, {})
        return sum(writes.get(frame, 0) for frame in range(frame_start, frame_stop))
