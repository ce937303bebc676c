"""The semantic index: labelled boxes clustered on (video, label, frame).

This is the structure Section 3.2 describes: the search key is a video
identifier, a label of interest, and a time within the video, and a temporal
predicate is a range scan over the time.  Here the clustering is a dict per
video of frame-sorted lists per label, so a range scan is two bisections and
a slice.
"""

from __future__ import annotations

import bisect
import operator
import threading
from dataclasses import dataclass
from typing import Iterable

from ..detection.base import Detection
from ..errors import IndexError_
from ..geometry import BoundingBox

__all__ = ["IndexEntry", "BTreeSemanticIndex"]


@dataclass(frozen=True)
class IndexEntry:
    """One box of the semantic index, under its ``(video, label, frame_index)``."""

    video: str
    label: str
    frame_index: int
    box: BoundingBox
    confidence: float = 1.0

    @classmethod
    def from_detection(cls, video: str, detection: Detection) -> "IndexEntry":
        return cls(
            video=video,
            label=detection.label,
            frame_index=detection.frame_index,
            box=detection.box,
            confidence=detection.confidence,
        )


_FRAME = operator.attrgetter("frame_index")


class BTreeSemanticIndex:
    """The semantic index: per video, per label, a list sorted by frame.

    Entries with equal frames keep their insertion order.  One lock covers
    every read and write, so a lookup never sees half of a write, and a write
    checks all of its entries before it stores any.  The name predates the
    lists; ``benchmarks/ledger/tracer.py`` times ``lookup`` and
    ``add_detections`` through this module path and class name.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, list[IndexEntry]]] = {}
        #: Writes per ``(video, frame)``: what :meth:`generation` sums.
        self._frame_writes: dict[str, dict[int, int]] = {}
        self._lock = threading.Lock()

    def add(self, entry: IndexEntry) -> None:
        """Insert one entry (the AddMetadata path)."""
        self._insert([entry])

    def add_detections(self, video: str, detections: Iterable[Detection]) -> int:
        """Insert a batch of detections for a video; returns the count added."""
        entries = [IndexEntry.from_detection(video, detection) for detection in detections]
        self._insert(entries)
        return len(entries)

    def _insert(self, entries: list[IndexEntry]) -> None:
        for entry in entries:
            try:
                valid = operator.index(entry.frame_index) >= 0
            except TypeError:
                valid = False
            if not valid:
                raise IndexError_(
                    f"a frame index must be a non-negative integer, got {entry.frame_index!r}"
                )
        with self._lock:
            for entry in entries:
                by_label = self._entries.setdefault(entry.video, {})
                bisect.insort(by_label.setdefault(entry.label, []), entry, key=_FRAME)
                writes = self._frame_writes.setdefault(entry.video, {})
                writes[entry.frame_index] = writes.get(entry.frame_index, 0) + 1

    def lookup(
        self,
        video: str,
        label: str,
        frame_start: int | None = None,
        frame_stop: int | None = None,
    ) -> list[IndexEntry]:
        """Entries for (video, label) with frame in ``[frame_start, frame_stop)``,
        by frame."""
        with self._lock:
            entries = self._entries.get(video, {}).get(label, [])
            low = 0 if frame_start is None else bisect.bisect_left(entries, frame_start, key=_FRAME)
            high = (
                len(entries)
                if frame_stop is None
                else bisect.bisect_left(entries, frame_stop, low, key=_FRAME)
            )
            return entries[low:high]

    def labels(self, video: str) -> set[str]:
        with self._lock:
            return set(self._entries.get(video, ()))

    def count(self, video: str) -> int:
        with self._lock:
            return sum(map(len, self._entries.get(video, {}).values()))

    def generation(self, video: str, frame_start: int, frame_stop: int) -> int:
        """A number that moves whenever an entry is written for ``video`` with
        its frame in ``[frame_start, frame_stop)``, and only then.

        Anything derived from a frame range's entries (a layout around its
        boxes, a query's estimated cost) is still current exactly when the
        range's generation is what it was *before* the entries were read.
        """
        with self._lock:
            writes = self._frame_writes.get(video, {})
            return sum(writes.get(frame, 0) for frame in range(frame_start, frame_stop))
