"""The in-memory semantic index: a B-tree clustered on (video, label, frame).

This is the structure Section 3.2 describes: the search key is a video
identifier, a label of interest, and a time within the video; the leaves hold
the bounding boxes (and advisory tile pointers).  Range scans over the frame
dimension serve temporal predicates.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..detection.base import Detection
from ..errors import IndexError_
from .base import IndexEntry, WriteGenerations
from .btree import BTree

__all__ = ["BTreeSemanticIndex"]

#: Sentinel frame bounds for open-ended range scans.  Frame indices are
#: non-negative, so -1 and a very large value bracket every real frame.
_MIN_FRAME = -1
_MAX_FRAME = 2**62


class BTreeSemanticIndex(WriteGenerations):
    """Semantic index backed by the from-scratch B-tree."""

    def __init__(self, order: int = 64):
        super().__init__()
        self._tree: BTree[tuple[str, str, int], IndexEntry] = BTree(order=order)
        self._labels_by_video: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add(self, entry: IndexEntry) -> None:
        """Insert one entry (the AddMetadata path)."""
        if entry.frame_index < 0:
            raise IndexError_(f"frame index must be non-negative, got {entry.frame_index}")
        self._tree.insert(entry.key, entry)
        self._labels_by_video.setdefault(entry.video, set()).add(entry.label)
        self._wrote(entry.video, entry.frame_index)

    def add_detections(self, video: str, detections: Iterable[Detection]) -> int:
        """Insert a batch of detections for a video; returns the count added."""
        added = 0
        for detection in detections:
            self.add(IndexEntry.from_detection(video, detection))
            added += 1
        return added

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def lookup(
        self,
        video: str,
        label: str,
        frame_start: int | None = None,
        frame_stop: int | None = None,
    ) -> list[IndexEntry]:
        """Entries for (video, label) with frame in ``[frame_start, frame_stop)``."""
        low = (video, label, frame_start if frame_start is not None else _MIN_FRAME)
        high = (video, label, frame_stop if frame_stop is not None else _MAX_FRAME)
        return [entry for _, entry in self._tree.range(low, high)]

    def labels(self, video: str) -> set[str]:
        return set(self._labels_by_video.get(video, set()))

    def frames_with_label(
        self,
        video: str,
        label: str,
        frame_start: int | None = None,
        frame_stop: int | None = None,
    ) -> list[int]:
        frames = {entry.frame_index for entry in self.lookup(video, label, frame_start, frame_stop)}
        return sorted(frames)

    def count(self, video: str | None = None) -> int:
        if video is None:
            return len(self._tree)
        return sum(
            len(self.lookup(video, label)) for label in self.labels(video)
        )

    def has_detections(
        self, video: str, labels: Sequence[str], frame_start: int, frame_stop: int
    ) -> bool:
        """True when every label in ``labels`` has at least one box in the range.

        The lazy-detection strategy uses this to decide whether a SOT's
        metadata is complete enough to tile (Section 4.3).
        """
        return all(
            bool(self.lookup(video, label, frame_start, frame_stop)) for label in labels
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        self._tree.check_invariants()

    def all_entries(self, video: str | None = None) -> list[IndexEntry]:
        entries = [entry for _, entry in self._tree.items()]
        if video is None:
            return entries
        return [entry for entry in entries if entry.video == video]
