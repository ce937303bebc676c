"""SQLite-backed semantic index.

The paper's prototype stores semantically indexed data in SQLite; this backend
mirrors that choice using the standard-library ``sqlite3`` module.  The table
is indexed on ``(video, label, frame)`` — the same clustering the B-tree
backend uses — so both backends have identical lookup behaviour and can be
swapped via :class:`~repro.index.base.SemanticIndexProtocol`.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Iterable, Sequence

from ..detection.base import Detection
from ..errors import IndexError_
from ..geometry import BoundingBox
from .base import IndexEntry, WriteGenerations

__all__ = ["SqliteSemanticIndex"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS detections (
    video      TEXT    NOT NULL,
    label      TEXT    NOT NULL,
    frame      INTEGER NOT NULL,
    x1         REAL    NOT NULL,
    y1         REAL    NOT NULL,
    x2         REAL    NOT NULL,
    y2         REAL    NOT NULL,
    confidence REAL    NOT NULL DEFAULT 1.0,
    tile       TEXT
);
CREATE INDEX IF NOT EXISTS idx_detections_key ON detections (video, label, frame);
"""


class SqliteSemanticIndex(WriteGenerations):
    """Semantic index stored in a SQLite database (in-memory by default)."""

    def __init__(self, path: str | Path | None = None):
        super().__init__()
        target = ":memory:" if path is None else str(path)
        # The service layer's batch runners plan queries from several threads
        # at once, so the connection cannot be pinned to its creating thread;
        # _lock serialises every use of it instead (sqlite3 connections are
        # not safe for genuinely concurrent calls even when shared).
        self._connection = sqlite3.connect(target, check_same_thread=False)
        self._lock = threading.Lock()
        with self._lock:
            self._connection.executescript(_SCHEMA)
            self._connection.commit()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add(self, entry: IndexEntry) -> None:
        if entry.frame_index < 0:
            raise IndexError_(f"frame index must be non-negative, got {entry.frame_index}")
        with self._lock:
            self._connection.execute(
                "INSERT INTO detections (video, label, frame, x1, y1, x2, y2, confidence, tile) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    entry.video,
                    entry.label,
                    entry.frame_index,
                    entry.box.x1,
                    entry.box.y1,
                    entry.box.x2,
                    entry.box.y2,
                    entry.confidence,
                    entry.tile_pointer,
                ),
            )
            self._connection.commit()
            self._wrote(entry.video, entry.frame_index)

    def add_detections(self, video: str, detections: Iterable[Detection]) -> int:
        rows = [
            (
                video,
                detection.label,
                detection.frame_index,
                detection.box.x1,
                detection.box.y1,
                detection.box.x2,
                detection.box.y2,
                detection.confidence,
                None,
            )
            for detection in detections
        ]
        if not rows:
            return 0
        if any(row[2] < 0 for row in rows):
            raise IndexError_("frame index must be non-negative")
        with self._lock:
            self._connection.executemany(
                "INSERT INTO detections (video, label, frame, x1, y1, x2, y2, confidence, tile) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            self._connection.commit()
            for row in rows:
                self._wrote(video, row[2])
        return len(rows)

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
        query = (
            "SELECT video, label, frame, x1, y1, x2, y2, confidence, tile FROM detections "
            "WHERE video = ? AND label = ?"
        )
        parameters: list[object] = [video, label]
        if frame_start is not None:
            query += " AND frame >= ?"
            parameters.append(frame_start)
        if frame_stop is not None:
            query += " AND frame < ?"
            parameters.append(frame_stop)
        # rowid breaks frame ties in insertion order, matching the B-tree
        # backend's duplicate-key semantics; ORDER BY frame alone leaves the
        # tie order unspecified, which cross-backend parity cannot tolerate.
        query += " ORDER BY frame, rowid"
        with self._lock:
            rows = self._connection.execute(query, parameters).fetchall()
        return [self._row_to_entry(row) for row in rows]

    def labels(self, video: str) -> set[str]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT DISTINCT label FROM detections WHERE video = ?", (video,)
            ).fetchall()
        return {row[0] for row in rows}

    def frames_with_label(
        self,
        video: str,
        label: str,
        frame_start: int | None = None,
        frame_stop: int | None = None,
    ) -> list[int]:
        return sorted({entry.frame_index for entry in self.lookup(video, label, frame_start, frame_stop)})

    def count(self, video: str | None = None) -> int:
        with self._lock:
            if video is None:
                row = self._connection.execute("SELECT COUNT(*) FROM detections").fetchone()
            else:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM detections WHERE video = ?", (video,)
                ).fetchone()
        return int(row[0])

    def has_detections(
        self, video: str, labels: Sequence[str], frame_start: int, frame_stop: int
    ) -> bool:
        for label in labels:
            with self._lock:
                row = self._connection.execute(
                    "SELECT 1 FROM detections WHERE video = ? AND label = ? AND frame >= ? AND frame < ? LIMIT 1",
                    (video, label, frame_start, frame_stop),
                ).fetchone()
            if row is None:
                return False
        return True

    def all_entries(self, video: str | None = None) -> list[IndexEntry]:
        with self._lock:
            if video is None:
                rows = self._connection.execute(
                    "SELECT video, label, frame, x1, y1, x2, y2, confidence, tile FROM detections"
                ).fetchall()
            else:
                rows = self._connection.execute(
                    "SELECT video, label, frame, x1, y1, x2, y2, confidence, tile FROM detections WHERE video = ?",
                    (video,),
                ).fetchall()
        return [self._row_to_entry(row) for row in rows]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "SqliteSemanticIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @staticmethod
    def _row_to_entry(row: tuple) -> IndexEntry:
        video, label, frame, x1, y1, x2, y2, confidence, tile = row
        return IndexEntry(
            video=video,
            label=label,
            frame_index=int(frame),
            box=BoundingBox(float(x1), float(y1), float(x2), float(y2)),
            confidence=float(confidence),
            tile_pointer=tile,
        )
