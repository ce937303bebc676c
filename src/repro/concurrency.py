"""Readers-writer locks keyed on ``(video, SOT)`` for server-mode TASM.

The service layer runs scans from many clients concurrently with writes
(``add_metadata``, ``retile_sot``).  The correctness contract is the one the
paper's storage manager implies but never has to state (it is single-caller):

* a scan must never decode a SOT *while* that SOT is being physically
  re-encoded — the re-tile would swap the bitstream under the decoder and the
  scan could stitch pixels from two encodings;
* a scan's index lookup must not interleave with a metadata write on the same
  video, so each query sees a consistent snapshot of the semantic index.

:class:`SotLockRegistry` provides exactly that: a readers-writer lock per
``(video, sot_index)`` key, plus a per-video key (``sot_index == VIDEO_LEVEL``)
guarding the semantic index.  Scans take *read* locks — the video-level key
while planning and every touched SOT key while decoding — so any number of
scans proceed in parallel; ``retile_sot`` takes a *write* lock on its single
``(video, SOT)`` key and ``add_metadata`` on the video-level key, each blocking
only until in-flight readers of that one key drain.

Deadlock freedom: readers acquire their keys in sorted order and writers only
ever hold a single key, so no cycle of hold-and-wait can form.  Writers are
granted priority (new readers queue behind a waiting writer), which bounds
write latency under a steady scan stream.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

__all__ = ["VIDEO_LEVEL", "SotLockRegistry"]

#: Pseudo SOT index of the per-video lock guarding the semantic index; real
#: SOT indices are >= 0, so the video-level key sorts before every SOT key.
VIDEO_LEVEL = -1

#: A lock key: ``(video_name, sot_index)`` with ``VIDEO_LEVEL`` for the video.
LockKey = tuple[str, int]


class _RWLock:
    """A writer-priority readers-writer lock (no upgrade, no reentrancy)."""

    __slots__ = ("_cond", "_readers", "_writer", "_writers_waiting")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class SotLockRegistry:
    """Readers-writer locks keyed on ``(video, SOT)``, created on demand.

    Locks are never discarded: the registry grows by one small object per
    distinct key ever locked, which is bounded by videos x SOTs and lets
    lookups stay lock-free of lifecycle concerns.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._locks: dict[LockKey, _RWLock] = {}

    def _lock_for(self, key: LockKey) -> _RWLock:
        with self._mutex:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = _RWLock()
            return lock

    # ------------------------------------------------------------------
    # Multi-key read side (scans)
    # ------------------------------------------------------------------
    def acquire_read(self, keys: Iterable[LockKey]) -> list[LockKey]:
        """Read-lock every key (sorted order); returns the keys acquired.

        All-or-nothing: if acquiring any key raises (e.g. an interrupt while
        queued behind a writer), the keys already taken are released before
        the exception propagates, so no read lock can leak.
        """
        acquired = sorted(keys)
        taken = 0
        try:
            for key in acquired:
                self._lock_for(key).acquire_read()
                taken += 1
        except BaseException:
            for key in reversed(acquired[:taken]):
                self._lock_for(key).release_read()
            raise
        return acquired

    def release_read(self, keys: Iterable[LockKey]) -> None:
        for key in keys:
            self._lock_for(key).release_read()

    # ------------------------------------------------------------------
    # Single-key write side (retile / metadata)
    # ------------------------------------------------------------------
    @contextmanager
    def write(self, key: LockKey) -> Iterator[None]:
        lock = self._lock_for(key)
        lock.acquire_write()
        try:
            yield
        finally:
            lock.release_write()

    @contextmanager
    def write_video(self, video: str) -> Iterator[None]:
        """Write-lock the video-level key (semantic-index writes)."""
        with self.write((video, VIDEO_LEVEL)):
            yield
