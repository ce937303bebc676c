"""In-process client for :class:`~repro.service.server.TasmServer`.

A :class:`TasmClient` is a thin, thread-safe handle many threads of one
process can share (each call builds independent state; the server side does
the synchronisation).  The two query styles:

* ``scan(...)`` — blocking, returns the complete ScanResult, byte-identical
  to calling ``TASM.scan`` directly.
* ``scan_streaming(...)`` / ``submit(query)`` — returns a
  :class:`~repro.service.server.ResultStream` immediately; iterate it for
  per-SOT :class:`~repro.service.stream.StreamChunk` deliveries (the first
  arrives while later SOTs are still decoding), or call ``.result()`` to
  block for the whole thing.
"""

from __future__ import annotations

from typing import Sequence

from ..core.predicates import LabelPredicate, TemporalPredicate
from ..core.query import Query
from ..core.scan import ScanResult
from ..video.codec import DecodeStats
from .server import ResultStream

__all__ = ["TasmClient"]


class TasmClient:
    """A lightweight handle onto a running :class:`TasmServer`."""

    def __init__(self, server):
        self._server = server

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def submit(self, query: Query, deadline_ms: float | None = None) -> ResultStream:
        """Enqueue a prepared Query; returns its stream immediately.

        Queries submitted through one client handle share one fairness slot
        in the server's round-robin admission, so a handle that floods the
        queue cannot crowd other clients out of every batch.  ``deadline_ms``
        bounds the query end to end (it fails with
        :class:`~repro.errors.DeadlineExceeded` once expired, even mid-batch).
        """
        return self._server.submit(query, client=self, deadline_ms=deadline_ms)

    def execute(self, query: Query, deadline_ms: float | None = None) -> ScanResult:
        """Blocking execution of a prepared Query."""
        return self.submit(query, deadline_ms=deadline_ms).result()

    def scan(
        self,
        video_name: str,
        predicate: LabelPredicate | str | Sequence[str],
        temporal: TemporalPredicate | None = None,
        deadline_ms: float | None = None,
    ) -> ScanResult:
        """Blocking scan, mirroring ``TASM.scan``'s signature."""
        return self.scan_streaming(
            video_name, predicate, temporal, deadline_ms=deadline_ms
        ).result()

    def scan_streaming(
        self,
        video_name: str,
        predicate: LabelPredicate | str | Sequence[str],
        temporal: TemporalPredicate | None = None,
        deadline_ms: float | None = None,
    ) -> ResultStream:
        """Submit a scan and stream its results per SOT as they warm."""
        return self.submit(
            self._server._build_query(video_name, predicate, temporal),
            deadline_ms=deadline_ms,
        )

    # ------------------------------------------------------------------
    # Writes and introspection (forwarded)
    # ------------------------------------------------------------------
    def add_metadata(self, *args, **kwargs) -> None:
        self._server.add_metadata(*args, **kwargs)

    def stats(self) -> DecodeStats:
        """The server's decode work so far (``TasmServer.stats()``)."""
        return self._server.stats()

    def metrics(self) -> dict:
        """The server's full metrics snapshot (see ``repro.obs``)."""
        return self._server.metrics_snapshot()

    def traces(self, last: int = 16) -> list[dict]:
        """The server's most recent completed query traces, newest first."""
        return self._server.traces(last)
