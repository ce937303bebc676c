"""Per-query tracing: spans, a bounded trace ring, and the slow-query log.

A :class:`Trace` is created when a query is submitted to the service layer
and threaded (as an attribute of its ``ResultStream``) through the scheduler
and the connection's writer.  Each appends *spans* — named, timed segments
with optional metadata:

* **top-level spans** (``top=True``) tile the query's wall time end to end:
  ``queue`` (submit → its batch starts executing) and ``execute`` (batch
  start → the query's last SOT served).  Their durations sum to the query's
  total latency, which is what makes a trace answer "where did this slow
  query spend its time".  ``execute`` carries what the finished
  ``ScanResult`` already holds: ``index_seconds``, ``decode_seconds`` and
  its ``DecodeStats`` fields (pixels and tiles decoded, cache hits and
  misses).
* **detail spans** (``top=False``) add to that without summing to anything:
  the transport's ``wire`` span (chunks delivered over the socket/shm path).

Completed traces land in a bounded :class:`TraceLog` ring (newest first) the
``trace`` wire op reads, and queries slower than
:data:`repro.obs.SLOW_QUERY_MS` are additionally logged through the standard
``logging`` module (logger ``repro.obs.slowlog``) with the full trace dict
attached as ``record.tasm_trace`` — structured enough for a log pipeline,
readable enough for a terminal.

When no trace is kept (``TasmConfig.observability`` off) the scheduler
threads :data:`NULL_TRACE` instead — one shared object whose methods do
nothing — so the span calls never branch on configuration.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from typing import Iterable

__all__ = ["NULL_TRACE", "SLOW_QUERY_LOGGER", "Trace", "TraceLog"]

#: Queries slower than the configured threshold are logged here.
SLOW_QUERY_LOGGER = "repro.obs.slowlog"

_slow_logger = logging.getLogger(SLOW_QUERY_LOGGER)

_trace_ids = itertools.count(1)


class Trace:
    """The timed story of one query, from submit to completion.

    Span appends come from one thread at a time in the normal flow (the
    submitting thread, then the batch runner serving the query, then the
    connection writer delivering it), but failure paths and post-completion wire spans
    can race a reader snapshotting the trace, so all mutation and
    :meth:`to_dict` take the trace's lock.
    """

    __slots__ = (
        "trace_id",
        "video",
        "labels",
        "started",
        "completed",
        "status",
        "_spans",
        "_lock",
    )

    enabled = True

    def __init__(self, video: str, labels: Iterable[str] = ()):
        self.trace_id = next(_trace_ids)
        self.video = video
        self.labels = tuple(sorted(labels))
        self.started = time.perf_counter()
        self.completed: float | None = None
        self.status: str | None = None
        self._spans: list[dict] = []
        self._lock = threading.Lock()

    def add_span(
        self,
        name: str,
        seconds: float,
        top: bool = False,
        **meta,
    ) -> None:
        """Record one timed segment ending roughly now.

        The span's start offset (relative to the trace's creation) is derived
        from the current clock minus ``seconds``, which keeps recording a
        single ``perf_counter`` call per span.
        """
        start = max(0.0, time.perf_counter() - self.started - seconds)
        span = {"name": name, "start": start, "seconds": seconds, "top": top}
        if meta:
            span["meta"] = meta
        with self._lock:
            self._spans.append(span)

    def finish(self, status: str = "ok") -> bool:
        """Mark the trace terminal; True if this call did it (idempotent)."""
        with self._lock:
            if self.completed is not None:
                return False
            self.completed = time.perf_counter()
            self.status = status
            return True

    @property
    def total_seconds(self) -> float:
        """Submit-to-completion latency (up to now for an unfinished trace)."""
        end = self.completed if self.completed is not None else time.perf_counter()
        return end - self.started

    def to_dict(self) -> dict:
        """A JSON-serialisable form (the wire format of the ``trace`` op)."""
        with self._lock:
            spans = [dict(span) for span in self._spans]
        return {
            "trace_id": self.trace_id,
            "video": self.video,
            "labels": list(self.labels),
            "status": self.status,
            "total_seconds": self.total_seconds,
            "span_seconds": sum(s["seconds"] for s in spans if s["top"]),
            "spans": spans,
        }


class _NullTrace:
    """Shared no-op trace carried by a query whose trace is not kept."""

    __slots__ = ()

    enabled = False
    trace_id = 0
    video = ""
    labels = ()
    status = None
    total_seconds = 0.0

    def add_span(self, name, seconds, top=False, **meta) -> None:
        pass

    def finish(self, status: str = "ok") -> bool:
        return False

    def to_dict(self) -> dict:
        return {}


NULL_TRACE = _NullTrace()


class TraceLog:
    """A bounded ring of completed traces, newest first.

    Appends are O(1) and drop the oldest trace past ``capacity``; ``last``
    serialises on demand, so holding a few hundred traces costs a few
    hundred object references, not their rendered dicts.
    """

    def __init__(self, capacity: int = 256):
        self._traces: deque[Trace] = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()

    def append(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)

    def last(self, count: int = 16) -> list[dict]:
        """The most recent ``count`` completed traces, newest first; none
        for a ``count`` of 0 or less."""
        with self._lock:
            recent = list(self._traces)[-count:] if count > 0 else []
        return [trace.to_dict() for trace in reversed(recent)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
