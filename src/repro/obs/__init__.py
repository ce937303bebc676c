"""End-to-end observability for the TASM service stack.

The service layer (pending queue → batch runners → executor → tile cache →
multiplexed transport) is a pipeline of queues, locks, and credit loops;
this package is the window into it:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  fixed-bucket histograms, one lock each, a consistent ``snapshot()``, and
  Prometheus-style text via :func:`render_text`.
* :class:`~repro.obs.trace.Trace` / :class:`~repro.obs.trace.TraceLog` —
  per-query span timelines (queue wait, execution with the result's own
  index and decode accounting, wire delivery) kept in a bounded ring, plus
  a slow-query log through standard ``logging``.
* :class:`Observability` — the facade the server owns.  It registers every
  service series and resolves every labelled child at construction, hands a
  submitted query its trace, and takes the query back once, when it is
  terminal (:meth:`Observability.finish_query`).

**Who counts what.**  Nothing is counted twice.  The server's events —
submitted, the four ways a query ends, shed refusals, batches — are plain
ints on the :class:`~repro.service.server.TasmServer`;
their series read those ints at snapshot time
(:meth:`Observability.read_events_from`), the way queue depth and the cache
gauges are read, so no second copy of a count exists to disagree.
What only this package knows — latency, queue-wait, batch-size and per-batch
stage histograms, slow queries, chunk and credit-stall counts — is updated
here: six histogram observations per batch of one query, however many SOTs
it serves.  The stage times are the ``BatchResult``'s and a query's latency
is its stream's own clock; nothing here times a stage a second time.

Metrics are always on.  ``TasmConfig.observability`` (through
:meth:`Observability.from_config`) decides only whether a query's trace —
and with it the slow-query log line — is kept; off, a query carries the
shared :data:`~repro.obs.trace.NULL_TRACE`.

Everything here is pure stdlib — no new dependencies — and every value is
JSON-serialisable, which is what lets the wire protocol expose the whole
surface through the ``metrics`` and ``trace`` ops.
"""

from __future__ import annotations

import logging
from functools import partial

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_text,
)
from .trace import NULL_TRACE, SLOW_QUERY_LOGGER, Trace, TraceLog

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACE",
    "Observability",
    "SLOW_QUERY_LOGGER",
    "Trace",
    "TraceLog",
    "render_text",
]

_slow_logger = logging.getLogger(SLOW_QUERY_LOGGER)

#: Queries slower than this many milliseconds (submit to completion) are
#: logged through ``logging`` (logger ``repro.obs.slowlog``) with their full
#: span breakdown attached.
SLOW_QUERY_MS = 1000.0
#: Completed traces kept in the bounded ring the ``trace`` wire op reads
#: from (newest first).
TRACE_HISTORY = 256

#: Batch sizes are small integers; linear-ish buckets read better than the
#: time bounds.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


#: The server's events.  Each is counted once, as a plain int on the
#: :class:`~repro.service.server.TasmServer` (the field named here),
#: and read from there at snapshot time — ``(field, series, help)``.
_SERVER_EVENTS = (
    ("queries_submitted", "tasm_queries_submitted_total", "Queries accepted by the server."),
    ("queries_completed", "tasm_queries_completed_total", "Queries that served every SOT."),
    (
        "queries_cancelled",
        "tasm_queries_cancelled_total",
        "Queries abandoned by their consumer before completing.",
    ),
    (
        "queries_failed",
        "tasm_queries_failed_total",
        "Queries failed by a batch error, a vanished peer or server shutdown.",
    ),
    (
        "queries_deadline_exceeded",
        "tasm_queries_deadline_exceeded_total",
        "Queries failed because their deadline_ms elapsed (while pending or mid-batch).",
    ),
    ("batches_executed", "tasm_batches_executed_total", "Batches the runner pool completed."),
)


class Observability:
    """The server's observability surface: metrics, traces, slow-query log.

    One instance per :class:`~repro.service.server.TasmServer`; the
    server's batch runners, cache wiring, and transport all record through it.
    Construction registers every service metric and resolves every labelled
    child, so a snapshot taken before any traffic lists every series at zero
    and no update looks a label up.  ``keep_traces`` decides whether each
    query gets a trace of its own; the metrics count either way.
    """

    def __init__(self, keep_traces: bool = True):
        self.keep_traces = keep_traces
        self.slow_query_seconds = SLOW_QUERY_MS / 1000.0
        self.registry = MetricsRegistry()
        self.traces = TraceLog(capacity=TRACE_HISTORY)

        registry = self.registry
        # Server events: registered here, counted by the server -------------
        self._server_events = {
            field: registry.counter(name, help_text)
            for field, name, help_text in _SERVER_EVENTS
        }
        #: The depth bound's refusals: never admitted, so not among the
        #: submitted queries.
        self.queries_shed = registry.counter(
            "tasm_queries_shed_total",
            "Queries refused by admission control, by shedder.",
            labels=("reason",),
        ).labels(reason="queue_full")
        # Per query and per batch -------------------------------------------
        self.query_seconds = registry.histogram(
            "tasm_query_seconds", "Submit-to-completion latency per query."
        )
        self.queue_wait_seconds = registry.histogram(
            "tasm_queue_wait_seconds",
            "Time a query waited between submit and its batch starting.",
        )
        self.slow_queries = registry.counter(
            "tasm_slow_queries_total",
            "Queries whose latency exceeded the slow-query threshold.",
        )
        self.batch_size = registry.histogram(
            "tasm_batch_size",
            "Queries coalesced into each executed batch.",
            buckets=_BATCH_SIZE_BUCKETS,
        )
        stages = registry.histogram(
            "tasm_stage_seconds",
            "Executor time per batch in each pipeline stage (plan / warm / serve).",
            labels=("stage",),
        )
        #: One observation per stage per executed batch, from the
        #: ``BatchResult`` totals.
        self.stage_seconds = {
            stage: stages.labels(stage=stage) for stage in ("plan", "warm", "serve")
        }
        # Cache -----------------------------------------------------------
        self.singleflight_wait_seconds = registry.histogram(
            "tasm_cache_singleflight_wait_seconds",
            "Time a decode waited for another thread's in-flight decode of "
            "the same tile.",
        )
        # Transport -------------------------------------------------------
        chunks = registry.counter(
            "tasm_chunks_sent_total",
            "Stream chunks sent to remote clients, by data path.",
            labels=("path",),
        )
        self.chunks_sent = {path: chunks.labels(path=path) for path in ("socket", "shm")}
        self.shm_fallbacks = registry.counter(
            "tasm_shm_fallback_total",
            "Chunks that fell back to the socket because the shared-memory "
            "ring had no room.",
        )
        self.credit_stall_seconds = registry.histogram(
            "tasm_credit_stall_seconds",
            "Time a stream spent parked waiting for client credits.",
        )
        self.handshakes_timed_out = registry.counter(
            "tasm_handshakes_timed_out_total",
            "Accepted sockets closed for not completing a first frame "
            "within the handshake timeout.",
        )

    @classmethod
    def from_config(cls, config) -> "Observability":
        """An instance keeping traces when ``TasmConfig.observability`` is on."""
        return cls(keep_traces=config.observability)

    def read_events_from(self, server) -> None:
        """Have every server-event series read ``server``'s own count."""
        for field, counter in self._server_events.items():
            counter.set_callback(partial(getattr, server, field))
        self.queries_shed.set_callback(partial(getattr, server, "shed_queue_full"))

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def start_trace(self, query) -> Trace:
        """A new trace for one submitted query (NULL_TRACE when none is kept)."""
        if not self.keep_traces:
            return NULL_TRACE
        return Trace(video=query.video, labels=query.objects or ())

    def finish_query(self, stream, status: str) -> None:
        """What a query leaves here once it is terminal (called once per
        query, by :meth:`TasmServer._account`, which has counted it).

        Finishes a kept trace as ``status`` and appends it to the ring; a
        successful query also lands, by its stream's own clock, in the
        latency histogram and, past the configured threshold, in the
        slow-query count (and, with its trace, the slow-query log).
        """
        trace = stream.trace
        if trace.enabled:
            trace.finish(status)
            self.traces.append(trace)
        if status != "ok":
            return
        total = stream.total_seconds
        self.query_seconds.observe(total)
        if total < self.slow_query_seconds:
            return
        self.slow_queries.inc()
        if trace.enabled:
            _slow_logger.warning(
                "slow query: video=%s labels=%s total_ms=%.1f threshold_ms=%.1f "
                "spans=%s",
                trace.video,
                ",".join(trace.labels) or "<any>",
                total * 1000.0,
                self.slow_query_seconds * 1000.0,
                "; ".join(
                    f"{span['name']}={span['seconds'] * 1000.0:.1f}ms"
                    for span in trace.to_dict()["spans"]
                ),
                extra={"tasm_trace": trace.to_dict()},
            )

    def snapshot(self) -> dict:
        return self.registry.snapshot()
