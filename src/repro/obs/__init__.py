"""End-to-end observability for the TASM service stack.

The service layer (pending queue → batch runners → executor → tile cache →
multiplexed transport) is a pipeline of queues, locks, and credit loops;
this package is the window into it:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  fixed-bucket histograms with lock-striped hot-path updates, a consistent
  ``snapshot()``, and Prometheus-style text via :func:`render_text`.
* :class:`~repro.obs.trace.Trace` / :class:`~repro.obs.trace.TraceLog` —
  per-query span timelines (queue wait, execution, per-SOT serves with
  cache hit/miss counts, wire delivery) kept in a bounded ring, plus a
  slow-query log through standard ``logging``.
* :class:`Observability` — the facade the server owns: it pre-registers the
  service metrics, starts/finishes traces, and feeds the slow-query log.
  ``Observability.from_config`` honours ``TasmConfig.observability``; a
  disabled instance hands out no-op instruments and the shared
  :data:`~repro.obs.trace.NULL_TRACE`, so instrumentation stays in place at
  near-zero cost.

Everything here is pure stdlib — no new dependencies — and every value is
JSON-serialisable, which is what lets the wire protocol expose the whole
surface through the ``metrics`` and ``trace`` ops.
"""

from __future__ import annotations

import logging

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

#: Batch sizes are small integers; linear-ish buckets read better than the
#: time bounds.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Observability:
    """The server's observability surface: metrics, traces, slow-query log.

    One instance per :class:`~repro.service.server.TasmServer`; the
    scheduler, executor sink, cache wiring, and transport all record through
    it.  Construction pre-registers the service metrics so a snapshot taken
    before any traffic still lists every series at zero.
    """

    def __init__(
        self,
        enabled: bool = True,
        slow_query_ms: float = 1000.0,
        trace_history: int = 256,
    ):
        self.enabled = enabled
        self.slow_query_seconds = max(0.0, slow_query_ms) / 1000.0
        self.registry = MetricsRegistry(enabled=enabled)
        self.traces = TraceLog(capacity=trace_history)

        registry = self.registry
        # Query lifecycle -------------------------------------------------
        self.queries_submitted = registry.counter(
            "tasm_queries_submitted_total", "Queries accepted by the scheduler."
        )
        self.queries_completed = registry.counter(
            "tasm_queries_completed_total", "Queries that served every SOT."
        )
        self.queries_cancelled = registry.counter(
            "tasm_queries_cancelled_total",
            "Queries abandoned by their consumer before completing.",
        )
        self.queries_failed = registry.counter(
            "tasm_queries_failed_total",
            "Queries failed by a batch error or server shutdown.",
        )
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
        # Batching --------------------------------------------------------
        self.batches_executed = registry.counter(
            "tasm_batches_executed_total", "Batches the runner pool completed."
        )
        self.batch_size = registry.histogram(
            "tasm_batch_size",
            "Queries coalesced into each executed batch.",
            buckets=_BATCH_SIZE_BUCKETS,
        )
        self.stage_seconds = registry.histogram(
            "tasm_stage_seconds",
            "Executor time per pipeline stage (plan / warm / serve).",
            labels=("stage",),
        )
        # Cache -----------------------------------------------------------
        self.singleflight_wait_seconds = registry.histogram(
            "tasm_cache_singleflight_wait_seconds",
            "Time a decode waited for another thread's in-flight decode of "
            "the same tile.",
        )
        # Transport -------------------------------------------------------
        self.chunks_sent = registry.counter(
            "tasm_chunks_sent_total",
            "Stream chunks sent to remote clients, by data path.",
            labels=("path",),
        )
        self.shm_fallbacks = registry.counter(
            "tasm_shm_fallback_total",
            "Chunks that fell back to the socket because the shared-memory "
            "ring had no room.",
        )
        self.credit_stall_seconds = registry.histogram(
            "tasm_credit_stall_seconds",
            "Time a stream spent parked waiting for client credits.",
        )
        # Fault tolerance ---------------------------------------------------
        self.queries_deadline_exceeded = registry.counter(
            "tasm_queries_deadline_exceeded_total",
            "Queries failed because their deadline_ms elapsed (while pending "
            "or mid-batch).",
        )
        self.queries_shed = registry.counter(
            "tasm_queries_shed_total",
            "Queries refused by admission control, by shedder.",
            labels=("reason",),
        )
        self.queries_quarantined = registry.counter(
            "tasm_queries_quarantined_total",
            "Queries quarantined after repeatedly killing batch runners.",
        )
        self.runner_restarts = registry.counter(
            "tasm_runner_restarts_total",
            "Crashed batch-runner threads replaced by the supervisor.",
        )
        self.scan_retries = registry.counter(
            "tasm_scan_retries_total",
            "Scan submissions that resumed an interrupted stream "
            "(carried skip_sots after a client reconnect).",
        )
        self.handshakes_timed_out = registry.counter(
            "tasm_handshakes_timed_out_total",
            "Accepted sockets closed for not completing a first frame "
            "within the handshake timeout.",
        )

    @classmethod
    def from_config(cls, config) -> "Observability":
        """An instance honouring ``TasmConfig``'s observability knobs."""
        return cls(
            enabled=config.observability,
            slow_query_ms=config.slow_query_ms,
            trace_history=config.trace_history,
        )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def start_trace(self, query) -> Trace:
        """A new trace for one submitted query (NULL_TRACE when disabled)."""
        if not self.enabled:
            return NULL_TRACE
        self.queries_submitted.inc()
        return Trace(video=query.video, labels=query.objects or ())

    def finish_query(self, trace: Trace, status: str = "ok") -> None:
        """Terminal bookkeeping for one query; idempotent per trace.

        Records the latency histogram and the completion counter (only for
        successful queries — cancellations and failures have their own
        counters), appends the trace to the ring, and emits the slow-query
        log event when the latency crosses the configured threshold.
        """
        if not self.enabled or not trace.enabled:
            return
        if not trace.finish(status):
            return  # already finished by an earlier terminal transition
        total = trace.total_seconds
        if status == "ok":
            self.queries_completed.inc()
            self.query_seconds.observe(total)
        elif status == "cancelled":
            self.queries_cancelled.inc()
        elif status == "deadline":
            self.queries_deadline_exceeded.inc()
        elif status == "shed":
            # The breaker path: the query had been admitted (it has a trace)
            # before the shedder refused it.  The depth-bound fast-fail path
            # never allocates a trace and counts reason="queue_full" itself.
            self.queries_shed.labels(reason="breaker").inc()
        elif status == "quarantined":
            self.queries_quarantined.inc()
        else:
            self.queries_failed.inc()
        self.traces.append(trace)
        if (
            status == "ok"
            and self.slow_query_seconds > 0.0
            and total >= self.slow_query_seconds
        ):
            self.slow_queries.inc()
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

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def render_text(self) -> str:
        return self.registry.render_text()


#: Shared disabled instance for components constructed without a server
#: (e.g. a BatchScheduler built directly in tests).
DISABLED = Observability(enabled=False)
