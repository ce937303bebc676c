"""``TasmServer`` — one TASM, one shared cache, many concurrent clients.

The paper's TASM is a library a single query processor links against; the
serving deployment the VSS line of work targets is different: many clients
hammer one storage manager, and the wins come from *sharing* — one
process-wide :class:`~repro.exec.cache.TileDecodeCache` so any client's
decode warms every other client, and batch runners that plan together
whatever queued while they were busy, so those queries touch each tile once.

The server owns:

* a single :class:`~repro.core.tasm.TASM` (constructed from a config, or
  supplied by the caller) whose persistent tile cache is guaranteed to exist
  — a TASM configured without one is given a server cache, because a server
  without cross-query reuse is pointless;
* a :class:`~repro.service.scheduler.BatchScheduler` whose pool of
  ``service_runners`` batch-runner threads each take up to
  ``service_max_batch`` pending queries the moment they are free — a lone
  query on an idle server runs at once, a backlog coalesces into shared
  ``execute_batch`` calls — with round-robin admission per client and each
  query's results streamed back per SOT through a bounded
  (``service_stream_buffer_chunks``) backpressured
  :class:`~repro.service.stream.ScanStream`;
* the write path: ``add_metadata`` / ``add_detections`` / ``retile_sot``
  forward to TASM, whose per-``(video, SOT)`` readers-writer locks serialize
  them against in-flight scans.

In-process callers use :class:`~repro.service.client.TasmClient` (via
:meth:`TasmServer.connect`); cross-process callers attach through the
multiplexed, credit-flow-controlled binary socket protocol in
:mod:`repro.service.transport` (optionally with a shared-memory pixel ring).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

from ..config import TasmConfig
from ..core.predicates import LabelPredicate, TemporalPredicate
from ..core.query import Query
from ..core.scan import ScanResult
from ..core.tasm import TASM
from ..detection.base import Detection
from ..exec.cache import TileDecodeCache
from ..obs import Observability
from ..storage.tiled_video import RetileRecord
from ..tiles.layout import TileLayout
from .scheduler import BatchScheduler, ResultStream

__all__ = ["DEFAULT_SERVER_CACHE_BYTES", "ServerStats", "TasmServer"]

#: Cache capacity granted to a TASM that reaches the server without one.
DEFAULT_SERVER_CACHE_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class ServerStats:
    """A point-in-time snapshot of the server's behaviour."""

    uptime_seconds: float
    queries_submitted: int
    queries_completed: int
    #: Queries abandoned by their consumer (stream ``close()`` or a wire
    #: ``CANCEL``) before completing; their remaining decode work was skipped.
    queries_cancelled: int
    #: Completed queries per second of uptime.
    qps: float
    #: Queries accepted but not yet dispatched into a batch.
    queue_depth: int
    batches_executed: int
    #: Width of the scheduler's batch-runner pool (``service_runners``).
    runners: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    cache_bytes: int
    cache_entries: int
    pixels_decoded: int
    pixels_served_from_cache: int
    #: Per object class: decode work done and cache work saved for queries
    #: naming that class.  A multi-label query contributes to every class it
    #: names, so the per-class figures attribute shared work, not split it.
    decode_work_by_label: dict[str, dict[str, int]] = field(default_factory=dict)
    #: The observability registry's full snapshot (``repro.obs``), nested so
    #: the legacy flat keys above stay byte-identical for existing consumers.
    metrics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """A JSON-serialisable form (used by the socket transport): every
        field, in declaration order.

        The legacy flat keys are a compatibility surface: existing dashboards
        and the wire's ``stats`` op consume them, so new telemetry lands under
        the nested ``metrics`` key instead of widening the flat namespace.
        """
        return asdict(self)


class TasmServer:
    """A concurrent, multi-client front end over one TASM instance."""

    def __init__(self, tasm: TASM | None = None, config: TasmConfig | None = None):
        if tasm is not None and config is not None:
            raise ValueError("pass either a TASM instance or a config, not both")
        if tasm is None:
            config = config or TasmConfig()
            if config.decode_cache_bytes == 0:
                config = config.with_updates(decode_cache_bytes=DEFAULT_SERVER_CACHE_BYTES)
            tasm = TASM(config=config)
        elif tasm.tile_cache is None:
            # A server without a shared cache cannot share decodes across
            # clients; grant the TASM one rather than silently serving cold.
            tasm.tile_cache = TileDecodeCache(DEFAULT_SERVER_CACHE_BYTES)
            tasm._decoder.cache = tasm.tile_cache
        self.tasm = tasm
        #: The server's observability surface (metrics registry, per-query
        #: traces, slow-query log).  The metrics always count;
        #: ``TasmConfig.observability`` decides whether traces are kept.
        self.obs = Observability.from_config(tasm.config)
        self._scheduler = BatchScheduler(
            tasm, on_query_done=self._record_query_done, obs=self.obs
        )
        self._started_at: float | None = None
        self._stats_lock = threading.Lock()
        self._work_by_label: dict[str, dict[str, int]] = {}
        self._register_gauges()

    def _register_gauges(self) -> None:
        """Register callback gauges over state that already exists.

        Queue depth, cache occupancy, and cache hit/miss totals are read at
        snapshot time through callbacks, so the hot paths maintaining that
        state pay nothing for being observable.
        """
        registry = self.obs.registry
        scheduler = self._scheduler
        registry.gauge(
            "tasm_queue_depth", "Queries accepted but not yet in a batch."
        ).set_callback(lambda: scheduler.queue_depth)
        cache = self.tasm.tile_cache
        if cache is not None:
            registry.gauge(
                "tasm_cache_bytes", "Decoded bytes held by the tile cache."
            ).set_callback(lambda: cache.current_bytes)
            registry.gauge(
                "tasm_cache_entries", "Entries held by the tile cache."
            ).set_callback(lambda: len(cache))
            registry.gauge(
                "tasm_cache_hits", "Tile-cache lookup hits since start."
            ).set_callback(lambda: cache.stats.hits)
            registry.gauge(
                "tasm_cache_misses", "Tile-cache lookup misses since start."
            ).set_callback(lambda: cache.stats.misses)
            # Follower waits on in-flight decodes flow into the histogram.
            cache.observe_singleflight = self.obs.singleflight_wait_seconds.observe

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TasmServer":
        if self._started_at is None:
            self._started_at = time.perf_counter()
        self._scheduler.start()
        return self

    def stop(self) -> None:
        self._scheduler.stop()

    def __enter__(self) -> "TasmServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def connect(self):
        """An in-process client bound to this server."""
        from .client import TasmClient

        return TasmClient(self)

    # ------------------------------------------------------------------
    # The read path: queries
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        client: object = None,
        deadline_ms: float | None = None,
        skip_sots: Iterable[int] | None = None,
    ) -> ResultStream:
        """Enqueue a query; returns immediately with its result stream.

        ``client`` identifies the submitter for the scheduler's round-robin
        admission control: queries sharing a client key share one fairness
        slot per batch, so a greedy client cannot fill every batch.  In-process
        :class:`~repro.service.client.TasmClient` handles and socket
        connections each pass themselves; ``None`` pools anonymous callers
        into one shared slot.

        ``deadline_ms`` bounds the query's total latency and ``skip_sots``
        resumes an interrupted scan (see :meth:`BatchScheduler.submit`).
        Raises :class:`~repro.errors.ServerBusy` when the pending queue is at
        ``service_max_queue_depth``.
        """
        return self._scheduler.submit(
            query, client=client, deadline_ms=deadline_ms, skip_sots=skip_sots
        )

    def scan(
        self,
        video_name: str,
        predicate: LabelPredicate | str | Sequence[str],
        temporal: TemporalPredicate | None = None,
    ) -> ScanResult:
        """Blocking convenience: submit one scan and wait for its result."""
        return self.submit(self._build_query(video_name, predicate, temporal)).result()

    def _build_query(
        self,
        video_name: str,
        predicate: LabelPredicate | str | Sequence[str],
        temporal: TemporalPredicate | None,
    ) -> Query:
        return Query(
            video=video_name,
            predicate=TASM._normalise_predicate(predicate),
            temporal=temporal or TemporalPredicate.everything(),
        )

    # ------------------------------------------------------------------
    # The write path: forwarded to TASM, whose locks serialize them
    # ------------------------------------------------------------------
    def add_metadata(self, *args, **kwargs) -> None:
        self.tasm.add_metadata(*args, **kwargs)

    def add_detections(self, video_id: str, detections: Iterable[Detection]) -> int:
        return self.tasm.add_detections(video_id, detections)

    def retile_sot(
        self, video_name: str, sot_index: int, layout: TileLayout
    ) -> RetileRecord:
        return self.tasm.retile_sot(video_name, sot_index, layout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _record_query_done(self, query: Query, result: ScanResult) -> None:
        with self._stats_lock:
            for label in query.objects or frozenset(("<unlabelled>",)):
                work = self._work_by_label.setdefault(
                    label, {"pixels_decoded": 0, "pixels_served_from_cache": 0, "queries": 0}
                )
                work["pixels_decoded"] += result.pixels_decoded
                work["pixels_served_from_cache"] += result.pixels_served_from_cache
                work["queries"] += 1

    def stats(self) -> ServerStats:
        """A consistent snapshot of throughput, cache, and per-class work."""
        cache = self.tasm.tile_cache
        cache_stats = cache.stats.snapshot() if cache is not None else None
        uptime = (
            time.perf_counter() - self._started_at if self._started_at is not None else 0.0
        )
        completed = self._scheduler.queries_completed
        with self._stats_lock:
            by_label = {label: dict(work) for label, work in self._work_by_label.items()}
        return ServerStats(
            uptime_seconds=uptime,
            queries_submitted=self._scheduler.queries_submitted,
            queries_completed=completed,
            queries_cancelled=self._scheduler.queries_cancelled,
            qps=completed / uptime if uptime > 0 else 0.0,
            queue_depth=self._scheduler.queue_depth,
            batches_executed=self._scheduler.batches_executed,
            runners=self.tasm.config.service_runners,
            cache_hits=cache_stats.hits if cache_stats else 0,
            cache_misses=cache_stats.misses if cache_stats else 0,
            cache_hit_rate=cache_stats.hit_rate if cache_stats else 0.0,
            cache_bytes=cache.current_bytes if cache is not None else 0,
            cache_entries=len(cache) if cache is not None else 0,
            pixels_decoded=self._scheduler.total_stats.pixels_decoded,
            pixels_served_from_cache=self._scheduler.total_stats.pixels_served_from_cache,
            decode_work_by_label=by_label,
            metrics=self.obs.snapshot(),
        )

    def metrics_snapshot(self) -> dict:
        """The observability registry's full snapshot (JSON-serialisable).

        The wire's ``metrics`` op returns exactly this; render it for humans
        with :func:`repro.obs.render_text`.
        """
        return self.obs.snapshot()

    def traces(self, last: int = 16) -> list[dict]:
        """The most recent completed query traces, newest first."""
        return self.obs.traces.last(last)
