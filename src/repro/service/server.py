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

from dataclasses import replace
from typing import Iterable, Sequence

from ..config import TasmConfig
from ..core.predicates import LabelPredicate, TemporalPredicate
from ..core.query import Query
from ..core.tasm import TASM
from ..detection.base import Detection
from ..exec.cache import TileDecodeCache
from ..obs import Observability
from ..storage.tiled_video import RetileRecord
from ..tiles.layout import TileLayout
from ..video.codec import DecodeStats
from .scheduler import BatchScheduler, ResultStream

__all__ = ["DEFAULT_SERVER_CACHE_BYTES", "TasmServer"]

#: Cache capacity granted to a TASM that reaches the server without one.
DEFAULT_SERVER_CACHE_BYTES = 256 * 1024 * 1024


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
        self._scheduler = BatchScheduler(tasm, obs=self.obs)
        self._register_gauges()

    def _register_gauges(self) -> None:
        """Register callback gauges over state that already exists.

        Queue depth and cache occupancy are read at snapshot time through
        callbacks, so the hot paths maintaining that state pay nothing for
        being observable.  Cache traffic is counted per scan, in
        :meth:`stats`.
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
            # Follower waits on in-flight decodes flow into the histogram.
            cache.observe_singleflight = self.obs.singleflight_wait_seconds.observe

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TasmServer":
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
    def stats(self) -> DecodeStats:
        """The server's decode work so far: the sum of every executed
        batch's ``BatchResult.stats``, copied under the lock runners merge
        under.  A batch is merged before its last stream finishes, so a scan
        whose result is in hand is counted.  Counts (queries, batches, queue
        depth, cache occupancy) are the registry's: :meth:`metrics_snapshot`."""
        scheduler = self._scheduler
        with scheduler._counter_lock:
            return replace(scheduler.total_stats)

    def metrics_snapshot(self) -> dict:
        """The observability registry's full snapshot (JSON-serialisable).

        The wire's ``metrics`` op returns exactly this; render it for humans
        with :func:`repro.obs.render_text`.
        """
        return self.obs.snapshot()

    def traces(self, last: int = 16) -> list[dict]:
        """The most recent completed query traces, newest first."""
        return self.obs.traces.last(last)
