"""Batched, cache-aware query execution.

:class:`QueryExecutor` is the single path every TASM ``Scan`` takes.  For a
lone query it behaves exactly like the paper's scan loop (index lookup, then
decode only the tiles the selected regions touch).  For a batch it adds the
two optimisations the VSS and Scanner systems apply to exactly this redundant
work:

* **Planning** — every query's region requests are resolved up front, one
  memoised :class:`~repro.video.decoder.ScanPiece` per ``(video, SOT)`` it
  touches, so the executor knows the union of tiles the whole batch needs
  before decoding anything — and a repeated scan plans nothing again.
* **Warm + serve, pipelined per SOT** — each needed (GOP, tile) bitstream is
  decoded *once*, to the deepest frame any query in the batch reaches, into
  TASM's :class:`~repro.exec.cache.TileDecodeCache` when it has one, and
  every query's requests against that SOT are answered immediately
  afterwards, from the cache or, for a tile a later put of the same warm
  evicted (or a TASM without a cache), from the warm's own frames — so a
  cache that holds one SOT's working set serves hits even when the batch's
  whole working set is far larger, and a SOT too big for the cache is
  simply not warmed (serving it costs no more than sequential
  execution would).  Per-query results are byte-identical to sequential
  ``scan()`` calls — serving runs the same grouping, decode-depth, and
  assembly logic — but tiles shared between queries are decoded once
  instead of once per query.

A batch runs on the thread that calls it; parallelism comes from running
independent batches side by side (the service layer's runner pool), which is
where Scanner gets its own.

Decode-work accounting never double-counts: a cache hit contributes to the
``cache_hits`` / ``pixels_served_from_cache`` counters, not to the P/T decode
counters, so summing the batch's stats reproduces the work actually done.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..concurrency import VIDEO_LEVEL
from ..core.query import Query
from ..core.scan import ScanRegion, ScanResult
from ..video.codec import DecodeStats
from ..video.decoder import DecodeResult, ScanPiece

if TYPE_CHECKING:
    from ..core.tasm import TASM

__all__ = ["BatchResult", "PartialResult", "QueryDone", "QueryExecutor", "StreamEvent"]


@dataclass(frozen=True)
class PartialResult:
    """Streaming event: one SOT's contribution to one query is ready.

    Emitted by ``execute_batch`` (through its ``observer``) immediately after
    the SOT is served — while later SOTs of the batch may still be decoding —
    so a serving layer can push results to clients incrementally.  ``regions``
    are exactly the :class:`~repro.core.scan.ScanRegion` objects appended to
    the query's final result for this SOT, in result order.
    """

    query_index: int
    video: str
    sot_index: int
    regions: tuple[ScanRegion, ...]


@dataclass(frozen=True)
class QueryDone:
    """Streaming event: every SOT of one query has been served.

    ``result`` is the query's complete :class:`~repro.core.scan.ScanResult`,
    byte-identical to what ``execute_batch`` returns for it.
    """

    query_index: int
    result: ScanResult


#: What an ``execute_batch`` observer receives.
StreamEvent = PartialResult | QueryDone


@dataclass
class _QueryPlan:
    """One query's resolved work: the region requests it implies, per SOT."""

    video: str
    index_seconds: float
    sot_requests: list[tuple[int, ScanPiece]]


@dataclass
class BatchResult:
    """Everything ``execute_batch`` returns.

    ``results`` holds one :class:`~repro.core.scan.ScanResult` per input
    query, in input order; ``stats`` aggregates the decode work of the whole
    batch (warm phase plus any serve-phase misses) without double-counting
    tiles shared between queries, and its hits are the serve phase's only.
    """

    results: list[ScanResult] = field(default_factory=list)
    stats: DecodeStats = field(default_factory=DecodeStats)
    index_seconds: float = 0.0
    #: Decoder time spent warming SOTs and answering queries from them, each
    #: the sum of its per-SOT decode times.
    warm_seconds: float = 0.0
    serve_seconds: float = 0.0

    @property
    def pixels_decoded(self) -> int:
        """Unique decoded-pixel work for the whole batch (the paper's P)."""
        return self.stats.pixels_decoded

    @property
    def tiles_decoded(self) -> int:
        return self.stats.tiles_decoded

    @property
    def pixels_served_from_cache(self) -> int:
        """Pixels handed to queries from the cache rather than re-decoded.

        This counts every serve-phase hit, including hits on tiles this very
        batch warmed — it is cache traffic, not net savings.  The work saved
        versus sequential execution is the sequential path's pixel count
        minus :attr:`pixels_decoded`.
        """
        return self.stats.pixels_served_from_cache

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.stats.cache_hits + self.stats.cache_misses
        return self.stats.cache_hits / lookups if lookups else 0.0

    @property
    def total_seconds(self) -> float:
        return self.index_seconds + self.warm_seconds + self.serve_seconds

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ScanResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> ScanResult:
        return self.results[index]


class QueryExecutor:
    """Executes queries against a TASM instance, sharing decoded tiles."""

    def __init__(self, tasm: "TASM"):
        self._tasm = tasm

    # ------------------------------------------------------------------
    # Single-query execution (the Scan path)
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> ScanResult:
        """Execute one query; uses TASM's persistent tile cache when enabled.

        Server-safe: the plan runs under a read lock on the video (so it sees
        a consistent semantic index) and the decode under read locks on every
        SOT it touches (so a concurrent ``retile_sot`` can never swap a
        bitstream mid-scan).
        """
        locks = self._tasm.locks
        video_held = locks.acquire_read([(query.video, VIDEO_LEVEL)])
        sot_held: list = []
        try:
            # The video-level key only guards the index read during planning;
            # release it before decoding so a pending metadata write stalls
            # new planners, not this whole scan.
            try:
                plan = self._plan(query)
                sot_held = locks.acquire_read(
                    (plan.video, sot_index) for sot_index, _ in plan.sot_requests
                )
            finally:
                locks.release_read(video_held)
            return self._serve(plan)
        finally:
            locks.release_read(sot_held)

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        queries: Sequence[Query],
        observer: Callable[[StreamEvent], None] | None = None,
        cancelled: Callable[[int], bool] | None = None,
        skip_sots: "Sequence[object | None] | None" = None,
    ) -> BatchResult:
        """Execute a batch of queries, decoding each needed tile at most once.

        The batch decodes through TASM's decoder.  When TASM has a persistent
        :class:`TileDecodeCache` (configured via
        ``TasmConfig.decode_cache_bytes``) the batch shares it — warm entries
        from earlier scans are reused and survivors stay for later ones.
        Either way a SOT's queries share its warm's own reconstructions.

        The batch is one loop over the ``(video, SOT)`` keys its queries
        touch, ascending, on the calling thread: warm the SOT (decode the
        union of what its queries need), then serve each interested query
        from it.  SOT order is ascending per video, so each query's regions
        accumulate in the order a sequential scan produces.

        ``observer``, when given, receives streaming events: a
        :class:`PartialResult` the moment each SOT's regions for a query are
        assembled (before later SOTs have been decoded) and a
        :class:`QueryDone` once a query's last SOT is served — the hook the
        service layer streams per-SOT results to clients through.  Events for
        one query arrive in result order; a query touching no SOT completes
        immediately after planning.

        Observer threading contract: every event of one ``execute_batch``
        call is emitted synchronously from the thread that made the call, so
        per-batch event order needs no locking.  ``execute_batch`` itself may
        be called from several threads at once (the service layer's
        batch-runner pool does); each call emits only to its own observer,
        but an observer closing over shared state — counters, a stats sink —
        must synchronise that state itself.  An observer that *blocks* (e.g.
        backpressure on a full stream buffer) suspends its batch, including
        the read locks the batch holds; it must be unblockable (the service
        layer's streams drop pushes once a stream reaches terminal state for
        exactly this reason).

        ``cancelled``, when given, is polled with a query's index before work
        is done on its behalf: a query reported cancelled has its remaining
        per-SOT serves skipped (no further observer events fire for it), and
        a SOT *every* interested query has abandoned is neither warmed nor
        served — so an abandoned scan stops consuming decode time within
        roughly one SOT (one GOP at the default layout duration) instead of
        running to completion for nobody.  Its entry in ``results`` holds
        whatever had been assembled before cancellation.

        ``skip_sots``, when given, is a sequence aligned with ``queries``: a
        per-query set of SOT indices to leave out of the plan (None or an
        empty set skips nothing).  This is the resume primitive: a query
        re-submitted by a cluster router that re-dialled its shard passes
        the SOT indices whose chunks were already delivered, and the
        remaining SOTs are planned, decoded, and streamed exactly as
        the uninterrupted run would have ordered them, so the concatenation
        of delivered chunks stays byte-identical to a fault-free run.

        What each query cost is its own ``ScanResult``: ``index_seconds``,
        ``decode_seconds`` (its serves, by the decoder's clock) and
        ``stats`` (its serves' cache hits and misses and what they decoded);
        the ``BatchResult`` adds the warm phase's time, decode work and
        misses.

        Like ``execute``, the batch holds read locks on each touched video
        while planning (released before decoding, so metadata writes only
        serialize against planners) and on every ``(video, SOT)`` it decodes
        for the decode's duration, so concurrent re-tiles serialize against
        it instead of corrupting it.
        """
        tasm = self._tasm
        locks = tasm.locks
        video_held = locks.acquire_read(
            {(query.video, VIDEO_LEVEL) for query in queries}
        )
        try:
            plans = [
                self._plan(query, skip or ())
                for query, skip in zip_longest(queries, skip_sots or ())
            ]
            # Per (video, SOT): which queries want which piece of it.
            members: dict[tuple[str, int], list[tuple[int, ScanPiece]]] = {}
            for plan_index, plan in enumerate(plans):
                for sot_index, piece in plan.sot_requests:
                    members.setdefault((plan.video, sot_index), []).append((plan_index, piece))
            # Decodes happen under read locks on every SOT the batch touches,
            # so no retile can swap a bitstream mid-batch; the video-level
            # keys guard planning only and go back first, so metadata writes
            # need not wait out the decode phase.
            sot_held = locks.acquire_read(members)
        finally:
            locks.release_read(video_held)
        try:
            decoder = tasm._decoder
            batch = BatchResult(
                results=[
                    ScanResult(video=plan.video, index_seconds=plan.index_seconds)
                    for plan in plans
                ],
                index_seconds=sum(plan.index_seconds for plan in plans),
            )
            # How many SOTs each query still waits on; it is done at zero.
            pending_sots = [len(plan.sot_requests) for plan in plans]
            if observer is not None:
                for plan_index, remaining in enumerate(pending_sots):
                    if remaining == 0 and not (cancelled is not None and cancelled(plan_index)):
                        observer(QueryDone(plan_index, batch.results[plan_index]))

            # Each SOT is served right after it is warmed, from what the warm
            # decoded: a cache holding one SOT's working set serves hits
            # however large the batch is (the warm itself skips any SOT too
            # big for the cache).
            for (video, sot_index), group in sorted(members.items()):
                if cancelled is not None and all(cancelled(index) for index, _ in group):
                    for plan_index, _ in group:
                        pending_sots[plan_index] -= 1
                    continue
                encoded = tasm.catalog.get(video).encoded_sot(sot_index)
                # A SOT one query wants is warmed from that query's own piece,
                # so warm and serve share its memoised decode plan; a union of
                # several is planned for this warm only.
                warm = decoder.prefetch_regions(
                    encoded,
                    group[0][1]
                    if len(group) == 1
                    else [request for _, piece in group for request in piece.requests],
                    scope=video,
                )
                # A warm's hits are its serves' to count: it adds only what it
                # decoded and missed.
                batch.stats.merge(replace(warm.stats, cache_hits=0, pixels_served_from_cache=0))
                batch.warm_seconds += warm.elapsed_seconds
                for plan_index, piece in group:
                    pending_sots[plan_index] -= 1
                    if cancelled is not None and cancelled(plan_index):
                        continue
                    result = batch.results[plan_index]
                    regions_before = len(result.regions)
                    decoded = decoder.decode_regions(encoded, piece, video, warm.warmed)
                    self._apply_decoded(result, decoded)
                    batch.serve_seconds += decoded.elapsed_seconds
                    if observer is not None:
                        observer(
                            PartialResult(
                                query_index=plan_index,
                                video=video,
                                sot_index=sot_index,
                                regions=tuple(result.regions[regions_before:]),
                            )
                        )
                        if pending_sots[plan_index] == 0:
                            observer(QueryDone(plan_index, result))
        finally:
            locks.release_read(sot_held)

        # Cache accounting comes from this batch's own decode counters, not a
        # delta of the shared cache's global stats: with a pool of batch
        # runners, concurrent batches interleave their lookups on one cache,
        # and a snapshot delta would attribute other batches' traffic to this
        # one.  (Insertions/evictions are cache-global by nature and are
        # reported by the cache itself, not per batch.)
        for result in batch.results:
            batch.stats.merge(result.stats)
        return batch

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plan(self, query: Query, skip: "set[int] | tuple" = ()) -> _QueryPlan:
        """Resolve a query into per-SOT region requests via the semantic index.

        The plan is assembled, not computed: each SOT of the query's window
        (but those in ``skip``, which are not even looked up) contributes the
        :class:`~repro.video.decoder.ScanPiece` that
        :meth:`TASM._scan_piece <repro.core.tasm.TASM._scan_piece>` memoises
        for ``(predicate, window clipped to the SOT)`` until the index is
        written in that SOT's frames.  ``index_seconds`` times the whole
        walk — on a miss that is the index lookup and the request building,
        on a hit one generation read per SOT.
        """
        tasm = self._tasm
        tiled = tasm.catalog.get(query.video)
        frame_start, frame_stop = query.temporal.resolve(tiled.video.frame_count)
        index_started = time.perf_counter()
        sot_requests = []
        for sot_index in tiled.sots_for_frames(frame_start, frame_stop):
            if sot_index in skip:
                continue
            piece = tasm._scan_piece(tiled, sot_index, query.predicate, frame_start, frame_stop)
            if piece.requests:
                sot_requests.append((sot_index, piece))
        return _QueryPlan(
            video=query.video,
            index_seconds=time.perf_counter() - index_started,
            sot_requests=sot_requests,
        )

    def _serve(self, plan: _QueryPlan) -> ScanResult:
        """Answer one planned query — the paper's per-SOT decode loop."""
        result = ScanResult(video=plan.video, index_seconds=plan.index_seconds)
        if not plan.sot_requests:
            return result
        tiled, decoder = self._tasm.catalog.get(plan.video), self._tasm._decoder
        for sot_index, piece in plan.sot_requests:
            encoded = tiled.encoded_sot(sot_index)
            decoded = decoder.decode_regions(encoded, piece, scope=plan.video)
            self._apply_decoded(result, decoded)
        return result

    @staticmethod
    def _apply_decoded(result: ScanResult, decoded: DecodeResult) -> None:
        """Merge one SOT's decode output into a query's ScanResult.

        The decoder's regions are the scan's regions (``ScanRegion`` is
        ``DecodedRegion``), so nothing is rebuilt per region; the single-query
        path and the batched serve phase both come through here, which is what
        keeps their outputs byte-identical.  ``decode_seconds`` is the sum of
        the decoder's own clock over the SOTs served, on either path.
        """
        result.stats.merge(decoded.stats)
        result.regions.extend(decoded.regions)
        result.decode_seconds += decoded.elapsed_seconds
