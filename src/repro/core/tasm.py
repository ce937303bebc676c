"""TASM — the tile-based storage manager (Section 3).

This one object ties the pieces together: the videos it has ingested (their
physical, tiled storage, looked up by name), the semantic index (labelled
bounding boxes), the tile partitioner (layout generation), the cost model
(layout evaluation), and the decoder with its optional decode cache (query
execution).  It exposes the paper's access-method API:

* ``scan(video, L, T)`` — return the pixels satisfying a label predicate and
  an optional temporal predicate, decoding only the tiles that contain them.
* ``add_metadata(video, frame, label, x1, y1, x2, y2)`` — incorporate a
  bounding box produced during query processing into the semantic index.

plus the layout-management operations the tiling strategies of Section 4 are
built from (``layout_around``, ``retile_sot``, ``optimize_for_workload``).

Every scan has one entry point: ``scan`` builds a :class:`Query` and runs it
through ``execute`` (identical to the paper's behaviour when the decode cache
is disabled, the default).  ``execute_batch`` runs many queries while
decoding each needed tile at most once per batch; the types it returns and
streams are in :mod:`repro.exec.engine`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Callable, Iterable, Sequence

from ..concurrency import VIDEO_LEVEL, SotLockRegistry
from ..config import DEFAULT_CONFIG, TasmConfig
from ..detection.base import Detection
from ..errors import StorageError, UnknownVideoError
from ..exec.cache import TileDecodeCache
from ..exec.engine import BatchResult, PartialResult, QueryDone, StreamEvent
from ..geometry import BoundingBox, Rectangle
from ..index import BTreeSemanticIndex, IndexEntry
from ..storage.tiled_video import RetileRecord, TiledVideo
from ..tiles.layout import TileLayout
from ..tiles.partitioner import TileGranularity, partition_around_boxes
from ..video.codec import Handover
from ..video.decoder import DecodeResult, RegionRequest, ScanPiece, VideoDecoder
from ..video.video import Video
from .cost import CostEstimate, CostModel
from .predicates import LabelPredicate, TemporalPredicate
from .query import Query, Workload
from .scan import ScanResult

__all__ = ["TASM"]

#: What-if answers kept per SOT between two index writes to it; past this the
#: oldest goes.  With k labels seen, a regret step asks a SOT 2^k - 1 layouts
#: and, per predicate, 2^k + 1 cost tables (current, untiled, each candidate):
#: 16 answers per predicate at k = 3, whatever windows the queries have.  What
#: a window adds is its scan piece, one per distinct (predicate, window).
_WHAT_IF_ANSWERS_PER_SOT = 256
#: Regions kept in memoised scan pieces, over all SOTs together (a piece counts
#: at least one); past this the oldest piece goes.  A region is its
#: ``RegionRequest`` and its decode-plan entry with two slices — 370 bytes
#: measured on W3, about 0.5 KB when a conjunction's intersection brings its
#: own ``Rectangle`` — so the pieces hold 8 MB at most, four times W3's 200
#: queries.  That is the price of a region in a whole-SOT piece; a window's
#: piece shares those objects and pays two references a region, but counts the
#: same.  (A bound on answers would not do: 256 answers x 20 SOTs of 30-region
#: pieces is 75 MB.)  The decode cache's region memo holds pieces weakly, so
#: this bounds it too: a warm piece's regions there cost about 230 bytes a
#: region (the region and its view; the frames are the cache's), 3.8 MB at most.
_MEMOISED_SCAN_REGIONS = 16_384


@dataclass
class _QueryPlan:
    """One query's resolved work: the region requests it implies, per SOT."""

    video: str
    index_seconds: float
    sot_requests: list[tuple[int, ScanPiece]]


class TASM:
    """The tile-based storage manager."""

    def __init__(
        self,
        config: TasmConfig | None = None,
        semantic_index: BTreeSemanticIndex | None = None,
    ):
        self.config = config or DEFAULT_CONFIG
        self.semantic_index = (
            semantic_index if semantic_index is not None else BTreeSemanticIndex()
        )
        #: Every ingested video's physical form, by name.
        self._videos: dict[str, TiledVideo] = {}
        self.cost_model = CostModel(self.config)
        #: Readers-writer locks keyed on (video, SOT).  Scans take read locks
        #: and the write paths (add_metadata, retile_sot) take write locks, so
        #: a TASM shared across threads — the service layer's deployment —
        #: serializes writes against in-flight scans.  Uncontended acquisition
        #: is cheap enough to leave always-on for the single-caller case.
        self.locks = SotLockRegistry()
        #: The what-if memo: (video, SOT) -> (index generation of the SOT's
        #: frame range, {question: answer}); see :meth:`_what_if_answers`.
        self._what_if: dict[tuple[str, int], tuple[int, dict]] = {}
        self._what_if_lock = threading.Lock()
        #: Every memoised scan piece, oldest first, as (memo key, question,
        #: piece), and the regions they hold; see :meth:`_remember`.
        self._scan_pieces: deque[tuple[tuple[str, int], tuple, ScanPiece]] = deque()
        self._scan_regions = 0
        self.tile_cache: TileDecodeCache | None = (
            TileDecodeCache(self.config.decode_cache_bytes)
            if self.config.decode_cache_bytes > 0
            else None
        )
        self._decoder = VideoDecoder(self.config.codec, cache=self.tile_cache)

    # ------------------------------------------------------------------
    # Ingest and metadata (Section 3.1 / 3.3)
    # ------------------------------------------------------------------
    def ingest(self, video: Video) -> TiledVideo:
        """Register a raw video; its initial physical layout is untiled.

        Names are unique: a second ingest under a name raises
        :class:`~repro.errors.StorageError`.
        """
        if video.name in self._videos:
            raise StorageError(
                f"video {video.name!r} has already been ingested; names must be unique"
            )
        tiled = self._videos[video.name] = TiledVideo(video=video, config=self.config)
        return tiled

    def video(self, name: str) -> TiledVideo:
        """The ingested video ``name``; every operation on a video starts here."""
        tiled = self._videos.get(name)
        if tiled is None:
            raise UnknownVideoError(f"video {name!r} has not been ingested")
        return tiled

    def add_metadata(
        self,
        video_id: str,
        frame: int,
        label: str,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        confidence: float = 1.0,
    ) -> None:
        """The paper's ``AddMetadata`` call: one labelled box on one frame.

        Server-safe: the index write holds the video's write lock, so it
        serializes against the planning phase of in-flight scans.
        """
        self.video(video_id)  # validate the video exists
        with self.locks.write_video(video_id):
            self.semantic_index.add(
                IndexEntry(
                    video=video_id,
                    label=label,
                    frame_index=frame,
                    box=BoundingBox(x1, y1, x2, y2),
                    confidence=confidence,
                )
            )

    def add_detections(self, video_id: str, detections: Iterable[Detection]) -> int:
        """Bulk AddMetadata — the path query processors and detectors use."""
        self.video(video_id)
        with self.locks.write_video(video_id):
            return self.semantic_index.add_detections(video_id, detections)

    # ------------------------------------------------------------------
    # Scan (Section 3.1)
    # ------------------------------------------------------------------
    def scan(
        self,
        video_name: str,
        predicate: LabelPredicate | str | Sequence[str],
        temporal: TemporalPredicate | None = None,
    ) -> ScanResult:
        """Return the pixels satisfying ``predicate`` within ``temporal``.

        The index lookup finds the matching boxes and the tiles containing
        them; the decoder then decodes only those tiles.  Index time and
        decode time are reported separately, as in the paper's evaluation.
        The query runs through :meth:`execute`, the one entry point of every
        scan; with ``decode_cache_bytes`` configured, tiles decoded by earlier
        scans are served from the cache instead of re-decoded.
        """
        predicate = self._normalise_predicate(predicate)
        temporal = temporal or TemporalPredicate.everything()
        return self.execute(Query(video=video_name, predicate=predicate, temporal=temporal))

    def execute(self, query: Query) -> ScanResult:
        """Execute one :class:`~repro.core.query.Query` — the paper's Scan.

        Uses TASM's persistent tile cache when enabled.  Server-safe: the plan
        runs under a read lock on the video (so it sees a consistent semantic
        index) and the decode under read locks on every SOT it touches (so a
        concurrent ``retile_sot`` can never swap a bitstream mid-scan).
        """
        locks = self.locks
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

    def execute_batch(
        self,
        queries: Sequence[Query],
        observer: Callable[[StreamEvent], None] | None = None,
        cancelled: Callable[[int], bool] | None = None,
        skip_sots: Sequence[object | None] | None = None,
    ) -> BatchResult:
        """Execute a batch of queries, decoding each needed tile at most once.

        Returns a :class:`~repro.exec.engine.BatchResult` whose ``results``
        list holds one :class:`ScanResult` per query, in input order, each
        byte-identical to a sequential ``scan``.  What each query cost is its
        own ``ScanResult``: ``index_seconds``, ``decode_seconds`` (its serves,
        by the decoder's clock) and ``stats`` (its serves' cache hits and
        misses and what they decoded); the ``BatchResult`` adds the warm
        phase's time, decode work and misses.

        The batch decodes through TASM's decoder.  When TASM has a persistent
        :class:`~repro.exec.cache.TileDecodeCache` (configured via
        ``TasmConfig.decode_cache_bytes``) the batch shares it — warm entries
        from earlier scans are reused and survivors stay for later ones.
        Either way a SOT's queries share its warm's own reconstructions.  A
        tile is decoded at most once per batch, but with a cache that evicts
        a batch can decode more than its queries run one at a time: a warm
        puts its SOT's whole union, which can push out entries a later batch
        reads (1.029x the sequential pixels on the W3 scene, batches of 8,
        cache at half the working set; see :mod:`repro.exec.engine`).

        The batch is one loop over the ``(video, SOT)`` keys its queries
        touch, ascending, on the calling thread, and starts no thread: warm
        the SOT (decode the union of what its queries need), then serve each
        interested query from it.  SOT order is ascending per video, so each
        query's regions accumulate in the order a sequential scan produces.

        ``observer``, when given, receives streaming events: a
        :class:`~repro.exec.engine.PartialResult` the moment each SOT's
        regions for a query are assembled (before later SOTs have been
        decoded) and a :class:`~repro.exec.engine.QueryDone` once a query's
        last SOT is served — the hook the service layer streams per-SOT
        results to clients through.  Events for one query arrive in result
        order; a query touching no SOT completes immediately after planning.

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

        Like ``execute``, the batch holds read locks on each touched video
        while planning (released before decoding, so metadata writes only
        serialize against planners) and on every ``(video, SOT)`` it decodes
        for the decode's duration, so concurrent re-tiles serialize against
        it instead of corrupting it.
        """
        locks = self.locks
        video_held = locks.acquire_read({(query.video, VIDEO_LEVEL) for query in queries})
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
            decoder = self._decoder
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
                encoded = self.video(video).encoded_sot(sot_index)
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
                    decoded = decoder.decode_regions(encoded, piece, video, warm.warmed)
                    self._apply_decoded(result, decoded)
                    batch.serve_seconds += decoded.elapsed_seconds
                    if observer is not None:
                        observer(
                            PartialResult(
                                query_index=plan_index,
                                video=video,
                                sot_index=sot_index,
                                regions=decoded.memoised or tuple(decoded.regions),
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

    def _plan(self, query: Query, skip: set[int] | tuple = ()) -> _QueryPlan:
        """Resolve a query into per-SOT region requests via the semantic index.

        The plan is assembled, not computed: each SOT of the query's window
        (but those in ``skip``, which are not even looked up) contributes the
        :class:`~repro.video.decoder.ScanPiece` that :meth:`_scan_piece`
        memoises for ``(predicate, window clipped to the SOT)`` until the
        index is written in that SOT's frames.  ``index_seconds`` times the
        whole walk — on a miss that is the index lookup and the request
        building, on a hit one generation read per SOT.
        """
        tiled = self.video(query.video)
        frame_start, frame_stop = query.temporal.resolve(tiled.video.frame_count)
        index_started = time.perf_counter()
        sot_requests = []
        for sot_index in tiled.sots_for_frames(frame_start, frame_stop):
            if sot_index in skip:
                continue
            piece = self._scan_piece(tiled, sot_index, query.predicate, frame_start, frame_stop)
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
        tiled, decoder = self.video(plan.video), self._decoder
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

    # ------------------------------------------------------------------
    # Layout generation and re-tiling (Section 3.4 / 4.2)
    # ------------------------------------------------------------------
    def boxes_for(
        self,
        video_name: str,
        labels: Iterable[str],
        frame_start: int,
        frame_stop: int,
    ) -> dict[int, list[Rectangle]]:
        """All indexed boxes of the given labels, grouped by frame."""
        grouped: dict[int, list[Rectangle]] = {}
        for label in set(labels):
            for entry in self.semantic_index.lookup(video_name, label, frame_start, frame_stop):
                grouped.setdefault(entry.frame_index, []).append(entry.box)
        return grouped

    def layout_around(
        self,
        video_name: str,
        sot_index: int,
        objects: Iterable[str],
        granularity: TileGranularity = TileGranularity.FINE,
    ) -> TileLayout:
        """``partition(s, O)``: a non-uniform layout around the indexed boxes of O.

        The one-set case of :meth:`layouts_around`.
        """
        return self.layouts_around(video_name, sot_index, [objects], granularity)[0]

    def layouts_around(
        self,
        video_name: str,
        sot_index: int,
        object_sets: Iterable[Iterable[str]],
        granularity: TileGranularity = TileGranularity.FINE,
    ) -> list[TileLayout]:
        """:meth:`layout_around` for each of ``object_sets``, in order.

        A what-if question: the answer depends only on ``(SOT, set(O),
        granularity)`` and the index entries in the SOT's frame range, so it
        is memoised until the index is next written in that range.  The memo
        is read once for the whole list, so asking again costs one
        generation read and a dict probe per set, not a partition.
        """
        tiled = self.video(video_name)
        answers = self._what_if_answers(tiled, sot_index)
        layouts = []
        for objects in object_sets:
            question = (frozenset(objects), granularity)
            layout = answers.get(question)
            if layout is None:
                grouped = self.boxes_for(video_name, question[0], *tiled.frame_range(sot_index))
                layout = partition_around_boxes(
                    [box for frame_boxes in grouped.values() for box in frame_boxes],
                    frame_width=tiled.video.width,
                    frame_height=tiled.video.height,
                    granularity=granularity,
                    codec=self.config.codec,
                )
                self._remember(answers, question, layout)
            layouts.append(layout)
        return layouts

    def retile_sot(self, video_name: str, sot_index: int, layout: TileLayout) -> RetileRecord:
        """Re-encode one SOT with a new layout (the physical re-organisation).

        A stored SOT is transcoded from its own tiles; a tile the cache holds
        is not decoded again for it, only resumed past the frames held.  Any
        tile decodes cached for the superseded encoding are then invalidated —
        a scan after a re-tile can never be served stale pixels.  What they
        covered stays resident all the same: the encoder reconstructs every
        frame it predicts from, so for the area the cache held — and no other
        — its reconstructions are kept and, once the old entries are gone,
        put under the new tiles' checksums, their read counts starting
        afresh.  A new tile that an indexed box (of any label) touches on some
        frame of its GOP goes in like any first put; one no box touches, which
        no scan decodes until the index grows, is demoted below every other
        entry, so under cache pressure it goes first instead of pushing out a
        tile a scan reads (on the ledger's ``adaptive_retile``, 403,046 →
        373,555 pixels decoded per op under LRU).
        Server-safe: the re-encode holds the ``(video, SOT)`` write lock, so
        it waits for in-flight scans reading this SOT to drain and blocks new
        ones until the new encoding, the invalidation and the hand-over are in
        place.
        """
        with self.locks.write((video_name, sot_index)):
            tiled = self.video(video_name)
            handover = self._resident(tiled, sot_index)
            record = tiled.retile(sot_index, layout, handover)
            # The one invalidation of a re-tile.  It runs even when
            # ``tiled.retile`` kept the layout it had and re-encoded nothing.
            if self.tile_cache is not None:
                self.tile_cache.invalidate_sot(video_name, sot_index)
            if handover is not None and handover.frames:
                touched = self._touched_tiles(tiled, sot_index, layout)
                for at, (frames, token) in handover.frames.items():
                    key = (video_name, sot_index, *at)
                    self.tile_cache.put(key, frames, token)
                    if at not in touched:
                        self.tile_cache.demote(key)
        return record

    def _touched_tiles(self, tiled: TiledVideo, sot_index: int, layout: TileLayout) -> set:
        """``(GOP first frame, tile index)`` of each tile of ``layout`` that an
        indexed box of any label touches on some frame of that GOP: the only
        tiles of it a scan can decode."""
        labels = self.semantic_index.labels(tiled.name)
        touched = set()
        for gop in tiled.encoded_sot(sot_index).gops:
            stop = gop.frame_start + gop.frame_count
            for boxes in self.boxes_for(tiled.name, labels, gop.frame_start, stop).values():
                for box in boxes:
                    touched.update((gop.frame_start, tile) for tile in layout.tiles_intersecting(box))
        return touched

    def _resident(self, tiled: TiledVideo, sot_index: int) -> Handover | None:
        """What the cache holds of a SOT's current encoding, GOP by GOP and
        tile by tile, as the re-encode's
        :class:`~repro.video.codec.Handover`; None when that is nothing, and
        the re-encode then reads every tile from storage and keeps nothing.
        (``TileDecodeCache.held`` is not a read: it moves no count.)"""
        if self.tile_cache is None or not tiled.is_materialised(sot_index):
            return None
        held: dict[int, dict[Rectangle, list]] = {}
        for gop in tiled.encoded_sot(sot_index).gops:
            for tile_index, tile in enumerate(gop.tiles):
                key = (tiled.name, sot_index, gop.frame_start, tile_index)
                frames = self.tile_cache.held(key, tile.checksums)
                if frames:
                    held.setdefault(gop.frame_start, {})[tile.region] = frames
        return Handover(held) if held else None

    # ------------------------------------------------------------------
    # Cost estimation (Section 4.1)
    # ------------------------------------------------------------------
    def estimate_sot_query_cost(
        self,
        video_name: str,
        sot_index: int,
        query: Query,
        layout: TileLayout | None = None,
    ) -> CostEstimate:
        """Estimated C(s, q, L) for one SOT, using the semantic index for boxes.

        The one-layout case of :meth:`estimate_sot_query_costs`;
        ``layout=None`` means the SOT's current layout.
        """
        return self.estimate_sot_query_costs(video_name, sot_index, query, [layout])[0]

    def estimate_sot_query_costs(
        self,
        video_name: str,
        sot_index: int,
        query: Query,
        layouts: Iterable[TileLayout | None],
    ) -> list[CostEstimate]:
        """C(s, q, L) for each of ``layouts``, in order; a ``None`` is the
        SOT's current layout, resolved before the memo is asked, so a re-tile
        needs no invalidation.

        The other what-if question, memoised like :meth:`layouts_around` — but
        what is kept is not the answer: it is a
        :class:`~repro.core.cost.SotCostTable` for ``(predicate, L)``, made
        from the predicate's whole-SOT scan piece (:meth:`_scan_piece`), and
        the query's frame range clipped to the SOT is read off it.  So a
        window never asked about before costs what a repeated one does: no
        index lookup, no box spanned over ``L``.  The video, the window and
        the memo are read once for the whole list: pricing every alternative
        of a SOT is one generation read and a table probe per layout.
        """
        tiled = self.video(video_name)
        frame_start, frame_stop = tiled.frame_range(sot_index)
        query_start, query_stop = query.temporal.resolve(tiled.video.frame_count)
        first = max(frame_start, query_start) - frame_start
        last = min(frame_stop, query_stop) - frame_start
        if last <= first:
            return [CostEstimate(0, 0, 0.0) for _ in layouts]
        answers = self._what_if_answers(tiled, sot_index)
        estimates = []
        for layout in layouts:
            if layout is None:
                layout = tiled.layout_for(sot_index)
            question = (query.predicate, layout)
            table = answers.get(question)
            if table is None:
                whole = self._scan_piece(tiled, sot_index, query.predicate, frame_start, frame_stop)
                table = self.cost_model.sot_cost_table(
                    layout, ([request.region for request in frame] for frame in whole.frames())
                )
                self._remember(answers, question, table)
            estimates.append(self.cost_model.window_cost(table, first, last))
        return estimates

    # ------------------------------------------------------------------
    # The known-query / known-object optimisation (Section 4.2)
    # ------------------------------------------------------------------
    def optimize_for_workload(
        self,
        video_name: str,
        workload: Workload,
        granularity: TileGranularity = TileGranularity.FINE,
        apply: bool = True,
    ) -> dict[int, TileLayout]:
        """KQKO: pick (and optionally apply) per-SOT layouts for a known workload.

        For every SOT, TASM considers the fine-grained non-uniform layout
        around the objects the workload targets in that SOT, applies the alpha
        usefulness rule, and keeps the layout only when it reduces decode work
        for the workload.  Returns the chosen layouts per SOT index.
        """
        tiled = self.video(video_name)
        relevant = workload.for_video(video_name)
        chosen: dict[int, TileLayout] = {}
        for sot_index in range(tiled.sot_count):
            frame_start, frame_stop = tiled.frame_range(sot_index)
            sot_queries = [
                query
                for query in relevant
                if self._query_overlaps(query, tiled.video.frame_count, frame_start, frame_stop)
            ]
            if not sot_queries:
                continue
            objects = set()
            for query in sot_queries:
                objects.update(query.objects)
            layout = self.layout_around(video_name, sot_index, objects, granularity)
            if layout.is_untiled:
                continue
            tiled_cost = CostEstimate(0, 0, 0.0)
            untiled_cost = CostEstimate(0, 0, 0.0)
            for query in sot_queries:
                with_layout, without = self.estimate_sot_query_costs(
                    video_name, sot_index, query, [layout, tiled.untiled_layout]
                )
                tiled_cost, untiled_cost = tiled_cost + with_layout, untiled_cost + without
            if not self.cost_model.layout_is_useful(tiled_cost, untiled_cost):
                continue
            chosen[sot_index] = layout
            if apply:
                self.retile_sot(video_name, sot_index, layout)
        return chosen

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _what_if_answers(self, tiled: TiledVideo, sot_index: int) -> dict:
        """The memoised what-if answers about one SOT that are still current.

        An answer is a function of its question and of the index entries in
        the SOT's frame range, so the SOT's answers are dropped together when
        the index's write generation for that range moves.  The generation is
        read here, *before* the caller looks anything up: an index write that
        races the computation leaves the answer filed under the generation
        that preceded it, and the next call drops it.  (A name's
        ``TiledVideo`` is never replaced: ingest refuses a name it knows, and
        nothing removes one.)

        Three kinds of question share a SOT's answers, and only the third has
        a frame window in it:

        * ``(labels, granularity)`` — :meth:`layouts_around`'s layout;
        * ``(predicate, layout)`` — the :class:`~repro.core.cost.SotCostTable`
          that :meth:`estimate_sot_query_costs` reads every window's cost off;
        * ``(predicate, start, stop)`` — the scan path's
          :class:`~repro.video.decoder.ScanPiece` (:meth:`_scan_piece`).  The
          one for the SOT's whole frame range is the predicate's frame table,
          the only answer that takes an index lookup; the other pieces, and
          the cost tables, are made from it.

        A re-tile moves no generation and drops nothing here: a layout is
        part of the first two questions, and a piece re-plans its decode when
        it meets an encoding it was not planned for.  Each SOT keeps
        ``_WHAT_IF_ANSWERS_PER_SOT`` answers; the pieces of all SOTs together
        keep ``_MEMOISED_SCAN_REGIONS`` regions (:meth:`_remember`).
        """
        key = (tiled.name, sot_index)
        generation = self.semantic_index.generation(tiled.name, *tiled.frame_range(sot_index))
        slot = self._what_if.get(key)
        if slot is None or slot[0] != generation:
            slot = self._what_if[key] = (generation, {})
        return slot[1]

    def _scan_piece(
        self, tiled: TiledVideo, sot_index: int, predicate: LabelPredicate, start: int, stop: int
    ) -> ScanPiece:
        """What a scan of ``predicate`` over frames ``[start, stop)`` asks of
        one SOT: its region requests there, by frame and in index order.

        The third what-if question, answered from the same per-SOT memo under
        the same rule: the piece depends only on ``(predicate, the window
        clipped to the SOT)`` and the index entries in the SOT's frames, so a
        repeated scan — or another scan whose window covers this SOT the same
        way — gets the same immutable :class:`ScanPiece` back until the index
        is written there, and planning it costs a generation read and a dict
        probe.  A window not asked before is a slice of the piece of the whole
        SOT, which is the one thing made from an index lookup: one
        :meth:`_regions_by_frame` per SOT, predicate and generation, however
        the windows slide.  Pieces are further bounded, over all SOTs, by
        ``_MEMOISED_SCAN_REGIONS`` (see :meth:`_remember`).
        """
        sot_start, sot_stop = whole = tiled.frame_range(sot_index)
        question = (predicate, max(sot_start, start), min(sot_stop, stop))
        answers = self._what_if_answers(tiled, sot_index)
        piece = answers.get(question)
        if piece is None:
            if question[1:] == whole:
                label = next(iter(predicate.labels)) if predicate.is_single_label else None
                by_frame = self._regions_by_frame(tiled.name, *question)
                requests: list[RegionRequest] = []
                offsets = [0]
                for frame_index in range(sot_start, sot_stop):
                    requests += [
                        RegionRequest(frame_index, region, label)
                        for region in by_frame.get(frame_index, ())
                    ]
                    offsets.append(len(requests))
                piece = ScanPiece(requests, sot_start, offsets)
            else:
                piece = self._scan_piece(tiled, sot_index, predicate, *whole).window(*question[1:])
            self._remember(answers, question, piece, (tiled.name, sot_index))
        return piece

    def _remember(
        self, answers: dict, question: tuple, answer: object, piece_of: tuple | None = None
    ) -> None:
        """File ``answer`` among one SOT's ``answers``, oldest answer out.

        A scan piece (``piece_of`` names its SOT's memo key) also joins the
        queue of all memoised pieces, and the oldest pieces leave — the queue
        and their SOT's answers — until no more than
        ``_MEMOISED_SCAN_REGIONS`` regions are held.  A piece whose SOT's
        answers were dropped meanwhile stays counted until it reaches the
        front, so the count bounds what is kept alive, not only what can
        still be found.
        """
        with self._what_if_lock:  # the evictions iterate; lookups stay lock-free
            if len(answers) >= _WHAT_IF_ANSWERS_PER_SOT:
                del answers[next(iter(answers))]
            answers[question] = answer
            if piece_of is not None:
                self._scan_pieces.append((piece_of, question, answer))
                self._scan_regions += len(answer.requests) or 1
            while self._scan_regions > _MEMOISED_SCAN_REGIONS:
                key, old_question, old = self._scan_pieces.popleft()
                self._scan_regions -= len(old.requests) or 1
                slot = self._what_if.get(key)
                if slot is not None and slot[1].get(old_question) is old:
                    del slot[1][old_question]

    @staticmethod
    def _normalise_predicate(
        predicate: LabelPredicate | str | Sequence[str],
    ) -> LabelPredicate:
        if isinstance(predicate, LabelPredicate):
            return predicate
        if isinstance(predicate, str):
            return LabelPredicate.single(predicate)
        return LabelPredicate.any_of(predicate)

    @staticmethod
    def _query_overlaps(
        query: Query, frame_count: int, frame_start: int, frame_stop: int
    ) -> bool:
        query_start, query_stop = query.temporal.resolve(frame_count)
        return max(query_start, frame_start) < min(query_stop, frame_stop)

    def _regions_by_frame(
        self,
        video_name: str,
        predicate: LabelPredicate,
        frame_start: int,
        frame_stop: int,
    ) -> dict[int, list[Rectangle]]:
        """Evaluate the predicate against the index: frame -> selected regions."""
        boxes_by_frame_and_label: dict[int, dict[str, list[Rectangle]]] = {}
        # Sorted: the order of a scan's regions must be a function of the
        # predicate's value, not of how its frozensets happen to iterate.
        for label in sorted(predicate.labels):
            for entry in self.semantic_index.lookup(video_name, label, frame_start, frame_stop):
                boxes_by_frame_and_label.setdefault(entry.frame_index, {}).setdefault(
                    label, []
                ).append(entry.box)
        regions: dict[int, list[Rectangle]] = {}
        for frame_index, by_label in boxes_by_frame_and_label.items():
            selected = predicate.regions_for_frame(by_label)
            if selected:
                regions[frame_index] = selected
        return regions
