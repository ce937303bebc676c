"""TASM — the tile-based storage manager (Section 3).

This class ties the pieces together: the video catalog (physical, tiled
storage), the semantic index (labelled bounding boxes), the tile partitioner
(layout generation), the cost model (layout evaluation), and the decoder
(query execution).  It exposes the paper's access-method API:

* ``scan(video, L, T)`` — return the pixels satisfying a label predicate and
  an optional temporal predicate, decoding only the tiles that contain them.
* ``add_metadata(video, frame, label, x1, y1, x2, y2)`` — incorporate a
  bounding box produced during query processing into the semantic index.

plus the layout-management operations the tiling strategies of Section 4 are
built from (``layout_around``, ``retile_sot``, ``optimize_for_workload``).

Query execution routes through the batched, cache-aware engine in
``repro.exec``: ``scan``/``execute`` run one query through it (identical to
the paper's behaviour when the decode cache is disabled, the default), and
``execute_batch`` runs many queries while decoding each needed tile at most
once.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

from ..concurrency import SotLockRegistry
from ..config import DEFAULT_CONFIG, TasmConfig
from ..detection.base import Detection
from ..geometry import BoundingBox, Rectangle
from ..index import BTreeSemanticIndex, IndexEntry
from ..storage.catalog import VideoCatalog
from ..storage.tiled_video import RetileRecord, TiledVideo
from ..tiles.layout import TileLayout, untiled_layout
from ..tiles.partitioner import TileGranularity, partition_around_boxes
from ..video.codec import Handover
from ..video.decoder import RegionRequest, ScanPiece, VideoDecoder
from ..video.video import Video
from .cost import CostEstimate, CostModel
from .predicates import LabelPredicate, TemporalPredicate
from .query import Query, Workload
from .scan import ScanResult

if TYPE_CHECKING:
    from ..exec.cache import TileDecodeCache
    from ..exec.engine import BatchResult, QueryExecutor

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
#: pieces is 75 MB.)
_MEMOISED_SCAN_REGIONS = 16_384


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
        self.catalog = VideoCatalog(self.config)
        self.cost_model = CostModel(self.config)
        #: Readers-writer locks keyed on (video, SOT).  Scans take read locks
        #: and the write paths (add_metadata, retile_sot) take write locks, so
        #: a TASM shared across threads — the service layer's deployment —
        #: serializes writes against in-flight scans.  Uncontended acquisition
        #: is cheap enough to leave always-on for the single-caller case.
        self.locks = SotLockRegistry()
        #: The what-if memo: (video, SOT) -> (index generation of the SOT's
        #: frame range, {question: answer}, the TiledVideo the answers are
        #: about); see :meth:`_what_if_answers`.
        self._what_if: dict[tuple[str, int], tuple[int, dict, TiledVideo]] = {}
        self._what_if_lock = threading.Lock()
        #: Every memoised scan piece, oldest first, as (memo key, question,
        #: piece), and the regions they hold; see :meth:`_remember`.
        self._scan_pieces: deque[tuple[tuple[str, int], tuple, ScanPiece]] = deque()
        self._scan_regions = 0
        # Imported lazily: repro.exec imports repro.core for the query and
        # scan-result types, so a module-level import here would be circular.
        from ..exec.cache import TileDecodeCache
        from ..exec.engine import QueryExecutor

        self.tile_cache: "TileDecodeCache | None" = (
            TileDecodeCache(self.config.decode_cache_bytes)
            if self.config.decode_cache_bytes > 0
            else None
        )
        self._decoder = VideoDecoder(self.config.codec, cache=self.tile_cache)
        self._executor: "QueryExecutor" = QueryExecutor(self)

    # ------------------------------------------------------------------
    # Ingest and metadata (Section 3.1 / 3.3)
    # ------------------------------------------------------------------
    def ingest(self, video: Video) -> TiledVideo:
        """Register a raw video; its initial physical layout is untiled."""
        return self.catalog.ingest(video)

    def video(self, name: str) -> TiledVideo:
        return self.catalog.get(name)

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
        self.catalog.get(video_id)  # validate the video exists
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
        self.catalog.get(video_id)
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
        The query runs through the :class:`~repro.exec.engine.QueryExecutor`;
        with ``decode_cache_bytes`` configured, tiles decoded by earlier
        scans are served from the cache instead of re-decoded.
        """
        predicate = self._normalise_predicate(predicate)
        temporal = temporal or TemporalPredicate.everything()
        return self._executor.execute(
            Query(video=video_name, predicate=predicate, temporal=temporal)
        )

    def execute(self, query: Query) -> ScanResult:
        """Execute a :class:`~repro.core.query.Query` object."""
        return self._executor.execute(query)

    def execute_batch(
        self,
        queries: Sequence[Query],
        observer=None,
        cancelled=None,
        skip_sots=None,
    ) -> "BatchResult":
        """Execute a batch of queries, decoding each needed tile at most once.

        Returns a :class:`~repro.exec.engine.BatchResult` whose ``results``
        list holds one :class:`ScanResult` per query (in input order, each
        byte-identical to a sequential ``scan``, its ``index_seconds``,
        ``decode_seconds`` and ``stats`` that query's own) and whose ``stats``
        report the shared decode work and cache behaviour of the batch.  The
        batch runs, SOT by SOT, on the calling thread and starts none.
        ``observer`` receives per-SOT streaming events as results materialise
        (see :class:`~repro.exec.engine.PartialResult`); the service layer
        uses it to stream results to clients before the batch finishes.
        ``cancelled`` (an optional ``plan index -> bool`` probe) lets the
        caller withdraw queries mid-batch; their remaining per-SOT work is
        skipped (see :meth:`repro.exec.engine.QueryExecutor.execute_batch`).
        ``skip_sots`` (a per-query set of SOT indices to leave unplanned,
        aligned with ``queries``) is the resume primitive for interrupted
        streams — see :meth:`repro.exec.engine.QueryExecutor.execute_batch`.
        """
        return self._executor.execute_batch(
            queries, observer=observer, cancelled=cancelled, skip_sots=skip_sots
        )

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

        A what-if question: the answer depends only on ``(SOT, set(O),
        granularity)`` and the index entries in the SOT's frame range, so it
        is memoised until the index is next written in that range — asking
        again costs a generation read and a dict probe, not a partition.
        """
        tiled = self.catalog.get(video_name)
        question = (frozenset(objects), granularity)
        answers = self._what_if_answers(tiled, sot_index)
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
        return layout

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
            tiled = self.catalog.get(video_name)
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

        The other what-if question, memoised like :meth:`layout_around` — but
        what is kept is not the answer: it is a
        :class:`~repro.core.cost.SotCostTable` for ``(predicate, L)``, made
        from the predicate's whole-SOT scan piece (:meth:`_scan_piece`), and
        the query's frame range clipped to the SOT is read off it.  So a
        window never asked about before costs what a repeated one does: no
        index lookup, no box spanned over ``L``.  ``layout=None`` means the
        SOT's current layout, resolved before the memo is asked, so a re-tile
        needs no invalidation.
        """
        tiled = self.catalog.get(video_name)
        frame_start, frame_stop = tiled.frame_range(sot_index)
        query_start, query_stop = query.temporal.resolve(tiled.video.frame_count)
        start = max(frame_start, query_start)
        stop = min(frame_stop, query_stop)
        if stop <= start:
            return CostEstimate(0, 0, 0.0)
        if layout is None:
            layout = tiled.layout_for(sot_index)
        question = (query.predicate, layout)
        answers = self._what_if_answers(tiled, sot_index)
        table = answers.get(question)
        if table is None:
            whole = self._scan_piece(tiled, sot_index, query.predicate, frame_start, frame_stop)
            table = self.cost_model.sot_cost_table(
                layout, ([request.region for request in frame] for frame in whole.frames())
            )
            self._remember(answers, question, table)
        return self.cost_model.window_cost(table, start - frame_start, stop - frame_start)

    def estimate_untiled_sot_query_cost(
        self, video_name: str, sot_index: int, query: Query
    ) -> CostEstimate:
        tiled = self.catalog.get(video_name)
        return self.estimate_sot_query_cost(
            video_name,
            sot_index,
            query,
            untiled_layout(tiled.video.width, tiled.video.height),
        )

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
        tiled = self.catalog.get(video_name)
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
                tiled_cost = tiled_cost + self.estimate_sot_query_cost(
                    video_name, sot_index, query, layout
                )
                untiled_cost = untiled_cost + self.estimate_untiled_sot_query_cost(
                    video_name, sot_index, query
                )
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
        that preceded it, and the next call drops it.  (A video removed from
        the catalog and ingested again under its name is a different
        ``tiled``, so its predecessor's answers go the same way.)

        Three kinds of question share a SOT's answers, and only the third has
        a frame window in it:

        * ``(labels, granularity)`` — :meth:`layout_around`'s layout;
        * ``(predicate, layout)`` — the :class:`~repro.core.cost.SotCostTable`
          that :meth:`estimate_sot_query_cost` reads every window's cost off;
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
        if slot is None or slot[0] != generation or slot[2] is not tiled:
            slot = self._what_if[key] = (generation, {}, tiled)
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
