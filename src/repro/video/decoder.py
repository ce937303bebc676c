"""Decode spatial regions of tiled videos and account for the work done.

The decoder honours the two structural constraints of tiled video:

* Spatial: a region can only be recovered by decoding every tile it
  intersects, in full — there is no sub-tile access.
* Temporal: reaching frame *k* of a GOP requires decoding that tile on every
  frame from the keyframe up to *k*.

The returned :class:`~repro.video.codec.DecodeStats` is exactly the
``P`` (pixels) and ``T`` (tiles) of the paper's cost model, so benchmark
measurements and the analytic cost model can be cross-checked.

Which tiles a box touches is :meth:`~repro.tiles.layout.TileLayout.tile_span`'s
answer, here as in the cost model.  That answer, the integer clipping of each
box and, for a box inside one tile, its two slices are the *decode plan*; a
:class:`ScanPiece` keeps the plan of the encoding it was last served from, so
once the tiles are found in the cache a repeated region costs one slice: a
read-only view of the cached frame.  The plan is made once per SOT and
encoding, for the piece that holds all the SOT's requests; the piece of any
window of the SOT is a slice of those requests and its plan a slice of that
plan.

Regions are immutable, so the regions a warm serve of a piece builds are
filed in the decode cache's region memo for that SOT (see
:mod:`repro.exec.cache`): a repeated piece whose tile lookups return the
very frame lists it was built from costs those lookups and one
``list.extend``, and no region is built again.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from operator import is_
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..config import CodecConfig
from ..geometry import Rectangle
from ..tiles.layout import TileLayout
from .codec import DecodeStats, EncodedGop, TileCodec
from .encoder import EncodedSot

if TYPE_CHECKING:  # avoid a package cycle: repro.exec imports repro.video
    from ..exec.cache import TileDecodeCache

__all__ = ["RegionRequest", "ScanPiece", "DecodedRegion", "DecodeResult", "VideoDecoder"]

#: The read-only view a serve that copies no pixel cuts its empty regions from.
_EMPTY = np.frombuffer(b"", np.uint8)


@dataclass(frozen=True)
class RegionRequest:
    """A request for the pixels of one rectangle on one frame."""

    frame_index: int
    region: Rectangle
    label: str | None = None


class _DecodePlan(NamedTuple):
    """What serving a list of requests from one :class:`EncodedSot` takes.

    ``gops`` holds, per GOP touched and in GOP order, ``(GOP number, {tile
    index: depth to decode it to}, served)``; a ``served`` entry is
    ``(request, offset into the GOP, tile index, row slice, column slice)``
    for a box inside one tile and ``(request, offset, None, tile span,
    integer-clipped box)`` otherwise.  GOPs are named by number so that a
    plan outliving its encoding keeps none of its bitstreams alive.
    """

    gops: tuple[tuple[int, dict[int, int], tuple[tuple, ...]], ...]
    #: Bytes of every touched tile decoded to its depth (what prefetch needs).
    working_set_bytes: int
    #: Pixels of every region, and of the regions that span several tiles:
    #: what a serve copies without a cache, and with one.
    region_pixels: int
    spanning_pixels: int


class ScanPiece:
    """One scan's requests against one SOT, by frame and within a frame in
    index order — immutable, so it can be memoised and handed to every scan
    that asks the same question.

    The piece of a whole SOT is its predicate's *frame table*: given
    ``frame_offsets`` (where each of the SOT's frames starts in ``requests``,
    and one past the last), :meth:`window` answers any frame window of the SOT
    with a slice.  A piece carries the decode plan of the :class:`EncodedSot`
    it was last served from.  The plan is checked by the encoding's identity:
    a re-tile installs a new ``EncodedSot``, whose first serve re-plans once —
    a window by slicing the plan of the piece it was cut from, while that
    piece lives (it is held weakly: a window keeps alive only what it counts).
    """

    __slots__ = ("requests", "_frame_start", "_frame_offsets", "_cut_from", "_planned", "__weakref__")

    def __init__(
        self,
        requests: Iterable[RegionRequest],
        frame_start: int = 0,
        frame_offsets: Sequence[int] = (),
        cut_from: "tuple[weakref.ref, int, int] | None" = None,
    ):
        self.requests = tuple(requests)
        self._frame_start, self._frame_offsets = frame_start, frame_offsets
        #: (the whole-SOT piece, first, last): ``requests`` is its ``[first:last]``.
        self._cut_from = cut_from
        self._planned: tuple[weakref.ref, _DecodePlan] | None = None

    def frames(self) -> Iterator[tuple[RegionRequest, ...]]:
        """The requests of each frame the offsets cover, frame by frame."""
        offsets = self._frame_offsets
        return (self.requests[first:last] for first, last in zip(offsets, offsets[1:]))

    def window(self, frame_start: int, frame_stop: int) -> "ScanPiece":
        """The piece of frames ``[frame_start, frame_stop)`` of this SOT."""
        first = self._frame_offsets[frame_start - self._frame_start]
        last = self._frame_offsets[frame_stop - self._frame_start]
        return ScanPiece(self.requests[first:last], cut_from=(weakref.ref(self), first, last))


@dataclass(frozen=True, slots=True)
class DecodedRegion:
    """The pixels recovered for one request.

    A region is immutable: assigning a field raises
    ``dataclasses.FrozenInstanceError``.  So one region object may appear in
    several results — a warm scan that repeats a piece hands back the very
    regions the decode cache memoised for it (see
    :mod:`repro.exec.cache`) — while each result's ``regions`` is a list of
    its own.  ``pixels`` is read-only, and cannot be made writable again:
    writing into it raises ``ValueError``, and so does setting
    ``flags.writeable``.  With a decode cache, a box inside one tile is a view
    of the cached frame — no copy — and stays valid after the cache evicts
    the frame or a re-tile invalidates it.  A known limit: a view keeps its
    whole base array alive, and a frame ``TileCodec.decode_tile`` made is one
    row of the ``(n, h, w)`` block that call decoded, so such a region keeps
    that whole block alive, not one frame (a re-tile hand-over's frames are
    one array each).  100 kept W3 results, with the cache at a third of the
    working set, held 10,083,840 B of blocks for 1,867,712 B returned;
    ROADMAP.md's item 16 tracks the fix.  Every other region is a view of one
    buffer per decoded SOT that holds only the SOT's returned pixels, so it
    keeps no decoded tile alive.  ``np.array(region.pixels)`` is a writable copy.
    """

    frame_index: int
    region: Rectangle
    pixels: np.ndarray
    label: str | None = None

    @property
    def pixel_count(self) -> int:
        return int(self.pixels.size)


class _Writable:
    """:class:`DecodedRegion`'s slots, writable: :func:`make_region` fills
    one and re-classes it, which the two classes' identical slots allow."""

    __slots__ = DecodedRegion.__slots__


_new = object.__new__


def make_region(
    frame_index: int, region: Rectangle, pixels: np.ndarray, label: str | None
) -> DecodedRegion:
    """``DecodedRegion(frame_index, region, pixels, label)`` without the
    frozen ``__init__``'s ``object.__setattr__`` per field: 0.24 us a region
    against 0.65 us (CPython 3.11, a 2-vCPU VM), where the scan path and the
    wire build one per box."""
    made = _new(_Writable)
    made.frame_index = frame_index
    made.region = region
    made.pixels = pixels
    made.label = label
    made.__class__ = DecodedRegion
    return made


@dataclass
class DecodeResult:
    """All regions decoded for a scan over one or more SOTs."""

    regions: list[DecodedRegion] = field(default_factory=list)
    stats: DecodeStats = field(default_factory=DecodeStats)
    elapsed_seconds: float = 0.0
    #: A warm's reconstructions by cache key (see ``prefetch_regions``).
    warmed: dict = field(default_factory=dict)
    #: ``regions`` as the region memo holds them, when they are what it filed
    #: (a :class:`~repro.exec.cache.MemoisedRegions`): a serving layer sends them
    #: from their wire form.
    memoised: tuple | None = None


def _same_lists(held: list, looked_up: list) -> bool:
    """Whether two lists hold the very same objects, in order."""
    return len(held) == len(looked_up) and all(map(is_, held, looked_up))


class VideoDecoder:
    """Decodes regions out of encoded SOTs.

    When constructed with a :class:`~repro.exec.cache.TileDecodeCache`, the
    decoder consults it before opening a tile bitstream and stores every
    reconstruction it produces: repeated scans over the same tiles become
    cache hits that add nothing to the P/T decode-work counters, and a deeper
    scan decodes only the frames past the ones held.  Cache keys
    are namespaced by ``scope`` (the video name), which callers must supply
    for caching to engage — decodes without a scope behave exactly like the
    cacheless decoder.
    """

    def __init__(
        self,
        codec_config: CodecConfig | None = None,
        cache: "TileDecodeCache | None" = None,
    ):
        self.codec_config = codec_config or CodecConfig()
        self.cache = cache
        self._codec = TileCodec(self.codec_config)

    # ------------------------------------------------------------------
    # Region decoding (the Scan path)
    # ------------------------------------------------------------------
    def decode_regions(
        self,
        sot: EncodedSot,
        requests: "list[RegionRequest] | ScanPiece",
        scope: str | None = None,
        warmed: dict | None = None,
    ) -> DecodeResult:
        """Decode the pixels of every requested region from one SOT.

        Requests are grouped by GOP, then by tile: each (GOP, tile) bitstream
        is decoded at most once, up to the latest frame any request needs, and
        every request is served from those reconstructions.  Given a
        :class:`ScanPiece` that was last served from this very ``sot``, the
        grouping, the tile spans and the box clipping are the piece's own
        (see :meth:`_plan_for`): what is left is finding the tiles and one
        ``raster[rows, columns]`` view per one-tile box.  ``warmed`` is the
        :meth:`prefetch_regions` result of this SOT, whose frames serve a tile
        the cache let go since.

        With a cache (and a ``scope``), a one-tile box is that view of the
        read-only cached frame.  Every other region — every region without a
        cache — is copied into one buffer for the call, and its pixels are
        cut out of one read-only view of that buffer, made before the first
        cut (see :class:`DecodedRegion`).

        With a cache, every tile is looked up first.  A piece whose boxes all
        lie inside one tile, and whose tiles all came from the cache, files
        its regions in the SOT's region memo
        (:meth:`~repro.exec.cache.TileDecodeCache.memo`, taken before the
        lookups) with the frame lists the lookups returned; when the next
        serve's lookups return, by identity, those lists for the same plan,
        it hands back those very regions and builds none.
        """
        started = time.perf_counter()
        result = DecodeResult()
        plan = self._plan_for(sot, requests)
        layout, regions, gops, sot_index = sot.layout, result.regions, sot.gops, sot.sot_index
        cache = self.cache if scope is not None else None
        memo = tiles = None
        if cache is not None:
            # The memo is taken before the lookups (see TileDecodeCache.memo)
            # and read after them, so a serve from it moves the cache's counts
            # and this call's stats as one that builds.
            if not plan.spanning_pixels and isinstance(requests, ScanPiece):
                memo = cache.memo(scope, sot_index)
            looked_up: list = []
            tiles = [
                self._reconstruct_tiles(gops[number], depth, result, scope, sot_index, warmed, looked_up)
                for number, depth, _ in plan.gops
            ]
            held = memo.get(requests) if memo is not None else None
            if held is not None and held[0] is plan and _same_lists(held[1], looked_up):
                regions.extend(held[2])
                result.memoised = held[2]
                result.elapsed_seconds = time.perf_counter() - started
                return result
        copied = np.empty(plan.spanning_pixels if cache is not None else plan.region_pixels, np.uint8)
        # What the copied regions view: read-only, and so is every view of it.
        frozen = np.frombuffer(memoryview(copied).toreadonly(), np.uint8) if copied.size else _EMPTY
        at = 0
        for at_gop, (gop_number, tile_depth, served) in enumerate(plan.gops):
            # Decode each touched tile once, up to the deepest frame needed,
            # then cut every request's pixels out of those reconstructions.
            reconstructions = (
                tiles[at_gop]
                if cache is not None
                else self._reconstruct_tiles(gops[gop_number], tile_depth, result, scope, sot_index, warmed)
            )
            for request, offset, tile_index, rows, columns in served:
                if tile_index is None:  # the slots hold the box's tile span and clipped corners
                    pixels = self._assemble_region(
                        layout, rows, columns, reconstructions, offset, copied[at:]
                    )
                    stop = at + pixels.size
                    pixels, at = frozen[at:stop].reshape(pixels.shape), stop
                else:
                    # The common case once a video is tiled around its objects:
                    # the box lies in one tile, so it is one slice of its raster.
                    pixels = reconstructions[tile_index][offset][rows, columns]
                    if cache is None:
                        shape, stop = pixels.shape, at + pixels.size
                        copied[at:stop].reshape(shape)[...] = pixels
                        pixels, at = frozen[at:stop].reshape(shape), stop
                regions.append(make_region(request.frame_index, request.region, pixels, request.label))
        if memo is not None and None not in looked_up:
            result.memoised = memo.file(requests, plan, looked_up, regions)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def prefetch_regions(
        self,
        sot: EncodedSot,
        requests: "list[RegionRequest] | ScanPiece",
        scope: str,
    ) -> DecodeResult:
        """Decode every tile the requests touch, skipping assembly.

        This is the batch executor's warm phase: given the union of every
        region the batch needs from one SOT (or the one :class:`ScanPiece`
        that wants it, whose memoised plan the serve then shares), each
        touched (GOP, tile) is decoded once, to the deepest frame any request
        reaches, and stored in the cache, if the decoder has one, so the
        per-query serve phase hits instead of re-decoding.  The returned
        result carries decode-work stats and, in ``warmed``, what it
        reconstructed (no regions): the serve reads a tile from there when the
        decoder has no cache, or when a later put of the same warm evicted it
        — a newly put entry ranks below entries read more often.

        Prefetching is useful only when the warmed tiles survive until they
        are served, so a SOT whose union working set exceeds the cache
        capacity is skipped entirely (the cache would evict its own entries
        mid-warm); the serve phase then decodes that SOT per query, which
        costs exactly what sequential execution would — warming it would cost
        strictly more.
        """
        started = time.perf_counter()
        result = DecodeResult()
        plan = self._plan_for(sot, requests)
        if self.cache is None or plan.working_set_bytes <= self.cache.capacity_bytes:
            for gop_number, tile_depth, _ in plan.gops:
                gop = sot.gops[gop_number]
                tiles = self._reconstruct_tiles(gop, tile_depth, result, scope, sot.sot_index)
                for tile_index, frames in tiles.items():
                    result.warmed[(scope, sot.sot_index, gop.frame_start, tile_index)] = frames
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _plan_for(self, sot: EncodedSot, requests: "list[RegionRequest] | ScanPiece") -> _DecodePlan:
        """The decode plan of ``requests`` against ``sot``.

        A bare list is planned by :meth:`_plan` and the plan forgotten.  A
        :class:`ScanPiece` keeps the plan made for the encoding it last met,
        so a repeat costs an identity check.  Meeting a new encoding, the
        piece of a whole SOT goes through :meth:`_plan` — the one place a box
        is spanned over the tile grid and clipped, once per SOT, predicate and
        encoding — and a window cut from it takes the ``served`` entries of
        its own requests out of that plan, GOP by GOP, with tile depths and
        working-set bytes worked out again from what it took.  (A window
        whose whole-SOT piece has left the memo is planned as a list is.)
        """
        if not isinstance(requests, ScanPiece):
            return self._plan(sot, requests)
        planned = requests._planned
        if planned is None or planned[0]() is not sot:
            cut_from = requests._cut_from
            whole = cut_from[0]() if cut_from else None
            if whole is None:
                plan = self._plan(sot, requests.requests)
            else:
                _, first, last = cut_from
                cut = []
                for number, _, served in self._plan_for(sot, whole).gops:
                    if first < len(served) and last > 0:
                        cut.append((number, served[max(first, 0) : last]))
                    first, last = first - len(served), last - len(served)
                plan = self._with_depths(sot, cut)
            planned = requests._planned = (weakref.ref(sot), plan)
        return planned[1]

    def _plan(self, sot: EncodedSot, requests: Iterable[RegionRequest]) -> _DecodePlan:
        """One span pass over the requests that fall in ``sot``.

        Everything about serving them that does not depend on pixel data: see
        :class:`_DecodePlan`.  A box is clipped to the frame and truncated to
        whole pixels here, once.
        """
        frame_start, frame_stop, gop_frames = sot.frame_start, sot.frame_stop, sot.gop_frames
        layout = sot.layout
        tile_span, rows, columns = layout.tile_span, layout.row_edges, layout.column_edges
        width, height, stride = columns[-1], rows[-1], len(columns) - 1
        by_gop: defaultdict[int, list] = defaultdict(list)
        for request in requests:
            if not frame_start <= request.frame_index < frame_stop:
                continue
            gop_number, offset = divmod(request.frame_index - frame_start, gop_frames)
            box = request.region
            span = row0, row1, col0, col1 = tile_span(box)
            x1 = int(box.x1) if box.x1 > 0 else 0
            y1 = int(box.y1) if box.y1 > 0 else 0
            x2 = int(box.x2) if box.x2 < width else width
            y2 = int(box.y2) if box.y2 < height else height
            if row1 - row0 == 1 and col1 - col0 == 1:
                top, left = rows[row0], columns[col0]
                by_gop[gop_number].append(
                    (request, offset, row0 * stride + col0,
                     slice(y1 - top, y2 - top), slice(x1 - left, x2 - left))
                )
            else:
                by_gop[gop_number].append((request, offset, None, span, (x1, y1, x2, y2)))
        return self._with_depths(sot, [(number, tuple(by_gop[number])) for number in sorted(by_gop)])

    @staticmethod
    def _with_depths(sot: EncodedSot, gops: list[tuple[int, tuple[tuple, ...]]]) -> _DecodePlan:
        """The plan that serves ``gops`` — ``(GOP number, served)`` pairs: each
        touched tile's depth is the deepest offset an entry of its GOP reaches
        it at, tiles in the order the entries first touch them."""
        stride = len(sot.layout.column_edges) - 1
        planned, working_set, one_tile, spanning = [], 0, 0, 0
        for number, served in gops:
            tile_depth: dict[int, int] = {}
            for _, offset, tile_index, span, cut in served:
                if tile_index is not None:
                    touched = (tile_index,)
                    one_tile += (span.stop - span.start) * (cut.stop - cut.start)
                else:
                    row0, row1, col0, col1 = span
                    touched = [
                        tile
                        for row in range(row0 * stride, row1 * stride, stride)
                        for tile in range(row + col0, row + col1)
                    ]
                    # An empty span is a 0x0 region.
                    spanning += (cut[2] - cut[0]) * (cut[3] - cut[1]) if touched else 0
                for tile in touched:
                    if tile_depth.get(tile, -1) < offset:
                        tile_depth[tile] = offset
            tiles = sot.gops[number].tiles
            working_set += sum(
                tiles[tile].pixels_per_frame * (depth + 1) for tile, depth in tile_depth.items()
            )
            planned.append((number, tile_depth, served))
        return _DecodePlan(tuple(planned), working_set, one_tile + spanning, spanning)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reconstruct_tiles(
        self,
        gop: EncodedGop,
        tile_depth: dict[int, int],
        result: DecodeResult,
        scope: str | None,
        sot_index: int,
        warmed: dict | None = None,
        looked_up: list | None = None,
    ) -> dict[int, list[np.ndarray]]:
        """Reconstruct each needed tile: from the cache, else from ``warmed``,
        else by decoding it; ``looked_up`` gains, tile by tile, the cache's
        frame list, or None for a tile served from anywhere else.

        A tile ``warmed`` holds deep enough is a hit even when the cache no
        longer holds it, or the decoder has none.  Misses are single-flight
        across threads: when several concurrent decodes (whole batches running
        on separate service runners) miss on the same tile key at once, one
        leader decodes while the rest wait and then hit the fresh entry — the
        same tile is never decoded twice in parallel for the same depth.  A
        miss on a tile the cache holds too shallow resumes from the held
        frames: only the frames past them are decoded, and counted.  Without
        a cache, or a ``scope`` to key it by, a tile ``warmed`` lacks is
        decoded and nothing is counted as a miss.
        """
        cache = self.cache if scope is not None else None
        reconstructions: dict[int, list[np.ndarray]] = {}
        for tile_index, depth in tile_depth.items():
            tile = gop.tiles[tile_index]
            key = (scope, sot_index, gop.frame_start, tile_index)
            while True:
                cached = None if cache is None else cache.get(key, depth, tile.checksums)
                from_cache = cached
                if cached is None and warmed and len(warmed.get(key, ())) > depth:
                    cached = warmed[key]
                if cached is not None:
                    result.stats.cache_hits += 1
                    result.stats.pixels_served_from_cache += tile.pixels_per_frame * (depth + 1)
                    reconstructions[tile_index] = cached
                elif cache is None:
                    reconstructions[tile_index] = self._codec.decode_tile(tile, depth, result.stats)
                elif not cache.begin_decode(key):
                    continue  # another thread just decoded it; re-check
                else:
                    try:
                        result.stats.cache_misses += 1
                        reconstructions[tile_index] = frames = self._codec.decode_tile(
                            tile, depth, result.stats, resume_from=cache.held(key, tile.checksums)
                        )
                        cache.put(key, frames, token=tile.checksums)
                    finally:
                        cache.end_decode(key)
                break
            if looked_up is not None:
                looked_up.append(from_cache)
        return reconstructions

    @staticmethod
    def _assemble_region(
        layout: TileLayout,
        span: tuple[int, int, int, int],
        clipped: tuple[int, int, int, int],
        reconstructions: dict[int, list[np.ndarray]],
        frame_offset: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """The pixels of a box that is not inside one tile: ``clipped`` (the box
        in whole pixels, inside the frame) cut out of the tiles of its span,
        written row by row at the front of ``out`` (flat uint8)."""
        row0, row1, col0, col1 = span
        if row0 == row1:
            return np.zeros((0, 0), dtype=np.uint8)
        x1, y1, x2, y2 = clipped
        rows, columns = layout.row_edges, layout.column_edges
        stride = len(columns) - 1
        # The span's tiles cover the clipped box exactly, so every canvas pixel
        # is written below.
        canvas = out[: (y2 - y1) * (x2 - x1)].reshape(y2 - y1, x2 - x1)
        for row in range(row0, row1):
            top = rows[row]
            oy1, oy2 = max(y1, top), min(y2, rows[row + 1])
            for column in range(col0, col1):
                left = columns[column]
                ox1, ox2 = max(x1, left), min(x2, columns[column + 1])
                raster = reconstructions[row * stride + column][frame_offset]
                canvas[oy1 - y1 : oy2 - y1, ox1 - x1 : ox2 - x1] = raster[
                    oy1 - top : oy2 - top, ox1 - left : ox2 - left
                ]
        return canvas
