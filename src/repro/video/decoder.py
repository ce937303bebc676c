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
answer, here as in the cost model; once those tiles are reconstructed (or
found in the cache) a region costs integer clipping and one copy.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import CodecConfig
from ..errors import CodecError
from ..geometry import Rectangle
from ..tiles.layout import TileLayout
from .codec import DecodeStats, EncodedGop, TileCodec
from .encoder import EncodedSot

if TYPE_CHECKING:  # avoid a package cycle: repro.exec imports repro.video
    from ..exec.cache import TileDecodeCache

__all__ = ["RegionRequest", "DecodedRegion", "DecodeResult", "VideoDecoder"]


@dataclass(frozen=True)
class RegionRequest:
    """A request for the pixels of one rectangle on one frame."""

    frame_index: int
    region: Rectangle
    label: str | None = None


@dataclass
class DecodedRegion:
    """The pixels recovered for one request.

    ``pixels`` is a C-contiguous array that owns its memory — never a view of
    a cache entry — so callers may write to it.
    """

    frame_index: int
    region: Rectangle
    pixels: np.ndarray
    label: str | None = None

    @property
    def pixel_count(self) -> int:
        return int(self.pixels.size)


@dataclass
class DecodeResult:
    """All regions decoded for a scan over one or more SOTs."""

    regions: list[DecodedRegion] = field(default_factory=list)
    stats: DecodeStats = field(default_factory=DecodeStats)
    elapsed_seconds: float = 0.0


class VideoDecoder:
    """Decodes regions out of encoded SOTs.

    When constructed with a :class:`~repro.exec.cache.TileDecodeCache`, the
    decoder consults it before opening a tile bitstream and stores every
    reconstruction it produces: repeated scans over the same tiles become
    cache hits that add nothing to the P/T decode-work counters.  Cache keys
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
        requests: list[RegionRequest],
        scope: str | None = None,
    ) -> DecodeResult:
        """Decode the pixels of every requested region from one SOT.

        Requests are grouped by GOP, then by tile: each (GOP, tile) bitstream
        is decoded at most once, up to the latest frame any request needs, and
        every request is served from those reconstructions.
        """
        started = time.perf_counter()
        result = DecodeResult()
        layout, regions = sot.layout, result.regions
        for gop, tile_depth, served in self._plan(sot, requests):
            # Decode each touched tile once, up to the deepest frame needed,
            # then cut every request's pixels out of those reconstructions.
            reconstructions = self._reconstruct_tiles(
                gop, tile_depth, result, scope=scope, sot_index=sot.sot_index
            )
            for request, offset, span in served:
                pixels = self._assemble_region(
                    layout, request.region, span, reconstructions, offset
                )
                regions.append(
                    DecodedRegion(request.frame_index, request.region, pixels, request.label)
                )
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def prefetch_regions(
        self,
        sot: EncodedSot,
        requests: list[RegionRequest],
        scope: str,
    ) -> DecodeResult:
        """Decode every tile the requests touch into the cache, skipping assembly.

        This is the batch executor's warm phase: given the union of every
        region the batch needs from one SOT, each touched (GOP, tile) is
        decoded once, to the deepest frame any request reaches, and stored in
        the cache so the per-query serve phase hits instead of re-decoding.
        The returned result carries only decode-work stats (no regions).

        Prefetching is useful only when the warmed tiles survive until they
        are served, so a SOT whose union working set exceeds the cache
        capacity is skipped entirely (the cache would evict its own entries
        mid-warm); the serve phase then decodes that SOT per query, which
        costs exactly what sequential execution would — warming it would cost
        strictly more.
        """
        if self.cache is None:
            raise CodecError("prefetch_regions requires a decoder with a tile cache")
        started = time.perf_counter()
        result = DecodeResult()
        plans = self._plan(sot, requests)
        if self.cache.capacity_bytes is not None:
            working_set_bytes = sum(
                gop.tiles[tile_index].pixels_per_frame * (depth + 1)
                for gop, tile_depth, _ in plans
                for tile_index, depth in tile_depth.items()
            )
            if working_set_bytes > self.cache.capacity_bytes:
                result.elapsed_seconds = time.perf_counter() - started
                return result
        for gop, tile_depth, _ in plans:
            self._reconstruct_tiles(
                gop, tile_depth, result, scope=scope, sot_index=sot.sot_index
            )
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _plan(
        self, sot: EncodedSot, requests: list[RegionRequest]
    ) -> list[tuple[EncodedGop, dict[int, int], list[tuple[RegionRequest, int, tuple]]]]:
        """One span pass over the requests that fall in ``sot``.

        Per GOP touched, in GOP order: how deep into the GOP each touched tile
        must be decoded, and every request of that GOP with its frame's offset
        into the GOP and its tile span.
        """
        frame_start, frame_stop, gop_frames = sot.frame_start, sot.frame_stop, sot.gop_frames
        tile_span, columns = sot.layout.tile_span, sot.layout.columns
        plans: defaultdict[int, tuple[dict[int, int], list]] = defaultdict(lambda: ({}, []))
        for request in requests:
            if not frame_start <= request.frame_index < frame_stop:
                continue
            gop_number, offset = divmod(request.frame_index - frame_start, gop_frames)
            tile_depth, served = plans[gop_number]
            span = row0, row1, col0, col1 = tile_span(request.region)
            served.append((request, offset, span))
            for row in range(row0 * columns, row1 * columns, columns):
                for tile_index in range(row + col0, row + col1):
                    if tile_depth.get(tile_index, -1) < offset:
                        tile_depth[tile_index] = offset
        return [(sot.gops[number], *plans[number]) for number in sorted(plans)]

    def decode_full_frames(self, sot: EncodedSot, frame_indices: list[int]) -> DecodeResult:
        """Decode whole frames (every tile) — the untiled / stitching path."""
        frame_bounds = Rectangle(0, 0, sot.layout.frame_width, sot.layout.frame_height)
        requests = [RegionRequest(index, frame_bounds) for index in frame_indices]
        return self.decode_regions(sot, requests)

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
    ) -> dict[int, list[np.ndarray]]:
        """Reconstruct each needed tile, via the cache when one is attached.

        Misses are single-flight across threads: when several concurrent
        decodes (prefetch pool workers, or whole batches running on separate
        service runners) miss on the same tile key at once, one leader
        decodes while the rest wait and then hit the fresh entry — the same
        tile is never decoded twice in parallel for the same depth.
        """
        reconstructions: dict[int, list[np.ndarray]] = {}
        for tile_index, depth in tile_depth.items():
            tile = gop.tiles[tile_index]
            if self.cache is None or scope is None:
                reconstructions[tile_index] = self._codec.decode_tile(
                    tile, up_to_offset=depth, stats=result.stats
                )
                continue
            key = (scope, sot_index, gop.frame_start, tile_index)
            while True:
                cached = self.cache.get(key, min_depth=depth, token=tile.checksums)
                if cached is not None:
                    result.stats.cache_hits += 1
                    result.stats.pixels_served_from_cache += (
                        tile.pixels_per_frame * (depth + 1)
                    )
                    reconstructions[tile_index] = cached
                    break
                if not self.cache.begin_decode(key):
                    continue  # another thread just decoded it; re-check
                try:
                    result.stats.cache_misses += 1
                    frames = self._codec.decode_tile(
                        tile, up_to_offset=depth, stats=result.stats
                    )
                    self.cache.put(key, frames, token=tile.checksums)
                finally:
                    self.cache.end_decode(key)
                reconstructions[tile_index] = frames
                break
        return reconstructions

    @staticmethod
    def _assemble_region(
        layout: TileLayout,
        box: Rectangle,
        span: tuple[int, int, int, int],
        reconstructions: dict[int, list[np.ndarray]],
        frame_offset: int,
    ) -> np.ndarray:
        """The pixels of ``box`` on one frame: the box clipped to the frame and
        truncated to whole pixels, cut out of the tiles of its span."""
        row0, row1, col0, col1 = span
        if row0 == row1:
            return np.zeros((0, 0), dtype=np.uint8)
        x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
        rows, columns = layout.row_edges, layout.column_edges
        width, height, stride = columns[-1], rows[-1], len(columns) - 1
        x1 = int(x1) if x1 > 0 else 0
        y1 = int(y1) if y1 > 0 else 0
        x2 = int(x2) if x2 < width else width
        y2 = int(y2) if y2 < height else height
        if row1 - row0 == 1 and col1 - col0 == 1:
            # The common case once a video is tiled around its objects: the box
            # lies in one tile, so it is one slice of that tile's raster.
            top, left = rows[row0], columns[col0]
            raster = reconstructions[row0 * stride + col0][frame_offset]
            return raster[y1 - top : y2 - top, x1 - left : x2 - left].copy()
        # The span's tiles cover the clipped box exactly, so every canvas pixel
        # is written below.
        canvas = np.empty((y2 - y1, x2 - x1), dtype=np.uint8)
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
