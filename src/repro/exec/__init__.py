"""Batched execution and tile-decode caching for TASM queries.

TASM's headline win is decoding only the tiles a predicate touches, but the
paper executes each ``Scan`` in isolation: concurrent or repeated queries
over the same sequences of tiles re-decode identical bitstreams from
scratch.  This package removes that redundancy, following the cache-aware
scheduling of VSS and the batched frame requests of Scanner (see PAPERS.md):

* :class:`~repro.exec.cache.TileDecodeCache` — an LFU cache of decoded tile
  rasters, bounded by decoded bytes (``TasmConfig.decode_cache_bytes``),
  with insertion/eviction statistics (hits and misses are counted per
  scan, in ``DecodeStats``), explicit per-SOT invalidation on
  re-tiling, and bitstream-checksum validation so a re-encoded SOT can never
  serve stale pixels.
* :mod:`repro.exec.engine` — what batched execution returns and streams:
  :class:`~repro.exec.engine.BatchResult`, and the
  :class:`~repro.exec.engine.PartialResult` /
  :class:`~repro.exec.engine.QueryDone` events an ``observer`` receives as
  each SOT is served — the streaming hook the service layer
  (``repro.service``) delivers per-SOT results to clients through.

The execution itself is TASM's own: ``TASM.scan`` runs through
``TASM.execute``, and ``TASM.execute_batch`` plans a batch of queries into
per-``(video, SOT)`` region requests, decodes each needed tile
bitstream at most once per batch, SOT by SOT on the calling thread, and
answers every query from that SOT's warm, through TASM's one decoder and its
cache when it has one.  Per-query results are byte-identical to sequential
``scan()`` calls.  Execution holds TASM's per-``(video, SOT)`` read locks, so
server-mode writes serialize against in-flight scans.
"""

from .cache import CacheStats, TileDecodeCache, TileKey
from .engine import BatchResult, PartialResult, QueryDone

__all__ = [
    "BatchResult",
    "CacheStats",
    "PartialResult",
    "QueryDone",
    "TileDecodeCache",
    "TileKey",
]
