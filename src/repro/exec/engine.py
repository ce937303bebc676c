"""What batched, cache-aware query execution returns.

:meth:`TASM.execute_batch <repro.core.tasm.TASM.execute_batch>` runs a batch
of queries and returns a :class:`BatchResult`; its ``observer`` receives the
:class:`PartialResult` / :class:`QueryDone` events (:data:`StreamEvent`) the
service layer streams results to clients through.  For a lone query TASM's
scan loop is the paper's (index lookup, then decode only the tiles the
selected regions touch).  A batch adds the two optimisations the VSS and
Scanner systems apply to exactly this redundant work:

* **Planning** — every query's region requests are resolved up front, one
  memoised :class:`~repro.video.decoder.ScanPiece` per ``(video, SOT)`` it
  touches, so TASM knows the union of tiles the whole batch needs before
  decoding anything — and a repeated scan plans nothing again.
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
  assembly logic — and within one batch a tile shared between queries is
  decoded once instead of once per query.

A known limit: with a cache that evicts, a batch can decode *more* than its
queries run one at a time.  Each warm decodes its SOT's union to the deepest
frame any member needs and puts all of it, which can push out entries a
later batch reads.  On the W3 scene with the cache at half the working set,
batches of 8 decode 1.029x the pixels of the same queries run sequentially
(0.957x at a quarter, 0.879x at a third).  ROADMAP.md's item 17 tracks
the fix.

A batch runs on the thread that calls it; parallelism comes from running
independent batches side by side (the service layer's runner pool), which is
where Scanner gets its own.

Decode-work accounting never double-counts: a cache hit contributes to the
``cache_hits`` / ``pixels_served_from_cache`` counters, not to the P/T decode
counters, so summing the batch's stats reproduces the work actually done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..video.codec import DecodeStats

if TYPE_CHECKING:
    # Annotations only: repro.core imports this module, so a runtime import
    # of repro.core here would be circular.
    from ..core.scan import ScanRegion, ScanResult

__all__ = ["BatchResult", "PartialResult", "QueryDone", "StreamEvent"]


@dataclass(frozen=True)
class PartialResult:
    """Streaming event: one SOT's contribution to one query is ready.

    Emitted by ``execute_batch`` (through its ``observer``) immediately after
    the SOT is served — while later SOTs of the batch may still be decoding —
    so a serving layer can push results to clients incrementally.  ``regions``
    are exactly the :class:`~repro.core.scan.ScanRegion` objects appended to
    the query's final result for this SOT, in result order: for a piece the
    decode cache memoised, the very :class:`~repro.exec.cache.MemoisedRegions`
    it filed, which a chunk is sent from.
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
