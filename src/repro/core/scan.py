"""Scan results: the pixels returned to the query processor plus accounting.

The paper reports query times that include both the semantic-index lookup and
the tile decode; :class:`ScanResult` carries both so that the benchmarks can
report the same breakdown, and exposes the P/T counters needed to validate
the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..video.codec import DecodeStats
from ..video.decoder import DecodedRegion, make_region

__all__ = ["ScanRegion", "ScanResult", "make_region"]


#: Pixels of one selected region on one frame (``frame_index``, ``region``,
#: ``pixels``, ``label``).  A scan hands back the decoder's regions as they
#: are — one object per region, built once — so the two names are one class.
#: It is immutable, and a warm scan may hand back regions an earlier one did;
#: its pixels are read-only (see :class:`~repro.video.decoder.DecodedRegion`).
#: :func:`make_region` builds one without the frozen ``__init__``'s cost.
ScanRegion = DecodedRegion


@dataclass
class ScanResult:
    """Everything a ``Scan`` call returns."""

    video: str
    regions: list[ScanRegion] = field(default_factory=list)
    stats: DecodeStats = field(default_factory=DecodeStats)
    index_seconds: float = 0.0
    decode_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.index_seconds + self.decode_seconds

    @property
    def returned_pixels(self) -> int:
        """Pixels actually handed back to the caller (<= pixels decoded)."""
        return sum(region.pixel_count for region in self.regions)

    @property
    def pixels_decoded(self) -> int:
        return self.stats.pixels_decoded

    @property
    def tiles_decoded(self) -> int:
        return self.stats.tiles_decoded

    # ------------------------------------------------------------------
    # Cache accounting (batched / cache-aware execution, repro.exec)
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Tile lookups this scan served from the decode cache."""
        return self.stats.cache_hits

    @property
    def cache_misses(self) -> int:
        """Tile lookups that had to decode (cache disabled counts zero)."""
        return self.stats.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.stats.cache_hits + self.stats.cache_misses
        return self.stats.cache_hits / lookups if lookups else 0.0

    @property
    def pixels_served_from_cache(self) -> int:
        """Decoded-pixel work this scan avoided via cache hits."""
        return self.stats.pixels_served_from_cache

    def is_empty(self) -> bool:
        return not self.regions
