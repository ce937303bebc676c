"""An LRU cache of decoded tile reconstructions, sized by decoded bytes.

A cache entry holds the reconstructed rasters of one tile bitstream — one
``(video, SOT, GOP, tile)`` — decoded from its keyframe up to some frame
offset.  Because the codec's temporal dependency means reaching offset *k*
requires reconstructing offsets ``0..k``, an entry decoded to depth *d* can
serve any request needing depth ``<= d``; a deeper request is a miss that
re-decodes and replaces the entry.

Two mechanisms keep served pixels fresh across re-tiling:

* **Explicit invalidation** — :meth:`TileDecodeCache.invalidate_sot` drops
  every entry of one SOT; TASM calls it whenever a SOT is physically
  re-encoded, so a ``retile_sot`` can never leave stale reconstructions
  behind.
* **Token validation** — every entry records the checksum tuple of the
  bitstream it was decoded from, and a lookup whose token differs is treated
  as a miss.  Even a caller that bypasses TASM's invalidation hook therefore
  cannot read pixels from a superseded encoding.

Two eviction policies are available (``eviction_policy``):

* ``"lru"`` — evict the least recently used entry (the default).
* ``"cost"`` — GDSF-style cost-aware eviction.  Each entry's value is its
  reconstruction cost under the paper's fitted decode model,
  ``beta * P + gamma * T`` (P = pixels decoded to rebuild it, T = 1 tile
  bitstream opened), divided by the bytes it occupies; the eviction priority
  is ``clock + frequency * value_per_byte``, with the clock advancing to each
  victim's priority so recency still ages entries out.  Small, hot, or
  deep-into-the-GOP tiles — the ones costing the most decode work per cached
  byte — outlive large cheap ones that plain LRU would keep.

The cache is safe for concurrent use: the :class:`QueryExecutor` prefetch
phase may decode SOTs from a thread pool, and in server mode
(``repro.service``) many client batches share one process-wide instance, so
every operation takes the cache's lock.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..config import CostCoefficients

__all__ = ["CacheStats", "TileDecodeCache", "TileKey"]

#: (scope, sot_index, gop_frame_start, tile_index) — scope is the video name.
TileKey = tuple[str, int, int, int]


@dataclass
class CacheStats:
    """Counters describing the cache's behaviour since construction."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Decoded-pixel work avoided by hits (pixels the caller did not re-decode).
    pixels_served: int = 0
    bytes_evicted: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The counter deltas accumulated after ``earlier`` was snapshotted."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            insertions=self.insertions - earlier.insertions,
            evictions=self.evictions - earlier.evictions,
            invalidations=self.invalidations - earlier.invalidations,
            pixels_served=self.pixels_served - earlier.pixels_served,
            bytes_evicted=self.bytes_evicted - earlier.bytes_evicted,
        )


@dataclass
class _CacheEntry:
    frames: list[np.ndarray]
    token: tuple[int, ...]
    nbytes: int
    #: Pixels that were decoded to build this entry (the cost model's P).
    pixels: int = 0
    #: Lookup hits plus the initial insertion (GDSF frequency term).
    frequency: int = 1
    #: GDSF eviction priority; unused under the LRU policy.
    priority: float = 0.0
    #: ``(beta * P + gamma * T) / nbytes`` — reconstruction cost per byte.
    value_per_byte: float = 0.0
    #: Tick of this entry's latest priority update; heap items carrying an
    #: older tick are stale and skipped during eviction (lazy invalidation).
    version: int = 0

    @property
    def depth(self) -> int:
        return len(self.frames) - 1


class TileDecodeCache:
    """Cache of decoded tile rasters, bounded by total decoded bytes.

    ``capacity_bytes=None`` makes the cache unbounded (used for batch-scoped
    caches whose lifetime bounds their size); any positive value evicts
    entries chosen by ``eviction_policy`` once the decoded bytes held exceed
    it.  ``cost`` supplies the fitted decode-cost coefficients the ``"cost"``
    policy values entries with (defaults to the model's defaults).
    """

    def __init__(
        self,
        capacity_bytes: int | None = None,
        eviction_policy: str = "lru",
        cost: CostCoefficients | None = None,
    ):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive (or None for unbounded)")
        if eviction_policy not in ("lru", "cost"):
            raise ValueError(
                f"eviction_policy must be 'lru' or 'cost', got {eviction_policy!r}"
            )
        self.capacity_bytes = capacity_bytes
        self.eviction_policy = eviction_policy
        self.cost = cost or CostCoefficients()
        self.stats = CacheStats()
        self._entries: OrderedDict[TileKey, _CacheEntry] = OrderedDict()
        self._current_bytes = 0
        self._clock = 0.0
        # Cost-policy eviction order: a min-heap of (priority, version, key)
        # with lazy invalidation — priority updates push a fresh item and
        # bump the entry's version rather than re-sifting, so eviction is
        # O(log n) amortised instead of a min-scan over every entry.
        self._heap: list[tuple[float, int, TileKey]] = []
        self._update_tick = 0
        self._lock = threading.Lock()
        # Single-flight decode coordination: key -> event set when the
        # in-progress decode of that key completes (see begin_decode).
        self._inflight: dict[TileKey, threading.Event] = {}
        #: Optional observability hook (``seconds -> None``): called with the
        #: time a follower spent waiting out another thread's in-flight
        #: decode.  The server wires it to the single-flight wait histogram.
        self.observe_singleflight = None

    # ------------------------------------------------------------------
    # Lookup and insertion
    # ------------------------------------------------------------------
    def get(
        self,
        key: TileKey,
        min_depth: int,
        token: Sequence[int],
    ) -> list[np.ndarray] | None:
        """The cached reconstructions for ``key``, or None on a miss.

        A hit requires the entry to be decoded at least ``min_depth`` frames
        deep and to carry the same bitstream ``token`` (checksums) as the tile
        the caller is about to decode; a token mismatch means the SOT was
        re-encoded and the entry is dropped.
        """
        token = tuple(token)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.token != token:
                self._remove(key)
                entry = None
            if entry is None or entry.depth < min_depth:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            entry.frequency += 1
            entry.priority = self._clock + entry.frequency * entry.value_per_byte
            self._track_priority(key, entry)
            self.stats.hits += 1
            pixels_per_frame = int(entry.frames[0].size) if entry.frames else 0
            self.stats.pixels_served += pixels_per_frame * (min_depth + 1)
            return entry.frames

    def put(
        self,
        key: TileKey,
        frames: list[np.ndarray],
        token: Sequence[int],
    ) -> bool:
        """Store reconstructions; returns False when they exceed the capacity."""
        nbytes = sum(int(frame.nbytes) for frame in frames)
        if self.capacity_bytes is not None and nbytes > self.capacity_bytes:
            return False
        pixels = sum(int(frame.size) for frame in frames)
        # Rebuilding this entry costs decoding P pixels of one tile bitstream.
        value_per_byte = (
            (self.cost.beta * pixels + self.cost.gamma) / nbytes if nbytes else 0.0
        )
        entry = _CacheEntry(
            frames=list(frames),
            token=tuple(token),
            nbytes=nbytes,
            pixels=pixels,
            value_per_byte=value_per_byte,
        )
        with self._lock:
            entry.priority = self._clock + entry.value_per_byte
            if key in self._entries:
                self._remove(key)
            self._entries[key] = entry
            self._current_bytes += nbytes
            self._track_priority(key, entry)
            self.stats.insertions += 1
            while (
                self.capacity_bytes is not None
                and self._current_bytes > self.capacity_bytes
                and self._entries
            ):
                victim_key = self._pick_victim()
                victim = self._entries.pop(victim_key)
                self._current_bytes -= victim.nbytes
                if self.eviction_policy == "cost":
                    # GDSF clock: future entries must beat the value the
                    # cache just gave up, so recency keeps aging entries out.
                    self._clock = max(self._clock, victim.priority)
                self.stats.evictions += 1
                self.stats.bytes_evicted += victim.nbytes
        return True

    def _track_priority(self, key: TileKey, entry: _CacheEntry) -> None:
        """Record an entry's (new) priority in the eviction heap (lock held)."""
        if self.eviction_policy != "cost" or self.capacity_bytes is None:
            return
        self._update_tick += 1
        entry.version = self._update_tick
        heapq.heappush(self._heap, (entry.priority, entry.version, key))
        # Stale items accumulate one per priority update; compact before the
        # heap dwarfs the live set so memory stays O(entries).
        if len(self._heap) > 4 * len(self._entries) + 64:
            self._heap = [
                (live.priority, live.version, live_key)
                for live_key, live in self._entries.items()
            ]
            heapq.heapify(self._heap)

    def _pick_victim(self) -> TileKey:
        """The key the active eviction policy sacrifices next (lock held)."""
        if self.eviction_policy == "cost":
            while self._heap:
                _, version, key = self._heap[0]
                entry = self._entries.get(key)
                if entry is None or entry.version != version:
                    heapq.heappop(self._heap)  # superseded or removed
                    continue
                return key
            # Unreachable in normal operation (every live entry has a heap
            # item); guard against it by falling back to a full scan.
            return min(self._entries, key=lambda key: self._entries[key].priority)
        return next(iter(self._entries))

    # ------------------------------------------------------------------
    # Single-flight decode coordination
    # ------------------------------------------------------------------
    def begin_decode(self, key: TileKey, timeout: float = 10.0) -> bool:
        """Claim (or wait out) the in-progress decode of one tile key.

        With concurrent batch executions sharing this cache, two batches can
        miss on the same tile at the same moment and both pay the decode —
        work the cache exists to eliminate.  ``begin_decode`` makes misses
        single-flight: True means the caller is the *leader* and must decode
        then call :meth:`end_decode`; False means another thread's decode of
        this key just finished (or ``timeout`` elapsed) — re-check the cache
        before deciding to decode.

        This is advisory coordination, not a lock around the entry: a leader
        that decodes too shallow (or whose ``put`` is refused by capacity)
        simply leaves the follower to miss again and become the next leader,
        so progress never depends on what the leader managed to store.
        """
        with self._lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
                return True
        observe = self.observe_singleflight
        if observe is None:
            event.wait(timeout)
        else:
            waited = time.perf_counter()
            event.wait(timeout)
            observe(time.perf_counter() - waited)
        return False

    def end_decode(self, key: TileKey) -> None:
        """Release leadership of ``key`` and wake every waiting follower."""
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_sot(self, scope: str, sot_index: int) -> int:
        """Drop every entry of one SOT; returns the number of entries removed."""
        with self._lock:
            doomed = [
                key for key in self._entries if key[0] == scope and key[1] == sot_index
            ]
            for key in doomed:
                self._remove(key)
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
            self._current_bytes = 0
            self._heap.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: TileKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys_for_sot(self, scope: str, sot_index: int) -> list[TileKey]:
        """Keys currently cached for one SOT (test/debug introspection)."""
        with self._lock:
            return [
                key for key in self._entries if key[0] == scope and key[1] == sot_index
            ]

    def _remove(self, key: TileKey) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._current_bytes -= entry.nbytes
