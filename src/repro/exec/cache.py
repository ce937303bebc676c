"""An LFU cache of decoded tile reconstructions, sized by decoded bytes.

A cache entry holds the reconstructed rasters of one tile bitstream — one
``(video, SOT, GOP, tile)`` — decoded from its keyframe up to some frame
offset.  Because the codec's temporal dependency means reaching offset *k*
requires reconstructing offsets ``0..k``, an entry decoded to depth *d* can
serve any request needing depth ``<= d``.  It is also a decoder paused at
depth *d*: a deeper request is a miss, but the decoder takes the entry's
frames (:meth:`TileDecodeCache.held`), resumes the bitstream after them and
puts the longer list back — no frame the cache holds is decoded again.  The
same goes for a re-tile: ``TASM.retile_sot`` asks what is held of the old
encoding and, after invalidating it, puts what the encoder reconstructed of
that area under the new tiles' checksums.

Every frame an entry holds is read-only from the moment it is made — the
rows of ``TileCodec.decode_tile``'s block, or the frames a re-tile's
encoder keeps — so a scan hands out views of entries, not copies, and no
caller can write through them.  Dropping an entry (eviction, invalidation,
a deeper re-put) drops only the cache's reference: a result viewing its
frames keeps them alive, unchanged — and with them the whole block
``decode_tile`` made in that call, since a view keeps its base array alive
and those frames are rows of one ``(n, h, w)`` block.  So a small kept
result can hold a tile's whole decoded GOP prefix (see
:class:`~repro.video.decoder.DecodedRegion`).

Two mechanisms keep served pixels fresh across re-tiling:

* **Explicit invalidation** — :meth:`TileDecodeCache.invalidate_sot` drops
  every entry of one SOT; ``TASM.retile_sot`` calls it once per re-tile,
  under the SOT's write lock, so a re-tile can never leave stale
  reconstructions behind.
* **Token validation** — every entry records the checksum tuple of the
  bitstream it was decoded from, and a lookup whose token differs is treated
  as a miss.  Even a re-tile made behind TASM's back (``TiledVideo.retile``
  called directly) therefore cannot serve pixels from a superseded
  encoding.

Eviction is LFU with dynamic aging (LFU-DA): an entry counts its reads (1
when put, one per :meth:`~TileDecodeCache.get` hit; a deeper re-put of the
same decode keeps its count) and ranks at ``age + count``, set on every put
and hit.  An over-full insertion evicts the lowest ranks (oldest first among
ties, never the entry being put) and ``age`` rises to each victim's rank, so
tiles scans come back to outlive one-off reads, yet a hot set that goes cold
ages out.  :meth:`TileDecodeCache.demote` ranks an entry below every other
until its next put or hit: a re-tile hands over tiles no indexed box
touches, which no scan decodes until the index grows, and demotes them.

The cache also keeps each SOT's *region memo*.  A scan that serves a
repeated :class:`~repro.video.decoder.ScanPiece` (a ``(predicate, window)``
question against one SOT) from resident tiles returns the same regions every
time, so the decoder files them here: per ``(scope, SOT)``, the piece (held
weakly, so TASM's bound on memoised pieces bounds the memos too) maps to the
plan it was served by, the frame lists its tile lookups returned and the
tuple of regions built from them.  The next serve still looks up every tile
— counts, ranks and its ``DecodeStats`` move as before — and hands back the
memoised regions when those lookups returned, by identity, the same lists.
A SOT's memo is dropped in the same critical section as anything that lets
one of its entries go or replaces it: a put, an eviction,
:meth:`~TileDecodeCache.invalidate_sot`, a token-mismatch removal,
:meth:`~TileDecodeCache.clear`.  The decoder takes the memo before its
lookups, so what it files after a drop goes into a memo the cache no longer
holds.  So no memo the cache holds views a frame it has let go, and none
holds a pixel buffer of its own: a piece with a box across tiles, whose
pixels are copied, is not memoised, nor is one served in part from a batch
warm's own frames.

The cache is safe for concurrent use: in server mode (``repro.service``) the
batches of several runner threads share one process-wide instance, so every
operation takes the cache's lock.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

__all__ = ["CacheStats", "TileDecodeCache", "TileKey"]

#: (scope, sot_index, gop_frame_start, tile_index) — scope is the video name.
TileKey = tuple[str, int, int, int]


@dataclass
class CacheStats:
    """What the cache stored and dropped for lack of room since construction.

    Cache traffic — hits, misses, pixels served — is counted per scan in
    ``DecodeStats``, not here.
    """

    insertions: int = 0
    evictions: int = 0
    bytes_evicted: int = 0


@dataclass
class _CacheEntry:
    frames: list[np.ndarray]
    token: tuple[int, ...]
    nbytes: int
    #: Reads of this decode: 1 for its first put, plus one per hit.
    count: int = 1
    #: ``age + count`` as of its latest put or hit; -inf once demoted.
    priority: float = 0.0

    @property
    def depth(self) -> int:
        return len(self.frames) - 1


class TileDecodeCache:
    """Cache of decoded tile rasters, bounded by total decoded bytes.

    Once the decoded bytes held exceed ``capacity_bytes`` the cache evicts
    the lowest-ranked entries (``age + reads``, see the module docstring).
    An entry :meth:`demote` ranks lowest is the next to go, unless a hit
    ranks it again first.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()
        #: Least recently put or hit first: the tie-break among equal ranks.
        self._entries: OrderedDict[TileKey, _CacheEntry] = OrderedDict()
        self._current_bytes = 0
        #: LFU-DA's age: the rank of the latest victim, never falling.
        self._age = 0.0
        #: (scope, SOT) -> the SOT's region memo: {piece: (plan, frame lists,
        #: regions)}; see :meth:`memo`.
        self._memos: dict[tuple[str, int], weakref.WeakKeyDictionary] = {}
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
                return None
            entry.count += 1
            entry.priority = self._age + entry.count
            self._entries.move_to_end(key)
            return entry.frames

    def held(self, key: TileKey, token: Sequence[int]) -> list[np.ndarray] | None:
        """The frames held for ``key`` at whatever depth, when they were
        decoded from the bitstream ``token`` names — else None.  Not a read:
        no count or rank moves."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.frames if entry is not None and entry.token == tuple(token) else None

    def put(
        self,
        key: TileKey,
        frames: list[np.ndarray],
        token: Sequence[int],
    ) -> bool:
        """Store reconstructions (read-only frames, see the module docstring);
        returns False when they exceed the capacity.

        A re-put of the decode held under ``key`` (a resumed, deeper decode of
        the same bitstream) keeps its read count."""
        nbytes = sum(int(frame.nbytes) for frame in frames)
        if nbytes > self.capacity_bytes:
            return False
        entry = _CacheEntry(frames=list(frames), token=tuple(token), nbytes=nbytes)
        with self._lock:
            old = self._entries.get(key)
            self._memos.pop(key[:2], None)
            if old is not None:
                entry.count = old.count if old.token == entry.token else 1
                self._remove(key)
            entry.priority = self._age + entry.count
            self._entries[key] = entry
            self._current_bytes += nbytes
            self.stats.insertions += 1
            if self._current_bytes <= self.capacity_bytes:
                return True
            # Lowest rank first, oldest first among ties (the sort is stable),
            # never the entry just put: it is last in the order.
            others = islice(self._entries.items(), len(self._entries) - 1)
            for victim_key, victim in sorted(others, key=lambda item: item[1].priority):
                if self._current_bytes <= self.capacity_bytes:
                    break
                del self._entries[victim_key]
                self._memos.pop(victim_key[:2], None)
                self._age = max(self._age, victim.priority)
                self._current_bytes -= victim.nbytes
                self.stats.evictions += 1
                self.stats.bytes_evicted += victim.nbytes
        return True

    def demote(self, key: TileKey) -> None:
        """Rank ``key``'s entry, if held, below every other until its next
        put or hit: the next eviction takes it first."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.priority = float("-inf")

    # ------------------------------------------------------------------
    # The region memo
    # ------------------------------------------------------------------
    def memo(self, scope: str, sot_index: int) -> weakref.WeakKeyDictionary:
        """The region memo of one SOT, made if it has none: piece -> (plan,
        frame lists, regions).

        Take it *before* looking up the tiles an entry is built from, and
        file the entry in it.  A drop in between (an eviction, say, that let
        one of those frames go) has detached it from the cache, so the entry
        dies with the caller's reference to it.
        """
        memo = self._memos.get((scope, sot_index))
        if memo is None:
            with self._lock:
                memo = self._memos.setdefault((scope, sot_index), weakref.WeakKeyDictionary())
        return memo

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
            self._memos.pop((scope, sot_index), None)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._memos.clear()
            self._current_bytes = 0
            self._age = 0.0

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

    def _remove(self, key: TileKey) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._current_bytes -= entry.nbytes
            self._memos.pop(key[:2], None)
