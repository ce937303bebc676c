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
regions built from them, a :class:`MemoisedRegions`.  The next serve still
looks up every tile — counts, ranks and its ``DecodeStats`` move as before —
and hands back the memoised regions when those lookups returned, by
identity, the same lists.  A SOT's memo is dropped in the same critical
section as anything that lets one of its entries go or replaces it: a put
over a held key, an eviction, :meth:`~TileDecodeCache.invalidate_sot`, a
token-mismatch removal, :meth:`~TileDecodeCache.clear`.  A put of a new key
lets nothing go, so it keeps the memo.  The decoder takes the memo before
its lookups, so what it files after a drop goes into a memo the cache no
longer holds.  So no memo the cache holds views a frame it has let go.  A
piece with a box across tiles, whose pixels are copied, is not memoised,
nor is one served in part from a batch warm's own frames.

Every byte the cache holds is counted.  A memoised piece sent again by a
serving layer is copied once, at that second send, into a wire form
(:meth:`MemoisedRegions.wire_form`: its record bytes and its pixels joined
into one buffer), which the cache charges to ``capacity_bytes``; a piece
sent once is copied into none.  A form is built only where it fits without
evicting a tile.  It is uncharged when its piece dies, and dropped with its
memo, so a re-tile never sends stale bytes.

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


class RegionMemo(weakref.WeakKeyDictionary):
    """One SOT's region memo: piece -> ``(plan, frame lists, regions)``."""

    def __init__(self, cache: "TileDecodeCache", key: tuple[str, int]):
        super().__init__()
        #: ``wired`` holds a finalizer per wire form the cache counts, on the
        #: form's piece: it uncharges the form when the piece, and its entry
        #: with it, dies.
        self.cache, self.key, self.wired = cache, key, []

    def file(self, piece, plan, frame_lists: list, regions) -> "MemoisedRegions":
        """File ``regions`` for ``piece``; returns them as the memo holds them."""
        memoised = MemoisedRegions(regions)
        memoised.memo, memoised.piece = weakref.ref(self), weakref.ref(piece)
        self[piece] = (plan, frame_lists, memoised)
        return memoised


class MemoisedRegions(tuple):
    """The regions a :class:`RegionMemo` filed for one piece, in result order:
    what a warm serve of the piece hands a serving layer as its chunk.
    ``memo`` and ``piece`` are weak references to that memo and piece;
    ``wire`` is the piece's wire form once the cache counts one, and
    ``sent`` whether the piece was sent before."""

    wire, sent = None, False

    def wire_form(self, nbytes: int, build):
        """The wire form ``build()`` makes, or None.  It is built at the
        piece's second send, once a repeat is seen, and only when its
        ``nbytes`` fit beside the tiles of a cache that holds the memo."""
        memo, sent, self.sent = self.memo(), self.sent, True
        return memo.cache._keep_wire(memo, self, nbytes, build) if sent and memo is not None else None


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
        #: (scope, SOT) -> the SOT's region memo; see :meth:`memo`.
        self._memos: dict[tuple[str, int], RegionMemo] = {}
        #: The bytes of wire forms whose pieces died, not yet uncharged:
        #: their finalizers run without the lock (see _settle).
        self._freed: list[int] = []
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
            self._settle()
            old = self._entries.get(key)
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
                self._drop_memo(victim_key[:2])
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
    def memo(self, scope: str, sot_index: int) -> RegionMemo:
        """The region memo of one SOT, made if it has none.

        Take it *before* looking up the tiles an entry is built from, and
        file the entry in it.  A drop in between (an eviction, say, that let
        one of those frames go) has detached it from the cache, so the entry
        dies with the caller's reference to it.
        """
        memo = self._memos.get((scope, sot_index))
        if memo is None:
            with self._lock:
                memo = self._memos.setdefault((scope, sot_index), RegionMemo(self, (scope, sot_index)))
        return memo

    def _keep_wire(self, memo: RegionMemo, regions: MemoisedRegions, nbytes: int, build):
        """``build()``, kept on ``regions`` and charged ``nbytes`` until their
        piece dies or ``memo`` drops; None, and nothing built, when the
        ``nbytes`` do not fit beside the tiles."""
        if self.current_bytes + nbytes > self.capacity_bytes:
            return None
        form = build()  # a copy, made outside the lock
        with self._lock:  # unsettled, the bytes held only read higher
            piece, fits = regions.piece(), self._current_bytes + nbytes <= self.capacity_bytes
            if fits and piece is not None and regions.wire is None and self._memos.get(memo.key) is memo:
                regions.wire = form
                finalizer = weakref.finalize(piece, self._freed.append, nbytes)
                memo.wired = [*(alive for alive in memo.wired if alive.alive), finalizer]
                self._current_bytes += nbytes
        return form

    def _settle(self) -> None:
        """Uncharge the wire forms that died with their pieces."""
        while self._freed:
            self._current_bytes -= self._freed.pop()

    def _drop_memo(self, key: tuple[str, int]) -> None:
        memo = self._memos.pop(key, None)
        for finalizer in getattr(memo, "wired", ()):
            held = finalizer.detach()  # None once the form's piece died
            if held is not None:
                memo[held[0]][2].wire = None
                self._current_bytes -= held[2][0]

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
            self._drop_memo((scope, sot_index))
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._memos):
                self._drop_memo(key)
            self._freed.clear()
            self._entries.clear()
            self._current_bytes = 0
            self._age = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        with self._lock:
            self._settle()
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
            self._drop_memo(key[:2])
