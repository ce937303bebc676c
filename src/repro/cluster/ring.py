"""Consistent-hash ring mapping ``(video, SOT)`` keys to shard names.

The cluster partitions work at SOT granularity: every ``(video, sot_index)``
pair hashes to a point on a ring of 2**64 positions, and the key's owner is
the first shard *virtual node* at or clockwise of that point.  Each shard
contributes ``vnodes`` virtual nodes (its name hashed with a per-vnode salt)
so ownership interleaves finely around the ring; with V vnodes per shard the
per-shard load concentrates around 1/N with variance shrinking as V grows.

The property the cluster leans on holds between two rings: **the ring over
N+1 shards gives the extra shard ~1/(N+1) of the keys of the ring over N**
— only the arcs the extra shard's vnodes capture change owner, and every
moved key moves *to* it.  A modulo partition would reshuffle nearly
everything, invalidating every shard's warm cache on each topology change;
the ring keeps N shards' caches intact.

Hashing is ``hashlib.blake2b`` (8-byte digest), never Python's builtin
``hash`` — that is salted per process (``PYTHONHASHSEED``), and a ring whose
placement differs between the router and a test oracle, or between two
router processes, is useless.

Replication walks clockwise from the owner collecting the next distinct
shards (``nodes_for``), so replicas are deterministic, distinct, and stable
under unrelated membership changes.  A ring is immutable once built, so
any number of threads may look keys up at once.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable

__all__ = ["HashRing", "sot_key"]


def sot_key(video: str, sot_index: int) -> str:
    """The ring key for one ``(video, SOT)`` — the cluster's placement unit."""
    return f"{video}\x00{sot_index}"


def _hash64(data: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent hashing with virtual nodes over a fixed set of shards."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        nodes = set(nodes)
        self._count = len(nodes)
        # Every vnode's (position, shard), sorted: two vnodes on one 64-bit
        # position (vanishingly unlikely) are ordered by shard name, so
        # placement never depends on the order the shards were given in.
        table = sorted(
            (_hash64(f"{node}\x00vnode\x00{i}"), node)
            for node in nodes
            for i in range(vnodes)
        )
        #: Ring positions and the shard owning each (bisect-searchable).
        self._points = [point for point, _ in table]
        self._owners = [owner for _, owner in table]

    def node_for(self, key: Hashable) -> str:
        """The shard owning ``key`` — the first vnode clockwise of its hash."""
        return self.nodes_for(key, 1)[0]

    def nodes_for(self, key: Hashable, count: int) -> list[str]:
        """The owner plus the next ``count - 1`` distinct shards clockwise.

        This is the key's replica set (preference order: the true owner
        first).  ``count`` above the member count returns every member.
        """
        if not self._count:
            raise KeyError("the ring has no nodes")
        count = min(count, self._count)
        start = bisect.bisect_right(self._points, _hash64(str(key)))
        owners: list[str] = []
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in owners:
                owners.append(owner)
                if len(owners) == count:
                    break
        return owners
