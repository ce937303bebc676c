"""Consistent-hash ring mapping ``(video, SOT)`` keys to shard names.

The cluster partitions work at SOT granularity: every ``(video, sot_index)``
pair hashes to a point on a ring of 2**64 positions, and the key's owner is
the first shard *virtual node* at or clockwise of that point.  Each shard
contributes ``vnodes`` virtual nodes (its name hashed with a per-vnode salt)
so ownership interleaves finely around the ring; with V vnodes per shard the
per-shard load concentrates around 1/N with variance shrinking as V grows.

The property the cluster leans on: **adding a shard moves ~1/N of the
keys** — only the arcs the new shard's vnodes capture change owner, and
every moved key moves *to* the new shard.  A modulo partition would reshuffle
nearly everything, invalidating every shard's warm cache on each topology
change; the ring keeps N-1 shards' caches intact.

Hashing is ``hashlib.blake2b`` (8-byte digest), never Python's builtin
``hash`` — that is salted per process (``PYTHONHASHSEED``), and a ring whose
placement differs between the router and a test oracle, or between two
router processes, is useless.

Replication walks clockwise from the owner collecting the next distinct
shards (``nodes_for``), so replicas are deterministic, distinct, and stable
under unrelated membership changes.
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
    """Consistent hashing with virtual nodes.

    Not thread-safe by itself: the router mutates membership only under its
    own lock (topology changes are rare; lookups are frequent and read-only
    between them).
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self._vnodes = vnodes
        #: Sorted ring positions and the shard owning each (parallel lists,
        #: bisect-searchable).
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add_node(node)

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def _vnode_points(self, node: str) -> list[int]:
        return [_hash64(f"{node}\x00vnode\x00{i}") for i in range(self._vnodes)]

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for point in self._vnode_points(node):
            index = bisect.bisect_left(self._points, point)
            # An exact 64-bit collision between two shards' vnodes is
            # vanishingly unlikely; deterministic tie-break by name keeps
            # even that case stable across processes.
            if (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] <= node
            ):
                continue
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def node_for(self, key: Hashable) -> str:
        """The shard owning ``key`` — the first vnode clockwise of its hash."""
        owners = self.nodes_for(key, 1)
        return owners[0]

    def nodes_for(self, key: Hashable, count: int) -> list[str]:
        """The owner plus the next ``count - 1`` distinct shards clockwise.

        This is the key's replica set (preference order: the true owner
        first).  ``count`` above the member count returns every member.
        """
        if not self._nodes:
            raise KeyError("the ring has no nodes")
        count = min(count, len(self._nodes))
        start = bisect.bisect_right(self._points, _hash64(str(key)))
        owners: list[str] = []
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in owners:
                owners.append(owner)
                if len(owners) == count:
                    break
        return owners
