"""The sharded, replicated TASM cluster layer.

One :class:`ClusterRouter` in front of N shard processes: a consistent-hash
ring (:class:`HashRing`) partitions ``(video, SOT)`` keys across shards with
replication, scans scatter via per-shard ``skip_sots`` and gather into one
merged stream, and the router is the one layer that recovers a scan whose
shard connection failed: it re-dials the shard, then moves the share to a
replica, resuming through ``skip_sots`` (see :mod:`repro.cluster.router`).  :class:`ClusterSupervisor`
launches shard processes for tests and benches.
"""

from .ring import HashRing, sot_key
from .router import ClusterRouter, ClusterScanStream
from .supervisor import ClusterSupervisor, SceneDataset, build_cluster_scene

__all__ = [
    "ClusterRouter",
    "ClusterScanStream",
    "ClusterSupervisor",
    "HashRing",
    "SceneDataset",
    "build_cluster_scene",
    "sot_key",
]
