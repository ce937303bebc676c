"""Cluster scaling: QPS from 1 → 4 shard processes on a mixed workload.

A single ``TasmServer`` owns one decode cache, and a working set larger
than it thrashes: every query pays its ~50ms-per-SOT decode again.  The
cluster layer's claim is that the consistent-hash ring turns N shards into
one *aggregate* cache — each shard serves (and therefore caches) only its
~1/N share of the ``(video, SOT)`` keyspace, so the same per-shard budget
that thrashes on one shard holds the whole working set at four.  This is
the scaling axis that survives any host: it comes from cache partitioning,
not CPU count, so a single-core CI runner measures the same effect as a
many-core box (where scatter-gather decode parallelism stacks on top).

This benchmark stands up a real ``ClusterSupervisor`` cluster (separate
processes, real sockets), sizes each shard's decode cache to ~3/4 of the
mixed workload's measured decoded working set, and drives it with
concurrent clients — each on its own video, so shard-side batch coalescing
cannot collapse the work — replaying single-label, multi-label, and
temporal-window queries.  Reported QPS per shard count is steady-state:
placement, connections, and lazy tile encode are warmed untimed.

Acceptance (the ISSUE's bar): **≥ 2.5x QPS at 4 shards versus 1**.  CI
smoke-runs the sweep with ``BENCH_CLUSTER_SHARDS=1,2``, where the check is
monotonicity only.
"""

from __future__ import annotations

import os
import threading
import time

from repro.analysis import format_table
from repro.cluster import ClusterRouter, ClusterSupervisor, SceneDataset

from _bench_utils import emit_bench, print_section

SHARD_COUNTS = tuple(
    int(token)
    for token in os.environ.get("BENCH_CLUSTER_SHARDS", "1,2,4").split(",")
    if token.strip()
)
CLIENTS = 6
#: Fixed-duration closed loop rather than fixed query counts: every client
#: stays active for the whole timed window, so a single shard faces steady
#: cache contention from all six streams throughout.  (With fixed rounds the
#: cache-lucky clients finish early and the uncontended tail flatters the
#: 1-shard number.)
DURATION_SECONDS = 3.0
#: One video per client: at any instant every client is scanning a
#: *different* video, so the shard servers' batch coalescing (which makes
#: identical concurrent queries nearly free) cannot collapse the workload.
#: 40 frames at one-second GOPs → 4 SOTs per video, 24 cache keys overall.
DATASET = SceneDataset(
    names=tuple(f"cluster-bench-{index}" for index in range(6)),
    width=1920,
    height=1440,
    frame_count=40,
    frame_rate=10,
)
#: Per-shard decode cache: ~2/3 of the workload's decoded working set
#: (24 SOT entries x ~27.6 MiB = ~663 MiB).  One shard serves all 24 keys —
#: they never fit, so every batch re-decodes its clients' union of SOTs; at
#: 2+ shards each ring share (<= ~55% of the keyspace even at worst-case
#: imbalance) fits entirely, so scans serve from the aggregate cluster cache.
SHARD_CACHE_BYTES = 448 * 1024 * 1024


def _mixed_queries(frame_count: int):
    """The mixed workload: hot single labels, label sets, temporal windows."""
    half = frame_count // 2
    quarter = frame_count // 4
    return [
        ("car", None, None),
        (["car", "person"], None, None),
        ("person", 0, half),
        ("sign", half, frame_count),
        (["person", "sign"], None, None),
        ("car", quarter, quarter + half),
    ]


def _client_plan(client: int):
    """One client's session: the mixed queries, all against the client's own
    video.  Pinning client → video keeps the six query streams interleaving
    through the shards: no two clients ever share a video (so batch
    coalescing can't merge their decodes), and a lone shard's LRU sees five
    competing streams between any client's consecutive queries."""
    queries = _mixed_queries(DATASET.frame_count)
    name = DATASET.names[client % len(DATASET.names)]
    return [(name, labels, start, stop) for labels, start, stop in queries]


def _run_cluster_workload(config, shards: int) -> dict:
    # R=1: each key has exactly one ring home, so the partition — and with
    # it each shard's cache working set — is deterministic run to run.  With
    # R=2 every key on a 2-shard cluster is replicated on both shards and
    # placement degrades to a load-snapshot coin flip that can lopside one
    # shard past its cache.  Replica failover has its own tests and bench.
    cluster_config = config.with_updates(
        decode_cache_bytes=SHARD_CACHE_BYTES,
        cluster_replication_factor=1,
    )
    with ClusterSupervisor(
        cluster_config, shards=shards, dataset=DATASET
    ) as supervisor:
        with ClusterRouter(
            supervisor.addresses, config=cluster_config, timeout=300.0
        ) as router:
            # Warm the shard connections, the video-info caches, and — the
            # expensive part — each shard's lazy tile encode of its share of
            # every video, so the timed window measures scan throughput.
            for name in DATASET.names:
                router.scan(name, "car")
            barrier = threading.Barrier(CLIENTS + 1)
            stop = threading.Event()
            completed = [0] * CLIENTS
            errors: list[BaseException] = []

            def run_client(client: int) -> None:
                try:
                    plan = _client_plan(client)
                    barrier.wait()
                    while not stop.is_set():
                        for name, labels, start, stop_frame in plan:
                            router.scan(
                                name,
                                labels,
                                frame_start=start,
                                frame_stop=stop_frame,
                            )
                            completed[client] += 1
                            if stop.is_set():
                                return
                except BaseException as error:  # noqa: BLE001 — reported below
                    errors.append(error)

            threads = [
                threading.Thread(
                    target=run_client,
                    args=(index,),
                    name=f"bench-client-{index}",
                )
                for index in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter()
            stop.wait(DURATION_SECONDS)
            stop.set()
            for thread in threads:
                thread.join()
            # The wall includes each client's final in-flight query, and the
            # counts include those queries — numerator and denominator agree.
            wall_seconds = time.perf_counter() - started
            assert not errors, errors
            total = sum(completed)
            return {
                "shards": shards,
                "clients": CLIENTS,
                "queries": total,
                "wall_seconds": round(wall_seconds, 3),
                "qps": round(total / wall_seconds, 2),
                "failovers": router.failovers_total,
            }


def test_cluster_scaling(config):
    """Acceptance: 4 shard processes serve the mixed workload at >= 2.5x the
    single-shard QPS (near-linear scatter-gather scaling)."""
    rows = [_run_cluster_workload(config, shards) for shards in SHARD_COUNTS]

    print_section(
        "Cluster scaling: QPS vs shard processes "
        f"({CLIENTS} closed-loop clients x {DURATION_SECONDS:g}s, "
        f"{len(_mixed_queries(DATASET.frame_count))} mixed queries cycled, "
        f"{SHARD_CACHE_BYTES // (1024 * 1024)} MiB decode cache per shard)"
    )
    print(format_table(rows))
    emit_bench("cluster_scaling", "qps_vs_shards", rows)

    by_shards = {row["shards"]: row for row in rows}
    assert not any(row["failovers"] for row in rows), (
        "a healthy sweep must not fail over",
        rows,
    )
    if 1 in by_shards and 4 in by_shards:
        speedup = by_shards[4]["qps"] / by_shards[1]["qps"]
        assert speedup >= 2.5, (
            f"4 shards delivered only {speedup:.2f}x the 1-shard QPS",
            rows,
        )
    if 1 in by_shards and 2 in by_shards:
        assert by_shards[2]["qps"] > by_shards[1]["qps"], (
            "2 shards must beat 1",
            rows,
        )
