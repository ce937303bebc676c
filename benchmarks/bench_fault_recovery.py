"""Fault recovery: throughput through a runner-kill / reconnect storm.

The fault-tolerance claim is that recovery is *cheap*: a storm of injected
batch crashes and connection drops — absorbed by each runner recovering its
own crashed batch, requeueing it with served SOTs skipped, and
:class:`~repro.service.RetryPolicy` clients reconnecting and resuming their
in-flight scans — must cost bounded wall-clock, not correctness.  This
benchmark runs an identical remote workload twice, fault-free and under a
seeded :class:`~repro.faults.FaultPlan` storm, checks every delivered result
byte-for-byte against a direct-TASM reference, reconciles the recovery
counters against what actually fired, and holds storm throughput to at least
``MIN_STORM_QPS_FRACTION`` of the fault-free run (the PR's acceptance check).

A second sweep prices the injection hooks themselves: an in-process workload
with no plan versus a plan whose every site has ``probability=0.0``.  Unset
hooks resolve to ``None`` at construction, so the two must be
indistinguishable — the chaos machinery rides along for free in production.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.analysis import format_table, prepare_tasm
from repro.datasets import visual_road_scene
from repro.faults import (
    FAULT_RUNNER_DEATH,
    FAULT_TRANSPORT_CUT,
    FAULT_TRANSPORT_DROP,
    FaultPlan,
    FaultSpec,
)
from repro.service import RemoteTasmClient, RetryPolicy, SocketTransport, TasmServer

from _bench_utils import emit_bench, print_section

#: Decoded bytes kept by the server's shared cache (64 MiB).
CACHE_BYTES = 64 * 1024 * 1024
CLIENTS = 4
QUERIES_PER_CLIENT = 8
LABELS = ("car", "person")
#: The acceptance floor: storm QPS as a fraction of fault-free QPS.
MIN_STORM_QPS_FRACTION = 0.70
#: Deterministic seeds for the storm plan and the clients' backoff jitter.
STORM_SEED = 4242


def _video():
    return visual_road_scene(
        "fault-recovery-road", duration_seconds=4.0, frame_rate=10, seed=917
    )


def _storm_plan() -> FaultPlan:
    """A bounded storm: transient faults the recovery machinery must absorb
    completely (``max_fires`` caps keep the workload terminating)."""
    return FaultPlan(
        [
            FaultSpec(FAULT_RUNNER_DEATH, probability=0.08, skip_first=4, max_fires=3),
            FaultSpec(FAULT_TRANSPORT_DROP, probability=0.01, skip_first=50, max_fires=3),
            FaultSpec(FAULT_TRANSPORT_CUT, probability=0.01, skip_first=120, max_fires=1),
        ],
        seed=STORM_SEED,
    )


def _assert_identical(actual, expected) -> None:
    assert actual.video == expected.video
    assert len(actual.regions) == len(expected.regions)
    for got, want in zip(actual.regions, expected.regions):
        assert got.frame_index == want.frame_index
        assert got.region == want.region
        assert got.label == want.label
        np.testing.assert_array_equal(got.pixels, want.pixels)


def _run_remote_workload(config, expected, fault_plan=None, retry=None) -> dict:
    """CLIENTS remote clients, each scanning QUERIES_PER_CLIENT label queries
    over the socket transport; every result is checked byte-for-byte."""
    video = _video()
    tasm = prepare_tasm(
        video,
        config.with_updates(
            decode_cache_bytes=CACHE_BYTES,
            service_max_batch=8,
            service_runners=2,
            # A storm must never quarantine: the same query absorbing every
            # runner death is a legitimate (if unlucky) draw.
            service_poison_query_kills=10,
            fault_plan=fault_plan,
        ),
    )
    barrier = threading.Barrier(CLIENTS)
    errors: list[BaseException] = []
    retries = [0] * CLIENTS

    def run_client(index: int) -> None:
        client = RemoteTasmClient(
            transport.address, timeout=60.0, use_shm=False, retry=retry
        )
        try:
            barrier.wait()
            for step in range(QUERIES_PER_CLIENT):
                label = LABELS[(index + step) % len(LABELS)]
                _assert_identical(client.scan(video.name, label), expected[label])
            retries[index] = client.retries_total
        except BaseException as error:  # noqa: BLE001
            errors.append(error)
        finally:
            client.close()

    with TasmServer(tasm) as server:
        transport = SocketTransport(server).start()
        try:
            threads = [
                threading.Thread(target=run_client, args=(index,))
                for index in range(CLIENTS)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            wall_seconds = time.perf_counter() - started
            scheduler = server._scheduler
            restarts = scheduler.runner_restarts
            resumes = scheduler.scan_resumes
        finally:
            transport.stop()
    assert not errors, errors
    queries = CLIENTS * QUERIES_PER_CLIENT
    fires = fault_plan.fires() if fault_plan is not None else {}
    return {
        "mode": "storm" if fault_plan is not None else "fault_free",
        "clients": CLIENTS,
        "queries": queries,
        "wall_seconds": round(wall_seconds, 3),
        "qps": round(queries / wall_seconds, 1),
        "runner_deaths": fires.get(FAULT_RUNNER_DEATH, 0),
        "wire_faults": fires.get(FAULT_TRANSPORT_DROP, 0)
        + fires.get(FAULT_TRANSPORT_CUT, 0),
        "runner_restarts": restarts,
        "scan_resumes": resumes,
        "client_retries": sum(retries),
    }


def test_fault_recovery_storm(config):
    """Acceptance: through a seeded runner-kill / reconnect storm the service
    keeps at least MIN_STORM_QPS_FRACTION of its fault-free throughput, every
    result stays byte-identical, and the recovery counters reconcile with the
    faults that actually fired."""
    video = _video()
    reference = prepare_tasm(video, config)
    expected = {label: reference.scan(video.name, label) for label in LABELS}

    baseline = _run_remote_workload(config, expected)
    plan = _storm_plan()
    retry = RetryPolicy(attempts=8, base_delay=0.02, max_delay=0.25, seed=STORM_SEED)
    storm = _run_remote_workload(config, expected, fault_plan=plan, retry=retry)
    rows = [baseline, storm]

    print_section(
        "Remote workload QPS, fault-free vs a seeded runner-kill / "
        f"reconnect storm ({CLIENTS} clients x {QUERIES_PER_CLIENT} queries, "
        "every result checked byte-for-byte)"
    )
    print(format_table(rows))
    emit_bench("fault_recovery", "storm_vs_fault_free", rows)

    fires = plan.fires()
    # The storm actually happened — a becalmed plan proves nothing.
    assert fires[FAULT_RUNNER_DEATH] > 0, fires
    assert storm["wire_faults"] > 0, fires
    # Reconciliation: each injected death produced exactly one recovered
    # batch, and clients never reconnected more often than the wire broke.
    assert storm["runner_restarts"] == fires[FAULT_RUNNER_DEATH], (storm, fires)
    assert storm["client_retries"] <= storm["wire_faults"], (storm, fires)
    assert storm["qps"] >= MIN_STORM_QPS_FRACTION * baseline["qps"], (
        f"storm throughput fell below {MIN_STORM_QPS_FRACTION:.0%} of fault-free",
        rows,
    )


def _run_hook_overhead_workload(config, fault_plan=None) -> dict:
    """The in-process workload pricing the injection hooks: no remote wire,
    warm-path scans where per-hook cost would be most visible."""
    video = _video()
    tasm = prepare_tasm(
        video,
        config.with_updates(
            decode_cache_bytes=CACHE_BYTES,
            fault_plan=fault_plan,
        ),
    )
    with TasmServer(tasm) as server:
        client = server.connect()
        for label in LABELS:  # warm the cache so the sweep times hooks, not IO
            client.scan(video.name, label)
        queries = CLIENTS * QUERIES_PER_CLIENT
        started = time.perf_counter()
        for step in range(queries):
            client.scan(video.name, LABELS[step % len(LABELS)])
        wall_seconds = time.perf_counter() - started
    return {
        "mode": "armed_never_fires" if fault_plan is not None else "no_plan",
        "queries": queries,
        "wall_seconds": round(wall_seconds, 3),
        "qps": round(queries / wall_seconds, 1),
    }


def test_hooks_are_free_when_unset(config):
    """A probability-0.0 plan arms every server-side hook without ever
    firing; against no plan at all (hooks resolve to ``None``) the difference
    must be noise, not a tax."""
    armed = FaultPlan(
        [
            FaultSpec(FAULT_RUNNER_DEATH, probability=0.0),
            FaultSpec(FAULT_TRANSPORT_DROP, probability=0.0),
            FaultSpec(FAULT_TRANSPORT_CUT, probability=0.0),
        ],
        seed=STORM_SEED,
    )
    rows = [
        _run_hook_overhead_workload(config),
        _run_hook_overhead_workload(config, fault_plan=armed),
    ]

    print_section(
        "Injection-hook overhead: warm in-process scans with no plan vs an "
        "armed plan that never fires"
    )
    print(format_table(rows))
    emit_bench("fault_recovery", "hook_overhead", rows)

    assert armed.total_fires() == 0
    # Generous bound — this guards against a pathological hot-path regression
    # (per-chunk locking, allocation), not timer noise.
    assert rows[1]["qps"] >= 0.6 * rows[0]["qps"], rows
