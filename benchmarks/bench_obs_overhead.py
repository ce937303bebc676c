"""Observability overhead: served QPS with metrics + tracing on versus off.

The observability layer (``repro.obs``) promises near-zero serving cost: the
hot paths touch lock-striped counters and append spans to per-query lists,
and a disabled server swaps in no-op instruments entirely.  This benchmark
prices that promise on the runner-sweep workload from
``bench_server_throughput.py`` — 8 concurrent clients against a pre-warmed
server whose decoder charges a fixed latency per SOT, so every run does
identical decode work and the comparison isolates the bookkeeping.

Acceptance: enabling observability costs less than ``OVERHEAD_BUDGET`` (3%)
of the disabled configuration's best-of-N QPS.

A second check exercises the full telemetry read path end to end: a remote
client scans over a socket, fetches its trace through the ``trace`` op, and
the trace's top-level spans must account for the query's wall latency.
"""

from __future__ import annotations

import threading
import time

from repro.analysis import format_table, prepare_tasm
from repro.service import RemoteTasmClient, SocketTransport, TasmServer

from _bench_utils import emit_bench, print_section
from bench_server_throughput import (
    CACHE_BYTES,
    PIPELINE_CLIENTS,
    QUERIES_PER_CLIENT,
    SLEEP_PER_SOT_SECONDS,
    _client_queries,
    _video,
)

#: Maximum QPS a fully-instrumented server may give up versus a disabled one.
OVERHEAD_BUDGET = 0.03
#: Runs per mode; the best run is compared (scheduler noise, not a mean).
REPEATS = 3
RUNNERS = 4


def _run_workload(config, observability: bool) -> dict:
    """One runner-sweep run (see ``_run_runner_pool_workload``), with the
    observability master switch set as requested."""
    video = _video()
    tasm = prepare_tasm(
        video,
        config.with_updates(
            decode_cache_bytes=CACHE_BYTES,
            service_max_batch=4,
            service_runners=RUNNERS,
            observability=observability,
        ),
    )
    all_queries = [
        query
        for index in range(PIPELINE_CLIENTS)
        for query in _client_queries(video, index)
    ]
    tasm.execute_batch(all_queries)  # warm every tile the workload touches
    original = tasm._decoder.prefetch_regions

    def slow_prefetch(sot, requests, scope):
        time.sleep(SLEEP_PER_SOT_SECONDS)
        return original(sot, requests, scope)

    tasm._decoder.prefetch_regions = slow_prefetch
    barrier = threading.Barrier(PIPELINE_CLIENTS)
    errors: list[BaseException] = []

    def run_client(index: int) -> None:
        try:
            client = server.connect()
            barrier.wait()
            for query in _client_queries(video, index):
                client.execute(query)
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    with TasmServer(tasm) as server:
        threads = [
            threading.Thread(target=run_client, args=(index,))
            for index in range(PIPELINE_CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        wall_seconds = time.perf_counter() - started
        snapshot = server.metrics_snapshot()
    tasm._decoder.prefetch_regions = original
    assert not errors, errors
    queries = PIPELINE_CLIENTS * QUERIES_PER_CLIENT
    if observability:
        # The instrumented run must have actually instrumented: every query
        # accounted for in both the counter and the latency histogram.
        completed = snapshot["tasm_queries_completed_total"]["values"][0]["value"]
        assert completed == queries, snapshot
        assert snapshot["tasm_query_seconds"]["values"][0]["count"] == queries
    else:
        assert snapshot == {}, "disabled observability must snapshot empty"
    return {
        "observability": "on" if observability else "off",
        "queries": queries,
        "wall_seconds": round(wall_seconds, 3),
        "qps": round(queries / wall_seconds, 1),
    }


def _best_of(config, observability: bool) -> dict:
    best = None
    for _ in range(REPEATS):
        row = _run_workload(config, observability)
        if best is None or row["qps"] > best["qps"]:
            best = row
    return best


def test_observability_overhead_under_budget(config):
    """Acceptance: the fully instrumented server keeps >= 97% of the
    disabled server's best-of-N QPS on the runner-sweep workload."""
    disabled = _best_of(config, observability=False)
    enabled = _best_of(config, observability=True)
    overhead = 1.0 - enabled["qps"] / disabled["qps"]
    rows = [
        disabled,
        enabled,
        {
            "observability": "overhead",
            "queries": "",
            "wall_seconds": "",
            "qps": f"{overhead * 100.0:+.2f}%",
        },
    ]

    print_section(
        "Observability overhead: runner-sweep QPS, metrics + tracing on vs off "
        f"(best of {REPEATS}, {PIPELINE_CLIENTS} clients, "
        f"{SLEEP_PER_SOT_SECONDS * 1000:.0f} ms simulated decode per SOT)"
    )
    print(format_table(rows))
    emit_bench(
        "obs_overhead",
        "qps_on_vs_off",
        {
            "disabled": disabled,
            "enabled": enabled,
            "overhead_fraction": round(overhead, 4),
            "budget_fraction": OVERHEAD_BUDGET,
        },
    )

    assert enabled["qps"] >= disabled["qps"] * (1.0 - OVERHEAD_BUDGET), (
        "observability must cost < "
        f"{OVERHEAD_BUDGET:.0%} QPS",
        rows,
    )


def test_remote_trace_accounts_for_wall_latency(config):
    """The telemetry read path end to end: a remote client's fetched trace
    must tile the observed query latency with its top-level spans."""
    video = _video()
    tasm = prepare_tasm(
        video, config.with_updates(decode_cache_bytes=CACHE_BYTES)
    )
    server = TasmServer(tasm).start()
    try:
        with SocketTransport(server) as transport:
            with RemoteTasmClient(transport.address) as client:
                started = time.perf_counter()
                client.scan(video.name, "car")
                wall_seconds = time.perf_counter() - started
                trace = client.traces(last=1)[0]
    finally:
        server.stop()

    top = {
        span["name"]: span["seconds"] for span in trace["spans"] if span["top"]
    }
    rows = [
        {
            "client_wall_ms": round(wall_seconds * 1000.0, 2),
            "trace_total_ms": round(trace["total_seconds"] * 1000.0, 2),
            "span_sum_ms": round(trace["span_seconds"] * 1000.0, 2),
            "queue_ms": round(top.get("queue", 0.0) * 1000.0, 2),
            "execute_ms": round(top.get("execute", 0.0) * 1000.0, 2),
        }
    ]
    print_section("Remote trace vs observed wall latency (one cold scan)")
    print(format_table(rows))
    emit_bench("obs_overhead", "remote_trace", rows)

    assert trace["status"] == "ok"
    # Top spans tile the server-side latency, which in turn lower-bounds the
    # client's measured wall clock (wire and client overhead sit on top).
    assert abs(trace["span_seconds"] - trace["total_seconds"]) <= (
        0.02 + 0.25 * trace["total_seconds"]
    ), rows
    assert trace["total_seconds"] <= wall_seconds + 0.02, rows
