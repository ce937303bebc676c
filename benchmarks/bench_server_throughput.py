"""Server throughput: queries/sec and cache hit rate vs concurrent clients.

The service layer's claim is that concurrency *helps* instead of thrashing:
queries from concurrent clients that queue behind busy batch runners
coalesce into shared ``execute_batch`` calls against one process-wide,
single-flight tile cache, so N clients asking overlapping questions decode
far fewer pixels than N independent TASM instances would.  This benchmark
sweeps the number of concurrent clients (1 / 4 / 16) and reports served
queries/sec, cache hit rate, batches, and decoded pixels versus the
independent-instances baseline, in the same rows-of-dicts shape
``bench_batch_cache.py`` emits.

Every configuration must decode strictly fewer pixels than its clients would
independently; the multi-client rows are the PR's acceptance check.

A second sweep pins the batch-runner pool: with per-SOT decode latency made
explicit (a fixed sleep per prefetch against a pre-warmed cache, so every
configuration does *identical* decode work), ``service_runners > 1`` must
finish the same workload in less wall-clock time than a single runner —
batches executing concurrently, not decoding any less.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis import format_table, prepare_tasm
from repro.core.query import Query
from repro.datasets import visual_road_scene
from repro.service import TasmServer

from _bench_utils import emit_bench, print_section, served_count

#: Decoded bytes kept by the server's shared cache (64 MiB).
CACHE_BYTES = 64 * 1024 * 1024
CLIENT_COUNTS = (1, 4, 16)
QUERIES_PER_CLIENT = 6
#: Runner-pool sweep: serial scheduler versus pools of batch runners.
RUNNER_COUNTS = (1, 2, 4)
PIPELINE_CLIENTS = 8
#: Simulated per-SOT decode latency injected for the runner sweep.
SLEEP_PER_SOT_SECONDS = 0.004


def _video():
    return visual_road_scene(
        "server-throughput-road", duration_seconds=6.0, frame_rate=10, seed=917
    )


def _client_queries(video, client_index: int) -> list[Query]:
    """One client's session: hot objects and overlapping windows, offset per
    client so the working sets overlap without being identical."""
    half = video.frame_count // 2
    shift = (client_index * 5) % half
    return [
        Query.select("car", video.name),
        Query.select_range("car", video.name, shift, shift + half),
        Query.select("person", video.name),
        Query.select_range("person", video.name, half - shift, video.frame_count - shift),
        Query.select("car", video.name),
        Query.select_any(["car", "person"], video.name),
    ][:QUERIES_PER_CLIENT]


def _hit_rate(stats) -> float:
    """The share of the server's tile lookups its cache served."""
    lookups = stats.cache_hits + stats.cache_misses
    return round(stats.cache_hits / lookups, 3) if lookups else 0.0


def _run_server_workload(config, clients: int) -> dict:
    tasm = prepare_tasm(
        _video(),
        config.with_updates(
            decode_cache_bytes=CACHE_BYTES,
            service_max_batch=max(clients * 2, 4),
        ),
    )
    barrier = threading.Barrier(clients)
    errors: list[BaseException] = []

    def run_client(index: int) -> None:
        try:
            client = server.connect()
            barrier.wait()
            for query in _client_queries(video, index):
                client.execute(query)
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    video = _video()
    with TasmServer(tasm) as server:
        threads = [
            threading.Thread(target=run_client, args=(index,))
            for index in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        wall_seconds = time.perf_counter() - started
    # Read once the runners are joined: a runner merges its batch after the
    # batch's streams finish.
    stats = server.stats()
    batches = served_count(server, "tasm_batches_executed_total")
    assert not errors, errors
    return {
        "clients": clients,
        "queries": clients * QUERIES_PER_CLIENT,
        "wall_seconds": round(wall_seconds, 3),
        "qps": round(clients * QUERIES_PER_CLIENT / wall_seconds, 1),
        "cache_hit_rate": _hit_rate(stats),
        "pixels_decoded": stats.pixels_decoded,
        "batches": batches,
    }


@pytest.fixture(scope="module")
def sequential_baseline(config):
    """Pixels per client-session on an independent, cacheless TASM (the
    paper's execution model); N independent clients cost N times this."""
    video = _video()
    reference = prepare_tasm(video, config)
    per_client = [
        sum(
            reference.execute(query).pixels_decoded
            for query in _client_queries(video, client_index)
        )
        for client_index in range(max(CLIENT_COUNTS))
    ]
    return per_client


def test_server_throughput_vs_clients(benchmark, config, sequential_baseline):
    rows = []
    for clients in CLIENT_COUNTS:
        independent_pixels = sum(sequential_baseline[:clients])
        row = _run_server_workload(config, clients)
        row["pixels_vs_independent"] = round(
            row["pixels_decoded"] / independent_pixels, 4
        )
        rows.append(row)

    benchmark(lambda: _run_server_workload(config, 4))

    print_section(
        "Served queries/sec and cache sharing vs concurrent clients "
        f"({QUERIES_PER_CLIENT} queries per client)"
    )
    print(format_table(rows))
    emit_bench("server_throughput", "clients", rows)

    for row in rows:
        independent = sum(sequential_baseline[: row["clients"]])
        # The acceptance criterion: shared serving always decodes strictly
        # fewer pixels than independent per-client TASM instances would.
        assert row["pixels_decoded"] < independent, row
        assert row["cache_hit_rate"] > 0.0, row
    # More clients must not decode more: overlap is shared, not re-paid.
    pixels = [row["pixels_decoded"] for row in rows]
    assert max(pixels) <= pixels[0] * 1.05, (
        "shared cache must keep decode work flat as clients scale",
        rows,
    )


def _run_runner_pool_workload(config, runners: int) -> dict:
    """One pipelining measurement: 8 clients against a pre-warmed server
    whose decoder charges a fixed latency per SOT visit.

    Pre-warming pins decode *work* to zero for every runner count, so the
    sweep isolates scheduling: one runner executes the batches one after
    another, a pool executes them concurrently.
    """
    video = _video()
    tasm = prepare_tasm(
        video,
        config.with_updates(
            decode_cache_bytes=CACHE_BYTES,
            service_max_batch=4,
            service_runners=runners,
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
    stats = server.stats()
    batches = served_count(server, "tasm_batches_executed_total")
    tasm._decoder.prefetch_regions = original
    assert not errors, errors
    queries = PIPELINE_CLIENTS * QUERIES_PER_CLIENT
    return {
        "runners": runners,
        "clients": PIPELINE_CLIENTS,
        "queries": queries,
        "wall_seconds": round(wall_seconds, 3),
        "qps": round(queries / wall_seconds, 1),
        "batches": batches,
        "pixels_decoded": stats.pixels_decoded,
        "cache_hit_rate": _hit_rate(stats),
    }


def test_runner_pool_overlaps_collection_with_execution(config):
    """Acceptance: at identical decode work (zero — the cache is pre-warmed),
    a pool of batch runners serves the same workload at higher QPS than a
    single runner, because batches execute while the next ones form."""
    rows = [_run_runner_pool_workload(config, runners) for runners in RUNNER_COUNTS]

    print_section(
        "Runner-pool pipelining: wall-clock and QPS vs service_runners "
        f"({PIPELINE_CLIENTS} clients, {SLEEP_PER_SOT_SECONDS * 1000:.0f} ms "
        "simulated decode per SOT, cache pre-warmed)"
    )
    print(format_table(rows))
    emit_bench("server_throughput", "runner_pool", rows)

    serial = rows[0]
    for row in rows:
        # Identical decode work: the warm cache serves every tile, whatever
        # the runner count — the sweep varies *scheduling* only.
        assert row["pixels_decoded"] == 0, rows
    pooled = rows[-1]
    assert pooled["wall_seconds"] < serial["wall_seconds"] * 0.85, (
        "a runner pool must execute batches concurrently",
        rows,
    )
