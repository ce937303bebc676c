"""The ``--trace`` run: per-layer metrics from spans, counters and a layer drill.

A traced run is an untraced repeat, a repeat with :class:`tracer.Tracer`
installed around every layer's public functions, the *drill*, and a second
untraced repeat.  The drill is a short, fixed exercise of each layer over this
run's own video, so that a workload which never touches a layer (``lib_cold``
has no cache, only ``cluster_warm`` has a wire) still reports what that layer
costs on its data.

Every metric has one rule.  ``*_per_op`` metrics count spans inside the timed
ops only (plus, on ``cluster_warm``, what the traced shards report).  Per-call
and per-unit costs use the timed ops' spans when the workload made such calls,
else the drill's, else set-up's (``source`` in :func:`derive`).  The rest are
measured directly by the drill or read from the servers' public
``traces()``/``metrics()`` ops.  Names and units are ``BENCHMARK.json``'s.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import zlib

from repro.cluster.router import ClusterRouter
from repro.core.cost import fit_cost_model
from repro.core.policies import IncrementalRegretPolicy
from repro.core.predicates import LabelPredicate, TemporalPredicate
from repro.core.query import Query, Workload
from repro.core.tasm import TASM
from repro.geometry import Rectangle
from repro.service.server import TasmServer
from repro.service.transport import RemoteTasmClient, ShmTransport, SocketTransport, chunk_parts
from repro.video.codec import TileCodec
from repro.workloads.runner import MeasuredEngine

import tracer as spans
from harness import run_repeat, verify
from measure import calibrate, percentile
from tracer import Tracer, merge_aggregates
from workloads import (
    FRAME_RATE,
    MIB,
    ROOT,
    all_detections,
    build_tiled_tasm,
    ledger_config,
    tiled_layouts,
)

UNITS = {
    metric["name"]: metric["unit"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}
#: The drill only ever touches this many leading SOTs, which bounds its cost.
DRILL_SOTS = 6
#: Most op time a library workload may spend outside every layer span.
UNATTRIBUTED_LIMIT = 0.15


def traced_run(workload) -> tuple[dict, dict, Tracer]:
    """``(per-layer metrics, verdict, tracer)`` for one workload."""
    # Untraced - traced - untraced, so slow drift of the host cancels out of
    # bench.trace_overhead_ratio.
    references = [run_repeat(workload)]
    tracer = Tracer().install()
    try:
        workload.trace_shards = True
        traced = run_repeat(workload, tracer, teardown=False)
        shard_traces = workload.shard_traces
        try:
            drilled = drill(workload, tracer)
        finally:
            workload.teardown()
    finally:
        tracer.uninstall()
    workload.trace_shards = False
    references.append(run_repeat(workload))
    aggregate = tracer.aggregate()
    for shard_trace in shard_traces:
        merge_aggregates(aggregate, shard_trace)
    verdict = verify(workload, [*references, traced])
    values = derive(workload, references, traced, drilled, aggregate, tracer)
    # Reconciliation: in-process ops must be covered by layer spans, or the
    # ledger is blind to where their time goes.  (A cluster op mostly waits.)
    if not workload.shard_traces and values["bench.unattributed_share"] > UNATTRIBUTED_LIMIT:
        verdict["correct"] = False
        verdict["problems"].append(
            f"{values['bench.unattributed_share']:.0%} of op time is under no layer span"
        )
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in UNITS.items()}
    return metrics, verdict, tracer


# ----------------------------------------------------------------------
# The drill
# ----------------------------------------------------------------------
def drill_queries(video, count: int) -> list[Query]:
    """``count`` 2-second single-label windows plus one label-set scan, all
    inside the drill's leading SOTs."""
    labels = sorted(video.labels())
    frames = min(video.frame_count, DRILL_SOTS * FRAME_RATE)
    window = min(2 * FRAME_RATE, frames)
    queries = []
    for number in range(count):
        start = (number * 7) % max(1, frames - window + 1)
        queries.append(
            Query.select_range(labels[number % len(labels)], video.name, start, start + window)
        )
    queries.append(
        Query(video.name, LabelPredicate.any_of(labels[:2]), TemporalPredicate.between(0, frames))
    )
    return queries


def _timed(call, *args) -> float:
    started = time.perf_counter()
    call(*args)
    return time.perf_counter() - started


def _p50_ms(call, items, rounds: int) -> float:
    return statistics.median(_timed(call, item) for _ in range(rounds) for item in items) * 1e3


def _paired_p50_ms(first, second, items, rounds: int) -> tuple[float, float]:
    """p50 of two calls sampled alternately, so host drift hits both alike."""
    pairs = [(_timed(first, item), _timed(second, item)) for _ in range(rounds) for item in items]
    return tuple(statistics.median(side) * 1e3 for side in zip(*pairs))


def _wire_args(query: Query) -> tuple:
    return (query.video, sorted(query.objects), query.temporal.frame_start, query.temporal.frame_stop)


def _scanner(client):
    return lambda query: client.scan(*_wire_args(query))


def _first_chunk_ms(client, queries) -> float:
    """Median time from submitting a streaming scan to its first chunk."""
    waits = []
    for query in queries:
        started = time.perf_counter()
        first = None
        for _ in client.scan_streaming(*_wire_args(query)):
            if first is None:
                first = time.perf_counter() - started
        if first is not None:
            waits.append(first)
    return statistics.median(waits) * 1e3


def _span_p50_ms(traces, name: str) -> float:
    seconds = [s["seconds"] for trace in traces for s in trace["spans"] if s["name"] == name]
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def drill(workload, tracer: Tracer) -> dict:
    """Exercise every layer over the run's own video; the directly measured
    per-layer values (the spans it leaves behind feed :func:`derive`)."""
    video = workload.drill_video()
    queries = drill_queries(video, workload.scale.drill_queries)
    cached = _drill_storage(video, queries)
    layouts = tiled_layouts(cached.video(video.name))
    return {
        **_drill_codec(video, queries, layouts),
        **_drill_geometry(video, cached, layouts),
        **_drill_service(workload, tracer, cached, queries),
        **_drill_obs(video, cached, layouts, queries, workload.scale.drill_rounds),
        **calibrate(),
    }


def _drill_storage(video, queries) -> TASM:
    """storage / tiles / core: tile the leading SOTs of a cached TASM around
    every label, cost a known workload, and run W4-style policy steps on an
    untiled twin.  Only the spans matter."""
    name = video.name
    workload = Workload.from_queries("drill", queries)
    cached = TASM(ledger_config(decode_cache_bytes=256 * MIB))
    tiled = cached.ingest(video)
    cached.add_detections(name, all_detections(video))
    labels = cached.semantic_index.labels(name)
    for sot_index in range(min(DRILL_SOTS, tiled.sot_count)):
        layout = cached.layout_around(name, sot_index, labels)
        if not layout.is_untiled:
            cached.retile_sot(name, sot_index, layout)
    cached.optimize_for_workload(name, workload, apply=False)

    adaptive = build_tiled_tasm(video, ledger_config(decode_cache_bytes=16 * MIB), {})
    policy, engine = IncrementalRegretPolicy(), MeasuredEngine(adaptive)
    policy.prepare(adaptive, engine, name, workload)
    for query in queries:
        adaptive.execute(query)
        policy.on_query(adaptive, engine, name, query)
    return cached


def _drill_codec(video, queries, layouts) -> dict:
    """video / core.cost / exec on a cache-less twin."""
    out = {}
    cold = build_tiled_tasm(video, ledger_config(), layouts)
    tiled = cold.video(video.name)
    for sot_index in range(min(DRILL_SOTS, tiled.sot_count)):
        tiled.encoded_sot(sot_index)  # encode outside the timed scans
    samples = []
    for query in queries:
        started = time.perf_counter()
        result = cold.execute(query)
        samples.append((result.pixels_decoded, result.tiles_decoded, time.perf_counter() - started))
    fitted = fit_cost_model(samples)
    out["core.cost_model_rel_err"] = statistics.median(
        abs(fitted.predict(p, t) - seconds) / seconds for p, t, seconds in samples
    )
    eight = [number % len(queries) for number in range(8)]
    started = time.perf_counter()
    batch = cold.execute_batch([queries[number] for number in eight])
    out["exec.batch8_ms_per_query"] = (time.perf_counter() - started) / 8 * 1e3
    out["exec.batch8_pixels_ratio"] = batch.pixels_decoded / sum(samples[n][0] for n in eight)

    # zlib's share of decode: the same payloads through zlib.decompress alone.
    tiles = [tile for gop in tiled.encoded_sot(0).gops for tile in gop.tiles]
    codec = TileCodec(cold.config.codec)
    decode_seconds = sum(_timed(codec.decode_tile, tile) for tile in tiles)
    inflate_seconds = sum(
        _timed(zlib.decompress, payload) for tile in tiles for payload in tile.payloads
    )
    out["video.zlib_share"] = inflate_seconds / decode_seconds
    return out


def _drill_geometry(video, cached: TASM, layouts) -> dict:
    """geometry / tiles: pure functions over this run's boxes and layouts."""
    index = cached.semantic_index
    boxes = [
        entry.box
        for label in sorted(index.labels(video.name))
        for entry in index.lookup(video.name, label)
    ]
    frame = Rectangle(0, 0, video.width, video.height)
    tiles = [rect for layout in layouts.values() for rect in layout.tile_rectangles()][:64]
    started = time.perf_counter()
    for box in boxes:
        for rect in tiles:
            box.intersects(rect)
            box.intersection(rect)
        box.clamp(frame)
    rect_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for layout in layouts.values():
        for box in boxes[:200]:
            layout.tiles_intersecting(box)
    intersecting_seconds = time.perf_counter() - started
    return {
        "geometry.rect_op_ns": rect_seconds / (len(boxes) * (2 * len(tiles) + 1)) * 1e9,
        "tiles.tiles_intersecting_us": intersecting_seconds / (len(layouts) * len(boxes[:200])) * 1e6,
    }


def _drill_service(workload, tracer: Tracer, cached: TASM, queries) -> dict:
    """service / cluster: the same scans in process, over a socket, over shm
    and through a one-shard router.  On ``cluster_warm`` the remote end is the
    live shard 0 and the live router; otherwise the drill's own server."""
    out = {}
    rounds = workload.scale.drill_rounds
    threads_before = threading.active_count()
    with TasmServer(cached) as server, SocketTransport(server) as socket_transport, \
            ShmTransport(server) as shm_transport:
        client = server.connect()
        for query in queries:
            client.execute(query)  # warm the drill server's cache
        out["service.inproc_scan_ms_p50"] = _p50_ms(client.execute, queries, rounds)

        address = workload.shards[0].address if workload.shards else socket_transport.address
        with RemoteTasmClient(address, use_shm=False) as remote, \
                RemoteTasmClient(shm_transport.address, use_shm=True) as shm_remote, \
                ClusterRouter([address], ledger_config()) as one_shard:
            # Both remote clients run a reader thread in this process.
            out["service.threads_per_shard"] = threading.active_count() - threads_before - 2
            # A live shard's traces and batch sizes are the timed ops' own:
            # read them before the drill adds its scans.
            traces = remote.traces(last=256) if workload.shards else None
            sizes = remote.metrics()["tasm_batch_size"]["values"][0] if workload.shards else None
            for query in queries:
                remote.scan(*_wire_args(query))
            out["service.socket_scan_ms_p50"] = _p50_ms(_scanner(remote), queries, rounds)
            out["service.first_chunk_ms_p50"] = _first_chunk_ms(remote, queries)
            out["service.shm_scan_ms_p50"] = _p50_ms(_scanner(shm_remote), queries, rounds)

            subscans = -tracer.count("service.remote_scan")
            direct, routed = _paired_p50_ms(_scanner(remote), _scanner(one_shard), queries, rounds)
            subscans += tracer.count("service.remote_scan")
            out["cluster.router_overhead_ms_p50"] = routed - direct
            # Each pair is one direct scan plus whatever the router scattered.
            out["cluster.subscans_per_op"] = subscans / (rounds * len(queries)) - 1
            router = workload.router or one_shard
            out["cluster.first_chunk_ms_p50"] = _first_chunk_ms(router, queries)
            out["cluster.failovers"] = router.failovers_total

            traces = traces or remote.traces(last=256)
            out["service.queue_wait_ms_p50"] = _span_p50_ms(traces, "queue")
            out["service.execute_ms_p50"] = _span_p50_ms(traces, "execute")
            out["service.wire_ms_p50"] = _span_p50_ms(traces, "wire")
            sizes = sizes or remote.metrics()["tasm_batch_size"]["values"][0]
            out["service.batch_size_mean"] = sizes["sum"] / max(1, sizes["count"])

        regions = client.execute(queries[-1]).regions
        header, _, pixel_bytes = chunk_parts(0, 0, regions)
        # A chunk frame is a 4-byte header length, the JSON header, the pixels.
        out["service.wire_bytes_per_pixel_byte"] = (4 + len(header) + pixel_bytes) / pixel_bytes
    return out


def _drill_obs(video, cached: TASM, layouts, queries, rounds: int) -> dict:
    """obs: the same in-process scans with the observability surface on / off."""
    quiet = build_tiled_tasm(video, ledger_config(decode_cache_bytes=256 * MIB, observability=False), layouts)
    with TasmServer(cached) as observed, TasmServer(quiet) as unobserved:
        on_client, off_client = observed.connect(), unobserved.connect()
        for query in queries:
            off_client.execute(query)  # ``cached`` is warm already
        on, off = _paired_p50_ms(on_client.execute, off_client.execute, queries, rounds)
    return {"obs.overhead_ratio": on / off}


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
_ZERO = (0, 0.0, 0.0, 0.0)
CALLS, SECONDS, SELF, WORK = range(4)  # a tracer aggregate row


def derive(workload, references, traced, drilled: dict, aggregate: dict, tracer: Tracer) -> dict:
    ops = traced.ops
    untraced = [latency for reference in references for latency in reference.latencies]

    def op_row(name: str):
        return aggregate.get("ops", {}).get(name, _ZERO)

    def source(name: str):
        """The row a per-call cost is read from: ops, else drill, else set-up."""
        for phase in ("ops", "drill", "setup"):
            row = aggregate.get(phase, {}).get(name)
            if row is not None and row[CALLS]:
                return row
        return _ZERO

    def per_call_us(name: str) -> float:
        row = source(name)
        return row[SECONDS] / row[CALLS] * 1e6 if row[CALLS] else 0.0

    def per_work(name: str, field: int = SECONDS, scale: float = 1e6) -> float:
        row = source(name)
        return row[field] / row[WORK] * scale if row[WORK] else 0.0

    def work_per_call(name: str) -> float:
        row = source(name)
        return row[WORK] / row[CALLS] if row[CALLS] else 0.0

    # Policy time excludes the physical re-tiles it triggers (they are
    # storage's); which re-tiles ran under on_query needs the span tree.
    policy_phase = "ops" if op_row("core.policy")[CALLS] else "drill"
    policy_seconds = aggregate[policy_phase]["core.policy"][SECONDS]
    policy_steps = ops if policy_phase == "ops" else workload.scale.drill_queries + 1
    unattributed = op_seconds = 0.0
    for span in tracer.spans:
        if span[spans.NAME] == "storage.retile" and span[spans.PHASE] == policy_phase:
            parent = span[spans.PARENT]
            while parent is not None and parent[spans.NAME] != "core.policy":
                parent = parent[spans.PARENT]
            if parent is not None:
                policy_seconds -= span[spans.END] - span[spans.START]
        elif span[spans.NAME] == spans.OP_SPAN:
            seconds = span[spans.END] - span[spans.START]
            op_seconds += seconds
            unattributed += seconds - span[spans.CHILD]

    timed = traced.timed
    lookups = timed["cache_hits"] + timed["cache_misses"]
    split = [sum(shares) for shares in zip(*(s.values() for s in workload.sot_split.values()))]
    subscans = op_row("service.remote_scan")[CALLS]
    lock_seconds = op_row("concurrency.acquire_read")[SECONDS] + op_row("concurrency.release_read")[SECONDS]
    execute_self = op_row("exec.execute")[SELF] + op_row("exec.execute_batch")[SELF]

    return {
        **drilled,
        "index.lookup_us": per_call_us("index.lookup"),
        "index.lookups_per_op": op_row("index.lookup")[CALLS] / ops,
        "index.entries_per_lookup": work_per_call("index.lookup"),
        "index.add_us_per_entry": per_work("index.add_detections"),
        "exec.execute_self_ms_per_op": execute_self / ops * 1e3,
        "exec.cache.get_us": per_call_us("exec.cache.get"),
        "exec.cache.put_us": per_call_us("exec.cache.put"),
        "exec.cache.invalidate_sot_us": per_call_us("exec.cache.invalidate_sot"),
        "exec.cache.hit_ratio": timed["cache_hits"] / lookups if lookups else 0.0,
        "exec.cache.evictions_per_op": traced.snapshot["evictions"] / ops,
        "exec.cache.resident_mb": traced.snapshot["resident_bytes"] / MIB,
        "video.decode_tile_us_per_kpx": per_work("video.decode_tile", SECONDS, 1e9),
        "video.decode_tile_calls_per_op": op_row("video.decode_tile")[CALLS] / ops,
        "video.decode_regions_self_us_per_region": per_work("video.decode_regions", SELF),
        "video.regions_per_op": timed["regions"] / ops,
        # Tile reconstructions consulted (cache lookups, or plain decodes when
        # there is no cache) per region served.
        "video.tiles_per_region": (lookups or timed["tiles_decoded"]) / max(1, timed["regions"]),
        "video.encode_tile_us_per_kpx": per_work("video.encode_tile", SECONDS, 1e9),
        "tiles.partition_us": per_call_us("tiles.partition"),
        "tiles.partition_calls_per_op": op_row("tiles.partition")[CALLS] / ops,
        "tiles.tiles_per_layout": work_per_call("tiles.partition"),
        "storage.retile_ms_per_sot": per_work("storage.retile", SECONDS, 1e3),
        "storage.retiles_per_100_ops": op_row("storage.retile")[WORK] / ops * 100,
        "storage.encoded_sot_us": per_call_us("storage.encoded_sot"),
        "core.policy_self_ms_per_op": policy_seconds / policy_steps * 1e3,
        "core.estimate_cost_us": per_call_us("core.estimate_cost"),
        "core.estimate_calls_per_op": op_row("core.estimate_cost")[CALLS] / ops,
        "core.layout_around_us": per_call_us("core.layout_around"),
        "core.optimize_ms_per_sot": per_work("core.optimize", SECONDS, 1e3),
        "concurrency.read_lock_us_per_op": lock_seconds / ops * 1e6,
        "service.chunk_encode_us_per_region": per_work("service.chunk_encode"),
        "service.chunk_decode_us_per_region": per_work("service.chunk_decode"),
        "service.threads_per_shard": traced.snapshot.get(
            "threads_per_shard", drilled["service.threads_per_shard"]
        ),
        "service.refused_ops": workload.refused,
        "cluster.ring_nodes_for_us": per_call_us("cluster.ring_nodes_for"),
        "cluster.subscans_per_op": subscans / ops if subscans else drilled["cluster.subscans_per_op"],
        "cluster.shard_imbalance": max(split) / (sum(split) / len(split)) if split else 1.0,
        "bench.trace_overhead_ratio": statistics.median(traced.latencies)
        / statistics.mean(statistics.median(r.latencies) for r in references),
        "bench.unattributed_share": unattributed / op_seconds if op_seconds else 0.0,
        "bench.op_p95_ms": percentile(untraced, 0.95) * 1e3,
        "bench.op_p99_ms": percentile(untraced, 0.99) * 1e3,
    }
