"""Pipelined service throughput: the multiplexed wire and bounded streams.

Three claims of the pipelining PR, measured end to end:

* **Multiplexing pays.** One socket connection carrying N concurrent scans
  (tagged query ids, demultiplexed client-side) finishes a decode-bound
  workload faster than the same N scans issued back-to-back on that
  connection, because the server coalesces the concurrent scans into shared
  batches and the runner pool overlaps their execution — the wire is no
  longer the serialisation point.
* **The binary frame is cheaper than JSON+base64.** Pixel payloads ride as
  length-prefixed raw bytes; the old encoding inflated every pixel ~1.33x
  with base64 before wrapping it in JSON.
* **Buffers hold their bound.** A deliberately slow consumer never observes
  more than ``service_stream_buffer_chunks`` undelivered chunks server-side —
  the producer suspends instead of buffering without limit.

Three more from the flow-control PR:

* **Credits isolate streams.** A stalled consumer on one stream costs a fast
  stream on the same connection almost nothing — per-stream credits park only
  the stalled stream, where the old design wedged the shared wire.
* **Cancellation stops decode.** Abandoning a scan after its first chunk
  leaves most of its pixels undecoded; the freed runner serves the next scan.
* **Shared memory beats the socket same-host.** Pixels through the
  negotiated ring (descriptors only on the wire) move more bytes per second
  than the loopback socket path.

Results print in the same rows-of-dicts shape the other benchmarks use.
"""

from __future__ import annotations

import base64
import json
import threading
import time

from repro.analysis import format_table, prepare_tasm
from repro.datasets import visual_road_scene
from repro.service import RemoteTasmClient, ShmTransport, SocketTransport, TasmServer
from repro.service.transport import chunk_parts

from _bench_utils import emit_bench, print_section, served_count

CACHE_BYTES = 64 * 1024 * 1024
CONCURRENT_SCANS = (1, 4, 8)
#: Simulated per-SOT decode latency: makes decode the dominant cost so the
#: sequential-versus-multiplexed comparison measures scheduling, not noise.
SLEEP_PER_SOT_SECONDS = 0.004
STREAM_BUFFER_SWEEP = (1, 4)


def _video():
    return visual_road_scene(
        "pipelining-road", duration_seconds=6.0, frame_rate=10, seed=402
    )


def _scan_jobs(video, count: int) -> list[tuple[str, int | None, int | None]]:
    half = video.frame_count // 2
    jobs = [
        ("car", None, None),
        ("person", None, None),
        ("car", 0, half),
        ("person", half, video.frame_count),
        ("car", half // 2, half // 2 + half),
        ("person", 0, half),
        ("car", half, video.frame_count),
        ("person", half // 2, video.frame_count),
    ]
    return jobs[:count]


def _make_server(config, **overrides):
    video = _video()
    settings = {"decode_cache_bytes": CACHE_BYTES, **overrides}
    tasm = prepare_tasm(video, config.with_updates(**settings))
    original = tasm._decoder.prefetch_regions

    def slow_prefetch(sot, requests, scope):
        time.sleep(SLEEP_PER_SOT_SECONDS)
        return original(sot, requests, scope)

    tasm._decoder.prefetch_regions = slow_prefetch
    return TasmServer(tasm), video


def _run_multiplexed(config, scans: int, concurrent: bool) -> dict:
    server, video = _make_server(config)
    jobs = _scan_jobs(video, scans)
    results: dict[int, object] = {}
    errors: list[BaseException] = []
    with server:
        with SocketTransport(server) as transport:
            with RemoteTasmClient(transport.address) as client:
                started = time.perf_counter()
                if concurrent:
                    streams = [
                        client.scan_streaming(video.name, label, start, stop)
                        for label, start, stop in jobs
                    ]

                    def consume(index: int) -> None:
                        try:
                            results[index] = streams[index].result()
                        except BaseException as error:  # noqa: BLE001
                            errors.append(error)

                    workers = [
                        threading.Thread(target=consume, args=(index,))
                        for index in range(len(jobs))
                    ]
                    for worker in workers:
                        worker.start()
                    for worker in workers:
                        worker.join(timeout=300)
                else:
                    for index, (label, start, stop) in enumerate(jobs):
                        results[index] = client.scan(video.name, label, start, stop)
                wall_seconds = time.perf_counter() - started
    # Read once the runners are joined, so no batch is still merging.
    stats = server.stats()
    batches = served_count(server, "tasm_batches_executed_total")
    assert not errors, errors
    return {
        "scans": scans,
        "mode": "multiplexed" if concurrent else "sequential",
        "wall_seconds": round(wall_seconds, 3),
        "qps": round(scans / wall_seconds, 1),
        "batches": batches,
        "pixels_decoded": stats.pixels_decoded,
        "results": results,
    }


def test_multiplexed_connection_beats_sequential_requests(config):
    rows = []
    comparisons = []
    for scans in CONCURRENT_SCANS:
        sequential = _run_multiplexed(config, scans, concurrent=False)
        multiplexed = _run_multiplexed(config, scans, concurrent=True)
        # Identical results either way, job by job.
        for index in range(scans):
            ours = multiplexed["results"][index]
            theirs = sequential["results"][index]
            assert len(ours.regions) == len(theirs.regions)
            for got, want in zip(ours.regions, theirs.regions):
                assert got.frame_index == want.frame_index
                assert (got.pixels == want.pixels).all()
        comparisons.append((sequential, multiplexed))
        for row in (sequential, multiplexed):
            row.pop("results")
            rows.append(row)

    print_section(
        "One connection, N scans: sequential requests vs multiplexed query ids "
        f"({SLEEP_PER_SOT_SECONDS * 1000:.0f} ms simulated decode per SOT)"
    )
    print(format_table(rows))
    emit_bench("service_pipelining", "multiplexing", rows)

    for sequential, multiplexed in comparisons:
        if sequential["scans"] == 1:
            continue  # nothing to overlap
        assert multiplexed["wall_seconds"] < sequential["wall_seconds"], (
            "concurrent scans on one connection must beat sequential requests",
            sequential,
            multiplexed,
        )
        # Coalescing shares the decode work sequential requests repay per scan.
        assert multiplexed["pixels_decoded"] <= sequential["pixels_decoded"], (
            sequential,
            multiplexed,
        )


def test_binary_pixel_frames_cost_less_than_json_base64(config):
    """The retired wire format, reconstructed for comparison: pixels as
    base64 inside JSON versus the binary chunk frame now on the wire."""
    server, video = _make_server(config)
    with server:
        result = server.connect().scan(video.name, "car")
    regions = result.regions[:64]
    header, _, pixel_total = chunk_parts(1, 0, regions)
    # A chunk frame is the binary chunk header, then the pixels.
    binary_bytes = len(header) + pixel_total
    legacy = json.dumps(
        {
            "type": "partial",
            "sot_index": 0,
            "regions": [
                {
                    "frame_index": region.frame_index,
                    "region": [0, 0, 0, 0],
                    "label": region.label,
                    "shape": list(region.pixels.shape),
                    "dtype": str(region.pixels.dtype),
                    "pixels": base64.b64encode(region.pixels.tobytes()).decode("ascii"),
                }
                for region in regions
            ],
        },
        separators=(",", ":"),
    ).encode("utf-8")

    pixel_bytes = sum(region.pixels.nbytes for region in regions)
    rows = [
        {
            "encoding": "binary frame",
            "payload_bytes": binary_bytes,
            "overhead_vs_pixels": round(binary_bytes / pixel_bytes, 3),
        },
        {
            "encoding": "JSON+base64",
            "payload_bytes": len(legacy),
            "overhead_vs_pixels": round(len(legacy) / pixel_bytes, 3),
        },
    ]
    print_section(
        f"Wire cost of one {len(regions)}-region chunk ({pixel_bytes} pixel bytes)"
    )
    print(format_table(rows))
    emit_bench("service_pipelining", "wire_cost", rows)
    assert binary_bytes < len(legacy) * 0.8, (
        "the binary frame must undercut JSON+base64 by well over base64's "
        "4/3 inflation",
        rows,
    )


def test_stream_buffers_hold_their_bound(config):
    """A consumer sleeping between chunks: the producer must park at the
    configured bound, and the scan must still complete correctly."""
    rows = []
    for bound in STREAM_BUFFER_SWEEP:
        server, video = _make_server(config, service_stream_buffer_chunks=bound)
        with server:
            reference = server.tasm.scan(video.name, "car")
            stream = server.connect().scan_streaming(video.name, "car")
            peak = 0
            chunks = 0
            for _ in stream:
                peak = max(peak, stream.buffered_chunks + 1)  # +1: the popped one
                chunks += 1
                time.sleep(0.02)
            result = stream.result(timeout=60)
        assert len(result.regions) == len(reference.regions)
        rows.append(
            {
                "buffer_chunks": bound,
                "chunks_streamed": chunks,
                "peak_buffered": peak,
                "bounded": peak <= bound + 1,
            }
        )
    print_section("Per-stream buffering under a slow consumer (20 ms per chunk)")
    print(format_table(rows))
    emit_bench("service_pipelining", "slow_consumer_buffering", rows)
    for row in rows:
        assert row["bounded"], ("stream buffering exceeded its bound", rows)


def _wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _timed_scan(client, video, label) -> float:
    started = time.perf_counter()
    client.scan(video.name, label)
    return time.perf_counter() - started


def test_fast_stream_isolated_from_stalled_consumer(config):
    """Acceptance: a fast scan sharing the connection with a completely
    stalled stream stays close to its solo wall time — per-stream credits
    park the stalled stream, nothing else."""
    server, video = _make_server(config)
    with server, SocketTransport(server) as transport:
        with RemoteTasmClient(
            transport.address, stream_buffer_chunks=2, use_shm=False
        ) as client:
            solo_seconds = _timed_scan(client, video, "car")

    server, video = _make_server(config)
    with server, SocketTransport(server) as transport:
        with RemoteTasmClient(
            transport.address, stream_buffer_chunks=2, use_shm=False
        ) as client:
            stalled = client.scan_streaming(video.name, "person")
            # The stalled stream's credits are spent and the stream is parked
            # before the fast scan starts.
            assert _wait_until(lambda: stalled.buffered_chunks >= 2)
            shared_seconds = _timed_scan(client, video, "car")
            stalled.result()  # drain afterwards; credits resume the stream

    ratio = shared_seconds / solo_seconds
    rows = [
        {
            "solo_seconds": round(solo_seconds, 3),
            "shared_seconds": round(shared_seconds, 3),
            "ratio": round(ratio, 3),
        }
    ]
    print_section("Fast scan wall time: solo vs sharing the wire with a stalled stream")
    print(format_table(rows))
    emit_bench("service_pipelining", "head_of_line", rows)
    # ~10% is the steady-state claim; the bound leaves headroom for CI noise
    # on a sub-second measurement.
    assert ratio < 1.5, (
        "a stalled stream must not slow a fast stream on the same connection",
        solo_seconds,
        shared_seconds,
    )


def test_cancellation_stops_decode_promptly(config):
    """Cancel after the first chunk: most of the scan's pixels stay
    undecoded, and the freed runner serves the next scan normally."""
    server, video = _make_server(config)
    with server, SocketTransport(server) as transport:
        with RemoteTasmClient(transport.address, use_shm=False) as client:
            client.scan(video.name, "car")
            full_pixels = server.stats().pixels_decoded

    server, video = _make_server(config)
    with server, SocketTransport(server) as transport:
        with RemoteTasmClient(transport.address, use_shm=False) as client:
            stream = client.scan_streaming(video.name, "car")
            next(iter(stream))  # one GOP landed
            stream.close()  # CANCEL on the wire
            assert _wait_until(
                lambda: served_count(server, "tasm_queries_cancelled_total") >= 1
            ), "the scheduler never observed the cancellation"
            cancelled_pixels = server.stats().pixels_decoded
            client.scan(video.name, "person")  # the runner is free again

    fraction = cancelled_pixels / full_pixels
    rows = [
        {
            "full_scan_pixels": full_pixels,
            "cancelled_scan_pixels": cancelled_pixels,
            "fraction": round(fraction, 3),
        }
    ]
    print_section("Pixels decoded: full scan vs scan cancelled after one chunk")
    print(format_table(rows))
    emit_bench("service_pipelining", "cancellation", rows)
    assert fraction < 0.7, (
        "cancellation must stop decode well short of the full scan",
        full_pixels,
        cancelled_pixels,
    )


def _pixel_heavy_video():
    """A billboard-sized stationary object: every scan returns nearly the
    whole frame for 200 frames (~15 MB), so once the cache is warm the wire —
    not the decode — is the dominant cost."""
    from repro.video.synthetic import (
        ObjectTrack,
        SceneSpec,
        StationaryMotion,
        SyntheticVideo,
    )

    spec = SceneSpec(
        name="shm-billboard",
        width=384,
        height=224,
        frame_count=200,
        frame_rate=10,
        tracks=[
            ObjectTrack(
                label="billboard",
                width=368,
                height=208,
                motion=StationaryMotion(x=8.0, y=8.0),
                intensity=200,
            )
        ],
        noise_sigma=1.0,
        seed=77,
    )
    return SyntheticVideo(spec)


def test_shm_beats_socket_for_same_host_pixel_throughput(config):
    """Pixel bytes per second, warm cache (wire-bound): the shared-memory
    ring versus the loopback socket."""
    repeats = 3
    rows = []
    throughput: dict[str, float] = {}
    for mode in ("socket", "shm"):
        video = _pixel_heavy_video()
        tasm = prepare_tasm(
            video,
            config.with_updates(decode_cache_bytes=CACHE_BYTES),
        )
        server = TasmServer(tasm)
        transport_cls = ShmTransport if mode == "shm" else SocketTransport
        with server, transport_cls(server) as transport:
            with RemoteTasmClient(
                transport.address, use_shm=(mode == "shm")
            ) as client:
                warm = client.scan(video.name, "billboard")  # warms the cache
                payload_bytes = sum(region.pixels.nbytes for region in warm.regions)
                started = time.perf_counter()
                for _ in range(repeats):
                    client.scan(video.name, "billboard")
                wall = time.perf_counter() - started
                if mode == "shm":
                    assert client.shm_chunks_received > 0
        throughput[mode] = repeats * payload_bytes / wall / 1e6
        rows.append(
            {
                "path": mode,
                "payload_mb_per_scan": round(payload_bytes / 1e6, 2),
                "wall_seconds": round(wall, 3),
                "mb_per_second": round(throughput[mode], 1),
            }
        )
    print_section(
        f"Same-host pixel throughput, warm cache ({repeats} scans per path)"
    )
    print(format_table(rows))
    emit_bench("service_pipelining", "shm_throughput", rows)
    assert throughput["shm"] > throughput["socket"], (
        "the shared-memory path must move pixels faster than the loopback socket",
        rows,
    )
