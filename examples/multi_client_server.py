"""A multi-client TASM server with streamed results.

Run with ``python examples/multi_client_server.py``.

A storage manager earns the name when many callers can lean on it at once.
This example stands up a :class:`~repro.service.server.TasmServer` — one
TASM, one process-wide tile cache, batch runners that coalesce whatever
queued while they were busy — and throws four concurrent clients with mixed
label predicates at it.  One client uses the *streaming* API to show the service
layer's latency story: the first SOT's results arrive while the rest of the
batch is still decoding, so time-to-first-result is a fraction of
time-to-complete.  A final section attaches a cross-process-style client
through the multiplexed socket transport and runs four scans concurrently
over one connection — tagged query ids on the wire, pixel payloads as raw
binary frames.
"""

from __future__ import annotations

import threading

from repro import CodecConfig, Query, TasmConfig, TasmServer
from repro.analysis import prepare_tasm
from repro.datasets import visual_road_scene
from repro.service import RemoteTasmClient, SocketTransport


def build_tasm(config: TasmConfig):
    video = visual_road_scene(duration_seconds=12.0, frame_rate=10, seed=7)
    tasm = prepare_tasm(video, config)
    # Encode up front so the latency numbers below show decode streaming,
    # not the one-time lazy encode of each SOT on first touch.
    tasm.video(video.name).materialise_all()
    return tasm, video


def main() -> None:
    codec = CodecConfig(gop_frames=10, frame_rate=10)
    config = TasmConfig(
        codec=codec,
        decode_cache_bytes=128 * 1024 * 1024,
        service_max_batch=16,
    )
    tasm, video = build_tasm(config)

    # The sessions four dashboard users might run: overlapping, not identical.
    half = video.frame_count // 2
    sessions = [
        [Query.select("car", video.name), Query.select("person", video.name)],
        [Query.select_range("car", video.name, 0, half), Query.select("car", video.name)],
        [Query.select("person", video.name), Query.select_any(["car", "person"], video.name)],
        [Query.select_range("person", video.name, half, video.frame_count),
         Query.select("car", video.name)],
    ]

    with TasmServer(tasm) as server:
        print(f"serving {video.name!r}: {video.frame_count} frames, "
              f"{tasm.video(video.name).sot_count} SOTs\n")

        # Client 0 streams: chunks arrive per SOT, as each warms...
        client = server.connect()
        stream = client.scan_streaming(video.name, "car")

        # ...while three more clients hammer the blocking API from their own
        # threads; queries that queue behind a busy runner share its next batch.
        def run_session(index: int) -> None:
            blocking_client = server.connect()
            for query in sessions[index]:
                result = blocking_client.execute(query)
                print(f"  client {index}: {query.describe()!r} -> "
                      f"{len(result.regions)} regions")

        threads = [
            threading.Thread(target=run_session, args=(index,))
            for index in range(1, len(sessions))
        ]
        for thread in threads:
            thread.start()

        first_latency = None
        chunks = 0
        for chunk in stream:
            chunks += 1
            if first_latency is None:
                first_latency = stream.first_chunk_at - stream.submitted_at
        result = stream.result()
        for thread in threads:
            thread.join()

        print(f"\nstreaming client: {len(result.regions)} regions in {chunks} chunks")
        print(f"  first-result latency: {first_latency * 1000:7.1f} ms")
        print(f"  full-batch latency:   {stream.total_seconds * 1000:7.1f} ms")
        print(f"  (first chunk after {first_latency / stream.total_seconds:.0%} "
              "of the wait)")

        # One socket connection, four scans in flight at once: the client
        # tags each request with a query id and demultiplexes the streamed
        # binary chunk frames as they interleave on the wire.
        with SocketTransport(server) as transport:
            with RemoteTasmClient(transport.address) as remote:
                remote_streams = [
                    remote.scan_streaming(video.name, label, start, stop)
                    for label, start, stop in (
                        ("car", None, None),
                        ("person", None, None),
                        ("car", 0, half),
                        ("person", half, video.frame_count),
                    )
                ]
                remote_results = [s.result() for s in remote_streams]
        print("\nmultiplexed socket client (one connection, 4 concurrent scans):")
        for stream_handle, scan in zip(remote_streams, remote_results):
            print(f"  query id {stream_handle.query_id}: "
                  f"{len(scan.regions)} regions of {scan.video!r}")

        # Counts live in the metrics registry; the decode work is stats().
        metrics = server.metrics_snapshot()

        def count(series: str) -> int:
            return int(metrics[series]["values"][0]["value"])

        stats = server.stats()
        lookups = stats.cache_hits + stats.cache_misses
        print(f"\nserver: {count('tasm_queries_completed_total')} queries in "
              f"{count('tasm_batches_executed_total')} batches, "
              f"cache hit rate {stats.cache_hits / max(1, lookups):.0%}")
        print(f"  decoded {stats.pixels_decoded:,} pixels; served "
              f"{stats.pixels_served_from_cache:,} from the shared cache")


if __name__ == "__main__":
    main()
