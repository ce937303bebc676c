"""Tests for the TASM service layer (``repro.service``).

The contracts pinned here:

* results served through ``TasmServer`` — blocking, streaming, in-process or
  over the socket transport — are byte-identical to direct ``TASM.scan``;
* concurrent clients with overlapping queries share decodes: the server
  decodes strictly fewer pixels than the same queries on independent TASM
  instances would (the PR's acceptance criterion);
* streaming is real: the first SOT's results reach the client before the
  batch's last SOT has been decoded (asserted with an instrumented decoder
  that refuses to decode the last SOT until the first chunk has landed);
* batches form from backlog, not from a timer: a lone query on an idle
  server runs at once, and whatever queues behind a busy runner becomes the
  next batch, bounded by ``service_max_batch``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.config import TasmConfig
from repro.core.query import Query
from repro.errors import IndexError_, ServiceError
from repro.service import RemoteTasmClient, SocketTransport, TasmServer
from repro.video.codec import DecodeStats
from tests.test_service_flow_control import wait_until
from tests.test_exec_engine import (
    assert_read_only_pixels,
    assert_scan_results_identical,
    make_tasm,
    random_queries,
)

CACHE_BYTES = 64 * 1024 * 1024


def make_server(config: TasmConfig, **service_overrides) -> tuple[TasmServer, object]:
    """A started server over the tiny scene (caller must stop it)."""
    overrides = {"decode_cache_bytes": CACHE_BYTES, **service_overrides}
    tasm, video = make_tasm(replace(config, **overrides))
    return TasmServer(tasm).start(), video


@contextmanager
def held_runner(server: TasmServer, video):
    """Hold a ``service_runners=1`` server's only runner inside a first batch.

    Submits a blocker query (no matches, so it costs no decode) and parks the
    runner at its ``execute_batch``; until the block exits, everything
    submitted queues behind the busy runner, so the test — not thread timing
    — decides what the next batch holds.  Yields the list every
    ``execute_batch`` call appends its size to, the blocker's batch first.
    """
    tasm = server.tasm
    execute_batch = tasm.execute_batch
    entered, release = threading.Event(), threading.Event()
    sizes: list[int] = []

    def gated(queries, **kwargs):
        sizes.append(len(queries))
        if len(sizes) == 1:
            entered.set()
            assert release.wait(timeout=30), "the test never released the runner"
        return execute_batch(queries, **kwargs)

    tasm.execute_batch = gated
    blocker = server.submit(Query.select("unicorn", video.name))
    try:
        assert entered.wait(timeout=30), "the runner never took the blocker"
        yield sizes
    finally:
        release.set()
    assert blocker.result(timeout=30).is_empty()


class TestServerBasics:
    def test_client_scan_matches_direct_tasm(self, config):
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        try:
            client = server.connect()
            for label in ("car", "person", "sign"):
                assert_scan_results_identical(
                    client.scan(video.name, label), reference.scan(video.name, label)
                )
        finally:
            server.stop()

    def test_a_cacheless_tasm_is_served_as_it_was_built(self, config):
        tasm, video = make_tasm(config)  # decode_cache_bytes = 0
        with TasmServer(tasm) as server:
            served = server.connect().scan(video.name, "car")
        assert tasm.tile_cache is None and tasm._decoder.cache is None
        reference, _ = make_tasm(config)
        assert_scan_results_identical(served, reference.scan(video.name, "car"))

    def test_submit_after_stop_raises(self, config):
        server, video = make_server(config)
        server.stop()
        with pytest.raises(ServiceError):
            server.submit(Query.select("car", video.name))

    def test_no_match_query_completes_with_no_chunks(self, config):
        server, video = make_server(config)
        try:
            stream = server.connect().scan_streaming(video.name, "unicorn")
            assert list(stream) == []
            assert stream.result().is_empty()
        finally:
            server.stop()

    def test_a_refused_add_metadata_leaves_the_server_serving(self, config):
        """A client's box on a frame that is not a frame index raises in the
        caller; nothing is indexed and the next write and scan go through."""
        server, video = make_server(config)
        indexed = server.tasm.semantic_index.count(video.name)
        try:
            client = server.connect()
            for frame in (2.5, "2", -1):
                with pytest.raises(IndexError_):
                    client.add_metadata(video.name, frame, "landmark", 8, 8, 40, 40)
            assert server.tasm.semantic_index.count(video.name) == indexed
            client.add_metadata(video.name, 2, "landmark", 8, 8, 40, 40)
            assert [r.frame_index for r in client.scan(video.name, "landmark").regions] == [2]
        finally:
            server.stop()

    def test_restart_after_clean_stop(self, config):
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        server.stop()
        server.start()
        try:
            assert_scan_results_identical(
                server.connect().scan(video.name, "car"), reference.scan(video.name, "car")
            )
        finally:
            server.stop()

    def test_bad_query_does_not_poison_its_batch(self, config):
        """A batch-mate's unknown video must fail only that query."""
        server, video = make_server(config, service_runners=1)
        reference, _ = make_tasm(config)
        try:
            with held_runner(server, video) as sizes:
                good = server.submit(Query.select("car", video.name))
                bad = server.submit(Query.select("car", "no-such-video"))
            result = good.result(timeout=30)
            with pytest.raises(ServiceError):
                bad.result(timeout=30)
            assert sizes[:2] == [1, 2], "the two must have shared a batch"
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
        finally:
            server.stop()


class TestConcurrentClients:
    def test_concurrent_overlapping_clients_share_decodes(self, config):
        """Acceptance: >= 4 concurrent clients, byte-identical results, and
        strictly fewer pixels decoded than 4 independent TASM instances."""
        server, video = make_server(config, service_runners=1, service_max_batch=32)
        reference, _ = make_tasm(config)
        client_queries = [
            random_queries(video.name, video.frame_count, seed=seed, count=4)
            for seed in range(4)
        ]
        results: dict[int, list] = {}

        def run_client(index: int) -> None:
            client = server.connect()
            results[index] = [client.execute(query) for query in client_queries[index]]

        threads = [
            threading.Thread(target=run_client, args=(index,)) for index in range(4)
        ]
        try:
            # Every client's first query queues behind the held runner, so
            # the four provably overlap in one batch.
            with held_runner(server, video) as sizes:
                for thread in threads:
                    thread.start()
                assert wait_until(lambda: server.queue_depth == 4)
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "client thread deadlocked"
            assert sizes[:2] == [1, 4]
        finally:
            server.stop()

        # Byte-identical to the sequential oracle, per client, per query.
        independent_pixels = 0
        for index, queries in enumerate(client_queries):
            for result, query in zip(results[index], queries):
                expected = reference.execute(query)
                assert_scan_results_identical(result, expected)
                independent_pixels += expected.pixels_decoded

        served_pixels = server.stats().pixels_decoded
        assert served_pixels < independent_pixels, (
            f"shared serving must decode strictly fewer pixels "
            f"({served_pixels} vs {independent_pixels} independently)"
        )
        assert server.stats().cache_hits > 0

    def test_backlog_behind_a_busy_runner_forms_one_batch(self, config):
        """1 + N queries, the N arriving spread out while the only runner is
        busy: exactly two batches, of sizes 1 and N — arrival spacing (which a
        batching timer would have cut into several batches) does not matter."""
        server, video = make_server(config, service_runners=1)
        try:
            with held_runner(server, video) as sizes:
                streams = []
                for label in ("car", "person", "sign"):
                    streams.append(server.submit(Query.select(label, video.name)))
                    time.sleep(0.02)  # spread the arrivals: a batching timer would split them
            for stream in streams:
                stream.result(timeout=30)
            assert sizes == [1, 3]
            assert server.batches_executed == 2
        finally:
            server.stop()

    def test_max_batch_bounds_coalescing(self, config):
        server, video = make_server(config, service_runners=1, service_max_batch=2)
        try:
            with held_runner(server, video) as sizes:
                streams = [
                    server.submit(Query.select("car", video.name)) for _ in range(4)
                ]
            for stream in streams:
                stream.result(timeout=30)
            assert sizes == [1, 2, 2]
        finally:
            server.stop()

    def test_scheduler_owns_one_thread_per_runner(self, config):
        """The runners are the whole pool: a crashed batch is recovered by
        the runner that caught it, so no thread watches them."""
        before = set(threading.enumerate())
        server, _ = make_server(config, service_runners=3)
        try:
            names = sorted(t.name for t in set(threading.enumerate()) - before)
            assert names == [
                "tasm-batch-runner-0",
                "tasm-batch-runner-1",
                "tasm-batch-runner-2",
            ]
        finally:
            server.stop()


class TestStreaming:
    def test_first_chunk_arrives_before_last_sot_decodes(self, config):
        """The instrumented decoder refuses to prefetch the final SOT until
        the client has received the first SOT's chunk: if streaming were
        batch-at-the-end, this would deadlock (and the gate's timeout would
        fail the batch)."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        tasm = server.tasm
        last_sot = tasm.video(video.name).sot_count - 1
        assert last_sot >= 2, "the streaming test needs at least three SOTs"

        first_chunk_received = threading.Event()
        gate_ok = []
        original = tasm._decoder.prefetch_regions

        def instrumented(sot, requests, scope):
            if sot.sot_index == last_sot:
                gate_ok.append(first_chunk_received.wait(timeout=30))
            return original(sot, requests, scope)

        tasm._decoder.prefetch_regions = instrumented
        try:
            stream = server.connect().scan_streaming(video.name, "car")
            chunks = []
            for chunk in stream:
                chunks.append(chunk)
                first_chunk_received.set()
            result = stream.result()
        finally:
            tasm._decoder.prefetch_regions = original
            server.stop()

        assert gate_ok == [True], "first chunk must precede the last SOT's decode"
        assert len(chunks) == last_sot + 1, "one chunk per SOT the query touches"
        assert stream.first_chunk_at is not None
        assert_scan_results_identical(result, reference.scan(video.name, "car"))
        # The streamed chunks concatenate to exactly the final result.
        streamed = [region for chunk in chunks for region in chunk.regions]
        assert len(streamed) == len(result.regions)
        for ours, theirs in zip(streamed, result.regions):
            assert ours is theirs

    def test_stream_of_failed_batch_raises_service_error(self, config):
        server, video = make_server(config)
        tasm = server.tasm

        def explode(sot, requests, scope):
            raise RuntimeError("decoder exploded")

        tasm._decoder.prefetch_regions = explode
        try:
            stream = server.connect().scan_streaming(video.name, "car")
            with pytest.raises(ServiceError):
                list(stream)
            with pytest.raises(ServiceError):
                stream.result(timeout=10)
        finally:
            server.stop()


class TestServerCounts:
    def test_counters_and_decode_work(self, config):
        server, video = make_server(config)
        try:
            client = server.connect()
            client.scan(video.name, "car")
            client.scan(video.name, "car")
            client.scan(video.name, "person")
        finally:
            server.stop()  # joins the runners: every batch is merged
        stats = server.stats()
        assert server.queries_submitted == 3
        assert server.queries_completed == 3
        assert server.queue_depth == 0
        # The repeated car scan was served from the shared cache.
        assert stats.cache_hits > 0
        assert stats.pixels_decoded > 0
        assert stats.pixels_served_from_cache > 0

    def test_stats_read_after_a_result_counts_that_scan(self, config):
        """The batch's last stream finishes only once its batch is merged:
        a runner slow to return from ``execute_batch`` cannot make
        ``stats()`` miss the scan whose result is already in hand."""
        server, video = make_server(config)
        tasm, execute_batch = server.tasm, server.tasm.execute_batch
        expected = DecodeStats()

        def slow_to_return(queries, **kwargs):
            result = execute_batch(queries, **kwargs)
            expected.merge(result.stats)
            time.sleep(0.05)
            return result

        tasm.execute_batch = slow_to_return
        try:
            client = server.connect()
            for label in ("car", "person"):
                client.scan(video.name, label)
                assert server.stats() == expected
            assert expected.pixels_decoded > 0
        finally:
            server.stop()

    def test_a_batch_raising_after_its_last_query_is_done_still_returns_it(self, config):
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        tasm, execute_batch = server.tasm, server.tasm.execute_batch

        def raises_on_return(queries, **kwargs):
            execute_batch(queries, **kwargs)
            raise RuntimeError("after the last QueryDone")

        tasm.execute_batch = raises_on_return
        try:
            assert_scan_results_identical(
                server.connect().scan(video.name, "car"), reference.scan(video.name, "car")
            )
        finally:
            server.stop()


class TestSocketTransport:
    def test_remote_scan_matches_direct(self, config):
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    result = client.scan(video.name, "car")
                    assert_scan_results_identical(
                        result, reference.scan(video.name, "car")
                    )
                    ranged = client.scan(video.name, "person", frame_start=0, frame_stop=7)
                    from repro.core.predicates import TemporalPredicate

                    expected = reference.scan(
                        video.name, "person", TemporalPredicate.between(0, 7)
                    )
                    assert_scan_results_identical(ranged, expected)
                    # The done frame names DecodeStats' fields one by one: a
                    # warm remote scan reports what a warm in-process one does.
                    local = server.connect().scan(video.name, "car")
                    assert client.scan(video.name, "car").stats == local.stats
                    assert local.stats.cache_hits > 0 == local.stats.pixels_decoded
        finally:
            server.stop()

    def test_a_scan_the_predicates_refuse_never_joins_a_batch(self, config):
        """A wire scan with a fractional frame bound, or a label that is not
        a string, gets its error reply before admission, so the scans queued
        beside it form the batch they would have formed without it.  (The
        fractional bound was once admitted, failed planning inside the batch
        and sent every neighbour back as a singleton; ``[["car"]]`` was
        served as ``car``.)"""
        server, video = make_server(config, service_runners=1)
        reference, _ = make_tasm(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address, use_shm=False) as client:
                    with held_runner(server, video) as sizes:
                        first = client.scan_streaming(video.name, "car")
                        refused = [
                            client.scan_streaming(video.name, "car", frame_start=2.5),
                            client.scan_streaming(video.name, [["car"]]),
                        ]
                        second = client.scan_streaming(video.name, "person")
                        for stream in refused:
                            with pytest.raises(ServiceError):
                                stream.result(timeout=30)
                        assert wait_until(lambda: server.queue_depth == 2)
                    for stream, label in ((first, "car"), (second, "person")):
                        assert_scan_results_identical(
                            stream.result(timeout=30), reference.scan(video.name, label)
                        )
            assert sizes == [1, 2]
            assert server.queries_submitted == 3, "the blocker and the two"
        finally:
            server.stop()

    def test_remote_streaming_delivers_per_sot_chunks(self, config):
        server, video = make_server(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    chunks = list(client.scan_streaming(video.name, "car"))
                    assert len(chunks) >= 2, "a multi-SOT scan must stream chunks"
                    sots = [sot_index for sot_index, _ in chunks]
                    assert sots == sorted(sots)
        finally:
            server.stop()

    def test_remote_add_metadata_and_stats(self, config):
        server, video = make_server(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    client.add_metadata(video.name, 0, "landmark", 8, 8, 40, 40)
                    result = client.scan(video.name, "landmark")
                    assert len(result.regions) == 1
                    assert result.regions[0].frame_index == 0
                    # The batch is merged before its last stream finishes.
                    stats = client.stats()
                    assert stats == server.stats() and stats.pixels_decoded > 0
                    completed = client.metrics()["tasm_queries_completed_total"]
                    assert completed["values"][0]["value"] >= 1
        finally:
            server.stop()

    def test_unknown_op_reports_error_and_connection_survives(self, config):
        """Spoken raw (no RemoteTasmClient, whose reader owns the socket), an
        unknown op earns a tagged error frame and the connection stays usable;
        a scan carrying a field the server does not read (``priority``, which
        older clients send) is served byte-identically.  The ``stats`` reply
        and the ``done`` frame's ``stats`` both carry ``DecodeStats``' fields
        in declaration order."""
        import json
        import socket as socket_module
        from dataclasses import fields

        from repro.core.scan import ScanResult
        from repro.video.codec import DecodeStats
        from repro.service.transport import (
            KIND_CHUNK,
            KIND_JSON,
            _FrameReader,
            decode_chunk_payload,
            recv_message,
            send_message,
        )

        server, video = make_server(config)
        reference, _ = make_tasm(config)
        try:
            with SocketTransport(server) as transport:
                with socket_module.create_connection(transport.address, timeout=10) as sock:
                    send_message(sock, {"op": "transmogrify", "id": 7})
                    reply = recv_message(sock)
                    assert reply["type"] == "error"
                    assert reply["id"] == 7
                    send_message(sock, {"op": "stats", "id": 8})
                    reply = recv_message(sock)
                    assert reply["type"] == "stats"
                    assert reply["id"] == 8
                    assert list(reply)[2:] == [field.name for field in fields(DecodeStats)]
                    send_message(
                        sock,
                        {"op": "scan", "id": 9, "video": video.name, "labels": ["car"],
                         "credits": 64, "priority": 1},
                    )
                    frames, regions = _FrameReader(sock), []
                    while True:
                        kind, payload = frames.next_frame()
                        if kind == KIND_CHUNK:
                            header, chunk = decode_chunk_payload(payload)
                            assert header["id"] == 9
                            regions += chunk
                            continue
                        assert kind == KIND_JSON
                        reply = json.loads(bytes(payload))
                        break
                    assert (reply["type"], reply["id"]) == ("done", 9)
                    assert list(reply["stats"]) == [field.name for field in fields(DecodeStats)]
                    assert_scan_results_identical(
                        ScanResult(video=reply["video"], regions=regions),
                        reference.scan(video.name, "car"),
                    )
        finally:
            server.stop()

    def test_one_connection_carries_concurrent_scans(self, config):
        """Acceptance: >= 4 concurrent scans multiplexed over one socket
        connection, each byte-identical to a sequential ``scan()``."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        jobs = [
            ("car", None, None),
            ("person", None, None),
            ("sign", None, None),
            ("car", 0, 7),
            ("person", 3, video.frame_count),
        ]
        results: dict[int, object] = {}
        errors: list[BaseException] = []
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    streams = [
                        client.scan_streaming(video.name, label, start, stop)
                        for label, start, stop in jobs
                    ]
                    in_flight = {stream.query_id for stream in streams}
                    assert len(in_flight) == len(jobs), "each scan needs its own id"

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
                        worker.join(timeout=60)
                        assert not worker.is_alive(), "a multiplexed scan hung"
        finally:
            server.stop()
        assert not errors, errors
        from repro.core.predicates import TemporalPredicate

        for index, (label, start, stop) in enumerate(jobs):
            temporal = (
                TemporalPredicate.between(start if start is not None else 0, stop)
                if start is not None or stop is not None
                else None
            )
            assert_scan_results_identical(
                results[index], reference.scan(video.name, label, temporal)
            )

    def test_remote_pixels_are_read_only_like_in_process(self, config):
        """Remote/in-process parity: both hand back read-only pixels that no
        caller can make writable again, equal byte for byte, and nothing a
        caller does through either reaches the server's cache or a later
        scan.  ``np.array`` gives a caller a writable copy."""
        server, video = make_server(config)
        cache = server.tasm.tile_cache

        def cache_bytes() -> dict:
            with cache._lock:
                entries = list(cache._entries.items())
            return {key: b"".join(map(bytes, entry.frames)) for key, entry in entries}

        try:
            in_process = server.connect().scan(video.name, "car")
            # Bytes, not the arrays: in-process pixels view the cache itself.
            expected = [region.pixels.tobytes() for region in in_process.regions]
            cached = cache_bytes()
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    remote = client.scan(video.name, "car")
                    for ours, theirs in zip(remote.regions, in_process.regions):
                        assert_read_only_pixels(ours.pixels)
                        assert_read_only_pixels(theirs.pixels)
                    again = client.scan(video.name, "car")
            later = server.connect().scan(video.name, "car")
        finally:
            server.stop()
        assert remote.regions, "the parity check needs at least one region"
        for result in (remote, in_process, again, later):
            assert [region.pixels.tobytes() for region in result.regions] == expected
            assert not any(region.pixels.flags.writeable for region in result.regions)
        assert_scan_results_identical(remote, in_process)
        assert cached and cache_bytes() == cached
