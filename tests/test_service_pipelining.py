"""Pipelined batch runners, admission control, backpressure, and shutdown.

The contracts pinned here:

* with ``service_runners`` > 1, two batches genuinely execute at the same
  time (proved with a barrier inside the decoder that only a concurrent pair
  can pass), and results stay byte-identical to sequential ``scan()``;
* admission control is round-robin per client: a greedy client with a deep
  queue cannot keep another client's query out of the next batch;
* a bounded stream buffer suspends the producer when the consumer stalls
  (bounding producer-side memory) and resumes it when the consumer drains —
  and ``result()`` on a bounded stream never deadlocks against its own
  backpressure;
* server shutdown fails queued *and* in-flight streams with
  :class:`ServiceError` instead of hanging their consumers;
* (a failed stream's terminal state being re-observable is now pinned for
  all three clients at once in ``tests/test_stream_contract.py``);
* a connection dying mid-frame raises :class:`TransportError` instead of
  masquerading as a clean EOF.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.core.query import Query
from repro.errors import ServiceError, TransportError
from repro.service import TasmServer
from repro.service import server as server_module
from repro.service.transport import (
    _FRAME_HEADER,
    KIND_JSON,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    recv_frame,
    recv_message,
    send_message,
)
from tests.test_exec_engine import (
    assert_scan_results_identical,
    make_tasm,
    random_queries,
)
from tests.test_service_flow_control import CACHE_BYTES, make_server, wait_until


class TestRunnerPool:
    def test_two_batches_execute_concurrently(self, config):
        """Only a pool can pass this barrier: each runner's first decode call
        blocks until another runner's decode call arrives — a serial
        scheduler would sit alone at the barrier until it breaks."""
        server, video = make_server(
            config,
            service_runners=2,
            service_max_batch=1,  # force the two queries into two batches
        )
        tasm = server.tasm
        barrier = threading.Barrier(2)
        first_call_done = set()
        overlapped: list[bool] = []
        original = tasm._decoder.prefetch_regions

        def instrumented(sot, requests, scope):
            thread_id = threading.get_ident()
            if thread_id not in first_call_done:
                first_call_done.add(thread_id)
                try:
                    barrier.wait(timeout=30)
                    overlapped.append(True)
                except threading.BrokenBarrierError:
                    overlapped.append(False)
            return original(sot, requests, scope)

        tasm._decoder.prefetch_regions = instrumented
        reference, _ = make_tasm(config)
        try:
            streams = [
                server.submit(Query.select(label, video.name))
                for label in ("car", "person")
            ]
            results = [stream.result(timeout=60) for stream in streams]
        finally:
            tasm._decoder.prefetch_regions = original
            server.stop()

        assert overlapped == [True, True], "batches must overlap across runners"
        for result, label in zip(results, ("car", "person")):
            assert_scan_results_identical(result, reference.scan(video.name, label))

    def test_runner_pool_matches_sequential_results(self, config):
        """4 runners, 4 clients, randomized workloads: byte-identical."""
        server, video = make_server(config, service_runners=4)
        reference, _ = make_tasm(config)
        client_queries = [
            random_queries(video.name, video.frame_count, seed=seed, count=4)
            for seed in range(4)
        ]
        results: dict[int, list] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def run_client(index: int) -> None:
            try:
                client = server.connect()
                barrier.wait()
                results[index] = [
                    client.execute(query) for query in client_queries[index]
                ]
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=run_client, args=(index,)) for index in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "client thread hung"
        finally:
            server.stop()
        assert not errors, errors
        for index, queries in enumerate(client_queries):
            for result, query in zip(results[index], queries):
                assert_scan_results_identical(result, reference.execute(query))

    def test_racing_runners_take_every_query_exactly_once(self, config):
        """Runners form their own batches from one shared pending queue.
        With more runners than cores, a short switch interval and clients
        submitting without waiting, every query must land in exactly one
        batch, and no batch may exceed ``service_max_batch``."""
        clients, per_client, max_batch = 6, 12, 3
        server, video = make_server(
            config, service_runners=4, service_max_batch=max_batch
        )
        tasm = server.tasm
        execute_batch = tasm.execute_batch
        taken: list[list[Query]] = []

        def recording(queries, **kwargs):
            taken.append(list(queries))
            return execute_batch(queries, **kwargs)

        tasm.execute_batch = recording
        queries = [
            [
                Query.select(("car", "person", "sign")[(client + n) % 3], video.name)
                for n in range(per_client)
            ]
            for client in range(clients)
        ]
        streams: dict[int, list] = {}

        def run_client(index: int) -> None:
            streams[index] = [
                server.submit(query, client=index) for query in queries[index]
            ]

        threads = [
            threading.Thread(target=run_client, args=(index,))
            for index in range(clients)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "client thread hung"
            for submitted in streams.values():
                for stream in submitted:
                    stream.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        executed = sorted(id(query) for batch in taken for query in batch)
        assert executed == sorted(id(query) for mine in queries for query in mine)
        assert max(len(batch) for batch in taken) <= max_batch
        assert server.queries_completed == clients * per_client
        assert server.queue_depth == 0

    def test_runners_plan_while_boxes_are_written(self, config):
        """Three runners read the one semantic index from their own threads
        while a writer indexes the boxes frame by frame: every scan completes
        with frames the finished index also serves, and once the writes are
        in, every scan equals a reference's."""
        from repro.core.tasm import TASM
        from tests.conftest import build_tiny_video

        video = build_tiny_video()
        tasm = TASM(
            config=config.with_updates(
                decode_cache_bytes=CACHE_BYTES, service_runners=3, service_max_batch=1
            )
        )
        tasm.ingest(video)
        reference, _ = make_tasm(config)
        labels = ("car", "person", "sign")
        with TasmServer(tasm) as server:

            def write() -> None:
                for frame in range(video.frame_count):
                    server.tasm.add_detections(video.name, video.ground_truth(frame))

            writer = threading.Thread(target=write)
            writer.start()
            racing = [
                (label, server.submit(Query.select(label, video.name)))
                for _ in range(4)
                for label in labels
            ]
            writer.join(timeout=60)
            assert not writer.is_alive(), "writer hung"
            for label, stream in racing:
                served = {region.frame_index for region in stream.result(timeout=60).regions}
                expected = reference.scan(video.name, label).regions
                assert served <= {region.frame_index for region in expected}
            for label in labels:
                assert_scan_results_identical(
                    server.connect().scan(video.name, label), reference.scan(video.name, label)
                )


class TestSingleFlightDecode:
    def test_overlapping_batches_decode_each_tile_once(self, config):
        """Two racing batches over the same cold tiles must do one batch's
        decode work: concurrent misses on a tile key are single-flight, the
        follower waits and hits instead of decoding in duplicate."""
        server, video = make_server(
            config,
            service_runners=2,
            service_max_batch=1,
        )
        tasm = server.tasm
        barrier = threading.Barrier(2)
        first_call_done = set()
        original = tasm._decoder.prefetch_regions

        def instrumented(sot, requests, scope):
            thread_id = threading.get_ident()
            if thread_id not in first_call_done:
                first_call_done.add(thread_id)
                try:
                    barrier.wait(timeout=30)  # both batches live before decoding
                except threading.BrokenBarrierError:
                    pass
            return original(sot, requests, scope)

        tasm._decoder.prefetch_regions = instrumented
        reference, _ = make_tasm(config)
        try:
            streams = [
                server.submit(Query.select("car", video.name)) for _ in range(2)
            ]
            results = [stream.result(timeout=60) for stream in streams]
        finally:
            tasm._decoder.prefetch_regions = original
            server.stop()
        expected = reference.scan(video.name, "car")
        for result in results:
            assert_scan_results_identical(result, expected)
        stats = server.stats()
        assert stats.pixels_decoded == expected.pixels_decoded, (
            "racing batches must not decode the same tiles twice"
        )
        assert stats.cache_misses == stats.tiles_decoded, "one miss per decoded tile"


class TestAdmissionControl:
    def test_round_robin_gives_every_client_a_slot(self, config):
        """6 queued greedy queries cannot keep the light client out of the
        next batch: rotation takes one per client before seconds."""
        tasm, video = make_tasm(config.with_updates(service_max_batch=4))
        server = TasmServer(tasm)
        server._running = True  # accept submissions without threads
        try:
            greedy = [
                server.submit(Query.select("car", video.name), client="greedy")
                for _ in range(6)
            ]
            light = server.submit(Query.select("person", video.name), client="light")
            batch: list = []
            with server._cond:
                server._take_round_robin(batch)
            assert len(batch) == 4
            assert batch[0] is greedy[0]
            assert batch[1] is light, "the light client must ride the next batch"
            assert batch[2] is greedy[1] and batch[3] is greedy[2]
            # Second batch drains the greedy backlog (work conservation).
            second: list = []
            with server._cond:
                server._take_round_robin(second)
            assert second == greedy[3:6]
            assert server.queue_depth == 0
        finally:
            server._running = False

    def test_lone_client_still_fills_a_batch(self, config):
        tasm, video = make_tasm(config.with_updates(service_max_batch=3))
        server = TasmServer(tasm)
        server._running = True
        try:
            streams = [
                server.submit(Query.select("car", video.name), client="only")
                for _ in range(5)
            ]
            batch: list = []
            with server._cond:
                server._take_round_robin(batch)
            assert batch == streams[:3]
        finally:
            server._running = False


class TestBackpressure:
    def test_full_buffer_suspends_producer_until_consumer_drains(self, config):
        """A 3-SOT scan against a 1-chunk buffer: the producer must park with
        exactly one undelivered chunk, then finish once the consumer reads."""
        server, video = make_server(config, service_stream_buffer_chunks=1)
        reference, _ = make_tasm(config)
        sot_count = server.tasm.video(video.name).sot_count
        assert sot_count >= 3, "the backpressure test needs a multi-SOT scan"
        try:
            stream = server.connect().scan_streaming(video.name, "car")
            assert wait_until(lambda: stream.buffered_chunks == 1), (
                "the producer never delivered a first chunk"
            )
            # The producer is now suspended: the buffer stays at its bound and
            # the query cannot complete while undelivered chunks remain.
            time.sleep(0.1)  # time a producer ignoring the bound would use to overfill
            assert stream.buffered_chunks == 1, "buffer exceeded its bound"
            assert not stream.done, "the producer finished despite a full buffer"
            chunks = []
            for chunk in stream:
                assert stream.buffered_chunks <= 1
                chunks.append(chunk)
            result = stream.result(timeout=30)
        finally:
            server.stop()
        assert len(chunks) == sot_count
        assert_scan_results_identical(result, reference.scan(video.name, "car"))

    def test_result_only_consumer_never_deadlocks_on_bounded_stream(self, config):
        """``result()`` without iteration must drain (and discard) chunks so
        its own backpressure cannot wedge the producer."""
        server, video = make_server(config, service_stream_buffer_chunks=1)
        reference, _ = make_tasm(config)
        try:
            stream = server.connect().scan_streaming(video.name, "car")
            result = stream.result(timeout=30)
        finally:
            server.stop()
        assert_scan_results_identical(result, reference.scan(video.name, "car"))

    def test_slow_remote_consumer_stays_bounded_and_correct(self, config):
        """Over the socket at 1 chunk credit, a consumer that dawdles between
        chunks never sees more than its credit budget of chunks buffered
        client-side, and the scan still completes byte-identically."""
        from repro.service import RemoteTasmClient, SocketTransport

        server, video = make_server(config, service_stream_buffer_chunks=1)
        reference, _ = make_tasm(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(
                    transport.address, stream_buffer_chunks=1
                ) as client:
                    remote = client.scan_streaming(video.name, "car")
                    chunks = []
                    for sot_index, regions in remote:
                        assert remote.buffered_chunks <= 1, (
                            "client-side buffering exceeded the credit budget"
                        )
                        chunks.append((sot_index, regions))
                        time.sleep(0.05)  # a slow consumer
                    result = remote.result()
        finally:
            server.stop()
        assert len(chunks) >= 2, "the slow-consumer test needs a multi-SOT scan"
        assert_scan_results_identical(result, reference.scan(video.name, "car"))


class TestConsumerAbandon:
    def test_close_releases_suspended_producer(self, config):
        """A consumer that walks away from a partially read bounded stream
        must not wedge the batch runner: close() releases the producer and
        later queries are served normally."""
        server, video = make_server(
            config,
            service_runners=1,
            service_stream_buffer_chunks=1,
        )
        reference, _ = make_tasm(config)
        try:
            abandoned = server.connect().scan_streaming(video.name, "car")
            assert wait_until(lambda: abandoned.buffered_chunks == 1)
            assert not abandoned.done, "producer should be suspended, not done"
            abandoned.close()  # walk away without draining
            # The lone runner must come free: a follow-up scan completes.
            follow_up = server.connect().scan(video.name, "person")
            assert_scan_results_identical(
                follow_up, reference.scan(video.name, "person")
            )
            with pytest.raises(ServiceError):
                abandoned.result(timeout=5)
        finally:
            server.stop()

    def test_close_after_completion_is_a_no_op(self, config):
        server, video = make_server(config)
        try:
            stream = server.connect().scan_streaming(video.name, "car")
            result = stream.result(timeout=30)
            stream.close()
            assert stream.result(timeout=5) is result, (
                "closing a completed stream must not discard its result"
            )
        finally:
            server.stop()


class TestClientTimeouts:
    def _silent_server(self):
        """A listener that accepts, answers the client's hello handshake (no
        shared memory), then never answers anything else.  The accepted
        connection arrives through the returned queue: the client constructor
        blocks on the handshake, so accept-and-hello must run concurrently."""
        import queue as queue_module

        listener = socket.create_server(("127.0.0.1", 0))
        accepted: queue_module.Queue = queue_module.Queue()

        def accept_and_hello():
            conn, _ = listener.accept()
            hello = recv_message(conn)
            send_message(
                conn,
                {
                    "type": "hello",
                    "id": hello.get("id"),
                    "version": hello["version"],
                    "shm": None,
                },
            )
            accepted.put(conn)

        threading.Thread(target=accept_and_hello, daemon=True).start()
        return listener, listener.getsockname()[:2], accepted

    def test_stream_read_times_out_instead_of_hanging(self):
        from repro.service import RemoteTasmClient

        listener, address, accepted = self._silent_server()
        try:
            client = RemoteTasmClient(address, timeout=0.3)
            conn = accepted.get(timeout=5)
            stream = client.scan_streaming("some-video", "car")
            recv_message(conn)  # swallow the request; answer nothing
            with pytest.raises(ServiceError):
                stream.result()
            client.close()
            conn.close()
        finally:
            listener.close()

    def test_malformed_frame_fails_outstanding_requests(self):
        """A corrupt frame must kill the demux loudly: blocked callers raise
        instead of waiting on a reader thread that died."""
        from repro.service import RemoteTasmClient
        from repro.service.transport import KIND_JSON, send_frame

        listener, address, accepted = self._silent_server()
        try:
            client = RemoteTasmClient(address, timeout=5.0)
            conn = accepted.get(timeout=5)
            stream = client.scan_streaming("some-video", "car")
            recv_message(conn)
            send_frame(conn, KIND_JSON, b"\xff\xfe this is not json")
            with pytest.raises(ServiceError):
                stream.result()
            # The connection is marked dead: new requests fail fast.
            with pytest.raises(ServiceError):
                client.stats()
            client.close()
            conn.close()
        finally:
            listener.close()


class TestShutdown:
    def test_stop_fails_queued_and_inflight_streams(self, config, monkeypatch):
        """A runner wedged mid-decode must not strand anyone: queued streams
        fail at stop, the in-flight stream fails after the drain deadline."""
        server, video = make_server(
            config,
            service_runners=1,
            service_max_batch=1,
        )
        tasm = server.tasm
        entered = threading.Event()
        gate = threading.Event()
        original = tasm._decoder.prefetch_regions

        def instrumented(sot, requests, scope):
            entered.set()
            gate.wait(timeout=60)
            return original(sot, requests, scope)

        tasm._decoder.prefetch_regions = instrumented
        try:
            in_flight = server.submit(Query.select("car", video.name))
            assert entered.wait(timeout=10), "the in-flight batch never started"
            queued = [
                server.submit(Query.select("person", video.name)) for _ in range(3)
            ]
            monkeypatch.setattr(server_module, "STOP_DRAIN_S", 0.5)
            server.stop()
            for stream in queued:
                with pytest.raises(ServiceError):
                    stream.result(timeout=10)
            with pytest.raises(ServiceError):
                in_flight.result(timeout=10)
            with pytest.raises(ServiceError):
                list(in_flight)
        finally:
            gate.set()  # release the wedged runner so its thread can exit
            tasm._decoder.prefetch_regions = original

    def test_submit_during_shutdown_raises_not_hangs(self, config):
        server, video = make_server(config)
        server.stop()
        with pytest.raises(ServiceError):
            server.submit(Query.select("car", video.name))


class TestWireFraming:
    def test_clean_eof_at_frame_boundary_returns_none(self):
        ours, theirs = socket.socketpair()
        ours.close()
        try:
            assert recv_message(theirs) is None
        finally:
            theirs.close()

    def test_eof_inside_header_raises(self):
        ours, theirs = socket.socketpair()
        ours.sendall(b"\x00\x00")  # two of the five header bytes
        ours.close()
        try:
            with pytest.raises(TransportError):
                recv_message(theirs)
        finally:
            theirs.close()

    def test_eof_inside_payload_raises(self):
        ours, theirs = socket.socketpair()
        # A frame promising 100 payload bytes, delivering 10.
        ours.sendall(_FRAME_HEADER.pack(KIND_JSON, 100) + b"x" * 10)
        ours.close()
        try:
            with pytest.raises(TransportError):
                recv_message(theirs)
        finally:
            theirs.close()

    def test_transport_error_is_a_service_error(self):
        assert issubclass(TransportError, ServiceError)

    def test_forged_length_raises_before_anything_is_read_for_it(self):
        """The length is the peer's word: a header announcing more than
        MAX_FRAME_BYTES fails at once — the sender stays connected and sends
        nothing more, so a reader that trusted the header would block."""
        ours, theirs = socket.socketpair()
        theirs.settimeout(5.0)
        ours.sendall(_FRAME_HEADER.pack(KIND_JSON, MAX_FRAME_BYTES + 1))
        try:
            with pytest.raises(TransportError, match="limit"):
                recv_frame(theirs)
            ours.sendall(_FRAME_HEADER.pack(KIND_JSON, 2) + b"{}")
            assert recv_message(theirs) == {}, "the limit itself is about size only"
        finally:
            ours.close()
            theirs.close()

    def test_server_drops_a_connection_that_forges_a_length(self, config):
        from repro.service import SocketTransport

        server, _ = make_server(config)
        try:
            with SocketTransport(server) as transport:
                conn = socket.create_connection(transport.address, timeout=5.0)
                conn.sendall(_FRAME_HEADER.pack(KIND_JSON, 0xFFFFFFFF))
                assert conn.recv(1) == b"", "the server must hang up, not wait for 4 GiB"
                conn.close()
        finally:
            server.stop()

    def test_a_connection_allocates_no_more_than_a_request_for_any_header(
        self, config, monkeypatch
    ):
        """A client past its hello announces a 256 MiB frame — under
        MAX_FRAME_BYTES, far over any request — and sends nothing more.  The
        server must hang up without asking for the payload's buffer: a spy on
        the transport's ``bytearray`` records every size asked and makes
        nothing large."""
        from repro.service import SocketTransport
        from repro.service import transport as transport_module

        asked = []

        def spy(size):
            asked.append(size)
            if size > 1 << 24:
                raise MemoryError(f"the spy does not allocate {size} bytes")
            return bytearray(size)

        monkeypatch.setattr(transport_module, "bytearray", spy, raising=False)
        announced = 256 << 20
        server, _ = make_server(config)
        try:
            with SocketTransport(server) as transport:
                with socket.create_connection(transport.address, timeout=5.0) as conn:
                    send_message(
                        conn,
                        {"op": "hello", "id": 0, "version": PROTOCOL_VERSION, "shm": False},
                    )
                    assert recv_message(conn)["type"] == "hello"
                    conn.sendall(_FRAME_HEADER.pack(KIND_JSON, announced))
                    assert conn.recv(1) == b"", "the server must hang up"
        finally:
            server.stop()
        assert announced not in asked, "the announced payload was asked for"
        assert max(asked) <= transport_module.MAX_REQUEST_BYTES

    def test_client_fails_its_streams_on_a_forged_length(self):
        from repro.service import RemoteTasmClient

        listener, address, accepted = TestClientTimeouts()._silent_server()
        try:
            client = RemoteTasmClient(address, timeout=5.0)
            conn = accepted.get(timeout=5)
            stream = client.scan_streaming("some-video", "car")
            recv_message(conn)
            conn.sendall(_FRAME_HEADER.pack(KIND_JSON, 0xFFFFFFFF))
            with pytest.raises(TransportError, match="limit"):
                stream.result()
            client.close()
            conn.close()
        finally:
            listener.close()
