"""Per-stream credits, wire cancellation, and the shared-memory data path.

The contracts pinned here:

* credits isolate streams: a consumer that stops draining stream A parks only
  A on the server — stream B on the *same connection* still completes at
  full throughput, and A's client-side queue never holds more chunks than its
  credit budget (no head-of-line blocking through the shared demux reader);
* a wire ``CANCEL`` (sent by ``RemoteScanStream.close()``) drops the scan
  from its connection, makes the server count the query as cancelled, and skips
  the scan's remaining per-SOT decode work — an abandoned scan stops costing
  decode within one SOT;
* a stream closed while still queued never enters a batch at all;
* the shared-memory pixel path is byte-identical to the socket path, falls
  back per chunk when the ring cannot hold a payload, and degrades cleanly
  to the socket when the server offers no ring or the client cannot attach;
* a ``_reply`` blocked on a connection's full reply queue raises promptly
  when the connection closes (no polling, no silent frame drops);
* ``RemoteTasmClient.close()`` joins its reader with a deadline and warns —
  rather than leaking silently — when the thread fails to exit;
* a crash in a batch runner's loop does not end the runner: the same
  thread serves the query it was reaching for;
* the hello handshake refuses protocol-version skew in both directions.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.core.query import Query
from repro.errors import ProtocolError, ServiceError, TransportError
from repro.service import RemoteTasmClient, ShmTransport, SocketTransport, TasmServer
from repro.service.transport import (
    _Connection,
    _ShmRing,
    PROTOCOL_VERSION,
    recv_message,
    send_message,
)
from tests.test_exec_engine import assert_scan_results_identical, make_tasm

CACHE_BYTES = 64 * 1024 * 1024


def make_server(config, **service_overrides) -> tuple[TasmServer, object]:
    overrides = {"decode_cache_bytes": CACHE_BYTES, **service_overrides}
    tasm, video = make_tasm(replace(config, **overrides))
    return TasmServer(tasm).start(), video


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)  # the poll interval
    return predicate()


def only_connection(transport: SocketTransport):
    """The transport's single accepted connection (waits for the accept)."""
    assert wait_until(lambda: len(transport._connections) == 1)
    return next(iter(transport._connections))


class TestCredits:
    def test_slow_consumer_does_not_stall_other_stream(self, config):
        """Stream A unconsumed at 1 credit; B on the same connection must
        still run to completion, and A must hold at most 1 undelivered chunk
        client-side (the credit bound, not the old 64-chunk queue bound)."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, stream_buffer_chunks=1, use_shm=False
            ) as client:
                slow = client.scan_streaming(video.name, "car")
                # The server spends A's single credit on its first chunk,
                # then parks A's pump — and only A's pump.
                assert wait_until(lambda: slow.buffered_chunks >= 1)
                fast = client.scan(video.name, "person")
                assert_scan_results_identical(
                    fast, reference.scan(video.name, "person")
                )
                assert slow.buffered_chunks == 1, (
                    "an unconsumed stream must never hold more chunks than "
                    "its credit budget"
                )
                # Draining A returns credits chunk by chunk; the parked pump
                # resumes and the stream completes byte-identical.
                assert_scan_results_identical(
                    slow.result(), reference.scan(video.name, "car")
                )
        finally:
            transport.stop()
            server.stop()


class TestCancellation:
    def test_wire_cancel_frees_pump_and_skips_remaining_decode(self, config):
        """Cancel after the first SOT: the pump exits without a done-reply,
        the server counts the cancel, the third SOT is never prefetched,
        and the freed runner serves a follow-up scan."""
        server, video = make_server(config, service_runners=1)
        reference, _ = make_tasm(config)
        tasm = server.tasm
        prefetch_calls = []
        held, gate = threading.Event(), threading.Event()
        original = tasm._decoder.prefetch_regions

        def instrumented(sot, requests, scope):
            prefetch_calls.append(scope)
            if len(prefetch_calls) == 2:
                held.set()
                gate.wait(timeout=30)  # hold the batch between SOTs 1 and 2
            return original(sot, requests, scope)

        tasm._decoder.prefetch_regions = instrumented
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=False
            ) as client:
                stream = client.scan_streaming(video.name, "car")
                chunks = iter(stream)
                next(chunks)  # first SOT landed
                # The chunk can arrive before the runner reaches the second
                # SOT; cancel only once its decode is gated, or the cancel
                # skips that SOT whole and never tests a mid-batch cancel.
                assert held.wait(timeout=10), "the batch never reached SOT 2"
                stream.close()  # sends CANCEL on the wire
                # The server-side pump observed the cancel and released the
                # scan before the batch even resumed.
                connection = only_connection(transport)
                assert wait_until(lambda: not connection._scans)
                gate.set()
                assert wait_until(
                    lambda: server.queries_cancelled >= 1
                ), "the server never counted the cancelled query"
                calls_after_cancel = len(prefetch_calls)
                assert calls_after_cancel == 2, (
                    f"the cancelled scan's remaining SOTs should be skipped, "
                    f"but {calls_after_cancel} of 3 were prefetched"
                )
                with pytest.raises(ServiceError):
                    stream.result()
                # The runner is free again: a fresh scan completes normally.
                assert_scan_results_identical(
                    client.scan(video.name, "person"),
                    reference.scan(video.name, "person"),
                )
        finally:
            gate.set()
            tasm._decoder.prefetch_regions = original
            transport.stop()
            server.stop()

    def test_stream_closed_while_queued_never_enters_a_batch(self, config):
        """Close a still-pending stream: it is dropped at collection, counted
        cancelled, and costs no decode."""
        server, video = make_server(config, service_runners=1, service_max_batch=1)
        tasm = server.tasm
        entered = threading.Event()
        gate = threading.Event()
        original = tasm._decoder.prefetch_regions

        def instrumented(sot, requests, scope):
            entered.set()
            gate.wait(timeout=30)
            return original(sot, requests, scope)

        tasm._decoder.prefetch_regions = instrumented
        try:
            busy = server.submit(Query.select("car", video.name))
            assert entered.wait(timeout=10), "the first batch never started"
            queued = server.submit(Query.select("person", video.name))
            queued.close()  # abandoned before it could be collected
            tasm._decoder.prefetch_regions = original
            gate.set()
            busy.result(timeout=30)
            # Force another collection pass so the dead stream is drained.
            server.submit(Query.select("sign", video.name)).result(timeout=30)
            assert wait_until(
                lambda: server.queries_cancelled >= 1
            ), "a stream closed while queued must be counted as cancelled"
            with pytest.raises(ServiceError):
                queued.result(timeout=5)
        finally:
            gate.set()
            tasm._decoder.prefetch_regions = original
            server.stop()


class TestSharedMemory:
    def test_shm_roundtrip_byte_identical(self, config):
        """Pixels through the ring: results identical to a direct scan, and
        every chunk of every scan rode shared memory, none the socket."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = ShmTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=True
            ) as client:
                for label in ("car", "person", "sign"):
                    assert_scan_results_identical(
                        client.scan(video.name, label),
                        reference.scan(video.name, label),
                    )
                assert client.shm_chunks_received > 0
                assert client.socket_chunks_received == 0
        finally:
            transport.stop()
            server.stop()

    def test_exhausted_ring_falls_back_to_socket_per_chunk(self, config):
        """A ring too small for any chunk: the negotiation still succeeds,
        every chunk falls back to the socket, results stay identical."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = ShmTransport(server, shm_ring_bytes=16).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=True
            ) as client:
                # the ring exists, however tiny
                assert only_connection(transport)._shm_ring is not None
                assert_scan_results_identical(
                    client.scan(video.name, "car"),
                    reference.scan(video.name, "car"),
                )
                assert client.socket_chunks_received > 0
                assert client.shm_chunks_received == 0
        finally:
            transport.stop()
            server.stop()

    def test_plain_socket_transport_offers_no_ring(self, config):
        """use_shm against a SocketTransport: hello answers ``shm: null``
        and everything arrives over the socket."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=True
            ) as client:
                assert_scan_results_identical(
                    client.scan(video.name, "car"),
                    reference.scan(video.name, "car"),
                )
                assert client.socket_chunks_received > 0
                assert client.shm_chunks_received == 0
        finally:
            transport.stop()
            server.stop()

    def test_attach_failure_falls_back_to_socket(self, config, monkeypatch):
        """A client that cannot map the segment reports ``shm_failed``; the
        server destroys the ring and serves the socket path."""
        import repro.service.transport as transport_module

        def broken_attach(name):
            raise OSError("cannot map the segment")

        monkeypatch.setattr(transport_module, "_attach_shm", broken_attach)
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = ShmTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=True
            ) as client:
                connection = only_connection(transport)
                assert wait_until(lambda: connection._shm_ring is None), (
                    "the server must tear the ring down on shm_failed"
                )
                assert_scan_results_identical(
                    client.scan(video.name, "car"),
                    reference.scan(video.name, "car"),
                )
                assert client.socket_chunks_received > 0
                assert client.shm_chunks_received == 0
        finally:
            transport.stop()
            server.stop()

    def test_ring_reclaims_only_the_acked_in_order_prefix(self):
        """Acks can arrive out of allocation order (pumps race); the tail
        must never advance over an unacked slot."""
        ring = _ShmRing(1024)
        try:
            first = ring.try_write([b"a" * 400], 400)
            second = ring.try_write([b"b" * 400], 400)
            assert first == 0 and second == 400
            assert ring.try_write([b"c" * 400], 400) is None  # full
            ring.ack(second)  # out of order: frees nothing yet
            assert ring.try_write([b"c" * 400], 400) is None
            ring.ack(first)  # the prefix is contiguous now: both recycle
            third = ring.try_write([b"c" * 400], 400)
            assert third is not None
            assert bytes(ring._segment.buf[third : third + 3]) == b"ccc"
        finally:
            ring.destroy()


class TestOutbox:
    def test_blocked_put_raises_promptly_on_close(self, config):
        """A reader blocked on a full reply queue must raise TransportError
        the moment the connection closes — not after a polling interval, and
        never by silently dropping the frame."""
        server, _ = make_server(config)
        ours, theirs = socket.socketpair()
        # Never served, so no writer drains the queue: the bound is all
        # there is between the producer and the close.
        connection = _Connection(server, theirs, reply_frames=1)
        outcome: queue.Queue = queue.Queue()
        blocked = threading.Event()
        try:
            connection._reply({"type": "ok", "id": 1})

            def producer():
                blocked.set()
                try:
                    connection._reply({"type": "ok", "id": 2})
                    outcome.put(None)  # the silent-drop failure mode
                except TransportError as error:
                    outcome.put(error)

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            assert blocked.wait(timeout=5)
            time.sleep(0.05)  # let the producer reach the full-queue wait
            started = time.monotonic()
            connection.close()
            result = outcome.get(timeout=2)
            elapsed = time.monotonic() - started
            assert isinstance(result, TransportError)
            assert elapsed < 0.5, f"a blocked reply took {elapsed:.2f}s to fail"
            # Only the frame accepted before the close was ever queued.
            assert [b'"id":1' in frame for frame in connection._replies] == [True]
            thread.join(timeout=5)
        finally:
            connection.close()
            ours.close()
            server.stop()


class TestClientClose:
    def test_close_warns_when_reader_fails_to_exit(self, config):
        """A reader wedged past the join deadline must be reported, not
        silently leaked."""
        server, video = make_server(config)
        transport = SocketTransport(server).start()
        client = RemoteTasmClient(transport.address, timeout=30.0, use_shm=False)
        real_reader = client._reader
        release = threading.Event()
        wedged = threading.Thread(target=release.wait, args=(30,), daemon=True)
        wedged.start()
        client._reader = wedged
        try:
            with pytest.warns(RuntimeWarning, match="reader thread"):
                client.close(join_timeout=0.2)
            real_reader.join(timeout=5)
            assert not real_reader.is_alive()
        finally:
            release.set()
            wedged.join(timeout=5)
            transport.stop()
            server.stop()


class TestSchedulerLiveness:
    def test_runner_pool_death_is_survived_by_supervision(self, config):
        """A crash in the runner loop outside any batch — here, forming the
        batch — does not end the runner: the query it was reaching for is
        still pending, and the same thread serves it on its next pass."""
        server, video = make_server(config, service_runners=1)
        original = server._runners[0]
        collect = server._collect

        def die_once():
            server._collect = collect
            raise RuntimeError("simulated crash in the runner loop")

        server._collect = die_once
        try:
            stream = server.submit(Query.select("car", video.name))
            result = stream.result(timeout=30)
            assert result.regions
            assert server._runners == [original]
            assert original.is_alive()
        finally:
            server.stop()


class TestHandshake:
    def test_server_refuses_version_skew(self, config):
        server, _ = make_server(config)
        transport = SocketTransport(server).start()
        try:
            conn = socket.create_connection(transport.address, timeout=5)
            conn.settimeout(5)
            for version in (2, 99):  # the previous protocol, and a future one
                send_message(
                    conn, {"op": "hello", "id": 0, "version": version, "shm": False}
                )
                reply = recv_message(conn)
                assert reply["type"] == "error"
                assert "version" in reply["message"]
            conn.close()
        finally:
            transport.stop()
            server.stop()

    @staticmethod
    def assert_client_refuses(server_version):
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_with_other_version():
            conn, _ = listener.accept()
            recv_message(conn)
            send_message(
                conn, {"type": "hello", "id": 0, "version": server_version, "shm": None}
            )

        threading.Thread(target=answer_with_other_version, daemon=True).start()
        try:
            with pytest.raises(ProtocolError):
                RemoteTasmClient(listener.getsockname()[:2], timeout=5.0)
        finally:
            listener.close()

    def test_client_refuses_version_skew(self):
        self.assert_client_refuses(1)

    def test_client_refuses_a_version_two_server(self):
        """The previous protocol (JSON chunk headers) is as foreign as any."""
        self.assert_client_refuses(2)

    def test_protocol_version_is_three(self):
        """The binary chunk header bumped the protocol."""
        assert PROTOCOL_VERSION == 3
