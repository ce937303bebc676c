"""Fault injection and recovery: the chaos suite.

Faults come from outside the product: wire drops, cuts and delays from a
seeded frame proxy between client and server (:mod:`tests.wire_proxy`),
decoder errors from a wrapper of the decoder's per-SOT prefetch, and a
failed shared-memory attach from a patch of the transport's attach.  The
contracts pinned here, layer by layer:

* **deadlines** fail a query with :class:`~repro.errors.DeadlineExceeded`
  whether it expires while pending (never costing a batch slot) or mid-batch
  (the executor's cancelled-probe stops its remaining decode), and the
  wire's error code rebuilds each typed failure;
* **load shedding** fast-fails with :class:`~repro.errors.ServerBusy` above
  the depth bound, before the refused query is admitted;
* **runner survival**: whatever a batch raises fails its query with that
  error, and the same runner serves the next query — no thread is replaced;
* **re-dial and resume**: a one-shard :class:`~repro.cluster.ClusterRouter`
  with a :class:`~repro.service.RetryPolicy` survives a dropped or
  mid-frame-cut connection, resuming in-flight scans from the last delivered
  chunk — byte-identical to an uninterrupted run — and a ``close()`` of the
  stream or the router ends a backoff at once; a plain
  :class:`~repro.service.RemoteTasmClient` is one connection, and a broken
  wire fails everything on it with :class:`~repro.errors.TransportError`;
* a transient decode fault fails only the offending execution: a multi-query
  batch retries its untouched members individually, and fails those that
  already streamed a chunk;
* the hello handshake is bounded: an idle peer is cut loose and counted;
* timeout errors say which stage starved (queue vs execute vs wire);
* the fault proxy keeps its schedule: seeded decisions, exact
  ``skip_first`` / ``max_fires``, frames counted across connections, and
  both legs closed on a drop or a cut;
* and the seeded **chaos workload**: mixed queries under a multi-rule
  schedule never hang, never deliver wrong bytes, always terminate in a
  known state, and the recovery metrics account for every injected fault.
"""

from __future__ import annotations

import queue
import random
import socket
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.cluster import ClusterRouter, ClusterScanStream
from repro.cluster import router as router_module
from repro.core.query import Query
from repro.errors import (
    CodecError,
    DeadlineExceeded,
    QueryRefused,
    ServerBusy,
    ServiceError,
    StreamCancelledError,
    TransportError,
    error_code,
    error_from_code,
)
from repro.service import (
    RemoteTasmClient,
    RetryPolicy,
    ShmTransport,
    SocketTransport,
    TasmServer,
)
from repro.service import transport as transport_module
from tests.test_exec_engine import assert_scan_results_identical, make_tasm
from tests.test_service import held_runner
from tests.test_service_flow_control import make_server, wait_until
from tests.wire_proxy import Fault, Faults, WireProxy

LABELS = ["car", "person", "sign"]


def gate_decoder(tasm, gate: threading.Event, hold_call: int = 1):
    """Instrument the decoder so prefetch call ``hold_call`` parks on ``gate``.

    Returns the call-count list and the original so callers can restore it.
    """
    calls: list = []
    original = tasm._decoder.prefetch_regions

    def instrumented(sot, requests, scope):
        calls.append(scope)
        if len(calls) == hold_call:
            gate.wait(timeout=30)
        return original(sot, requests, scope)

    tasm._decoder.prefetch_regions = instrumented
    return calls, original


def fail_decoder(tasm, failing_call: int = 1) -> list[bool]:
    """Make the decoder's prefetch call ``failing_call`` raise CodecError.

    A batch prefetches once per SOT it warms, so call N is the Nth SOT.
    Returns one entry per call, True for the call that raised.
    """
    calls: list[bool] = []
    original = tasm._decoder.prefetch_regions

    def failing(sot, requests, scope):
        calls.append(len(calls) + 1 == failing_call)
        if calls[-1]:
            raise CodecError(f"injected decoder fault prefetching {scope!r}")
        return original(sot, requests, scope)

    tasm._decoder.prefetch_regions = failing
    return calls


def fail_shm_attach_once(monkeypatch) -> None:
    """The next client to attach a shared-memory ring fails to, once."""
    attach = transport_module._attach_shm

    def failing(name):
        monkeypatch.setattr(transport_module, "_attach_shm", attach)
        raise OSError("injected shm attach failure")

    monkeypatch.setattr(transport_module, "_attach_shm", failing)


def proxied(transport, **rules: Fault) -> WireProxy:
    """A seeded frame proxy in front of ``transport`` under ``rules``."""
    return WireProxy(transport.address, Faults(13, **rules))


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_fails_query_while_runner_is_busy(self, config):
        """A 50 ms deadline behind a held runner: whether it expires pending
        or at the mid-batch probe, the waiter gets DeadlineExceeded."""
        server, video = make_server(config, service_runners=1, service_max_batch=1)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        try:
            blocker = server.submit(Query.select("car", video.name))
            assert wait_until(lambda: len(calls) >= 1), "first batch never started"
            doomed = server.submit(
                Query.select("person", video.name), deadline_ms=50.0
            )
            # The deadline lapses while the runner is held.
            assert wait_until(lambda: time.monotonic() >= doomed.deadline_at)
            gate.set()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30)
            blocker.result(timeout=30)
            assert server.queries_deadline_exceeded >= 1
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            server.stop()

    def test_mid_batch_deadline_skips_remaining_decode(self, config):
        """Expire a query between its SOTs: the cancelled-probe fails it and
        the third SOT is never prefetched."""
        server, video = make_server(config, service_runners=1, service_max_batch=1)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=2)
        try:
            stream = server.submit(
                Query.select("car", video.name), deadline_ms=300.0
            )
            assert wait_until(lambda: len(calls) >= 2), "the batch never started"
            assert wait_until(lambda: time.monotonic() >= stream.deadline_at, timeout=5.0)
            gate.set()
            with pytest.raises(DeadlineExceeded):
                stream.result(timeout=30)
            # "car" spans 3 SOTs; the post-deadline one was skipped.
            assert wait_until(lambda: server.batches_executed >= 1)
            assert len(calls) == 2
            assert server.queries_deadline_exceeded == 1
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            server.stop()

    def test_deadline_travels_the_wire_typed(self, config):
        """A remote scan's deadline failure arrives as DeadlineExceeded, not
        a bare ServiceError — the wire carries the error code."""
        server, video = make_server(config, service_runners=1, service_max_batch=1)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=False
            ) as client:
                blocker = client.scan_streaming(video.name, "car")
                assert wait_until(lambda: len(calls) >= 1)
                doomed = client.scan_streaming(
                    video.name, "person", deadline_ms=50.0
                )
                time.sleep(0.1)  # outlast the 50 ms deadline while the runner is held
                gate.set()
                with pytest.raises(DeadlineExceeded):
                    doomed.result()
                blocker.result()
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            transport.stop()
            server.stop()

    def test_wire_codes_rebuild_their_class_and_an_unknown_code_is_plain(self):
        """Every typed failure survives the wire's code; a code this build
        does not know (one a peer of the same protocol still sends, such as
        the retired ``poison``) arrives as a plain ServiceError."""
        for cls in (DeadlineExceeded, ServerBusy, StreamCancelledError, QueryRefused):
            rebuilt = error_from_code(error_code(cls("why")), "why")
            assert type(rebuilt) is cls and str(rebuilt) == "why"
        for code in ("poison", None):
            rebuilt = error_from_code(code, "why")
            assert type(rebuilt) is ServiceError and str(rebuilt) == "why"


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_depth_bound_fast_fails(self, config):
        """Above ``service_max_queue_depth`` pending, submit refuses with
        SERVER_BUSY before allocating a stream."""
        tasm, video = make_tasm(
            replace(config, service_max_batch=4, service_max_queue_depth=2)
        )
        server = TasmServer(tasm)
        server._running = True  # driven without threads: pending stays put
        server.submit(Query.select("car", video.name))
        server.submit(Query.select("person", video.name))
        with pytest.raises(ServerBusy, match="SERVER_BUSY"):
            server.submit(Query.select("sign", video.name))
        assert server.shed_queue_full == 1
        assert server.queue_depth == 2, "the refused query never queued"


# ----------------------------------------------------------------------
# Runner survival
# ----------------------------------------------------------------------
class TestRunnerSupervision:
    def test_an_error_escaping_a_batch_does_not_end_the_runner(self, config):
        """Nothing raised inside an iteration ends a runner: a batch whose
        execution raises fails its query with that error, and the same
        runner serves the next query byte-identical."""
        server, video = make_server(config, service_runners=1)
        original = server._runners[0]
        broken = RuntimeError("batch bug")
        execute = server._execute

        def failing_once(batch):
            server._execute = execute  # the next batch runs as it would
            raise broken

        server._execute = failing_once
        reference, _ = make_tasm(config)
        try:
            with pytest.raises(ServiceError) as failed:
                server.submit(Query.select("car", video.name)).result(timeout=30)
            assert failed.value.__cause__ is broken
            result = server.submit(Query.select("car", video.name)).result(timeout=30)
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
            assert server._runners == [original]
            assert original.is_alive()
        finally:
            server.stop()

    def test_stop_wakes_the_idle_runners(self, config):
        """Idle runners wait with no timeout, so ``stop()`` is what wakes
        them: stop returns well inside its drain timeout with every runner
        gone."""
        server, _ = make_server(config)
        runners = list(server._runners)
        assert all(runner.is_alive() for runner in runners)
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 5.0
        assert not any(runner.is_alive() for runner in runners)


# ----------------------------------------------------------------------
# Decoder faults
# ----------------------------------------------------------------------
class TestDecodeFaults:
    def test_decode_fault_fails_only_that_execution(self, config):
        """A solo query hit by a decoder fault fails with the decoder's
        message; the pool survives and the next scan is served normally."""
        server, video = make_server(config)
        fail_decoder(server.tasm)
        reference, _ = make_tasm(config)
        try:
            with pytest.raises(ServiceError, match="injected decoder fault"):
                server.submit(Query.select("car", video.name)).result(timeout=30)
            result = server.submit(Query.select("car", video.name)).result(timeout=30)
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
        finally:
            server.stop()

    def test_transient_decode_fault_in_batch_is_absorbed(self, config):
        """A batch hit by a transient decoder fault retries its untouched
        queries individually — both complete byte-identical."""
        server, video = make_server(config, service_runners=1)
        calls = fail_decoder(server.tasm)
        reference, _ = make_tasm(config)
        try:
            with held_runner(server, video) as sizes:
                first = server.submit(Query.select("car", video.name))
                second = server.submit(Query.select("person", video.name))
            assert_scan_results_identical(
                first.result(timeout=30), reference.scan(video.name, "car")
            )
            assert_scan_results_identical(
                second.result(timeout=30), reference.scan(video.name, "person")
            )
            assert sum(calls) == 1
            assert sizes == [1, 2, 1, 1], "one shared batch, then one retry each"
        finally:
            server.stop()

    def test_a_batch_error_after_streaming_fails_without_a_retry(self, config):
        """A fault after the batch's first SOT reached both its queries: a
        retry would send that chunk twice, so each fails with the decoder's
        error, neither is re-run, and the runner serves the next query."""
        # The first prefetch passes SOT 0 (the blocker wants no SOT); SOT 1 faults.
        server, video = make_server(config, service_runners=1)
        fail_decoder(server.tasm, failing_call=2)
        reference, _ = make_tasm(config)
        try:
            with held_runner(server, video) as sizes:
                streams = [server.submit(Query.select("car", video.name)) for _ in range(2)]
            for stream in streams:
                with pytest.raises(ServiceError, match="injected decoder fault"):
                    stream.result(timeout=30)
                assert list(stream.delivered) == [0]
            assert sizes == [1, 2], "the streamed queries are not re-run"
            result = server.submit(Query.select("car", video.name)).result(timeout=30)
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
            assert server.queries_failed == 2
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Re-dial and resume: the router's one recovery path, on one shard
# ----------------------------------------------------------------------
RETRY = RetryPolicy(attempts=6, base_delay=0.02, max_delay=0.2, seed=11)


def one_shard(transport, retry=RETRY) -> ClusterRouter:
    """The resilient single-server handle: a router over one shard."""
    return ClusterRouter([transport.address], retry=retry)


def capture_scans(monkeypatch) -> list[dict]:
    """Every scan request any client puts on the wire, re-dials included."""
    sent: list[dict] = []
    send = RemoteTasmClient._send

    def recording(client, message):
        if message.get("op") == "scan":
            sent.append(dict(message))
        return send(client, message)

    monkeypatch.setattr(RemoteTasmClient, "_send", recording)
    return sent


def consume_in_background(stream) -> tuple[threading.Thread, queue.SimpleQueue]:
    """``stream.result()`` on a thread of its own; the queue gets the result
    or the exception it raised."""
    outcome: queue.SimpleQueue = queue.SimpleQueue()

    def consume():
        try:
            outcome.put(stream.result())
        except Exception as error:  # noqa: BLE001 — the test inspects it
            outcome.put(error)

    consumer = threading.Thread(target=consume, name="test-consumer", daemon=True)
    consumer.start()
    return consumer, outcome


class TestRedial:
    def test_dropped_connection_resumes_byte_identical(self, config):
        """Kill the wire after the first chunk: the router re-dials the
        shard, resumes with skip_sots, and the result is byte-identical."""
        # Server frames: hello (1), video_info (2), chunk SOT0 (3), SOT1 (4).
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, drop=Fault(skip_first=3, max_fires=1))
        try:
            with one_shard(proxy) as router:
                stream = router.scan_streaming(video.name, "car")
                assert_scan_results_identical(
                    stream.result(), reference.scan(video.name, "car")
                )
                assert stream.failovers == router.failovers_total == 1
                assert proxy.fires()["drop"] == 1
                assert server.queries_submitted == 2, "the scan and its resume"
        finally:
            proxy.close()
            transport.stop()
            server.stop()

    def test_mid_frame_cut_resumes_byte_identical(self, config):
        """A connection cut *inside* a frame (truncated payload) is a
        TransportError, not a clean EOF — and equally survivable."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, cut=Fault(skip_first=3, max_fires=1))
        try:
            with one_shard(proxy) as router:
                assert_scan_results_identical(
                    router.scan(video.name, "car"), reference.scan(video.name, "car")
                )
                assert router.failovers_total == 1
        finally:
            proxy.close()
            transport.stop()
            server.stop()

    @pytest.mark.parametrize("fault", ["drop", "cut"])
    def test_a_lost_video_info_reply_is_redialled(self, config, fault):
        """The wire fails on the router's first request, ``video_info``: that
        connection is re-dialled like a scan's, so the scan is served
        byte-identical, the one shard stays up, and the next scan is served
        too."""
        # Server frames: hello (1), then the video_info reply (2) is lost.
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, **{fault: Fault(skip_first=1, max_fires=1)})
        try:
            with one_shard(proxy) as router:
                assert_scan_results_identical(
                    router.scan(video.name, "car"), reference.scan(video.name, "car")
                )
                assert proxy.fires()[fault] == 1
                assert not router._down
                assert router.failovers_total == 0, "no share was lost"
                assert_scan_results_identical(
                    router.scan(video.name, "person"), reference.scan(video.name, "person")
                )
        finally:
            proxy.close()
            transport.stop()
            server.stop()

    def test_without_retry_policy_the_failure_surfaces(self, config):
        """The same drop with no RetryPolicy: nothing re-dials, the one shard
        is marked down, and the scan fails with the wire error."""
        server, video = make_server(config)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, drop=Fault(skip_first=2, max_fires=1))
        try:
            with one_shard(proxy, retry=None) as router:
                with pytest.raises(TransportError):
                    router.scan(video.name, "car")
                assert router.failovers_total == 0
                assert list(router._down) == router.shards
        finally:
            proxy.close()
            transport.stop()
            server.stop()

    def test_redial_gives_up_when_the_server_is_gone(self, config, monkeypatch):
        """Attempts exhausted against a dead listener: the router dials the
        shard once per attempt, then fails the scan with the wire error
        instead of retrying forever."""
        server, video = make_server(config)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        dials = []

        def dial(*args, **kwargs):
            dials.append(args[0])
            return RemoteTasmClient(*args, **kwargs)

        monkeypatch.setattr(router_module, "RemoteTasmClient", dial)
        router = one_shard(
            transport, retry=RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05, seed=1)
        )
        try:
            stream = router.scan_streaming(video.name, "car")
            assert wait_until(lambda: len(calls) >= 1)
            transport.stop()  # kills the connection and the listener
            gate.set()
            with pytest.raises(TransportError):
                stream.result()
            assert len(dials) == 1 + 2, "the first dial, then one per attempt"
            assert stream.failovers == 0
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            router.close()
            transport.stop()
            server.stop()

    @pytest.mark.parametrize("closing", ["stream", "router"])
    def test_close_ends_a_long_backoff_at_once(self, config, closing):
        """The backoff is one wait that ``close()`` of the stream or of the
        router ends: a consumer sleeping through a 30 s delay returns as
        soon as either closes, nothing is re-dialled, and a second close is
        a no-op."""
        server, video = make_server(config)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        router = one_shard(
            transport, retry=RetryPolicy(attempts=2, base_delay=30.0, max_delay=30.0, jitter=0.0)
        )
        try:
            stream = router.scan_streaming(video.name, "car")
            assert wait_until(lambda: len(calls) >= 1)
            consumer, outcome = consume_in_background(stream)
            transport.stop()  # kills the connection and the listener
            gate.set()
            assert wait_until(lambda: not stream.outstanding), "the lost share went unseen"
            closed = stream if closing == "stream" else router
            started = time.monotonic()
            closed.close()
            consumer.join(timeout=5.0)
            assert not consumer.is_alive()
            assert time.monotonic() - started < 2.0
            error = outcome.get_nowait()
            expected = StreamCancelledError if closing == "stream" else ServiceError
            assert isinstance(error, expected), error
            closed.close()  # idempotent
            assert stream.failovers == 0
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            router.close()
            transport.stop()
            server.stop()

    def test_resume_rebases_deadline_and_skips_what_arrived(self, config, monkeypatch):
        """The resume inherits the *remaining* deadline budget (not the full
        one again) and skips the SOT already delivered."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, drop=Fault(skip_first=3, max_fires=1))
        sent = capture_scans(monkeypatch)
        try:
            with one_shard(proxy) as router:
                result = router.scan(video.name, "car", deadline_ms=60000.0)
                assert_scan_results_identical(result, reference.scan(video.name, "car"))
                first, resume = sent
                assert 0.0 < resume["deadline_ms"] < first["deadline_ms"] <= 60000.0
                assert first["skip_sots"] == [] and resume["skip_sots"] == [0]
        finally:
            proxy.close()
            transport.stop()
            server.stop()

    def test_deadline_spent_in_the_gap_fails_with_nothing_resubmitted(
        self, config, monkeypatch
    ):
        """A backoff is capped by the scan's remaining deadline: when that
        runs out first the stream fails with DEADLINE_EXCEEDED, well before
        the policy's 1 s delay, and nothing is resubmitted — a 400 ms promise
        is not worth 400 ms again per re-dial."""
        server, video = make_server(config)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, drop=Fault(skip_first=3, max_fires=1))
        sent = capture_scans(monkeypatch)
        router = one_shard(
            proxy,
            retry=RetryPolicy(attempts=2, base_delay=1.0, max_delay=1.0, jitter=0.1, seed=5),
        )
        try:
            started = time.monotonic()
            stream = router.scan_streaming(video.name, "car", deadline_ms=400.0)
            with pytest.raises(DeadlineExceeded):
                stream.result()
            assert time.monotonic() - started < 1.0
            assert len(sent) == 1
            assert server.queries_submitted == 1, "no orphan resubmission"
            assert stream.failovers == 0
        finally:
            router.close()
            proxy.close()
            transport.stop()
            server.stop()

    def test_a_stream_closed_in_the_gap_is_not_resubmitted(self, config, monkeypatch):
        """A consumer that closes its stream while the router backs off must
        not have the scan resurrected by the re-dial — the server would
        decode for nobody.  The shard is not marked down, and the next scan
        re-dials it."""
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, drop=Fault(skip_first=3, max_fires=1))
        sent = capture_scans(monkeypatch)
        # A wide backoff window so the close lands mid-gap.
        router = one_shard(
            proxy,
            retry=RetryPolicy(attempts=4, base_delay=0.3, max_delay=0.5, jitter=0.1, seed=7),
        )
        try:
            stream = router.scan_streaming(video.name, "car")
            consumer, outcome = consume_in_background(stream)
            assert wait_until(
                lambda: proxy.fires()["drop"] == 1 and not stream.outstanding
            )
            stream.close()  # the consumer walks away during the outage
            consumer.join(timeout=5.0)
            assert isinstance(outcome.get_nowait(), StreamCancelledError)
            assert len(sent) == 1
            assert server.queries_submitted == 1, "closed scan stayed dead"
            assert not router._down
            assert_scan_results_identical(
                router.scan(video.name, "person"), reference.scan(video.name, "person")
            )
        finally:
            router.close()
            proxy.close()
            transport.stop()
            server.stop()

    def test_replacement_connection_dropped_mid_resume(self, config):
        """The connection a re-dial just made dies under the resumed share:
        that is a wire failure like the first, so the router re-dials again,
        and every scan that was on the first connection still ends
        byte-identical."""
        # Drop sees hello (1), video_info (2), a chunk (3), and kills the
        # first connection at the fourth frame.  Cut sees those three, the
        # replacement's hello (4), and cuts the replacement at its first
        # chunk: the first one the resumed share is owed.
        # One runner, parked on the first scan's first SOT: the other two
        # queue behind it, so all three are in flight when the drop fires.
        server, video = make_server(config, service_runners=1)
        reference, _ = make_tasm(config)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        proxy = proxied(
            transport,
            drop=Fault(skip_first=3, max_fires=1),
            cut=Fault(skip_first=4, max_fires=1),
        )
        router = one_shard(proxy)
        try:
            streams = {LABELS[0]: router.scan_streaming(video.name, LABELS[0])}
            assert wait_until(lambda: len(calls) >= 1)
            for label in LABELS[1:]:
                streams[label] = router.scan_streaming(video.name, label)
            gate.set()
            for label, stream in streams.items():
                assert_scan_results_identical(
                    stream.result(), reference.scan(video.name, label)
                )
            assert [stream.failovers for stream in streams.values()] == [2, 1, 1]
            assert router.failovers_total == 4
            assert proxy.fires() == {"drop": 1, "cut": 1}
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            router.close()
            proxy.close()
            transport.stop()
            server.stop()


    def test_consumers_racing_to_redial_one_shard_all_resume(self, config):
        """Eight scans lose their one connection together, and their eight
        consumers re-dial the shard at once, the switch interval shortened:
        every scan ends byte-identical, every one counts its failover, and
        the router keeps one live connection: each dial that lost the race
        was closed, so the shard serves exactly one."""
        server, video = make_server(config, service_runners=1)
        reference, _ = make_tasm(config)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, drop=Fault(skip_first=3, max_fires=1))
        router = one_shard(proxy)
        interval = sys.getswitchinterval()
        try:
            labels = [LABELS[index % len(LABELS)] for index in range(8)]
            streams = [router.scan_streaming(video.name, labels[0])]
            assert wait_until(lambda: len(calls) >= 1)
            streams += [router.scan_streaming(video.name, label) for label in labels[1:]]
            sys.setswitchinterval(1e-5)
            consumers = [consume_in_background(stream) for stream in streams]
            gate.set()
            for (consumer, outcome), label in zip(consumers, labels):
                consumer.join(timeout=30.0)
                assert not consumer.is_alive()
                assert_scan_results_identical(
                    outcome.get_nowait(), reference.scan(video.name, label)
                )
            assert [stream.failovers for stream in streams] == [1] * 8
            assert router.failovers_total == 8
            (client,) = router._clients.values()
            assert client._dead is None
            assert wait_until(lambda: len(transport._connections) == 1)
        finally:
            sys.setswitchinterval(interval)
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            router.close()
            proxy.close()
            transport.stop()
            server.stop()


class TestPlainConnection:
    def test_a_cut_wire_fails_everything_outstanding_and_refuses_what_follows(
        self, config
    ):
        """A client is one connection: cut its wire and the scan and the
        request it had in flight fail with TransportError, the next call is
        refused with it at once, and its reader thread is gone."""
        # Server frames: hello (1); the stats reply (2) is cut mid-frame.
        server, video = make_server(config, service_runners=1)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        proxy = proxied(transport, cut=Fault(skip_first=1, max_fires=1))
        baseline = threading.active_count()
        client = RemoteTasmClient(proxy.address, timeout=30.0, use_shm=False)
        try:
            stream = client.scan_streaming(video.name, "car")
            assert wait_until(lambda: len(calls) >= 1), "the scan never started"
            with pytest.raises(TransportError):
                client.stats()
            with pytest.raises(TransportError):
                stream.result()
            started = time.monotonic()
            with pytest.raises(TransportError, match="connection failed"):
                client.scan_streaming(video.name, "person")
            with pytest.raises(TransportError, match="connection failed"):
                client.stats()
            assert time.monotonic() - started < 1.0, "a refusal must not wait"
            client._reader.join(timeout=5.0)
            assert not client._reader.is_alive()
            assert wait_until(lambda: threading.active_count() <= baseline)
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            client.close()
            proxy.close()
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# Shared-memory attach faults
# ----------------------------------------------------------------------
class TestShmAttachFault:
    def test_attach_failure_falls_back_to_socket(self, config, monkeypatch):
        fail_shm_attach_once(monkeypatch)
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = ShmTransport(server).start()
        try:
            with RemoteTasmClient(transport.address, timeout=30.0, use_shm=True) as client:
                assert_scan_results_identical(
                    client.scan(video.name, "car"),
                    reference.scan(video.name, "car"),
                )
                assert client.socket_chunks_received > 0
                assert client.shm_chunks_received == 0
        finally:
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# Handshake bound (satellite: a wedged peer cannot pin a reader forever)
# ----------------------------------------------------------------------
class TestHandshakeTimeout:
    def test_idle_peer_is_cut_and_counted(self, config, monkeypatch):
        monkeypatch.setattr(transport_module, "HANDSHAKE_TIMEOUT_S", 0.25)
        server, video = make_server(config)
        transport = SocketTransport(server).start()
        try:
            idler = socket.create_connection(transport.address, timeout=5.0)
            idler.settimeout(5.0)
            try:
                assert idler.recv(1) == b"", "the idle peer should be cut loose"
            finally:
                idler.close()
            assert wait_until(
                lambda: server.obs.handshakes_timed_out.value >= 1
            ), "the timed-out handshake was never counted"
            # A well-behaved client afterwards is served normally.
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=False
            ) as client:
                assert client.scan(video.name, "car").regions
        finally:
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# Starved-stage timeout messages (satellite)
# ----------------------------------------------------------------------
class TestStarvedStageMessages:
    def test_result_timeout_names_the_queue_stage(self, config):
        tasm, video = make_tasm(replace(config, service_max_batch=4))
        server = TasmServer(tasm)
        server._running = True  # no threads: the query stays queued
        stream = server.submit(Query.select("car", video.name))
        with pytest.raises(ServiceError, match="starved in queue"):
            stream.result(timeout=0.05)

    def test_result_timeout_names_the_execute_stage(self, config):
        server, video = make_server(config, service_runners=1, service_max_batch=1)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=2)
        try:
            stream = server.submit(Query.select("car", video.name))
            assert wait_until(lambda: len(calls) >= 2)
            with pytest.raises(ServiceError, match="starved in execute"):
                stream.result(timeout=0.1)
            gate.set()
            assert stream.result(timeout=30).regions
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            server.stop()

    def test_remote_timeout_raises_on_time_naming_the_chunks_delivered(self, config):
        """A stalled wire holds every server frame after the hello for 3 s;
        the client waits 1.0 s for stream data.  The timeout raises on that
        clock, naming what this side holds, with no further round trip over
        the stalled wire."""
        server, video = make_server(config)
        transport = SocketTransport(server).start()
        proxy = WireProxy(
            transport.address, Faults(delay=Fault(skip_first=1, delay_ms=3000.0))
        )
        try:
            with RemoteTasmClient(proxy.address, timeout=1.0) as client:
                stream = client.scan_streaming(video.name, "car")
                began = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    stream.result()
                elapsed = time.monotonic() - began
                message = str(excinfo.value)
                assert "no stream data within" in message, message
                assert "chunk(s) delivered" in message, message
                assert elapsed < 1.6, f"raised after {elapsed:.2f} s"
        finally:
            proxy.close()
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# The chaos workload
# ----------------------------------------------------------------------
class TestChaos:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_mixed_workload_under_faults(self, config, seed, monkeypatch):
        """Mixed queries from two one-shard routers under a multi-rule
        seeded schedule.  Invariants:

        * nothing hangs — every scan reaches a terminal state in time;
        * every outcome is a known state: done, deadline, busy;
        * every completed scan's bytes match a fault-free reference;
        * the recovery counts account for the injected faults.
        """
        faults = Faults(
            seed,
            drop=Fault(probability=0.2, skip_first=3, max_fires=2),
            cut=Fault(probability=0.2, skip_first=5, max_fires=1),
            delay=Fault(probability=0.3, delay_ms=5.0, max_fires=10),
        )
        server, video = make_server(
            config,
            service_runners=2,
            service_max_queue_depth=16,
        )
        reference, _ = make_tasm(config)
        expected = {label: reference.scan(video.name, label) for label in LABELS}
        # Router A's shard connections ask for the shared-memory ring, and the
        # first attach fails; router B's consumers take their time.  Each
        # router reaches the server through its own transport and proxy, so
        # a dial is told apart by its address; both proxies share one
        # schedule, so the wire faults are counted across both.
        transports = {
            True: ShmTransport(server).start(),
            False: SocketTransport(server).start(),
        }
        proxies = {shm: WireProxy(transports[shm].address, faults) for shm in transports}
        fail_shm_attach_once(monkeypatch)

        def dial(address, use_shm, **kwargs):
            shm = tuple(address) == proxies[True].address
            return RemoteTasmClient(address, use_shm=shm, **kwargs)

        monkeypatch.setattr(router_module, "RemoteTasmClient", dial)
        # The streams whose share the router had to re-issue: a sub-scan
        # lost its connection (or was shed).  Only their deadlines may be
        # the router's verdict rather than the server's.
        recovering = set()
        failover = ClusterScanStream._failover

        def recording_failover(stream, sub, error):
            if isinstance(error, (TransportError, ServerBusy)):
                recovering.add(stream)
            return failover(stream, sub, error)

        monkeypatch.setattr(ClusterScanStream, "_failover", recording_failover)
        retry = RetryPolicy(attempts=8, base_delay=0.02, max_delay=0.2, seed=seed)
        routers = [
            ClusterRouter([proxies[shm].address], timeout=15.0, retry=retry)
            for shm in (True, False)
        ]
        outcomes = {"done": 0, "deadline": 0, "busy": 0}
        # Submissions the router refused because their deadline ran out
        # while it re-dialled a lost connection, before any shard took them.
        refused = 0
        # Router B's consumers pause between chunks now and then.
        pace = random.Random(seed)
        pauses = 0
        try:
            submissions = []
            for index in range(16):
                label = LABELS[index % len(LABELS)]
                deadline_ms = 40.0 if index % 5 == 0 else None
                try:
                    stream = routers[index % 2].scan_streaming(
                        video.name, label, deadline_ms=deadline_ms
                    )
                except DeadlineExceeded:
                    refused += 1
                    continue
                submissions.append((stream, label, index % 2 == 1))
            for stream, label, paced in submissions:
                try:
                    if paced:
                        for _ in stream:
                            if pauses < 5 and pace.random() < 0.2:
                                pauses += 1
                                time.sleep(0.002)
                    result = stream.result()
                except DeadlineExceeded:
                    outcomes["deadline"] += 1
                except ServerBusy:
                    outcomes["busy"] += 1
                else:
                    outcomes["done"] += 1
                    assert_scan_results_identical(result, expected[label])
            # Every query is accounted for — no hang, no unknown terminal.
            assert sum(outcomes.values()) + refused == 16, (outcomes, refused)
            fires = proxies[False].fires()  # the schedule both proxies share
            # A stream re-issues its share only after its connection died,
            # and each death is an injected wire fault (one that lands on a
            # handshake kills a connection no stream is on).
            wire_faults = fires["drop"] + fires["cut"]
            assert all(stream.failovers <= wire_faults for stream, _, _ in submissions)
            assert sum(router.failovers_total for router in routers) == sum(
                stream.failovers for stream, _, _ in submissions
            )
            # A deadline the server did not count was raised by the router
            # while it recovered that stream's share.  Busy is the server's
            # verdict alone (a lost error reply may be resumed into a
            # different outcome).
            recovered_with_deadline = sum(
                1 for stream in recovering if stream.deadline_ms is not None
            )
            assert (
                outcomes["deadline"] - server.queries_deadline_exceeded
                <= recovered_with_deadline
            ), (outcomes, server.queries_deadline_exceeded, recovered_with_deadline)
            assert outcomes["busy"] <= server.shed_queue_full
        finally:
            for router in routers:
                router.close()
            for proxy in proxies.values():
                proxy.close()
            for transport in transports.values():
                transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# The fault proxy itself
# ----------------------------------------------------------------------
def frame(kind: int, payload: bytes) -> bytes:
    return transport_module._FRAME_HEADER.pack(kind, len(payload)) + payload


class FrameServer:
    """Serves ``connections`` connections one after another: each gets
    ``frames`` and is then held open until the peer closes it.
    ``peer_closed`` has one entry per connection, True once its peer did."""

    def __init__(self, frames: list[bytes], connections: int = 1):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.peer_closed: list[bool] = []
        self._thread = threading.Thread(
            target=self._serve, args=(frames, connections), name="test-frame-server"
        )
        self._thread.start()

    def _serve(self, frames: list[bytes], connections: int) -> None:
        for _ in range(connections):
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # close() shut the listener down
            with conn:
                try:
                    conn.sendall(b"".join(frames))
                except OSError:
                    pass
                conn.settimeout(10.0)
                try:
                    self.peer_closed.append(conn.recv(1) == b"")
                except TimeoutError:
                    self.peer_closed.append(False)
                except OSError:
                    self.peer_closed.append(True)  # reset: closed with bytes unread

    def close(self) -> None:
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=15.0)

    def __enter__(self) -> "FrameServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def receive_all(address) -> bytes:
    """Everything one connection through ``address`` delivers until EOF."""
    received = b""
    with socket.create_connection(address, timeout=10.0) as client:
        while True:
            try:
                more = client.recv(1 << 16)
            except ConnectionResetError:
                return received
            if not more:
                return received
            received += more


def receive_all_of(address, expected: bytes) -> bytes:
    """Read ``len(expected)`` bytes through ``address``, then close."""
    received = b""
    with socket.create_connection(address, timeout=10.0) as client:
        while len(received) < len(expected):
            more = client.recv(1 << 16)
            if not more:
                break
            received += more
    return received


class TestWireProxy:
    def test_one_seed_gives_one_decision_sequence(self):
        """Each rule draws from its own generator seeded by (seed, rule):
        the same seed repeats every decision, another seed does not, and a
        rule's decisions do not move when another rule is added."""

        def decisions(seed, **extra):
            faults = Faults(seed, drop=Fault(probability=0.3), **extra)
            return [faults.verdict()[1] == "drop" for _ in range(200)]

        first = decisions(7)
        assert first == decisions(7)
        assert first != decisions(8)
        assert 0 < sum(first) < 200
        assert first == decisions(7, delay=Fault(probability=0.5, delay_ms=1.0))

    def test_skip_first_and_max_fires_land_exactly(self):
        """A rule passes its first ``skip_first`` frames, then fires on the
        next ``max_fires`` and never again; ``fires()`` counts each."""
        faults = Faults(3, drop=Fault(skip_first=3, max_fires=2))
        verdicts = [faults.verdict() for _ in range(8)]
        assert [kill for _, kill in verdicts] == [None] * 3 + ["drop"] * 2 + [None] * 3
        assert all(pause == 0.0 for pause, _ in verdicts)
        assert faults.fires() == {"drop": 2}

    def test_rules_are_asked_delay_then_drop_then_cut(self):
        """A delay pauses the frame and leaves it to the other rules; a drop
        ends the connection, so the cut rule does not see that frame; an
        empty schedule forwards everything."""
        faults = Faults(
            0,
            delay=Fault(delay_ms=20.0, max_fires=1),
            drop=Fault(max_fires=1),
            cut=Fault(max_fires=1),
        )
        assert faults.verdict() == (0.02, "drop")
        assert faults.verdict() == (0.0, "cut")
        assert faults.verdict() == (0.0, None)
        assert faults.fires() == {"delay": 1, "drop": 1, "cut": 1}
        empty = Faults(0)
        assert empty.verdict() == (0.0, None) and empty.fires() == {}

    def test_frames_pass_intact_without_a_fault(self):
        """With nothing scheduled the proxy is transparent, and the client's
        close reaches the server through it."""
        frames = [frame(1, b"hello"), frame(2, bytes(range(256)) * 300), frame(3, b"")]
        with FrameServer(frames) as upstream:
            with WireProxy(upstream.address, Faults(0)) as proxy:
                expected = b"".join(frames)
                assert receive_all_of(proxy.address, expected) == expected
        assert upstream.peer_closed == [True]

    def test_a_drop_closes_both_legs_before_the_frame(self):
        frames = [frame(1, b"a" * 10), frame(1, b"b" * 10), frame(1, b"c" * 10)]
        with FrameServer(frames) as upstream:
            with WireProxy(upstream.address, Faults(0, drop=Fault(skip_first=1))) as proxy:
                assert receive_all(proxy.address) == frames[0]
                assert proxy.fires() == {"drop": 1}
        assert upstream.peer_closed == [True]

    def test_a_cut_forwards_the_header_and_half_the_payload(self):
        frames = [frame(1, b"a" * 10), frame(4, bytes(range(100)))]
        with FrameServer(frames) as upstream:
            with WireProxy(upstream.address, Faults(0, cut=Fault(skip_first=1))) as proxy:
                assert receive_all(proxy.address) == frames[0] + frames[1][:5 + 50]
                assert proxy.fires() == {"cut": 1}
        assert upstream.peer_closed == [True]

    def test_close_wakes_a_pending_delay(self):
        """``close()`` ends a frame's pause instead of waiting it out."""
        with FrameServer([frame(1, b"late")]) as upstream:
            proxy = WireProxy(upstream.address, Faults(0, delay=Fault(delay_ms=3000.0)))
            with socket.create_connection(proxy.address, timeout=10.0):
                assert wait_until(lambda: proxy.fires() == {"delay": 1})
                started = time.perf_counter()
                proxy.close()
                assert time.perf_counter() - started < 0.5
        assert upstream.peer_closed == [True]

    def test_the_schedule_counts_frames_across_connections(self):
        """The fourth frame the proxy carries is dropped whichever
        connection it is on: the first connection passes whole, the second
        loses its second frame."""
        frames = [frame(1, b"x"), frame(1, b"y")]
        with FrameServer(frames, connections=2) as upstream:
            faults = Faults(0, drop=Fault(skip_first=3, max_fires=1))
            with WireProxy(upstream.address, faults) as proxy:
                assert receive_all_of(proxy.address, b"".join(frames)) == b"".join(frames)
                assert receive_all(proxy.address) == frames[0]
                assert proxy.fires() == {"drop": 1}
        assert upstream.peer_closed == [True, True]

