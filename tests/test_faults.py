"""Fault injection and recovery: the chaos suite.

The contracts pinned here, layer by layer:

* the :class:`~repro.faults.FaultPlan` itself is deterministic — for a fixed
  seed every site's fire-decision sequence is a pure function of its
  evaluation ordinal, so a chaos run can reconcile what fired against what
  the recovery machinery reports;
* **deadlines** fail a query with :class:`~repro.errors.DeadlineExceeded`
  whether it expires while pending (never costing a batch slot) or mid-batch
  (the executor's cancelled-probe stops its remaining decode);
* **load shedding** fast-fails with :class:`~repro.errors.ServerBusy` above
  the depth bound, before the refused query is admitted;
* **crash recovery**: the runner that catches a crashed batch requeues its
  unaffected queries with served SOTs skipped (results byte-identical),
  quarantines a query whose batches keep crashing with
  :class:`~repro.errors.PoisonQueryError`, and serves on — no thread is
  replaced;
* **retry/reconnect**: a :class:`~repro.service.RetryPolicy` client survives
  a dropped or mid-frame-cut connection, resuming in-flight scans from the
  last delivered chunk — byte-identical to an uninterrupted run — and
  ``close()`` concurrent with an in-flight reconnect is clean (no leaked
  reader, idempotent);
* a transient decode fault fails only the offending execution: a multi-query
  batch retries its untouched members individually;
* the hello handshake is bounded: an idle peer is cut loose and counted;
* timeout errors say which stage starved (queue vs execute vs wire);
* with no plan configured every injection hook resolves to ``None`` — the
  production path carries no chaos machinery;
* and the seeded **chaos workload**: mixed queries under a multi-point plan
  never hang, never deliver wrong bytes, always terminate in a known state,
  and the recovery metrics account for every injected fault.
"""

from __future__ import annotations

import select
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.query import Query
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    PoisonQueryError,
    ServerBusy,
    ServiceError,
)
from repro.faults import (
    FAULT_CONSUMER_SKEW,
    FAULT_DECODE_ERROR,
    FAULT_RUNNER_DEATH,
    FAULT_SHM_ATTACH,
    FAULT_TRANSPORT_CUT,
    FAULT_TRANSPORT_DELAY,
    FAULT_TRANSPORT_DROP,
    FaultPlan,
    FaultSite,
    FaultSpec,
)
from repro.service import (
    BatchScheduler,
    RemoteTasmClient,
    RetryPolicy,
    ShmTransport,
    SocketTransport,
)
from tests.test_exec_engine import assert_scan_results_identical, make_tasm
from tests.test_service import held_runner
from tests.test_service_flow_control import make_server, only_connection, wait_until

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


# ----------------------------------------------------------------------
# The plan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_decision_sequence(self):
        spec = FaultSpec(FAULT_TRANSPORT_DROP, probability=0.5)
        first = [FaultSite(spec, seed=7).should_fire() for _ in range(1)]
        a = FaultSite(spec, seed=7)
        b = FaultSite(spec, seed=7)
        assert [a.should_fire() for _ in range(200)] == [
            b.should_fire() for _ in range(200)
        ]
        assert a.fires == b.fires
        del first

    def test_sites_are_seeded_per_point(self):
        plan = FaultPlan(
            [
                FaultSpec(FAULT_TRANSPORT_DROP, probability=0.5),
                FaultSpec(FAULT_RUNNER_DEATH, probability=0.5),
            ],
            seed=7,
        )
        drop = plan.site(FAULT_TRANSPORT_DROP)
        death = plan.site(FAULT_RUNNER_DEATH)
        drops = [drop.should_fire() for _ in range(200)]
        deaths = [death.should_fire() for _ in range(200)]
        assert drops != deaths, "per-point RNG streams must be independent"
        assert plan.fires() == {
            FAULT_TRANSPORT_DROP: sum(drops),
            FAULT_RUNNER_DEATH: sum(deaths),
        }
        assert plan.total_fires() == sum(drops) + sum(deaths)

    def test_skip_first_and_max_fires(self):
        site = FaultSite(
            FaultSpec(FAULT_DECODE_ERROR, probability=1.0, skip_first=3, max_fires=2),
            seed=0,
        )
        decisions = [site.should_fire() for _ in range(10)]
        assert decisions == [False, False, False, True, True] + [False] * 5
        assert site.fires == 2
        assert site.evaluations == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("transport.not-a-point")
        with pytest.raises(ConfigurationError):
            FaultSpec(FAULT_TRANSPORT_DROP, probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(FAULT_TRANSPORT_DROP, max_fires=-1)
        with pytest.raises(ConfigurationError):
            FaultPlan(
                [FaultSpec(FAULT_TRANSPORT_DROP), FaultSpec(FAULT_TRANSPORT_DROP)]
            )

    def test_unplanned_point_resolves_to_none(self):
        plan = FaultPlan([FaultSpec(FAULT_TRANSPORT_DROP)])
        assert plan.site(FAULT_RUNNER_DEATH) is None


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
            time.sleep(0.1)  # let the deadline lapse while the runner is held
            gate.set()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30)
            blocker.result(timeout=30)
            assert server._scheduler.queries_deadline_exceeded >= 1
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
            assert wait_until(lambda: server._scheduler.batches_executed >= 1)
            assert len(calls) == 2
            assert server._scheduler.queries_deadline_exceeded == 1
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
                time.sleep(0.1)
                gate.set()
                with pytest.raises(DeadlineExceeded):
                    doomed.result()
                blocker.result()
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_depth_bound_fast_fails(self, config):
        """Above ``service_max_queue_depth`` pending, submit refuses with
        SERVER_BUSY before allocating a stream."""
        tasm, video = make_tasm(config)
        scheduler = BatchScheduler(tasm, max_batch=4, max_queue_depth=2)
        scheduler._running = True  # driven without threads: pending stays put
        scheduler.submit(Query.select("car", video.name))
        scheduler.submit(Query.select("person", video.name))
        with pytest.raises(ServerBusy, match="SERVER_BUSY"):
            scheduler.submit(Query.select("sign", video.name))
        assert scheduler.shed_queue_full == 1
        assert scheduler.queue_depth == 2, "the refused query never queued"


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
class TestRunnerSupervision:
    def test_injected_death_is_survived(self, config):
        """A batch crashed at its start is recovered by the runner that ran
        it and the query completes byte-identical — the waiter never learns
        anything broke, and no runner thread was replaced."""
        plan = FaultPlan([FaultSpec(FAULT_RUNNER_DEATH, max_fires=1)], seed=3)
        server, video = make_server(config, fault_plan=plan)
        reference, _ = make_tasm(config)
        runners = list(server._scheduler._runners)
        try:
            result = server.submit(Query.select("car", video.name)).result(timeout=30)
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
            assert server._scheduler.runner_restarts == 1
            assert plan.fires()[FAULT_RUNNER_DEATH] == 1
            assert server._scheduler._runners == runners
            assert all(runner.is_alive() for runner in runners)
        finally:
            server.stop()

    def test_mid_stream_death_resumes_byte_identical(self, config):
        """Kill the runner *after* it served a SOT: the requeued query skips
        the delivered chunk and the spliced result is byte-identical."""
        # skip_first=1 passes the batch-entry evaluation; the next
        # evaluation is the observer hook after the first served chunk.
        plan = FaultPlan(
            [FaultSpec(FAULT_RUNNER_DEATH, skip_first=1, max_fires=1)], seed=3
        )
        server, video = make_server(config, fault_plan=plan)
        reference, _ = make_tasm(config)
        try:
            result = server.submit(Query.select("car", video.name)).result(timeout=30)
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
            assert server._scheduler.runner_restarts == 1
        finally:
            server.stop()

    def test_poison_query_is_quarantined(self, config):
        """A query that crashes every batch it rides in is quarantined after
        ``service_poison_query_kills`` crashes instead of looping forever."""
        plan = FaultPlan([FaultSpec(FAULT_RUNNER_DEATH, probability=1.0)], seed=3)
        server, video = make_server(
            config, fault_plan=plan, service_poison_query_kills=2
        )
        try:
            stream = server.submit(Query.select("car", video.name))
            with pytest.raises(PoisonQueryError):
                stream.result(timeout=30)
            scheduler = server._scheduler
            assert scheduler.queries_quarantined == 1
            assert scheduler.runner_restarts >= 2
        finally:
            server.stop()

    def test_a_crash_in_the_recovery_does_not_end_the_runner(self, config):
        """Nothing raised inside an iteration ends a runner, the recovery
        included: a recovery that raises fails the crashed batch's query with
        that error, and the same runner serves the next query."""
        plan = FaultPlan([FaultSpec(FAULT_RUNNER_DEATH, max_fires=1)], seed=3)
        server, video = make_server(config, fault_plan=plan, service_runners=1)
        scheduler = server._scheduler
        original = scheduler._runners[0]
        broken = RuntimeError("recovery bug")

        def failing_recovery(batch):
            raise broken

        scheduler._recover_batch = failing_recovery
        reference, _ = make_tasm(config)
        try:
            with pytest.raises(ServiceError) as failed:
                server.submit(Query.select("car", video.name)).result(timeout=30)
            assert failed.value.__cause__ is broken
            assert scheduler.runner_restarts == 1
            result = server.submit(Query.select("car", video.name)).result(timeout=30)
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
            assert scheduler._runners == [original]
            assert original.is_alive()
        finally:
            server.stop()

    def test_stop_wakes_the_idle_runners(self, config):
        """Idle runners wait with no timeout, so ``stop()`` is what wakes
        them: stop returns well inside its drain timeout with every runner
        gone."""
        server, _ = make_server(config)
        runners = list(server._scheduler._runners)
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
        plan = FaultPlan([FaultSpec(FAULT_DECODE_ERROR, max_fires=1)], seed=5)
        server, video = make_server(config, fault_plan=plan)
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
        plan = FaultPlan([FaultSpec(FAULT_DECODE_ERROR, max_fires=1)], seed=5)
        server, video = make_server(config, fault_plan=plan, service_runners=1)
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
            assert plan.fires()[FAULT_DECODE_ERROR] == 1
            assert sizes == [1, 2, 1, 1], "one shared batch, then one retry each"
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Client retry / reconnect
# ----------------------------------------------------------------------
RETRY = RetryPolicy(attempts=6, base_delay=0.02, max_delay=0.2, seed=11)


class TestRetryReconnect:
    def test_dropped_connection_resumes_byte_identical(self, config):
        """Kill the wire after the first chunk: the client reconnects,
        resumes with skip_sots, and the result is byte-identical."""
        # Writer frames: hello reply (1), chunk SOT0 (2), chunk SOT1 (3).
        plan = FaultPlan(
            [FaultSpec(FAULT_TRANSPORT_DROP, skip_first=2, max_fires=1)], seed=13
        )
        server, video = make_server(config, fault_plan=plan)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=False, retry=RETRY
            ) as client:
                result = client.scan(video.name, "car")
                assert_scan_results_identical(
                    result, reference.scan(video.name, "car")
                )
                assert client.retries_total == 1
                assert plan.fires()[FAULT_TRANSPORT_DROP] == 1
                assert server._scheduler.scan_resumes >= 1
        finally:
            transport.stop()
            server.stop()

    def test_mid_frame_cut_resumes_byte_identical(self, config):
        """A connection cut *inside* a frame (truncated payload) is a
        TransportError, not a clean EOF — and equally survivable."""
        plan = FaultPlan(
            [FaultSpec(FAULT_TRANSPORT_CUT, skip_first=2, max_fires=1)], seed=13
        )
        server, video = make_server(config, fault_plan=plan)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=False, retry=RETRY
            ) as client:
                assert_scan_results_identical(
                    client.scan(video.name, "car"),
                    reference.scan(video.name, "car"),
                )
                assert client.retries_total == 1
        finally:
            transport.stop()
            server.stop()

    def test_without_retry_policy_the_failure_surfaces(self, config):
        """The same drop with no RetryPolicy: the scan fails — reconnection
        is opt-in, not silent behaviour."""
        plan = FaultPlan(
            [FaultSpec(FAULT_TRANSPORT_DROP, skip_first=1, max_fires=1)], seed=13
        )
        server, video = make_server(config, fault_plan=plan)
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=False
            ) as client:
                with pytest.raises(ServiceError):
                    client.scan(video.name, "car")
                assert client.retries_total == 0
        finally:
            transport.stop()
            server.stop()

    def test_reconnect_gives_up_when_the_server_is_gone(self, config):
        """Attempts exhausted against a dead listener: outstanding scans fail
        instead of retrying forever."""
        server, video = make_server(config)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        client = RemoteTasmClient(
            transport.address,
            timeout=10.0,
            use_shm=False,
            retry=RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05, seed=1),
        )
        try:
            stream = client.scan_streaming(video.name, "car")
            assert wait_until(lambda: len(calls) >= 1)
            transport.stop()  # kills the connection and the listener
            gate.set()
            with pytest.raises(ServiceError):
                stream.result()
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            client.close()
            transport.stop()
            server.stop()

    def test_close_concurrent_with_inflight_reconnect(self, config):
        """close() while the reader is mid-backoff: returns promptly, the
        reader exits (no leak warning), and a second close is a no-op."""
        # Every post-hello frame kills the connection — including each
        # reconnect's hello reply, so the reader loops in backoff forever.
        plan = FaultPlan(
            [FaultSpec(FAULT_TRANSPORT_DROP, skip_first=1)], seed=17
        )
        server, video = make_server(config, fault_plan=plan)
        transport = SocketTransport(server).start()
        client = RemoteTasmClient(
            transport.address,
            timeout=5.0,
            use_shm=False,
            retry=RetryPolicy(attempts=50, base_delay=0.05, max_delay=0.1, seed=1),
        )
        try:
            stream = client.scan_streaming(video.name, "car")
            time.sleep(0.3)  # let the drop fire and the reconnect loop spin
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                started = time.monotonic()
                client.close()
                assert time.monotonic() - started < 3.0
                client.close()  # idempotent
            leaks = [w for w in caught if "reader thread" in str(w.message)]
            assert not leaks, f"reader leaked through close: {leaks}"
            assert not client._reader.is_alive()
            with pytest.raises(ServiceError):
                stream.result()
        finally:
            client.close()
            transport.stop()
            server.stop()

    def test_close_wakes_a_long_backoff_at_once(self, config):
        """The backoff is one wait on the close event: a reader sleeping
        through a 30 s delay exits as soon as ``close()`` sets it, and the
        scan it was going to resume fails."""
        server, video = make_server(config)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        client = RemoteTasmClient(
            transport.address,
            timeout=10.0,
            use_shm=False,
            retry=RetryPolicy(attempts=2, base_delay=30.0, max_delay=30.0, jitter=0.0),
        )
        try:
            stream = client.scan_streaming(video.name, "car")
            assert wait_until(lambda: len(calls) >= 1)
            transport.stop()  # kills the connection and the listener
            assert wait_until(lambda: not client._wire_ok.is_set()), "never backed off"
            started = time.monotonic()
            client.close()
            assert time.monotonic() - started < 2.0
            assert not client._reader.is_alive()
            with pytest.raises(ServiceError):
                stream.result()
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            client.close()
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# Shared-memory attach faults
# ----------------------------------------------------------------------
class TestShmAttachFault:
    def test_attach_failure_falls_back_to_socket(self, config):
        plan = FaultPlan([FaultSpec(FAULT_SHM_ATTACH, max_fires=1)], seed=19)
        server, video = make_server(config)
        reference, _ = make_tasm(config)
        transport = ShmTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=True, fault_plan=plan
            ) as client:
                assert client.shm_active is False
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
    def test_idle_peer_is_cut_and_counted(self, config):
        server, video = make_server(config, service_handshake_timeout_s=0.25)
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
        tasm, video = make_tasm(config)
        scheduler = BatchScheduler(tasm, max_batch=4)
        scheduler._running = True  # no threads: the query stays queued
        stream = scheduler.submit(Query.select("car", video.name))
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

    def test_remote_timeout_reports_the_server_side_stage(self, config):
        server, video = make_server(config, service_runners=1, service_max_batch=1)
        gate = threading.Event()
        calls, original = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=1.0, use_shm=False
            ) as client:
                stream = client.scan_streaming(video.name, "car")
                assert wait_until(lambda: len(calls) >= 1)
                with pytest.raises(ServiceError) as excinfo:
                    stream.result()
                message = str(excinfo.value)
                assert "no stream data within" in message
                assert "execute stage" in message, message
                gate.set()
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# Zero-cost hooks when no plan is configured
# ----------------------------------------------------------------------
class TestZeroCostWhenUnset:
    def test_every_hook_resolves_to_none_without_a_plan(self, config):
        server, video = make_server(config)
        transport = SocketTransport(server).start()
        try:
            assert server._scheduler._fault_runner_death is None
            assert server.tasm._executor._fault_decode is None
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=False
            ) as client:
                connection = only_connection(transport)
                assert connection._fault_drop is None
                assert connection._fault_cut is None
                assert connection._fault_delay is None
                assert client._fault_attach is None
                assert client._fault_skew is None
                assert client.scan(video.name, "car").regions
        finally:
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# The chaos workload
# ----------------------------------------------------------------------
class TestChaos:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_mixed_workload_under_faults(self, config, seed):
        """Mixed queries under a multi-point seeded plan.  Invariants:

        * nothing hangs — every scan reaches a terminal state in time;
        * every outcome is a known state: done, deadline, busy, quarantined;
        * every completed scan's bytes match a fault-free reference;
        * the recovery metrics account for the injected faults.
        """
        plan = FaultPlan(
            [
                FaultSpec(FAULT_RUNNER_DEATH, probability=0.25, max_fires=2),
                FaultSpec(
                    FAULT_TRANSPORT_DROP, probability=0.2, skip_first=3, max_fires=2
                ),
                FaultSpec(
                    FAULT_TRANSPORT_CUT, probability=0.2, skip_first=5, max_fires=1
                ),
                FaultSpec(
                    FAULT_TRANSPORT_DELAY,
                    probability=0.3,
                    delay_ms=5.0,
                    max_fires=10,
                ),
            ],
            seed=seed,
        )
        server, video = make_server(
            config,
            fault_plan=plan,
            service_runners=2,
            service_max_queue_depth=16,
            service_poison_query_kills=3,
        )
        reference, _ = make_tasm(config)
        expected = {label: reference.scan(video.name, label) for label in LABELS}
        transport = ShmTransport(server).start()
        retry = RetryPolicy(attempts=8, base_delay=0.02, max_delay=0.2, seed=seed)
        client_a = RemoteTasmClient(
            transport.address,
            timeout=15.0,
            use_shm=True,
            retry=retry,
            fault_plan=FaultPlan([FaultSpec(FAULT_SHM_ATTACH, max_fires=1)], seed=seed),
        )
        client_b = RemoteTasmClient(
            transport.address,
            timeout=15.0,
            use_shm=False,
            retry=retry,
            fault_plan=FaultPlan(
                [
                    FaultSpec(
                        FAULT_CONSUMER_SKEW,
                        probability=0.2,
                        delay_ms=2.0,
                        max_fires=5,
                    )
                ],
                seed=seed,
            ),
        )
        outcomes = {"done": 0, "deadline": 0, "busy": 0, "quarantined": 0}
        try:
            submissions = []
            for index in range(16):
                client = (client_a, client_b)[index % 2]
                label = LABELS[index % len(LABELS)]
                deadline_ms = 40.0 if index % 5 == 0 else None
                stream = client.scan_streaming(
                    video.name, label, deadline_ms=deadline_ms
                )
                submissions.append((stream, label))
            for stream, label in submissions:
                try:
                    result = stream.result()
                except DeadlineExceeded:
                    outcomes["deadline"] += 1
                except ServerBusy:
                    outcomes["busy"] += 1
                except PoisonQueryError:
                    outcomes["quarantined"] += 1
                else:
                    outcomes["done"] += 1
                    assert_scan_results_identical(result, expected[label])
            # Every query is accounted for — no hang, no unknown terminal.
            assert sum(outcomes.values()) == len(submissions), outcomes
            scheduler = server._scheduler
            fires = plan.fires()
            # Every injected runner death produced exactly one restart.
            assert wait_until(
                lambda: scheduler.runner_restarts == fires[FAULT_RUNNER_DEATH]
            ), (scheduler.runner_restarts, fires)
            # Reconnects never exceed the wire faults that fired (a fire on a
            # handshake-in-progress consumes budget without a reconnect).
            total_retries = client_a.retries_total + client_b.retries_total
            assert (
                total_retries <= fires[FAULT_TRANSPORT_DROP] + fires[FAULT_TRANSPORT_CUT]
            )
            # Client-visible outcomes never exceed what the scheduler counted
            # (a lost error reply may be retried into a different outcome) —
            # plus the deadlines the clients fast-failed during a reconnect
            # gap, which by design never reach the server.
            fast_fails = client_a.deadline_fast_fails + client_b.deadline_fast_fails
            assert (
                outcomes["deadline"]
                <= scheduler.queries_deadline_exceeded + fast_fails
            )
            assert outcomes["busy"] <= scheduler.shed_queue_full
            assert outcomes["quarantined"] <= scheduler.queries_quarantined
        finally:
            client_a.close()
            client_b.close()
            transport.stop()
            server.stop()


# ----------------------------------------------------------------------
# Reconnect resume edge cases (the recovery paths cluster failover leans on)
# ----------------------------------------------------------------------
class TestReconnectResume:
    def capture_sends(self, client):
        """Record every frame the client puts on the wire (resumes included:
        the reader's resume sweep goes through the same ``_send``)."""
        sent: list[dict] = []
        original = client._send

        def instrumented(message):
            sent.append(dict(message))
            return original(message)

        client._send = instrumented
        return sent

    def test_resume_rebases_deadline_and_unions_skip_sots(self, config):
        """The resume after a reconnect must inherit the *remaining* deadline
        budget (not restart the full one) and must union the delivered SOTs
        with the skip list the scan was submitted with — overwriting would
        make a resumed scatter-gather shard re-serve SOTs other shards own."""
        # Writer frames: hello reply (1), chunk SOT0 (2); SOT2 is skipped at
        # submission, so the drop fires on chunk SOT1 — delivered == {0}.
        plan = FaultPlan(
            [FaultSpec(FAULT_TRANSPORT_DROP, skip_first=2, max_fires=1)], seed=13
        )
        server, video = make_server(config, fault_plan=plan)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        try:
            with RemoteTasmClient(
                transport.address, timeout=30.0, use_shm=False, retry=RETRY
            ) as client:
                sent = self.capture_sends(client)
                stream = client.scan_streaming(
                    video.name, "car", deadline_ms=60000.0, skip_sots=[2]
                )
                result = stream.result()
                assert client.retries_total == 1
                scans = [m for m in sent if m.get("op") == "scan"]
                assert len(scans) == 2, "one submission, one resume"
                assert scans[0]["deadline_ms"] == 60000.0
                assert scans[0]["skip_sots"] == [2]
                resume = scans[1]
                assert 0.0 < resume["deadline_ms"] < 60000.0
                assert resume["skip_sots"] == [0, 2]
                assert server._scheduler.scan_resumes >= 1
                # The spliced result covers exactly SOT0+SOT1 (frames 0..9),
                # byte-identical to an uninterrupted run minus the skip.
                expected = [
                    region
                    for region in reference.scan(video.name, "car").regions
                    if region.frame_index < 10
                ]
                assert len(result.regions) == len(expected)
                for got, want in zip(result.regions, expected):
                    assert got.frame_index == want.frame_index
                    assert got.region == want.region
                    np.testing.assert_array_equal(got.pixels, want.pixels)
        finally:
            transport.stop()
            server.stop()

    def test_deadline_exhausted_during_reconnect_fast_fails(self, config):
        """When the backoff outlives the deadline the client fails the
        stream itself with DEADLINE_EXCEEDED and never resubmits — the old
        behaviour shipped the full original deadline to the new server,
        making a 400 ms promise silently worth 400 ms per reconnect."""
        plan = FaultPlan(
            [FaultSpec(FAULT_TRANSPORT_DROP, skip_first=2, max_fires=1)], seed=13
        )
        server, video = make_server(config, fault_plan=plan)
        transport = SocketTransport(server).start()
        client = RemoteTasmClient(
            transport.address,
            timeout=10.0,
            use_shm=False,
            # First re-dial waits >= 1 s — past any 400 ms budget.
            retry=RetryPolicy(
                attempts=2, base_delay=1.0, max_delay=1.0, jitter=0.1, seed=5
            ),
        )
        try:
            sent = self.capture_sends(client)
            stream = client.scan_streaming(video.name, "car", deadline_ms=400.0)
            with pytest.raises(DeadlineExceeded):
                stream.result()
            assert wait_until(lambda: client.retries_total == 1)
            assert client.deadline_fast_fails == 1
            assert len([m for m in sent if m.get("op") == "scan"]) == 1
            assert server.stats().queries_submitted == 1, "no orphan resubmission"
        finally:
            client.close()
            transport.stop()
            server.stop()

    def test_stream_closed_during_the_gap_is_not_resubmitted(self, config):
        """A consumer that closes its stream while the wire is down (its
        CANCEL swallowed by the dead socket) must not have the scan
        resurrected by the resume sweep — the old behaviour made the new
        server decode for nobody, holding a pump and cache space."""
        plan = FaultPlan(
            [FaultSpec(FAULT_TRANSPORT_DROP, skip_first=2, max_fires=1)], seed=13
        )
        server, video = make_server(config, fault_plan=plan)
        reference, _ = make_tasm(config)
        transport = SocketTransport(server).start()
        client = RemoteTasmClient(
            transport.address,
            timeout=10.0,
            use_shm=False,
            # A wide backoff window so the close lands mid-gap.
            retry=RetryPolicy(
                attempts=4, base_delay=0.3, max_delay=0.5, jitter=0.1, seed=7
            ),
        )
        try:
            sent = self.capture_sends(client)
            stream = client.scan_streaming(video.name, "car")
            assert wait_until(lambda: not client._wire_ok.is_set())
            stream.close()  # the consumer walks away during the outage
            assert wait_until(lambda: client.retries_total == 1)
            assert len([m for m in sent if m.get("op") == "scan"]) == 1
            assert server.stats().queries_submitted == 1, "closed scan stayed dead"
            # The healed connection is fully usable for new work.
            assert_scan_results_identical(
                client.scan(video.name, "person"),
                reference.scan(video.name, "person"),
            )
        finally:
            client.close()
            transport.stop()
            server.stop()

    def test_replacement_connection_dropped_mid_resume(self, config):
        """The connection a reconnect just dialled dies while the sweep is
        still resuming streams over it.  The ``OSError`` a resume's send then
        raises is the wire's, not the stream's: the sweep stops, the reader's
        next read fails, and the second reconnect resumes every stream — the
        old behaviour failed each stream the dead socket refused."""
        # Drop sees hello (1), a chunk (2), and kills the first connection at
        # the third frame.  Cut sees hello (1), that chunk (2), the
        # replacement's hello (3), and cuts the replacement at its first
        # frame: the first chunk the first resumed stream is owed.
        plan = FaultPlan(
            [
                FaultSpec(FAULT_TRANSPORT_DROP, skip_first=2, max_fires=1),
                FaultSpec(FAULT_TRANSPORT_CUT, skip_first=3, max_fires=1),
            ],
            seed=13,
        )
        # One runner, parked on the first scan's first SOT: the other two
        # queue behind it, so all three are in flight when the drop fires.
        server, video = make_server(config, fault_plan=plan, service_runners=1)
        reference, _ = make_tasm(config)
        gate = threading.Event()
        calls, original_prefetch = gate_decoder(server.tasm, gate, hold_call=1)
        transport = SocketTransport(server).start()
        client = RemoteTasmClient(
            transport.address, timeout=30.0, use_shm=False, retry=RETRY
        )
        first_sweep: list[int] = []
        refused: list[OSError] = []
        original_send = client._send

        def paced_send(message):
            """Hold the first sweep's later resumes until the server has cut
            the replacement, so they meet a dead socket every run (a send
            onto it draws the RST that fails the one after)."""
            if message.get("op") != "scan" or client.retries_total != 1:
                return original_send(message)
            first_sweep.append(message["id"])
            if len(first_sweep) > 1:
                assert wait_until(
                    lambda: plan.fires()[FAULT_TRANSPORT_CUT] == 1
                    and not transport._connections
                )
            if len(first_sweep) > 2:
                hung_up = select.poll()
                hung_up.register(client._sock, 0)  # POLLHUP / POLLERR only
                hung_up.poll(5000)
            try:
                return original_send(message)
            except OSError as error:
                refused.append(error)
                raise

        client._send = paced_send
        try:
            streams = {LABELS[0]: client.scan_streaming(video.name, LABELS[0])}
            assert wait_until(lambda: len(calls) >= 1)
            for label in LABELS[1:]:
                streams[label] = client.scan_streaming(video.name, label)
            gate.set()
            for label, stream in streams.items():
                assert_scan_results_identical(
                    stream.result(), reference.scan(video.name, label)
                )
            assert refused, "the first sweep never met the dead replacement"
            assert client.retries_total == 2
            assert plan.fires() == {FAULT_TRANSPORT_DROP: 1, FAULT_TRANSPORT_CUT: 1}
        finally:
            gate.set()
            server.tasm._decoder.prefetch_regions = original_prefetch
            client.close()
            transport.stop()
            server.stop()
