"""Conservation of served queries: whatever ends a query, it is counted once.

A query the server admits ends in exactly one of four ways — it completes,
its consumer cancels it, it fails (a batch error, a peer that vanished, a
server stop), or its deadline passes — and ``ResultStream._end``, the stream's one terminal transition, is the only
place any of them is counted.  A query the depth bound refuses is never
admitted: it is counted in ``shed{queue_full}`` and nowhere else.  So,
whenever the server is quiescent::

    submitted == completed + cancelled + failed + deadline_exceeded

the registry's series equal the server's fields (they read the same ints),
and the trace ring holds ``min(submitted, TRACE_HISTORY)`` traces, one per
query.  Each row below drives one ending against a real server and says what
it must have counted; the law is checked after every row, alone and in seeded
mixes of all of them — and a ``close()`` must be counted by the time it
returns, not when a runner next looks at the stream.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import repro.obs as obs_module
from repro.core.query import Query
from repro.errors import CodecError, DeadlineExceeded, ServerBusy, ServiceError
from repro.service import SocketTransport
from repro.service.transport import send_message
from tests.test_service import held_runner
from tests.test_service_flow_control import make_server, wait_until

DEPTH = 3  # service_max_queue_depth
HISTORY = 8  # TRACE_HISTORY: smaller than a mix, so the ring's bound is exercised

#: outcome -> (series, its labels, the server's field).
ENDINGS = {
    "completed": ("tasm_queries_completed_total", {}, "queries_completed"),
    "cancelled": ("tasm_queries_cancelled_total", {}, "queries_cancelled"),
    "failed": ("tasm_queries_failed_total", {}, "queries_failed"),
    "deadline_exceeded": (
        "tasm_queries_deadline_exceeded_total", {}, "queries_deadline_exceeded",
    ),
}
OTHERS = {
    "submitted": ("tasm_queries_submitted_total", {}, "queries_submitted"),
    "shed_queue_full": ("tasm_queries_shed_total", {"reason": "queue_full"}, "shed_queue_full"),
    "batches_executed": ("tasm_batches_executed_total", {}, "batches_executed"),
}


@pytest.fixture(autouse=True)
def small_limits(monkeypatch):
    """Every rig keeps the last ``HISTORY`` traces."""
    monkeypatch.setattr(obs_module, "TRACE_HISTORY", HISTORY)


class Rig:
    """One single-runner server behind a socket, and what the rows expect of it."""

    def __init__(self, config, observability: bool = True):
        self.server, self.video = make_server(
            config,
            service_runners=1,
            service_max_batch=4,
            service_max_queue_depth=DEPTH,
            observability=observability,
        )
        self.transport = SocketTransport(self.server).start()
        self.traced = observability
        self.expected: Counter = Counter()

    def submit(self, label: str = "car", video: str | None = None, **kwargs):
        return self.server.submit(Query.select(label, video or self.video.name), **kwargs)

    def expect(self, submitted: int, **endings: int) -> None:
        self.expected["submitted"] += submitted
        self.expected.update(endings)

    def counts(self) -> dict[str, int]:
        """Every count, from the registry (which reads the server's own
        fields), with or without traces."""
        snapshot = self.server.metrics_snapshot()
        return {
            name: sum(
                int(entry["value"])
                for entry in snapshot[series]["values"]
                if entry["labels"] == labels
            )
            for name, (series, labels, _) in {**ENDINGS, **OTHERS}.items()
        }

    def check(self, after: str) -> dict[str, int]:
        """Quiesce, then: the law, registry == the server's fields, the ring."""
        server = self.server
        assert wait_until(
            lambda: server.queue_depth == 0 and not any(server._active.values())
        ), after
        counts = self.counts()
        ended = {name: counts[name] for name in ENDINGS}
        assert counts["submitted"] == sum(ended.values()), (
            f"after {after}: {counts['submitted']} submitted, ended {ended}"
        )
        fields = {
            name: getattr(server, field)
            for name, (_, _, field) in {**ENDINGS, **OTHERS}.items()
        }
        assert fields == counts, after
        traces = self.server.traces(last=counts["submitted"] + 1)
        kept = min(counts["submitted"], HISTORY) if self.traced else 0
        assert len(traces) == kept, after
        assert len({trace["trace_id"] for trace in traces}) == kept, "one trace per query"
        return counts

    def close(self) -> None:
        self.transport.stop()
        self.server.stop()


@contextmanager
def parked_mid_batch(rig: Rig):
    """Park the runner inside the next batch that reaches SOT 1 — its first
    SOT served, the rest not yet warmed.  Yields the event set on arrival."""
    decoder = rig.server.tasm._decoder
    prefetch = decoder.prefetch_regions
    entered, release = threading.Event(), threading.Event()

    def gated(sot, requests, scope):
        if sot.sot_index == 1 and not entered.is_set():
            entered.set()
            assert release.wait(timeout=30), "the test never released the runner"
        return prefetch(sot, requests, scope)

    decoder.prefetch_regions = gated
    try:
        yield entered
    finally:
        release.set()
        decoder.prefetch_regions = prefetch


# ----------------------------------------------------------------------
# The rows: one ending each
# ----------------------------------------------------------------------
def completes(rig: Rig) -> None:
    assert rig.submit().result(timeout=30).regions
    rig.expect(1, completed=1)


def close_while_pending(rig: Rig) -> None:
    with held_runner(rig.server, rig.video):
        stream = rig.submit()
        before = rig.server.queries_cancelled
        stream.close()
        assert rig.server.queries_cancelled == before + 1, "counted at close()"
    rig.expect(2, completed=1, cancelled=1)  # the blocker completes


def close_mid_batch(rig: Rig) -> None:
    with parked_mid_batch(rig) as entered:
        stream = rig.submit()
        assert entered.wait(timeout=30)
        assert len(stream.delivered) == 1
        before = rig.server.queries_cancelled
        stream.close()
        assert rig.server.queries_cancelled == before + 1, "counted at close()"
    rig.expect(1, cancelled=1)


def deadline_while_pending(rig: Rig) -> None:
    with held_runner(rig.server, rig.video):
        stream = rig.submit(deadline_ms=1.0)
        assert wait_until(lambda: time.monotonic() >= stream.deadline_at)
    with pytest.raises(DeadlineExceeded):
        stream.result(timeout=30)
    rig.expect(2, completed=1, deadline_exceeded=1)


def deadline_mid_batch(rig: Rig) -> None:
    with parked_mid_batch(rig) as entered:
        stream = rig.submit(deadline_ms=50.0)
        # On a slow host the deadline may pass before the batch starts; the
        # query then ends the same way, from the pending queue.
        assert wait_until(lambda: entered.is_set() or stream.done)
        assert wait_until(lambda: time.monotonic() >= stream.deadline_at)
    with pytest.raises(DeadlineExceeded):
        stream.result(timeout=30)
    rig.expect(1, deadline_exceeded=1)


def busy_at_the_depth_bound(rig: Rig) -> None:
    with held_runner(rig.server, rig.video):
        queued = [rig.submit() for _ in range(DEPTH)]
        with pytest.raises(ServerBusy):
            rig.submit()
    for stream in queued:
        assert stream.result(timeout=30).regions
    rig.expect(DEPTH + 1, completed=DEPTH + 1, shed_queue_full=1)


def busy_raised_inside_a_batch(rig: Rig) -> None:
    """``busy`` names the depth bound's refusal, which is never admitted, so
    it has no ending of its own: an admitted query failed by an error that
    carries it is a plain failure."""
    decoder = rig.server.tasm._decoder
    prefetch = decoder.prefetch_regions

    def overloaded(sot, requests, scope):
        raise ServerBusy("SERVER_BUSY: the tile store is overloaded")

    decoder.prefetch_regions = overloaded
    try:
        with pytest.raises(ServiceError, match="overloaded"):
            rig.submit().result(timeout=30)
    finally:
        decoder.prefetch_regions = prefetch
    rig.expect(1, failed=1)


def batch_error_after_streaming(rig: Rig) -> None:
    """A batch that raises after the query's first chunk cannot re-run it
    without sending that chunk twice: a plain failure."""
    decoder = rig.server.tasm._decoder
    prefetch = decoder.prefetch_regions

    def corrupt_second_sot(sot, requests, scope):
        if sot.sot_index == 1:
            raise CodecError("SOT 1 is corrupt")
        return prefetch(sot, requests, scope)

    decoder.prefetch_regions = corrupt_second_sot
    try:
        stream = rig.submit()
        with pytest.raises(ServiceError, match="corrupt"):
            stream.result(timeout=30)
        assert list(stream.delivered) == [0]
    finally:
        decoder.prefetch_regions = prefetch
    rig.expect(1, failed=1)


def failing_query_in_a_shared_batch(rig: Rig) -> None:
    with held_runner(rig.server, rig.video):
        bad = rig.submit(video="no-such-video")
        good = rig.submit()
    with pytest.raises(ServiceError):
        bad.result(timeout=30)
    assert good.result(timeout=30).regions
    rig.expect(3, completed=2, failed=1)


def peer_vanishes_without_cancel(rig: Rig) -> None:
    with parked_mid_batch(rig) as entered:
        with socket.create_connection(rig.transport.address, timeout=5) as peer:
            send_message(
                peer,
                {"op": "scan", "id": 1, "video": rig.video.name, "labels": ["car"], "credits": 64},
            )
            assert entered.wait(timeout=30)
        # The socket is closed, no CANCEL was sent: the server's connection
        # tears down and abandons the scan it was serving.
        assert wait_until(lambda: not rig.transport._connections)
    rig.expect(1, failed=1)


def stop_with_queries_queued(rig: Rig) -> None:
    """Ends the server, so a mix runs it last."""
    stopper = threading.Thread(target=rig.server.stop)
    with held_runner(rig.server, rig.video):
        queued = [rig.submit(), rig.submit()]
        stopper.start()
        for stream in queued:
            with pytest.raises(ServiceError, match="stopped"):
                stream.result(timeout=30)
    stopper.join(timeout=30)
    assert not stopper.is_alive()
    rig.expect(3, completed=1, failed=2)


ROWS = [
    completes,
    close_while_pending,
    close_mid_batch,
    deadline_while_pending,
    deadline_mid_batch,
    busy_at_the_depth_bound,
    busy_raised_inside_a_batch,
    failing_query_in_a_shared_batch,
    peer_vanishes_without_cancel,
]


def run(rig: Rig, rows) -> None:
    try:
        for row in rows:
            row(rig)
            rig.check(after=row.__name__)
        counts = rig.check(after="everything")
        counts.pop("batches_executed")  # how the backlog coalesced is not a row's business
        assert counts == {name: rig.expected[name] for name in counts}
    finally:
        rig.close()


@pytest.mark.parametrize(
    "row",
    [*ROWS, batch_error_after_streaming, stop_with_queries_queued],
    ids=lambda row: row.__name__,
)
def test_each_ending_is_counted_once(config, row):
    run(Rig(config), [row])


@pytest.mark.parametrize("seed", [23, 24, 25])
def test_a_generated_mix_conserves_queries(config, seed):
    rng = random.Random(seed)
    rows = ROWS + rng.choices(ROWS, k=6)
    rng.shuffle(rows)
    run(Rig(config), [*rows, stop_with_queries_queued])


def test_the_law_holds_with_observability_off(config):
    """The registry counts with observability off too — every count below
    is read from its snapshot — and only the trace ring stays empty."""
    run(Rig(config, observability=False), [*ROWS, stop_with_queries_queued])
