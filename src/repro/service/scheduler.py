"""The batching scheduler: coalesces concurrent queries, streams results.

Clients hand queries to :meth:`BatchScheduler.submit` and get a
:class:`ResultStream` back at once.  The ``service_*`` settings are fields
of the TASM's ``TasmConfig``.  A pool of ``service_runners`` batch runner
threads waits on the pending queue; a free runner takes up to
``service_max_batch`` pending queries and drives ``TASM.execute_batch`` over
them.  An idle server dispatches a lone query at once, and a busy one forms
its batches from whatever queued meanwhile, so overlapping queries share
decodes without any query waiting on a timer.  Pending queries are kept per
client and drained round-robin, so every waiting client gets a slot in the
next batch before any client gets a second one.

The executor's observer fires per SOT, and the runner pushes each chunk into
the query's :class:`~repro.service.stream.ScanStream`, which buffers at most
``service_stream_buffer_chunks``: a producer pushing into a full buffer waits
for the consumer, so a slow client bounds the server's memory.

* **Deadlines** — an expired query is dropped while pending; mid-batch the
  executor's cancelled-probe fails it with
  :class:`~repro.errors.DeadlineExceeded` within about one SOT.
* **Load shedding** — ``submit`` raises :class:`~repro.errors.ServerBusy`
  at ``service_max_queue_depth`` pending queries; the query is never
  admitted.
* **Batch errors** — each query of a failed batch that has sent nothing is
  re-run as a batch of its own, so only the offender fails.  Nothing raised
  inside a batch ends a runner; only ``stop()`` does.

Accounting: each event is one plain int on the scheduler, written under
``_counter_lock``, and the metrics registry reads those ints at snapshot
time (``Observability.read_events_from``).  ``total_stats`` is the sum of
every executed batch's ``BatchResult.stats``, merged under the same lock
before the batch's last stream finishes, so a returned scan is counted.
How a query *ends* is counted only in :meth:`BatchScheduler._account`,
reached through :meth:`ResultStream._end`, the stream's one terminal
transition (first caller wins), on whichever thread ended it.  Once the
scheduler is quiescent ``queries_submitted == queries_completed +
queries_cancelled + queries_failed + queries_deadline_exceeded``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Hashable, Iterable, Sequence

from ..core.query import Query
from ..errors import (
    DeadlineExceeded,
    ServerBusy,
    ServiceError,
    error_code,
)
from ..exec.engine import PartialResult, QueryDone
from ..obs import NULL_TRACE, Observability
from ..video.codec import DecodeStats
from .stream import ScanStream, StreamChunk

__all__ = ["BatchScheduler", "ResultStream", "StreamChunk"]


class ResultStream(ScanStream):
    """The in-process source: a batch runner's observer pushes the chunks.

    Adds what only the scheduler needs to a :class:`ScanStream` — the query,
    its trace and its accounting hook.
    """

    failure_prefix = "query failed in its batch"

    def __init__(
        self,
        query: Query,
        buffer_chunks: int = 0,
        deadline_ms: float | None = None,
        skip_sots: Iterable[int] | None = None,
    ):
        super().__init__(buffer_chunks, deadline_ms, skip_sots)
        self.query = query
        #: The query's trace (``repro.obs``): the scheduler installs a live
        #: one at submit when ``TasmConfig.observability`` keeps traces; the
        #: shared null trace otherwise, so span recording never branches.
        self.trace = NULL_TRACE
        #: When the first batch holding this query began to execute (None
        #: while it is queued); set by the runner thread executing that batch,
        #: and not again by a singleton retry.
        self.started_at: float | None = None
        #: ``BatchScheduler._account``, installed at submit: called once, by
        #: whichever thread makes this stream terminal.
        self._account: Callable[["ResultStream"], None] | None = None

    def _end(self, state: str, result=None, error=None) -> bool:
        """The one terminal transition, and so the one place a served query
        is accounted: the thread that wins it — a runner, the consumer in
        ``close()``, a connection tearing down, ``stop()`` — counts the
        query.  The stream's (re-entrant) condition is held across both, so
        whoever sees the stream terminal sees it counted."""
        with self._cond:
            won = super()._end(state, result, error)
            if won and self._account is not None:
                self._account(self)
        return won

    def _stuck(self) -> str:
        """Still queued, executing but yet to serve, or mid-serve — from the
        stream's own progress markers."""
        if self.started_at is None:
            return "starved in queue: the query never entered a batch"
        served = len(self.delivered)
        if served:
            return (
                f"starved in execute: its batch has served {served} SOT "
                "chunk(s) but has not finished"
            )
        return "starved in execute: its batch started but has served nothing"


#: How a failed stream is accounted, by the ``errors.error_code`` of what
#: failed it (the mapping the wire uses): trace status, scheduler counter.
#: Any other code is a plain failure.
_FAILURES = {
    "cancelled": ("cancelled", "queries_cancelled"),
    "deadline": ("deadline", "queries_deadline_exceeded"),
}
_FAILED = ("error", "queries_failed")


class BatchScheduler:
    """Owns the request queues and the pool of batch-forming runners."""

    def __init__(self, tasm, obs: Observability | None = None):
        config = tasm.config
        self._tasm = tasm
        self._obs = obs if obs is not None else Observability()
        self._max_batch = config.service_max_batch
        self._runner_count = config.service_runners
        self._stream_buffer_chunks = config.service_stream_buffer_chunks
        self._max_queue_depth = config.service_max_queue_depth
        # Pending queries, kept per client for round-robin admission.  One
        # condition guards them and the active-batch map, so a query moves
        # from pending into a batch in one step; idle runners wait on it.
        self._cond = threading.Condition()
        self._pending: dict[Hashable, deque[ResultStream]] = {}
        self._pending_order: deque[Hashable] = deque()
        self._pending_count = 0
        # The batch each runner took from pending and is executing — what
        # stop() fails if a runner is stuck mid-batch.  The runner drops its
        # entry at the end of every iteration, however the batch ended.
        self._active: dict[threading.Thread, Sequence[ResultStream]] = {}
        self._runners: list[threading.Thread] = []
        self._running = False
        self._state_lock = threading.Lock()
        # The one count of each event, read by the metrics registry at
        # snapshot time.  Written under _counter_lock by whichever thread the
        # event happens on.
        self._counter_lock = threading.Lock()
        self.queries_submitted = 0
        #: ServerBusy refusals at the depth bound: never admitted, so not
        #: among ``queries_submitted`` and not ended by :meth:`_account`.
        self.shed_queue_full = 0
        # The four ways an admitted query ends (see _account); once quiescent
        # they sum to queries_submitted.
        self.queries_completed = 0
        #: Abandoned by their consumer (``ResultStream.close()`` or a wire
        #: ``CANCEL``) before completing.
        self.queries_cancelled = 0
        #: A batch error, a peer that vanished, or server shutdown.
        self.queries_failed = 0
        self.queries_deadline_exceeded = 0
        self.batches_executed = 0
        #: The sum of every executed batch's ``BatchResult.stats``.
        self.total_stats = DecodeStats()
        self._obs.read_events_from(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._state_lock:
            if self._running:
                return
            if any(runner.is_alive() for runner in self._runners):
                # A previous stop() timed out mid-batch; a second crew on the
                # same queues would race it and its drain.
                raise ServiceError(
                    "scheduler is still draining a previous stop; retry later"
                )
            self._running = True
            self._active = {}
            self._runners = [
                threading.Thread(
                    target=self._run_batches,
                    name=f"tasm-batch-runner-{index}",
                    daemon=True,
                )
                for index in range(self._runner_count)
            ]
            for runner in self._runners:
                runner.start()

    def stop(self, timeout: float | None = 10.0) -> None:
        with self._state_lock:
            if not self._running:
                return
            # Flipping _running under the state lock orders every submit()
            # against shutdown: a stream accepted at all is either executed
            # by a runner or failed below — no silent hangs.
            self._running = False
        queued: list[ResultStream] = []
        with self._cond:
            for bucket in self._pending.values():
                queued.extend(bucket)
            self._pending.clear()
            self._pending_order.clear()
            self._pending_count = 0
            self._cond.notify_all()  # wake idle runners to exit
        for stream in queued:
            stream._fail(ServiceError("the server was stopped"))
        deadline = None if timeout is None else time.monotonic() + timeout
        for runner in self._runners:
            runner.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        # Anything still in flight after the drain deadline belongs to a
        # runner stuck mid-batch: fail the streams so consumers unblock (the
        # runner's eventual terminal transitions are ignored — first wins),
        # which also releases producers suspended on full buffers.
        with self._cond:
            stragglers = [s for batch in self._active.values() for s in batch if not s.done]
        for stream in stragglers:
            stream._fail(ServiceError("the server was stopped"))

    @property
    def queue_depth(self) -> int:
        """Queries accepted but not yet dispatched into a batch."""
        with self._cond:
            return self._pending_count

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        client: Hashable = None,
        deadline_ms: float | None = None,
        skip_sots: Iterable[int] | None = None,
    ) -> ResultStream:
        """Enqueue a query; ``client`` identifies the submitter for fairness.

        All queries submitted under one ``client`` key share one round-robin
        slot per batch; anonymous submitters (``client=None``) share a single
        slot between them.

        ``deadline_ms`` bounds the query's total latency (queue + execute);
        ``skip_sots`` resumes an interrupted scan — the listed SOT indices
        are never served again.  Raises :class:`~repro.errors.ServerBusy`
        immediately — before allocating a stream or trace — when the pending
        queue is at ``service_max_queue_depth``.
        """
        with self._state_lock:
            if not self._running:
                raise ServiceError("the server is not running")
            with self._cond:
                if self._max_queue_depth and self._pending_count >= self._max_queue_depth:
                    with self._counter_lock:
                        self.shed_queue_full += 1
                    raise ServerBusy(
                        f"SERVER_BUSY: {self._pending_count} queries pending "
                        f"(service_max_queue_depth="
                        f"{self._max_queue_depth}); retry later"
                    )
                stream = ResultStream(
                    query,
                    buffer_chunks=self._stream_buffer_chunks,
                    deadline_ms=deadline_ms,
                    skip_sots=skip_sots,
                )
                stream.trace = self._obs.start_trace(query)
                stream._account = self._account
                with self._counter_lock:
                    self.queries_submitted += 1
                bucket = self._pending.get(client)
                if bucket is None:
                    bucket = self._pending[client] = deque()
                if not bucket:
                    self._pending_order.append(client)
                bucket.append(stream)
                self._pending_count += 1
                self._cond.notify_all()
        return stream

    # ------------------------------------------------------------------
    # Batch forming (runner threads)
    # ------------------------------------------------------------------
    def _collect(self) -> list[ResultStream]:
        """Form one batch from what is pending now, fairly; never waits.

        The batch is filed as the calling thread's active batch in the same
        step, so an accepted query is always pending, active or terminal.
        """
        batch: list[ResultStream] = []
        with self._cond:
            self._take_round_robin(batch)
            self._active[threading.current_thread()] = batch
        return batch

    def _take_round_robin(self, batch: list[ResultStream]) -> None:
        """Drain pending queries into ``batch`` one client at a time (lock held).

        Each rotation takes one query from each client with pending work, so
        every waiting client lands in the next batch before any client gets a
        second slot; remaining capacity goes around again (a lone client may
        still fill the whole batch).  Queries whose deadline elapsed while
        they waited are failed here — they never cost a batch slot.
        """
        while len(batch) < self._max_batch and self._pending_order:
            client = self._pending_order.popleft()
            bucket = self._pending[client]
            stream = bucket.popleft()
            self._pending_count -= 1
            # Terminal while queued (cancelled by its consumer, failed
            # elsewhere, or expired just now): its consumer has an answer, so
            # it never costs a batch slot or a decode.
            if not (stream.done or self._expire(stream)):
                batch.append(stream)
            if bucket:
                self._pending_order.append(client)
            else:
                del self._pending[client]

    # ------------------------------------------------------------------
    # Batch execution (runner threads)
    # ------------------------------------------------------------------
    def _account(self, stream: ResultStream) -> None:
        """Account one query, now terminal — the only place one is.

        Called from :meth:`ResultStream._end` by the thread that won the
        stream's terminal transition, so exactly once per admitted query,
        whatever ended it: bumps the one counter for the outcome, then hands
        the stream to the observability surface (trace ring, latency
        histogram, slow-query log).
        """
        if stream.state == "done":
            status, counter = "ok", "queries_completed"
        else:
            status, counter = _FAILURES.get(error_code(stream._error), _FAILED)
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + 1)
        self._obs.finish_query(stream, status)

    def _expire(self, stream: ResultStream) -> bool:
        """True when ``stream``'s deadline has passed — failing it with
        DeadlineExceeded (first terminal state wins)."""
        try:
            stream.remaining_deadline_ms()
        except DeadlineExceeded as error:
            stream._fail(error)
            return True
        return False

    def _run_batches(self) -> None:
        """One runner: take a batch, execute it, repeat until ``stop()``.

        Nothing raised inside an iteration ends the loop — what escapes
        :meth:`_execute` fails the batch's streams — so only ``stop()`` ends
        a runner."""
        me = threading.current_thread()
        while True:
            with self._cond:
                while self._running and self._pending_count == 0:
                    self._cond.wait()
                if not self._running:
                    return
            batch: Sequence[ResultStream] = ()
            try:
                batch = self._collect()
                if batch:  # else expired, cancelled or taken by a peer
                    self._execute(batch)
            except BaseException as error:  # noqa: BLE001 — keep the runner alive
                # _execute fails offending streams itself; anything escaping
                # it (a terminal-transition bug, a callback raising) fails
                # the batch's streams so their waiters raise.
                for stream in batch:
                    stream._fail(error)
            finally:
                with self._cond:
                    self._active.pop(me, None)

    def _execute(self, batch: Sequence[ResultStream]) -> None:
        obs = self._obs
        batch_started = time.perf_counter()
        obs.batch_size.observe(len(batch))
        for stream in batch:
            if stream.started_at is None:  # not a singleton retry
                stream.started_at = batch_started
                wait = batch_started - stream.submitted_at
                obs.queue_wait_seconds.observe(wait)
                stream.trace.add_span("queue", wait, top=True)
        # The stream whose QueryDone completes the batch, with its result: it
        # finishes only once the batch is accounted (total_stats, stages), so
        # stats() read after its result() counts the scan.
        held: list = []

        def observer(event) -> None:
            if isinstance(event, PartialResult):
                batch[event.query_index]._push(
                    StreamChunk(sot_index=event.sot_index, regions=event.regions)
                )
            elif isinstance(event, QueryDone):
                stream, result = batch[event.query_index], event.result
                # The execute span closes the timeline the queue span opened:
                # together the two top-level spans tile the query's wall time.
                # Its meta is the result's own accounting, not a second clock.
                stream.trace.add_span(
                    "execute", time.perf_counter() - batch_started, top=True,
                    index_seconds=result.index_seconds, decode_seconds=result.decode_seconds,
                    **vars(result.stats),
                )
                if all(other.done for other in batch if other is not stream):
                    held.append((stream, result))
                else:
                    stream._finish(result)

        def cancelled(index: int) -> bool:
            # The executor's per-SOT probe doubles as the deadline enforcer:
            # an expired query fails *here*, mid-batch, and the executor
            # skips its remaining serves (and whole SOTs only it wanted).
            return batch[index].done or self._expire(batch[index])

        skips = [stream.skip_sots or None for stream in batch]

        try:
            result = self._tasm.execute_batch(
                [stream.query for stream in batch],
                observer=observer,
                # A terminal stream (cancelled by its consumer, failed at
                # shutdown or deadline, abandoned by a dead connection) wants
                # no further work: the executor skips its remaining per-SOT
                # serves and whole SOTs only it needed, freeing the runner
                # within ~one GOP of the cancel.
                cancelled=cancelled,
                skip_sots=skips if any(skips) else None,
            )
        except BaseException as error:  # noqa: BLE001 — must fail the waiters
            for stream, done in held:
                stream._finish(done)
            # One bad query (unknown video, malformed predicate) must not
            # poison the batch it rode in with: retry untouched queries
            # individually so only the offender fails.  A query that already
            # streamed chunks cannot be replayed without duplicating them,
            # so it fails with the batch's error.
            for stream in batch:
                if len(batch) > 1 and not stream.done and stream.first_chunk_at is None:
                    self._execute([stream])
                else:
                    stream._fail(error)  # a no-op on a stream already terminal
            return
        with self._counter_lock:
            self.batches_executed += 1
            self.total_stats.merge(result.stats)
        obs.stage_seconds["plan"].observe(result.index_seconds)
        obs.stage_seconds["warm"].observe(result.warm_seconds)
        obs.stage_seconds["serve"].observe(result.serve_seconds)
        for stream, done in held:
            stream._finish(done)
