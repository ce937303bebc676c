"""The one scan-stream state machine every serving path hands its callers.

A scan's results reach the caller as per-SOT :class:`StreamChunk` objects
through a :class:`ScanStream`, whichever path serves it.  The stream owns
everything the paths used to re-implement separately:

* the states — ``pending`` → ``streaming`` → ``done`` | ``failed`` |
  ``cancelled`` — with the terminal result or error stored on the stream
  (not as a buffer sentinel), so a failed stream re-raises the same typed
  error on every later ``iter`` / ``result()`` instead of hanging;
* one chunk buffer with an optional capacity (a producer pushing into a
  full buffer suspends until the consumer drains it);
* the ``delivered`` SOT set and the regions those chunks carried, which
  are the finished result's regions, in ascending SOT order;
* one absolute deadline, with :meth:`ScanStream.remaining_deadline_ms`
  raising :class:`~repro.errors.DeadlineExceeded` once it is spent;
* the iterate / ``result(timeout)`` / ``close()`` loop, with a per-event
  timeout and a source-supplied "where is it stuck" message for the timeout
  error — a waiter sleeps on the stream's condition until a chunk, the end or
  its own bound, and polls nothing;
* :meth:`ScanStream.resume`, the single way an interrupted scan is
  re-issued.

Three thin *sources* feed it, each a subclass that only says where chunks
come from and how to cancel upstream: the server's batch runner observer
(:class:`~repro.service.server.ResultStream`), the socket client's demux
reader (:class:`~repro.service.transport.RemoteScanStream`), and the cluster
router's sub-scans (:class:`~repro.cluster.router.ClusterScanStream`, which
*pulls* from its sub-streams on the consumer's thread).  A source's
:meth:`ScanStream._drained` hook runs when the *consumer* takes a chunk —
that is where the socket client returns a credit — so backpressure holds
however many streams are stacked.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ..core.scan import ScanRegion, ScanResult
from ..errors import DeadlineExceeded, ServiceError, StreamCancelledError

__all__ = ["ScanStream", "StreamChunk"]


class StreamChunk(NamedTuple):
    """One SOT's worth of a query's results, delivered incrementally."""

    sot_index: int
    regions: Sequence[ScanRegion]


class ScanStream:
    """A handle to one submitted scan: iterate chunks, or block for the result.

    Iterating yields :class:`StreamChunk` objects as SOTs are served (ending
    when the scan completes); :meth:`result` blocks for the final
    :class:`~repro.core.scan.ScanResult`.  A failed scan raises
    :class:`ServiceError` from both — preserving the failure's subclass
    (``DeadlineExceeded``, ``ServerBusy``, ...) so callers can branch on the
    outcome — and keeps raising on every later attempt.

    ``buffer_chunks`` bounds the undelivered chunks held for a slow consumer
    (0 = unbounded).  ``result()`` discards buffered chunks while it waits —
    the final ``ScanResult`` carries every region regardless — so a caller
    that never iterates cannot deadlock the producer against its own stream.
    Consume a stream from one thread.
    """

    #: How a failure reads to the consumer: ``"<prefix>: <cause>"``.
    failure_prefix = "scan failed"

    def __init__(
        self,
        buffer_chunks: int = 0,
        deadline_ms: float | None = None,
        skip_sots: Iterable[int] | None = None,
        event_timeout: float | None = None,
    ):
        self.submitted_at = time.perf_counter()
        #: Deadline, as submitted (milliseconds) and as a monotonic instant;
        #: ``None`` (or a non-positive ``deadline_ms``) means no deadline.
        self.deadline_ms = deadline_ms if deadline_ms and deadline_ms > 0 else None
        self.deadline_at = (
            None
            if self.deadline_ms is None
            else time.monotonic() + self.deadline_ms / 1000.0
        )
        #: SOT indices the submitter already holds or never wanted (a resumed
        #: scan, a shard's complement of a scatter); never served.
        self.skip_sots: frozenset[int] = frozenset(skip_sots or ())
        #: Set (producer-side) when the first chunk was pushed; None until then.
        self.first_chunk_at: float | None = None
        self.completed_at: float | None = None
        self.state = "pending"
        self._capacity = buffer_chunks
        self._event_timeout = event_timeout
        self._buffer: deque[StreamChunk] = deque()
        self._cond = threading.Condition()
        #: Regions of every chunk this stream accepted, keyed by SOT index.
        self._served: dict[int, Sequence[ScanRegion]] = {}
        self._result: ScanResult | None = None
        self._error: BaseException | None = None
        #: Whoever pulls from this stream with :meth:`poll` (a merging parent's
        #: :meth:`_wake`, a connection's writer), called on every change here
        #: with the stream's condition held.
        self._listener: Callable[[], None] | None = None
        self._woken = False

    # ------------------------------------------------------------------
    # Source hooks
    # ------------------------------------------------------------------
    def _pull(self) -> None:
        """Move whatever upstream has ready into this stream (pulled
        sources only; runs on the consumer's thread, no lock held)."""

    def _drained(self, chunk: StreamChunk) -> None:
        """The consumer took ``chunk`` out of the buffer (no lock held)."""

    def _cancel_source(self) -> None:
        """Tell upstream to stop producing for this stream."""

    def _stuck(self) -> str:
        """Where a timed-out wait is starved (goes into the timeout error)."""
        return f"{len(self._served)} chunk(s) delivered"

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def _notify(self) -> None:
        """Wake every waiter (caller holds the condition)."""
        self._cond.notify_all()
        if self._listener is not None:
            self._listener()

    def _wake(self) -> None:
        """A sub-stream this stream pulls from changed: pull again."""
        with self._cond:
            self._woken = True
            self._cond.notify_all()

    def _push(self, chunk: StreamChunk) -> None:
        """Buffer one chunk, suspending while a bounded buffer is full.

        A terminal stream (failed, cancelled, abandoned by a disconnected
        client) drops the chunk so the producer is never wedged on a
        consumer that will not return; so is a SOT delivered before (a
        resumed source never re-delivers — first wins).
        """
        with self._cond:
            while (
                self._capacity
                and len(self._buffer) >= self._capacity
                and not self.done
            ):
                self._cond.wait()
            if self.done or chunk.sot_index in self._served:
                return
            if self.first_chunk_at is None:
                self.first_chunk_at = time.perf_counter()
            self.state = "streaming"
            self._buffer.append(chunk)
            self._served[chunk.sot_index] = chunk.regions
            self._notify()

    def _finish(self, result: ScanResult) -> None:
        """End the scan with ``result``, whose regions become every delivered
        chunk's (:meth:`served_regions`): what an uninterrupted single server
        returns, whichever runs, retries or replicas produced the chunks."""
        result.regions = self.served_regions()
        self._end("done", result=result)

    def _fail(self, error: BaseException) -> bool:
        """Move to the failed terminal state; True if this call did it."""
        return self._end("failed", error=error)

    def _end(self, state: str, result=None, error=None) -> bool:
        with self._cond:
            if self.done:
                return False  # first terminal transition wins
            self.state = state
            self._result = result
            self._error = error
            self.completed_at = time.perf_counter()
            # Wakes consumers *and* any producer suspended on a full buffer
            # (it re-checks the terminal flag and drops its chunk).
            self._notify()
            return True

    # ------------------------------------------------------------------
    # Deadline and resume
    # ------------------------------------------------------------------
    def remaining_deadline_ms(self) -> float | None:
        """The unspent deadline budget (None = no deadline); raises
        :class:`DeadlineExceeded` once it is spent."""
        if self.deadline_at is None:
            return None
        remaining = (self.deadline_at - time.monotonic()) * 1000.0
        if remaining <= 0.0:
            raise DeadlineExceeded(
                f"query exceeded its deadline of {self.deadline_ms:g} ms"
            )
        return remaining

    def resume(self, resubmit: Callable[[frozenset[int], float | None], None]) -> bool:
        """Re-issue an interrupted scan — the one resume path.

        ``resubmit(skip_sots, deadline_ms)`` hands the scan to whatever will
        serve it next: it must skip the submitter's own skip set plus every
        SOT already delivered, and inherits the *remaining* deadline budget,
        not a fresh one.  A terminal stream (finished, failed, closed by its
        consumer) is never resubmitted — returns False — and a ``close()``
        that raced the resubmission cancels upstream again, now ordered
        after it.  Raises :class:`DeadlineExceeded` when no budget is left,
        and whatever ``resubmit`` raises; the caller fails the stream.
        """
        if self.done:
            return False
        resubmit(self.skip_sots.union(self._served), self.remaining_deadline_ms())
        if self.cancelled:
            self._cancel_source()
        return True

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Abandon the stream: the consumer will not read further.

        Releases a producer suspended on this stream's full buffer and tells
        upstream to stop (the server skips the query's remaining per-SOT
        work, the socket client sends ``CANCEL``, the router closes its
        sub-scans), so an abandoned scan frees resources instead of decoding
        for nobody.  A stream already terminal is unaffected; an abandoned
        one raises :class:`StreamCancelledError` from ``result()``.  Always
        call this (or drain the stream) when breaking out of iteration early.
        """
        if self._end(
            "cancelled", error=StreamCancelledError("stream closed by its consumer")
        ):
            self._cancel_source()

    def poll(self) -> StreamChunk | None:
        """The next buffered chunk without blocking, or None."""
        self._pull()
        with self._cond:
            if not self._buffer:
                return None
            chunk = self._buffer.popleft()
            self._cond.notify_all()  # free a suspended producer
        self._drained(chunk)
        return chunk

    def _next(self, overall: float | None, timeout: float | None) -> StreamChunk | None:
        """Block for the next chunk; None once the scan completed.

        Raises the stream's typed failure once it failed (after buffered
        chunks drained), and :class:`ServiceError` when a bound lapsed:
        ``overall`` is ``result(timeout)``'s instant, and every wait is also
        bounded by the per-event timeout.  With neither, it waits as long as
        the source takes: a source's own ending (the server's ``stop()``,
        a connection tearing down) is what ends a stream whose producer is
        gone.
        """
        give_up, limit, lapse = overall, timeout, "query did not complete"
        if self._event_timeout is not None:
            per_event = time.monotonic() + self._event_timeout
            if give_up is None or per_event < give_up:
                give_up, limit, lapse = per_event, self._event_timeout, "no stream data"
        while True:
            chunk = self.poll()
            if chunk is not None:
                return chunk
            with self._cond:
                if not (self._buffer or self._woken or self.done):
                    left = None if give_up is None else give_up - time.monotonic()
                    if left is None or left > 0:
                        self._cond.wait(left)
                if self._buffer or self._woken:
                    self._woken = False
                    continue
                if self.done:
                    if self._error is not None:
                        raise self._failure() from self._error
                    return None
            if give_up is not None and time.monotonic() >= give_up:
                raise ServiceError(f"{lapse} within {limit} seconds ({self._stuck()})")

    def _failure(self) -> ServiceError:
        """The exception consumers raise for this stream's failure.

        Preserves the failure's :class:`ServiceError` subclass (deadline,
        busy, cancelled...) so callers can branch on the outcome
        without string-matching; falls back to plain ``ServiceError`` for
        foreign exception types or subclasses with exotic constructors.
        """
        error = self._error
        message = f"{self.failure_prefix}: {error}"
        cls = type(error) if isinstance(error, ServiceError) else ServiceError
        try:
            return cls(message)
        except Exception:  # noqa: BLE001 — a ctor needing extra args
            return ServiceError(message)

    def __iter__(self) -> Iterator[StreamChunk]:
        while (chunk := self._next(None, None)) is not None:
            yield chunk

    def result(self, timeout: float | None = None) -> ScanResult:
        """Block until the scan completes; the full, in-order ScanResult.

        Raises :class:`ServiceError` when ``timeout`` (or the stream's
        per-event timeout) lapses, saying where the scan starved: the stage
        for an in-process stream, the chunks delivered for any other.  A
        timeout is the waiter's, not the stream's: the scan stays live and
        may be waited on again.
        """
        overall = None if timeout is None else time.monotonic() + timeout
        while self._next(overall, timeout) is not None:
            pass  # the final result carries every region; chunks are dropped
        assert self._result is not None
        return self._result

    def served_regions(self) -> list[ScanRegion]:
        """Every delivered region in ascending SOT order — the order a
        single server serves, whichever replica or retry produced a SOT."""
        return [
            region for sot in sorted(self._served) for region in self._served[sot]
        ]

    @property
    def delivered(self):
        """SOT indices whose chunk this stream accepted (a live set view)."""
        return self._served.keys()

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    @property
    def cancelled(self) -> bool:
        """True once the consumer abandoned the stream via :meth:`close`."""
        return self.state == "cancelled"

    @property
    def buffered_chunks(self) -> int:
        """Chunks currently held for the consumer (bounded by the buffer)."""
        with self._cond:
            return len(self._buffer)

    @property
    def total_seconds(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at
