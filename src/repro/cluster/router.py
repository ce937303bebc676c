"""Scatter-gather routing over a set of TASM shard processes.

:class:`ClusterRouter` is the cluster's one client-facing handle, shaped
like a :class:`~repro.service.transport.RemoteTasmClient`.  A scan is split
by the consistent-hash ring (:mod:`repro.cluster.ring`): every ``(video,
SOT)`` key has a replica set of ``replication`` shards, each chosen shard
receives the *same* query with ``skip_sots`` naming every SOT it does not
own, and the per-shard chunk streams merge into one
:class:`ClusterScanStream`.  Its ``result()`` assembles regions in ascending
SOT order, so the merged result is byte-identical however the shard streams
interleave and whichever replica served what.

Placement is the ring's: each SOT goes to the first replica in ring order
that is up and not excluded from the scan.  A key keeps going to the same
shard, whose tile cache it warmed, until that shard is marked down, so the
router keeps no placement state of its own.

Every request to a shard — a scan's share, ``video_info``, ``add_metadata``,
``metrics`` — goes through :meth:`ClusterRouter._call`.  A shard client is a
plain connection: a broken wire fails its streams with
:class:`~repro.errors.TransportError`.  ``_call`` then re-dials that shard
under its :class:`~repro.service.transport.RetryPolicy` (capped exponential
backoff, each wait bounded by the scan's remaining deadline and ended by
``close()``), and the scan resumes its share with ``skip_sots`` naming what
was delivered.  A shard still unreachable after the policy's attempts is
marked down for :data:`DOWN_RETRY_AFTER_S`, and the scan's undelivered SOTs
move to their next replicas through the same ``skip_sots`` message: resume
and scatter are one mechanism.  So ``ClusterRouter([address], retry=...)``
is the resilient single-server handle.  A shard answering
:class:`~repro.errors.ServerBusy` is routed around for that scan only; a
:class:`~repro.errors.QueryRefused` fails the scan and leaves every shard
up.  Once a down mark expires, the next request dials the shard again: an
answer clears the mark, a failed dial sets it afresh.  Membership is fixed
when the router is built.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, NamedTuple

from ..config import TasmConfig
from ..errors import (
    DeadlineExceeded,
    QueryRefused,
    ServiceError,
    StreamCancelledError,
    TransportError,
)
from ..core.scan import ScanResult
from ..service.stream import ScanStream
from ..service.transport import RemoteScanStream, RemoteTasmClient, RetryPolicy
from .ring import HashRing, sot_key

__all__ = ["ClusterRouter", "ClusterScanStream"]

#: Seconds a shard marked down is left alone.  After that the next request
#: that would use it dials it again (:meth:`ClusterRouter._call`); a dial that
#: fails marks it down for as long again.
DOWN_RETRY_AFTER_S = 5.0


#: Verdicts that hold cluster-wide: a re-dial or a replica would only
#: repeat them.  A refused query is the client's fault, not the shard's.
_FINAL = (DeadlineExceeded, StreamCancelledError, QueryRefused)


class _SubScan(NamedTuple):
    """One shard's share of a scattered scan (a live sub-stream)."""

    shard: str
    stream: RemoteScanStream
    assigned: frozenset


class ClusterScanStream(ScanStream):
    """The cluster source: *pulls* chunks out of its per-shard sub-streams.

    Iterating yields chunks in whatever order replicas produce them;
    :meth:`result` assembles the final :class:`ScanResult` with regions in
    ascending SOT order (each SOT's regions are one shard's chunk,
    internally in the executor's deterministic order), which is the order a
    single server produces — so merged results compare byte-identical to an
    unsharded run regardless of interleaving or mid-scan failover.

    There is no thread and no queue per sub-scan: the sub-streams' reader
    threads wake this stream, and the merge and failover bookkeeping run on
    the consuming thread, which takes one chunk at a time out of a
    sub-stream.  A sub-stream's credit goes back to its shard only then, so
    a consumer that stops iterating leaves at most the credit window
    buffered per sub-scan and the shards park those streams.
    """

    failure_prefix = "cluster scan failed"

    def __init__(
        self,
        router: "ClusterRouter",
        scan: dict,
        deadline_ms: float | None,
        universe: frozenset,
    ):
        super().__init__(deadline_ms=deadline_ms, event_timeout=router._timeout)
        self._router = router
        #: The scan's selection — the ``scan_streaming`` keywords
        #: every shard gets as they are; only ``skip_sots`` and the deadline
        #: differ per shard.
        self._scan = scan
        self.video = scan["video"]
        #: Every SOT of the video: the scatter partitions this set (a
        #: temporally bounded query simply never emits chunks for SOTs
        #: outside its range, whichever shard owns them).
        self._universe = universe
        self._subs: list[_SubScan] = []
        #: Shards this scan gave up on (dead or shedding); grows only.
        self._excluded: set = set()
        #: Decode accounting summed across the shards that finished; the
        #: timings take the slowest shard (scatter work ran in parallel).
        self._merged = ScanResult(video=self.video)
        #: Failed sub-scans whose share was issued again, over a re-dialled
        #: connection or to a replica.
        self.failovers = 0

    # ------------------------------------------------------------------
    # Scatter and recovery (called by the router, and again on failover)
    # ------------------------------------------------------------------
    def _scatter(
        self, sots: set, cause: BaseException | None = None, lost: str | None = None
    ) -> None:
        """Scatter ``sots`` over live, non-excluded replicas.

        ``lost`` is a shard whose connection just failed with ``cause``; it
        is offered ``sots`` first, re-dialled (:meth:`ClusterRouter._call`,
        as every submission is after a wire failure).  A shard
        that cannot take its share is excluded from this scan — and marked
        down only if it is still unreachable once the policy is spent — and
        the share is re-chosen, until every SOT has a stream or no replica
        remains (then the most recent failure propagates).  What holds
        cluster-wide — the deadline, a refusal, a ``close()`` of this stream
        or of the router — propagates at once.
        """
        todo = set(sots)
        while todo:
            groups: dict[str, set] = {}
            if lost is not None:
                groups[lost] = todo
            else:
                for sot in todo:
                    shard = self._router._choose_replica(self.video, sot, self._excluded)
                    if shard is None:
                        raise cause if cause is not None else ServiceError(
                            f"no live replica for SOT {sot} of {self.video!r}"
                        )
                    groups.setdefault(shard, set()).add(sot)
            todo = set()
            for shard, group in sorted(groups.items()):
                try:
                    # Each try, a re-dial's included, carries the deadline
                    # left then.
                    stream = self._router._call(
                        shard,
                        lambda client: client.scan_streaming(
                            **self._scan,
                            deadline_ms=self.remaining_deadline_ms(),
                            skip_sots=self._universe - group,
                        ),
                        cause if shard == lost else None,
                        self,
                    )
                except ServiceError as submit_error:
                    if isinstance(submit_error, _FINAL) or self._router._closed:
                        raise
                    self._excluded.add(shard)
                    todo |= group
                    cause = submit_error
                    continue
                stream._listener = self._wake
                self._subs.append(_SubScan(shard, stream, frozenset(group)))
            lost = None
        # Events that arrived before a listener was attached sit in the
        # sub-stream's buffer, unannounced: have the consumer pull again.
        self._wake()

    @property
    def outstanding(self) -> list[tuple[str, set]]:
        """Each live sub-scan's shard and the SOTs it still owes."""
        return [(sub.shard, sub.assigned - self.delivered) for sub in self._subs]

    @property
    def buffered_chunks(self) -> int:
        """Chunks held for the consumer, those still in sub-streams included."""
        return super().buffered_chunks + sum(
            sub.stream.buffered_chunks for sub in self._subs
        )

    # ------------------------------------------------------------------
    # Merge (consumer side)
    # ------------------------------------------------------------------
    def _pull(self) -> None:
        """Take at most one chunk out of the sub-streams; retire finished
        ones (failing their share over), and finish once none is left."""
        if self.done or self._buffer:
            return
        for sub in list(self._subs):
            # Read the terminal flag first: a sub-stream accepts no chunk
            # after it, so "was terminal, and nothing buffered" is final.
            ended = sub.stream.done
            chunk = sub.stream.poll()
            if chunk is not None:
                self._push(chunk)
                return
            if ended:
                self._subs.remove(sub)
                try:
                    shard = sub.stream.result()
                except ServiceError as error:
                    self._failover(sub, error)
                    if self.done:
                        return  # aborted: the remaining sub-streams are closed
                    continue
                merged = self._merged
                merged.stats.merge(shard.stats)
                merged.index_seconds = max(merged.index_seconds, shard.index_seconds)
                merged.decode_seconds = max(merged.decode_seconds, shard.decode_seconds)
        if not self._subs:
            self._finish(self._merged)

    def _cancel_source(self) -> None:
        for sub in self._subs:
            sub.stream.close()
        self._subs.clear()
        with self._router._changed:
            self._router._changed.notify_all()  # a re-dial's backoff ends now

    def _failover(self, sub: _SubScan, error: BaseException) -> None:
        """Recover a failed sub-scan's undelivered SOTs, or fail for good.

        Deadline, cancellation and refusal verdicts hold
        cluster-wide (a replica would only repeat them).  A lost connection
        is re-dialled first (:meth:`_scatter`), and only a shard that stays
        unreachable is marked down; any other failure (``ServerBusy``
        among them) routes around the shard for this scan.  A share its own
        shard cannot take back moves to the next replicas.
        """
        try:
            if isinstance(error, _FINAL):
                raise error
            lost = sub.shard if isinstance(error, TransportError) else None
            if lost is None:
                # Not the wire (busy is overload, not death): the scan routes
                # around the shard this once, and it stays up for the next one.
                self._excluded.add(sub.shard)
            if sub.assigned <= self.delivered:
                return  # everything it owed arrived before it failed
            if self.resume(
                lambda skip_sots, _: self._scatter(sub.assigned - skip_sots, error, lost)
            ):
                self.failovers += 1
                with self._router._lock:  # consumers of other scans count too
                    self._router.failovers_total += 1
        except ServiceError as fatal:
            # Terminal failure: cancel every live sub-stream.
            self._fail(fatal)
            self._cancel_source()


class ClusterRouter:
    """One client handle over N shards: scatter, merge, replicate, fail over.

    ``addresses`` are ``(host, port)`` shard endpoints (typically a
    :class:`~repro.cluster.supervisor.ClusterSupervisor`'s).  ``config``
    supplies the cluster knobs (``cluster_replication_factor``,
    ``cluster_ring_vnodes``); ``retry`` is how a shard whose connection
    failed is re-dialled before it is marked down (None: at once).  With one
    address this is the resilient single-server handle.

    Thread-safe: concurrent scans share the shard clients (each is itself a
    multiplexing handle), the ring is immutable, and health state is
    lock-protected.
    """

    def __init__(
        self,
        addresses: Iterable,
        config: TasmConfig | None = None,
        timeout: float | None = 30.0,
        stream_buffer_chunks: int = 64,
        retry: RetryPolicy | None = None,
    ):
        config = config or TasmConfig()
        self._addresses = {self._shard_name(a): tuple(a) for a in addresses}
        if not self._addresses:
            raise ValueError("a cluster needs at least one shard address")
        if stream_buffer_chunks < 1:
            raise ValueError(f"stream_buffer_chunks {stream_buffer_chunks} is below 1")
        self._replication = min(
            config.cluster_replication_factor, len(self._addresses)
        )
        self._ring = HashRing(self._addresses, vnodes=config.cluster_ring_vnodes)
        self._timeout = timeout
        self._buffer_chunks = stream_buffer_chunks
        self._retry = retry
        self._lock = threading.Lock()
        #: Notified on ``close()`` of the router or of a scan: a re-dial's
        #: backoff waits on it.
        self._changed = threading.Condition(self._lock)
        self._clients: dict[str, RemoteTasmClient] = {}
        #: Shards the router believes dead: the evidence, and when
        #: (``time.monotonic()``) it was marked down.
        self._down: dict[str, tuple[BaseException, float]] = {}
        self._video_infos: dict[str, dict] = {}
        self._closed = False
        #: Router-level failovers across all scans (tests and stats).
        self.failovers_total = 0

    @staticmethod
    def _shard_name(address) -> str:
        host, port = tuple(address)[:2]
        return f"{host}:{port}"

    @property
    def shards(self) -> list:
        return sorted(self._addresses)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def _note_failure(self, name: str, error: BaseException) -> None:
        with self._lock:
            self._down[name] = (error, time.monotonic())
            client = self._clients.pop(name, None)
        if client is not None:
            client.close(join_timeout=0.5)

    def _is_up(self, name: str) -> bool:
        """Not marked down in the last :data:`DOWN_RETRY_AFTER_S`."""
        with self._lock:
            down = self._down.get(name)
        return down is None or time.monotonic() - down[1] >= DOWN_RETRY_AFTER_S

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _choose_replica(self, video: str, sot_index: int, excluded: set):
        """The shard to serve one SOT: the first of its replicas, in ring
        order, that is up and not ``excluded`` (None when none is)."""
        for name in self._ring.nodes_for(sot_key(video, sot_index), self._replication):
            if name not in excluded and self._is_up(name):
                return name
        return None

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def _client(self, name: str) -> RemoteTasmClient:
        """The shard's connection, dialled afresh when there is none or the
        last one failed (a failed connection refuses every call)."""
        with self._lock:
            if self._closed:
                raise ServiceError("the cluster router is closed")
            client = self._clients.get(name)
            if client is not None and client._dead is None:
                return client
            address = self._addresses[name]
        if client is not None:
            client.close()  # failed: release its socket and ring
        client = RemoteTasmClient(
            address,
            timeout=self._timeout,
            stream_buffer_chunks=self._buffer_chunks,
            use_shm=False,
        )
        with self._lock:
            existing = self._clients.get(name)
            if existing is None or existing._dead is not None:
                self._clients[name] = existing = client
        if existing is not client:
            client.close()  # another caller's dial won
        return existing

    def _call(self, shard: str, request, failed=None, stream: ScanStream | None = None):
        """``request(client)`` on ``shard``'s connection — the one way the
        router reaches a shard, and its one recovery path.

        A connection that fails, at this call or before it (``failed``), is
        re-dialled under the :class:`~repro.service.transport.RetryPolicy`
        and ``request`` made again over the new one.  A backoff ends at once
        when the router or the scan's ``stream`` is closed, and is bounded
        by the stream's remaining deadline.  Once the policy is spent (at
        once without one) the shard is marked down and the wire error
        raised; anything else is raised straight away.  A request that goes
        through clears the shard's down mark.
        """
        delays = self._retry.delays() if self._retry is not None else iter(())
        while True:
            if failed is not None:
                delay = next(delays, None)
                if delay is None:
                    self._note_failure(shard, failed)
                    raise failed
                remaining = None if stream is None else stream.remaining_deadline_ms()
                with self._changed:
                    self._changed.wait_for(
                        lambda: self._closed or (stream is not None and stream.done),
                        delay if remaining is None else min(delay, remaining / 1000.0),
                    )
                if stream is not None and stream.done:
                    raise StreamCancelledError("stream closed by its consumer")
            try:
                result = request(self._client(shard))
            except TransportError as error:
                failed = error
            except OSError as error:  # the dial itself
                failed = TransportError(f"shard {shard} is unreachable: {error}")
            else:
                with self._lock:
                    self._down.pop(shard, None)  # it answered: up again
                return result

    def _ask_up_shards(self, request):
        """``request(client)`` through :meth:`_call` on each up shard in name
        order, yielding ``(shard, answer, error)`` with one of the last two
        None.  Lazy: a caller that needs one answer stops at the first."""
        for name in sorted(self._addresses):
            if not self._is_up(name):
                continue
            try:
                answer = self._call(name, request)
            except ServiceError as error:
                yield name, None, error
            else:
                yield name, answer, None

    # ------------------------------------------------------------------
    # The client-facing API
    # ------------------------------------------------------------------
    def video_info(self, video: str) -> dict:
        """Layout facts for a video, cached; the first up shard to answer
        gives them."""
        with self._lock:
            info = self._video_infos.get(video)
        if info is not None:
            return info
        errors = []
        for name, info, error in self._ask_up_shards(
            lambda client: client.video_info(video)
        ):
            if error is None:
                with self._lock:
                    self._video_infos[video] = info
                return info
            errors.append((name, error))
        raise ServiceError(f"no shard could answer video_info({video!r}): {errors}")

    def scan_streaming(
        self,
        video: str,
        labels,
        frame_start: int | None = None,
        frame_stop: int | None = None,
        deadline_ms: float | None = None,
    ) -> ClusterScanStream:
        info = self.video_info(video)
        universe = frozenset(range(int(info["sot_count"])))
        scan = dict(
            video=video, labels=labels, frame_start=frame_start, frame_stop=frame_stop
        )
        stream = ClusterScanStream(self, scan, deadline_ms, universe)
        try:
            stream._scatter(universe)
        except BaseException:
            stream.close()
            raise
        return stream

    def scan(
        self,
        video: str,
        labels,
        frame_start: int | None = None,
        frame_stop: int | None = None,
        deadline_ms: float | None = None,
    ):
        return self.scan_streaming(
            video, labels, frame_start, frame_stop, deadline_ms=deadline_ms
        ).result()

    def add_metadata(self, *args, **kwargs) -> None:
        """Broadcast: every shard holds the full dataset, so a metadata
        write must land on all of them to keep replicas interchangeable."""
        errors = [
            (name, error)
            for name, _, error in self._ask_up_shards(
                lambda client: client.add_metadata(*args, **kwargs)
            )
            if error is not None
        ]
        if errors:
            raise ServiceError(f"add_metadata failed on {errors}")

    def metrics(self) -> dict:
        """Per-shard snapshots plus a cluster rollup of every counter.

        ``{"shards": {name: snapshot}, "cluster": {counter: summed total}}``
        — gauges and histograms stay per-shard (summing a queue-depth gauge
        across shards is meaningful, but summing p95 buckets is not; the
        per-shard snapshots keep full fidelity for anything the rollup
        flattens).
        """
        shards = {
            name: snapshot
            for name, snapshot, error in self._ask_up_shards(RemoteTasmClient.metrics)
            if error is None
        }
        rollup: dict[str, float] = {}
        for snapshot in shards.values():
            for metric, family in snapshot.items():
                if family.get("type") != "counter":
                    continue
                total = sum(
                    float(entry.get("value", 0.0))
                    for entry in family.get("values", ())
                )
                rollup[metric] = rollup.get(metric, 0.0) + total
        return {"shards": shards, "cluster": rollup}

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            clients = list(self._clients.values())
            self._clients.clear()
            self._changed.notify_all()
        for client in clients:
            client.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
