"""Load shedding: the queue-wait breaker.

The scheduler has two shedders.  The *depth bound* is trivial and lives in
``BatchScheduler.submit`` (refuse outright above
``service_max_queue_depth``).  This module holds the second, latency-based
one: a breaker that watches the **p95 of queue wait** — how long queries sit
between submit and their batch starting — and trips when it crosses
``service_shed_queue_wait_ms``.  Depth alone is a poor overload signal (a
deep queue of cheap cache-hit queries drains in milliseconds; a shallow
queue of cold multi-SOT scans can be seconds of backlog); queue-wait is the
quantity clients actually experience.

The breaker reads the existing observability surface instead of growing its
own probes: ``tasm_queue_wait_seconds`` is a fixed-bucket histogram whose
snapshot carries cumulative bucket counts, so the p95 over a *recent window*
is the percentile of the bucket-wise delta between two snapshots.  The
window advances only once it holds ``min_samples`` observations, so a
trickle of queries cannot trip the breaker on one slow straggler.

When the breaker trips the scheduler sheds pending queries **lowest priority
first, newest first within a priority**, failing each with
:class:`~repro.errors.ServerBusy` until the backlog is halved — the clients
that asked least urgently and most recently absorb the overload, and queries
already near the front of the line keep their sunk queue time.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["QueueWaitBreaker", "percentile_from_buckets"]


def percentile_from_buckets(
    buckets: "list[tuple[float | str, int]]", count: int, quantile: float
) -> float:
    """A percentile estimate from cumulative histogram buckets.

    ``buckets`` is ``[(upper_bound, cumulative_count), ...]`` with a final
    ``("+Inf", count)`` entry — the shape ``Histogram.snapshot_value()``
    returns.  The estimate is the upper bound of the bucket holding the
    nearest-rank sample, ``ceil(quantile * count)`` (conservative: never
    below the true percentile within the bucket resolution).  Comparing the
    integer cumulative counts against the *fractional* rank instead would
    land one bucket low whenever floating-point noise pulls the product
    under the exact integer (``0.29 * 100 == 28.999...``), and a quantile of
    0 would match an empty leading bucket below the smallest sample.  A rank
    landing in the overflow bucket returns ``inf`` — above every finite
    bound is above any finite threshold.
    """
    if count <= 0:
        return 0.0
    rank = max(1, math.ceil(quantile * count))
    for bound, cumulative in buckets:
        if cumulative >= rank:
            return float("inf") if bound == "+Inf" else float(bound)
    return float("inf")


class QueueWaitBreaker:
    """Trips when the queue-wait p95 over a recent window crosses a threshold.

    ``read_snapshot`` returns the queue-wait histogram's
    ``{"count", "sum", "buckets"}`` snapshot (cumulative buckets); the
    breaker diffs consecutive snapshots so only *recent* waits matter — a
    long-lived server's historical distribution cannot mask a fresh overload,
    and a past overload cannot keep the breaker tripped after the queue
    drains.  Not thread-safe by itself: the scheduler consults it under its
    pending-queue lock.
    """

    def __init__(
        self,
        read_snapshot: Callable[[], dict],
        threshold_seconds: float,
        quantile: float = 0.95,
        min_samples: int = 8,
    ):
        self._read = read_snapshot
        self._threshold = threshold_seconds
        self._quantile = quantile
        self._min_samples = max(1, min_samples)
        self._previous: dict | None = None
        #: The last window's percentile estimate (seconds); for introspection.
        self.last_percentile: float | None = None
        #: Times the breaker tripped (consulted by tests and stats).
        self.trips = 0

    def should_shed(self) -> bool:
        """Consume the window since the last evaluation; True when tripped.

        Windows shorter than ``min_samples`` are left to accumulate (the
        previous snapshot is kept), so slow traffic evaluates over however
        long it takes to gather a meaningful sample rather than per-batch.
        """
        current = self._read()
        if self._previous is None:
            self._previous = current
            return False
        window_count = current["count"] - self._previous["count"]
        if window_count < self._min_samples:
            return False
        delta = [
            (bound, cumulative - previous_cumulative)
            for (bound, cumulative), (_, previous_cumulative) in zip(
                current["buckets"], self._previous["buckets"]
            )
        ]
        self._previous = current
        self.last_percentile = percentile_from_buckets(
            delta, window_count, self._quantile
        )
        if self.last_percentile > self._threshold:
            self.trips += 1
            return True
        return False
