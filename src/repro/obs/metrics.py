"""A thread-safe, dependency-free metrics registry.

Three instrument kinds, modelled on the Prometheus client data model but
implemented for this codebase's hot paths:

* :class:`Counter` — a monotonically increasing float.
* :class:`Gauge` — a point-in-time value, either set explicitly or read
  through a callback at snapshot time (queue depth, cache bytes, reply-queue
  depth all fall out of existing structures, so sampling them lazily keeps
  the hot path untouched).
* :class:`Histogram` — fixed, cumulative buckets plus a running sum/count.
  Bucket bounds are chosen at registration; observation is a bisect plus a
  few adds.

**Lock striping.**  Counters and histograms are updated from many threads at
once (batch runners, connection writers, the demux reader), so a single lock per
metric would serialise exactly the paths observability must not slow down.
Each instrument therefore keeps ``STRIPE_COUNT`` independent shards, each
with its own lock; a thread is assigned a stripe once (round-robin, via a
thread-local) and only ever contends with threads that hashed to the same
stripe.  Reading sums the stripes, taking each stripe lock in turn — every
stripe is internally consistent (a histogram stripe's bucket total always
equals its count), so the summed snapshot is too, and readers can never see
a torn value.

**Disabled mode.**  ``MetricsRegistry(enabled=False)`` hands out shared
null instruments whose methods are no-ops and snapshots empty, so
instrumented code needs no ``if obs:`` guards and costs one attribute load
plus a no-op call per update when observability is off.

:func:`render_text` turns a snapshot into Prometheus-style text exposition
for humans (and scrapers); it works on snapshots fetched over the wire just
as well as local ones.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_right
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_text",
]

#: Shards per striped instrument.  Eight covers the thread counts this
#: server actually runs (runners + writers + readers) without making snapshot
#: reads walk a long list.
STRIPE_COUNT = 8

#: Default histogram bounds, in seconds — spans sub-millisecond cache hits
#: to multi-second cold scans.
DEFAULT_TIME_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Stripe assignment: thread idents are pointer-aligned on CPython, so
# masking their low bits lands every thread on stripe zero.  A round-robin
# ticket handed out on a thread's first update spreads threads evenly.
_stripe_tickets = itertools.count()
_stripe_local = threading.local()


def _stripe_index() -> int:
    index = getattr(_stripe_local, "index", None)
    if index is None:
        index = next(_stripe_tickets)
        _stripe_local.index = index
    return index % STRIPE_COUNT


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + inner + "}"


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """A striped, monotonically increasing counter."""

    __slots__ = ("_stripes",)

    def __init__(self):
        self._stripes = [[threading.Lock(), 0.0] for _ in range(STRIPE_COUNT)]

    def inc(self, amount: float = 1.0) -> None:
        stripe = self._stripes[_stripe_index()]
        with stripe[0]:
            stripe[1] += amount

    @property
    def value(self) -> float:
        total = 0.0
        for lock, _ in self._stripes:
            lock.acquire()
        try:
            for stripe in self._stripes:
                total += stripe[1]
        finally:
            for lock, _ in self._stripes:
                lock.release()
        return total

    def _snapshot_value(self) -> float:
        return self.value


class Gauge:
    """A settable point-in-time value, or a lazy callback read at snapshot."""

    __slots__ = ("_lock", "_value", "_callback")

    def __init__(self, callback: Callable[[], float] | None = None):
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_callback(self, callback: Callable[[], float] | None) -> None:
        """Make the gauge read ``callback()`` at snapshot time instead of a
        stored value (how queue depth, cache bytes, and reply-queue depth are
        exposed without touching their hot paths)."""
        with self._lock:
            self._callback = callback

    @property
    def value(self) -> float:
        with self._lock:
            callback = self._callback
            if callback is None:
                return self._value
        try:
            return float(callback())
        except Exception:  # noqa: BLE001 — a dying provider must not break snapshots
            return 0.0

    def _snapshot_value(self) -> float:
        return self.value


class Histogram:
    """A striped fixed-bucket histogram with a running sum and count."""

    __slots__ = ("bounds", "_stripes")

    class _Stripe:
        __slots__ = ("lock", "buckets", "total", "count")

        def __init__(self, bucket_count: int):
            self.lock = threading.Lock()
            self.buckets = [0] * bucket_count
            self.total = 0.0
            self.count = 0

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        # One extra bucket catches observations above the last bound (+Inf).
        self._stripes = [self._Stripe(len(bounds) + 1) for _ in range(STRIPE_COUNT)]

    def observe(self, value: float) -> None:
        stripe = self._stripes[_stripe_index()]
        bucket = bisect_right(self.bounds, value)
        with stripe.lock:
            stripe.buckets[bucket] += 1
            stripe.total += value
            stripe.count += 1

    @property
    def count(self) -> int:
        return self._snapshot_value()["count"]

    @property
    def total(self) -> float:
        return self._snapshot_value()["sum"]

    def _snapshot_value(self) -> dict:
        """Cumulative buckets, sum, and count — never torn.

        Each stripe is read under its lock, so its bucket total equals its
        count; sums of consistent stripes stay consistent, which is the
        invariant the concurrent-readers test pins.
        """
        merged = [0] * (len(self.bounds) + 1)
        total = 0.0
        count = 0
        for stripe in self._stripes:
            with stripe.lock:
                for index, bucket in enumerate(stripe.buckets):
                    merged[index] += bucket
                total += stripe.total
                count += stripe.count
        cumulative = []
        running = 0
        for bound, bucket in zip(self.bounds, merged):
            running += bucket
            cumulative.append([bound, running])
        cumulative.append(["+Inf", count])
        return {"count": count, "sum": total, "buckets": cumulative}


class _NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_callback(self, callback) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels) -> "_NullInstrument":
        return self

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def total(self) -> float:
        return 0.0

    def snapshot_value(self) -> dict:
        return {"count": 0, "sum": 0.0, "buckets": []}


NULL_INSTRUMENT = _NullInstrument()


# ----------------------------------------------------------------------
# Families and the registry
# ----------------------------------------------------------------------
class _Family:
    """One registered metric name: its kind, help text, and labelled children.

    An unlabelled metric is the family with a single anonymous child; the
    family object proxies the child's update methods so callers write
    ``registry.counter("x").inc()`` and ``family.labels(stage="warm").inc()``
    interchangeably.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_children", "_lock", "_make")

    def __init__(self, name: str, kind: str, help_text: str, label_names: tuple[str, ...], make: Callable[[], object]):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        self._make = make
        if not label_names:
            self._children[()] = make()

    def labels(self, **labels: str):
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make())
        return child

    def _default_child(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labelled ({self.label_names}); call .labels()"
            )
        return self._children[()]

    # Unlabelled convenience proxies -------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def set_callback(self, callback) -> None:
        self._default_child().set_callback(callback)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self):
        return self._default_child().value

    @property
    def count(self):
        return self._default_child().count

    @property
    def total(self):
        return self._default_child().total

    def snapshot_value(self):
        """The unlabelled child's consistent snapshot value.

        For a histogram this is ``{"count", "sum", "buckets"}`` with
        cumulative bucket counts — the shape the queue-wait breaker
        (``repro.service.shedding``) computes windowed percentiles from.
        """
        return self._default_child()._snapshot_value()

    def _snapshot(self) -> dict:
        with self._lock:
            children = list(self._children.items())
        values = []
        for key, child in sorted(children):
            labels = dict(zip(self.label_names, key))
            entry = {"labels": labels}
            value = child._snapshot_value()
            if self.kind == "histogram":
                entry.update(value)
            else:
                entry["value"] = value
            values.append(entry)
        return {"type": self.kind, "help": self.help, "values": values}


class MetricsRegistry:
    """Owns every registered metric family; snapshot- and exposition-capable.

    Registration is idempotent: asking for an existing name returns the
    existing family (with a kind check), so independently constructed
    components (server, transport, cache wiring) can all say
    ``registry.counter("tasm_x_total")`` without coordinating.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # Registration -------------------------------------------------------
    def counter(self, name: str, help_text: str = "", labels: Iterable[str] = ()):
        return self._register(name, "counter", help_text, labels, Counter)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        callback: Callable[[], float] | None = None,
    ):
        gauge = self._register(name, "gauge", help_text, (), Gauge)
        if callback is not None and self.enabled:
            gauge.set_callback(callback)
        return gauge

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Iterable[str] = (),
    ):
        return self._register(
            name, "histogram", help_text, labels, lambda: Histogram(buckets)
        )

    def _register(self, name, kind, help_text, labels, make):
        if not self.enabled:
            return NULL_INSTRUMENT
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(
                    name, kind, help_text, tuple(labels), make
                )
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {family.kind}"
                )
            return family

    # Reading ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every family's current values as a JSON-serialisable dict."""
        if not self.enabled:
            return {}
        with self._lock:
            families = list(self._families.items())
        return {name: family._snapshot() for name, family in sorted(families)}

    def render_text(self) -> str:
        return render_text(self.snapshot())


def render_text(snapshot: Mapping[str, dict]) -> str:
    """Prometheus-style text exposition of a :meth:`MetricsRegistry.snapshot`.

    Works on snapshots fetched from a remote server (``client.metrics()``)
    exactly as on local ones — the wire format *is* the snapshot dict.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for entry in family.get("values", []):
            labels = entry.get("labels", {})
            if family["type"] == "histogram":
                for bound, cumulative in entry["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = str(bound)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                    )
                lines.append(f"{name}_sum{_format_labels(labels)} {entry['sum']:.9g}")
                lines.append(f"{name}_count{_format_labels(labels)} {entry['count']}")
            else:
                value = entry["value"]
                rendered = f"{value:.9g}" if isinstance(value, float) else str(value)
                lines.append(f"{name}{_format_labels(labels)} {rendered}")
    return "\n".join(lines) + ("\n" if lines else "")
