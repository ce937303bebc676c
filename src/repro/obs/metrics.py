"""A thread-safe, dependency-free metrics registry.

Three instrument kinds, modelled on the Prometheus client data model:

* :class:`Counter` — a monotonically increasing float.
* :class:`Gauge` — a point-in-time value, read from a callback.
* :class:`Histogram` — fixed, cumulative buckets plus a running sum/count.
  Bucket bounds are chosen at registration; observation is a bisect plus a
  few adds.

**One lock each.**  Every instrument guards its state with one lock, held for
a few adds.  A reader takes the same lock, so a histogram's buckets, sum and
count come from one instant and a snapshot is never torn.  Under the GIL, at
the handful of threads a shard runs, that lock is uncontended; spreading an
instrument over several costs every update a thread-local look-up and buys
nothing.

**Callbacks.**  What the service already counts for itself — the scheduler's
per-event ints, queue depth, cache occupancy — is not counted a second
time here: a counter or gauge given a callback
(:meth:`Counter.set_callback`) reads that state at snapshot time, so the hot
path that maintains it pays nothing for being observable.

:func:`render_text` turns a snapshot into Prometheus-style text exposition
for humans (and scrapers); it works on snapshots fetched over the wire just
as well as local ones.
"""

from __future__ import annotations

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

#: Default histogram bounds, in seconds — spans sub-millisecond cache hits
#: to multi-second cold scans.
DEFAULT_TIME_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + inner + "}"


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing value: incremented here, or — given a
    callback — read from whoever already counts it."""

    __slots__ = ("_lock", "_value", "_callback")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback: Callable[[], float] | None = None

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_callback(self, callback: Callable[[], float] | None) -> None:
        """Read ``callback()`` at snapshot time instead of a stored value."""
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


class Gauge(Counter):
    """A point-in-time value: a counter whose value a callback reads
    (:meth:`Counter.set_callback`) rather than one that only grows."""

    __slots__ = ()


class Histogram:
    """A fixed-bucket histogram with a running sum and count."""

    __slots__ = ("bounds", "_lock", "_buckets", "_total", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        self._lock = threading.Lock()
        # One extra bucket catches observations above the last bound (+Inf).
        self._buckets = [0] * (len(bounds) + 1)
        self._total = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        bucket = bisect_right(self.bounds, value)
        with self._lock:
            self._buckets[bucket] += 1
            self._total += value
            self._count += 1

    def snapshot_value(self) -> dict:
        """Cumulative buckets, sum, and count — never torn.

        All three are read under one acquisition of the lock every
        observation holds, so the bucket total always equals the count: the
        invariant the concurrent-readers test pins.
        """
        with self._lock:
            buckets, total, count = list(self._buckets), self._total, self._count
        cumulative = []
        running = 0
        for bound, bucket in zip(self.bounds, buckets):
            running += bucket
            cumulative.append([bound, running])
        cumulative.append(["+Inf", count])
        return {"count": count, "sum": total, "buckets": cumulative}

    _snapshot_value = snapshot_value


# ----------------------------------------------------------------------
# Families and the registry
# ----------------------------------------------------------------------
class _Family:
    """One registered metric name: its kind, help text, and children.

    An unlabelled metric has one anonymous child, and that instrument is what
    registering it returns; a labelled one returns the family, whose
    :meth:`labels` finds (or makes) the child for one label set.  Resolve
    children once, where the metric is registered — not per update.
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
        if sorted(labels) != sorted(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make()
        return child

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
    """Owns every registered metric family; snapshot-capable.

    Two places register: :class:`~repro.obs.Observability` (every counter
    and histogram) and ``TasmServer._register_gauges`` (the gauges).
    Registration is idempotent: asking for an existing name returns what the
    first registration returned (with a kind check).
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # Registration -------------------------------------------------------
    def counter(self, name: str, help_text: str = "", labels: Iterable[str] = ()):
        return self._register(name, "counter", help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = ""):
        return self._register(name, "gauge", help_text, (), Gauge)

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
        """The family itself when labelled, else its one instrument."""
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
        return family if family.label_names else family._children[()]

    # Reading ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every family's current values as a JSON-serialisable dict."""
        with self._lock:
            families = list(self._families.items())
        return {name: family._snapshot() for name, family in sorted(families)}


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
