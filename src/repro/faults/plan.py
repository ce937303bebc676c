"""Seeded, deterministic fault injection for the TASM service stack.

A :class:`FaultPlan` names *injection points* — places in the service stack
that have agreed to consult the plan before doing their normal work — and a
:class:`FaultSpec` per point saying when to misbehave.  The plan is activated
by handing it to the configuration (``TasmConfig(fault_plan=...)``) for
server-side points, or to ``RemoteTasmClient(fault_plan=...)`` for
client-side ones; components resolve their site **once** at construction
(``plan.site(POINT)``), so an absent plan costs exactly one ``is not None``
check per hook — the production path stays branch-predictable and
allocation-free.

Determinism: every site draws from its own ``random.Random`` seeded from
``(plan seed, point name)``, so for a fixed plan the *sequence of fire
decisions at each site* is identical run to run regardless of how threads
interleave.  (Which wall-clock moment the Nth evaluation happens at still
depends on scheduling — the guarantee is per-site decision sequences, which
is what lets a chaos test reconcile ``plan.fires()`` against the recovery
metrics afterwards.)

The injection points (the ``FAULT_*`` constants):

=======================  ====================================================
``transport.drop``       server: close the connection instead of writing the
                         next frame (clean EOF or mid-stream cut at a frame
                         boundary — the router must re-dial and resume).
``transport.cut``        server: write a frame header and only half of its
                         payload, then close — the client sees a mid-frame
                         :class:`~repro.errors.TransportError`.
``transport.delay``      server: sleep ``delay_ms`` before writing a frame
                         (a slow or congested wire).
``decode.error``         executor: raise :class:`~repro.errors.CodecError`
                         instead of prefetching a SOT (a corrupt bitstream /
                         flaky decoder).
``shm.attach``           client: fail the shared-memory attach during the
                         handshake (falls back to the socket pixel path).
``consumer.skew``        client: sleep ``delay_ms`` before consuming each
                         delivered chunk (a clock-skewed / starved consumer
                         that exercises credit flow control).
=======================  ====================================================
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "FAULT_CONSUMER_SKEW",
    "FAULT_DECODE_ERROR",
    "FAULT_SHM_ATTACH",
    "FAULT_TRANSPORT_CUT",
    "FAULT_TRANSPORT_DELAY",
    "FAULT_TRANSPORT_DROP",
    "FaultPlan",
    "FaultSite",
    "FaultSpec",
    "KNOWN_FAULT_POINTS",
]

FAULT_TRANSPORT_DROP = "transport.drop"
FAULT_TRANSPORT_CUT = "transport.cut"
FAULT_TRANSPORT_DELAY = "transport.delay"
FAULT_DECODE_ERROR = "decode.error"
FAULT_SHM_ATTACH = "shm.attach"
FAULT_CONSUMER_SKEW = "consumer.skew"

KNOWN_FAULT_POINTS = frozenset(
    {
        FAULT_TRANSPORT_DROP,
        FAULT_TRANSPORT_CUT,
        FAULT_TRANSPORT_DELAY,
        FAULT_DECODE_ERROR,
        FAULT_SHM_ATTACH,
        FAULT_CONSUMER_SKEW,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """When one injection point misbehaves.

    ``probability`` is the per-evaluation chance of firing (1.0 = always);
    ``skip_first`` evaluations never fire (let a workload get going before
    the chaos starts); ``max_fires`` caps total fires (None = unlimited) so a
    plan can model a transient fault the recovery machinery must absorb
    completely.  ``delay_ms`` parameterises the delay-style points
    (``transport.delay``, ``consumer.skew``) and is ignored by the rest.
    """

    point: str
    probability: float = 1.0
    max_fires: int | None = None
    skip_first: int = 0
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.point not in KNOWN_FAULT_POINTS:
            raise ConfigurationError(
                f"unknown fault point {self.point!r}; known points: "
                f"{sorted(KNOWN_FAULT_POINTS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("fault probability must be in [0, 1]")
        if self.max_fires is not None and self.max_fires < 0:
            raise ConfigurationError("max_fires must be non-negative")
        if self.skip_first < 0:
            raise ConfigurationError("skip_first must be non-negative")
        if self.delay_ms < 0:
            raise ConfigurationError("delay_ms must be non-negative")


class FaultSite:
    """One point's live state: seeded RNG, evaluation and fire counters.

    Thread-safe — injection points are consulted from runner, writer, and
    reader threads alike.  ``should_fire()`` is the single hot call:
    count the evaluation, honour ``skip_first``/``max_fires``, then draw.
    """

    __slots__ = ("spec", "_rng", "_lock", "_evaluations", "_fires")

    def __init__(self, spec: FaultSpec, seed: int):
        self.spec = spec
        self._rng = random.Random(f"{seed}:{spec.point}")
        self._lock = threading.Lock()
        self._evaluations = 0
        self._fires = 0

    def should_fire(self) -> bool:
        spec = self.spec
        with self._lock:
            self._evaluations += 1
            if self._evaluations <= spec.skip_first:
                return False
            if spec.max_fires is not None and self._fires >= spec.max_fires:
                return False
            # Draw even at probability 1.0 so the decision *sequence* is a
            # pure function of (seed, point, evaluation ordinal).
            if self._rng.random() >= spec.probability:
                return False
            self._fires += 1
            return True

    @property
    def delay_seconds(self) -> float:
        return self.spec.delay_ms / 1000.0

    @property
    def fires(self) -> int:
        with self._lock:
            return self._fires


class FaultPlan:
    """A seeded set of :class:`FaultSpec` — one per injection point.

    The plan object is shared by every component that consults it, so its
    :meth:`fires` tally is the ground truth a chaos test reconciles the
    recovery metrics against.
    """

    def __init__(self, specs: "list[FaultSpec] | tuple[FaultSpec, ...]", seed: int = 0):
        self.seed = seed
        self._sites: dict[str, FaultSite] = {}
        for spec in specs:
            if spec.point in self._sites:
                raise ConfigurationError(
                    f"duplicate fault spec for point {spec.point!r}"
                )
            self._sites[spec.point] = FaultSite(spec, seed)

    def site(self, point: str) -> FaultSite | None:
        """The live site for ``point``, or None when the plan ignores it.

        Components call this once at construction and keep the result; the
        per-operation cost of an unplanned point is one ``None`` check.
        """
        return self._sites.get(point)

    def fires(self) -> dict[str, int]:
        """Fire counts per point — what actually happened, for reconciling."""
        return {point: site.fires for point, site in self._sites.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        specs = ", ".join(sorted(self._sites))
        return f"FaultPlan(seed={self.seed}, points=[{specs}])"
