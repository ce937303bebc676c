"""Deterministic fault injection (``FaultPlan``) for the service stack.

See :mod:`repro.faults.plan` for the model and the list of injection points,
and the README's "Fault tolerance" section for how to write a plan.
"""

from .plan import (
    FAULT_CONSUMER_SKEW,
    FAULT_DECODE_ERROR,
    FAULT_SHM_ATTACH,
    FAULT_TRANSPORT_CUT,
    FAULT_TRANSPORT_DELAY,
    FAULT_TRANSPORT_DROP,
    KNOWN_FAULT_POINTS,
    FaultPlan,
    FaultSite,
    FaultSpec,
)

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
