"""Regret accounting for incremental tiling (Section 4.4).

When both the queried objects and their locations are unknown, TASM treats
layout selection as an online-indexing problem: for every SOT it maintains a
set of *alternative layouts* (non-uniform layouts around subsets of the
objects queried so far) and accumulates *regret* — the estimated improvement
each alternative would have delivered over the query history.  Once the
accumulated regret of an alternative exceeds ``eta`` times the estimated
re-encode cost, the SOT is re-tiled with that alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

__all__ = ["layout_key", "RegretAccumulator", "RegretEntry"]


def layout_key(objects: Iterable[str]) -> tuple[str, ...]:
    """Canonical identifier of an alternative layout: the sorted object set.

    Alternative layouts are identified by the objects they partition around
    (``partition(s, O')``), not by their concrete geometry — geometry changes
    as the semantic index fills in, but the intent ("a layout around cars and
    people") is stable and is what regret accrues to.
    """
    return tuple(sorted(set(objects)))


@dataclass
class RegretEntry:
    """Accumulated regret of one alternative layout on one SOT."""

    objects: tuple[str, ...]
    regret: float = 0.0
    observations: int = 0

    def accumulate(self, delta: float) -> None:
        self.regret += delta
        self.observations += 1


@dataclass
class RegretAccumulator:
    """Regret ledger per SOT and alternative layout.

    A SOT is whatever key the caller names it by; one ledger over several
    videos needs keys that tell their SOTs apart, such as ``(video, SOT)``.
    """

    _entries: dict[tuple[Hashable, tuple[str, ...]], RegretEntry] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def ensure_alternative(self, sot: Hashable, objects: Iterable[str]) -> RegretEntry:
        """Register an alternative layout for a SOT (regret starts at zero)."""
        key = (sot, layout_key(objects))
        entry = self._entries.get(key)
        if entry is None:
            entry = RegretEntry(objects=key[1])
            self._entries[key] = entry
        return entry

    def accumulate(self, sot: Hashable, objects: Iterable[str], delta: float) -> RegretEntry:
        """Add ``delta`` (estimated improvement of the alternative) for one query."""
        entry = self.ensure_alternative(sot, objects)
        entry.accumulate(delta)
        return entry

    def reset(self, sot: Hashable) -> None:
        """Drop every alternative of a SOT (called after the SOT is re-tiled).

        Re-tiling realises the accumulated benefit, so the ledger starts
        afresh; alternatives will be re-registered as further queries arrive.
        """
        stale = [key for key in self._entries if key[0] == sot]
        for key in stale:
            del self._entries[key]
