"""Tiling strategies (Sections 4.2–4.4, evaluated in Section 5.3).

Each strategy decides *when* to re-tile which SOTs and around which objects:

* :class:`NoTilingPolicy` — the "Not tiled" baseline: never re-tile.
* :class:`PreTileAllObjectsPolicy` — the "All objects" baseline: before any
  query runs, tile every SOT around every object in the semantic index.
* :class:`KnownWorkloadPolicy` — the KQKO optimisation of Section 4.2: with
  the workload known up front, tile each SOT around the objects the workload
  targets there, subject to the alpha usefulness rule.
* :class:`IncrementalMorePolicy` — "Incremental, more": after observing a
  query for a new object class on a SOT, re-tile that SOT around all classes
  queried so far.
* :class:`IncrementalRegretPolicy` — "Incremental, regret" (Section 4.4):
  accumulate regret for alternative layouts and re-tile a SOT once some
  alternative's regret exceeds ``eta * R(s, L)`` and the alpha rule says the
  layout will not hurt.

Strategies do not re-encode video themselves; they ask a
:class:`RetileExecutor` to do it, so the evaluation harness can either
physically re-encode (measured mode) or charge the analytic cost
(modelled mode) without changing the policy logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Protocol

from ..tiles.layout import TileLayout
from ..tiles.partitioner import TileGranularity
from .query import Query, Workload
from .regret import RegretAccumulator, layout_key
from .tasm import TASM

__all__ = [
    "RetileExecutor",
    "TilingPolicy",
    "NoTilingPolicy",
    "PreTileAllObjectsPolicy",
    "KnownWorkloadPolicy",
    "IncrementalMorePolicy",
    "IncrementalRegretPolicy",
]

#: Above this many distinct seen objects, the regret policy stops enumerating
#: every subset and keeps only singletons plus the full set (the paper's
#: examples never exceed three classes, so this is purely a safety valve).
_MAX_OBJECTS_FOR_FULL_ENUMERATION = 4


class RetileExecutor(Protocol):
    """Re-encodes a SOT under a new layout and returns the cost charged for it."""

    def retile(self, video_name: str, sot_index: int, layout: TileLayout) -> float:
        ...


class TilingPolicy(Protocol):
    """The interface the workload runner drives."""

    name: str

    def prepare(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, workload: Workload
    ) -> float:
        """Upfront work before any query executes; returns the cost charged."""
        ...

    def on_query(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, query: Query
    ) -> float:
        """Per-query work (observing the query, possibly re-tiling)."""
        ...


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
@dataclass
class NoTilingPolicy:
    """Never tile; every query decodes full frames."""

    name: str = "not-tiled"

    def prepare(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, workload: Workload
    ) -> float:
        return 0.0

    def on_query(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, query: Query
    ) -> float:
        return 0.0


@dataclass
class PreTileAllObjectsPolicy:
    """Tile every SOT around every detected object before queries run.

    This is the paper's "All objects" baseline.  It performs well when
    objects are sparse and queries are spread across the video, but wastes
    re-encoding work when only part of the video is queried and hurts
    performance when objects are dense (Figures 11(e)/(f)).
    """

    granularity: TileGranularity = TileGranularity.FINE
    name: str = "all-objects"

    def prepare(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, workload: Workload
    ) -> float:
        tiled = tasm.video(video_name)
        labels = tasm.semantic_index.labels(video_name)
        total = 0.0
        for sot_index in range(tiled.sot_count):
            layout = tasm.layout_around(video_name, sot_index, labels, self.granularity)
            if layout.is_untiled:
                continue
            total += executor.retile(video_name, sot_index, layout)
        return total

    def on_query(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, query: Query
    ) -> float:
        return 0.0


@dataclass
class KnownWorkloadPolicy:
    """KQKO (Section 4.2): the workload is known, the index is populated."""

    granularity: TileGranularity = TileGranularity.FINE
    name: str = "known-workload"

    def prepare(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, workload: Workload
    ) -> float:
        chosen = tasm.optimize_for_workload(
            video_name, workload, granularity=self.granularity, apply=False
        )
        return sum(
            executor.retile(video_name, sot_index, layout)
            for sot_index, layout in chosen.items()
        )

    def on_query(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, query: Query
    ) -> float:
        return 0.0


# ----------------------------------------------------------------------
# Incremental strategies
# ----------------------------------------------------------------------
@dataclass
class IncrementalMorePolicy:
    """Re-tile a SOT whenever a query introduces a new object class for it."""

    granularity: TileGranularity = TileGranularity.FINE
    name: str = "incremental-more"
    #: Per ``(video, SOT)``: the classes queried there so far.
    _seen_objects: dict[tuple[str, int], set[str]] = field(default_factory=dict)

    def prepare(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, workload: Workload
    ) -> float:
        self._seen_objects.clear()
        return 0.0

    def on_query(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, query: Query
    ) -> float:
        tiled = tasm.video(video_name)
        frame_start, frame_stop = query.temporal.resolve(tiled.video.frame_count)
        total = 0.0
        for sot_index in tiled.sots_for_frames(frame_start, frame_stop):
            seen = self._seen_objects.setdefault((video_name, sot_index), set())
            new_objects = set(query.objects) - seen
            if not new_objects:
                continue
            seen.update(new_objects)
            layout = tasm.layout_around(video_name, sot_index, seen, self.granularity)
            if layout.is_untiled or layout == tiled.layout_for(sot_index):
                continue
            total += executor.retile(video_name, sot_index, layout)
        return total


@dataclass
class IncrementalRegretPolicy:
    """The regret-based online approach of Section 4.4."""

    granularity: TileGranularity = TileGranularity.FINE
    name: str = "incremental-regret"
    #: Regret per ``(video, SOT)`` and alternative.
    _regret: RegretAccumulator = field(default_factory=RegretAccumulator)
    #: Per video: the classes queried so far.
    _seen_objects: dict[str, set[str]] = field(default_factory=dict)
    #: Per ``(video, SOT)``: the classes its last re-tile was around.
    _current_objects: dict[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)

    def prepare(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, workload: Workload
    ) -> float:
        self._regret = RegretAccumulator()
        self._seen_objects.clear()
        self._current_objects.clear()
        return 0.0

    def on_query(
        self, tasm: TASM, executor: RetileExecutor, video_name: str, query: Query
    ) -> float:
        tiled = tasm.video(video_name)
        frame_start, frame_stop = query.temporal.resolve(tiled.video.frame_count)
        seen = self._seen_objects.setdefault(video_name, set())
        seen.update(query.objects)
        alternatives = self._candidate_object_sets(seen)

        total = 0.0
        for sot_index in tiled.sots_for_frames(frame_start, frame_stop):
            total += self._process_sot(
                tasm, executor, video_name, sot_index, query, alternatives
            )
        return total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _process_sot(
        self,
        tasm: TASM,
        executor: RetileExecutor,
        video_name: str,
        sot_index: int,
        query: Query,
        alternatives: list[tuple[str, ...]],
    ) -> float:
        """Accrue one query's regret to each alternative of one SOT, then
        re-tile the SOT to the alternative of most regret, if any passes the
        eta and alpha rules.

        The SOT's costs come from the what-if memo in two batched reads — the
        current and untiled layouts, then every tiled alternative — and its
        alternatives' layouts in one more, so a visit whose answers are all
        memoised costs three memo reads and a probe per question.
        """
        tiled = tasm.video(video_name)
        current_cost, untiled_cost = tasm.estimate_sot_query_costs(
            video_name, sot_index, query, [tiled.layout_for(sot_index), tiled.untiled_layout]
        )
        if untiled_cost.is_zero:
            # The query selects nothing from this SOT; no regret accrues.
            return 0.0

        sot = (video_name, sot_index)
        candidates = [
            (objects, layout)
            for objects, layout in zip(
                alternatives,
                tasm.layouts_around(video_name, sot_index, alternatives, self.granularity),
            )
            if not layout.is_untiled
        ]
        costs = tasm.estimate_sot_query_costs(
            video_name, sot_index, query, [layout for _, layout in candidates]
        )
        frame_start, frame_stop = tiled.frame_range(sot_index)
        stored = tiled.stored_layout(sot_index)
        best_choice: tuple[float, tuple[str, ...], TileLayout] | None = None
        for (objects, layout), alternative_cost in zip(candidates, costs):
            delta = tasm.cost_model.delta(current_cost, alternative_cost)
            regret = self._regret.accumulate(sot, objects, delta).regret
            if self._current_objects.get(sot) == objects:
                continue
            retile_cost = tasm.cost_model.retile_cost(stored, layout, frame_stop - frame_start)
            if regret <= tasm.config.eta * retile_cost:
                continue
            # The alpha rule: do not adopt a layout that would barely help (or
            # hurt) the query we just observed.
            if not tasm.cost_model.layout_is_useful(alternative_cost, untiled_cost):
                continue
            if best_choice is None or regret > best_choice[0]:
                best_choice = (regret, objects, layout)

        if best_choice is None:
            return 0.0
        _, objects, layout = best_choice
        charged = executor.retile(video_name, sot_index, layout)
        self._current_objects[sot] = objects
        self._regret.reset(sot)
        return charged

    @staticmethod
    def _candidate_object_sets(seen: set[str]) -> list[tuple[str, ...]]:
        """Alternative layouts: subsets of the objects queried so far."""
        ordered = sorted(seen)
        if not ordered:
            return []
        if len(ordered) <= _MAX_OBJECTS_FOR_FULL_ENUMERATION:
            subsets: list[tuple[str, ...]] = []
            for size in range(1, len(ordered) + 1):
                subsets.extend(combinations(ordered, size))
            return [layout_key(subset) for subset in subsets]
        singletons = [layout_key((label,)) for label in ordered]
        return singletons + [layout_key(ordered)]
