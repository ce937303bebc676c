"""Execute workloads under tiling strategies and account for costs.

The runner reproduces the accounting of Figure 11 / Table 2: for every query
it charges (a) the cost of decoding the pixels the query requests under the
video's *current* layout and (b) any re-tiling the strategy performs, then
normalises the cumulative sum so that executing each query over the untiled
video costs exactly 1 unit (making the "Not tiled" line the diagonal).

Two execution engines are provided:

* :class:`ModelledEngine` — costs come from the analytic cost model
  (``beta*P + gamma*T`` for decodes, ``CostModel.retile_cost`` for re-tiles)
  and re-tiling only updates the layout specification, so nothing is ever
  stored and a re-tile is charged the encode alone.  This is fast enough to
  run the full 100–200-query workloads and is what the Figure 11 / Table 2
  benchmarks use.
* :class:`MeasuredEngine` — queries are physically executed against the
  simulated codec and re-tiling physically re-encodes, so costs are
  wall-clock seconds.  Used on small videos to validate that the modelled
  results have the right shape (and by the cost-model fit benchmark).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from ..config import DEFAULT_CONFIG, TasmConfig
from ..core.policies import (
    IncrementalMorePolicy,
    IncrementalRegretPolicy,
    NoTilingPolicy,
    PreTileAllObjectsPolicy,
    TilingPolicy,
)
from ..core.query import Query, Workload
from ..core.tasm import TASM
from ..detection.base import Detection
from ..errors import WorkloadError
from ..tiles.layout import TileLayout
from ..video.synthetic import SyntheticVideo

__all__ = [
    "ExecutionEngine",
    "ModelledEngine",
    "MeasuredEngine",
    "StrategyRunResult",
    "WorkloadRunner",
    "default_strategies",
]


class ExecutionEngine(Protocol):
    """Executes queries and re-tiles SOTs, returning the cost of each action."""

    def execute_query(self, query: Query) -> float:
        ...

    def retile(self, video_name: str, sot_index: int, layout: TileLayout) -> float:
        ...


class ModelledEngine:
    """Analytic engine: costs from the cost model, no physical encoding."""

    def __init__(self, tasm: TASM):
        self.tasm = tasm

    def execute_query(self, query: Query) -> float:
        tiled = self.tasm.video(query.video)
        frame_start, frame_stop = query.temporal.resolve(tiled.video.frame_count)
        total = 0.0
        for sot_index in tiled.sots_for_frames(frame_start, frame_stop):
            total += self.tasm.estimate_sot_query_cost(query.video, sot_index, query).cost
        return total

    def untiled_query_cost(self, query: Query) -> float:
        tiled = self.tasm.video(query.video)
        frame_start, frame_stop = query.temporal.resolve(tiled.video.frame_count)
        total = 0.0
        for sot_index in tiled.sots_for_frames(frame_start, frame_stop):
            total += self.tasm.estimate_sot_query_cost(
                query.video, sot_index, query, tiled.untiled_layout
            ).cost
        return total

    def retile(self, video_name: str, sot_index: int, layout: TileLayout) -> float:
        tiled = self.tasm.video(video_name)
        frame_start, frame_stop = tiled.frame_range(sot_index)
        charged = self.tasm.cost_model.retile_cost(
            tiled.stored_layout(sot_index), layout, frame_stop - frame_start
        )
        # Update the logical layout only — the analytic engine never encodes.
        tiled.layout_spec.set_layout(sot_index, layout)
        return charged


class MeasuredEngine:
    """Physical engine: queries decode real tiles, re-tiling re-encodes them."""

    def __init__(self, tasm: TASM):
        self.tasm = tasm

    def execute_query(self, query: Query) -> float:
        result = self.tasm.execute(query)
        return result.total_seconds

    def retile(self, video_name: str, sot_index: int, layout: TileLayout) -> float:
        record = self.tasm.retile_sot(video_name, sot_index, layout)
        return record.encode_seconds


@dataclass
class StrategyRunResult:
    """Per-query cost trace of one (strategy, video, workload) run."""

    strategy: str
    video: str
    workload_id: str
    query_costs: list[float] = field(default_factory=list)
    retile_costs: list[float] = field(default_factory=list)
    baseline_costs: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def query_count(self) -> int:
        return len(self.query_costs)

    def normalized_increments(self) -> list[float]:
        """Per-query (decode + retile) cost, each divided by its untiled cost."""
        increments = []
        for decode, retile, baseline in zip(
            self.query_costs, self.retile_costs, self.baseline_costs, strict=True
        ):
            denominator = baseline if baseline > 0 else 1.0
            increments.append((decode + retile) / denominator)
        return increments

    def cumulative_normalized(self) -> list[float]:
        """The Figure 11 series: cumulative normalised decode + re-tiling time."""
        series = []
        running = 0.0
        for increment in self.normalized_increments():
            running += increment
            series.append(running)
        return series

    def total_normalized(self) -> float:
        """The Table 2 number: total normalised workload time."""
        series = self.cumulative_normalized()
        return series[-1] if series else 0.0


class WorkloadRunner:
    """Runs a workload under one or more tiling strategies."""

    def __init__(self, config: TasmConfig | None = None, mode: str = "modelled"):
        if mode not in ("modelled", "measured"):
            raise WorkloadError(f"unknown execution mode {mode!r}")
        self.config = config or DEFAULT_CONFIG
        self.mode = mode

    # ------------------------------------------------------------------
    # Single-strategy run
    # ------------------------------------------------------------------
    def run(
        self,
        video: SyntheticVideo,
        workload: Workload,
        strategy: TilingPolicy,
        workload_id: str = "",
        baseline_costs: list[float] | None = None,
        upfront_cost: float = 0.0,
        detect_upfront: bool | None = None,
    ) -> StrategyRunResult:
        """Execute ``workload`` under ``strategy`` on a fresh TASM instance.

        ``baseline_costs`` (per-query untiled costs) normalise the result.  When
        omitted, a modelled run computes them analytically and a measured
        not-tiled run is its own baseline; any other measured run has no
        untiled cost in seconds to divide by, so it raises
        :class:`WorkloadError` (``run_comparison`` supplies one).
        ``upfront_cost`` is charged to the first query (used for Figure 12's
        initial detection costs).
        ``detect_upfront`` controls whether the whole video's detections are
        indexed before the first query (default: yes for strategies that tile
        up front, no for incremental ones).
        """
        measured = self.mode == "measured"
        if measured and baseline_costs is None and not isinstance(strategy, NoTilingPolicy):
            raise WorkloadError(
                f"a measured {strategy.name!r} run is normalised by measured seconds: "
                "pass the not-tiled run's query_costs as baseline_costs, "
                "or use run_comparison"
            )
        started = time.perf_counter()
        tasm = TASM(config=self.config)
        tasm.ingest(video)
        engine: ExecutionEngine = MeasuredEngine(tasm) if measured else ModelledEngine(tasm)

        if detect_upfront is None:
            detect_upfront = isinstance(strategy, PreTileAllObjectsPolicy) or not isinstance(
                strategy, (NoTilingPolicy, IncrementalMorePolicy, IncrementalRegretPolicy)
            )
        detected_frames: set[int] = set()
        if detect_upfront:
            self._detect(tasm, video, 0, video.frame_count, detected_frames)

        result = StrategyRunResult(
            strategy=strategy.name, video=video.name, workload_id=workload_id
        )
        prepare_cost = strategy.prepare(tasm, engine, video.name, workload) + upfront_cost

        for position, query in enumerate(workload):
            frame_start, frame_stop = query.temporal.resolve(video.frame_count)
            self._detect(tasm, video, frame_start, frame_stop, detected_frames)

            decode_cost = engine.execute_query(query)
            retile_cost = strategy.on_query(tasm, engine, video.name, query)
            if position == 0:
                retile_cost += prepare_cost

            if baseline_costs is not None:
                baseline = baseline_costs[position]
            elif measured:
                # Not tiled: this decode is the untiled one, in seconds.
                baseline = decode_cost
            else:
                baseline = engine.untiled_query_cost(query)

            result.query_costs.append(decode_cost)
            result.retile_costs.append(retile_cost)
            result.baseline_costs.append(baseline)

        result.wall_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Multi-strategy comparison (the Figure 11 harness)
    # ------------------------------------------------------------------
    def run_comparison(
        self,
        video: SyntheticVideo,
        workload: Workload,
        strategies: Iterable[TilingPolicy] | None = None,
        workload_id: str = "",
        upfront_costs: dict[str, float] | None = None,
    ) -> dict[str, StrategyRunResult]:
        """Run every strategy on the same workload, normalised consistently.

        The not-tiled baseline runs first; its per-query costs become the
        normaliser for every strategy, so the "not tiled" cumulative series is
        exactly the diagonal, as in the paper's plots.
        """
        strategies = list(strategies) if strategies is not None else default_strategies()
        upfront_costs = upfront_costs or {}

        baseline_policy = NoTilingPolicy()
        baseline_run = self.run(
            video,
            workload,
            baseline_policy,
            workload_id=workload_id,
            upfront_cost=upfront_costs.get(baseline_policy.name, 0.0),
        )
        baseline_run.baseline_costs = list(baseline_run.query_costs)

        results = {baseline_policy.name: baseline_run}
        for strategy in strategies:
            if strategy.name == baseline_policy.name:
                continue
            results[strategy.name] = self.run(
                video,
                workload,
                strategy,
                workload_id=workload_id,
                baseline_costs=baseline_run.query_costs,
                upfront_cost=upfront_costs.get(strategy.name, 0.0),
            )
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _detect(
        tasm: TASM,
        video: SyntheticVideo,
        frame_start: int,
        frame_stop: int,
        detected_frames: set[int],
    ) -> None:
        """Populate the semantic index with ground truth for new frames.

        Detection cost is deliberately *not* charged here — Figure 11 reports
        decode plus re-tiling time only; Figure 12 adds detection costs via the
        ``upfront_cost`` hook instead.
        """
        new_detections: list[Detection] = []
        for frame_index in range(frame_start, min(frame_stop, video.frame_count)):
            if frame_index in detected_frames:
                continue
            detected_frames.add(frame_index)
            new_detections.extend(video.ground_truth(frame_index))
        if new_detections:
            tasm.add_detections(video.name, new_detections)


def default_strategies() -> list[TilingPolicy]:
    """The four strategies compared in Figure 11."""
    return [
        NoTilingPolicy(),
        PreTileAllObjectsPolicy(),
        IncrementalMorePolicy(),
        IncrementalRegretPolicy(),
    ]
