"""Tests for workload generation and the workload runner."""

from __future__ import annotations

import pytest

from repro.core.policies import (
    IncrementalMorePolicy,
    IncrementalRegretPolicy,
    NoTilingPolicy,
    PreTileAllObjectsPolicy,
)
from repro.errors import WorkloadError
from repro.workloads import (
    MeasuredEngine,
    ModelledEngine,
    WorkloadRunner,
    all_workloads,
    default_strategies,
    workload_1,
    workload_2,
    workload_3,
    workload_4,
    workload_5,
    workload_6,
)
from repro.workloads.runner import StrategyRunResult
from tests.conftest import build_tiny_video


@pytest.fixture
def sparse_video():
    return build_tiny_video(name="sparse-workload-video", frame_count=30)


class TestWorkloadGenerators:
    def test_workload_1_targets_only_cars(self, sparse_video):
        spec = workload_1(sparse_video, query_count=20)
        assert spec.workload_id == "W1"
        assert spec.query_count == 20
        assert spec.workload.objects == {"car"}
        for query in spec.workload:
            start, stop = query.temporal.resolve(sparse_video.frame_count)
            assert 0 <= start < stop <= sparse_video.frame_count

    def test_workload_2_restricted_to_prefix(self, sparse_video):
        spec = workload_2(sparse_video, query_count=20, restricted_fraction=0.25)
        limit = int(sparse_video.frame_count * 0.25) + int(sparse_video.frame_count * 0.1) + 1
        assert spec.workload.objects <= {"car", "person"}
        for query in spec.workload:
            start, stop = query.temporal.resolve(sparse_video.frame_count)
            assert stop <= limit

    def test_workload_3_includes_rare_object(self, sparse_video):
        spec = workload_3(sparse_video, query_count=200, rare_label="traffic light")
        labels = [next(iter(query.objects)) for query in spec.workload]
        rare_fraction = labels.count("traffic light") / len(labels)
        assert 0.0 < rare_fraction < 0.15
        assert labels.count("car") > labels.count("traffic light")

    def test_workload_3_starts_biased_to_beginning(self, sparse_video):
        spec = workload_3(sparse_video, query_count=200)
        starts = [query.temporal.resolve(sparse_video.frame_count)[0] for query in spec.workload]
        first_half = sum(1 for start in starts if start < sparse_video.frame_count / 2)
        assert first_half > len(starts) * 0.6

    def test_workload_4_object_changes_over_time(self, sparse_video):
        spec = workload_4(sparse_video, query_count=30)
        labels = [next(iter(query.objects)) for query in spec.workload]
        assert set(labels[:10]) == {"car"}
        assert set(labels[10:20]) == {"person"}
        assert set(labels[20:]) == {"car"}

    def test_workload_5_uses_video_labels(self, dense_video):
        spec = workload_5(dense_video, query_count=15)
        assert spec.workload.objects <= dense_video.labels()

    def test_workload_6_single_label(self, dense_video):
        spec = workload_6(dense_video, query_count=15)
        assert len(spec.workload.objects) == 1
        with pytest.raises(WorkloadError):
            workload_6(dense_video, label="submarine")

    def test_all_workloads_scaling(self, sparse_video, dense_video):
        specs = all_workloads(sparse_video, dense_video, query_count_scale=0.1)
        assert [spec.workload_id for spec in specs] == ["W1", "W2", "W3", "W4", "W5", "W6"]
        assert specs[0].query_count == 10
        assert specs[3].query_count == 20
        with pytest.raises(WorkloadError):
            all_workloads(sparse_video, dense_video, query_count_scale=0)

    def test_generators_are_deterministic(self, sparse_video):
        first = workload_1(sparse_video, query_count=10, seed=7)
        second = workload_1(sparse_video, query_count=10, seed=7)
        assert [q.temporal.frame_start for q in first.workload] == [
            q.temporal.frame_start for q in second.workload
        ]


class TestStrategyRunResult:
    def make_result(self) -> StrategyRunResult:
        return StrategyRunResult(
            strategy="test",
            video="v",
            workload_id="W0",
            query_costs=[1.0, 0.5, 0.5],
            retile_costs=[0.5, 0.0, 0.0],
            baseline_costs=[1.0, 1.0, 1.0],
        )

    def test_normalized_increments(self):
        result = self.make_result()
        assert result.normalized_increments() == [1.5, 0.5, 0.5]

    def test_cumulative_series_and_total(self):
        result = self.make_result()
        assert result.cumulative_normalized() == [1.5, 2.0, 2.5]
        assert result.total_normalized() == 2.5

    def test_zero_baseline_does_not_divide_by_zero(self):
        result = StrategyRunResult(
            strategy="s", video="v", workload_id="w",
            query_costs=[2.0], retile_costs=[0.0], baseline_costs=[0.0],
        )
        assert result.normalized_increments() == [2.0]


class TestWorkloadRunner:
    def test_invalid_mode_rejected(self, config):
        with pytest.raises(WorkloadError):
            WorkloadRunner(config=config, mode="imaginary")

    def test_not_tiled_baseline_is_the_diagonal(self, config, sparse_video):
        spec = workload_1(sparse_video, query_count=8)
        runner = WorkloadRunner(config=config, mode="modelled")
        results = runner.run_comparison(sparse_video, spec.workload, workload_id="W1")
        baseline = results["not-tiled"]
        assert baseline.total_normalized() == pytest.approx(len(spec.workload))
        series = baseline.cumulative_normalized()
        assert series == pytest.approx([float(i + 1) for i in range(len(spec.workload))])

    def test_comparison_includes_all_strategies(self, config, sparse_video):
        spec = workload_1(sparse_video, query_count=6)
        runner = WorkloadRunner(config=config, mode="modelled")
        results = runner.run_comparison(sparse_video, spec.workload)
        assert set(results) == {
            "not-tiled",
            "all-objects",
            "incremental-more",
            "incremental-regret",
        }
        for result in results.values():
            assert result.query_count == 6

    def test_repeated_queries_make_tiling_pay_off(self, config, sparse_video):
        """Queries that hammer the same SOTs should reward incremental tiling."""
        from repro.core.query import Query, Workload

        queries = [Query.select_range("car", sparse_video.name, 0, 10) for _ in range(25)]
        workload = Workload.from_queries("repeat", queries)
        runner = WorkloadRunner(config=config, mode="modelled")
        results = runner.run_comparison(
            sparse_video,
            workload,
            strategies=[IncrementalMorePolicy(), IncrementalRegretPolicy()],
        )
        assert results["incremental-more"].total_normalized() < results["not-tiled"].total_normalized()
        assert results["incremental-regret"].total_normalized() < results["not-tiled"].total_normalized()

    def test_upfront_cost_charged_to_first_query(self, config, sparse_video):
        spec = workload_1(sparse_video, query_count=5)
        runner = WorkloadRunner(config=config, mode="modelled")
        result = runner.run(
            sparse_video, spec.workload, NoTilingPolicy(), upfront_cost=7.5
        )
        assert result.retile_costs[0] == pytest.approx(7.5)
        assert all(cost == 0.0 for cost in result.retile_costs[1:])

    def test_measured_mode_runs_real_decodes(self, config, sparse_video):
        spec = workload_1(sparse_video, query_count=3, window_fraction=0.2)
        runner = WorkloadRunner(config=config, mode="measured")
        results = runner.run_comparison(
            sparse_video, spec.workload, strategies=[PreTileAllObjectsPolicy()]
        )
        assert results["not-tiled"].total_normalized() == pytest.approx(3.0)
        assert all(cost > 0 for cost in results["not-tiled"].query_costs)
        # Pre-tiling physically re-encoded at least part of the video.
        assert results["all-objects"].retile_costs[0] > 0

    def test_measured_not_tiled_run_is_its_own_baseline(self, config, sparse_video):
        """Measured costs are seconds, so they are normalised by measured
        seconds: with no ``baseline_costs`` a not-tiled run divides each
        query by itself, not by the cost model's ``beta*P + gamma*T`` units."""
        spec = workload_1(sparse_video, query_count=3, window_fraction=0.2)
        runner = WorkloadRunner(config=config, mode="measured")
        result = runner.run(sparse_video, spec.workload, NoTilingPolicy())
        assert result.normalized_increments() == [1.0, 1.0, 1.0]

    def test_measured_run_without_a_baseline_is_refused(self, config, sparse_video):
        spec = workload_1(sparse_video, query_count=3, window_fraction=0.2)
        runner = WorkloadRunner(config=config, mode="measured")
        with pytest.raises(WorkloadError, match="run_comparison"):
            runner.run(sparse_video, spec.workload, PreTileAllObjectsPolicy())

    def test_default_strategies_match_figure_11(self):
        names = [strategy.name for strategy in default_strategies()]
        assert names == ["not-tiled", "all-objects", "incremental-more", "incremental-regret"]


class TestEngines:
    def test_modelled_engine_costs_drop_after_retile(self, config, sparse_video):
        from repro.core.query import Query
        from repro.core.tasm import TASM

        tasm = TASM(config=config)
        tasm.ingest(sparse_video)
        detections = [
            d for f in range(sparse_video.frame_count) for d in sparse_video.ground_truth(f)
        ]
        tasm.add_detections(sparse_video.name, detections)
        engine = ModelledEngine(tasm)
        query = Query.select_range("car", sparse_video.name, 0, 10)
        before = engine.execute_query(query)
        layout = tasm.layout_around(sparse_video.name, 0, ["car"])
        charged = engine.retile(sparse_video.name, 0, layout)
        after = engine.execute_query(query)
        assert charged > 0
        assert after < before
        # The modelled engine never materialises encoded tiles.
        assert not tasm.video(sparse_video.name).is_materialised(0)

    def test_measured_engine_reports_wall_clock(self, config, sparse_video):
        from repro.core.query import Query
        from repro.core.tasm import TASM

        tasm = TASM(config=config)
        tasm.ingest(sparse_video)
        detections = [
            d for f in range(10) for d in sparse_video.ground_truth(f)
        ]
        tasm.add_detections(sparse_video.name, detections)
        engine = MeasuredEngine(tasm)
        query = Query.select_range("car", sparse_video.name, 0, 10)
        seconds = engine.execute_query(query)
        assert seconds > 0
        layout = tasm.layout_around(sparse_video.name, 0, ["car"])
        assert engine.retile(sparse_video.name, 0, layout) > 0
        assert tasm.video(sparse_video.name).is_materialised(0)
