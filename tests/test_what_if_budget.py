"""A clock-free budget for the what-if path (beside ``test_warm_path_budget``).

The regret policy asks every candidate layout of every touched SOT on every
query; ``ops_per_s`` cannot gate that on a noisy runner, counts can.  Between
two index writes to a SOT a what-if question has one answer, so over a W4 run
``partition_around_boxes`` runs at most once per distinct ``(SOT, object set)``
per index write to that SOT (62 runs against 486 ``layout_around`` calls on
the ledger's full-scale ``adaptive_retile``), and a query repeated with no
index write in between partitions nothing and costs nothing.
"""

from __future__ import annotations

from repro.core import tasm as tasm_module
from repro.core.cost import CostModel
from repro.core.policies import IncrementalRegretPolicy
from repro.core.query import Query
from repro.core.tasm import TASM

from tests.conftest import run_w4_on_smoke_road


class KeepsTheLayout:
    """A RetileExecutor that re-encodes nothing, so a repeated query sees the
    same current layout."""

    def retile(self, video_name, sot_index, layout) -> float:
        return 0.0


def test_w4_partitions_once_per_question_per_index_write(monkeypatch):
    calls = {"partition": 0, "estimate": 0, "layout_around": 0}
    distinct: set = set()
    partition, estimate, layout_around = (
        tasm_module.partition_around_boxes, CostModel.estimate_query_cost, TASM.layout_around
    )

    def counting_partition(*args, **kwargs):
        calls["partition"] += 1
        return partition(*args, **kwargs)

    def counting_estimate(self, *args, **kwargs):
        calls["estimate"] += 1
        return estimate(self, *args, **kwargs)

    def recording_layout_around(self, video_name, sot_index, objects, granularity=None):
        objects = frozenset(objects)
        frames = self.video(video_name).frame_range(sot_index)
        written = self.semantic_index.generation(video_name, *frames)
        calls["layout_around"] += 1
        distinct.add((sot_index, objects, granularity, written))
        return layout_around(self, video_name, sot_index, objects, granularity)

    monkeypatch.setattr(tasm_module, "partition_around_boxes", counting_partition)
    monkeypatch.setattr(CostModel, "estimate_query_cost", counting_estimate)
    monkeypatch.setattr(TASM, "layout_around", recording_layout_around)

    tasm, video = run_w4_on_smoke_road()
    assert len(tasm.video(video.name).retile_history) == 4  # the run did re-tile
    assert 0 < calls["partition"] <= len(distinct)
    assert calls["layout_around"] > 5 * calls["partition"]  # most questions repeat

    # The same query twice more, nothing written in between: all from the memo.
    policy = IncrementalRegretPolicy()
    query = Query.select_range("car", video.name, 0, 8)
    policy.on_query(tasm, KeepsTheLayout(), video.name, query)
    calls.update(partition=0, estimate=0, layout_around=0)
    policy.on_query(tasm, KeepsTheLayout(), video.name, query)
    assert calls["layout_around"] > 0
    assert (calls["partition"], calls["estimate"]) == (0, 0)
