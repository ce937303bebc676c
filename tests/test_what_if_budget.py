"""A clock-free budget for the what-if path (beside ``test_warm_path_budget``).

The regret policy asks every candidate layout of every touched SOT on every
query; ``ops_per_s`` cannot gate that on a noisy runner, counts can.  Between
two index writes to a SOT a what-if question has one answer, so over a W4 run
``partition_around_boxes`` runs at most once per distinct ``(SOT, object set)``
per index write to that SOT (62 runs against 486 ``layout_around`` calls on
the ledger's full-scale ``adaptive_retile``), and a query repeated with no
index write in between partitions nothing and costs nothing.  Nor does a query
whose window is new: costs are read off per-``(SOT, predicate, layout)``
tables, themselves made from the one index evaluation per ``(SOT, predicate)``
between two writes — 35 over the ledger's 75 steps, where every sliding window
used to bring its own.
"""

from __future__ import annotations

from repro.core import tasm as tasm_module
from repro.core.cost import CostModel
from repro.core.policies import IncrementalRegretPolicy
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.index.semantic_index import BTreeSemanticIndex
from repro.tiles.layout import TileLayout
from repro.tiles.partitioner import TileGranularity

from tests.conftest import run_w4_on_smoke_road


class KeepsTheLayout:
    """A RetileExecutor that re-encodes nothing, so a repeated query sees the
    same current layout."""

    def retile(self, video_name, sot_index, layout) -> float:
        return 0.0


def count_calls(monkeypatch) -> dict:
    """Count, from now on, what answering a what-if question can cost."""
    calls = dict.fromkeys(("partition", "tables", "evaluations", "lookups", "spans"), 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name, owner, attribute in (
        ("partition", tasm_module, "partition_around_boxes"),
        ("tables", CostModel, "sot_cost_table"),
        ("evaluations", TASM, "_regions_by_frame"),
        ("lookups", BTreeSemanticIndex, "lookup"),
        ("spans", TileLayout, "tile_span"),
    ):
        monkeypatch.setattr(owner, attribute, counting(name, getattr(owner, attribute)))
    return calls


def test_w4_partitions_once_per_question_per_index_write(monkeypatch):
    calls = count_calls(monkeypatch)
    calls["layout_around"] = 0
    distinct: set = set()
    layouts_around = TASM.layouts_around

    def recording_layouts_around(
        self, video_name, sot_index, object_sets, granularity=TileGranularity.FINE
    ):
        # Every layout question goes through here, ``layout_around``'s too.
        object_sets = [frozenset(objects) for objects in object_sets]
        frames = self.video(video_name).frame_range(sot_index)
        written = self.semantic_index.generation(video_name, *frames)
        calls["layout_around"] += len(object_sets)
        distinct.update((sot_index, objects, granularity, written) for objects in object_sets)
        return layouts_around(self, video_name, sot_index, object_sets, granularity)

    monkeypatch.setattr(TASM, "layouts_around", recording_layouts_around)

    tasm, video = run_w4_on_smoke_road()
    assert len(tasm.video(video.name).retile_history) == 3  # the run did re-tile
    assert 0 < calls["partition"] <= len(distinct)
    assert calls["layout_around"] > 5 * calls["partition"]  # most questions repeat

    # The same step twice more, nothing written in between: all from the memo.
    policy = IncrementalRegretPolicy()

    def step(start: int, stop: int) -> None:
        query = Query.select_range("car", video.name, start, stop)
        assert tasm.execute(query).regions
        policy.on_query(tasm, KeepsTheLayout(), video.name, query)

    step(0, 18)
    calls.update(dict.fromkeys(calls, 0))
    step(0, 18)
    assert calls["layout_around"] > 0
    counted = {name: count for name, count in calls.items() if name != "layout_around"}
    assert counted == dict.fromkeys(counted, 0)
    # And so are windows never asked about before, of SOTs that have been: one
    # cut by the SOT boundary, one inside a SOT.
    step(3, 14), step(11, 17)
    assert {name: calls[name] for name in counted} == counted


def test_w4_at_ledger_scale_evaluates_the_index_once_per_sot_predicate_and_write(monkeypatch):
    """The ledger's 75 ``adaptive_retile`` steps slide their windows over 20
    SOTs; what they ask the index is bounded by the (SOT, predicate) pairs
    between writes — 35 — not by the windows (454 before the frame tables)."""
    calls = count_calls(monkeypatch)
    tasm, video = run_w4_on_smoke_road(steps=75, road=("4K", 20.0))
    assert len(tasm.video(video.name).retile_history) == 5  # the ledger's trajectory
    assert 0 < calls["evaluations"] <= 60
