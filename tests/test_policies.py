"""Tests for the tiling strategies (repro.core.policies)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.cost import CostModel
from repro.core.policies import (
    IncrementalMorePolicy,
    IncrementalRegretPolicy,
    KnownWorkloadPolicy,
    NoTilingPolicy,
    PreTileAllObjectsPolicy,
)
from repro.core.query import Query, Workload
from repro.core.tasm import TASM
from repro.workloads.runner import ModelledEngine


def make_tasm(config, video) -> tuple[TASM, ModelledEngine]:
    tasm = TASM(config=config)
    tasm.ingest(video)
    detections = [
        detection
        for frame_index in range(video.frame_count)
        for detection in video.ground_truth(frame_index)
    ]
    tasm.add_detections(video.name, detections)
    return tasm, ModelledEngine(tasm)


def layouts_of(tasm: TASM, video_name: str) -> list[str]:
    tiled = tasm.video(video_name)
    return [tiled.layout_for(index).describe() for index in range(tiled.sot_count)]


class TestNoTiling:
    def test_never_retiles(self, config, tiny_video):
        tasm, engine = make_tasm(config, tiny_video)
        policy = NoTilingPolicy()
        workload = Workload.from_queries("w", [Query.select("car", tiny_video.name)])
        assert policy.prepare(tasm, engine, tiny_video.name, workload) == 0.0
        assert policy.on_query(tasm, engine, tiny_video.name, workload[0]) == 0.0
        assert all(layout == "untiled" for layout in layouts_of(tasm, tiny_video.name))


class TestPreTileAllObjects:
    def test_tiles_every_sot_up_front(self, config, tiny_video):
        tasm, engine = make_tasm(config, tiny_video)
        policy = PreTileAllObjectsPolicy()
        workload = Workload.from_queries("w", [Query.select("car", tiny_video.name)])
        cost = policy.prepare(tasm, engine, tiny_video.name, workload)
        assert cost > 0.0
        assert all(layout != "untiled" for layout in layouts_of(tasm, tiny_video.name))
        # Per-query hook does nothing further.
        assert policy.on_query(tasm, engine, tiny_video.name, workload[0]) == 0.0


class TestKnownWorkloadPolicy:
    def test_only_queried_sots_are_tiled(self, config, tiny_video):
        tasm, engine = make_tasm(config, tiny_video)
        policy = KnownWorkloadPolicy()
        workload = Workload.from_queries(
            "w", [Query.select_range("car", tiny_video.name, 0, 5)]
        )
        cost = policy.prepare(tasm, engine, tiny_video.name, workload)
        assert cost > 0.0
        layouts = layouts_of(tasm, tiny_video.name)
        assert layouts[0] != "untiled"
        assert layouts[1] == "untiled"
        assert layouts[2] == "untiled"


class TestIncrementalMore:
    def test_retiles_on_first_query_for_new_object(self, config, tiny_video):
        tasm, engine = make_tasm(config, tiny_video)
        policy = IncrementalMorePolicy()
        workload = Workload.from_queries("w", [])
        policy.prepare(tasm, engine, tiny_video.name, workload)

        first = Query.select_range("car", tiny_video.name, 0, 5)
        cost_first = policy.on_query(tasm, engine, tiny_video.name, first)
        assert cost_first > 0.0
        layout_after_first = tasm.video(tiny_video.name).layout_for(0)

        # The same query again introduces no new object class: no re-tiling.
        assert policy.on_query(tasm, engine, tiny_video.name, first) == 0.0

        # A query for a new class re-tiles around both classes.
        second = Query.select_range("person", tiny_video.name, 0, 5)
        cost_second = policy.on_query(tasm, engine, tiny_video.name, second)
        assert cost_second > 0.0
        assert tasm.video(tiny_video.name).layout_for(0) != layout_after_first

    def test_untouched_sots_stay_untiled(self, config, tiny_video):
        tasm, engine = make_tasm(config, tiny_video)
        policy = IncrementalMorePolicy()
        policy.prepare(tasm, engine, tiny_video.name, Workload.from_queries("w", []))
        policy.on_query(tasm, engine, tiny_video.name, Query.select_range("car", tiny_video.name, 0, 5))
        assert tasm.video(tiny_video.name).layout_for(2).is_untiled


class TestIncrementalRegret:
    def test_needs_repeated_queries_before_retiling(self, config, tiny_video):
        tasm, engine = make_tasm(config, tiny_video)
        policy = IncrementalRegretPolicy()
        policy.prepare(tasm, engine, tiny_video.name, Workload.from_queries("w", []))
        query = Query.select_range("car", tiny_video.name, 0, 5)

        charged = []
        for _ in range(12):
            charged.append(policy.on_query(tasm, engine, tiny_video.name, query))
            if charged[-1] > 0:
                break
        assert any(cost > 0 for cost in charged), "regret should eventually trigger a re-tile"
        assert charged[0] == 0.0, "a single query must not immediately trigger re-tiling"
        assert not tasm.video(tiny_video.name).layout_for(0).is_untiled

    def test_does_not_tile_dense_scenes(self, config, dense_video):
        tasm, engine = make_tasm(config, dense_video)
        policy = IncrementalRegretPolicy()
        policy.prepare(tasm, engine, dense_video.name, Workload.from_queries("w", []))
        query = Query.select("person", dense_video.name)
        for _ in range(15):
            policy.on_query(tasm, engine, dense_video.name, query)
        # The alpha rule blocks layouts that cannot skip enough pixels.
        assert all(
            tasm.video(dense_video.name).layout_for(index).is_untiled
            for index in range(tasm.video(dense_video.name).sot_count)
        )

    def test_eta_zero_retiles_immediately(self, config, tiny_video):
        eager_config = replace(config, eta=0.0)
        tasm, engine = make_tasm(eager_config, tiny_video)
        policy = IncrementalRegretPolicy()
        policy.prepare(tasm, engine, tiny_video.name, Workload.from_queries("w", []))
        query = Query.select_range("car", tiny_video.name, 0, 5)
        assert policy.on_query(tasm, engine, tiny_video.name, query) > 0.0

    def test_queries_for_nothing_accumulate_no_regret(self, config, tiny_video):
        tasm, engine = make_tasm(config, tiny_video)
        policy = IncrementalRegretPolicy()
        policy.prepare(tasm, engine, tiny_video.name, Workload.from_queries("w", []))
        query = Query.select("submarine", tiny_video.name)
        for _ in range(5):
            assert policy.on_query(tasm, engine, tiny_video.name, query) == 0.0

    def test_candidate_object_sets(self):
        subsets = IncrementalRegretPolicy._candidate_object_sets({"car", "person"})
        assert ("car",) in subsets
        assert ("person",) in subsets
        assert ("car", "person") in subsets
        assert IncrementalRegretPolicy._candidate_object_sets(set()) == []
        many = IncrementalRegretPolicy._candidate_object_sets({"a", "b", "c", "d", "e", "f"})
        assert ("a", "b", "c", "d", "e", "f") in many
        assert len(many) == 7  # six singletons plus the full set


class TestOneRetileCost:
    """The regret rule's threshold and the modelled engine's charge are both
    ``CostModel.retile_cost`` of the SOT as it is stored."""

    @staticmethod
    def scripted_retile_cost(monkeypatch, threshold: list) -> list:
        """Make every R ``threshold[0]``; returns the questions asked of it."""
        asked = []

        def scripted(self, current, new, frame_count):
            asked.append((current, new, frame_count))
            return threshold[0]

        monkeypatch.setattr(CostModel, "retile_cost", scripted)
        return asked

    def regret_after(self, config, video, queries: int, monkeypatch) -> float:
        """The regret of tiling SOT 0 around cars after ``queries`` car queries
        (R too high to ever re-tile)."""
        tasm, engine = make_tasm(config, video)
        self.scripted_retile_cost(monkeypatch, [float("inf")])
        policy = IncrementalRegretPolicy()
        policy.prepare(tasm, engine, video.name, Workload.from_queries("w", []))
        query = Query.select_range("car", video.name, 0, 5)
        for _ in range(queries):
            assert policy.on_query(tasm, engine, video.name, query) == 0.0
        return policy._regret.ensure_alternative((video.name, 0), ("car",)).regret

    @pytest.mark.parametrize("stored", [False, True])
    def test_the_threshold_is_retile_cost_of_the_stored_sot(
        self, config, tiny_video, monkeypatch, stored
    ):
        regret = self.regret_after(config, tiny_video, 2, monkeypatch)
        assert regret > 0
        # R just at the regret of two queries, then just under it: the second
        # query re-tiles exactly when its regret exceeds R.
        for threshold, retiles in ((regret, False), (regret * (1 - 1e-9), True)):
            tasm, engine = make_tasm(config, tiny_video)
            tiled = tasm.video(tiny_video.name)
            if stored:
                tiled.materialise_all()
            asked = self.scripted_retile_cost(monkeypatch, [threshold])
            policy = IncrementalRegretPolicy()
            policy.prepare(tasm, engine, tiny_video.name, Workload.from_queries("w", []))
            query = Query.select_range("car", tiny_video.name, 0, 5)
            assert policy.on_query(tasm, engine, tiny_video.name, query) == 0.0
            charged = policy.on_query(tasm, engine, tiny_video.name, query)
            assert (charged == threshold) is retiles
            assert tiled.layout_for(0).is_untiled is not retiles
            layout = tasm.layout_around(tiny_video.name, 0, ["car"])
            expected = (tiled.untiled_layout if stored else None, layout, 5)
            assert asked and set(asked) == {expected}

    def test_the_modelled_charge_is_retile_cost_of_the_stored_sot(self, config, tiny_video):
        tasm, engine = make_tasm(config, tiny_video)
        tiled, model = tasm.video(tiny_video.name), tasm.cost_model
        car = tasm.layout_around(tiny_video.name, 0, ["car"])
        # Never stored: the encode only.
        assert engine.retile(tiny_video.name, 0, car) == model.retile_cost(None, car, 5)
        # Stored untiled: the read of the untiled SOT on top.
        tiled.encoded_sot(1)
        car = tasm.layout_around(tiny_video.name, 1, ["car"])
        charged = engine.retile(tiny_video.name, 1, car)
        assert charged == model.retile_cost(tiled.untiled_layout, car, 5)
        assert charged > model.retile_cost(None, car, 5)
        assert tiled.layout_for(1) == car


class TestPolicyNames:
    @pytest.mark.parametrize(
        "policy, expected",
        [
            (NoTilingPolicy(), "not-tiled"),
            (PreTileAllObjectsPolicy(), "all-objects"),
            (KnownWorkloadPolicy(), "known-workload"),
            (IncrementalMorePolicy(), "incremental-more"),
            (IncrementalRegretPolicy(), "incremental-regret"),
        ],
    )
    def test_names_match_the_paper_labels(self, policy, expected):
        assert policy.name == expected
