"""End-to-end integration tests across the whole stack.

These exercise the flows the paper describes: detect objects, populate the
semantic index, pick layouts, physically re-tile, answer queries, persist the
tiled representation, and adapt layouts over a query sequence — verifying at
each step that the *content* returned to the query processor is correct, not
just that the plumbing holds together.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.policies import IncrementalRegretPolicy, NoTilingPolicy
from repro.core.query import Query, Workload
from repro.core.tasm import TASM
from repro.core.predicates import TemporalPredicate
from repro.detection import SimulatedYoloV3
from repro.storage.files import read_tiled_video, write_tiled_video
from repro.video.quality import psnr
from repro.workloads import WorkloadRunner
from repro.workloads import runner as runner_module
from repro.workloads.runner import MeasuredEngine
from tests.conftest import build_tiny_video, crop


class TestDetectIndexTileQuery:
    def test_full_pipeline_with_simulated_detector(self, config, tiny_video):
        """Detector -> index -> KQKO tiling -> scan returns the right pixels."""
        tasm = TASM(config=config)
        tasm.ingest(tiny_video)

        detector = SimulatedYoloV3()
        detections = detector.detect_range(tiny_video).detections
        tasm.add_detections(tiny_video.name, detections)

        workload = Workload.from_queries("cars", [Query.select("car", tiny_video.name)])
        chosen = tasm.optimize_for_workload(tiny_video.name, workload)
        assert chosen, "the sparse car should make tiling worthwhile"

        result = tasm.scan(tiny_video.name, "car")
        assert not result.is_empty()
        # Every returned region's pixels match the source frame content.
        for region in result.regions:
            original = crop(tiny_video.frame(region.frame_index), region.region)
            assert psnr(original, region.pixels) > 25.0

        # Tiling must never lose requested pixels relative to the untiled scan.
        untiled = TASM(config=config)
        untiled.ingest(build_tiny_video())
        untiled.add_detections(tiny_video.name, detections)
        reference = untiled.scan(tiny_video.name, "car")
        assert result.returned_pixels == reference.returned_pixels
        assert result.pixels_decoded < reference.pixels_decoded

    def test_scan_after_multiple_retiles_of_same_sot(self, config, tiny_video):
        """Re-tiling the same SOT repeatedly (as incremental strategies do) stays correct."""
        tasm = TASM(config=config)
        tasm.ingest(tiny_video)
        detections = [
            d for f in range(tiny_video.frame_count) for d in tiny_video.ground_truth(f)
        ]
        tasm.add_detections(tiny_video.name, detections)

        for objects in (["car"], ["person"], ["car", "person"]):
            layout = tasm.layout_around(tiny_video.name, 0, objects)
            tasm.retile_sot(tiny_video.name, 0, layout)
            result = tasm.scan(tiny_video.name, "car", TemporalPredicate.between(0, 5))
            for region in result.regions:
                original = crop(tiny_video.frame(region.frame_index), region.region)
                assert psnr(original, region.pixels) > 25.0


class TestPersistenceRoundTrip:
    def test_tiled_video_survives_disk_round_trip_and_answers_queries(
        self, config, tiny_video, tmp_path
    ):
        tasm = TASM(config=config)
        tasm.ingest(tiny_video)
        detections = [
            d for f in range(tiny_video.frame_count) for d in tiny_video.ground_truth(f)
        ]
        tasm.add_detections(tiny_video.name, detections)
        tasm.optimize_for_workload(
            tiny_video.name,
            Workload.from_queries("cars", [Query.select("car", tiny_video.name)]),
        )
        before = tasm.scan(tiny_video.name, "car")

        tiled = tasm.video(tiny_video.name)
        tiled.materialise_all()
        write_tiled_video(tiled, tmp_path)

        # A brand new TASM instance picks up the stored physical layout.
        fresh_video = build_tiny_video()
        restored = read_tiled_video(fresh_video, tmp_path, config)
        fresh_tasm = TASM(config=config)
        fresh_tasm._videos[fresh_video.name] = restored  # load the stored form directly
        fresh_tasm.add_detections(fresh_video.name, detections)
        after = fresh_tasm.scan(fresh_video.name, "car")

        assert after.pixels_decoded == before.pixels_decoded
        assert after.returned_pixels == before.returned_pixels
        for region_before, region_after in zip(before.regions, after.regions):
            np.testing.assert_array_equal(region_before.pixels, region_after.pixels)


class TestIndexWriteOrder:
    """Scans do not depend on the order boxes reach the semantic index in.

    The index keeps each (video, label) list sorted by frame, with equal
    frames in write order.  The same boxes written in frame order as one bulk
    write, box by box over the frames in reverse, or frame by frame in a
    shuffled frame order (each frame's boxes in their own order) make the
    same lists, so every scan and batch returns the same regions in the same
    order with the same pixels.  Every box is indexed twice: duplicate
    (video, label, frame) keys stress the tie order.
    """

    @staticmethod
    def _build(config, order: str):
        video = build_tiny_video()
        tasm = TASM(config=config)
        tasm.ingest(video)
        frames = list(range(video.frame_count))
        if order == "bulk":
            detections = [d for f in frames for d in video.ground_truth(f)]
            tasm.add_detections(video.name, detections)
            tasm.add_detections(video.name, detections)
        elif order == "reversed_box_by_box":
            for frame in reversed(frames):
                for d in video.ground_truth(frame) * 2:
                    box = d.box
                    tasm.add_metadata(
                        video.name, frame, d.label, box.x1, box.y1, box.x2, box.y2, d.confidence
                    )
        else:
            for frame in random.Random(5).sample(frames, len(frames)):
                tasm.add_detections(video.name, video.ground_truth(frame))
                tasm.add_detections(video.name, video.ground_truth(frame))
        return tasm, video

    @pytest.mark.parametrize("order", ["reversed_box_by_box", "shuffled_frames"])
    def test_scan_results_identical_across_write_orders(self, config, order):
        tasms = {}
        for built in ("bulk", order):
            tasm, video = self._build(config, built)
            workload = Workload.from_queries("cars", [Query.select("car", video.name)])
            tasm.optimize_for_workload(video.name, workload)
            tasms[built] = tasm
        for label in ("car", "person", "sign"):
            assert tasms["bulk"].semantic_index.lookup(video.name, label) == tasms[
                order
            ].semantic_index.lookup(video.name, label)

        scans = [
            ("car", None),
            ("person", None),
            ("sign", TemporalPredicate.between(2, 9)),
            (["car", "person"], None),
        ]
        for predicate, temporal in scans:
            bulk_result = tasms["bulk"].scan(video.name, predicate, temporal)
            other_result = tasms[order].scan(video.name, predicate, temporal)
            assert not bulk_result.is_empty()
            assert bulk_result.pixels_decoded == other_result.pixels_decoded
            assert len(bulk_result.regions) == len(other_result.regions)
            for ours, theirs in zip(bulk_result.regions, other_result.regions):
                assert ours.frame_index == theirs.frame_index
                assert ours.region == theirs.region
                np.testing.assert_array_equal(ours.pixels, theirs.pixels)

    @pytest.mark.parametrize("order", ["reversed_box_by_box", "shuffled_frames"])
    def test_batched_execution_identical_across_write_orders(self, config, order):
        batches = {}
        for built in ("bulk", order):
            tasm, video = self._build(config, built)
            queries = [
                Query.select("car", video.name),
                Query.select_range("person", video.name, 0, 10),
                Query.select_any(["car", "sign"], video.name),
            ]
            batches[built] = tasm.execute_batch(queries)
        assert batches["bulk"].pixels_decoded == batches[order].pixels_decoded
        for ours, theirs in zip(batches["bulk"], batches[order]):
            assert len(ours.regions) == len(theirs.regions)
            for one, other in zip(ours.regions, theirs.regions):
                assert one.frame_index == other.frame_index
                assert one.region == other.region
                np.testing.assert_array_equal(one.pixels, other.pixels)


class CountedEngine(MeasuredEngine):
    """A measured run's engine that charges counted work, not seconds.

    Queries decode and re-tiles re-encode physically, as in any measured
    run, but a query costs its own ``ScanResult.stats`` P and T and a re-tile
    its R, both priced by the cost model — exact on any host, where a
    wall-clock total on a shared machine is not.
    """

    def execute_query(self, query: Query) -> float:
        stats = self.tasm.execute(query).stats
        return self.tasm.cost_model.cost(stats.pixels_decoded, stats.tiles_decoded)

    def retile(self, video_name: str, sot_index: int, layout) -> float:
        tiled = self.tasm.video(video_name)
        first, stop = tiled.frame_range(sot_index)
        charged = self.tasm.cost_model.retile_cost(
            tiled.stored_layout(sot_index), layout, stop - first
        )
        super().retile(video_name, sot_index, layout)
        return charged


@pytest.fixture
def counted_work(monkeypatch):
    """Measured runs charge counted work (:class:`CountedEngine`)."""
    monkeypatch.setattr(runner_module, "MeasuredEngine", CountedEngine)


class TestIncrementalAdaptation:
    def test_regret_strategy_converges_and_stays_correct(self, config, counted_work):
        """Over a repeated workload the regret policy re-tiles and ends up
        doing less decode work than not tiling, re-tiles included."""
        video = build_tiny_video(name="adaptive", width=256, height=192, frame_count=40)
        queries = [Query.select_range("car", video.name, 0, 20) for _ in range(30)]
        workload = Workload.from_queries("repeat", queries)
        runner = WorkloadRunner(config=config, mode="measured")
        results = runner.run_comparison(
            video, workload, strategies=[IncrementalRegretPolicy()], workload_id="adaptive"
        )
        regret = results["incremental-regret"]
        baseline = results["not-tiled"]
        assert sum(1 for cost in regret.retile_costs if cost > 0) >= 1
        assert regret.total_normalized() < baseline.total_normalized()

    def test_modelled_and_measured_agree_on_the_winner(self, config, counted_work):
        """The analytic engine and physical execution pick the same winner."""
        video = build_tiny_video(name="agreement", width=256, height=192, frame_count=40)
        queries = [Query.select_range("car", video.name, 0, 20) for _ in range(30)]
        workload = Workload.from_queries("repeat", queries)
        strategies = [NoTilingPolicy(), IncrementalRegretPolicy()]

        winners = {}
        for mode in ("modelled", "measured"):
            runner = WorkloadRunner(config=config, mode=mode)
            results = runner.run_comparison(video, workload, strategies=strategies)
            winners[mode] = min(results, key=lambda name: results[name].total_normalized())
        assert winners["modelled"] == winners["measured"] == "incremental-regret"
