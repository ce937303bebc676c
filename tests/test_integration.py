"""End-to-end integration tests across the whole stack.

These exercise the flows the paper describes: detect objects, populate the
semantic index, pick layouts, physically re-tile, answer queries, persist the
tiled representation, and adapt layouts over a query sequence — verifying at
each step that the *content* returned to the query processor is correct, not
just that the plumbing holds together.
"""

from __future__ import annotations

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
        fresh_tasm.catalog._videos[fresh_video.name] = restored  # direct catalog load
        fresh_tasm.add_detections(fresh_video.name, detections)
        after = fresh_tasm.scan(fresh_video.name, "car")

        assert after.pixels_decoded == before.pixels_decoded
        assert after.returned_pixels == before.returned_pixels
        for region_before, region_after in zip(before.regions, after.regions):
            np.testing.assert_array_equal(region_before.pixels, region_after.pixels)


class TestIndexBackendParity:
    """The B-tree and SQLite semantic indexes must be observably identical.

    The same detect -> index -> tile -> query workload runs under both
    ``index_backend`` choices, including duplicate (video, label, frame) keys
    whose tie order is where backends most easily diverge; every scan must
    return the same regions in the same order with the same pixels.
    """

    @staticmethod
    def _build(config, backend: str):
        video = build_tiny_video()
        tasm = TASM(config=config, index_backend=backend)
        tasm.ingest(video)
        detections = [
            d for f in range(video.frame_count) for d in video.ground_truth(f)
        ]
        # Index every box twice: duplicate keys stress duplicate-entry order.
        tasm.add_detections(video.name, detections)
        tasm.add_detections(video.name, detections)
        return tasm, video

    def test_scan_results_identical_across_backends(self, config):
        tasms = {}
        for backend in ("btree", "sqlite"):
            tasm, video = self._build(config, backend)
            workload = Workload.from_queries(
                "cars", [Query.select("car", video.name)]
            )
            tasm.optimize_for_workload(video.name, workload)
            tasms[backend] = tasm

        scans = [
            ("car", None),
            ("person", None),
            ("sign", TemporalPredicate.between(2, 9)),
            (["car", "person"], None),
        ]
        for predicate, temporal in scans:
            btree_result = tasms["btree"].scan(video.name, predicate, temporal)
            sqlite_result = tasms["sqlite"].scan(video.name, predicate, temporal)
            assert not btree_result.is_empty()
            assert btree_result.pixels_decoded == sqlite_result.pixels_decoded
            assert len(btree_result.regions) == len(sqlite_result.regions)
            for ours, theirs in zip(btree_result.regions, sqlite_result.regions):
                assert ours.frame_index == theirs.frame_index
                assert ours.region == theirs.region
                np.testing.assert_array_equal(ours.pixels, theirs.pixels)

    def test_batched_execution_identical_across_backends(self, config):
        batches = {}
        for backend in ("btree", "sqlite"):
            tasm, video = self._build(config, backend)
            queries = [
                Query.select("car", video.name),
                Query.select_range("person", video.name, 0, 10),
                Query.select_any(["car", "sign"], video.name),
            ]
            batches[backend] = tasm.execute_batch(queries)
        assert batches["btree"].pixels_decoded == batches["sqlite"].pixels_decoded
        for ours, theirs in zip(batches["btree"], batches["sqlite"]):
            assert len(ours.regions) == len(theirs.regions)
            for one, other in zip(ours.regions, theirs.regions):
                assert one.frame_index == other.frame_index
                assert one.region == other.region
                np.testing.assert_array_equal(one.pixels, other.pixels)


class TestIncrementalAdaptation:
    def test_regret_strategy_converges_and_stays_correct(self, config):
        """Over a repeated workload the regret policy re-tiles and ends up cheaper.

        The video is large enough that decode savings clearly dominate both
        re-encoding cost and wall-clock measurement noise.
        """
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

    def test_modelled_and_measured_agree_on_the_winner(self, config):
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
