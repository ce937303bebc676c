"""One policy instance over several videos: each video's SOTs keep their own
state, so interleaving two videos' queries re-tiles each video exactly as
running it alone does.

Both incremental policies used to key their per-SOT state by the SOT index
alone.  Over two copies of the smoke road scene driven step by step, the
regret policy summed both videos' regret into one ledger per SOT index (each
video alone re-tiles SOT 0 to 3x3, 2x4, then 2x3; interleaved, ``a`` went
3x3, 2x3, 3x3 and ``b`` 2x4, 2x3), and the "more" policy, having seen a
class on one video's SOT, never re-tiled the other's (four re-tiles of ``a``
alone, none of ``b`` interleaved).
"""

from __future__ import annotations

import pytest

from repro.config import CodecConfig, TasmConfig
from repro.core.policies import IncrementalMorePolicy, IncrementalRegretPolicy
from repro.core.tasm import TASM
from repro.datasets import visual_road_scene
from repro.workloads import workload_4
from repro.workloads.runner import MeasuredEngine

STEPS = 240


def w4_retiles(names: tuple[str, ...], policy) -> dict[str, list]:
    """W4 over a copy of the smoke road scene per name, in one TASM under one
    policy, the videos' steps interleaved; each step indexes the frames it is
    first to see, then lets the policy re-tile.  Returns each video's
    re-tiles as ``(SOT, layout)``, in order."""
    tasm = TASM(TasmConfig(codec=CodecConfig(gop_frames=10, frame_rate=10)))
    engine = MeasuredEngine(tasm)
    runs = []
    for name in names:
        video = visual_road_scene(name, "2K", 2.0, frame_rate=10, seed=101)
        tasm.ingest(video).materialise_all()
        runs.append((video, list(workload_4(video, query_count=STEPS).workload), set()))
    for step in range(STEPS):
        for video, queries, seen in runs:
            window = range(*queries[step].temporal.resolve(video.frame_count))
            fresh = [d for f in window if f not in seen for d in video.ground_truth(f)]
            seen.update(window)
            if fresh:
                tasm.add_detections(video.name, fresh)
            policy.on_query(tasm, engine, video.name, queries[step])
    return {
        name: [(record.sot_index, record.layout) for record in tasm.video(name).retile_history]
        for name in names
    }


@pytest.mark.parametrize("policy_type", [IncrementalRegretPolicy, IncrementalMorePolicy])
def test_interleaved_videos_retile_as_each_does_alone(policy_type):
    alone = {name: w4_retiles((name,), policy_type())[name] for name in ("a", "b")}
    assert alone["a"] == alone["b"] and alone["a"]  # two copies of one scene, re-tiled
    assert w4_retiles(("a", "b"), policy_type()) == alone
