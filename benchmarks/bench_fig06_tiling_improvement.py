"""Figure 6 — best uniform vs best non-uniform layouts: query time and quality.

For each (video, query object) pair the paper hand-picks the best uniform and
the best non-uniform layout and reports (a) the improvement in query time
over the untiled video and (b) the PSNR of the tiled video.  The paper's
headline numbers: best uniform layouts improve decode time by ~37% on
average, non-uniform by ~51% (up to 94%); uniform layouts average ~36 dB
PSNR, non-uniform ~40 dB, and a plain re-encode ~46 dB.

Expected shape here: non-uniform > uniform > 0 improvement, and
untiled-re-encode PSNR >= non-uniform PSNR >= best-uniform PSNR.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    apply_object_layout,
    apply_uniform_layout,
    format_table,
    improvement_over_untiled,
    measure_psnr,
    measure_query,
    modelled_improvement,
    prepare_tasm,
    summarize_improvements,
)
from repro.datasets import netflix_public_scene, visual_road_scene, xiph_scene

from _bench_utils import emit_bench, print_section

_UNIFORM_GRIDS = [(2, 2), (3, 3), (4, 4), (5, 5)]
_PSNR_FRAMES = 20


def _videos():
    return [
        (visual_road_scene("fig6-visual-road", duration_seconds=8.0, frame_rate=10, seed=101), "car"),
        (xiph_scene("fig6-xiph-crossing", style="crossing", duration_seconds=8.0, seed=311), "car"),
        (netflix_public_scene("fig6-birds", primary_object="bird", duration_seconds=6.0, seed=211), "bird"),
    ]


def _measure_video(video, label, config):
    untiled_tasm = prepare_tasm(video, config)
    untiled = measure_query(untiled_tasm, video.name, label, "untiled")
    untiled_psnr = measure_psnr(untiled_tasm, video, max_frames=_PSNR_FRAMES)

    best_uniform = None
    best_uniform_psnr = None
    for rows, columns in _UNIFORM_GRIDS:
        tasm = prepare_tasm(video, config)
        apply_uniform_layout(tasm, video.name, rows, columns)
        measurement = measure_query(tasm, video.name, label, f"uniform {rows}x{columns}")
        if best_uniform is None or measurement.decode_seconds < best_uniform.decode_seconds:
            best_uniform = measurement
            best_uniform_psnr = measure_psnr(tasm, video, max_frames=_PSNR_FRAMES)

    non_uniform_tasm = prepare_tasm(video, config)
    apply_object_layout(non_uniform_tasm, video.name, [label])
    non_uniform = measure_query(non_uniform_tasm, video.name, label, f"non-uniform ({label})")
    non_uniform_psnr = measure_psnr(non_uniform_tasm, video, max_frames=_PSNR_FRAMES)

    return {
        "video": video.name,
        "object": label,
        "uniform_layout": best_uniform.layout_description,
        "uniform_improvement_%": improvement_over_untiled(untiled, best_uniform),
        "non_uniform_improvement_%": improvement_over_untiled(untiled, non_uniform),
        "uniform_work_improvement_%": modelled_improvement(untiled, best_uniform, config),
        "non_uniform_work_improvement_%": modelled_improvement(untiled, non_uniform, config),
        "untiled_psnr_db": untiled_psnr,
        "uniform_psnr_db": best_uniform_psnr,
        "non_uniform_psnr_db": non_uniform_psnr,
    }


@pytest.fixture(scope="module")
def figure6_rows(config):
    return [_measure_video(video, label, config) for video, label in _videos()]


def test_fig06_query_time_and_quality(benchmark, figure6_rows, config):
    # Benchmark the operation Figure 6 times: a single-object query against
    # the best non-uniform layout of the first video.
    video, label = _videos()[0]
    tasm = prepare_tasm(video, config)
    apply_object_layout(tasm, video.name, [label])
    tasm.video(video.name).materialise_all()
    benchmark(lambda: tasm.scan(video.name, label))

    print_section("Figure 6(a): improvement in query time over the untiled video")
    print(format_table(figure6_rows, columns=[
        "video", "object", "uniform_layout",
        "uniform_improvement_%", "non_uniform_improvement_%",
    ]))
    print_section("Figure 6(b): PSNR of the tiled videos (dB)")
    print(format_table(figure6_rows, columns=[
        "video", "untiled_psnr_db", "uniform_psnr_db", "non_uniform_psnr_db",
    ]))
    emit_bench("fig06_tiling_improvement", "figure6", figure6_rows)

    uniform = summarize_improvements([row["uniform_work_improvement_%"] for row in figure6_rows])
    non_uniform = summarize_improvements([row["non_uniform_work_improvement_%"] for row in figure6_rows])
    print(f"\nmedian uniform improvement:     {uniform['median']:.1f}%  (paper: ~37% average)")
    print(f"median non-uniform improvement: {non_uniform['median']:.1f}%  (paper: ~51% average)")

    # Shape assertions (on the deterministic decode-work improvements).
    for row in figure6_rows:
        assert row["uniform_work_improvement_%"] > 0
        assert row["non_uniform_work_improvement_%"] > 0
        assert row["non_uniform_psnr_db"] >= row["uniform_psnr_db"] - 0.5
        assert row["untiled_psnr_db"] >= row["non_uniform_psnr_db"] - 0.5
    assert non_uniform["median"] >= uniform["median"]
