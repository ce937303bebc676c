"""Batched, cache-aware execution versus the paper's one-query-at-a-time path.

The paper executes every ``Scan`` in isolation, so a Figure 11-style workload
that keeps asking about the same objects re-decodes the same tiles from
scratch on every query.  This benchmark runs such a repeated-query workload
three ways and compares the total decoded pixels (the paper's P, the quantity
its cost model says dominates decode time):

* **sequential / seed path** — each query scanned on its own, decode cache
  disabled (byte-for-byte the paper's execution model);
* **batched** — the whole workload through ``execute_batch`` on a TASM with
  no cache, which decodes each needed tile bitstream at most once per batch and serves each SOT's queries from that SOT's warm;
* **batched + persistent cache** — the same batch against a TASM whose
  ``decode_cache_bytes`` cache also survives across batches, the serving
  configuration for heavy repeated traffic.

The batched paths must decode strictly fewer pixels than the sequential path
while returning identical regions, and must report a non-zero cache hit rate.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import format_table, prepare_tasm
from repro.core.query import Query
from repro.datasets import visual_road_scene

from _bench_utils import emit_bench, print_section

#: Decoded bytes kept by the persistent-cache configuration (64 MiB).
CACHE_BYTES = 64 * 1024 * 1024


def _video():
    return visual_road_scene(
        "batch-cache-road", duration_seconds=8.0, frame_rate=10, seed=811
    )


def _workload(video) -> list[Query]:
    """A repeated-query workload: hot objects asked about again and again."""
    queries: list[Query] = []
    frame_count = video.frame_count
    for round_index in range(4):
        queries.append(Query.select("car", video.name))
        queries.append(Query.select_range("car", video.name, 0, frame_count // 2))
        queries.append(Query.select("person", video.name))
        queries.append(
            Query.select_range(
                "person", video.name, frame_count // 4, 3 * frame_count // 4
            )
        )
    return queries


@pytest.fixture(scope="module")
def comparison(config):
    video = _video()
    queries = _workload(video)

    sequential_tasm = prepare_tasm(video, config)
    sequential_results = [sequential_tasm.execute(query) for query in queries]
    sequential_pixels = sum(result.pixels_decoded for result in sequential_results)
    sequential_tiles = sum(result.tiles_decoded for result in sequential_results)

    batch_tasm = prepare_tasm(_video(), config)
    batch = batch_tasm.execute_batch(queries)

    cached_config = replace(config, decode_cache_bytes=CACHE_BYTES)
    cached_tasm = prepare_tasm(_video(), cached_config)
    cached_first = cached_tasm.execute_batch(queries)
    cached_repeat = cached_tasm.execute_batch(queries)

    return {
        "queries": queries,
        "sequential_results": sequential_results,
        "sequential_pixels": sequential_pixels,
        "sequential_tiles": sequential_tiles,
        "batch": batch,
        "cached_first": cached_first,
        "cached_repeat": cached_repeat,
    }


def test_batched_execution_decodes_fewer_pixels(benchmark, comparison, config):
    video = _video()
    queries = _workload(video)
    bench_tasm = prepare_tasm(video, replace(config, decode_cache_bytes=CACHE_BYTES))
    benchmark(lambda: bench_tasm.execute_batch(queries))

    sequential_pixels = comparison["sequential_pixels"]
    batch = comparison["batch"]
    cached_first = comparison["cached_first"]
    cached_repeat = comparison["cached_repeat"]

    rows = [
        {
            "execution": "sequential (seed path)",
            "pixels_decoded": sequential_pixels,
            "tiles_decoded": comparison["sequential_tiles"],
            "cache_hit_rate": 0.0,
            "pixels_vs_seed": 1.0,
        }
    ]
    for name, result in (
        ("batched, no cache", batch),
        ("batched, persistent cache (cold)", cached_first),
        ("batched, persistent cache (warm)", cached_repeat),
    ):
        rows.append(
            {
                "execution": name,
                "pixels_decoded": result.pixels_decoded,
                "tiles_decoded": result.tiles_decoded,
                "cache_hit_rate": round(result.cache_hit_rate, 3),
                "pixels_vs_seed": round(
                    result.pixels_decoded / sequential_pixels, 4
                ),
            }
        )

    print_section(
        "Batched + cached execution vs sequential seed path "
        f"({len(comparison['queries'])} repeated queries)"
    )
    print(format_table(rows))
    emit_bench("batch_cache", "decoded_pixels", rows)

    # The batched path decodes strictly fewer pixels and actually hits.
    assert batch.pixels_decoded < sequential_pixels
    assert batch.cache_hit_rate > 0.0
    assert cached_first.pixels_decoded < sequential_pixels
    # A warm persistent cache eliminates decode work entirely.
    assert cached_repeat.pixels_decoded == 0
    assert cached_repeat.cache_hit_rate == 1.0


def test_batched_results_identical_to_sequential(comparison):
    """The savings cost nothing: batched regions match sequential bytes."""
    for batched, sequential in zip(
        comparison["batch"], comparison["sequential_results"]
    ):
        assert len(batched.regions) == len(sequential.regions)
        for ours, theirs in zip(batched.regions, sequential.regions):
            assert ours.frame_index == theirs.frame_index
            assert ours.region == theirs.region
            np.testing.assert_array_equal(ours.pixels, theirs.pixels)
