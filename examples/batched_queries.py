"""Batched queries and the tile-decode cache.

Run with ``python examples/batched_queries.py``.

A video-analytics dashboard rarely asks one question: it fires a burst of
queries — several object classes, several time windows — over the same video,
and fires similar bursts again as users refresh.  Executed one at a time
(the paper's model), every query re-decodes the tiles it touches from
scratch.  This example shows the two layers TASM's execution engine adds:

1. ``execute_batch`` — the whole burst is planned together and every needed
   (GOP, tile) bitstream is decoded at most once per batch.
2. ``decode_cache_bytes`` — a persistent LRU cache of decoded tiles, so the
   *next* burst over the same video decodes (almost) nothing at all.
"""

from __future__ import annotations

from repro import CodecConfig, Query, TASM, TasmConfig
from repro.datasets import visual_road_scene


def build_tasm(config: TasmConfig):
    video = visual_road_scene(duration_seconds=12.0, frame_rate=10, seed=7)
    tasm = TASM(config=config)
    tasm.ingest(video)
    tasm.add_detections(
        video.name,
        [
            detection
            for frame_index in range(video.frame_count)
            for detection in video.ground_truth(frame_index)
        ],
    )
    return tasm, video


def dashboard_burst(video) -> list[Query]:
    """One dashboard refresh: mixed objects, overlapping time windows."""
    half = video.frame_count // 2
    return [
        Query.select("car", video.name),
        Query.select_range("car", video.name, 0, half),
        Query.select("person", video.name),
        Query.select_range("person", video.name, half // 2, video.frame_count),
        Query.select_any(["car", "person"], video.name),
    ]


def main() -> None:
    codec = CodecConfig(gop_frames=10, frame_rate=10)
    config = TasmConfig(codec=codec, decode_cache_bytes=64 * 1024 * 1024)

    tasm, video = build_tasm(config)
    queries = dashboard_burst(video)

    # The seed path: every query in isolation, no sharing.  (A TASM without
    # decode_cache_bytes configured scans exactly like the paper.)
    sequential_tasm, _ = build_tasm(TasmConfig(codec=codec))
    sequential_pixels = sum(
        sequential_tasm.execute(query).pixels_decoded for query in queries
    )
    print(f"sequential execution: {sequential_pixels:>12,} pixels decoded")

    # The same burst, batched: shared tiles are decoded once.
    batch = tasm.execute_batch(queries)
    print(
        f"batched execution:    {batch.pixels_decoded:>12,} pixels decoded "
        f"(cache hit rate {batch.cache_hit_rate:.0%}, "
        f"{batch.pixels_served_from_cache:,} pixels served from cache)"
    )

    # The dashboard refreshes: the persistent cache is already warm.
    refresh = tasm.execute_batch(queries)
    print(
        f"refreshed burst:      {refresh.pixels_decoded:>12,} pixels decoded "
        f"(cache hit rate {refresh.cache_hit_rate:.0%})"
    )

    # Re-tiling invalidates only the SOTs it touches — the cache can never
    # serve pixels from a superseded encoding — and hands the cache what its
    # encoder reconstructed of the area that was resident, under the new
    # tiles' checksums, so the burst does not decode the new tiles either.
    layout = tasm.layout_around(video.name, 0, ["car"])
    tasm.retile_sot(video.name, 0, layout)
    after_retile = tasm.execute_batch(queries)
    print(
        f"after re-tiling SOT 0: {after_retile.pixels_decoded:>11,} pixels decoded "
        f"(the new layout's tiles were handed over; everything else still cached)"
    )

    per_query = [result.returned_pixels for result in batch]
    print(f"returned pixels per query: {per_query}")


if __name__ == "__main__":
    main()
