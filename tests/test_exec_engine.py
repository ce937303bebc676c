"""Tests for the batched, cache-aware execution engine (``repro.exec``).

The engine's contract is behavioural equivalence: for any workload,
``execute_batch`` must hand back byte-identical ``ScanRegion``s to sequential
``scan()`` calls — under a cold cache, a warm cache, and a cache small enough
to thrash — while decoding strictly less (or equal) work than the sequential
path.  Re-tiling must invalidate the re-encoded SOT's cached tiles, and batch
accounting must never double-count a tile that serves several queries.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.config import TasmConfig
from repro.core.predicates import TemporalPredicate
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.exec import TileDecodeCache, TileKey
from repro.tiles.layout import uniform_layout
from tests.conftest import build_tiny_video

LABELS = ("car", "person", "sign")


def make_tasm(config: TasmConfig, cache_bytes: int = 0) -> tuple[TASM, object]:
    """A TASM over the tiny scene with ground-truth boxes indexed."""
    if cache_bytes:
        config = replace(config, decode_cache_bytes=cache_bytes)
    video = build_tiny_video()
    tasm = TASM(config=config)
    tasm.ingest(video)
    detections = [
        detection
        for frame in range(video.frame_count)
        for detection in video.ground_truth(frame)
    ]
    tasm.add_detections(video.name, detections)
    return tasm, video


def keys_for_sot(cache: TileDecodeCache, scope: str, sot_index: int) -> list[TileKey]:
    """Keys currently cached for one SOT (a test probe into the cache)."""
    with cache._lock:
        return [key for key in cache._entries if key[0] == scope and key[1] == sot_index]


def assert_read_only_pixels(pixels: np.ndarray) -> None:
    """What a caller may do with a result's pixels: read them and copy them.
    Writing into them raises, making them writable again raises, and
    ``np.array`` gives a writable copy of the same bytes."""
    with pytest.raises(ValueError):
        pixels[...] = 0
    with pytest.raises(ValueError):
        pixels.flags.writeable = True
    copy = np.array(pixels)
    assert copy.flags.writeable and copy.flags.owndata
    assert copy.size == 0 or not np.shares_memory(copy, pixels)
    np.testing.assert_array_equal(copy, pixels)


def random_queries(video_name: str, frame_count: int, seed: int, count: int = 8) -> list[Query]:
    """A randomized workload mixing labels, label sets, and temporal ranges."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        if rng.random() < 0.3:
            predicate_labels = rng.sample(LABELS, k=rng.randint(2, 3))
            query = Query.select_any(predicate_labels, video_name)
        else:
            query = Query.select(rng.choice(LABELS), video_name)
        if rng.random() < 0.5:
            start = rng.randrange(0, frame_count - 1)
            stop = rng.randrange(start + 1, frame_count + 1)
            query = Query(
                video=query.video,
                predicate=query.predicate,
                temporal=TemporalPredicate.between(start, stop),
            )
        queries.append(query)
    return queries


def assert_scan_results_identical(actual, expected) -> None:
    """Region-by-region equality: frame, rectangle, label, and exact pixels."""
    assert actual.video == expected.video
    assert len(actual.regions) == len(expected.regions)
    for got, want in zip(actual.regions, expected.regions):
        assert got.frame_index == want.frame_index
        assert got.region == want.region
        assert got.label == want.label
        np.testing.assert_array_equal(got.pixels, want.pixels)


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cold_cache_matches_sequential(self, config, seed):
        tasm, video = make_tasm(config)
        queries = random_queries(video.name, video.frame_count, seed)
        batch = tasm.execute_batch(queries)
        for result, query in zip(batch, queries):
            assert_scan_results_identical(result, tasm.execute(query))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_warm_cache_matches_sequential(self, config, seed):
        cached, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        reference, _ = make_tasm(config)
        queries = random_queries(video.name, video.frame_count, seed)
        cached.execute_batch(queries)  # warm every tile the workload touches
        warm = cached.execute_batch(queries)
        assert warm.stats.pixels_decoded == 0, "a warm batch must be all hits"
        assert warm.cache_hit_rate == 1.0
        for result, query in zip(warm, queries):
            assert_scan_results_identical(result, reference.execute(query))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_evicting_cache_matches_sequential(self, config, seed):
        # Room for roughly one decoded full-frame tile GOP (128*96*5 bytes),
        # so the working set never fits and entries are evicted constantly.
        cached, video = make_tasm(config, cache_bytes=70_000)
        reference, _ = make_tasm(config)
        queries = random_queries(video.name, video.frame_count, seed)
        batch = cached.execute_batch(queries)
        batch = cached.execute_batch(queries)  # re-run over the thrashed cache
        assert cached.tile_cache.stats.evictions > 0, "capacity must force evictions"
        for result, query in zip(batch, queries):
            assert_scan_results_identical(result, reference.execute(query))

    def test_repeated_scans_hit_persistent_cache(self, config):
        tasm, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        cold = tasm.scan(video.name, "car")
        warm = tasm.scan(video.name, "car")
        assert cold.pixels_decoded > 0 and cold.cache_hits == 0
        assert warm.pixels_decoded == 0 and warm.cache_hits > 0
        assert warm.cache_hit_rate == 1.0
        assert warm.pixels_served_from_cache == cold.pixels_decoded
        assert_scan_results_identical(warm, cold)

    def test_returned_pixels_are_read_only_views(self, config):
        """Nothing a caller does through what a scan returns changes the cache
        or a later scan: every region's pixels are read-only for good, a box
        inside one tile is a view of the cached frame (no copy), a box across
        tiles is a copy, and ``np.array`` hands the caller a writable copy."""
        cached, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        reference, _ = make_tasm(config)
        # SOT 1 in 2x2 tiles (boxes inside one tile and across tiles), the
        # rest untiled (every box a slice of the frame-sized tile).
        layout = uniform_layout(video.width, video.height, 2, 2, config.codec.block_size)
        for tasm in (cached, reference):
            tasm.retile_sot(video.name, 1, layout)
        query = Query.select_any(LABELS, video.name)
        cached.execute(query)  # warm
        tiled = cached.video(video.name)

        def cache_entries() -> list[list]:
            entries = []
            for sot_index in range(tiled.sot_count):
                tiles = tiled.encoded_sot(sot_index).tiles
                for key in keys_for_sot(cached.tile_cache, video.name, sot_index):
                    token = tiles[key[2]].checksums
                    entries.append(cached.tile_cache.get(key, min_depth=0, token=token))
            return entries

        before = [b"".join(frame.tobytes() for frame in frames) for frames in cache_entries()]
        frames = [frame for entry in cache_entries() for frame in entry]
        warm = cached.execute(query)
        assert warm.pixels_decoded == 0 and before
        assert all(region.pixels.size for region in warm.regions)
        inside = 0
        for region in warm.regions:
            assert_read_only_pixels(region.pixels)
            copy = np.array(region.pixels)
            copy[...] = 255 - copy  # the caller's own copy takes any write
            (sot_index,) = tiled.sots_for_frames(region.frame_index, region.frame_index + 1)
            row0, row1, col0, col1 = tiled.layout_for(sot_index).tile_span(region.region)
            one_tile = row1 - row0 == 1 and col1 - col0 == 1
            inside += one_tile
            assert any(np.shares_memory(region.pixels, frame) for frame in frames) == one_tile
        assert 0 < inside < len(warm.regions)
        assert [b"".join(frame.tobytes() for frame in entry) for entry in cache_entries()] == before
        again = cached.execute(query)
        assert again.pixels_decoded == 0
        assert_scan_results_identical(again, reference.execute(query))

    def test_zero_area_box_opens_no_tile(self, config):
        """One overlap rule everywhere: only positive-area overlap with the
        frame touches a tile.  A degenerate box (``add_metadata`` with
        ``x1 == x2``) still yields its empty region, but the decoder opens
        nothing for it — which is also what the cost model charges."""
        video = build_tiny_video()
        tasm = TASM(config=config)
        tasm.ingest(video)
        tasm.retile_sot(
            video.name, 0, uniform_layout(video.width, video.height, 2, 2, config.codec.block_size)
        )
        tasm.add_metadata(video.name, 2, "sliver", 20, 10, 20, 30)  # zero width, inside tile 0
        tasm.add_metadata(video.name, 3, "sliver", 90, 70, 100, 70)  # zero height, inside tile 3
        query = Query.select("sliver", video.name)
        result = tasm.execute(query)
        assert [region.pixels.shape for region in result.regions] == [(0, 0), (0, 0)]
        assert (result.pixels_decoded, result.tiles_decoded) == (0, 0)
        estimate = tasm.estimate_sot_query_cost(video.name, 0, query)
        assert (estimate.pixels, estimate.tiles) == (result.pixels_decoded, result.tiles_decoded)

        # Beside a real box, the slivers still cost nothing: P and T are the
        # real box's tile alone, in the decoder and in the model (on a
        # keyframe, where the decoder has no earlier frames to pay for).
        tasm.add_metadata(video.name, 0, "sliver", 70, 50, 100, 80)  # inside tile 3
        result = tasm.execute(query)
        estimate = tasm.estimate_sot_query_cost(video.name, 0, query)
        assert result.tiles_decoded == 1
        assert (estimate.pixels, estimate.tiles) == (result.pixels_decoded, result.tiles_decoded)


class TestBatchAccounting:
    def test_shared_tiles_are_not_double_counted(self, config):
        """Regression pin: a tile serving many regions/queries counts once.

        Two identical queries in one batch touch exactly the same tiles; the
        batch's ``pixels_decoded`` must equal one sequential scan's, not two,
        and the per-query stats plus warm-phase work must reconcile exactly.
        """
        tasm, video = make_tasm(config)
        sequential = tasm.scan(video.name, "car")
        batch = tasm.execute_batch(
            [Query.select("car", video.name), Query.select("car", video.name)]
        )
        assert batch.stats.pixels_decoded == sequential.pixels_decoded
        assert batch.stats.tiles_decoded == sequential.tiles_decoded
        # Both queries still return full results; the second is served from cache.
        assert batch.pixels_served_from_cache > 0
        assert batch.cache_hit_rate > 0.0
        per_query_decoded = sum(result.stats.pixels_decoded for result in batch)
        assert per_query_decoded == 0, "serve phase must hit the warmed cache"

    def test_a_scans_decode_seconds_is_the_decoders_clock(self, config, monkeypatch):
        """A scan's ``decode_seconds`` is the sum of the decoder's own clock
        over the SOTs it served, as on the batch path: the lazy first encode
        and the result assembly around the decodes are not in it."""
        tasm, video = make_tasm(config)
        decoded = []
        decode_regions = tasm._decoder.decode_regions

        def recording(*args, **kwargs):
            decoded.append(decode_regions(*args, **kwargs))
            return decoded[-1]

        monkeypatch.setattr(tasm._decoder, "decode_regions", recording)
        result = tasm.scan(video.name, "car")
        assert len(decoded) == tasm.video(video.name).sot_count > 1
        assert result.decode_seconds == sum(d.elapsed_seconds for d in decoded)

    def test_batch_decodes_no_more_than_sequential(self, config):
        tasm, video = make_tasm(config)
        reference, _ = make_tasm(config)
        queries = random_queries(video.name, video.frame_count, seed=7)
        batch = tasm.execute_batch(queries)
        sequential_pixels = sum(
            reference.execute(query).pixels_decoded for query in queries
        )
        assert batch.stats.pixels_decoded <= sequential_pixels
        assert (
            batch.stats.pixels_decoded + batch.stats.pixels_served_from_cache
            >= sequential_pixels
        ), "hits plus decode work must cover everything the workload touched"

    def test_small_cache_batch_never_exceeds_sequential_work(self, config):
        """A cache smaller than the batch working set must not thrash.

        Each SOT is served immediately after its prefetch, so its tiles are
        still resident when consumed; a warm-everything-then-serve design
        would evict them first and decode *more* than the sequential path.
        """
        cached, video = make_tasm(config, cache_bytes=70_000)
        reference, _ = make_tasm(config)
        queries = [Query.select("car", video.name)] * 3
        batch = cached.execute_batch(queries)
        sequential = sum(
            reference.execute(query).pixels_decoded for query in queries
        )
        assert batch.stats.pixels_decoded < sequential
        assert batch.cache_hit_rate > 0.0

    def test_cache_smaller_than_one_sot_falls_back_to_sequential_work(self, config):
        """A cache that cannot hold even one SOT's working set is bypassed.

        Prefetching such a SOT would evict its own entries mid-warm and every
        serve would miss — paying warm work on top of sequential work.  The
        executor must instead skip the prefetch, decoding exactly what the
        sequential path would, never more.
        """
        # One untiled SOT's union working set is 128*96*5 = 61,440 bytes.
        cached, video = make_tasm(config, cache_bytes=30_000)
        reference, _ = make_tasm(config)
        queries = [Query.select("car", video.name)] * 3
        batch = cached.execute_batch(queries)
        sequential = sum(
            reference.execute(query).pixels_decoded for query in queries
        )
        assert batch.stats.pixels_decoded <= sequential
        for result, query in zip(batch, queries):
            assert_scan_results_identical(result, reference.execute(query))

    def test_empty_batch_and_empty_queries(self, config):
        tasm, video = make_tasm(config)
        empty = tasm.execute_batch([])
        assert len(empty) == 0 and empty.stats.pixels_decoded == 0
        no_match = tasm.execute_batch([Query.select("unicorn", video.name)])
        assert no_match[0].is_empty()
        assert no_match.stats.pixels_decoded == 0


class TestCachelessBatch:
    """A TASM without a cache batches through its one decoder: each SOT's
    queries are served from that SOT's warm, and nothing else is built."""

    def test_the_batch_warms_through_the_tasms_decoder_and_builds_no_cache(
        self, config, monkeypatch
    ):
        tasm, video = make_tasm(config)
        assert tasm.tile_cache is None
        warms, caches = [], []
        prefetch, built = tasm._decoder.prefetch_regions, TileDecodeCache.__init__

        def counted_prefetch(sot, *args, **kwargs):
            warms.append(sot.sot_index)
            return prefetch(sot, *args, **kwargs)

        def counted_init(cache, *args, **kwargs):
            caches.append(cache)
            built(cache, *args, **kwargs)

        monkeypatch.setattr(tasm._decoder, "prefetch_regions", counted_prefetch)
        monkeypatch.setattr(TileDecodeCache, "__init__", counted_init)
        queries = random_queries(video.name, video.frame_count, seed=0)
        tasm.execute_batch(queries)
        touched = {sot for query in queries for sot, _ in tasm._plan(query).sot_requests}
        assert warms == sorted(touched) and warms
        assert caches == [] and tasm.tile_cache is None

    def test_a_cacheless_batch_serves_and_counts_as_a_cached_one_but_misses(self, config):
        """Per query, the regions and stats a large cache gives; for the
        batch, the same decode work with no cache misses, as a cacheless
        ``execute`` counts none."""
        cacheless, video = make_tasm(config)
        cached, _ = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        queries = random_queries(video.name, video.frame_count, seed=0)
        batch, reference = cacheless.execute_batch(queries), cached.execute_batch(queries)
        for result, expected, query in zip(batch, reference, queries):
            assert_scan_results_identical(result, expected)
            assert_scan_results_identical(result, cacheless.execute(query))
            assert result.stats == expected.stats
        assert reference.stats.cache_misses > 0
        assert batch.stats == replace(reference.stats, cache_misses=0)


class TestRetileInvalidation:
    @staticmethod
    def assert_entries_are_of_the_current_encoding(tasm, video, sot_index: int) -> int:
        """Every entry cached for the SOT carries the checksums of the tile it
        is filed under in the SOT's current encoding; returns how many."""
        tiles = tasm.video(video.name).encoded_sot(sot_index).tiles
        keys = keys_for_sot(tasm.tile_cache, video.name, sot_index)
        for key in keys:
            assert tasm.tile_cache.held(key, tiles[key[2]].checksums) is not None
        return len(keys)

    def test_retile_evicts_the_sots_cached_tiles(self, config):
        tasm, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        tasm.scan(video.name, "car")
        assert keys_for_sot(tasm.tile_cache, video.name, 0), "scan must populate the cache"
        old_tile = tasm.video(video.name).encoded_sot(0).tiles[0]

        layout = tasm.layout_around(video.name, 0, ["car"])
        tasm.retile_sot(video.name, 0, layout)
        # No entry of the old encoding survives: what the SOT has cached now
        # was handed over by the re-encode, under the new tiles' checksums.
        assert tasm.tile_cache.held((video.name, 0, 0), old_tile.checksums) is None
        assert self.assert_entries_are_of_the_current_encoding(tasm, video, 0) == layout.tile_count

    def test_one_retile_invalidates_the_sot_once(self, config, monkeypatch):
        """``retile_sot`` is the one writer of a re-tile's invalidation: the
        cache's walk over its entries runs once per re-tile, not once per
        party that heard of it."""
        tasm, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        tasm.scan(video.name, "car")
        calls = []
        invalidate = tasm.tile_cache.invalidate_sot

        def counting(scope, sot_index):
            calls.append((scope, sot_index))
            return invalidate(scope, sot_index)

        monkeypatch.setattr(tasm.tile_cache, "invalidate_sot", counting)
        layout = tasm.layout_around(video.name, 0, ["car"])
        assert not layout.is_untiled
        tasm.retile_sot(video.name, 0, layout)
        assert calls == [(video.name, 0)]

    def test_scan_after_retile_returns_fresh_pixels(self, config):
        """The stale-read path: a re-tiled SOT must never serve old decodes."""
        cached, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        reference, _ = make_tasm(config)

        cached.scan(video.name, "car")  # warm the untiled encoding's tiles
        layout = cached.layout_around(video.name, 0, ["car", "person"])
        assert not layout.is_untiled
        cached.retile_sot(video.name, 0, layout)
        reference.retile_sot(video.name, 0, layout)
        assert self.assert_entries_are_of_the_current_encoding(cached, video, 0) > 0

        after = cached.scan(video.name, "car")
        expected = reference.scan(video.name, "car")
        assert_scan_results_identical(after, expected)
        # The whole frame was resident, so the re-tiled SOT is served from the
        # entries the re-encode handed over — those carrying the new
        # checksums — and the untouched SOTs from their own: nothing is
        # decoded, and what the cache serves covers the reference exactly.
        assert after.pixels_decoded == 0
        assert after.pixels_served_from_cache == expected.pixels_decoded

    def test_checksum_token_blocks_stale_reads_without_invalidation(self, config):
        """Even a retile made behind TASM's back cannot serve stale tiles.

        ``TiledVideo.retile`` called directly, not through ``retile_sot``,
        invalidates nothing and leaves entries in the cache; only the
        bitstream-checksum token check stands between a scan and stale
        pixels.
        """
        tasm, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        tiled = tasm.video(video.name)

        tasm.scan(video.name, "car")
        layout = tasm.layout_around(video.name, 0, ["car"])
        assert not layout.is_untiled
        tiled.retile(0, layout)  # direct retile: no invalidation runs
        assert keys_for_sot(tasm.tile_cache, video.name, 0), (
            "precondition: stale entries are still cached"
        )

        reference, _ = make_tasm(config)
        reference.retile_sot(video.name, 0, layout)
        after = tasm.scan(video.name, "car")
        assert_scan_results_identical(after, reference.scan(video.name, "car"))


class TestRetileHandoverOrder:
    def test_untouched_handovers_are_evicted_before_any_tile_a_box_touches(self, config):
        """A re-tile hands over every new tile of the area the cache held, but
        files a tile no indexed box touches (on any frame of its SOT, for any
        label) as the cache's oldest: under pressure those go first, and a
        scan of the label the layout was cut around still decodes nothing."""
        video = build_tiny_video()
        sot_frames = config.codec.gop_frames  # one GOP per SOT on this scene
        tasm, _ = make_tasm(config, cache_bytes=video.width * video.height * sot_frames)
        whole_sot = TemporalPredicate.between(0, sot_frames)
        tasm.execute(Query(video.name, Query.select("sign", video.name).predicate, whole_sot))
        assert tasm.tile_cache.current_bytes == tasm.tile_cache.capacity_bytes  # full, untiled

        layout = tasm.layout_around(video.name, 0, ["car"])
        tasm.retile_sot(video.name, 0, layout)
        handed_over = set(keys_for_sot(tasm.tile_cache, video.name, 0))
        touched = {
            (video.name, 0, tile_index)
            for frame in range(sot_frames)
            for detection in video.ground_truth(frame)
            for tile_index, rectangle in enumerate(layout.tile_rectangles())
            if rectangle.intersects(detection.box)
        }
        untouched = handed_over - touched
        assert len(handed_over) == layout.tile_count and untouched and touched <= handed_over
        untouched_bytes = sum(
            rectangle.area * sot_frames
            for tile_index, rectangle in enumerate(layout.tile_rectangles())
            if (video.name, 0, tile_index) in untouched
        )

        # Two full frames of SOT 1 are about as much as the untouched tiles
        # hold: their entry must push out those tiles and nothing else.
        frames = int(untouched_bytes // (video.width * video.height))
        tasm.execute(
            Query(
                video.name,
                Query.select("sign", video.name).predicate,
                TemporalPredicate.between(sot_frames, sot_frames + frames),
            )
        )
        assert tasm.tile_cache.stats.evictions > 0
        left = set(keys_for_sot(tasm.tile_cache, video.name, 0))
        assert handed_over - left <= untouched and touched <= left
        car = tasm.execute(Query(video.name, Query.select("car", video.name).predicate, whole_sot))
        assert car.regions and car.pixels_decoded == 0


class TestTileDecodeCache:
    def test_lru_eviction_order_and_byte_accounting(self):
        cache = TileDecodeCache(capacity_bytes=3000)
        frame = np.zeros((10, 100), dtype=np.uint8)  # 1000 bytes
        cache.put(("v", 0, 0), [frame], token=(1,))
        cache.put(("v", 0, 1), [frame], token=(2,))
        cache.put(("v", 0, 2), [frame], token=(3,))
        assert cache.current_bytes == 3000
        # Touch the oldest so the middle entry becomes LRU.
        assert cache.get(("v", 0, 0), min_depth=0, token=(1,)) is not None
        cache.put(("v", 0, 3), [frame], token=(4,))
        assert ("v", 0, 1) not in cache
        assert ("v", 0, 0) in cache
        assert cache.stats.evictions == 1
        assert cache.stats.bytes_evicted == 1000
        assert cache.current_bytes == 3000

    def test_depth_and_token_mismatches_are_misses(self):
        cache = TileDecodeCache(capacity_bytes=1 << 30)
        frames = [np.zeros((4, 4), dtype=np.uint8) for _ in range(2)]
        cache.put(("v", 0, 0), frames, token=(9, 9))
        assert cache.get(("v", 0, 0), min_depth=1, token=(9, 9)) is not None
        assert cache.get(("v", 0, 0), min_depth=2, token=(9, 9)) is None
        assert cache.get(("v", 0, 0), min_depth=0, token=(7, 7)) is None, (
            "a re-encoded bitstream's token must not hit"
        )
        # The token mismatch dropped the entry entirely.
        assert ("v", 0, 0) not in cache

    def test_oversized_entries_are_rejected(self):
        cache = TileDecodeCache(capacity_bytes=100)
        big = np.zeros((100, 100), dtype=np.uint8)
        assert not cache.put(("v", 0, 0), [big], token=(1,))
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_invalidation_scopes(self):
        cache = TileDecodeCache(capacity_bytes=1 << 30)
        frame = np.zeros((4, 4), dtype=np.uint8)
        for sot in (0, 1):
            for tile in (0, 1):
                cache.put(("a", sot, tile), [frame], token=(1,))
        cache.put(("b", 0, 0), [frame], token=(1,))
        assert cache.invalidate_sot("a", 0) == 2
        assert keys_for_sot(cache, "a", 0) == []
        assert keys_for_sot(cache, "a", 1) != []
        assert cache.invalidate_sot("a", 1) == 2
        assert len(cache) == 1 and ("b", 0, 0) in cache

    def test_stats_snapshot_delta(self):
        frame = np.zeros((4, 4), dtype=np.uint8)
        cache = TileDecodeCache(capacity_bytes=2 * frame.nbytes)
        cache.put(("v", 0, 0), [frame], token=(1,))
        before = (cache.stats.insertions, cache.stats.evictions)
        cache.put(("v", 0, 1), [frame], token=(1,))
        cache.put(("v", 0, 2), [frame], token=(1,))
        after = (cache.stats.insertions, cache.stats.evictions)
        assert before == (1, 0)
        assert (after[0] - before[0], after[1] - before[1]) == (2, 1)

    def test_an_entry_filed_as_oldest_is_evicted_first_until_a_hit(self):
        frame = np.zeros((10, 100), dtype=np.uint8)  # 1000 bytes
        cache = TileDecodeCache(capacity_bytes=3000)
        for tile in range(3):
            cache.put(("v", 0, tile), [frame], token=(tile,))
        cache.demote(("v", 0, 2))  # the newest, filed as the oldest
        cache.demote(("v", 0, 9))  # not held: nothing happens
        cache.put(("v", 0, 3), [frame], token=(3,))
        assert ("v", 0, 2) not in cache
        assert all(("v", 0, tile) in cache for tile in (0, 1, 3))

        cache.demote(("v", 0, 3))
        assert cache.get(("v", 0, 3), min_depth=0, token=(3,)) is not None  # now the newest
        cache.put(("v", 0, 4), [frame], token=(4,))
        assert ("v", 0, 0) not in cache
        assert all(("v", 0, tile) in cache for tile in (1, 3, 4))
        assert cache.stats.evictions == 2
