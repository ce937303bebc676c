"""A clock-free budget for the batch loop and the cache under it.

``execute_batch`` is one loop over the ``(video, SOT)`` keys its queries
touch, on the thread that called it: it starts no thread, every observer and
trace-sink call arrives on the caller's thread, each SOT still wanted is
warmed exactly once, in ascending order, and a SOT every interested query has
abandoned is not warmed at all.  Counts can gate that on a noisy runner; a
clock cannot.  The cache the loop fills evicts in one order, least recently
used first, which a ten-line ``OrderedDict`` model pins operation by
operation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TasmConfig
from repro.core.predicates import TemporalPredicate
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.errors import CodecError
from repro.exec import PartialResult, QueryDone, TileDecodeCache
from repro.tiles.layout import uniform_layout
from tests.conftest import build_tiny_video
from tests.test_exec_engine import assert_scan_results_identical
from tests.test_faults import fail_decoder

CACHE_BYTES = 64 * 1024 * 1024


def two_video_tasm(config: TasmConfig, cache_bytes: int) -> TASM:
    """Two copies of the tiny scene ("a" and "b", three SOTs each), indexed."""
    tasm = TASM(config=config.with_updates(decode_cache_bytes=cache_bytes))
    for name in ("a", "b"):
        video = build_tiny_video(name=name)
        tasm.ingest(video)
        tasm.add_detections(
            name, [d for frame in range(video.frame_count) for d in video.ground_truth(frame)]
        )
    return tasm


def eight_queries() -> list[Query]:
    def between(label: str, video: str, start: int, stop: int) -> Query:
        query = Query.select(label, video)
        return Query(query.video, query.predicate, TemporalPredicate.between(start, stop))

    return [
        Query.select("car", "a"),
        between("person", "a", 0, 5),
        between("sign", "a", 5, 15),
        Query.select("car", "b"),
        between("person", "b", 10, 15),
        Query.select_any(["car", "person", "sign"], "a"),
        between("sign", "b", 0, 10),
        between("car", "b", 10, 15),
    ]


def count_thread_starts(monkeypatch) -> list[str]:
    """The names of the threads started from now on."""
    started: list[str] = []
    original_start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        return original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return started


def run_counted(tasm: TASM, monkeypatch, cancelled=None):
    """One ``execute_batch`` of the eight queries with everything counted:
    threads started, the thread each callback came in on, the SOTs warmed."""
    started = count_thread_starts(monkeypatch)
    callers: set[int] = set()
    events: list = []
    stages: list[tuple] = []
    warmed: list[tuple[str, int]] = []
    original_prefetch = tasm._decoder.prefetch_regions

    def counted_prefetch(sot, requests, scope):
        warmed.append((scope, sot.sot_index))
        return original_prefetch(sot, requests, scope)

    def observer(event):
        callers.add(threading.get_ident())
        events.append(event)

    def trace_sink(query_index, stage, seconds, **meta):
        callers.add(threading.get_ident())
        stages.append((query_index, stage, meta.get("video"), meta.get("sot")))

    monkeypatch.setattr(tasm._decoder, "prefetch_regions", counted_prefetch)
    batch = tasm.execute_batch(
        eight_queries(), observer=observer, cancelled=cancelled, trace_sink=trace_sink
    )
    assert started == [], f"a batch starts no thread, this one started {started}"
    assert callers == {threading.get_ident()}
    return batch, events, stages, warmed


class TestOneLoop:
    def test_batch_runs_on_the_calling_thread_and_warms_each_sot_once(
        self, config: TasmConfig, monkeypatch
    ):
        tasm = two_video_tasm(config, CACHE_BYTES)
        batch, events, stages, warmed = run_counted(tasm, monkeypatch)

        every_sot = [(video, sot) for video in ("a", "b") for sot in range(3)]
        assert warmed == every_sot, "once per (video, SOT), ascending"
        assert [s[2:] for s in stages if s[1] == "warm"] == every_sot
        assert [s[0] for s in stages if s[1] == "plan"] == list(range(8))
        # A query's serves follow its SOT's warm, in the order it is served.
        serves = [s for s in stages if s[1] == "serve"]
        partials = [e for e in events if isinstance(e, PartialResult)]
        assert [(s[0], s[2], s[3]) for s in serves] == [
            (e.query_index, e.video, e.sot_index) for e in partials
        ]
        assert sorted(e.query_index for e in events if isinstance(e, QueryDone)) == list(range(8))
        reference = two_video_tasm(config, 0)
        for result, query in zip(batch, eight_queries()):
            assert_scan_results_identical(result, reference.execute(query))

    def test_a_sot_every_member_abandoned_is_never_warmed(self, config: TasmConfig, monkeypatch):
        # Queries 3, 4 and 7 are everything that wants SOT 2 of "b"; query 6
        # keeps SOTs 0 and 1 of "b" wanted although query 3 left them too.
        abandoned = {3, 4, 7}
        tasm = two_video_tasm(config, CACHE_BYTES)
        batch, events, stages, warmed = run_counted(
            tasm, monkeypatch, cancelled=lambda index: index in abandoned
        )
        assert warmed == [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1)]
        assert not {event.query_index for event in events} & abandoned
        assert not {s[0] for s in stages if s[1] == "serve"} & abandoned
        assert all(batch[index].is_empty() for index in abandoned)
        reference = two_video_tasm(config, 0)
        for index, query in enumerate(eight_queries()):
            if index not in abandoned:
                assert_scan_results_identical(batch[index], reference.execute(query))

    def test_a_cacheless_batch_is_the_same_loop(self, config: TasmConfig, monkeypatch):
        """No persistent cache: the batch-scoped one is filled and let go SOT
        by SOT by the same loop — no thread, same bytes."""
        tasm = two_video_tasm(config, 0)
        started = count_thread_starts(monkeypatch)
        batch = tasm.execute_batch(eight_queries())
        assert started == []
        for result, query in zip(batch, eight_queries()):
            assert_scan_results_identical(result, tasm.execute(query))

    def test_a_query_withdrawn_mid_batch_keeps_what_it_had(self, config: TasmConfig):
        """Query 0 walks away once its first SOT has reached its observer:
        its later serves are skipped, it never reports done, and the SOTs it
        shared with query 5 are still warmed for query 5."""
        tasm = two_video_tasm(config, CACHE_BYTES)
        events: list = []
        batch = tasm.execute_batch(
            eight_queries(),
            observer=events.append,
            cancelled=lambda index: index == 0
            and any(isinstance(e, PartialResult) and e.query_index == 0 for e in events),
        )
        mine = [e for e in events if e.query_index == 0]
        assert [(type(e), e.sot_index) for e in mine] == [(PartialResult, 0)]
        assert list(batch[0].regions) == list(mine[0].regions)
        reference = two_video_tasm(config, 0)
        for index, query in enumerate(eight_queries()[1:], start=1):
            assert_scan_results_identical(batch[index], reference.execute(query))

    def test_stats_and_seconds_are_the_sums_of_what_the_sink_saw(self, config: TasmConfig):
        tasm = two_video_tasm(config, CACHE_BYTES)
        seconds = {"plan": 0.0, "warm": 0.0, "serve": 0.0}
        served = {"cache_hits": 0, "cache_misses": 0, "pixels_decoded": 0, "pixels_from_cache": 0}

        def trace_sink(query_index, stage, elapsed, **meta):
            seconds[stage] += elapsed
            for name in served:
                served[name] += meta.get(name, 0)

        batch = tasm.execute_batch(eight_queries(), trace_sink=trace_sink)
        assert batch.index_seconds == seconds["plan"]
        assert batch.warm_seconds == seconds["warm"] and batch.serve_seconds == seconds["serve"]
        # Everything decoded was decoded by a warm; every serve was a hit.
        assert served["pixels_decoded"] == served["cache_misses"] == 0 < batch.pixels_decoded
        assert batch.stats.cache_hits == served["cache_hits"] > 0
        assert batch.pixels_served_from_cache == served["pixels_from_cache"] > 0
        assert batch.pixels_decoded == two_video_tasm(config, 0).execute_batch(
            eight_queries()
        ).pixels_decoded

    @pytest.mark.parametrize("failure", ["decode fault", "observer"])
    def test_a_batch_that_raises_mid_loop_leaves_no_lock_behind(self, config: TasmConfig, failure):
        """The loop runs under the batch's SOT read locks; whatever ends it —
        a decoder that fails its third SOT, an observer that raises — gives
        them back, so a re-tile (a writer on one of those SOTs) is not
        stranded."""
        tasm = two_video_tasm(config, CACHE_BYTES)
        if failure == "decode fault":
            fail_decoder(tasm, failing_call=3)

        def observer(event):
            if failure == "observer" and getattr(event, "sot_index", None) == 2:
                raise RuntimeError("the observer gave up")

        with pytest.raises(CodecError if failure == "decode fault" else RuntimeError):
            tasm.execute_batch(eight_queries()[:3], observer=observer)
        layout = uniform_layout(128, 96, 2, 2, config.codec.block_size)
        writers = [
            threading.Thread(target=tasm.retile_sot, args=("a", sot_index, layout), daemon=True)
            for sot_index in range(3)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=5.0)
        assert not any(writer.is_alive() for writer in writers), "a read lock leaked"
        reference = two_video_tasm(config, 0)
        for sot_index in range(3):
            reference.retile_sot("a", sot_index, layout)
        for result, query in zip(tasm.execute_batch(eight_queries()), eight_queries()):
            assert_scan_results_identical(result, reference.execute(query))


# ----------------------------------------------------------------------
# The cache against an OrderedDict model
# ----------------------------------------------------------------------
CAPACITY = 700
FRAME = np.zeros((4, 25), dtype=np.uint8)  # 100 bytes
KEYS = [(scope, sot, 0, tile) for scope in ("a", "b") for sot in (0, 1) for tile in (0, 1, 2)]


class ModelCache:
    """Least recently used first; an entry is (token, depth)."""

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()
        self.evictions = self.bytes_evicted = 0

    def get(self, key, min_depth, token) -> bool:
        if key in self.entries and self.entries[key][0] != token:
            del self.entries[key]
        if key not in self.entries or self.entries[key][1] < min_depth:
            return False
        self.entries.move_to_end(key)
        return True

    def put(self, key, depth, token) -> bool:
        if (depth + 1) * FRAME.nbytes > CAPACITY:
            return False
        self.entries.pop(key, None)
        self.entries[key] = (token, depth)
        while self.current_bytes > CAPACITY:
            _, (_, victim_depth) = self.entries.popitem(last=False)
            self.evictions += 1
            self.bytes_evicted += (victim_depth + 1) * FRAME.nbytes
        return True

    def invalidate_sot(self, scope, sot) -> int:
        doomed = [key for key in self.entries if key[:2] == (scope, sot)]
        for key in doomed:
            del self.entries[key]
        return len(doomed)

    @property
    def current_bytes(self) -> int:
        return sum((depth + 1) * FRAME.nbytes for _, depth in self.entries.values())


TOKENS = st.sampled_from([(1,), (2, 2)])
OPERATIONS = st.one_of(
    st.tuples(st.just("get"), st.sampled_from(KEYS), st.integers(0, 3), TOKENS),
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 7), TOKENS),
    st.tuples(st.just("invalidate_sot"), st.sampled_from(["a", "b"]), st.sampled_from([0, 1])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(OPERATIONS, max_size=60))
def test_cache_matches_an_ordered_dict_model(operations):
    cache, model = TileDecodeCache(capacity_bytes=CAPACITY), ModelCache()
    for name, *arguments in operations:
        if name == "get":
            key, min_depth, token = arguments
            frames = cache.get(key, min_depth, token)
            assert (frames is not None) == model.get(key, min_depth, token)
            assert frames is None or len(frames) > min_depth
        elif name == "put":
            key, depth, token = arguments
            assert cache.put(key, [FRAME] * (depth + 1), token) == model.put(key, depth, token)
        else:
            assert cache.invalidate_sot(*arguments) == model.invalidate_sot(*arguments)
        assert [key for key in KEYS if key in cache] == [key for key in KEYS if key in model.entries]
        assert cache.current_bytes == model.current_bytes <= CAPACITY
        assert (cache.stats.evictions, cache.stats.bytes_evicted) == (
            model.evictions,
            model.bytes_evicted,
        )
