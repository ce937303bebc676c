"""A clock-free budget for the batch loop and the cache under it.

``execute_batch`` is one loop over the ``(video, SOT)`` keys its queries
touch, on the thread that called it: it starts no thread, every warm and
every observer call happens on the caller's thread, each SOT still wanted is
warmed exactly once, in ascending order, each query's serves of a SOT follow
that SOT's warm, and a SOT every interested query has abandoned is not warmed
at all.  Counts can gate that on a noisy runner; a
clock cannot.  (The cache the loop fills is pinned against a model of its
eviction rules in ``test_cache_policy``.)
"""

from __future__ import annotations

import threading

import pytest

from repro.config import TasmConfig
from repro.core.predicates import TemporalPredicate
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.errors import CodecError
from repro.exec import PartialResult, QueryDone
from repro.tiles.layout import uniform_layout
from repro.video.codec import DecodeStats
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
    threads started, the thread each call came in on, and the SOTs warmed
    and the observer's events in the one order they happened."""
    started = count_thread_starts(monkeypatch)
    callers: set[int] = set()
    log: list = []  # (video, SOT) per warm, and every observer event
    original_prefetch = tasm._decoder.prefetch_regions

    def counted_prefetch(sot, requests, scope):
        callers.add(threading.get_ident())
        log.append((scope, sot.sot_index))
        return original_prefetch(sot, requests, scope)

    def observer(event):
        callers.add(threading.get_ident())
        log.append(event)

    monkeypatch.setattr(tasm._decoder, "prefetch_regions", counted_prefetch)
    batch = tasm.execute_batch(eight_queries(), observer=observer, cancelled=cancelled)
    assert started == [], f"a batch starts no thread, this one started {started}"
    assert callers == {threading.get_ident()}
    events = [entry for entry in log if isinstance(entry, (PartialResult, QueryDone))]
    warmed = [entry for entry in log if isinstance(entry, tuple)]
    return batch, events, log, warmed


class TestOneLoop:
    def test_batch_runs_on_the_calling_thread_and_warms_each_sot_once(
        self, config: TasmConfig, monkeypatch
    ):
        tasm = two_video_tasm(config, CACHE_BYTES)
        batch, events, log, warmed = run_counted(tasm, monkeypatch)

        every_sot = [(video, sot) for video in ("a", "b") for sot in range(3)]
        assert warmed == every_sot, "once per (video, SOT), ascending"
        # A query's serves of a SOT follow that SOT's warm, before the next.
        last_warm = None
        for entry in log:
            if isinstance(entry, tuple):
                last_warm = entry
            elif isinstance(entry, PartialResult):
                assert (entry.video, entry.sot_index) == last_warm, entry
        assert sorted(e.query_index for e in events if isinstance(e, QueryDone)) == list(range(8))
        reference = two_video_tasm(config, 0)
        for result, query in zip(batch, eight_queries()):
            assert_scan_results_identical(result, reference.execute(query))

    def test_a_sot_every_member_abandoned_is_never_warmed(self, config: TasmConfig, monkeypatch):
        # Queries 3, 4 and 7 are everything that wants SOT 2 of "b"; query 6
        # keeps SOTs 0 and 1 of "b" wanted although query 3 left them too.
        abandoned = {3, 4, 7}
        tasm = two_video_tasm(config, CACHE_BYTES)
        batch, events, log, warmed = run_counted(
            tasm, monkeypatch, cancelled=lambda index: index in abandoned
        )
        assert warmed == [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1)]
        assert not {event.query_index for event in events} & abandoned
        for index in abandoned:  # never served: nothing returned, nothing read
            assert batch[index].is_empty() and batch[index].stats == DecodeStats()
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

    def test_stats_and_seconds_are_the_sums_of_the_warms_and_the_serves(
        self, config: TasmConfig, monkeypatch
    ):
        tasm = two_video_tasm(config, CACHE_BYTES)
        warms = []
        original_prefetch = tasm._decoder.prefetch_regions

        def counted_prefetch(sot, requests, scope):
            warms.append(original_prefetch(sot, requests, scope))
            return warms[-1]

        monkeypatch.setattr(tasm._decoder, "prefetch_regions", counted_prefetch)
        done: list[QueryDone] = []
        batch = tasm.execute_batch(
            eight_queries(),
            observer=lambda event: isinstance(event, QueryDone) and done.append(event),
        )
        served = DecodeStats()
        for result in batch:
            served.merge(result.stats)
        assert batch.index_seconds == sum(result.index_seconds for result in batch)
        assert batch.warm_seconds == sum(warm.elapsed_seconds for warm in warms)
        assert batch.serve_seconds == pytest.approx(sum(result.decode_seconds for result in batch))
        # Everything decoded was decoded by a warm; every serve was a hit.
        assert sorted(event.query_index for event in done) == list(range(8))
        for event in done:
            stats = event.result.stats
            assert stats.pixels_decoded == stats.cache_misses == 0 < stats.cache_hits
        assert served.pixels_decoded == served.cache_misses == 0 < batch.pixels_decoded
        assert batch.stats.cache_hits == served.cache_hits > 0
        assert batch.pixels_served_from_cache == served.pixels_served_from_cache > 0
        assert batch.pixels_decoded == two_video_tasm(config, 0).execute_batch(
            eight_queries()
        ).pixels_decoded

    def test_a_batch_over_a_warm_cache_counts_each_hit_once(self, config: TasmConfig):
        """A warm's hits are not the batch's: the serves that follow it hit
        the same entries, and only those count.  So the invariant above holds
        on a second batch too, where the warm finds everything held."""
        tasm = two_video_tasm(config, CACHE_BYTES)
        tasm.execute_batch(eight_queries())
        batch = tasm.execute_batch(eight_queries())
        served = DecodeStats()
        for result in batch:
            served.merge(result.stats)
        assert batch.pixels_decoded == batch.stats.cache_misses == 0
        assert batch.stats.cache_hits == served.cache_hits > 0
        assert batch.pixels_served_from_cache == served.pixels_served_from_cache > 0
        assert batch.cache_hit_rate == 1.0
        alone = [tasm.execute(query) for query in eight_queries()]
        assert served.cache_hits == sum(result.cache_hits for result in alone)

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
