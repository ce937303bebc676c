"""A scan served from memoised pieces is the scan a memo-less TASM computes.

``TASM._plan`` assembles a scan from one
:class:`~repro.video.decoder.ScanPiece` per SOT, kept in the what-if memo
until the index's write generation for the SOT's frames moves; a piece keeps
the decode plan of the encoding it was last served from.  The property: under
any interleaving of index writes (through TASM, or straight into the index),
re-tiles and scans, every ``ScanResult`` — regions, their order, labels, pixel
bytes, ``DecodeStats`` — equals the one a TASM with nothing memoised and no
decode cache computes from the same index and layouts at that moment.  The
region bound and the counts live in
``tests/test_warm_path_budget.py``.

A window's piece is a slice of its SOT's whole piece, and its decode plan a
slice of that piece's plan, so a second property asks random windows — cut by
SOT boundaries, inside one GOP of a two-GOP SOT, across both — between writes
and re-tiles, and holds every piece against the window's own index lookup and
every plan, region and ``DecodeStats`` against a decoder handed the same
requests as a bare list: no memo, no slice, no cache.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import tasm as tasm_module
from repro.core.predicates import LabelPredicate, TemporalPredicate
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.geometry import BoundingBox
from repro.index import BTreeSemanticIndex, IndexEntry
from repro.video.codec import DecodeStats
from repro.video.decoder import RegionRequest, ScanPiece, VideoDecoder

from tests.test_exec_engine import assert_read_only_pixels
from tests.test_what_if_memo import (
    CONFIG,
    LABELS,
    SOTS,
    VIDEO,
    WriteLandsAfterTheRead,
    detections,
    layout_choices,
    predicates,
    resolve,
    selected,
    sot_shapes,
    window_operations,
    write,
    write_within,
)

CACHE_BYTES = 64 * 1024 * 1024
#: Inside one SOT, ending on a SOT edge, spanning all three SOTs, the whole
#: video, and two that select no frame at all (15 frames, 5 per SOT).
windows = st.one_of(
    st.sampled_from([(1, 4), (6, 9), (2, 5), (0, 10), (3, 12), (4, 15), (15, 20), (40, 41)]).map(
        lambda bounds: TemporalPredicate.between(*bounds)
    ),
    st.just(TemporalPredicate.everything()),
    st.tuples(st.integers(0, 14), st.integers(1, 15)).map(
        lambda drawn: TemporalPredicate.between(drawn[0], drawn[0] + drawn[1])
    ),
)
queries = st.builds(Query, st.just(VIDEO.name), predicates, windows)
operations = st.one_of(
    st.tuples(st.just("add_metadata"), detections()),
    st.tuples(st.just("add_detections"), st.lists(detections(), max_size=3)),
    st.tuples(st.just("index.add"), detections()),  # a writer that goes around TASM
    st.tuples(st.just("retile"), SOTS, layout_choices),
    st.tuples(st.just("scan"), queries),
    st.tuples(st.just("batch"), st.lists(queries, min_size=2, max_size=3)),
)


def build(cache_bytes: int = 0, index=None) -> TASM:
    tasm = TASM(CONFIG.with_updates(decode_cache_bytes=cache_bytes), semantic_index=index)
    tasm.ingest(VIDEO)
    return tasm


def fresh_over(tasm: TASM) -> TASM:
    """A TASM with nothing memoised and no decode cache, reading the very
    same index and holding the very same layouts."""
    reference = build(index=tasm.semantic_index)
    tiled = tasm.video(VIDEO.name)
    for sot_index in tiled.layout_spec.tiled_sots():
        reference.retile_sot(VIDEO.name, sot_index, tiled.layout_for(sot_index))
    return reference


def regions_of(result) -> list[tuple]:
    return [
        (r.frame_index, r.region, r.label, r.pixels.shape, r.pixels.tobytes())
        for r in result.regions
    ]


def cached_frames(tasm: TASM) -> list[tuple]:
    """Every frame the decode cache holds now, with its bytes ([] without a
    cache).  The frames are kept, so a later check sees them even if a
    racing scan evicts them."""
    if tasm.tile_cache is None:
        return []
    with tasm.tile_cache._lock:
        frames = [frame for entry in tasm.tile_cache._entries.values() for frame in entry.frames]
    return [(frame, frame.tobytes()) for frame in frames]


def unchanged(held: list[tuple]) -> bool:
    return all(frame.tobytes() == data for frame, data in held)


def check(tasm: TASM, batch: list[Query], reference: TASM | None = None) -> None:
    """Run ``batch`` (one query through ``execute``, more through
    ``execute_batch``) and compare with a memo-less TASM (``reference``, when
    the caller made one since the last write), query by query."""
    reference = reference or fresh_over(tasm)
    results = [tasm.execute(batch[0])] if len(batch) == 1 else tasm.execute_batch(batch).results
    for query, result in zip(batch, results):
        expected = reference.execute(query)
        assert regions_of(result) == regions_of(expected), query.describe()
        if tasm.tile_cache is None and len(batch) == 1:
            assert result.stats == expected.stats, query.describe()
        # A caller cannot write through a result into the cache, the memo or
        # a later scan (the repeated checks compare those scans); what it may
        # change is its own copy.
        held = cached_frames(tasm)
        for region in result.regions:
            assert_read_only_pixels(region.pixels)
        assert unchanged(held)


@pytest.mark.parametrize("cache_bytes", [0, CACHE_BYTES])
@given(indexed_frames=st.sets(st.integers(0, 14)), program=st.lists(operations, min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_every_scan_equals_a_memo_less_scan(cache_bytes, indexed_frames, program):
    tasm = build(cache_bytes)
    tasm.add_detections(VIDEO.name, [d for f in sorted(indexed_frames) for d in VIDEO.ground_truth(f)])
    asked: list[list[Query]] = []
    for operation in program:
        if operation[0] in ("scan", "batch"):
            batch = [operation[1]] if operation[0] == "scan" else operation[1]
            asked.append(batch)
            reference = fresh_over(tasm)
            check(tasm, batch, reference)
            check(tasm, batch, reference)  # now from the memo, whatever the first did
        else:
            write(tasm, operation)
            reference = fresh_over(tasm)
            for batch in asked[-3:]:  # what was memoised must survive the write, or go
                check(tasm, batch, reference)


def plan_as_lists(plan) -> list:
    """A decode plan with its tile depths in the order the tiles are decoded."""
    return [(number, list(depths.items()), served) for number, depths, served in plan.gops]


@pytest.mark.parametrize("cache_bytes", [0, CACHE_BYTES])
@sot_shapes
@given(indexed_frames=st.sets(st.integers(0, 14)), program=st.lists(window_operations, min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_every_window_is_the_slice_its_own_lookup_and_a_list_decode_give(
    sot_frames, cache_bytes, indexed_frames, program
):
    config = CONFIG.with_updates(sot_frames=sot_frames, decode_cache_bytes=cache_bytes)
    tasm = TASM(config)
    tiled = tasm.ingest(VIDEO)
    tasm.add_detections(VIDEO.name, [d for f in sorted(indexed_frames) for d in VIDEO.ground_truth(f)])
    decoder = VideoDecoder(config.codec)  # no cache, and never shown a piece

    def check(predicate, window) -> None:
        query = Query(VIDEO.name, predicate, window)
        start, stop = window.resolve(VIDEO.frame_count)
        label = next(iter(predicate.labels)) if predicate.is_single_label else None
        expected, regions, stats = [], [], DecodeStats()
        for sot_index in tiled.sots_for_frames(start, stop):
            sot_start, sot_stop = tiled.frame_range(sot_index)
            requests = tuple(
                RegionRequest(frame, region, label)
                for frame, boxes in selected(
                    tasm, predicate, max(start, sot_start), min(stop, sot_stop)
                ).items()
                for region in boxes
            )
            if requests:
                expected.append((sot_index, requests))
        pieces = tasm._plan(query).sot_requests
        assert [(sot_index, piece.requests) for sot_index, piece in pieces] == expected
        result = tasm.execute(query)
        for sot_index, piece in pieces:
            encoded = tiled.encoded_sot(sot_index)
            plan, listed = tasm._decoder._plan_for(encoded, piece), decoder._plan(encoded, piece.requests)
            assert plan_as_lists(plan) == plan_as_lists(listed)
            assert plan.working_set_bytes == listed.working_set_bytes
            decoded = decoder.decode_regions(encoded, list(piece.requests))
            regions += decoded.regions
            stats.merge(decoded.stats)
        assert regions_of(result) == [
            (r.frame_index, r.region, r.label, r.pixels.shape, r.pixels.tobytes()) for r in regions
        ]
        if not cache_bytes:
            assert result.stats == stats

    asked: list[tuple] = []
    for operation in program:
        if operation[0] == "window":
            asked.append(operation[1:3])
            check(*asked[-1])
        else:
            write_within(tasm, operation)
            for window in asked[-2:]:  # a write or a re-tile between two windows of a SOT
                check(*window)


def indexed(tasm: TASM) -> TASM:
    tasm.add_detections(VIDEO.name, [d for f in range(15) for d in VIDEO.ground_truth(f)])
    return tasm


def test_a_repeated_scan_is_served_from_the_same_pieces_until_a_write_to_their_frames():
    tasm = indexed(build(cache_bytes=CACHE_BYTES))
    query = Query(VIDEO.name, LabelPredicate.any_of(LABELS), TemporalPredicate.between(2, 12))

    def pieces() -> dict[int, ScanPiece]:
        return dict(tasm._plan(query).sot_requests)

    first = pieces()
    assert sorted(first) == [0, 1, 2]
    assert all(pieces()[sot] is piece for sot, piece in first.items())
    # The window is clipped to each SOT: a scan covering SOT 1 whole, whatever
    # else it covers, shares SOT 1's piece; one covering part of it does not.
    wider = Query(VIDEO.name, query.predicate, TemporalPredicate.everything())
    narrower = Query(VIDEO.name, query.predicate, TemporalPredicate.between(6, 12))
    assert dict(tasm._plan(wider).sot_requests)[1] is first[1]
    assert dict(tasm._plan(wider).sot_requests)[0] is not first[0]
    assert dict(tasm._plan(narrower).sot_requests)[1] is not first[1]
    # And so is the predicate part of the question.
    cars = Query(VIDEO.name, LabelPredicate.single("car"), query.temporal)
    assert dict(tasm._plan(cars).sot_requests)[1] is not first[1]
    check(tasm, [narrower]), check(tasm, [cars]), check(tasm, [wider])

    tasm.add_metadata(VIDEO.name, 7, "car", 10, 10, 40, 40)  # SOT 1 only
    after = pieces()
    assert after[0] is first[0] and after[2] is first[2] and after[1] is not first[1]
    assert len(after[1].requests) == len(first[1].requests) + 1
    check(tasm, [query])


def test_a_retile_replans_the_decode_once_and_keeps_the_piece():
    tasm = indexed(build(cache_bytes=CACHE_BYTES))
    query = Query.select_range("car", VIDEO.name, 0, 5)
    check(tasm, [query])
    (_, piece), = tasm._plan(query).sot_requests
    plan = piece._planned[1]
    check(tasm, [query])
    assert piece._planned[1] is plan
    tasm.retile_sot(VIDEO.name, 0, resolve(tasm, 0, "2x2"))
    check(tasm, [query])  # the stale plan names tiles of a layout that is gone
    (_, same_piece), = tasm._plan(query).sot_requests
    assert same_piece is piece and piece._planned[1] is not plan
    assert piece._planned[0]() is tasm.video(VIDEO.name).encoded_sot(0)
    replanned = piece._planned[1]
    check(tasm, [query])
    assert piece._planned[1] is replanned


def test_a_plan_does_not_keep_a_superseded_encoding_alive():
    tasm = indexed(build())
    query = Query.select_range("car", VIDEO.name, 0, 5)
    tasm.execute(query)
    (_, piece), = tasm._plan(query).sot_requests
    assert piece._planned[0]() is not None
    tasm.retile_sot(VIDEO.name, 0, resolve(tasm, 0, "2x2"))
    assert piece._planned[0]() is None  # nothing but the TiledVideo held it


def test_a_piece_computed_across_a_write_is_not_kept():
    """The losing interleaving, made deterministic: the write becomes visible
    after the piece's lookup read its entries but before the piece is filed."""
    index = WriteLandsAfterTheRead()
    tasm = build(index=index)
    tasm.add_detections(VIDEO.name, VIDEO.ground_truth(2))
    query = Query.select("car", VIDEO.name)
    tasm.semantic_index.racing = IndexEntry(VIDEO.name, "car", 3, BoundingBox(90, 60, 120, 90))
    tasm.execute(query)  # read the index before the write, finished after it
    assert index.racing is None
    check(tasm, [query])
    assert any(region.frame_index == 3 for region in tasm.execute(query).regions)


def test_results_and_memoised_requests_cannot_be_changed_through_each_other():
    tasm = indexed(build(cache_bytes=CACHE_BYTES))
    query = Query(VIDEO.name, LabelPredicate.any_of(LABELS), TemporalPredicate.everything())
    expected = regions_of(tasm.execute(query))
    held = cached_frames(tasm)
    result = tasm.execute(query)
    for region in result.regions:
        assert_read_only_pixels(region.pixels)
        with pytest.raises(dataclasses.FrozenInstanceError):
            region.pixels = np.array(region.pixels)
    result.regions.append(result.regions[0])
    del result.regions[1]
    assert regions_of(tasm.execute(query)) == expected
    assert held and unchanged(held)
    for _, piece in tasm._plan(query).sot_requests:
        assert type(piece.requests) is tuple and not hasattr(piece, "__dict__")
        assert all(type(request) is RegionRequest for request in piece.requests)
        with pytest.raises(dataclasses.FrozenInstanceError):
            piece.requests[0].frame_index = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            piece.requests[0].region.x1 = 0


class CountingIndex(BTreeSemanticIndex):
    def __init__(self):
        super().__init__()
        self.lookups: list[tuple[int, int]] = []

    def lookup(self, video, label, frame_start=None, frame_stop=None):
        self.lookups.append((frame_start, frame_stop))
        return super().lookup(video, label, frame_start, frame_stop)


def test_skipped_sots_are_never_looked_up():
    index = CountingIndex()
    tasm = indexed(build(index=index))
    query = Query.select_any(LABELS, VIDEO.name)
    whole = tasm.execute_batch([query]).results[0]
    index.lookups.clear()
    tasm._what_if.clear()
    resumed = tasm.execute_batch([query], skip_sots=[{0, 2}]).results[0]
    assert index.lookups and set(index.lookups) == {(5, 10)}  # SOT 1's frames only
    assert regions_of(resumed) == [r for r in regions_of(whole) if 5 <= r[0] < 10]
    index.lookups.clear()
    assert regions_of(tasm.execute_batch([query], skip_sots=[{0, 2}]).results[0]) == regions_of(resumed)
    assert index.lookups == []


#: Writer steps (a detection written or a SOT re-tiled) in the writer race:
#: more than the 36-38 that a 2 s deadline allowed on a 2-core x86 container.
WRITER_STEPS = 40
#: Re-tiles in the re-tiler race; a 2 s deadline allowed 167-176 there.
RETILES = 180


def test_scanners_racing_a_writer_never_keep_a_stale_piece(monkeypatch):
    """Three scanners against one writer and one re-tiler, with a region
    bound small enough that pieces are evicted all the time.  After each of
    ``WRITER_STEPS`` writes every scan must equal a memo-less one, whatever
    the scanners were in the middle of."""
    monkeypatch.setattr(tasm_module, "_MEMOISED_SCAN_REGIONS", 12)
    tasm = build(CACHE_BYTES)
    scans = [
        Query(VIDEO.name, predicate, temporal)
        for predicate in (LabelPredicate.single("car"), LabelPredicate.any_of(LABELS))
        for temporal in (TemporalPredicate.everything(), TemporalPredicate.between(3, 12))
    ]
    failures, writing = [], threading.Event()
    writing.set()

    def scanner():
        try:
            while writing.is_set():
                for query in scans:
                    tasm.execute(query)
                tasm.execute_batch(scans[:2])
        except Exception as error:  # reported by the assertion below
            failures.append(error)

    scanners = [threading.Thread(target=scanner) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in scanners:
            thread.start()
        steps = 0
        for frame in range(VIDEO.frame_count):
            for detection in VIDEO.ground_truth(frame):
                if steps < WRITER_STEPS:
                    steps += 1
                    tasm.add_detections(VIDEO.name, [detection])
                    reference = fresh_over(tasm)
                    for query in scans:
                        check(tasm, [query], reference)
            if frame % 5 == 2 and steps < WRITER_STEPS:
                steps += 1
                tasm.retile_sot(VIDEO.name, frame // 5, resolve(tasm, frame // 5, "2x2"))
                check(tasm, scans[:2])
    finally:
        writing.clear()
        for thread in scanners:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not failures and not any(thread.is_alive() for thread in scanners)
    assert steps == WRITER_STEPS
    assert tasm._scan_regions <= 12


def test_scanners_racing_a_retiler_never_see_a_raster_of_the_other_encoding(monkeypatch):
    """The same race with the re-tile's hand-over in it: SOT 1 goes back and
    forth between two layouts while four scanners keep it resident at every
    depth (so every re-tile has frames to hand over, and scans resume from
    them).  The layouts' boundary artifacts differ, so each scan's SOT 1 part
    must be, whole, what a cache-less TASM decodes under one of the two — a
    raster kept from the other encoding, or seeded before the invalidation,
    would show as a mix."""
    tasm = indexed(build(cache_bytes=CACHE_BYTES))
    layouts = [resolve(tasm, 1, "2x2"), resolve(tasm, 1, set(LABELS))]
    scans = [
        Query(VIDEO.name, LabelPredicate.any_of(LABELS), TemporalPredicate.between(3, stop))
        for stop in (7, 9, 10, 12)
    ]

    def sot_1(result) -> list[tuple]:
        return [region for region in regions_of(result) if 5 <= region[0] < 10]

    allowed: dict[Query, list] = {query: [] for query in scans}
    for layout in layouts:
        reference = indexed(build())
        reference.retile_sot(VIDEO.name, 1, layout)
        for query in scans:
            allowed[query].append(sot_1(reference.execute(query)))
    assert all(one != other for one, other in allowed.values())  # the encodings do differ
    tasm.retile_sot(VIDEO.name, 1, layouts[1])

    seeded = []
    put = tasm.tile_cache.put
    retiler = threading.get_ident()

    def recording_put(key, frames, token):
        if threading.get_ident() == retiler:  # this thread only re-tiles: a hand-over
            seeded.append(key)
        return put(key, frames, token)

    monkeypatch.setattr(tasm.tile_cache, "put", recording_put)
    failures, retiling = [], threading.Event()
    retiling.set()

    def scanner(offset: int):
        try:
            while retiling.is_set():
                for query in scans[offset:] + scans[:offset]:
                    assert sot_1(tasm.execute(query)) in allowed[query], query.describe()
                for query, result in zip(scans[:2], tasm.execute_batch(scans[:2]).results):
                    assert sot_1(result) in allowed[query], query.describe()
        except BaseException as error:  # reported by the assertion below
            failures.append(error)

    scanners = [threading.Thread(target=scanner, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in scanners:
            thread.start()
        retiles = 0
        while retiles < RETILES and not failures:
            tasm.retile_sot(VIDEO.name, 1, layouts[retiles % 2])
            retiles += 1
            time.sleep(0.005)  # let the scanners make the new tiles resident
    finally:
        retiling.clear()
        for thread in scanners:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not failures and not any(thread.is_alive() for thread in scanners)
    assert retiles > 4 and len(seeded) > retiles  # the hand-over was on
    for query in scans:
        check(tasm, [query])
    # ... and what it seeds is served: filed after the invalidation, under the
    # new tiles' checksums, one more re-tile leaves nothing for a scan to decode.
    tasm.retile_sot(VIDEO.name, 1, layouts[retiles % 2])
    assert tasm.execute(scans[-1]).pixels_decoded == 0
    check(tasm, scans[-1:])
