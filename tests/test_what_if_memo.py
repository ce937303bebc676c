"""The what-if memo answers exactly what a memo-less TASM would, and stays small.

``TASM.layout_around`` and ``TASM.estimate_sot_query_cost`` keep their answers
per SOT until the semantic index's write generation for the SOT's frames
moves.  The property: under any interleaving of index writes (through TASM,
or straight into the index), re-tiles and what-if questions, every answer
equals the one a TASM with an empty memo computes from the same index at that
moment.  The bound: a SOT's answers are capped, and
dropped together when its generation moves.

An estimate is read off a per-``(SOT, predicate, layout)`` cost table, so a
second property asks random windows — cut by SOT boundaries, inside one GOP of
a two-GOP SOT, across both — between writes and re-tiles, and holds every
answer against the rectangle-scan oracle of ``tests/test_layout_properties.py``
over the window's own index lookup: no memo, no table.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CodecConfig, TasmConfig
from repro.core import tasm as tasm_module
from repro.core.cost import CostEstimate, CostModel
from repro.core.predicates import LabelPredicate, TemporalPredicate
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.detection.base import Detection
from repro.geometry import BoundingBox
from repro.index import BTreeSemanticIndex, IndexEntry
from repro.tiles.layout import uniform_layout, untiled_layout
from repro.tiles.partitioner import TileGranularity

from tests.conftest import build_tiny_video
from tests.test_layout_properties import scan_query_cost

LABELS = ("car", "person", "sign")
VIDEO = build_tiny_video()  # 128x96, 15 frames: three 5-frame SOTs
CONFIG = TasmConfig(
    codec=CodecConfig(gop_frames=5, frame_rate=5, block_size=8, min_tile_width=16, min_tile_height=16)
)
SOTS = st.integers(0, 2)
label_sets = st.sets(st.sampled_from(LABELS), min_size=1)


@st.composite
def detections(draw) -> Detection:
    x1, y1 = draw(st.integers(-8, 120)), draw(st.integers(-8, 90))
    box = BoundingBox(x1, y1, x1 + draw(st.integers(0, 60)), y1 + draw(st.integers(0, 50)))
    return Detection(draw(st.integers(0, 14)), draw(st.sampled_from(LABELS)), box)


predicates = st.one_of(
    st.sampled_from(LABELS).map(LabelPredicate.single),
    label_sets.map(LabelPredicate.any_of),
    label_sets.map(lambda chosen: LabelPredicate.all_of(sorted(chosen))),
)
windows = st.one_of(
    st.just(TemporalPredicate.everything()),
    st.tuples(st.integers(0, 13), st.integers(1, 8)).map(
        lambda drawn: TemporalPredicate.between(drawn[0], drawn[0] + drawn[1])
    ),
)
#: How an op names a layout: the SOT's current one, fixed grids, or "whatever
#: ``layout_around`` says for these labels right now".
layout_choices = st.one_of(st.sampled_from(["current", "untiled", "2x2"]), label_sets)
GRANULARITIES = (None, TileGranularity.FINE, TileGranularity.COARSE)

operations = st.one_of(
    st.tuples(st.just("add_metadata"), detections()),
    st.tuples(st.just("add_detections"), st.lists(detections(), max_size=3)),
    st.tuples(st.just("index.add"), detections()),  # a writer that goes around TASM
    st.tuples(st.just("retile"), SOTS, layout_choices),
    st.tuples(st.just("layout_around"), SOTS, label_sets),
    st.tuples(st.just("estimate"), SOTS, predicates, windows, layout_choices),
)


def fresh_over(tasm: TASM) -> TASM:
    """A TASM with nothing memoised, reading the very same index."""
    reference = TASM(tasm.config, semantic_index=tasm.semantic_index)
    reference.ingest(VIDEO)
    return reference


def resolve(tasm: TASM, sot_index: int, choice):
    if choice == "current":
        return tasm.video(VIDEO.name).layout_for(sot_index)
    if choice == "untiled":
        return untiled_layout(VIDEO.width, VIDEO.height)
    if choice == "2x2":
        return uniform_layout(VIDEO.width, VIDEO.height, 2, 2, tasm.config.codec.block_size)
    return fresh_over(tasm).layout_around(VIDEO.name, sot_index, choice)


def ask(tasm: TASM, question) -> None:
    """Put a what-if question to ``tasm`` and to a memo-less TASM (a new one
    per answer), once per value of the key components most easily forgotten —
    the granularity; the layout and either end of the window — and compare."""
    kind, sot_index, *arguments = question
    if kind == "layout_around":
        for granularity in GRANULARITIES:
            expected = fresh_over(tasm).layout_around(
                VIDEO.name, sot_index, arguments[0], granularity
            )
            assert tasm.layout_around(VIDEO.name, sot_index, arguments[0], granularity) == expected
        return
    predicate, window, drawn_choice = arguments
    start, stop = window.resolve(VIDEO.frame_count)
    for temporal in (window, TemporalPredicate.at(start), TemporalPredicate.at(stop - 1)):
        query = Query(VIDEO.name, predicate, temporal)
        for choice in ("current", "untiled", "2x2", drawn_choice):
            explicit = resolve(tasm, sot_index, choice)  # the reference holds no re-tiles
            layout = None if choice == "current" else explicit
            expected = fresh_over(tasm).estimate_sot_query_cost(
                VIDEO.name, sot_index, query, explicit
            )
            assert tasm.estimate_sot_query_cost(VIDEO.name, sot_index, query, layout) == expected


def write(tasm: TASM, operation) -> None:
    kind, *arguments = operation
    if kind == "add_metadata":
        (d,) = arguments
        tasm.add_metadata(VIDEO.name, d.frame_index, d.label, d.box.x1, d.box.y1, d.box.x2, d.box.y2)
    elif kind == "add_detections":
        tasm.add_detections(VIDEO.name, arguments[0])
    elif kind == "index.add":
        tasm.semantic_index.add(IndexEntry.from_detection(VIDEO.name, arguments[0]))
    else:
        sot_index, choice = arguments
        tasm.retile_sot(VIDEO.name, sot_index, resolve(tasm, sot_index, choice))


@given(indexed_frames=st.sets(st.integers(0, 14)), program=st.lists(operations, min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_every_answer_equals_a_memo_less_computation(indexed_frames, program):
    tasm = TASM(CONFIG)
    tasm.ingest(VIDEO)
    tasm.add_detections(VIDEO.name, [d for f in sorted(indexed_frames) for d in VIDEO.ground_truth(f)])
    asked = []
    for operation in program:
        if operation[0] in ("layout_around", "estimate"):
            asked.append(operation)
            ask(tasm, operation)
            ask(tasm, operation)  # now from the memo, whatever the first did
        else:
            write(tasm, operation)
            for question in asked:  # whatever was memoised must survive the write, or go
                ask(tasm, question)


#: Any window of the 15 frames, and one past their end.
any_window = st.tuples(st.integers(0, 14), st.integers(1, 16)).map(
    lambda drawn: TemporalPredicate.between(drawn[0], drawn[0] + drawn[1])
)
window_operations = st.one_of(
    st.tuples(st.just("add_metadata"), detections()),
    st.tuples(st.just("index.add"), detections()),
    st.tuples(st.just("retile"), SOTS, layout_choices),
    st.tuples(st.just("window"), predicates, any_window, layout_choices),
)


#: Three one-GOP SOTs, and a two-GOP SOT followed by a one-GOP one.
sot_shapes = pytest.mark.parametrize("sot_frames", [None, 10])


def selected(tasm: TASM, predicate: LabelPredicate, start: int, stop: int) -> dict:
    """What the index says ``predicate`` selects on frames ``[start, stop)``,
    frame by frame: the lookup no memo stands in front of."""
    by_frame = tasm._regions_by_frame(VIDEO.name, predicate, start, stop)
    return {frame: by_frame[frame] for frame in sorted(by_frame)}


def write_within(tasm: TASM, operation) -> None:
    """``write``, with a re-tile's SOT wrapped into the SOTs this shape has."""
    if operation[0] == "retile":
        operation = ("retile", operation[1] % tasm.video(VIDEO.name).sot_count, operation[2])
    write(tasm, operation)


@sot_shapes
@given(indexed_frames=st.sets(st.integers(0, 14)), program=st.lists(window_operations, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_every_window_costs_what_the_cost_model_says_of_its_own_lookup(
    sot_frames, indexed_frames, program
):
    tasm = TASM(CONFIG.with_updates(sot_frames=sot_frames))
    tiled = tasm.ingest(VIDEO)
    tasm.add_detections(VIDEO.name, [d for f in sorted(indexed_frames) for d in VIDEO.ground_truth(f)])
    model, gop_frames = CostModel(tasm.config), tasm.config.codec.gop_frames

    def check(predicate, window, drawn_choice) -> None:
        query = Query(VIDEO.name, predicate, window)
        start, stop = window.resolve(VIDEO.frame_count)
        for sot_index in range(tiled.sot_count):
            sot_start, sot_stop = tiled.frame_range(sot_index)
            boxes = selected(tasm, predicate, max(start, sot_start), min(stop, sot_stop))
            for choice in ("current", "untiled", "2x2", drawn_choice):
                layout = resolve(tasm, sot_index, choice)
                expected = CostEstimate(*scan_query_cost(model, layout, boxes, gop_frames))
                asked = None if choice == "current" else layout
                assert tasm.estimate_sot_query_cost(VIDEO.name, sot_index, query, asked) == expected

    asked: list[tuple] = []
    for operation in program:
        if operation[0] == "window":
            asked.append(operation[1:])
            check(*asked[-1])
        else:
            write_within(tasm, operation)
            for window in asked[-2:]:  # a write or a re-tile between two windows of a SOT
                check(*window)


def test_a_sots_answers_are_capped_and_dropped_when_its_generation_moves(monkeypatch):
    monkeypatch.setattr(tasm_module, "_WHAT_IF_ANSWERS_PER_SOT", 8)
    tasm = TASM(CONFIG)
    tasm.ingest(VIDEO)
    tasm.add_detections(VIDEO.name, [d for f in range(15) for d in VIDEO.ground_truth(f)])

    def answers(sot_index: int) -> dict:
        return tasm._what_if[VIDEO.name, sot_index][1]

    # A long-running server: a window adds nothing to what estimates keep (the
    # predicate's frame table and one cost table per layout) ...
    windows = [(start, stop) for start in range(5) for stop in range(start + 1, 6)]
    for start, stop in windows:
        tasm.estimate_sot_query_cost(
            VIDEO.name, 0, Query.select_range("car", VIDEO.name, start, stop)
        )
    car = Query.select("car", VIDEO.name).predicate
    assert set(answers(0)) == {(car, 0, 5), (car, tasm.video(VIDEO.name).layout_for(0))}
    # ... and to what scans keep, one piece: every distinct window is a new question.
    for start, stop in windows:
        tasm.execute(Query.select_range("car", VIDEO.name, start, stop))
    assert len(answers(0)) == 8  # 15 distinct windows asked, the newest 8 answers kept
    assert (car, 4, 5) in answers(0)

    tasm.layout_around(VIDEO.name, 1, ["car"])
    before = answers(1)
    tasm.add_metadata(VIDEO.name, 12, "car", 0, 0, 10, 10)  # SOT 2: not SOT 1's frames
    tasm.layout_around(VIDEO.name, 1, ["person"])
    assert answers(1) is before and len(before) == 2
    tasm.add_metadata(VIDEO.name, 7, "car", 0, 0, 10, 10)  # SOT 1
    tasm.layout_around(VIDEO.name, 1, ["person"])
    assert answers(1) is not before and len(answers(1)) == 1
    assert len(tasm._what_if) == 2  # one slot per SOT asked about, never per question


class WriteLandsAfterTheRead(BTreeSemanticIndex):
    """The losing interleaving, made deterministic: the first ``lookup`` has
    read its entries when a racing writer's entry becomes visible."""

    racing: IndexEntry | None = None

    def lookup(self, *args, **kwargs):
        entries = super().lookup(*args, **kwargs)
        if self.racing is not None:
            racing, self.racing = self.racing, None
            self.add(racing)
        return entries


def test_an_answer_computed_across_a_write_is_not_kept():
    index = WriteLandsAfterTheRead()
    tasm = TASM(CONFIG, semantic_index=index)
    tasm.ingest(VIDEO)
    tasm.add_detections(VIDEO.name, VIDEO.ground_truth(2))
    query = Query.select("car", VIDEO.name)
    grid = resolve(tasm, 0, "2x2")
    for frame, question in (
        (3, lambda t: t.layout_around(VIDEO.name, 0, ["car"])),
        (4, lambda t: t.estimate_sot_query_cost(VIDEO.name, 0, query, grid)),
    ):
        index.racing = IndexEntry(VIDEO.name, "car", frame, BoundingBox(90, 60, 120, 90))
        question(tasm)  # read the index before the write, finished after it
        assert index.racing is None
        assert question(tasm) == question(fresh_over(tasm))


def test_askers_racing_a_writer_never_keep_a_stale_answer(monkeypatch):
    """Three askers against one writer, a 4-answer cap so evictions race too.
    The what-if questions take no video lock, so an asker's index reads
    interleave with the writer's writes; an answer computed across a write is
    filed under the generation read before it, so after each write every
    answer about the written SOT must equal a memo-less one, whatever the
    askers were in the middle of."""
    monkeypatch.setattr(tasm_module, "_WHAT_IF_ANSWERS_PER_SOT", 4)
    tasm = TASM(CONFIG)
    tasm.ingest(VIDEO)
    questions = [
        ("layout_around", sot, labels) for sot in range(3) for labels in (("car",), LABELS)
    ] + [
        ("estimate", sot, LabelPredicate.any_of(LABELS), TemporalPredicate.everything(), "2x2")
        for sot in range(3)
    ]
    failures, writing = [], threading.Event()
    writing.set()

    def asker():
        try:
            while writing.is_set():
                for kind, sot_index, *arguments in questions:
                    if kind == "layout_around":
                        tasm.layout_around(VIDEO.name, sot_index, arguments[0])
                    else:
                        query = Query(VIDEO.name, arguments[0], arguments[1])
                        tasm.estimate_sot_query_cost(
                            VIDEO.name, sot_index, query, resolve(tasm, sot_index, "2x2")
                        )
        except Exception as error:  # reported by the assertion below
            failures.append(error)

    askers = [threading.Thread(target=asker) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in askers:
            thread.start()
        # Each of the scene's 45 detections is one writer step.
        for frame in range(VIDEO.frame_count):
            for detection in VIDEO.ground_truth(frame):
                tasm.add_detections(VIDEO.name, [detection])
                for question in questions:
                    if question[1] == frame // 5:
                        ask(tasm, question)
    finally:
        writing.clear()
        for thread in askers:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not failures and not any(thread.is_alive() for thread in askers)
    assert all(len(slot[1]) <= 4 for slot in tasm._what_if.values())
