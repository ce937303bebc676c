"""Tests for the semantic index (repro.index)."""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detection.base import Detection
from repro.errors import IndexError_
from repro.geometry import BoundingBox
from repro.index import BTreeSemanticIndex, IndexEntry


@pytest.fixture
def index() -> BTreeSemanticIndex:
    return BTreeSemanticIndex()


def entry(video="v", label="car", frame=0, box=(0, 0, 10, 10)) -> IndexEntry:
    return IndexEntry(video=video, label=label, frame_index=frame, box=BoundingBox(*box))


def detection(frame, label="car") -> Detection:
    return Detection(frame_index=frame, label=label, box=BoundingBox(0, 0, 5, 5))


class TestAddAndLookup:
    def test_lookup_by_label(self, index):
        index.add(entry(label="car", frame=1))
        index.add(entry(label="car", frame=3))
        index.add(entry(label="person", frame=2))
        cars = index.lookup("v", "car")
        assert len(cars) == 2
        assert all(item.label == "car" for item in cars)

    def test_lookup_respects_frame_range(self, index):
        for frame in (9, 3, 0, 7, 5, 1, 8, 2, 6, 4):
            index.add(entry(frame=frame))
        in_range = index.lookup("v", "car", frame_start=3, frame_stop=7)
        assert [item.frame_index for item in in_range] == [3, 4, 5, 6]
        assert [item.frame_index for item in index.lookup("v", "car", frame_stop=2)] == [0, 1]
        assert [item.frame_index for item in index.lookup("v", "car", frame_start=8)] == [8, 9]
        assert index.lookup("v", "car", 6, 3) == []

    def test_duplicate_frames_come_back_in_insertion_order(self, index):
        boxes = [(x, 0, x + 4, 4) for x in range(6)]
        for box in boxes[:3]:
            index.add(entry(frame=5, box=box))
        index.add(entry(frame=2))
        index.add_detections(
            "v", [Detection(5, "car", BoundingBox(*box)) for box in boxes[3:]]
        )
        index.add(entry(frame=9))
        stored = index.lookup("v", "car")
        assert [item.frame_index for item in stored] == [2, 5, 5, 5, 5, 5, 5, 9]
        assert [item.box for item in stored[1:7]] == [BoundingBox(*box) for box in boxes]

    def test_lookup_unknown_label_is_empty(self, index):
        index.add(entry())
        assert index.lookup("v", "bicycle") == []
        assert index.lookup("missing", "car") == []

    def test_lookup_is_scoped_to_video(self, index):
        index.add(entry(video="a"))
        index.add(entry(video="b"))
        assert len(index.lookup("a", "car")) == 1

    def test_a_lookup_is_a_copy(self, index):
        index.add(entry(frame=1))
        index.lookup("v", "car").clear()
        assert len(index.lookup("v", "car")) == 1

    def test_add_detections_bulk(self, index):
        assert index.add_detections("v", [detection(i) for i in range(5)]) == 5
        assert index.count("v") == 5

    def test_entries_preserve_boxes_and_confidence(self, index):
        index.add(
            IndexEntry(
                video="v",
                label="car",
                frame_index=4,
                box=BoundingBox(1.5, 2.5, 10.25, 20.75),
                confidence=0.625,
            )
        )
        stored = index.lookup("v", "car")[0]
        assert stored.box == BoundingBox(1.5, 2.5, 10.25, 20.75)
        assert stored.confidence == pytest.approx(0.625)

    def test_index_entry_from_detection(self):
        found = Detection(frame_index=3, label="car", box=BoundingBox(0, 0, 4, 4), confidence=0.5)
        assert IndexEntry.from_detection("v", found) == IndexEntry(
            "v", "car", 3, BoundingBox(0, 0, 4, 4), 0.5
        )


def frames_of(entries: list[IndexEntry]) -> list[int]:
    return [item.frame_index for item in entries]


class TestRangeScans:
    @staticmethod
    def build(index: BTreeSemanticIndex) -> BTreeSemanticIndex:
        for frame in range(100):
            index.add(entry(frame=frame, box=(frame, 0, frame + 4, 4)))
        return index

    def test_empty_index(self, index):
        assert index.lookup("v", "car") == []
        assert index.lookup("v", "car", 0, 10) == []
        assert index.count("v") == 0
        assert index.labels("v") == set()
        assert index.generation("v", 0, 10) == 0

    def test_bounded_range(self, index):
        found = self.build(index).lookup("v", "car", 10, 20)
        assert frames_of(found) == list(range(10, 20))
        assert [item.box for item in found] == [
            BoundingBox(frame, 0, frame + 4, 4) for frame in range(10, 20)
        ]

    def test_open_ended_ranges(self, index):
        self.build(index)
        assert frames_of(index.lookup("v", "car", frame_stop=5)) == [0, 1, 2, 3, 4]
        assert frames_of(index.lookup("v", "car", frame_start=95)) == [95, 96, 97, 98, 99]
        assert frames_of(index.lookup("v", "car", None, None)) == list(range(100))

    def test_empty_ranges(self, index):
        self.build(index)
        index.add(entry(label="person", frame=2))
        index.add(entry(label="person", frame=8))
        assert index.lookup("v", "car", 50, 50) == []
        assert index.lookup("v", "car", 200, 300) == []
        assert index.lookup("v", "person", 3, 8) == []
        assert index.lookup("v", "person", 0, 2) == []

    def test_a_start_before_frame_zero_starts_at_frame_zero(self, index):
        self.build(index)
        assert frames_of(index.lookup("v", "car", -5, 3)) == [0, 1, 2]

    def test_bounds_fall_between_duplicate_frames(self, index):
        for frame in (1, 3, 3, 3, 5, 5, 7):
            index.add(entry(frame=frame))
        assert frames_of(index.lookup("v", "car", 3, 5)) == [3, 3, 3]
        assert frames_of(index.lookup("v", "car", 3, 6)) == [3, 3, 3, 5, 5]
        assert frames_of(index.lookup("v", "car", 4, 7)) == [5, 5]
        assert frames_of(index.lookup("v", "car", 2, 8)) == [3, 3, 3, 5, 5, 7]

    def test_labels_and_videos_do_not_interleave(self, index):
        for frame in range(6):
            for video in ("a", "b"):
                for label in ("car", "person"):
                    index.add(entry(video=video, label=label, frame=frame))
        found = index.lookup("a", "car", 1, 4)
        assert [(item.video, item.label, item.frame_index) for item in found] == [
            ("a", "car", frame) for frame in (1, 2, 3)
        ]

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_any_write_order_reads_back_by_frame(self, index, order):
        frames = {
            "ascending": list(range(200)),
            "descending": list(range(199, -1, -1)),
            "shuffled": random.Random(1).sample(range(200), 200),
        }[order]
        for frame in frames:
            index.add(entry(frame=frame, box=(frame, 0, frame + 4, 4)))
        stored = index.lookup("v", "car")
        assert frames_of(stored) == list(range(200))
        assert all(item.box.x1 == item.frame_index for item in stored)


class TestWritesAreCheckedBeforeTheyLand:
    def test_negative_frame_rejected(self, index):
        with pytest.raises(IndexError_):
            index.add(entry(frame=-1))

    @pytest.mark.parametrize("frame", [3.5, 3.0, "3", None, np.float64(3.0)])
    def test_a_frame_that_is_not_an_integer_is_refused(self, index, frame):
        with pytest.raises(IndexError_):
            index.add(entry(frame=frame))
        assert index.count("v") == 0 and index.labels("v") == set()

    def test_a_numpy_integer_frame_is_accepted(self, index):
        index.add(entry(frame=np.int64(3)))
        assert frames_of(index.lookup("v", "car", 3, 4)) == [3]
        assert index.generation("v", 3, 4) == 1

    @pytest.mark.parametrize("refused_at", [0, 3, 4])
    def test_a_refused_bulk_write_stores_nothing(self, index, refused_at):
        index.add(entry(frame=8))
        before = index.generation("v", 0, 10)
        frames = [0, 1, 2, 3, 4]
        frames[refused_at] = -1
        with pytest.raises(IndexError_):
            index.add_detections("v", [detection(frame) for frame in frames])
        assert index.count("v") == 1
        assert index.generation("v", 0, 10) == before
        assert frames_of(index.lookup("v", "car")) == [8]

    def test_a_bulk_write_takes_any_iterable(self, index):
        written = index.add_detections("v", (detection(frame) for frame in (4, 1, 2)))
        assert written == 3
        assert frames_of(index.lookup("v", "car")) == [1, 2, 4]

    def test_an_empty_bulk_write_writes_nothing(self, index):
        assert index.add_detections("v", []) == 0
        assert index.count("v") == 0
        assert index.labels("v") == set()
        assert index.generation("v", 0, 100) == 0


class TestMetadataQueries:
    def test_labels(self, index):
        index.add(entry(label="car"))
        index.add(entry(label="person"))
        index.add(entry(video="other", label="bird"))
        assert index.labels("v") == {"car", "person"}
        assert index.labels("missing") == set()

    def test_count(self, index):
        index.add(entry(video="a"))
        index.add(entry(video="a"))
        index.add(entry(video="b"))
        assert index.count("a") == 2
        assert index.count("missing") == 0

    def test_count_sums_every_label(self, index):
        index.add_detections("v", [detection(0), detection(1, "person"), detection(1, "sign")])
        index.add(entry(label="person", frame=7))
        assert index.count("v") == 4

    def test_labels_is_a_copy(self, index):
        index.add(entry(label="car"))
        index.labels("v").add("person")
        assert index.labels("v") == {"car"}
        assert index.lookup("v", "person") == []

    def test_generation_moves_with_writes_to_its_frames_only(self, index):
        assert index.generation("v", 0, 10) == 0
        index.add(entry(frame=3))
        index.add_detections("v", [detection(3, "person"), detection(12)])
        assert index.generation("v", 0, 10) == 2
        assert index.generation("v", 10, 20) == 1
        assert index.generation("v", 4, 10) == 0
        assert index.generation("other", 0, 20) == 0

    def test_generation_counts_a_rewritten_box_again(self, index):
        index.add(entry(frame=5))
        index.add(entry(frame=5))
        assert index.generation("v", 0, 10) == 2
        assert index.generation("v", 5, 5) == 0
        assert frames_of(index.lookup("v", "car")) == [5, 5]


#: One write: (video, label, frames, whether the frames go in as one bulk write).
writes = st.tuples(
    st.sampled_from(["a", "b"]),
    st.sampled_from(["car", "person"]),
    st.lists(st.integers(0, 30), min_size=1, max_size=5),
    st.booleans(),
)
bounds = st.none() | st.integers(-2, 32)


@settings(max_examples=60, deadline=None)
@given(program=st.lists(writes, max_size=30), ranges=st.lists(st.tuples(bounds, bounds), max_size=6))
def test_the_index_matches_a_reference_list(program, ranges):
    """Every lookup is the reference's entries for (video, label) in the range,
    stably sorted by frame (so equal frames keep their write order), and
    ``count``, ``labels`` and ``generation`` are what the reference says."""
    index = BTreeSemanticIndex()
    reference: list[IndexEntry] = []
    for video, label, frames, bulk in program:
        written = [
            IndexEntry(video, label, frame, BoundingBox(n, 0, n + 1, 1))
            for n, frame in enumerate(frames, len(reference))
        ]
        if bulk:
            index.add_detections(
                video, [Detection(item.frame_index, label, item.box) for item in written]
            )
        else:
            for item in written:
                index.add(item)
        reference.extend(written)

    def within(item: IndexEntry, start, stop) -> bool:
        return (start is None or item.frame_index >= start) and (
            stop is None or item.frame_index < stop
        )

    for video in ("a", "b"):
        mine = [item for item in reference if item.video == video]
        assert index.count(video) == len(mine)
        assert index.labels(video) == {item.label for item in mine}
        for start, stop in [(None, None), *ranges]:
            for label in ("car", "person"):
                expected = sorted(
                    (item for item in mine if item.label == label and within(item, start, stop)),
                    key=lambda item: item.frame_index,
                )
                assert index.lookup(video, label, start, stop) == expected
            if start is not None and stop is not None:
                assert index.generation(video, start, stop) == sum(
                    within(item, start, stop) for item in mine
                )


def race(check, write, readers: int = 2) -> None:
    """Run ``check(rng)`` over and over on ``readers`` threads while ``write()``
    runs on this one, with the interpreter switching threads as often as it
    can; fail with the first error a reader saw."""
    failures, writing = [], threading.Event()
    writing.set()

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        try:
            while writing.is_set():
                check(rng)
        except Exception as error:  # reported by the assertion below
            failures.append(error)

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        write()
    finally:
        writing.clear()
        for thread in threads:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not failures, failures[:1]
    assert not any(thread.is_alive() for thread in threads)


def test_readers_racing_a_writer_see_whole_sorted_ranges():
    """Two readers scan ranges while one writer adds shuffled frames: every
    lookup returns, and what it returns is in its range, by frame, each frame
    once (each frame is written once)."""
    frames = list(range(4000))
    random.Random(7).shuffle(frames)
    index = BTreeSemanticIndex()

    def check(rng: random.Random) -> None:
        start = rng.randrange(4000)
        stop = start + rng.randrange(1, 400)
        found = frames_of(index.lookup("v", "car", start, stop))
        assert all(start <= frame < stop for frame in found), (start, stop)
        assert all(a < b for a, b in zip(found, found[1:])), (start, stop)

    def write() -> None:
        for frame in frames:
            index.add(entry(frame=frame))

    race(check, write)
    assert frames_of(index.lookup("v", "car")) == list(range(4000))


def test_a_lookup_sees_all_or_none_of_a_bulk_write():
    """Each bulk write puts one box on every frame in [0, 50); a lookup over
    any part of that range holds, per write, a box on every frame of the part
    or on none, and equal frames come back in write order."""
    index = BTreeSemanticIndex()

    def check(rng: random.Random) -> None:
        start = rng.randrange(50)
        stop = start + rng.randrange(1, 51 - start)
        found = index.lookup("v", "car", start, stop)
        writes = [item.box.x1 for item in found]
        assert len(found) % (stop - start) == 0, (start, stop, len(found))
        per_frame = len(found) // (stop - start)
        assert writes == list(range(per_frame)) * (stop - start), (start, stop)

    def write() -> None:
        for n in range(300):
            index.add_detections(
                "v", [Detection(frame, "car", BoundingBox(n, 0, n + 1, 1)) for frame in range(50)]
            )

    race(check, write)
    assert index.count("v") == 300 * 50


def test_a_lookup_is_bracketed_by_the_generations_read_around_it():
    """The what-if and scan memos rely on this: with each frame written once,
    a range's generation read before a lookup is at most what the lookup
    returns, and one read after it at least that."""
    frames = list(range(3000))
    random.Random(3).shuffle(frames)
    index = BTreeSemanticIndex()

    def check(rng: random.Random) -> None:
        start = rng.randrange(3000)
        stop = start + rng.randrange(1, 300)
        before = index.generation("v", start, stop)
        found = index.lookup("v", "car", start, stop)
        after = index.generation("v", start, stop)
        assert before <= len(found) <= after, (start, stop, before, len(found), after)

    def write() -> None:
        for frame in frames:
            index.add(entry(frame=frame))

    race(check, write)
    assert index.generation("v", 0, 3000) == 3000


def test_writers_racing_each_other_lose_no_entry():
    """Four writers add interleaved frames, one at a time and in bulk: every
    entry lands once, and the lists stay sorted."""
    index = BTreeSemanticIndex()

    def writer(first: int) -> None:
        frames = range(first, 2000, 4)
        for frame in frames[:250]:
            index.add(entry(frame=frame))
        index.add_detections("v", [detection(frame) for frame in frames[250:]])

    threads = [threading.Thread(target=writer, args=(first,)) for first in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert frames_of(index.lookup("v", "car")) == list(range(2000))
    assert index.count("v") == 2000
    assert index.generation("v", 0, 2000) == 2000
