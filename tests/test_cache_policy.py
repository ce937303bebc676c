"""The decode cache's eviction policy: LFU with dynamic aging (LFU-DA).

An entry counts its reads (1 for its first put, one more per ``get`` hit; a
deeper re-put of the same decode keeps its count) and ranks at
``age + count``, set on every put and hit.  An over-full cache evicts the
lowest rank, oldest first among ties, never the entry being put, and raises
``age`` to each victim's rank.  ``demote`` ranks an entry below every other
until its next put or hit.  The examples pin each rule; a state machine pins
all of them, step by step, against a reference model that orders entries by
an explicit tick instead of the cache's ``OrderedDict``; four threads pin the
byte bound under contention; and a clock-free budget pins what the policy
saves on a W3 scene whose cache holds a third of its working set (the LRU
order it replaced decoded 11,265,792 pixels there).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config import CodecConfig, TasmConfig
from repro.core.tasm import TASM
from repro.datasets import visual_road_scene
from repro.exec import TileDecodeCache
from repro.workloads import workload_3

FRAME = np.zeros((10, 100), dtype=np.uint8)  # 1000 bytes


def key(tile: int) -> tuple[str, int, int]:
    return ("v", 0, tile)


def put(cache: TileDecodeCache, tile: int, frames: int = 1) -> bool:
    return cache.put(key(tile), [FRAME] * frames, token=(tile,))


def read(cache: TileDecodeCache, tile: int, times: int = 1) -> None:
    for _ in range(times):
        assert cache.get(key(tile), min_depth=0, token=(tile,)) is not None


def held(cache: TileDecodeCache) -> set[int]:
    return {tile for tile in range(64) if key(tile) in cache}


# ----------------------------------------------------------------------
# The rules, one example each
# ----------------------------------------------------------------------
def test_an_entry_read_twice_outlives_a_newer_entry_read_once():
    cache = TileDecodeCache(capacity_bytes=3 * FRAME.nbytes)
    put(cache, 0)
    read(cache, 0)
    put(cache, 1)
    put(cache, 2)
    put(cache, 3)  # least recently used: 0; least read: 1
    assert held(cache) == {0, 2, 3}


def test_a_resumed_decode_keeps_its_count():
    cache = TileDecodeCache(capacity_bytes=4 * FRAME.nbytes)
    put(cache, 0)
    read(cache, 0, times=2)
    put(cache, 0, frames=2)  # decoded deeper: the same decode, read three times
    put(cache, 1)
    put(cache, 2)  # full; the next put evicts the least read
    assert (held(cache), cache.stats.evictions) == ({0, 1, 2}, 0)
    put(cache, 3)
    assert held(cache) == {0, 2, 3}


def test_a_formerly_hot_entry_ages_out_so_the_cache_cannot_freeze():
    """Plain LFU would keep an entry read 20 times for good; LFU-DA's age
    rises with every victim, so newer entries read twice overtake it."""
    cache = TileDecodeCache(capacity_bytes=3 * FRAME.nbytes)
    put(cache, 0)
    read(cache, 0, times=20)
    newcomers = 0
    while key(0) in cache:
        newcomers += 1
        assert newcomers < 40, "the hot entry never aged out"
        put(cache, newcomers)
        read(cache, newcomers)
    # It outlived many newcomers first: its reads were worth something.
    assert newcomers > 10
    assert cache._age >= 20


def test_the_entry_being_put_is_never_its_own_victim():
    cache = TileDecodeCache(capacity_bytes=3 * FRAME.nbytes)
    for tile in range(3):
        put(cache, tile)
        read(cache, tile, times=5)
    put(cache, 3)  # ranks lowest of all four, yet stays
    assert held(cache) == {1, 2, 3}
    assert cache.stats.evictions == 1


def test_a_demoted_entry_goes_first_until_a_hit():
    cache = TileDecodeCache(capacity_bytes=3 * FRAME.nbytes)
    for tile in range(3):
        put(cache, tile)
        read(cache, tile, times=3 - tile)  # 0 is read most, 2 least
    cache.demote(key(0))
    cache.demote(key(9))  # not held: nothing happens
    put(cache, 3)
    assert held(cache) == {1, 2, 3}

    cache.demote(key(1))
    read(cache, 1)  # the hit ranks it again: 3, read once, is the lowest
    put(cache, 4)
    assert held(cache) == {1, 2, 4}
    assert cache.stats.evictions == 2


# ----------------------------------------------------------------------
# Every rule at once, against a reference model
# ----------------------------------------------------------------------
#: Room for two to four entries of one to three frames, among six keys read
#: mostly under one token: enough hits, re-puts and evictions that a broken
#: rule shows within a few dozen steps.
CAPACITY = 400
SMALL = np.zeros((4, 25), dtype=np.uint8)  # 100 bytes
KEYS = [("a", sot, tile) for sot in (0, 1) for tile in (0, 1, 2)]
TOKENS = st.sampled_from([(1,), (1,), (1,), (2, 2)])


class ModelCache:
    """The rules as written: ``key -> [token, depth, count, priority, tick]``,
    where ``tick`` says when the entry was last put or hit."""

    def __init__(self):
        self.entries: dict = {}
        self.age = 0.0
        self.tick = 0
        self.evictions = self.bytes_evicted = 0

    @staticmethod
    def nbytes(depth: int) -> int:
        return (depth + 1) * SMALL.nbytes

    def get(self, key, min_depth, token) -> bool:
        entry = self.entries.get(key)
        if entry is not None and entry[0] != token:
            del self.entries[key]
            return False
        if entry is None or entry[1] < min_depth:
            return False
        self.tick += 1
        entry[2] += 1
        entry[3:] = [self.age + entry[2], self.tick]
        return True

    def held(self, key, token) -> int | None:
        entry = self.entries.get(key)
        return entry[1] if entry is not None and entry[0] == token else None

    def put(self, key, depth, token) -> bool:
        if self.nbytes(depth) > CAPACITY:
            return False
        old = self.entries.get(key)
        count = old[2] if old is not None and old[0] == token else 1
        self.tick += 1
        self.entries[key] = [token, depth, count, self.age + count, self.tick]
        while self.current_bytes > CAPACITY:
            victim = min(
                (other for other in self.entries if other != key),
                key=lambda other: self.entries[other][3:],
            )
            _, victim_depth, _, priority, _ = self.entries.pop(victim)
            self.age = max(self.age, priority)
            self.evictions += 1
            self.bytes_evicted += self.nbytes(victim_depth)
        return True

    def demote(self, key) -> None:
        if key in self.entries:
            self.entries[key][3] = float("-inf")

    def invalidate_sot(self, scope, sot) -> int:
        doomed = [key for key in self.entries if key[:2] == (scope, sot)]
        for key in doomed:
            del self.entries[key]
        return len(doomed)

    @property
    def current_bytes(self) -> int:
        return sum(self.nbytes(entry[1]) for entry in self.entries.values())


class CacheAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = TileDecodeCache(capacity_bytes=CAPACITY)
        self.model = ModelCache()

    @rule(key=st.sampled_from(KEYS), min_depth=st.integers(0, 1), token=TOKENS)
    def get(self, key, min_depth, token):
        frames = self.cache.get(key, min_depth, token)
        assert (frames is not None) == self.model.get(key, min_depth, token)
        assert frames is None or len(frames) > min_depth

    @rule(key=st.sampled_from(KEYS), depth=st.integers(0, 2), token=TOKENS)
    def put(self, key, depth, token):
        frames = [SMALL] * (depth + 1)
        assert self.cache.put(key, frames, token) == self.model.put(key, depth, token)

    @rule(key=st.sampled_from(KEYS), token=TOKENS)
    def held(self, key, token):
        frames = self.cache.held(key, token)
        depth = self.model.held(key, token)
        assert (None if frames is None else len(frames) - 1) == depth

    @rule(key=st.sampled_from(KEYS))
    def demote(self, key):
        self.cache.demote(key)
        self.model.demote(key)

    @rule(scope=st.just("a"), sot=st.sampled_from([0, 1]))
    def invalidate_sot(self, scope, sot):
        assert self.cache.invalidate_sot(scope, sot) == self.model.invalidate_sot(scope, sot)

    @invariant()
    def the_same_entries_within_capacity(self):
        assert [k for k in KEYS if k in self.cache] == [k for k in KEYS if k in self.model.entries]
        assert self.cache.current_bytes == self.model.current_bytes <= CAPACITY
        assert (self.cache.stats.evictions, self.cache.stats.bytes_evicted) == (
            self.model.evictions,
            self.model.bytes_evicted,
        )


CacheAgainstModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestCacheAgainstModel = CacheAgainstModel.TestCase


# ----------------------------------------------------------------------
# Under contention
# ----------------------------------------------------------------------
def test_four_threads_keep_the_bytes_bound_and_the_counts():
    """Each thread puts keys of its own (never twice), and reads and demotes
    every thread's: whatever interleaving, what is held fits, each put is
    either held or evicted, and no entry counts more reads than were served."""
    cache = TileDecodeCache(capacity_bytes=8 * SMALL.nbytes)
    puts, hits, over = [0] * 4, [0] * 4, []
    barrier = threading.Barrier(4)

    def work(thread: int) -> None:
        rng = np.random.default_rng(thread)
        barrier.wait()
        for step in range(400):
            other = (int(rng.integers(4)), int(rng.integers(step + 1)))
            action = rng.random()
            if action < 0.4:
                puts[thread] += cache.put(("t", thread, step), [SMALL], token=(step,))
            elif action < 0.9:
                hits[thread] += cache.get(("t", *other), 0, (other[1],)) is not None
            else:
                cache.demote(("t", *other))
            if cache.current_bytes > cache.capacity_bytes:
                over.append(cache.current_bytes)

    threads = [threading.Thread(target=work, args=(thread,)) for thread in range(4)]
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
    assert not over
    with cache._lock:
        entries = list(cache._entries.values())
    assert cache.current_bytes == sum(entry.nbytes for entry in entries) <= cache.capacity_bytes
    assert cache.stats.insertions == sum(puts) == cache.stats.evictions + len(entries)
    assert cache.stats.bytes_evicted == cache.stats.evictions * SMALL.nbytes
    assert all(entry.count >= 1 for entry in entries)
    assert sum(entry.count - 1 for entry in entries) <= sum(hits)


# ----------------------------------------------------------------------
# What the policy saves: a clock-free budget
# ----------------------------------------------------------------------
#: The decoded bytes W3's 100 queries touch on the scene below, and a cache
#: a third that size.
WORKING_SET_BYTES = 1_620_736
W3_CACHE_BYTES = WORKING_SET_BYTES // 3
#: What the 100 queries decode through that cache (LRU: 11,265,792).
W3_PIXELS_BUDGET = 10_083_840


def w3_tasm(cache_bytes: int):
    """W3 (Zipfian windows over car and person, a rare third label) on a
    four-second road scene, tiled for the workload, behind a decode cache."""
    video = visual_road_scene("ledger-road", "2K", 4.0, frame_rate=10, seed=101)
    codec = CodecConfig(gop_frames=10, frame_rate=10)
    tasm = TASM(TasmConfig(codec=codec, decode_cache_bytes=cache_bytes))
    tiled = tasm.ingest(video)
    tasm.add_detections(
        video.name, [d for frame in range(video.frame_count) for d in video.ground_truth(frame)]
    )
    workload = workload_3(video, query_count=100).workload
    tasm.optimize_for_workload(video.name, workload)
    tiled.materialise_all()
    return tasm, list(workload)


def test_w3_through_a_third_of_its_working_set_decodes_within_budget():
    tasm, queries = w3_tasm(1 << 30)
    for query in queries:
        tasm.execute(query)
    assert tasm.tile_cache.current_bytes == WORKING_SET_BYTES

    tasm, queries = w3_tasm(W3_CACHE_BYTES)
    decoded = sum(tasm.execute(query).pixels_decoded for query in queries)
    assert tasm.tile_cache.stats.evictions > 0
    assert decoded <= W3_PIXELS_BUDGET


def test_a_batch_serves_what_its_warm_decoded_though_the_warm_evicted_it():
    """A warm puts each tile it decodes at the lowest rank an entry can start
    at, so with hotter entries held a later put of the same warm can evict an
    earlier one; the serve then reads the warm's own frames instead of
    decoding the tile again.  Every SOT of these batches fits the cache, so
    no serve decodes anything."""
    tasm, queries = w3_tasm(WORKING_SET_BYTES // 2)
    for start in range(0, len(queries), 8):
        batch = tasm.execute_batch(queries[start : start + 8])
        assert sum(result.stats.pixels_decoded for result in batch) == 0
    assert tasm.tile_cache.stats.evictions > 0
