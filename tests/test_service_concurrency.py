"""Concurrency safety: overlapping scans racing metadata writes and re-tiles.

The server's correctness claim is *snapshot consistency per SOT*: however
scans, ``add_metadata`` calls, and ``retile_sot`` calls interleave, every
region a scan returns is byte-identical to what a sequential oracle produces
under one of the encodings that legitimately existed — never a stale decode
of a superseded bitstream (which the checksum token would otherwise let slip
through if locking failed), never a torn mix within one SOT.

The oracle: the writer thread only flips SOT 1 between its untiled encoding
and one fixed tiled layout, and only adds metadata for a label no reader
queries.  So every reader result must match, SOT group by SOT group, either
the pre-retile reference or the post-retile reference — with SOTs 0 and 2
always matching the untouched reference exactly.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.service import TasmServer
from repro.tiles.layout import untiled_layout
from tests.test_exec_engine import make_tasm

CACHE_BYTES = 64 * 1024 * 1024
READERS = 4
SCANS_PER_READER = 6
WRITER_CYCLES = 8
RETILED_SOT = 1


def regions_by_sot(result, frames_per_sot: int) -> dict[int, list]:
    grouped: dict[int, list] = {}
    for region in result.regions:
        grouped.setdefault(region.frame_index // frames_per_sot, []).append(region)
    return grouped


def assert_region_groups_equal(actual: list, expected: list) -> bool:
    if len(actual) != len(expected):
        return False
    for ours, theirs in zip(actual, expected):
        if ours.frame_index != theirs.frame_index or ours.region != theirs.region:
            return False
        if not np.array_equal(ours.pixels, theirs.pixels):
            return False
    return True


@pytest.mark.parametrize("label_cycle", [("car", "person")])
def test_overlapping_scans_race_writes_without_stale_reads(config, label_cycle):
    served = replace(config, decode_cache_bytes=CACHE_BYTES)
    tasm, video = make_tasm(served)
    frames_per_sot = served.codec.gop_frames

    # The two legitimate encodings of SOT 1, and oracles for both.
    tiled_layout = tasm.layout_around(video.name, RETILED_SOT, ["car", "person"])
    assert not tiled_layout.is_untiled, "the oracle needs a real re-tile"
    plain_layout = untiled_layout(video.width, video.height)

    ref_plain, _ = make_tasm(config)
    ref_tiled, _ = make_tasm(config)
    ref_tiled.retile_sot(video.name, RETILED_SOT, tiled_layout)
    oracle = {
        label: {
            "plain": regions_by_sot(ref_plain.scan(video.name, label), frames_per_sot),
            "tiled": regions_by_sot(ref_tiled.scan(video.name, label), frames_per_sot),
        }
        for label in label_cycle
    }

    server = TasmServer(tasm).start()
    failures: list[str] = []
    start_barrier = threading.Barrier(READERS + 1)
    writer_done = threading.Event()

    def check(result, label) -> None:
        grouped = regions_by_sot(result, frames_per_sot)
        for sot_index in set(oracle[label]["plain"]) | set(grouped):
            actual = grouped.get(sot_index, [])
            plain = oracle[label]["plain"].get(sot_index, [])
            tiled = oracle[label]["tiled"].get(sot_index, [])
            if sot_index == RETILED_SOT:
                ok = assert_region_groups_equal(
                    actual, plain
                ) or assert_region_groups_equal(actual, tiled)
            else:
                ok = assert_region_groups_equal(actual, plain)
            if not ok:
                failures.append(
                    f"label {label!r} SOT {sot_index}: regions match no legal snapshot"
                )

    def reader() -> None:
        client = server.connect()
        start_barrier.wait()
        try:
            for iteration in range(SCANS_PER_READER):
                label = label_cycle[iteration % len(label_cycle)]
                check(client.scan(video.name, label), label)
        except Exception as error:  # noqa: BLE001 — surface in main thread
            failures.append(f"reader raised: {error!r}")

    def writer() -> None:
        start_barrier.wait()
        try:
            for cycle in range(WRITER_CYCLES):
                server.tasm.retile_sot(video.name, RETILED_SOT, tiled_layout)
                server.add_metadata(
                    video.name, cycle % video.frame_count, "unqueried", 2, 2, 30, 30
                )
                server.tasm.retile_sot(video.name, RETILED_SOT, plain_layout)
        except Exception as error:  # noqa: BLE001
            failures.append(f"writer raised: {error!r}")
        finally:
            writer_done.set()

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    threads.append(threading.Thread(target=writer))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "deadlock: a thread never finished"
    finally:
        server.stop()

    assert writer_done.is_set()
    assert not failures, "\n".join(failures)

    # The writer's metadata landed despite the racing readers.
    landed = server.tasm.scan(video.name, "unqueried")
    assert len(landed.regions) == min(WRITER_CYCLES, video.frame_count)


def test_sequential_writes_between_scans_stay_consistent(config):
    """The same interleaving run without threads — pins the oracle itself."""
    served = replace(config, decode_cache_bytes=CACHE_BYTES)
    tasm, video = make_tasm(served)
    frames_per_sot = served.codec.gop_frames
    tiled_layout = tasm.layout_around(video.name, RETILED_SOT, ["car", "person"])
    ref_tiled, _ = make_tasm(config)
    ref_tiled.retile_sot(video.name, RETILED_SOT, tiled_layout)

    with TasmServer(tasm) as server:
        client = server.connect()
        before = client.scan(video.name, "car")
        server.tasm.retile_sot(video.name, RETILED_SOT, tiled_layout)
        after = client.scan(video.name, "car")

    expected_after = regions_by_sot(ref_tiled.scan(video.name, "car"), frames_per_sot)
    grouped_after = regions_by_sot(after, frames_per_sot)
    assert assert_region_groups_equal(
        grouped_after.get(RETILED_SOT, []), expected_after.get(RETILED_SOT, [])
    ), "post-retile scan must serve the new encoding, not stale cache entries"
    grouped_before = regions_by_sot(before, frames_per_sot)
    for sot_index, group in grouped_after.items():
        if sot_index != RETILED_SOT:
            assert assert_region_groups_equal(group, grouped_before.get(sot_index, []))
