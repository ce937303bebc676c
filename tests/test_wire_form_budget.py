"""A repeated warm piece is encoded for the wire once, from its region memo.

A piece the decode cache memoised reaches ``chunk_parts`` as the very
:class:`~repro.exec.cache.MemoisedRegions` the memo filed.  Its first send
encodes it as any piece.  Its second copies it, once, into a wire form the
cache counts: the label table and records, and its pixels joined into one
buffer.  The properties:

* once a piece has been sent twice, 50 repeated warm scans through a real
  ``SocketTransport`` make no ``np.ascontiguousarray`` call and no view that
  ``_flat_views`` would cast, and hand ``sendmsg`` at most two buffers per
  chunk frame; the client's results equal an in-process scan's;
* a piece sent once, or one whose form would not fit, is encoded as any
  piece, with no joined copy;
* a wire form is dropped with its memo, so after ``retile_sot`` the next
  remote scan equals a cache-less TASM's byte for byte;
* the cache charges a wire form to its capacity and builds one only where it
  fits: with a cache that evicts, ``current_bytes <= capacity_bytes`` after
  every send;
* a wire form is uncharged when its piece dies: sliding windows over a cache
  that never evicts hold the tiles plus the forms of live pieces only;
* a put of a new key lets nothing go and keeps its SOT's memo; a deeper
  re-put of a held key, or an eviction, drops it.

Counts and identities, not clocks.
"""

from __future__ import annotations

import socket
from dataclasses import replace

import numpy as np

import repro.core.tasm as tasm_module
import repro.service.transport as transport_module
from repro.config import TasmConfig
from repro.core.predicates import TemporalPredicate
from repro.core.tasm import TASM
from repro.exec.cache import MemoisedRegions, TileDecodeCache
from repro.service import RemoteTasmClient, SocketTransport, TasmServer
from repro.geometry import Rectangle
from repro.service.transport import _Connection, chunk_parts
from repro.tiles.layout import uniform_layout
from repro.video.decoder import ScanPiece, make_region
from tests.test_exec_engine import assert_scan_results_identical
from tests.test_service_wire_budget import CHUNKS_PER_SCAN, SCANS, four_sot_tasm
from tests.test_warm_memo_budget import cacheless


def recording_chunk_frames(monkeypatch, after=None) -> list:
    """From now on, record every chunk frame a connection makes, as
    ``(chunk, frame parts)``; ``after(chunk)`` runs after each."""
    made = []
    chunk_frame = _Connection._chunk_frame

    def recording(self, query_id, chunk):
        frame = chunk_frame(self, query_id, chunk)
        made.append((chunk, frame))
        if after is not None:
            after(chunk)
        return frame

    monkeypatch.setattr(_Connection, "_chunk_frame", recording)
    return made


def test_a_repeated_warm_piece_is_sent_from_its_wire_form(config: TasmConfig, monkeypatch):
    tasm, video = four_sot_tasm(config)
    reference = tasm.scan(video.name, "car")
    counts = {"contiguous": 0, "casts": 0, "iovecs": 0}
    ascontiguousarray = np.ascontiguousarray
    sendmsg = socket.socket.sendmsg

    def counting_contiguous(*args, **kwargs):
        counts["contiguous"] += 1
        return ascontiguousarray(*args, **kwargs)

    def counting_view(buffer):
        view = memoryview(buffer)
        counts["casts"] += view.ndim != 1  # what _flat_views would cast
        return view

    def counting_sendmsg(self, buffers, *args):
        buffers = list(buffers)
        counts["iovecs"] += len(buffers)
        return sendmsg(self, buffers, *args)

    with TasmServer(tasm) as server, SocketTransport(server) as transport:
        with RemoteTasmClient(transport.address, use_shm=False) as client:
            for _ in range(3):  # every piece memoised and sent twice
                client.scan(video.name, "car")
            monkeypatch.setattr(np, "ascontiguousarray", counting_contiguous)
            monkeypatch.setattr(transport_module, "memoryview", counting_view, raising=False)
            monkeypatch.setattr(socket.socket, "sendmsg", counting_sendmsg)
            frames = recording_chunk_frames(monkeypatch)
            results = [client.scan(video.name, "car") for _ in range(SCANS)]
            monkeypatch.undo()

    assert len(frames) == SCANS * CHUNKS_PER_SCAN
    assert all(isinstance(chunk.regions, MemoisedRegions) for chunk, _ in frames)
    assert max(len(chunk.regions) for chunk, _ in frames) > 1
    assert counts["contiguous"] == 0, "a repeated piece's pixels were made contiguous again"
    assert counts["casts"] == 0, "a repeated piece's pixels were cast to flat views again"
    assert all(len(parts) <= 2 for _, parts in frames)
    # A chunk frame is two buffers; a scan's done reply is one.
    assert 0 < counts["iovecs"] <= SCANS * (2 * CHUNKS_PER_SCAN + 1)
    for result in results:
        assert result.pixels_decoded == 0
        assert_scan_results_identical(result, reference)


def wire_forms(cache: TileDecodeCache, scope: str, sot_index: int) -> list[MemoisedRegions]:
    """The regions of one SOT's live memoised pieces that hold a wire form."""
    memo = cache._memos.get((scope, sot_index), {})
    return [regions for _, _, regions in list(memo.values()) if regions.wire is not None]


def test_a_retile_drops_the_wire_form_and_the_next_scan_is_fresh(config: TasmConfig):
    tasm, video = four_sot_tasm(config)
    cache = tasm.tile_cache
    with TasmServer(tasm) as server, SocketTransport(server) as transport:
        with RemoteTasmClient(transport.address, use_shm=False) as client:
            before = [client.scan(video.name, "car") for _ in range(3)][-1]
            formed = wire_forms(cache, video.name, 0)
            assert formed
            held = cache.current_bytes
            block = config.codec.block_size
            tasm.retile_sot(video.name, 0, uniform_layout(video.width, video.height, 2, 2, block))
            assert all(regions.wire is None for regions in formed)
            assert cache.current_bytes < held
            after = client.scan(video.name, "car")
    assert_scan_results_identical(after, cacheless(tasm, video).scan(video.name, "car"))
    changed = [
        got for got, was in zip(after.regions, before.regions)
        if not np.array_equal(got.pixels, was.pixels)
    ]
    assert changed, "the re-tile changed no pixel the old wire form carried"


def test_wire_forms_are_counted_and_kept_only_where_they_fit(config: TasmConfig, monkeypatch):
    """Each SOT three times in a row, round the SOTs, through a cache a
    little larger than one SOT's tiles: a visit's first scan decodes,
    evicting the last SOT's tiles, memo and wire form, and files and sends
    its piece once; its second builds the wire form, which fits beside its
    tiles, and its third sends it again."""
    probe, video = four_sot_tasm(config)
    gop = config.codec.gop_frames
    probe.scan(video.name, "car", TemporalPredicate(0, gop))
    capacity = probe.tile_cache.current_bytes * 3 // 2
    tasm = TASM(config=replace(config, decode_cache_bytes=capacity))
    tasm.ingest(video)
    tasm.add_detections(
        video.name, [d for frame in range(video.frame_count) for d in video.ground_truth(frame)]
    )
    cache = tasm.tile_cache
    sends = []  # per send: bytes held, and whether the chunk's piece holds a wire form

    def within_capacity(chunk):
        sends.append((cache.current_bytes, getattr(chunk.regions, "wire", None) is not None))

    reference = cacheless(tasm, video)
    rounds = 2
    with TasmServer(tasm) as server, SocketTransport(server) as transport:
        with RemoteTasmClient(transport.address, use_shm=False) as client:
            frames = recording_chunk_frames(monkeypatch, after=within_capacity)
            for _ in range(rounds):
                for sot in range(CHUNKS_PER_SCAN):
                    window = (sot * gop, (sot + 1) * gop)
                    expected = reference.scan(video.name, "car", TemporalPredicate(*window))
                    for _ in range(3):
                        assert_scan_results_identical(client.scan(video.name, "car", *window), expected)
    assert len(frames) == len(sends) == rounds * CHUNKS_PER_SCAN * 3
    assert cache.stats.evictions > 0
    assert all(held <= capacity for held, _ in sends)
    assert [kept for _, kept in sends] == [False, True, True] * (rounds * CHUNKS_PER_SCAN), (
        "a wire form was built before a repeat, or not kept where it fits"
    )


def test_a_dead_piece_s_wire_form_is_uncharged(config: TasmConfig, monkeypatch):
    """Two-frame windows slide over every SOT of a cache that never evicts,
    while TASM keeps only its newest few pieces memoised.  Every window is
    sent three times, so each builds a wire form, and the cache holds its
    tiles plus the forms of the pieces still alive: no more."""
    tasm, video = four_sot_tasm(config)
    cache = tasm.tile_cache
    bound = 2 * config.codec.gop_frames  # regions; a window's piece holds two
    monkeypatch.setattr(tasm_module, "_MEMOISED_SCAN_REGIONS", bound)
    joins = []
    joined = transport_module._joined
    monkeypatch.setattr(transport_module, "_joined", lambda *args: joins.append(1) or joined(*args))
    reference = cacheless(tasm, video)
    live_forms = []
    with TasmServer(tasm) as server, SocketTransport(server) as transport:
        with RemoteTasmClient(transport.address, use_shm=False) as client:
            client.scan(video.name, "car")  # every tile decoded to its SOT's last frame
            for start in range(0, video.frame_count - 1):
                window = (start, start + 2)
                expected = reference.scan(video.name, "car", TemporalPredicate(*window))
                for _ in range(3):
                    assert_scan_results_identical(client.scan(video.name, "car", *window), expected)
                tiles = sum(entry.nbytes for entry in cache._entries.values())
                forms = [
                    regions.wire for sot in range(CHUNKS_PER_SCAN)
                    for regions in wire_forms(cache, video.name, sot)
                ]
                live_forms.append(len(forms))
                assert cache.current_bytes == tiles + sum(len(tail) + total for tail, _, total in forms)
    assert cache.stats.evictions == 0
    assert len(joins) >= video.frame_count - 1, "a window's repeat built no wire form"
    assert max(live_forms) <= bound // 2 < len(joins) // 2


def memoised_piece(
    cache: TileDecodeCache, regions=()
) -> tuple[ScanPiece, MemoisedRegions]:
    """A piece filed in SOT 0's memo, built from the entry at tile 0."""
    memo = cache.memo("v", 0)
    piece = ScanPiece([])
    return piece, memo.file(piece, None, [cache.get(("v", 0, 0), 0, (0,))], regions)


def test_a_put_that_lets_nothing_go_keeps_the_memo():
    frame = np.zeros((4, 4), np.uint8)
    cache = TileDecodeCache(capacity_bytes=3 * frame.nbytes)
    cache.put(("v", 0, 0), [frame], (0,))
    piece, _ = memoised_piece(cache)
    memo = cache._memos[("v", 0)]

    cache.put(("v", 0, 1), [frame], (1,))  # a new key of the same SOT
    assert cache.stats.evictions == 0
    assert cache._memos[("v", 0)] is memo and piece in memo

    cache.put(("v", 0, 0), [frame, frame], (0,))  # one of its keys, deeper
    assert ("v", 0) not in cache._memos

    piece, _ = memoised_piece(cache)
    cache.put(("v", 1, 0), [frame], (2,))  # over capacity: a SOT-0 entry goes
    assert cache.stats.evictions == 1
    assert ("v", 0) not in cache._memos


def test_the_cache_charges_a_wire_form_and_drops_it_with_its_memo_or_piece():
    frame = np.zeros((4, 4), np.uint8)
    cache = TileDecodeCache(capacity_bytes=2 * frame.nbytes)
    cache.put(("v", 0, 0), [frame], (0,))
    piece, regions = memoised_piece(cache)
    builds = []

    def build():
        builds.append(1)
        return "form"

    assert regions.wire_form(8, build) is None  # a first send builds nothing
    assert regions.wire_form(frame.nbytes + 1, build) is None  # nor one that does not fit
    assert not builds and regions.wire is None and cache.current_bytes == frame.nbytes
    assert regions.wire_form(8, build) == "form"
    assert regions.wire == "form" and len(builds) == 1
    assert cache.current_bytes == frame.nbytes + 8
    cache.invalidate_sot("v", 0)
    assert regions.wire is None and cache.current_bytes == 0

    cache.put(("v", 0, 0), [frame], (0,))
    piece, regions = memoised_piece(cache)
    regions.wire_form(8, build)
    regions.wire_form(8, build)
    assert cache.current_bytes == frame.nbytes + 8
    del piece, regions  # the memo entry dies, and its form with it
    assert cache.current_bytes == frame.nbytes
    assert ("v", 0) in cache._memos

    piece, regions = memoised_piece(cache)
    regions.wire_form(8, build)
    regions.wire_form(8, build)
    cache.clear()
    assert regions.wire is None and cache.current_bytes == 0
    del piece, regions
    assert cache.current_bytes == 0


def test_a_piece_is_joined_only_at_a_repeat_the_cache_keeps(monkeypatch):
    frame = np.arange(64, dtype=np.uint8).reshape(8, 8)
    cache = TileDecodeCache(capacity_bytes=frame.nbytes + 16)
    cache.put(("v", 0, 0), [frame], (0,))
    plain = (
        make_region(0, Rectangle(0, 0, 8, 8), frame, "car"),
        make_region(1, Rectangle(2, 2, 6, 6), frame[2:6, 2:6], None),
    )
    piece, regions = memoised_piece(cache, plain)
    joins = []
    joined = transport_module._joined
    monkeypatch.setattr(transport_module, "_joined", lambda *args: joins.append(1) or joined(*args))
    header, buffers, total = chunk_parts(7, 0, plain)

    for _ in range(2):  # the first send, then a repeat whose form does not fit
        sent = chunk_parts(7, 0, regions)
        assert sent[0] == header and sent[2] == total
        assert sent[1][0] is frame, "a contiguous region was copied"
        assert sent[1][1].flags.c_contiguous and np.array_equal(sent[1][1], buffers[1])
        assert not joins and regions.wire is None and cache.current_bytes == frame.nbytes

    cache.capacity_bytes += 1024
    for _ in range(2):  # a repeat that fits builds the form; the next reuses it
        sent = chunk_parts(7, 0, regions)
        assert sent[0] == header and sent[2] == total and len(sent[1]) == 1
        assert bytes(sent[1][0]) == b"".join(bytes(np.ascontiguousarray(b)) for b in buffers)
    assert len(joins) == 1 and regions.wire is not None and piece in cache._memos[("v", 0)]
