"""Properties of the wire: round trips, hostile input, and the credit window.

Five claims, the first four searched rather than hand-picked:

* whatever regions a chunk carries (no label, an empty or non-ASCII one,
  zero-area pixels, non-contiguous arrays, integer or float boxes, more
  regions than one ``sendmsg`` takes) come out of a real socket — one whose
  send buffer is smaller than the chunk — equal to what went in;
* whatever a peer sends (truncated, bit-flipped, lengths that do not add up,
  a ring descriptor past the ring, a frame longer than the limit), decoding
  raises :class:`TransportError` — never another exception, never a block,
  never an allocation the frame did not announce;
* a scan whose JSON ``id`` no binary header can carry (not an integer in
  [0, 2**32), or a bool) earns an error reply, and the next scan on the same
  connection completes, as does one already streaming on it; every id that
  fits is served under that id; so does a scan whose ``skip_sots`` is not a
  list of non-negative integers, whose ``deadline_ms`` is not a finite
  number, or whose ``credits`` is not a u32;
* for every credit window 1..8 and every chunk count 1..20 a scan completes,
  and the server never has more than ``window`` unreturned chunks in flight;
* an ``add_metadata`` box with a ``NaN`` coordinate (which Python's ``json``
  accepts) earns an error reply, and is never stored where it would make
  every later chunk of its label one the decoder refuses; so does one whose
  ``frame`` is not a non-negative integer, and the connection serves on.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import TasmConfig
from repro.core.query import Query
from repro.core.scan import ScanRegion, ScanResult
from repro.errors import TransportError
from repro.geometry import Rectangle
from repro.service import RemoteTasmClient, SocketTransport
from repro.service.scheduler import ResultStream
from repro.service.stream import StreamChunk
from repro.service.transport import (
    _CHUNK_HEADER,
    _CREDIT_FRAME,
    _FRAME_HEADER,
    _IOV_MAX,
    _REGION_RECORD,
    _SHM_CHUNK_HEADER,
    KIND_CHUNK,
    KIND_CREDIT,
    MAX_FRAME_BYTES,
    _Connection,
    _flat_views,
    _FrameReader,
    chunk_parts,
    decode_chunk_payload,
    decode_shm_chunk_payload,
    recv_message,
    send_buffers,
    send_frame,
    send_message,
)
from tests.test_exec_engine import assert_scan_results_identical
from tests.test_service_flow_control import make_server, wait_until


# ----------------------------------------------------------------------
# Generated regions
# ----------------------------------------------------------------------
LABELS = st.sampled_from([None, "", "car", "person", "véhicule", "標識", "a" * 300])
COORDINATES = st.one_of(
    st.integers(0, 4096), st.floats(0.0, 4096.0, allow_nan=False, width=64)
)


@st.composite
def regions_strategy(draw, max_regions: int = 12):
    regions = []
    for index in range(draw(st.integers(0, max_regions))):
        height, width = draw(
            st.sampled_from([(0, 0), (0, 7), (5, 0), (1, 1), (3, 8), (16, 12), (40, 64)])
        )
        pixels = np.arange(index, index + height * width * 2, dtype=np.int64).astype(np.uint8)
        pixels = pixels.reshape(height, width * 2)
        # Every other column: the right shape, but not contiguous.
        pixels = pixels[:, ::2] if draw(st.booleans()) else np.ascontiguousarray(pixels[:, :width])
        x1, y1 = draw(COORDINATES), draw(COORDINATES)
        box = Rectangle(x1, y1, x1 + draw(COORDINATES), y1 + draw(COORDINATES))
        regions.append(ScanRegion(draw(st.integers(0, 2**40)), box, pixels, draw(LABELS)))
    return regions


def chunk_frame(query_id: int, sot_index: int, regions) -> list:
    """The buffers of one ``KIND_CHUNK`` frame, as the connection's writer
    lays them out."""
    header, buffers, total = chunk_parts(query_id, sot_index, regions)
    return [_FRAME_HEADER.pack(KIND_CHUNK, len(header) + total) + header, *buffers]


def chunk_payload(regions, query_id: int = 7, sot_index: int = 3) -> bytearray:
    frame = chunk_frame(query_id, sot_index, regions)
    return bytearray(b"".join(bytes(view) for view in _flat_views(frame)))[_FRAME_HEADER.size :]


def assert_regions_equal(got, want) -> None:
    assert len(got) == len(want)
    for ours, theirs in zip(got, want):
        assert ours.frame_index == theirs.frame_index
        assert ours.region == theirs.region
        assert ours.label == theirs.label and type(ours.label) is type(theirs.label)
        assert ours.pixels.shape == theirs.pixels.shape
        assert ours.pixels.dtype == np.uint8 and ours.pixels.flags.writeable
        np.testing.assert_array_equal(ours.pixels, theirs.pixels)


class _CountingSocket:
    """A socket whose ``sendmsg`` calls are recorded: ``(offered, taken)``."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.calls: list[tuple[int, int, int]] = []

    def sendmsg(self, views):
        taken = self._sock.sendmsg(views)
        self.calls.append((len(views), sum(view.nbytes for view in views), taken))
        return taken


def through_a_socket(frames: list[list]) -> tuple[list, _CountingSocket]:
    """Send ``frames`` with one ``send_buffers`` through a socketpair whose
    send buffer is far smaller than a chunk; what a ``_FrameReader`` on the
    other end receives, and the sender's ``sendmsg`` record."""
    ours, theirs = socket.socketpair()
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    ours.settimeout(30.0)
    theirs.settimeout(30.0)
    received: list = []

    def receive():
        reader = _FrameReader(theirs)
        while (frame := reader.next_frame()) is not None:
            received.append(frame)

    thread = threading.Thread(target=receive, daemon=True)
    thread.start()
    counting = _CountingSocket(ours)
    try:
        send_buffers(counting, _flat_views([buffer for frame in frames for buffer in frame]))
        ours.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    finally:
        ours.close()
        theirs.close()
    return received, counting


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(regions=regions_strategy(), query_id=st.integers(0, 2**32 - 1), sot=st.integers(0, 2**32 - 1))
    def test_regions_survive_encode_socket_decode(self, regions, query_id, sot):
        received, _ = through_a_socket([chunk_frame(query_id, sot, regions)])
        ((kind, payload),) = received
        assert kind == KIND_CHUNK
        header, decoded = decode_chunk_payload(payload)
        assert header == {"id": query_id, "sot_index": sot}
        assert_regions_equal(decoded, regions)
        whole = np.frombuffer(payload, dtype=np.uint8)
        for region in decoded:
            assert region.pixels.size == 0 or np.shares_memory(region.pixels, whole)

    def test_a_chunk_larger_than_the_send_buffer_and_iov_max(self):
        """1,100 regions of 4 KiB: more buffers than one ``sendmsg`` takes
        and more bytes than the socket holds, so both loops run."""
        regions = [
            ScanRegion(
                index,
                Rectangle(index, 0, index + 64, 64),
                np.full((64, 64), index % 251, dtype=np.uint8),
                ("car", "person", None)[index % 3],
            )
            for index in range(1100)
        ]
        small = [ScanRegion(1, Rectangle(0, 0, 1, 1), np.ones((1, 1), np.uint8), "sign")]
        received, sender = through_a_socket(
            [chunk_frame(1, 0, regions), chunk_frame(1, 1, small), chunk_frame(2, 0, [])]
        )
        assert [kind for kind, _ in received] == [KIND_CHUNK] * 3
        for (_, payload), expected in zip(received, (regions, small, [])):
            assert_regions_equal(decode_chunk_payload(payload)[1], expected)
        assert all(buffers <= _IOV_MAX for buffers, _, _ in sender.calls)
        assert len(sender.calls) > 1100 // _IOV_MAX + 1
        assert any(taken < offered for _, offered, taken in sender.calls), (
            "no sendmsg was partial: the send buffer was meant to be too small"
        )

    def test_pixels_that_are_not_2d_uint8_are_refused_at_encode(self):
        box = Rectangle(0, 0, 2, 2)
        for pixels in (
            np.zeros((2, 2), dtype=np.uint16),
            np.zeros((2, 2, 3), dtype=np.uint8),
            np.zeros(4, dtype=np.uint8),
            np.zeros((2, 2), dtype=np.float32),
        ):
            with pytest.raises(TransportError):
                chunk_parts(1, 0, [ScanRegion(0, box, pixels, "car")])

    def test_read_only_input_still_decodes_to_writable_pixels(self):
        regions = [ScanRegion(0, Rectangle(0, 0, 3, 2), np.arange(6, dtype=np.uint8).reshape(2, 3), "car")]
        (region,) = decode_chunk_payload(bytes(chunk_payload(regions)))[1]
        assert region.pixels.flags.writeable
        np.testing.assert_array_equal(region.pixels, regions[0].pixels)


# ----------------------------------------------------------------------
# Hostile input
# ----------------------------------------------------------------------
def sample_regions() -> list[ScanRegion]:
    return [
        ScanRegion(3, Rectangle(1, 2, 9, 8), np.arange(48, dtype=np.uint8).reshape(6, 8), "car"),
        ScanRegion(4, Rectangle(0.5, 0.5, 4.5, 3.5), np.arange(12, dtype=np.uint8).reshape(3, 4), None),
        ScanRegion(5, Rectangle(2, 2, 2, 2), np.zeros((0, 0), dtype=np.uint8), "標識"),
    ]


def shm_payload(regions, ring_offset: int) -> tuple[bytearray, bytearray]:
    """A shared-memory chunk descriptor and a 256-byte ring holding its pixels."""
    header, buffers, total = chunk_parts(7, 3, regions)
    ring = bytearray(256)
    ring[ring_offset : ring_offset + total] = b"".join(bytes(view) for view in _flat_views(buffers))
    return bytearray(_SHM_CHUNK_HEADER.pack(ring_offset, total) + header), ring


def decodes_or_refuses(decode, *args) -> None:
    """``decode(*args)`` returns regions or raises ``TransportError`` — and in
    neither case allocates beyond a small multiple of what it was handed."""
    budget = 64 * 1024 + 64 * sum(len(arg) for arg in args)
    tracemalloc.start()
    try:
        try:
            decode(*args)
        except TransportError:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, f"decoding {sum(map(len, args))} bytes allocated {peak}"


def overwrite_record(payload: bytearray, records_at: int, index: int, **fields) -> None:
    records = np.frombuffer(payload, dtype=_REGION_RECORD, count=3, offset=records_at)
    for name, value in fields.items():
        records[name][index] = value


class TestHostileChunks:
    def records_offset(self, payload: bytearray, at: int = 0) -> int:
        *_, table_bytes = _CHUNK_HEADER.unpack_from(payload, at)
        return at + _CHUNK_HEADER.size + table_bytes

    def test_truncation_at_every_offset_is_refused(self):
        payload = chunk_payload(sample_regions())
        assert_regions_equal(decode_chunk_payload(payload)[1], sample_regions())
        for length in range(len(payload)):
            with pytest.raises(TransportError):
                decode_chunk_payload(payload[:length])
        with pytest.raises(TransportError):
            decode_chunk_payload(payload + b"\x00")  # and nothing may trail

    def test_shm_truncation_at_every_offset_is_refused(self):
        payload, ring = shm_payload(sample_regions(), ring_offset=100)
        offset, _, regions = decode_shm_chunk_payload(payload, ring)
        assert offset == 100
        assert_regions_equal(regions, sample_regions())
        for length in range(len(payload)):
            with pytest.raises(TransportError):
                decode_shm_chunk_payload(payload[:length], ring)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_flips_in_the_headers_decode_or_refuse(self, data):
        """Flip up to three bits anywhere ahead of the pixels: the fixed
        header (ids, region count, label count, label-table bytes), the
        label table's lengths and text, every field of every record."""
        payload = chunk_payload(sample_regions())
        pixels_at = self.records_offset(payload) + 3 * _REGION_RECORD.itemsize
        for _ in range(data.draw(st.integers(1, 3))):
            payload[data.draw(st.integers(0, pixels_at - 1))] ^= 1 << data.draw(st.integers(0, 7))
        decodes_or_refuses(decode_chunk_payload, payload)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_flips_in_a_shm_descriptor_decode_or_refuse(self, data):
        payload, ring = shm_payload(sample_regions(), ring_offset=100)
        for _ in range(data.draw(st.integers(1, 3))):
            payload[data.draw(st.integers(0, len(payload) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        decodes_or_refuses(decode_shm_chunk_payload, payload, ring)

    @settings(max_examples=200, deadline=None)
    @given(noise=st.binary(max_size=400))
    def test_noise_decodes_or_refuses(self, noise):
        decodes_or_refuses(decode_chunk_payload, bytearray(noise))
        decodes_or_refuses(decode_shm_chunk_payload, bytearray(noise), bytearray(64))

    @pytest.mark.parametrize(
        "fields",
        [
            dict(rows=7),  # one more row than the pixel bytes hold
            dict(rows=2**32 - 1, cols=2**32 - 1),  # a size past int64
            dict(rows=2**31, cols=2**31),
            dict(cols=0),  # fewer pixels than the frame carries
            dict(label=2),  # the chunk's table has two labels: ids 0 and 1
            dict(label=2**31 - 1),
            dict(label=-2),
            dict(x1=float("nan")),
            dict(y2=float("nan")),
            dict(x1=100.0),  # inverted: x2 < x1
            dict(y1=float("inf")),
        ],
    )
    def test_a_record_that_lies_is_refused(self, fields):
        for build, decode in (
            (lambda: (chunk_payload(sample_regions()),), decode_chunk_payload),
            (lambda: shm_payload(sample_regions(), ring_offset=100), decode_shm_chunk_payload),
        ):
            args = build()
            at = 0 if decode is decode_chunk_payload else _SHM_CHUNK_HEADER.size
            overwrite_record(args[0], self.records_offset(args[0], at), 0, **fields)
            with pytest.raises(TransportError):
                decode(*args)
            decodes_or_refuses(decode, *args)

    def test_counts_that_outrun_the_frame_are_refused(self):
        for position, value in ((2, 2**32 - 1), (2, 4), (3, 2**32 - 1), (3, 3), (4, 2**32 - 1), (4, 0)):
            payload = chunk_payload(sample_regions())
            fixed = list(_CHUNK_HEADER.unpack_from(payload, 0))
            fixed[position] = value  # region count, label count, label-table bytes
            _CHUNK_HEADER.pack_into(payload, 0, *fixed)
            with pytest.raises(TransportError):
                decode_chunk_payload(payload)
            decodes_or_refuses(decode_chunk_payload, payload)

    @pytest.mark.parametrize("ring_offset, slot", [(250, 60), (2**63, 60), (100, 61), (100, 2**32 - 1)])
    def test_a_ring_descriptor_past_the_ring_or_its_regions_is_refused(self, ring_offset, slot):
        payload, ring = shm_payload(sample_regions(), ring_offset=100)
        _SHM_CHUNK_HEADER.pack_into(payload, 0, ring_offset, slot)
        with pytest.raises(TransportError):
            decode_shm_chunk_payload(payload, ring)
        decodes_or_refuses(decode_shm_chunk_payload, payload, ring)


class TestHostileFrames:
    def read_all(self, data: bytes, readahead: bool) -> list:
        """Frames a reader takes out of ``data`` followed by EOF; the sockets
        carry a timeout, so a reader that blocked would fail the test."""
        ours, theirs = socket.socketpair()
        theirs.settimeout(10.0)

        def send_then_hang_up():
            try:
                ours.sendall(data)
            except OSError:
                pass  # the reader refused the frame and closed its end
            ours.close()

        sender = threading.Thread(target=send_then_hang_up, daemon=True)
        sender.start()
        try:
            reader = _FrameReader(theirs, readahead=readahead)
            frames = []
            while (frame := reader.next_frame()) is not None:
                frames.append(frame)
            return frames
        finally:
            theirs.close()
            sender.join(timeout=10.0)
            assert not sender.is_alive()

    @pytest.mark.parametrize("readahead", [True, False])
    def test_truncation_at_every_offset_raises_or_ends_cleanly(self, readahead):
        frames = [(0, b"{}"), (2, b"\x00" * 8), (1, bytes(range(200))), (3, b"")]
        data = b"".join(_FRAME_HEADER.pack(kind, len(body)) + body for kind, body in frames)
        boundaries = {0}
        for kind, body in frames:
            boundaries.add(max(boundaries) + _FRAME_HEADER.size + len(body))
        assert [(k, bytes(p)) for k, p in self.read_all(data, readahead)] == frames
        for length in range(len(data)):
            if length in boundaries:
                whole = sum(1 for boundary in boundaries if 0 < boundary <= length)
                assert len(self.read_all(data[:length], readahead)) == whole
            else:
                with pytest.raises(TransportError, match="mid-frame"):
                    self.read_all(data[:length], readahead)

    @settings(max_examples=50, deadline=None)
    @given(length=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1), kind=st.integers(0, 255))
    def test_a_length_above_the_limit_raises_before_any_allocation(self, length, kind):
        tracemalloc.start()
        try:
            with pytest.raises(TransportError, match="limit"):
                self.read_all(_FRAME_HEADER.pack(kind, length) + b"x" * 64, readahead=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"a refused {length}-byte frame allocated {peak}"

    def test_a_frame_allocates_what_it_announces_and_no_more(self):
        body = bytes(300_000)
        data = _FRAME_HEADER.pack(1, len(body)) + body
        tracemalloc.start()
        try:
            ((kind, payload),) = self.read_all(data, readahead=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kind == 1 and payload == body
        assert peak < len(body) + (1 << 18), "the payload, the receive buffer, and little else"


# ----------------------------------------------------------------------
# The credit window
# ----------------------------------------------------------------------
class _ScriptedServer:
    """Just enough of a ``TasmServer`` for a ``SocketTransport``: every scan
    is answered by a stream already holding ``labels[0]``-many one-region
    chunks (the label is the count) and its final result."""

    obs = None

    def __init__(self):
        self.tasm = SimpleNamespace(config=TasmConfig())

    def _build_query(self, video, labels, temporal):
        return Query.select(labels, video)

    def submit(self, query, client=None, deadline_ms=None, skip_sots=None):
        stream = ResultStream(query)
        regions = []
        for sot in range(int(next(iter(query.objects)))):
            region = ScanRegion(sot, Rectangle(0, 0, 4, 4), np.full((4, 4), sot, np.uint8), "car")
            regions.append(region)
            stream._push(StreamChunk(sot, [region]))
        stream._finish(ScanResult(video=query.video, regions=regions))
        return stream


def test_every_window_and_chunk_count_completes_inside_its_window(monkeypatch):
    in_flight = {"sent": 0, "returned": 0, "worst": 0}
    send_chunk = _Connection._chunk_frame
    take_credit = _Connection._grant_credit

    def counting_send(self, query_id, chunk):
        in_flight["sent"] += 1
        in_flight["worst"] = max(in_flight["worst"], in_flight["sent"] - in_flight["returned"])
        return send_chunk(self, query_id, chunk)

    def counting_credit(self, query_id, granted):
        # Counted before the server may spend it, so the figure above never
        # reads higher than what is truly unreturned.
        in_flight["returned"] += granted
        take_credit(self, query_id, granted)

    monkeypatch.setattr(_Connection, "_chunk_frame", counting_send)
    monkeypatch.setattr(_Connection, "_grant_credit", counting_credit)
    with SocketTransport(_ScriptedServer()) as transport:
        for window in range(1, 9):
            with RemoteTasmClient(
                transport.address, use_shm=False, stream_buffer_chunks=window, timeout=30.0
            ) as client:
                for chunks in range(1, 21):
                    in_flight.update(sent=0, returned=0, worst=0)
                    stream = client.scan_streaming("video", str(chunks))
                    # A consumer that takes nothing is sent the window, then
                    # the stream parks: exactly min(window, chunks) arrive.
                    assert wait_until(lambda: stream.buffered_chunks == min(window, chunks))
                    time.sleep(0.002)
                    assert in_flight["sent"] == min(window, chunks)
                    taken = 0
                    for chunk in stream:
                        taken += 1
                        assert stream.buffered_chunks + stream._unreturned <= window
                    assert taken == chunks
                    assert len(stream.result(timeout=10).regions) == chunks
                    assert in_flight["sent"] == chunks
                    assert in_flight["worst"] <= window, (window, chunks, in_flight)


def test_cancelling_a_parked_scan_whose_stream_has_ended_frees_it():
    """Out of credit, its stream already finished: nothing but the CANCEL
    will ever wake the writer for this scan, so the CANCEL must."""
    with SocketTransport(_ScriptedServer()) as transport:
        with RemoteTasmClient(
            transport.address, use_shm=False, stream_buffer_chunks=1, timeout=30.0
        ) as client:
            stream = client.scan_streaming("video", "5")
            assert wait_until(lambda: stream.buffered_chunks == 1)
            (connection,) = transport._connections
            assert len(connection._scans) == 1
            stream.close()
            assert wait_until(lambda: not connection._scans)
            # The connection is still in service.
            assert len(client.scan("video", "3").regions) == 3


#: JSON ids a peer may put on a scan that no u32 header field can carry.
BAD_SCAN_IDS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.integers(max_value=-1),
    st.integers(min_value=2**32),
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 9), max_size=3),
)


def _replies(frames: _FrameReader, count: int) -> tuple[list, dict]:
    """Read raw frames until ``count`` JSON replies have arrived: the ids the
    chunk headers on the way carried, and the replies by type."""
    chunk_ids, replies = [], {}
    while len(replies) < count:
        frame = frames.next_frame()
        assert frame is not None, "the connection closed"
        kind, payload = frame
        if kind == KIND_CHUNK:
            chunk_ids.append(decode_chunk_payload(payload)[0]["id"])
        else:
            reply = json.loads(bytes(payload))
            replies[reply["type"]] = reply
    return chunk_ids, replies


def test_a_scan_id_no_header_can_carry_is_refused_and_the_connection_serves_on():
    """The id is the peer's JSON, and the writer packs it into every chunk
    header: one that does not fit is refused with an error reply when the
    scan arrives, and a scan sent after it on the same connection completes."""
    with SocketTransport(_ScriptedServer()) as transport:

        @settings(max_examples=60, deadline=None)
        @given(bad=BAD_SCAN_IDS)
        def refused(bad):
            with socket.create_connection(transport.address, timeout=10) as sock:
                for scan_id, chunks in ((bad, "2"), (7, "3")):
                    send_message(
                        sock, {"op": "scan", "id": scan_id, "video": "video", "labels": [chunks]}
                    )
                chunk_ids, replies = _replies(_FrameReader(sock), 2)
                assert replies["error"]["id"] == bad
                assert "scan id" in replies["error"]["message"]
                assert replies["done"]["id"] == 7 and chunk_ids == [7] * 3

        refused()


def test_a_scan_id_anywhere_in_the_header_range_is_served_under_it():
    """The refusal is exactly the ids that do not fit: 0, 2**32 - 1 and
    every integer between come back in each chunk header and the done reply."""
    with SocketTransport(_ScriptedServer()) as transport:

        @settings(max_examples=30, deadline=None)
        @given(scan_id=st.integers(0, 2**32 - 1))
        @example(scan_id=0)
        @example(scan_id=2**32 - 1)
        def served(scan_id):
            with socket.create_connection(transport.address, timeout=10) as sock:
                send_message(
                    sock, {"op": "scan", "id": scan_id, "video": "video", "labels": ["3"]}
                )
                chunk_ids, replies = _replies(_FrameReader(sock), 1)
                assert replies["done"]["id"] == scan_id and chunk_ids == [scan_id] * 3

        served()


def test_a_refused_scan_id_leaves_the_connections_parked_scan_streaming():
    """A bad id once killed the connection's writer, and with it every scan
    the connection was serving: a scan parked out of credit when the bad one
    arrives still finishes once it is granted more."""
    with SocketTransport(_ScriptedServer()) as transport:
        with socket.create_connection(transport.address, timeout=10) as sock:
            frames = _FrameReader(sock)
            send_message(
                sock,
                {"op": "scan", "id": 7, "video": "video", "labels": ["5"], "credits": 1},
            )
            kind, payload = frames.next_frame()
            assert kind == KIND_CHUNK and decode_chunk_payload(payload)[0]["id"] == 7
            send_message(sock, {"op": "scan", "id": "abc", "video": "video", "labels": ["2"]})
            chunk_ids, replies = _replies(frames, 1)
            assert chunk_ids == [] and replies["error"]["id"] == "abc"
            send_frame(sock, KIND_CREDIT, _CREDIT_FRAME.pack(7, 4))
            chunk_ids, replies = _replies(frames, 1)
            assert replies["done"]["id"] == 7 and chunk_ids == [7] * 4


#: An element no SOT index can be.
NOT_A_SOT = st.one_of(
    st.integers(max_value=-1), st.booleans(), st.none(), st.floats(), st.text(max_size=3)
)
#: ``(field, value)``: a scan field of a JSON type the server does not use it
#: as.  Each would once have been served: a string ``skip_sots`` as that many
#: one-character SOT names, a non-finite deadline as none, a fractional or
#: negative credit count as some other window.
BAD_SCAN_FIELDS = st.one_of(
    st.tuples(
        st.just("skip_sots"),
        st.one_of(
            st.text(min_size=1, max_size=4),
            st.integers(),
            st.booleans(),
            st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
            st.tuples(st.lists(st.integers(0, 9), max_size=2), NOT_A_SOT).map(
                lambda parts: [*parts[0], parts[1]]
            ),
        ),
    ),
    st.tuples(
        st.just("deadline_ms"),
        st.one_of(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            st.booleans(),
            st.text(max_size=4),
            st.lists(st.integers(0, 9), max_size=2),
        ),
    ),
    st.tuples(
        st.just("credits"),
        st.one_of(
            st.none(),
            st.booleans(),
            st.text(max_size=4),
            st.integers(max_value=-1),
            st.integers(min_value=2**32),
            st.floats(),
        ),
    ),
)


def _replies_until_done(frames: _FrameReader, scan_id: int) -> dict:
    """Read raw frames until the ``done`` reply of ``scan_id``: every JSON
    reply on the way, by id."""
    replies = {}
    while replies.get(scan_id, {}).get("type") != "done":
        frame = frames.next_frame()
        assert frame is not None, "the connection closed"
        kind, payload = frame
        if kind != KIND_CHUNK:
            reply = json.loads(bytes(payload))
            replies[reply["id"]] = reply
    return replies


def test_a_scan_field_of_the_wrong_type_is_refused_and_the_connection_serves_on():
    """``skip_sots`` must be a list of non-negative ints, ``deadline_ms`` a
    finite number, ``credits`` a u32: anything else earns an error reply
    naming the field, and a scan sent after it on the same connection
    completes."""
    with SocketTransport(_ScriptedServer()) as transport:

        @settings(max_examples=80, deadline=None)
        @given(bad=BAD_SCAN_FIELDS)
        @example(bad=("skip_sots", "12"))
        @example(bad=("deadline_ms", float("nan")))
        @example(bad=("credits", 2.5))
        def refused(bad):
            field, value = bad
            with socket.create_connection(transport.address, timeout=10) as sock:
                send_message(
                    sock, {"op": "scan", "id": 5, "video": "video", "labels": ["2"], field: value}
                )
                send_message(sock, {"op": "scan", "id": 7, "video": "video", "labels": ["3"]})
                replies = _replies_until_done(_FrameReader(sock), 7)
                assert replies[5]["type"] == "error", replies
                assert f"scan {field}" in replies[5]["message"]

        refused()


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"skip_sots": None, "deadline_ms": None, "credits": 0},
        {"skip_sots": [], "deadline_ms": 30_000, "credits": 2**32 - 1},
        {"skip_sots": [0, 4, 2**40], "deadline_ms": 2.5e4, "credits": 8},
        {"deadline_ms": -1.0},  # not positive: no deadline
    ],
)
def test_scan_fields_of_the_right_type_are_served(fields):
    with SocketTransport(_ScriptedServer()) as transport:
        with socket.create_connection(transport.address, timeout=10) as sock:
            send_message(sock, {"op": "scan", "id": 7, "video": "video", "labels": ["3"], **fields})
            chunk_ids, replies = _replies(_FrameReader(sock), 1)
            assert replies["done"]["id"] == 7 and chunk_ids == [7] * 3


#: Well-formed JSON that is not an object, so it names no op and no id.
NOT_OBJECTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.lists(st.one_of(st.integers(), st.text(max_size=4)), max_size=3),
)


def test_a_json_frame_that_is_not_an_object_is_refused_and_the_connection_serves_on():
    """Reading the id off a list once raised inside the reader's own error
    handler, and the connection was dropped: the frame now gets an error
    reply without an id, and a scan sent after it on the same connection
    completes."""
    with SocketTransport(_ScriptedServer()) as transport:

        @settings(max_examples=40, deadline=None)
        @given(value=NOT_OBJECTS)
        @example(value=[1, 2])
        def refused(value):
            with socket.create_connection(transport.address, timeout=10) as sock:
                send_message(sock, value)
                send_message(sock, {"op": "scan", "id": 7, "video": "video", "labels": ["3"]})
                chunk_ids, replies = _replies(_FrameReader(sock), 2)
                assert replies["error"]["id"] is None
                assert "object" in replies["error"]["message"]
                assert replies["done"]["id"] == 7 and chunk_ids == [7] * 3

        refused()


def test_a_nan_box_is_refused_and_its_label_still_serves_remotely(config):
    """Python's ``json`` reads ``NaN``, and ``NaN < x`` is False: a box with a
    NaN coordinate was once stored, and from then on every remote scan of
    its label failed in the chunk decoder, which refuses such a record."""
    server, video = make_server(config)
    transport = SocketTransport(server).start()
    try:
        with socket.create_connection(transport.address, timeout=10) as sock:
            for request_id, coordinate in enumerate(("x1", "y1", "x2", "y2")):
                box = {"x1": 8.0, "y1": 8.0, "x2": 24.0, "y2": 24.0, coordinate: float("nan")}
                send_message(
                    sock,
                    {"op": "add_metadata", "id": request_id, "video": video.name,
                     "frame": 2, "label": "car", **box},
                )
                reply = recv_message(sock)
                assert reply["type"] == "error" and reply["id"] == request_id, reply
        with RemoteTasmClient(transport.address, timeout=30.0, use_shm=False) as client:
            assert_scan_results_identical(
                client.scan(video.name, "car"), server.tasm.scan(video.name, "car")
            )
    finally:
        transport.stop()
        server.stop()


def test_an_add_metadata_frame_that_is_not_a_frame_index_is_refused(config):
    """A float frame was once stored and never served, a string one failed
    with whatever ``TypeError`` the comparison raised: a frame that is not a
    non-negative integer earns an error reply, nothing is indexed, and the
    connection serves on."""
    server, video = make_server(config)
    transport = SocketTransport(server).start()
    indexed = server.tasm.semantic_index.count(video.name)
    box = {"label": "car", "x1": 8.0, "y1": 8.0, "x2": 24.0, "y2": 24.0}
    try:
        with socket.create_connection(transport.address, timeout=10) as sock:
            for request_id, frame in enumerate((2.5, 2.0, "2", -1, None, [2])):
                send_message(
                    sock,
                    {"op": "add_metadata", "id": request_id, "video": video.name,
                     "frame": frame, **box},
                )
                reply = recv_message(sock)
                assert reply["type"] == "error" and reply["id"] == request_id, reply
            assert server.tasm.semantic_index.count(video.name) == indexed
            send_message(
                sock, {"op": "add_metadata", "id": 9, "video": video.name, "frame": 2, **box}
            )
            assert recv_message(sock) == {"type": "ok", "id": 9}
        assert server.tasm.semantic_index.count(video.name) == indexed + 1
        with RemoteTasmClient(transport.address, timeout=30.0, use_shm=False) as client:
            assert_scan_results_identical(
                client.scan(video.name, "car"), server.tasm.scan(video.name, "car")
            )
    finally:
        transport.stop()
        server.stop()
