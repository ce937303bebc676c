"""A multiplexed, credit-flow-controlled socket transport for remote clients.

Framing: every frame is a 1-byte kind, a 4-byte big-endian payload length,
then that many payload bytes.  Both ends read frames through one
``recv_into`` buffer per connection (:class:`_FrameReader`): many small
frames arrive per syscall, and a frame larger than what is buffered is
received straight into its own ``bytearray``.  The kinds:

* ``KIND_JSON`` (0) — a UTF-8 JSON message.  Every request carries a
  client-chosen ``"id"`` tag, and every response echoes the id of the request
  it answers, so one connection multiplexes any number of in-flight requests
  (concurrent scans included).
* ``KIND_CHUNK`` (1) — one streamed scan chunk, all binary (protocol 3): a
  fixed big-endian header (query id, SOT index, region count, label count,
  label-table bytes), the chunk's label table (each distinct label once, a
  2-byte length then UTF-8), one little-endian record per region
  (:data:`_REGION_RECORD`: frame, the box as four ``f8``, label id with -1
  for "no label", rows, columns), then the regions' pixels back to back.  Pixels
  are 2-D ``uint8``; anything else is refused at encode.  Decode checks that
  every length adds up before it touches a pixel.
* ``KIND_CREDIT`` (2) — client → server: grant ``n`` more chunk credits to
  query ``qid`` (see *flow control* below).
* ``KIND_CANCEL`` (3) — client → server: abandon query ``qid``.  The server
  fails that stream, sends it nothing further, and the scheduler skips the
  scan's remaining per-SOT decode work — an abandoned scan stops costing
  runner time within roughly one GOP instead of running to completion for
  nobody.
* ``KIND_SHM_CHUNK`` (4) — like ``KIND_CHUNK``, but the pixel bytes live in
  the negotiated shared-memory ring; the frame carries only the ring offset,
  the byte count, and the chunk header.
* ``KIND_SHM_ACK`` (5) — client → server: the client has copied a
  shared-memory chunk out of the ring; the server may recycle its slot.

**One sender per connection.**  A server connection runs two threads
whatever the number of scans in flight: a reader (requests, credits, cancels,
acks) and a writer.  A batch runner pushing a chunk into a scan's stream
wakes the writer (the stream's listener hook); the writer polls every ready
stream while its credit lasts, encodes the chunks, produces each finished
scan's terminal ``done`` / typed ``error`` reply itself, and hands everything
ready at that wake to one ``sendmsg`` over ``[headers, the regions' own
buffers...]`` — a chunk is never copied into a frame, and a frame's header
and payload never travel in separate packets.  The reader's own replies
reach the writer through a bounded queue whose blocked producer raises the
moment the connection closes.

**Flow control (per stream, not per connection).**  Each scan request grants
the server an initial budget of chunk *credits* (the client's
``stream_buffer_chunks``); every chunk sent spends one.  A stream out of
credits *parks only that stream* — the writer skips it until a grant
arrives, and every other stream keeps full throughput; one slow consumer can
never fill a shared queue and freeze the connection (head-of-line blocking).
The client returns credits half a window at a time as its consumer drains
chunks (a window of 1 returns every chunk).  That cannot starve the server:
window = server credits + chunks in flight or buffered + drained chunks not
yet returned, and the last term stays below half a window, so a server out
of credits always has a chunk the consumer has not taken.  Client-side
queues are unbounded but *credit-bounded*: the demux reader never blocks,
because the server can never have more than a stream's credit budget in
flight.  (Server-side memory stays bounded by the scheduler's own
``service_stream_buffer_chunks`` stream buffers — credits bound the wire,
stream buffers bound the producer.)

**Shared-memory pixel path.**  A same-host client may request, at the hello
handshake, that pixel payloads bypass the socket: the server (when serving
through :class:`ShmTransport`) creates a per-connection
``multiprocessing.shared_memory`` ring and returns its descriptor; chunk
pixels are then written into the ring (one memcpy) and only a small
descriptor frame crosses the socket — the
idiom of xpra's mmap transport, which moves pixels through a shared buffer
and sends offsets on the wire.  Ring slots recycle on ``KIND_SHM_ACK``,
sent by the client's reader the moment it has copied a chunk out, so ring
occupancy tracks wire latency, not consumer speed.  Every fallback is clean:
a server without a ring answers the hello with ``"shm": null``, a client
that fails to attach says so and is served over the socket, and a chunk that
does not fit the ring's free space rides the socket as a plain
``KIND_CHUNK``.

The hello handshake (``{"op": "hello", "version": ..., "shm": <bool>}``)
also pins :data:`PROTOCOL_VERSION`; a version-skewed peer is refused with a
clear error instead of desynchronising the byte stream.  A request whose
fields are not of the types it is used as is refused with an error reply
coded ``refused`` (:class:`~repro.errors.QueryRefused`), and the connection
serves on.  Callers that skip the
hello still get JSON ops and socket chunks — with protocol 3's binary chunk
headers.

A connection that dies *inside* a frame raises
:class:`~repro.errors.TransportError`; only an EOF landing exactly on a
frame boundary reads as clean.  Errors of one query never disturb the
connection's other streams.

**A client is one connection.**  When a :class:`RemoteTasmClient`'s wire
breaks — clean EOF, cut, drop, malformed frame — every stream and request
it carries fails with :class:`~repro.errors.TransportError`, every later
call is refused with it, and its reader thread ends.  Recovering a scan is
one layer's job, the cluster router's: it re-dials the shard under a
:class:`RetryPolicy` (defined here, read only there) and resumes with
``skip_sots``.  ``ClusterRouter([address], retry=...)`` is the resilient
single-server handle.
"""

from __future__ import annotations

import json
import math
import os
import queue
import random
import socket
import struct
import threading
import time
import warnings
from collections import deque
from dataclasses import asdict, dataclass
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from ..core.predicates import TemporalPredicate
from ..core.scan import ScanRegion, ScanResult
from ..errors import (
    ProtocolError,
    QueryError,
    QueryRefused,
    ServiceError,
    TransportError,
    error_code,
    error_from_code,
)
from ..obs import DISABLED
from ..geometry import Rectangle
from ..video.codec import DecodeStats
from .stream import ScanStream, StreamChunk

__all__ = [
    "KIND_CANCEL",
    "KIND_CHUNK",
    "KIND_CREDIT",
    "KIND_JSON",
    "KIND_SHM_ACK",
    "KIND_SHM_CHUNK",
    "PROTOCOL_VERSION",
    "RemoteScanStream",
    "RemoteTasmClient",
    "RetryPolicy",
    "ShmTransport",
    "SocketTransport",
]

#: Version 1 was the plain multiplexed protocol with TCP-level backpressure
#: only; 2 added credits, cancels and the shm ring; 3 made the chunk header
#: binary.  Any other version is refused at the hello.
PROTOCOL_VERSION = 3

_FRAME_HEADER = struct.Struct(">BI")
#: query id, SOT index, region count, label count, label-table bytes
_CHUNK_HEADER = struct.Struct(">IIIII")
_LABEL_LENGTH = struct.Struct(">H")
#: One region of a chunk.  Explicitly little-endian, so on the usual hosts
#: the records are built and read in place; ``label`` indexes the chunk's
#: label table (-1: the region has no label).
_REGION_RECORD = np.dtype(
    [("frame", "<i8"), ("x1", "<f8"), ("y1", "<f8"), ("x2", "<f8"), ("y2", "<f8"),
     ("label", "<i4"), ("rows", "<u4"), ("cols", "<u4")]
)
_CREDIT_FRAME = struct.Struct(">II")  # query id, credits granted
_CANCEL_FRAME = struct.Struct(">I")  # query id
_SHM_CHUNK_HEADER = struct.Struct(">QI")  # ring offset, pixel byte count
_SHM_ACK_FRAME = struct.Struct(">Q")  # ring offset being released

KIND_JSON = 0
KIND_CHUNK = 1
KIND_CREDIT = 2
KIND_CANCEL = 3
KIND_SHM_CHUNK = 4
KIND_SHM_ACK = 5

#: The largest payload either end accepts.  The length field is a peer-supplied
#: 32-bit number; a corrupt or hostile header must fail the connection, not
#: size a 4 GiB read.  Far above any legitimate frame: the largest is one
#: SOT's regions for one query (tens of MiB for a 4K video with long GOPs).
MAX_FRAME_BYTES = 1 << 30

#: Seconds an accepted socket may sit without completing its first frame
#: (normally the hello) before the server closes it and counts
#: ``tasm_handshakes_timed_out_total``: a peer that connects and never speaks
#: must not pin a server thread forever.  0 disables the bound.
HANDSHAKE_TIMEOUT_S = 5.0

#: The per-connection receive buffer: what one ``recv_into`` can bring in.
_RECV_BUFFER_BYTES = 1 << 16

#: Buffers one ``sendmsg`` may carry; longer scatter lists go out in slices.
try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
except (AttributeError, ValueError, OSError):
    _IOV_MAX = 16  # POSIX's guaranteed minimum

#: Size of the per-connection shared-memory pixel ring :class:`ShmTransport`
#: offers.  A chunk that does not fit the ring's free space falls back to the
#: socket path, so the size bounds memory per connection, not correctness.
SHM_RING_BYTES = 16 * 1024 * 1024

#: Hosts a client treats as same-host when auto-deciding whether to request
#: the shared-memory pixel path.
_LOOPBACK_HOSTS = ("127.0.0.1", "::1", "localhost")


def _disable_nagle(sock: socket.socket) -> None:
    """Small control frames (credits, cancels, shm descriptors and acks) must
    not sit in Nagle's buffer behind a quiet wire — with the pixel bytes out
    of band in shared memory, coalescing saves nothing and costs a delayed-ACK
    round trip per chunk."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # not a TCP socket (tests drive pipes/unix sockets through this)


class _ConnectionClosed(TransportError):
    """Internal: the peer is gone; the frame was not (and will not be) sent."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, kind: int, payload: bytes) -> None:
    sock.sendall(_FRAME_HEADER.pack(kind, len(payload)) + payload)


def _flat_views(buffers) -> list[memoryview]:
    """The non-empty ``buffers`` as flat byte views (what slicing a partial
    send or filling a ring slot needs)."""
    views = []
    for buffer in buffers:
        view = memoryview(buffer)
        if view.nbytes:
            views.append(view if view.ndim == 1 else view.cast("B"))
    return views


def send_buffers(sock: socket.socket, views: list[memoryview]) -> None:
    """``sendall`` for a scatter list of flat views: one ``sendmsg`` when the
    kernel takes it whole, looped over partial sends and over lists longer
    than ``IOV_MAX`` (only then are the views, one per region, walked one
    by one)."""
    index, unsent = 0, sum(view.nbytes for view in views)
    while unsent:
        sent = sock.sendmsg(views[index : index + _IOV_MAX])
        unsent -= sent
        if not unsent:
            return
        while sent >= views[index].nbytes:
            sent -= views[index].nbytes
            index += 1
        if sent:
            views[index] = views[index][sent:]


class _FrameReader:
    """Frames off one socket through one receive buffer.

    ``next_frame`` is the ``recv_frame`` contract: ``(kind, payload)``, None
    on an EOF landing on a frame boundary, :class:`TransportError` on an EOF
    inside a frame or a header announcing more than :data:`MAX_FRAME_BYTES`
    (raised before anything is allocated or read for it); a socket timeout
    propagates.  Each payload is its own ``bytearray`` — chunk pixels stay
    writable views of it — filled from the buffer and, past what the buffer
    held, by ``recv_into`` directly.  ``readahead=False`` never reads past
    the frame it returns (for callers that hand the socket on).
    """

    def __init__(self, sock: socket.socket, readahead: bool = True):
        self._sock = sock
        self._buffer = bytearray(_RECV_BUFFER_BYTES if readahead else _FRAME_HEADER.size)
        self._view = memoryview(self._buffer)
        self._start = self._end = 0

    def next_frame(self) -> tuple[int, bytearray] | None:
        while self._end - self._start < _FRAME_HEADER.size:
            if self._start:  # a few header bytes at most: move them to the front
                held = self._end - self._start
                self._buffer[:held] = self._buffer[self._start : self._end]
                self._start, self._end = 0, held
            got = self._sock.recv_into(self._view[self._end :])
            if not got:
                if self._end:
                    raise TransportError(
                        f"connection closed mid-frame: got {self._end} of "
                        f"{_FRAME_HEADER.size} header bytes"
                    )
                return None
            self._end += got
        kind, length = _FRAME_HEADER.unpack_from(self._buffer, self._start)
        self._start += _FRAME_HEADER.size
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of kind {kind} announces {length} payload bytes; the "
                f"limit is {MAX_FRAME_BYTES}"
            )
        payload = bytearray(length)
        have = min(length, self._end - self._start)
        payload[:have] = self._view[self._start : self._start + have]
        self._start += have
        if have < length:
            rest = memoryview(payload)
            while have < length:
                got = self._sock.recv_into(rest[have:])
                if not got:
                    raise TransportError(
                        f"connection closed mid-frame: got {have} of {length} "
                        "payload bytes"
                    )
                have += got
        return kind, payload


def recv_frame(sock: socket.socket) -> tuple[int, bytearray] | None:
    """The next frame as ``(kind, payload)``, or None on a clean EOF; reads
    nothing past it (see :class:`_FrameReader` for what raises)."""
    return _FrameReader(sock, readahead=False).next_frame()


def _json_frame(message: dict) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _FRAME_HEADER.pack(KIND_JSON, len(payload)) + payload


def send_message(sock: socket.socket, message: dict) -> None:
    """Send one JSON frame (request/response side of the protocol)."""
    sock.sendall(_json_frame(message))


def recv_message(sock: socket.socket) -> dict | None:
    """The next JSON frame, or None on a clean EOF.

    Raises :class:`TransportError` on a truncated frame or when the next
    frame is not JSON (callers using this helper speak the request side of
    the protocol, which is JSON-only).
    """
    frame = recv_frame(sock)
    if frame is None:
        return None
    kind, payload = frame
    if kind != KIND_JSON:
        raise TransportError(f"expected a JSON frame, got kind {kind}")
    return json.loads(bytes(payload).decode("utf-8"))


# ----------------------------------------------------------------------
# Chunk (de)serialisation — the binary pixel path
# ----------------------------------------------------------------------
def chunk_parts(query_id: int, sot_index: int, regions) -> tuple[bytes, list[np.ndarray], int]:
    """One chunk split for the wire: header, pixel buffers, total pixel bytes.

    The buffers are the regions' own arrays (one per region, copied only
    when not C-contiguous), so the socket path can ``sendmsg`` them and the
    shared-memory path copy them into the ring without an intermediate
    ``bytes``.  Raises :class:`TransportError` for pixels that are not 2-D
    ``uint8`` — the record has no field to describe anything else.
    """
    labels: dict[str, int] = {}
    records = []
    buffers: list[np.ndarray] = []
    total = 0
    for region in regions:
        pixels = region.pixels
        if pixels.ndim != 2 or pixels.dtype != np.uint8:
            raise TransportError(
                f"a chunk carries 2-D uint8 pixels, not {pixels.dtype} of "
                f"shape {pixels.shape}"
            )
        if not pixels.flags.c_contiguous:
            pixels = np.ascontiguousarray(pixels)
        box = region.region
        label = region.label
        label_id = -1 if label is None else labels.setdefault(label, len(labels))
        records.append(
            (region.frame_index, box.x1, box.y1, box.x2, box.y2, label_id, *pixels.shape)
        )
        buffers.append(pixels)
        total += pixels.size
    encoded = [label.encode("utf-8") for label in labels]
    if any(len(label) > 0xFFFF for label in encoded):
        raise TransportError("a label longer than 65535 bytes does not fit a chunk")
    table = b"".join(_LABEL_LENGTH.pack(len(label)) + label for label in encoded)
    header = (
        _CHUNK_HEADER.pack(query_id, sot_index, len(records), len(encoded), len(table))
        + table
        + np.array(records, dtype=_REGION_RECORD).tobytes()
    )
    return header, buffers, total


def _decode_chunk(payload, at: int, pixels_for) -> tuple[dict, list[ScanRegion]]:
    """Parse and validate the chunk header at ``payload[at:]``; build regions.

    Everything in it is the peer's word, so every length is checked against
    what actually arrived before a pixel is touched, and whatever is wrong
    raises :class:`TransportError`.  ``pixels_for(header_end, total)`` then
    supplies the ``total`` pixel bytes as one flat writable ``uint8`` array.
    """
    labels_at = at + _CHUNK_HEADER.size
    if labels_at > len(payload):
        raise TransportError("chunk frame shorter than its fixed header")
    query_id, sot_index, count, label_count, table_bytes = _CHUNK_HEADER.unpack_from(payload, at)
    records_at = labels_at + table_bytes
    end = records_at + count * _REGION_RECORD.itemsize
    if end > len(payload):
        raise TransportError(
            f"chunk header announces {table_bytes} label bytes and {count} "
            f"regions; the frame holds {len(payload) - labels_at} bytes"
        )
    table: list[str | None] = []
    cursor = labels_at
    try:
        for _ in range(label_count):
            (length,) = _LABEL_LENGTH.unpack_from(payload, cursor)
            cursor += _LABEL_LENGTH.size + length
            if cursor > records_at:
                break
            table.append(bytes(payload[cursor - length : cursor]).decode("utf-8"))
    except (struct.error, UnicodeDecodeError) as error:
        raise TransportError(f"malformed chunk label table: {error}") from None
    if cursor != records_at or len(table) != label_count:
        raise TransportError("chunk label table does not fill its announced bytes")
    table.append(None)  # what label id -1 indexes
    # One C call turns the records into tuples; a chunk is tens of regions,
    # where plain comparisons beat a dozen vectorised passes.
    records = np.frombuffer(
        payload, dtype=_REGION_RECORD, count=count, offset=records_at
    ).tolist()
    flat = pixels_for(end, sum(record[6] * record[7] for record in records))
    regions: list[ScanRegion] = []
    start = 0
    for frame, x1, y1, x2, y2, label_id, height, width in records:
        # NaN fails both comparisons, so it is refused with the inverted boxes.
        if not (x2 >= x1 and y2 >= y1 and -1 <= label_id < label_count):
            raise TransportError("chunk region record out of range (label id or box)")
        stop = start + height * width
        regions.append(
            ScanRegion(
                frame,
                Rectangle(x1, y1, x2, y2),
                flat[start:stop].reshape(height, width),
                table[label_id],
            )
        )
        start = stop
    return {"id": query_id, "sot_index": sot_index}, regions


def decode_chunk_payload(payload: bytearray) -> tuple[dict, list[ScanRegion]]:
    """Parse one chunk frame into its header and writable ScanRegions.

    The pixel arrays are backed by the received (mutable) buffer, so they are
    writable without a copy — parity with in-process results, whose pixels a
    caller may annotate in place.  A read-only buffer (never produced by
    :class:`_FrameReader`, but possible for callers handing in ``bytes``) is
    copied to preserve that guarantee.
    """

    def pixels_for(header_end: int, total: int) -> np.ndarray:
        if header_end + total != len(payload):
            raise TransportError(
                f"chunk regions add up to {total} pixel bytes; the frame "
                f"carries {len(payload) - header_end}"
            )
        flat = np.frombuffer(payload, dtype=np.uint8, count=total, offset=header_end)
        return flat if flat.flags.writeable else flat.copy()

    return _decode_chunk(payload, 0, pixels_for)


def decode_shm_chunk_payload(
    payload: bytearray, ring_buffer
) -> tuple[int, dict, list[ScanRegion]]:
    """Parse one shared-memory chunk descriptor; pixels copied out of the ring.

    Returns ``(ring_offset, header, regions)`` — the caller must ack
    ``ring_offset`` so the server can recycle the slot.  Unlike the socket
    path, the pixels *must* be copied: the ring memory is reused as soon as
    the ack lands.
    """
    if len(payload) < _SHM_CHUNK_HEADER.size:
        raise TransportError("shared-memory chunk frame shorter than its descriptor")
    ring_offset, slot_bytes = _SHM_CHUNK_HEADER.unpack_from(payload, 0)

    def pixels_for(header_end: int, total: int) -> np.ndarray:
        if header_end != len(payload) or total != slot_bytes:
            raise TransportError(
                f"shared-memory chunk announces {slot_bytes} pixel bytes; "
                f"its regions add up to {total}"
            )
        if ring_offset + total > len(ring_buffer):
            raise TransportError(
                f"shared-memory chunk at {ring_offset}+{total} lies past the "
                f"{len(ring_buffer)}-byte ring"
            )
        return np.frombuffer(ring_buffer, dtype=np.uint8, count=total, offset=ring_offset).copy()

    header, regions = _decode_chunk(payload, _SHM_CHUNK_HEADER.size, pixels_for)
    return ring_offset, header, regions


# ----------------------------------------------------------------------
# The shared-memory pixel ring (server side)
# ----------------------------------------------------------------------
class _ShmRing:
    """A per-connection ring of pixel payloads in shared memory.

    The server allocates contiguous slots at the head (padding over the wrap
    so a payload is never split); the client acks each slot after copying it
    out, and the tail advances over the acked prefix *in allocation order* —
    so an ack arriving out of allocation order can never free memory ahead
    of an unread slot.
    """

    def __init__(self, size: int):
        from multiprocessing import shared_memory

        self._segment = shared_memory.SharedMemory(create=True, size=size)
        self.size = size
        self.name = self._segment.name
        _LOCAL_RING_NAMES.add(self.name)
        self._lock = threading.Lock()
        self._head = 0  # absolute byte counters; ring position is counter % size
        self._tail = 0
        self._outstanding: deque[tuple[int, int]] = deque()  # (offset, padded size)
        self._freed: set[int] = set()
        self._dead = False

    @classmethod
    def try_create(cls, size: int) -> "_ShmRing | None":
        """A ring, or None when shared memory is unavailable on this host."""
        if size <= 0:
            return None
        try:
            return cls(size)
        except Exception:  # noqa: BLE001 — any failure means "no shm offered"
            return None

    def try_write(self, blobs, total: int) -> int | None:
        """Copy ``blobs`` (bytes-like, ``total`` bytes together) into a
        contiguous slot; its ring offset, or None when the free space cannot
        hold it (the caller falls back to the socket path — exhaustion is
        backpressure, not an error)."""
        if total <= 0 or total > self.size:
            return None
        with self._lock:
            if self._dead:
                return None
            start = self._head % self.size
            pad = 0
            if start + total > self.size:
                pad = self.size - start  # skip the tail sliver; stay contiguous
                start = 0
            if (self._head + pad + total) - self._tail > self.size:
                return None
            self._head += pad + total
            view = self._segment.buf
            offset = start
            for blob in _flat_views(blobs):
                view[offset : offset + blob.nbytes] = blob
                offset += blob.nbytes
            self._outstanding.append((start, pad + total))
            return start

    def ack(self, offset: int) -> None:
        """The client copied the chunk at ``offset`` out; recycle its slot."""
        with self._lock:
            if self._dead:
                return
            self._freed.add(offset)
            while self._outstanding and self._outstanding[0][0] in self._freed:
                start, size = self._outstanding.popleft()
                self._freed.discard(start)
                self._tail += size

    def destroy(self) -> None:
        with self._lock:
            self._dead = True
            try:
                self._segment.close()
            except Exception:  # noqa: BLE001 — teardown must not raise
                pass
        try:
            self._segment.unlink()
        except Exception:  # noqa: BLE001
            pass
        _LOCAL_RING_NAMES.discard(self.name)


#: Ring names this process created.  Attaching to one's own segment (client
#: and server in one process, the common test/bench topology) must not
#: unregister it from the resource tracker — the creator's unlink does, and
#: a second unregister makes the tracker spew KeyErrors at exit.
_LOCAL_RING_NAMES: set[str] = set()


def _attach_shm(name: str):
    """Attach to a server-created segment (client side).

    Python < 3.13 registers attached segments with the resource tracker as if
    this process owned them, which makes the tracker unlink live segments at
    exit (bpo-39959); unregister to leave cleanup with the creating server.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    if segment.name not in _LOCAL_RING_NAMES:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # noqa: BLE001 — tracking quirks must not break attach
            pass
    return segment


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class SocketTransport:
    """Accepts socket connections and forwards them onto a TasmServer.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  Each connection runs exactly two threads however many
    scans it carries: a reader (demultiplexing requests, credit grants,
    cancels, and shm acks) and a writer — the connection's one sender, woken
    by the scans' streams, which encodes their chunks, writes their terminal
    replies and sends everything ready in one ``sendmsg``.  Each scan has its
    own credit window, and a scan whose consumer stalls parks only that
    stream: the writer skips it until a grant arrives.  Each connection is
    one admission-control client: its scans share one round-robin slot per
    batch.  It offers no shared-memory ring; :class:`ShmTransport` does.
    """

    #: Bytes of the pixel ring a connection may negotiate; 0 offers none.
    _shm_ring_bytes = 0

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0):
        self._server = server
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._connections_lock = threading.Lock()
        self._running = False
        self._reply_frames = server.tasm.config.service_stream_buffer_chunks

    def start(self) -> "SocketTransport":
        if self._running:
            return self
        self._running = True
        obs = getattr(self._server, "obs", None)
        if obs is not None and obs.enabled:
            # Total reply frames parked behind connection writers: a growing
            # depth means the wire (or a slow client socket) is the bottleneck.
            obs.registry.gauge(
                "tasm_reply_queue_depth",
                "Reply frames queued on connections awaiting the writer.",
            ).set_callback(self._reply_queue_depth)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tasm-socket-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _reply_queue_depth(self) -> int:
        with self._connections_lock:
            connections = list(self._connections)
        return sum(len(connection._replies) for connection in connections)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        # close() alone does not wake a thread blocked in accept(); a
        # shutdown does — the accept fails at once and the loop returns.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self._connections_lock:
            doomed = list(self._connections)
        for connection in doomed:
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> "SocketTransport":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # stop() shut the listener down
            # Bound the hello: the connection reader clears the timeout once
            # the first complete frame lands (see _Connection.serve).
            sock.settimeout(HANDSHAKE_TIMEOUT_S or None)
            _disable_nagle(sock)
            connection = _Connection(
                self._server, sock, self._reply_frames, self._shm_ring_bytes
            )
            with self._connections_lock:
                self._connections.add(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="tasm-socket-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, connection: "_Connection") -> None:
        try:
            connection.serve()
        finally:
            with self._connections_lock:
                self._connections.discard(connection)
            connection.close()


class ShmTransport(SocketTransport):
    """A :class:`SocketTransport` that offers the shared-memory pixel path.

    Same wire protocol, same address; the only difference is that a
    connection whose hello requests shared memory gets a per-connection
    pixel ring (:data:`SHM_RING_BYTES` unless overridden).
    Cross-host clients, clients that never ask, and clients whose attach
    fails are served over the socket exactly as before — the ring is an
    optimisation negotiated per connection, never a requirement.
    """

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
        shm_ring_bytes: int = SHM_RING_BYTES,
    ):
        super().__init__(server, host=host, port=port)
        self._shm_ring_bytes = max(0, shm_ring_bytes)


class _ServedScan:
    """One in-flight scan of a connection, as its writer sees it."""

    __slots__ = ("stream", "credits", "cancelled", "sent", "stalled_at")

    def __init__(self, stream, credits: int | None):
        self.stream = stream
        #: Chunk credits left (None = unbounded).  The reader adds, the
        #: writer spends; both under the connection's condition.
        self.credits = credits
        self.cancelled = False
        self.sent = 0
        #: When the writer parked the stream for want of credit (writer-only).
        self.stalled_at: float | None = None


def _error_reply(query_id, error: BaseException) -> dict:
    """A failure as the wire carries it.  A typed failure (deadline, busy,
    cancelled, refused) crosses as a code so the client re-raises the same
    exception class, not a generic ServiceError."""
    reply = {"type": "error", "id": query_id, "message": str(error)}
    code = error_code(error)
    if code is not None:
        reply["code"] = code
    return reply


def _is_u32(value) -> bool:
    return type(value) is int and 0 <= value < 1 << 32


def _scan_fields(message: dict) -> tuple[str, list, int, float | None, list[int] | None]:
    """A wire scan's ``video``, ``labels``, ``credits``, ``deadline_ms`` and
    ``skip_sots``, each of the type it is used as.  A peer's JSON that only
    looks right is refused with :class:`~repro.errors.QueryRefused`, not
    served wrong:
    a string ``skip_sots`` iterates as one-character SOT names and skips
    nothing, and a ``NaN`` deadline (``json`` reads it) compares false
    against every clock.  The labels themselves and the frame bounds are the
    predicates' to refuse (:class:`~repro.core.predicates.LabelPredicate`,
    :class:`~repro.core.predicates.TemporalPredicate`)."""
    video, labels = message.get("video"), message.get("labels")
    if type(video) is not str:
        raise QueryRefused(f"scan video {video!r} is not a string")
    if type(labels) is not list:
        raise QueryRefused(f"scan labels {labels!r} is not a list of strings")
    credits = message.get("credits", 0)
    deadline_ms, skip_sots = message.get("deadline_ms"), message.get("skip_sots")
    if not _is_u32(credits):
        raise QueryRefused(f"scan credits {credits!r} is not an integer in [0, 2**32)")
    finite = type(deadline_ms) in (int, float) and -math.inf < deadline_ms < math.inf
    if deadline_ms is not None and not finite:
        raise QueryRefused(f"scan deadline_ms {deadline_ms!r} is not a finite number")
    sots = type(skip_sots) is list and all(type(sot) is int and sot >= 0 for sot in skip_sots)
    if skip_sots is not None and not sots:
        raise QueryRefused(f"scan skip_sots {skip_sots!r} is not a list of non-negative integers")
    return video, labels, credits, deadline_ms, skip_sots or None


#: Each field of a wire ``add_metadata``, in ``TASM.add_metadata``'s order,
#: with the JSON types it is stored as.
_METADATA_FIELDS = (
    ("video", (str,), "a string"),
    ("frame", (int,), "an integer"),
    ("label", (str,), "a string"),
    *((name, (int, float), "a number") for name in ("x1", "y1", "x2", "y2", "confidence")),
)


def _metadata_fields(message: dict) -> list:
    """A wire ``add_metadata``'s fields, each of the type it is stored as,
    or :class:`~repro.errors.QueryRefused`.  A box of strings passes
    ``Rectangle``'s checks (``"5" >= "1"``) and, once indexed, breaks every
    scan of its label.  A value of the right type stays the index's to
    refuse or clip (a negative frame, ``NaN``, an inverted box)."""
    values = []
    for name, types, kind in _METADATA_FIELDS:
        value = message.get(name, 1.0 if name == "confidence" else None)
        if type(value) not in types:
            raise QueryRefused(f"add_metadata {name} {value!r} is not {kind}")
        values.append(value)
    return values


class _Connection:
    """One accepted socket: request demux on the reader thread, and one
    writer thread that is the connection's only sender.

    Lock order is stream condition → connection condition (a stream's
    listener takes ``_cond`` from under the stream's own lock), so nothing
    here calls into a stream while holding ``_cond``.
    """

    def __init__(self, server, sock: socket.socket, reply_frames: int, shm_ring_bytes: int = 0):
        self._server = server
        self._sock = sock
        self._obs = getattr(server, "obs", None) or DISABLED
        # One condition guards the reply queue, the scan table and the set
        # of scans with something for the writer: it sleeps here, and a
        # reader whose reply does not fit the bound waits here.
        self._cond = threading.Condition()
        self._closing = False
        self._replies: deque[bytes] = deque()
        self._reply_limit = reply_frames
        self._scans: dict[int, _ServedScan] = {}
        self._ready: set[int] = set()
        self._shm_ring_bytes = shm_ring_bytes
        self._shm_ring: _ShmRing | None = None
        self._writer = threading.Thread(
            target=self._write_loop, name="tasm-socket-writer", daemon=True
        )

    # ------------------------------------------------------------------
    # Reader side (the connection's main thread)
    # ------------------------------------------------------------------
    def serve(self) -> None:
        self._writer.start()
        frames = _FrameReader(self._sock)
        awaiting_first_frame = True
        try:
            while not self._closing:
                try:
                    frame = frames.next_frame()
                except socket.timeout:
                    # Only the pre-hello window carries a socket timeout (the
                    # accept loop set it; it is cleared below): a peer that
                    # never completed a first frame is cut loose, counted.
                    if awaiting_first_frame:
                        self._obs.handshakes_timed_out.inc()
                    return
                if frame is None:
                    return
                if awaiting_first_frame:
                    awaiting_first_frame = False
                    self._sock.settimeout(None)
                kind, payload = frame
                if kind == KIND_JSON:
                    message = json.loads(bytes(payload).decode("utf-8"))
                    if not isinstance(message, dict):
                        self._reply(_error_reply(None, ProtocolError("a JSON frame must hold an object")))
                        continue
                    try:
                        self._handle(message)
                    except _ConnectionClosed:
                        return
                    except Exception as error:  # noqa: BLE001 — report, keep serving
                        self._reply(_error_reply(message.get("id"), error))
                elif kind == KIND_CREDIT:
                    query_id, granted = _CREDIT_FRAME.unpack(payload)
                    self._grant_credit(query_id, granted)
                elif kind == KIND_CANCEL:
                    (query_id,) = _CANCEL_FRAME.unpack(payload)
                    self._cancel_scan(query_id)
                elif kind == KIND_SHM_ACK:
                    (offset,) = _SHM_ACK_FRAME.unpack(payload)
                    if self._shm_ring is not None:
                        self._shm_ring.ack(offset)
                else:
                    # An unknown kind means the byte stream is not what we
                    # think it is; there is no safe way to keep parsing.
                    return
        except (TransportError, ConnectionError, OSError, struct.error):
            return
        except Exception:  # noqa: BLE001 — malformed input must not hang the peer
            return
        finally:
            self.close()

    def _handle(self, message: dict) -> None:
        op = message.get("op")
        query_id = message.get("id")
        if op == "scan":
            self._start_scan(query_id, message)
        elif op == "hello":
            self._handle_hello(query_id, message)
        elif op == "shm_failed":
            # The client could not attach; tear the ring down and serve
            # every chunk over the socket.  Arrives before any scan request
            # (the client resolves attachment during its handshake), so the
            # writer cannot have written into the ring yet.
            ring, self._shm_ring = self._shm_ring, None
            if ring is not None:
                ring.destroy()
        elif op == "add_metadata":
            self._server.add_metadata(*_metadata_fields(message))
            self._reply({"type": "ok", "id": query_id})
        elif op == "stats":
            self._reply({"type": "stats", "id": query_id, **self._server.stats().as_dict()})
        elif op == "video_info":
            # Layout facts the cluster router partitions by: how many SOTs
            # the video has (the ring's key universe) and its frame range.
            # An unknown video is an error reply, like any failure here.
            video = self._server.tasm.video(message["video"])
            self._reply(
                {
                    "type": "video_info",
                    "id": query_id,
                    "video": video.name,
                    "sot_count": video.sot_count,
                    "frame_count": video.video.frame_count,
                }
            )
        elif op == "metrics":
            self._reply(
                {
                    "type": "metrics",
                    "id": query_id,
                    "metrics": self._server.metrics_snapshot(),
                }
            )
        elif op == "trace":
            self._reply(
                {
                    "type": "trace",
                    "id": query_id,
                    "traces": self._server.traces(int(message.get("last", 16))),
                }
            )
        elif op == "query_status":
            self._reply(self._query_status(query_id, message.get("target_id")))
        else:
            self._reply({"type": "error", "id": query_id, "message": f"unknown op {op!r}"})

    def _handle_hello(self, query_id: int, message: dict) -> None:
        version = message.get("version")
        if version != PROTOCOL_VERSION:
            self._reply(
                {
                    "type": "error",
                    "id": query_id,
                    "message": (
                        f"protocol version {version!r} not supported; "
                        f"this server speaks version {PROTOCOL_VERSION}"
                    ),
                }
            )
            return
        shm = message.get("shm")
        if type(shm) is not bool:
            raise QueryRefused(f"hello shm {shm!r} is not a boolean")
        descriptor = None
        if shm and self._shm_ring is None:
            ring = _ShmRing.try_create(self._shm_ring_bytes)
            if ring is not None:
                self._shm_ring = ring
                descriptor = {"name": ring.name, "size": ring.size}
        self._reply(
            {
                "type": "hello",
                "id": query_id,
                "version": PROTOCOL_VERSION,
                "shm": descriptor,
            }
        )

    def _start_scan(self, query_id: int, message: dict) -> None:
        # The id travels in the binary frames' u32 fields: a peer's JSON value
        # that does not fit one is refused here, not found by the writer.
        if not _is_u32(query_id):
            raise QueryRefused(f"scan id {query_id!r} is not an integer in [0, 2**32)")
        video, labels, credits, deadline_ms, skip_sots = _scan_fields(message)
        with self._cond:
            if query_id in self._scans:
                raise QueryRefused(f"query id {query_id} is already in flight")
        try:
            temporal = TemporalPredicate(message.get("frame_start"), message.get("frame_stop"))
            query = self._server._build_query(video, labels, temporal)
        except QueryError as error:
            raise QueryRefused(str(error)) from error
        stream = self._server.submit(
            query, client=self, deadline_ms=deadline_ms, skip_sots=skip_sots
        )
        stream._listener = partial(self._wake, query_id)
        with self._cond:
            if not self._closing:
                self._scans[query_id] = _ServedScan(stream, credits or None)
                # Whatever the stream did before the listener was attached is
                # in its buffer or its state: have the writer look once.
                self._ready.add(query_id)
                self._cond.notify_all()
                return
        stream._fail(ServiceError("connection closed"))
        raise _ConnectionClosed("connection closed; the scan was not started")

    def _wake(self, query_id: int) -> None:
        """Scan ``query_id`` has something for the writer (a chunk, its end,
        fresh credit).  Streams call this holding their own condition."""
        with self._cond:
            self._ready.add(query_id)
            self._cond.notify_all()

    def _query_status(self, request_id: int, target_id) -> dict:
        """Which pipeline stage one of this connection's scans is in.

        Best-effort introspection for starved clients: ``queue`` (accepted,
        not yet in a running batch), ``execute`` (its batch started), ``wire``
        (finished server-side, the writer still delivering), or ``unknown``
        (finished, cancelled, or never seen).
        """
        if not _is_u32(target_id):
            raise QueryRefused(f"query_status target_id {target_id!r} is not a u32")
        with self._cond:
            scan = self._scans.get(target_id)
        if scan is None:
            return {"type": "status", "id": request_id, "stage": "unknown",
                    "delivered": 0}
        stream = scan.stream
        delivered = len(stream.delivered)
        if stream.done:
            stage = "wire"
        elif stream.started_at is not None:
            stage = "execute"
        else:
            stage = "queue"
        return {
            "type": "status",
            "id": request_id,
            "stage": stage,
            "delivered": delivered,
        }

    def _grant_credit(self, query_id: int, granted: int) -> None:
        with self._cond:
            scan = self._scans.get(query_id)
            if scan is not None and scan.credits is not None:
                scan.credits += granted
                self._ready.add(query_id)  # the writer may have parked it
                self._cond.notify_all()

    def _cancel_scan(self, query_id: int) -> None:
        with self._cond:
            scan = self._scans.get(query_id)
            if scan is None:
                return  # already finished; nothing to cancel
            scan.cancelled = True
            # The writer drops the scan without a reply (the client awaits
            # none) — also one parked with its stream already ended, which
            # nothing else would wake.
            self._ready.add(query_id)
            self._cond.notify_all()
        # Terminal-fails the scheduler stream: the batch runner skips the
        # scan's remaining per-SOT work.
        scan.stream.close()

    def _reply(self, message: dict) -> None:
        """Queue one JSON reply for the writer, honouring the bound.

        Blocks while the queue is full (the writer is waiting on a slow
        socket) and raises :class:`TransportError` the moment the connection
        dies — no polling, no silent drops.
        """
        frame = _json_frame(message)
        with self._cond:
            while len(self._replies) >= self._reply_limit and not self._closing:
                self._cond.wait()
            if self._closing:
                raise _ConnectionClosed("connection closed; the frame was not sent")
            self._replies.append(frame)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Writer side (the connection's one sender)
    # ------------------------------------------------------------------
    def _write_loop(self) -> None:
        try:
            while True:
                with self._cond:
                    while not (self._closing or self._replies or self._ready):
                        self._cond.wait()
                    if self._closing:
                        return
                    frames = [[reply] for reply in self._replies]
                    self._replies.clear()
                    ready = [
                        (query_id, self._scans[query_id])
                        for query_id in self._ready
                        if query_id in self._scans
                    ]
                    self._ready.clear()
                    if frames:
                        self._cond.notify_all()  # a reader waiting on the reply bound
                for query_id, scan in ready:
                    self._serve_scan(query_id, scan, frames)
                if frames:
                    self._send_frames(frames)
        except (TransportError, OSError):
            pass  # the peer is gone
        finally:
            self.close()

    def _serve_scan(self, query_id: int, scan: _ServedScan, frames: list) -> None:
        """Append everything ``scan`` may send now to ``frames``: buffered
        chunks while its credit lasts, then — once the stream has ended and
        drained — its terminal reply."""
        stream = scan.stream
        if scan.cancelled:
            self._forget_scan(query_id, scan)
            return
        with self._cond:
            budget = scan.credits
        sent = 0
        while True:
            # Read the terminal flag first: a stream accepts no chunk after
            # it, so "was terminal, and nothing buffered" is final.
            ended = stream.done
            chunk = None
            if budget is None or sent < budget:
                chunk = stream.poll()
            elif stream.buffered_chunks:
                # Out of credit with chunks to send: park this stream (and
                # only it) until the reader's next grant marks it ready.
                if scan.stalled_at is None:
                    scan.stalled_at = time.perf_counter()
                break
            if chunk is None:
                if ended:
                    frames.append([self._final_reply(query_id, scan)])
                    self._forget_scan(query_id, scan)
                break
            frames.append(self._chunk_frame(query_id, chunk))
            sent += 1
        if sent:
            scan.sent += sent
            self._observe_stall(scan)
            if budget is not None:
                with self._cond:
                    scan.credits -= sent

    def _observe_stall(self, scan: _ServedScan) -> None:
        """Only actual stalls are observed; the common credit-available case
        records nothing."""
        if scan.stalled_at is not None:
            self._obs.credit_stall_seconds.observe(time.perf_counter() - scan.stalled_at)
            scan.stalled_at = None

    def _chunk_frame(self, query_id: int, chunk) -> list:
        """One chunk as a frame's buffers: through the shm ring when it fits,
        else the socket (ring exhaustion falls back instead of blocking)."""
        header, buffers, total = chunk_parts(query_id, chunk.sot_index, chunk.regions)
        ring = self._shm_ring
        if ring is not None and total > 0:
            offset = ring.try_write(buffers, total)
            if offset is not None:
                self._obs.chunks_sent["shm"].inc()
                descriptor = _SHM_CHUNK_HEADER.pack(offset, total)
                return [
                    _FRAME_HEADER.pack(KIND_SHM_CHUNK, len(descriptor) + len(header))
                    + descriptor
                    + header
                ]
            # Ring negotiated but full: this chunk rides the socket instead.
            self._obs.shm_fallbacks.inc()
        self._obs.chunks_sent["socket"].inc()
        return [_FRAME_HEADER.pack(KIND_CHUNK, len(header) + total) + header, *buffers]

    def _final_reply(self, query_id: int, scan: _ServedScan) -> bytes:
        """The ``done`` / typed ``error`` frame of a scan whose stream ended
        and drained."""
        try:
            result = scan.stream.result(timeout=0)
        except ServiceError as error:
            return _json_frame(_error_reply(query_id, error))
        # Detail span on the (already finished) trace: time from the scan's
        # submission to its last chunk leaving.  Trace mutation is
        # lock-protected, so the ring's readers see it whole.
        scan.stream.trace.add_span(
            "wire", time.perf_counter() - scan.stream.submitted_at, chunks=scan.sent
        )
        return _json_frame(
            {
                "type": "done",
                "id": query_id,
                "video": result.video,
                "index_seconds": result.index_seconds,
                "decode_seconds": result.decode_seconds,
                # The client rebuilds DecodeStats(**stats).
                "stats": asdict(result.stats),
            }
        )

    def _forget_scan(self, query_id: int, scan: _ServedScan) -> None:
        self._observe_stall(scan)
        with self._cond:
            self._scans.pop(query_id, None)

    def _send_frames(self, frames: list) -> None:
        """Everything gathered at one wake, in one ``sendmsg``."""
        send_buffers(self._sock, _flat_views(part for frame in frames for part in frame))

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._cond:
            self._closing = True
            orphaned = list(self._scans.values())
            self._scans.clear()
            self._cond.notify_all()  # the writer, and a reader on the reply bound
        for scan in orphaned:
            # Nobody is listening: abandon the stream so a batch runner
            # suspended on its buffer (or still producing) is released
            # instead of filling memory for a dead peer.
            scan.stream._fail(ServiceError("connection closed"))
        ring, self._shm_ring = self._shm_ring, None
        if ring is not None:
            ring.destroy()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Re-dial policy for :class:`~repro.cluster.router.ClusterRouter`.

    When a shard's connection fails, the router re-dials that shard up to
    ``attempts`` times with capped exponential backoff
    (``base_delay * 2**attempt``, bounded by ``max_delay``) plus
    proportional jitter (up to ``jitter`` of the delay, so a fleet of
    routers does not re-dial in lockstep).  ``seed`` pins the jitter for
    deterministic tests; None draws from system entropy.  The scan resumes
    over the new connection with ``skip_sots`` naming the chunks already
    delivered, so it carries on byte-identical; a shard that stays
    unreachable is marked down and its share moves to a replica.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def delays(self) -> Iterator[float]:
        """The wait before each of the ``attempts`` re-dials."""
        rng = random.Random(self.seed)
        for attempt in range(self.attempts):
            bounded = min(self.max_delay, self.base_delay * (2.0 ** attempt))
            yield bounded * (1.0 + self.jitter * rng.random())


class RemoteScanStream(ScanStream):
    """The socket source: the client's demux reader pushes the chunks.

    The stream's credit budget (the client's ``stream_buffer_chunks``) bounds
    how many undelivered chunks the server may have in flight: the chunks the
    consumer drains go back as credits half a window at a time, so a consumer
    that falls behind parks *this stream on the server* — never the
    connection's shared reader (its pushes never block: the buffer is
    credit-bounded, not capacity-bounded), and never its other streams.  A
    consumer only blocks on an empty buffer, and by then fewer than half a
    window's drained chunks are unreturned, so the server holds credit or
    the wire holds chunks: it cannot starve.  :meth:`close` cancels
    the scan on the wire, so the server stops decoding for it.  The owning
    client's ``timeout`` bounds the wait for each event: a server that stops
    sending mid-stream raises instead of hanging the consumer forever.  A
    broken wire fails the stream with :class:`TransportError`; resuming it
    elsewhere is the cluster router's job.
    """

    def __init__(
        self, client: "RemoteTasmClient", query_id: int, request: dict, timeout: float | None
    ):
        super().__init__(
            deadline_ms=request["deadline_ms"],
            skip_sots=request.get("skip_sots"),
            event_timeout=timeout,
        )
        self._client = client
        self.query_id = query_id
        #: The credit window the scan request granted.
        self._window = request["credits"]
        #: Chunks the consumer drained whose credit has not gone back yet.
        self._unreturned = 0

    def _drained(self, chunk: StreamChunk) -> None:
        window = self._window
        if window:
            self._unreturned += 1
            if self._unreturned >= max(1, window // 2):
                # Half the window is free again: one frame tells the server,
                # well before it runs out of the other half.
                self._client._grant_credit(self.query_id, self._unreturned)
                self._unreturned = 0

    def _cancel_source(self) -> None:
        self._client._forget_stream(self.query_id)
        self._client._send_cancel(self.query_id)

    def _stuck(self) -> str:
        """Asks the server where the scan actually is (queue vs execute vs
        wire); when even that probe fails — the wire itself may be the
        problem — falls back to what this side knows (chunks delivered)."""
        try:
            status = self._client.query_status(self.query_id)
            stage = status.get("stage", "unknown")
            delivered = status.get("delivered", 0)
            return (
                f"server reports the scan in its {stage} stage with "
                f"{delivered} chunk(s) delivered"
            )
        except Exception:  # noqa: BLE001 — the probe must never mask the timeout
            return (
                f"status probe failed; {len(self.delivered)} chunk(s) had "
                "arrived (starved in queue, execute, or on the wire)"
            )


class RemoteTasmClient:
    """Connects to a :class:`SocketTransport`; multiplexes over one socket.

    Construction performs the hello handshake: the protocol version is
    pinned (a mismatched server is refused with :class:`ProtocolError`), and
    — when ``use_shm`` is true, or left None against a loopback address — the
    shared-memory pixel path is negotiated, falling back cleanly to the
    socket when the server offers no ring or the attach fails.

    Any number of requests may be in flight at once: each gets a fresh query
    id, and a background reader thread demultiplexes responses to the right
    :class:`RemoteScanStream` or blocking call.  The handle is thread-safe —
    threads of one process can share it, issuing concurrent scans over the
    single connection.  ``stream_buffer_chunks`` is each stream's chunk
    credit budget (0 = unbounded): the server never has more than that many
    undelivered chunks in flight per stream, so one unconsumed stream parks
    itself on the server and nothing else — the connection's reader and
    its other streams keep full throughput.

    It is one connection and no more.  When the wire breaks — a cut, a
    drop, a malformed frame — every outstanding stream and request fails
    with :class:`TransportError`, every later call is refused with it, and
    the reader thread ends.  Nothing here re-dials: a handle that outlives
    its connection is ``ClusterRouter([address], retry=RetryPolicy(...))``.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float | None = 30.0,
        stream_buffer_chunks: int = 64,
        use_shm: bool | None = None,
    ):
        self._sock = socket.create_connection(address, timeout=timeout)
        _disable_nagle(self._sock)
        self._timeout = timeout
        self._buffer_chunks = stream_buffer_chunks
        self._send_lock = threading.Lock()
        self._table_lock = threading.Lock()
        self._next_id = 0
        self._streams: dict[int, RemoteScanStream] = {}
        self._replies: dict[int, queue.SimpleQueue] = {}
        #: Set once by :meth:`close`, under the table lock.
        self._closed = False
        self._shm = None
        #: Chunks received through each data path (shared memory vs socket);
        #: handy for verifying what the negotiation actually produced.
        self.shm_chunks_received = 0
        self.socket_chunks_received = 0
        #: Why the connection ended, set once under the table lock by
        #: whichever thread saw it end first; every later call is refused.
        self._dead: BaseException | None = None
        if use_shm is None:
            use_shm = address[0] in _LOOPBACK_HOSTS
        self._sock.settimeout(timeout)  # bound the handshake
        try:
            self._shm = self._handshake(bool(use_shm))
        except BaseException:
            self._sock.close()
            raise
        self._sock.settimeout(None)  # the reader thread blocks; ops use _timeout
        self._reader = threading.Thread(
            target=self._read_loop, name="tasm-client-reader", daemon=True
        )
        self._reader.start()

    def _handshake(self, want_shm: bool):
        """Run the hello; the attached shm segment (or None).

        Raises :class:`TransportError`/:class:`ProtocolError` on failure —
        the caller owns closing the socket.
        """
        sock = self._sock
        try:
            send_message(sock, {"op": "hello", "id": 0, "version": PROTOCOL_VERSION, "shm": want_shm})
            reply = recv_message(sock)
        except OSError as error:
            raise TransportError(f"handshake failed: {error}") from error
        if reply is None:
            raise TransportError("connection closed during handshake")
        if reply.get("type") == "error":
            raise ProtocolError(f"server refused the handshake: {reply.get('message')}")
        if reply.get("type") != "hello" or reply.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(f"unexpected handshake reply: {reply}")
        descriptor = reply.get("shm")
        if descriptor:
            try:
                return _attach_shm(descriptor["name"])
            except Exception:  # noqa: BLE001 — fall back to the socket path
                try:
                    send_message(sock, {"op": "shm_failed", "id": 0})
                except OSError:
                    pass
        return None

    def close(self, join_timeout: float = 5.0) -> None:
        with self._table_lock:
            if self._closed:
                return
            self._closed = True
            outstanding = list(self._streams)
        # Cancel outstanding scans while the socket still works, so the
        # server frees their decode work right away rather than discovering
        # the disconnect when a write fails.
        for query_id in outstanding:
            self._send_cancel(query_id)
        # Shutting down before joining matters for a wedged connection: a
        # reader blocked in recv only wakes when the kernel aborts the
        # transfer.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=join_timeout)
        if self._reader.is_alive():
            warnings.warn(
                f"RemoteTasmClient reader thread did not exit within "
                f"{join_timeout} seconds; the connection's resources may "
                f"outlive this handle",
                RuntimeWarning,
                stacklevel=2,
            )
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except Exception:  # noqa: BLE001 — teardown must not raise
                pass

    def __enter__(self) -> "RemoteTasmClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The demultiplexing reader
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        """Demultiplex frames until the connection ends, then fail whatever
        is still outstanding with why it ended."""
        try:
            self._read_frames()
            error: BaseException = TransportError("the server closed the connection")
        except Exception as failure:  # noqa: BLE001 — the reader must not die mute
            # A socket error, a cut, or a malformed frame (corrupt JSON, a
            # truncated chunk header — a version-skewed peer or a desynced
            # byte stream): nothing after it on this connection is trusted.
            error = failure
            if not isinstance(failure, TransportError):
                error = TransportError(f"connection lost: {failure!r}")
        if self._closed:
            error = ServiceError("the client is closed")
        self._fail_outstanding(error)

    def _read_frames(self) -> None:
        """Read and dispatch frames until a clean EOF (returns) or a wire
        error (raises)."""
        frames = _FrameReader(self._sock)
        while True:
            frame = frames.next_frame()
            if frame is None:
                return
            kind, payload = frame
            if kind == KIND_CHUNK:
                header, regions = decode_chunk_payload(payload)
                self.socket_chunks_received += 1
                stream = self._stream_for(header.get("id"))
                if stream is not None:
                    stream._push(StreamChunk(header["sot_index"], regions))
            elif kind == KIND_SHM_CHUNK:
                if self._shm is None:
                    raise TransportError(
                        "server sent a shared-memory chunk on a connection "
                        "without a negotiated ring"
                    )
                offset, header, regions = decode_shm_chunk_payload(
                    payload, self._shm.buf
                )
                # The pixels are copied out; release the ring slot even
                # if nobody waits on this stream anymore.
                self._send_frame(KIND_SHM_ACK, _SHM_ACK_FRAME.pack(offset))
                self.shm_chunks_received += 1
                stream = self._stream_for(header.get("id"))
                if stream is not None:
                    stream._push(StreamChunk(header["sot_index"], regions))
            elif kind == KIND_JSON:
                self._dispatch_json(json.loads(bytes(payload).decode("utf-8")))
            else:
                raise TransportError(f"unknown frame kind {kind}")

    def _dispatch_json(self, message: dict) -> None:
        query_id = message.get("id")
        message_type = message.get("type")
        with self._table_lock:
            stream = self._streams.get(query_id)
            reply = self._replies.get(query_id)
        if stream is not None and message_type in ("done", "error"):
            with self._table_lock:
                self._streams.pop(query_id, None)
            if message_type == "done":
                stream._finish(_assemble_result(message))
            else:
                stream._fail(error_from_code(message.get("code"), message["message"]))
        elif reply is not None:
            with self._table_lock:
                self._replies.pop(query_id, None)
            reply.put(message)
        # Responses for ids nobody waits on (e.g. a stream cancelled locally
        # already) are dropped — the protocol has no unsolicited frames.

    def _stream_for(self, query_id: int) -> RemoteScanStream | None:
        with self._table_lock:
            return self._streams.get(query_id)

    def _forget_stream(self, query_id: int) -> None:
        with self._table_lock:
            self._streams.pop(query_id, None)

    def _fail_outstanding(self, error: BaseException) -> None:
        """The connection is over: record why, and fail every stream and
        request still waiting on it (each request's waiter raises
        :meth:`_refusal`)."""
        with self._table_lock:
            if self._dead is None:
                self._dead = error
            streams = list(self._streams.values())
            replies = list(self._replies.values())
            self._streams.clear()
            self._replies.clear()
        for stream in streams:
            stream._fail(error)
        for reply in replies:
            reply.put(None)

    def _refusal(self) -> ServiceError | None:
        """Why this handle takes no more calls, or None (table lock held)."""
        if self._closed:
            return ServiceError("the client is closed")
        if self._dead is not None:
            return TransportError(f"connection failed: {self._dead}")
        return None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _allocate_id(self) -> int:
        with self._table_lock:
            self._next_id += 1
            return self._next_id

    def _send(self, message: dict) -> None:
        with self._table_lock:
            refusal = self._refusal()
        if refusal is not None:
            raise refusal
        try:
            with self._send_lock:
                send_message(self._sock, message)
        except OSError as error:
            # The wire broke under a sender before the reader saw it: the
            # connection is over for every other caller too.
            failure = TransportError(f"connection lost: {error}")
            self._fail_outstanding(failure)
            raise failure from error

    def _send_frame(self, kind: int, payload: bytes) -> None:
        with self._send_lock:
            send_frame(self._sock, kind, payload)

    def _grant_credit(self, query_id: int, granted: int) -> None:
        """Best-effort: a dead wire fails the stream through its own path."""
        try:
            self._send_frame(KIND_CREDIT, _CREDIT_FRAME.pack(query_id, granted))
        except (OSError, ValueError):
            pass

    def _send_cancel(self, query_id: int) -> None:
        """Best-effort: if the wire is gone the server cleans up on its own."""
        try:
            self._send_frame(KIND_CANCEL, _CANCEL_FRAME.pack(query_id))
        except (OSError, ValueError):
            pass

    def scan_streaming(
        self,
        video: str,
        labels: list[str] | str,
        frame_start: int | None = None,
        frame_stop: int | None = None,
        deadline_ms: float | None = None,
        skip_sots: "Iterable[int] | None" = None,
    ) -> RemoteScanStream:
        """Submit a scan; ``skip_sots`` names SOT indices the server must not
        serve (the cluster router's scatter mechanism: each shard executes
        the query minus the SOTs other shards own)."""
        if isinstance(labels, str):
            labels = [labels]
        query_id = self._allocate_id()
        message = {
            "op": "scan",
            "id": query_id,
            "video": video,
            "labels": labels,
            "frame_start": frame_start,
            "frame_stop": frame_stop,
            "credits": max(0, self._buffer_chunks),
            "deadline_ms": deadline_ms,
        }
        if skip_sots is not None:
            message["skip_sots"] = sorted(set(skip_sots))
        stream = RemoteScanStream(self, query_id, message, self._timeout)
        with self._table_lock:
            self._streams[query_id] = stream
        try:
            self._send(message)
        except BaseException:
            with self._table_lock:
                self._streams.pop(query_id, None)
            raise
        return stream

    def scan(
        self,
        video: str,
        labels: list[str] | str,
        frame_start: int | None = None,
        frame_stop: int | None = None,
        deadline_ms: float | None = None,
    ) -> ScanResult:
        return self.scan_streaming(
            video, labels, frame_start, frame_stop, deadline_ms=deadline_ms
        ).result()

    def query_status(self, query_id: int) -> dict:
        """Ask the server where a query currently sits (queue / execute /
        wire) and how many chunks it has pushed; used to attribute stream
        timeouts to the starving stage."""
        return self._request({"op": "query_status", "target_id": query_id}, "status")

    def add_metadata(
        self,
        video: str,
        frame: int,
        label: str,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        confidence: float = 1.0,
    ) -> None:
        self._request(
            {
                "op": "add_metadata",
                "video": video,
                "frame": frame,
                "label": label,
                "x1": x1,
                "y1": y1,
                "x2": x2,
                "y2": y2,
                "confidence": confidence,
            },
            "ok",
        )

    def stats(self) -> dict:
        return self._request({"op": "stats"}, "stats")

    def video_info(self, video: str) -> dict:
        """Layout facts for one video: ``{"video", "sot_count",
        "frame_count"}``.  The cluster router partitions scans by these."""
        return self._request({"op": "video_info", "video": video}, "video_info")

    def metrics(self) -> dict:
        """The server's full metrics snapshot (see ``repro.obs``).

        Render it for humans with :func:`repro.obs.render_text`.
        """
        return self._request({"op": "metrics"}, "metrics")["metrics"]

    def traces(self, last: int = 16) -> list[dict]:
        """The server's most recent completed query traces, newest first."""
        return self._request({"op": "trace", "last": last}, "trace")["traces"]

    def _request(self, message: dict, answer: str) -> dict:
        """One blocking request/response exchange over the multiplexed wire:
        the reply of type ``answer``.  Any other reply raises as its code
        says (a refused request as :class:`~repro.errors.QueryRefused`)."""
        query_id = self._allocate_id()
        pending: queue.SimpleQueue = queue.SimpleQueue()
        with self._table_lock:
            self._replies[query_id] = pending
        try:
            self._send({**message, "id": query_id})
            reply = pending.get(timeout=self._timeout)
            if reply is not None:
                if reply.get("type") == answer:
                    return reply
                raise error_from_code(reply.get("code"), f"{message['op']} failed: {reply}")
            with self._table_lock:  # None: the connection ended first
                refusal = self._refusal()
            raise refusal
        except queue.Empty:
            raise ServiceError(
                f"no reply to {message.get('op')!r} within {self._timeout} seconds"
            ) from None
        finally:
            with self._table_lock:
                self._replies.pop(query_id, None)


# The ScanResult a done-frame describes; the stream fills in its regions.
def _assemble_result(done: dict) -> ScanResult:
    return ScanResult(
        video=done["video"],
        stats=DecodeStats(**done["stats"]),
        index_seconds=done["index_seconds"],
        decode_seconds=done["decode_seconds"],
    )
