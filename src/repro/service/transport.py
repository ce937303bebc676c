"""A multiplexed, credit-flow-controlled socket transport for remote clients.

Framing: every frame is a 1-byte kind, a 4-byte big-endian payload length,
then that many payload bytes.  The kinds:

* ``KIND_JSON`` (0) — a UTF-8 JSON message.  Every request carries a
  client-chosen ``"id"`` tag, and every response echoes the id of the request
  it answers, so one connection multiplexes any number of in-flight requests
  (concurrent scans included).
* ``KIND_CHUNK`` (1) — one streamed scan chunk: a 4-byte header length, a
  JSON header (query id, SOT index, per-region geometry/shape/dtype), then
  the regions' raw pixel bytes concatenated.
* ``KIND_CREDIT`` (2) — client → server: grant ``n`` more chunk credits to
  query ``qid`` (see *flow control* below).
* ``KIND_CANCEL`` (3) — client → server: abandon query ``qid``.  The server
  fails that stream, releases its pump thread, and the scheduler skips the
  scan's remaining per-SOT decode work — an abandoned scan stops costing
  runner time within roughly one GOP instead of running to completion for
  nobody.
* ``KIND_SHM_CHUNK`` (4) — like ``KIND_CHUNK``, but the pixel bytes live in
  the negotiated shared-memory ring; the frame carries only the ring offset,
  the byte count, and the JSON header.
* ``KIND_SHM_ACK`` (5) — client → server: the client has copied a
  shared-memory chunk out of the ring; the server may recycle its slot.

**Flow control (per stream, not per connection).**  Each scan request grants
the server an initial budget of chunk *credits* (the client's
``stream_buffer_chunks``); every chunk sent spends one, and the client
returns a credit as its consumer drains each chunk.  A stream out of credits
suspends *only its own pump thread* — the connection's writer and every
other stream keep full throughput.  This is what fixes the head-of-line
blocking of the previous protocol, where one slow consumer filled its
bounded client-side queue, stalled the shared demultiplexing reader, and —
through TCP backpressure and the shared outbox — froze every stream on the
connection.  Client-side queues are now unbounded but *credit-bounded*: the
demux reader never blocks, because the server can never have more than a
stream's credit budget in flight.  (Server-side memory stays bounded by the
scheduler's own ``service_stream_buffer_chunks`` stream buffers — credits
bound the wire, stream buffers bound the producer.)

**Shared-memory pixel path.**  A same-host client may request, at the hello
handshake, that pixel payloads bypass the socket: the server (when serving
through :class:`ShmTransport`, or a :class:`SocketTransport` given
``shm_ring_bytes``) creates a per-connection ``multiprocessing.shared_memory``
ring and returns its descriptor; chunk pixels are then written into the ring
(one memcpy) and only a small descriptor frame crosses the socket — the
idiom of xpra's mmap transport, which moves pixels through a shared buffer
and sends offsets on the wire.  Ring slots recycle on ``KIND_SHM_ACK``,
sent by the client's reader the moment it has copied a chunk out, so ring
occupancy tracks wire latency, not consumer speed.  Every fallback is clean:
a server without a ring answers the hello with ``"shm": null``, a client
that fails to attach says so and is served over the socket, and a chunk that
does not fit the ring's free space rides the socket as a plain
``KIND_CHUNK``.

The hello handshake (``{"op": "hello", "version": ..., "shm": ...}``) also
pins :data:`PROTOCOL_VERSION`; a version-skewed peer is refused with a clear
error instead of desynchronising the byte stream.  Clients that skip the
hello (version-1 style raw callers) still get JSON ops and socket chunks.

A connection that dies *inside* a frame raises
:class:`~repro.errors.TransportError`; only an EOF landing exactly on a
frame boundary reads as clean.  Errors of one query never disturb the
connection's other streams.
"""

from __future__ import annotations

import json
import queue
import random
import socket
import struct
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.predicates import TemporalPredicate
from ..core.scan import ScanRegion, ScanResult
from ..errors import (
    DeadlineExceeded,
    ProtocolError,
    ServiceError,
    TransportError,
    error_code,
    error_from_code,
)
from ..faults.plan import (
    FAULT_CONSUMER_SKEW,
    FAULT_SHM_ATTACH,
    FAULT_TRANSPORT_CUT,
    FAULT_TRANSPORT_DELAY,
    FAULT_TRANSPORT_DROP,
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

#: Bumped by the credit/cancel/shm rework: version 1 was the plain
#: multiplexed protocol with TCP-level backpressure only.
PROTOCOL_VERSION = 2

_FRAME_HEADER = struct.Struct(">BI")
_CHUNK_HEADER = struct.Struct(">I")
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

#: Outbox bound used when the configured bound is 0 (unbounded streams still
#: should not let one connection queue frames without limit — memory, not
#: correctness, is at stake here).
_DEFAULT_WIRE_BUFFER = 64

#: The largest payload either end accepts.  The length field is a peer-supplied
#: 32-bit number; a corrupt or hostile header must fail the connection, not
#: size a 4 GiB read.  Far above any legitimate frame: the largest is one
#: SOT's regions for one query (tens of MiB for a 4K video with long GOPs).
MAX_FRAME_BYTES = 1 << 30

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


class _ScanCancelled(Exception):
    """Internal: the client cancelled this scan; stop pumping, reply nothing."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, kind: int, payload: bytes) -> None:
    sock.sendall(_FRAME_HEADER.pack(kind, len(payload)) + payload)


def recv_frame(sock: socket.socket) -> tuple[int, bytearray] | None:
    """The next frame as ``(kind, payload)``, or None on a clean EOF.

    Raises :class:`TransportError` when the connection dies mid-frame: a
    truncated frame means bytes the header promised never arrived, which
    must not be mistaken for an orderly end of stream.  A header announcing
    more than :data:`MAX_FRAME_BYTES` raises before anything is read for it.
    """
    header = _recv_exact(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    kind, length = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of kind {kind} announces {length} payload bytes; the "
            f"limit is {MAX_FRAME_BYTES}"
        )
    payload = _recv_exact(sock, length)
    if payload is None and length > 0:
        raise TransportError(
            f"connection closed mid-frame: expected {length} payload bytes, got none"
        )
    return kind, payload if payload is not None else bytearray()


def _recv_exact(sock: socket.socket, count: int) -> bytearray | None:
    """Exactly ``count`` bytes, None on EOF *before the first byte* only."""
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if chunks:
                raise TransportError(
                    f"connection closed mid-frame: got {len(chunks)} of {count} bytes"
                )
            return None
        chunks.extend(chunk)
    return chunks


def send_message(sock: socket.socket, message: dict) -> None:
    """Send one JSON frame (request/response side of the protocol)."""
    send_frame(
        sock, KIND_JSON, json.dumps(message, separators=(",", ":")).encode("utf-8")
    )


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
def chunk_parts(query_id: int, sot_index: int, regions) -> tuple[bytes, list[bytes], int]:
    """One chunk split for the wire: JSON header, pixel blobs, total bytes.

    Shared by the socket path (header + blobs concatenated into one frame)
    and the shared-memory path (blobs into the ring, header onto the wire).
    """
    metas = []
    blobs: list[bytes] = []
    total = 0
    for region in regions:
        pixels = np.ascontiguousarray(region.pixels)
        blob = pixels.tobytes()
        metas.append(
            {
                "frame_index": region.frame_index,
                "region": [
                    region.region.x1,
                    region.region.y1,
                    region.region.x2,
                    region.region.y2,
                ],
                "label": region.label,
                "shape": list(pixels.shape),
                "dtype": str(pixels.dtype),
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
        total += len(blob)
    header = json.dumps(
        {"id": query_id, "sot_index": sot_index, "regions": metas},
        separators=(",", ":"),
    ).encode("utf-8")
    return header, blobs, total


def _regions_from_metas(metas, pixels_for) -> list[ScanRegion]:
    """Build ScanRegions from chunk metadata; ``pixels_for(meta, offset)``
    supplies each region's (writable) pixel array."""
    regions: list[ScanRegion] = []
    offset = 0
    for meta in metas:
        pixels = pixels_for(meta, offset)
        offset += meta["nbytes"]
        x1, y1, x2, y2 = meta["region"]
        regions.append(
            ScanRegion(
                frame_index=meta["frame_index"],
                region=Rectangle(x1, y1, x2, y2),
                pixels=pixels,
                label=meta["label"],
            )
        )
    return regions


def decode_chunk_payload(payload: bytearray) -> tuple[dict, list[ScanRegion]]:
    """Parse one chunk frame into its header and writable ScanRegions.

    The pixel arrays are backed by the received (mutable) buffer, so they are
    writable without a copy — parity with in-process results, whose pixels a
    caller may annotate in place.  A read-only buffer (never produced by
    :func:`recv_frame`, but possible for callers handing in ``bytes``) is
    copied to preserve that guarantee.
    """
    (header_length,) = _CHUNK_HEADER.unpack_from(payload, 0)
    body_start = _CHUNK_HEADER.size + header_length
    header = json.loads(bytes(payload[_CHUNK_HEADER.size : body_start]).decode("utf-8"))
    view = memoryview(payload)

    def pixels_for(meta, offset):
        start = body_start + offset
        pixels = np.frombuffer(
            view[start : start + meta["nbytes"]], dtype=np.dtype(meta["dtype"])
        ).reshape(meta["shape"])
        if not pixels.flags.writeable:
            pixels = pixels.copy()
        return pixels

    return header, _regions_from_metas(header["regions"], pixels_for)


def decode_shm_chunk_payload(
    payload: bytearray, ring_buffer
) -> tuple[int, dict, list[ScanRegion]]:
    """Parse one shared-memory chunk descriptor; pixels copied out of the ring.

    Returns ``(ring_offset, header, regions)`` — the caller must ack
    ``ring_offset`` so the server can recycle the slot.  Unlike the socket
    path, the pixels *must* be copied: the ring memory is reused as soon as
    the ack lands.
    """
    ring_offset, _total = _SHM_CHUNK_HEADER.unpack_from(payload, 0)
    header_at = _SHM_CHUNK_HEADER.size
    (header_length,) = _CHUNK_HEADER.unpack_from(payload, header_at)
    body_start = header_at + _CHUNK_HEADER.size
    header = json.loads(
        bytes(payload[body_start : body_start + header_length]).decode("utf-8")
    )

    def pixels_for(meta, offset):
        start = ring_offset + offset
        return (
            np.frombuffer(
                ring_buffer[start : start + meta["nbytes"]],
                dtype=np.dtype(meta["dtype"]),
            )
            .reshape(meta["shape"])
            .copy()
        )

    return ring_offset, header, _regions_from_metas(header["regions"], pixels_for)


# ----------------------------------------------------------------------
# The shared-memory pixel ring (server side)
# ----------------------------------------------------------------------
class _ShmRing:
    """A per-connection ring of pixel payloads in shared memory.

    The server allocates contiguous slots at the head (padding over the wrap
    so a payload is never split); the client acks each slot after copying it
    out, and the tail advances over the acked prefix *in allocation order* —
    so an ack arriving out of order (pumps enqueue descriptors in a different
    order than they allocated) can never free memory ahead of an unread slot.
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

    def try_write(self, blobs: list[bytes], total: int) -> int | None:
        """Copy ``blobs`` into a contiguous slot; its ring offset, or None
        when the free space cannot hold it (the caller falls back to the
        socket path — exhaustion is backpressure, not an error)."""
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
            for blob in blobs:
                view[offset : offset + len(blob)] = blob
                offset += len(blob)
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
# The bounded outbox (server side)
# ----------------------------------------------------------------------
class _Outbox:
    """A bounded frame queue between producer threads and the writer.

    Unlike the polling ``queue.Queue`` loop it replaces, closing wakes every
    blocked producer *immediately* and makes its ``put`` raise
    :class:`TransportError` — a producer never spins against a dead
    connection, and a frame is never silently dropped (an un-sent frame
    raises).  The writer drains whatever was accepted before the close.
    """

    def __init__(self, limit: int):
        self._frames: deque = deque()
        self._cond = threading.Condition()
        self._limit = max(1, limit)
        self._closed = False

    def put(self, frame) -> None:
        with self._cond:
            while len(self._frames) >= self._limit and not self._closed:
                self._cond.wait()
            if self._closed:
                raise _ConnectionClosed(
                    "connection closed; the frame was not sent"
                )
            self._frames.append(frame)
            self._cond.notify_all()

    def get(self):
        """The next frame, or None once closed and drained."""
        with self._cond:
            while not self._frames and not self._closed:
                self._cond.wait()
            if self._frames:
                frame = self._frames.popleft()
                self._cond.notify_all()
                return frame
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def depth(self) -> int:
        """Frames accepted but not yet written to the socket."""
        with self._cond:
            return len(self._frames)


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class SocketTransport:
    """Accepts socket connections and forwards them onto a TasmServer.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  Each connection runs a reader thread (demultiplexing
    requests, credit grants, cancels, and shm acks), a writer thread
    (serialising responses through a bounded outbox), and one pump thread per
    in-flight scan — so a single connection carries any number of concurrent
    scans, each with its own credit window, and a scan whose consumer stalls
    suspends only its own pump.  Each connection is one admission-control
    client: its scans share one round-robin slot per batch.

    ``shm_ring_bytes`` > 0 lets connections negotiate the shared-memory pixel
    path (see :class:`ShmTransport`, which defaults it from the config).
    """

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
        shm_ring_bytes: int = 0,
    ):
        self._server = server
        self._listener = socket.create_server((host, port))
        # A blocked accept() is not reliably interrupted by close() on every
        # platform; a short timeout lets the accept loop poll _running.
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._connections_lock = threading.Lock()
        self._running = False
        self._shm_ring_bytes = max(0, shm_ring_bytes)
        buffer = server.tasm.config.service_stream_buffer_chunks
        self._outbox_frames = buffer if buffer > 0 else _DEFAULT_WIRE_BUFFER
        #: Accepted sockets must complete a first frame (the hello) within
        #: this bound or be closed — an idle or wedged peer cannot pin a
        #: connection's reader thread forever.  0 disables the bound.
        self._handshake_timeout = max(
            0.0, server.tasm.config.service_handshake_timeout_s
        )

    def start(self) -> "SocketTransport":
        if self._running:
            return self
        self._running = True
        obs = getattr(self._server, "obs", None)
        if obs is not None and obs.enabled:
            # Total frames parked in connection outboxes: a growing depth
            # means the wire (or a slow client socket) is the bottleneck.
            obs.registry.gauge(
                "tasm_outbox_depth",
                "Frames queued in connection outboxes awaiting the writer.",
            ).set_callback(self._outbox_depth)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tasm-socket-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _outbox_depth(self) -> int:
        with self._connections_lock:
            connections = list(self._connections)
        return sum(connection._outbox.depth for connection in connections)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
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
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            # Bound the hello: the connection reader clears the timeout once
            # the first complete frame lands (see _Connection.serve).
            sock.settimeout(self._handshake_timeout or None)
            _disable_nagle(sock)
            connection = _Connection(
                self._server, sock, self._outbox_frames, self._shm_ring_bytes
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
        super().__init__(server, host=host, port=port, shm_ring_bytes=shm_ring_bytes)


class _Connection:
    """One accepted socket: request demux, response mux, per-scan pumps."""

    def __init__(self, server, sock: socket.socket, outbox_frames: int, shm_ring_bytes: int = 0):
        self._server = server
        self._sock = sock
        self._obs = getattr(server, "obs", None) or DISABLED
        self._outbox = _Outbox(outbox_frames)
        self._closing = threading.Event()
        self._scans_lock = threading.Lock()
        self._scans: dict[int, object] = {}  # query id -> ResultStream
        # Per-stream flow control: chunk credits (None = unbounded) and the
        # set of cancelled query ids, guarded by one condition so a pump out
        # of credits parks here — and only here — until the client grants
        # more, cancels, or the connection dies.
        self._flow = threading.Condition()
        self._credits: dict[int, int | None] = {}
        self._cancelled: set[int] = set()
        self._shm_ring_bytes = shm_ring_bytes
        self._shm_ring: _ShmRing | None = None
        # Server-side transport fault injection (``TasmConfig.fault_plan``):
        # consulted per outgoing frame by the writer, no-ops when unset.
        plan = getattr(server.tasm.config, "fault_plan", None)
        self._fault_drop = plan.site(FAULT_TRANSPORT_DROP) if plan else None
        self._fault_cut = plan.site(FAULT_TRANSPORT_CUT) if plan else None
        self._fault_delay = plan.site(FAULT_TRANSPORT_DELAY) if plan else None
        self._writer = threading.Thread(
            target=self._write_loop, name="tasm-socket-writer", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # Reader side (the connection's main thread)
    # ------------------------------------------------------------------
    def serve(self) -> None:
        awaiting_first_frame = True
        try:
            while not self._closing.is_set():
                try:
                    frame = recv_frame(self._sock)
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
                    try:
                        self._handle(message)
                    except _ConnectionClosed:
                        return
                    except Exception as error:  # noqa: BLE001 — report, keep serving
                        reply = {
                            "type": "error",
                            "id": message.get("id"),
                            "message": str(error),
                        }
                        code = error_code(error)
                        if code is not None:
                            reply["code"] = code
                        self._reply(reply)
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
            # (the client resolves attachment during its handshake), so no
            # pump can have written into the ring yet.
            ring, self._shm_ring = self._shm_ring, None
            if ring is not None:
                ring.destroy()
        elif op == "add_metadata":
            self._server.add_metadata(
                message["video"],
                message["frame"],
                message["label"],
                message["x1"],
                message["y1"],
                message["x2"],
                message["y2"],
                confidence=message.get("confidence", 1.0),
            )
            self._reply({"type": "ok", "id": query_id})
        elif op == "stats":
            self._reply({"type": "stats", "id": query_id, **self._server.stats().as_dict()})
        elif op == "video_info":
            # Layout facts the cluster router partitions by: how many SOTs
            # the video has (the ring's key universe) and its frame range.
            try:
                video = self._server.tasm.video(message["video"])
            except Exception as error:  # noqa: BLE001 — unknown video and friends
                self._reply(
                    {"type": "error", "id": query_id, "message": str(error)}
                )
            else:
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
        descriptor = None
        if message.get("shm") and self._shm_ring is None:
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
        with self._scans_lock:
            if query_id in self._scans:
                raise ServiceError(f"query id {query_id} is already in flight")
        labels = message["labels"]
        temporal = None
        if message.get("frame_start") is not None or message.get("frame_stop") is not None:
            temporal = TemporalPredicate(
                message.get("frame_start"), message.get("frame_stop")
            )
        query = self._server._build_query(
            message["video"],
            labels if len(labels) != 1 else labels[0],
            temporal,
        )
        credits = int(message.get("credits", 0) or 0)
        stream = self._server.submit(
            query,
            client=self,
            deadline_ms=message.get("deadline_ms"),
            priority=int(message.get("priority", 0) or 0),
            skip_sots=message.get("skip_sots") or None,
        )
        with self._scans_lock:
            self._scans[query_id] = stream
        with self._flow:
            self._credits[query_id] = credits if credits > 0 else None
        threading.Thread(
            target=self._pump_scan,
            args=(query_id, stream),
            name="tasm-socket-pump",
            daemon=True,
        ).start()

    def _query_status(self, request_id: int, target_id) -> dict:
        """Which pipeline stage one of this connection's scans is in.

        Best-effort introspection for starved clients: ``queue`` (accepted,
        not yet in a running batch), ``execute`` (its batch started, judged
        by the queue span or a first chunk), ``wire`` (finished server-side,
        its pump still delivering), or ``unknown`` (finished, cancelled, or
        never seen).  With observability off the queue/execute boundary is
        only visible once a chunk is pushed.
        """
        with self._scans_lock:
            stream = self._scans.get(target_id)
        if stream is None:
            return {"type": "status", "id": request_id, "stage": "unknown",
                    "delivered": 0}
        delivered = len(stream.delivered)
        if stream.done:
            stage = "wire"
        elif stream.first_chunk_at is not None or stream._queue_span_recorded:
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
        with self._flow:
            current = self._credits.get(query_id)
            if current is not None:
                self._credits[query_id] = current + granted
                self._flow.notify_all()

    def _cancel_scan(self, query_id: int) -> None:
        with self._scans_lock:
            stream = self._scans.get(query_id)
        if stream is None:
            return  # already finished; nothing to cancel
        with self._flow:
            self._cancelled.add(query_id)
            self._flow.notify_all()  # wake a pump parked on credits
        # Terminal-fails the scheduler stream: the batch runner skips the
        # scan's remaining per-SOT work and a pump blocked on the stream's
        # buffer or iterator is released.
        stream.close()

    # ------------------------------------------------------------------
    # Pump threads (one per in-flight scan)
    # ------------------------------------------------------------------
    def _pump_scan(self, query_id: int, stream) -> None:
        pump_started = time.perf_counter()
        chunks_sent = 0
        try:
            try:
                for chunk in stream:
                    self._await_credit(query_id)
                    self._send_chunk(query_id, chunk)
                    chunks_sent += 1
                result = stream.result()
            except _ScanCancelled:
                return  # the client walked away; it awaits no reply
            except ServiceError as error:
                if not self._is_cancelled(query_id):
                    reply = {
                        "type": "error",
                        "id": query_id,
                        "message": str(error),
                    }
                    # A typed failure (deadline, busy, poison, cancelled)
                    # crosses the wire as a code so the client re-raises the
                    # same exception class, not a generic ServiceError.
                    code = error_code(error)
                    if code is not None:
                        reply["code"] = code
                    self._reply(reply)
                return
            # Detail span on the (already finished) trace: time this pump
            # spent delivering the scan's chunks over the wire.  Trace
            # mutation is lock-protected, so the ring's readers see it whole.
            stream.trace.add_span(
                "wire", time.perf_counter() - pump_started, chunks=chunks_sent
            )
            self._reply(
                {
                    "type": "done",
                    "id": query_id,
                    "video": result.video,
                    "index_seconds": result.index_seconds,
                    "decode_seconds": result.decode_seconds,
                    "stats": {
                        "pixels_decoded": result.stats.pixels_decoded,
                        "tiles_decoded": result.stats.tiles_decoded,
                        "frames_decoded": result.stats.frames_decoded,
                        "cache_hits": result.stats.cache_hits,
                        "cache_misses": result.stats.cache_misses,
                        "pixels_served_from_cache": result.stats.pixels_served_from_cache,
                    },
                }
            )
        except _ConnectionClosed:
            # Nobody is listening: abandon the stream so a batch runner
            # suspended on its buffer (or still producing) is released
            # instead of filling memory for a dead peer.
            stream._fail(ServiceError("client disconnected mid-stream"))
        finally:
            self._forget_scan(query_id)

    def _await_credit(self, query_id: int) -> None:
        """Park this stream's pump until the client grants a chunk credit.

        Only this stream suspends: the writer, the other pumps, and the
        reader keep running, which is the whole point of per-stream credits.
        """
        stalled_at: float | None = None
        try:
            with self._flow:
                while True:
                    if self._closing.is_set():
                        raise _ConnectionClosed(
                            "connection closed while awaiting credit"
                        )
                    if query_id in self._cancelled:
                        raise _ScanCancelled()
                    credit = self._credits.get(query_id)
                    if credit is None:  # unbounded stream — never parks
                        return
                    if credit > 0:
                        self._credits[query_id] = credit - 1
                        return
                    if stalled_at is None:
                        stalled_at = time.perf_counter()
                    self._flow.wait(1.0)
        finally:
            # Only actual stalls are observed; the common credit-available
            # case records nothing.
            if stalled_at is not None:
                self._obs.credit_stall_seconds.observe(
                    time.perf_counter() - stalled_at
                )

    def _is_cancelled(self, query_id: int) -> bool:
        with self._flow:
            return query_id in self._cancelled

    def _send_chunk(self, query_id: int, chunk) -> None:
        """One chunk to the client: through the shm ring when it fits, else
        the socket (ring exhaustion falls back instead of blocking)."""
        header, blobs, total = chunk_parts(query_id, chunk.sot_index, chunk.regions)
        ring = self._shm_ring
        if ring is not None and total > 0:
            offset = ring.try_write(blobs, total)
            if offset is not None:
                self._enqueue(
                    KIND_SHM_CHUNK,
                    _SHM_CHUNK_HEADER.pack(offset, total)
                    + _CHUNK_HEADER.pack(len(header))
                    + header,
                )
                self._obs.chunks_sent.labels(path="shm").inc()
                return
            # Ring negotiated but full: this chunk rides the socket instead.
            self._obs.shm_fallbacks.inc()
        self._enqueue(
            KIND_CHUNK, _CHUNK_HEADER.pack(len(header)) + header + b"".join(blobs)
        )
        self._obs.chunks_sent.labels(path="socket").inc()

    def _forget_scan(self, query_id: int) -> None:
        with self._scans_lock:
            self._scans.pop(query_id, None)
        with self._flow:
            self._credits.pop(query_id, None)
            self._cancelled.discard(query_id)

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def _reply(self, message: dict) -> None:
        self._enqueue(
            KIND_JSON, json.dumps(message, separators=(",", ":")).encode("utf-8")
        )

    def _enqueue(self, kind: int, payload: bytes) -> None:
        """Queue one encoded frame for the writer, honouring the bound.

        Blocks while the outbox is full (the writer is waiting on a slow
        socket) and raises :class:`TransportError` the moment the connection
        dies — no polling, no silent drops.  Header and payload travel as a
        pair so a multi-megabyte pixel payload is never copied again just to
        glue five header bytes onto it.
        """
        self._outbox.put((_FRAME_HEADER.pack(kind, len(payload)), payload))

    def _write_loop(self) -> None:
        fault_drop = self._fault_drop
        fault_cut = self._fault_cut
        fault_delay = self._fault_delay
        while True:
            frame = self._outbox.get()
            if frame is None:
                return
            header, payload = frame
            # Injected transport faults (deterministic, per outgoing frame):
            # a delay models a congested wire, a drop kills the connection
            # before the frame, a cut kills it *mid-frame* — the client must
            # read that as TransportError, never as a clean EOF.
            if fault_delay is not None and fault_delay.should_fire():
                time.sleep(fault_delay.delay_seconds)
            if fault_drop is not None and fault_drop.should_fire():
                self.close()
                return
            if fault_cut is not None and fault_cut.should_fire() and payload:
                try:
                    self._sock.sendall(header)
                    self._sock.sendall(payload[: max(1, len(payload) // 2)])
                except OSError:
                    pass
                self.close()
                return
            try:
                self._sock.sendall(header)
                self._sock.sendall(payload)
            except OSError:
                self.close()
                return

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closing.set()
        self._outbox.close()
        with self._flow:
            self._flow.notify_all()  # release pumps parked on credits
        with self._scans_lock:
            orphaned = list(self._scans.values())
            self._scans.clear()
        for stream in orphaned:
            stream._fail(ServiceError("connection closed"))
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
    """Reconnect policy for :class:`RemoteTasmClient`.

    On a wire failure the client's reader re-dials the server up to
    ``attempts`` times with capped exponential backoff
    (``base_delay * 2**attempt``, bounded by ``max_delay``) plus
    proportional jitter (up to ``jitter`` of the delay, so a fleet of
    clients does not re-dial in lockstep).  ``seed`` pins the jitter for
    deterministic tests; None draws from system entropy.

    In-flight scans survive a successful reconnect: each is resubmitted with
    ``skip_sots`` naming the chunks already delivered, so the resumed stream
    carries on from where it was cut, byte-identical.  Blocking
    request/response calls (stats, add_metadata) in flight at the failure
    fail instead — whether the server processed them is unknowable.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def delay(self, attempt: int, rng: "random.Random") -> float:
        bounded = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        return bounded * (1.0 + self.jitter * rng.random())


class RemoteScanStream(ScanStream):
    """The socket source: the client's demux reader pushes the chunks.

    The stream's credit budget (the client's ``stream_buffer_chunks``) bounds
    how many undelivered chunks the server may have in flight: each chunk the
    consumer drains returns one credit, so a consumer that falls behind
    suspends *this stream's producer on the server* — never the connection's
    shared reader (its pushes never block: the buffer is credit-bounded, not
    capacity-bounded), and never its other streams.  :meth:`close` cancels
    the scan on the wire, so the server stops decoding for it.  The owning
    client's ``timeout`` bounds the wait for each event: a server that stops
    sending mid-stream raises instead of hanging the consumer forever.
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
        #: The scan request as first sent; a reconnect re-sends it with the
        #: skip set and deadline :meth:`resume` supplies.
        self._request = request

    def _drained(self, chunk: StreamChunk) -> None:
        skew = self._client._fault_skew
        if skew is not None and skew.should_fire():
            # Injected clock-skewed slow consumer: stall between drain and
            # credit return, starving the server's pump.
            time.sleep(skew.delay_seconds)
        if self._request["credits"]:
            # This chunk's buffer slot is free again: let the server send
            # the next one while the consumer works on this one.
            self._client._grant_credit(self.query_id, 1)

    def _cancel_source(self) -> None:
        self._client._forget_stream(self.query_id)
        self._client._send_cancel(self.query_id)

    def _resubmit(self, skip_sots: frozenset[int], deadline_ms: float | None) -> None:
        self._client._send(
            {**self._request, "skip_sots": sorted(skip_sots), "deadline_ms": deadline_ms}
        )

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
    its own server-side pump and nothing else — the connection's reader and
    its other streams keep full throughput.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float | None = 30.0,
        stream_buffer_chunks: int = 64,
        use_shm: bool | None = None,
        retry: RetryPolicy | None = None,
        fault_plan=None,
    ):
        self._address = address
        self._sock = socket.create_connection(address, timeout=timeout)
        _disable_nagle(self._sock)
        self._timeout = timeout
        self._buffer_chunks = stream_buffer_chunks
        self._retry = retry
        self._send_lock = threading.Lock()
        self._table_lock = threading.Lock()
        self._next_id = 0
        self._streams: dict[int, RemoteScanStream] = {}
        self._replies: dict[int, queue.SimpleQueue] = {}
        self._closed = False
        self._close_lock = threading.Lock()
        self._shm = None
        #: Chunks received through each data path (shared memory vs socket);
        #: handy for verifying what the negotiation actually produced.
        self.shm_chunks_received = 0
        self.socket_chunks_received = 0
        #: Successful reconnects performed by the reader thread.
        self.retries_total = 0
        #: Scans failed client-side because their deadline ran out during a
        #: reconnect gap — the server never sees (or counts) these.
        self.deadline_fast_fails = 0
        # Client-side fault injection (chaos tests): a failing shm attach and
        # a clock-skewed slow consumer.
        self._fault_attach = (
            fault_plan.site(FAULT_SHM_ATTACH) if fault_plan is not None else None
        )
        self._fault_skew = (
            fault_plan.site(FAULT_CONSUMER_SKEW) if fault_plan is not None else None
        )
        #: Set by the reader when the wire dies; requests registered after
        #: the outstanding-failure sweep check it so they fail fast instead
        #: of waiting on a connection that will never answer.
        self._dead: BaseException | None = None
        #: Cleared while the reader rebuilds a failed wire, set again when
        #: the wire works (or is dead for good — then ``_dead`` says why).
        #: Senders wait on it so a scan issued mid-reconnect does not write
        #: into a socket known to be gone.
        self._wire_ok = threading.Event()
        self._wire_ok.set()
        if use_shm is None:
            use_shm = address[0] in _LOOPBACK_HOSTS
        self._want_shm = bool(use_shm)
        self._sock.settimeout(timeout)  # bound the handshake
        try:
            self._shm = self._handshake(self._sock)
        except BaseException:
            self._sock.close()
            raise
        self._sock.settimeout(None)  # the reader thread blocks; ops use _timeout
        self._reader = threading.Thread(
            target=self._read_loop, name="tasm-client-reader", daemon=True
        )
        self._reader.start()

    def _handshake(self, sock: socket.socket):
        """Run the hello on ``sock``; the attached shm segment (or None).

        Raises :class:`TransportError`/:class:`ProtocolError` on failure —
        the caller owns closing the socket.  Used for both the initial
        connection and every reconnect (each connection negotiates its own
        ring; a ring from a dead connection is useless).
        """
        try:
            send_message(
                sock,
                {
                    "op": "hello",
                    "id": 0,
                    "version": PROTOCOL_VERSION,
                    "shm": self._want_shm,
                },
            )
            reply = recv_message(sock)
        except TransportError:
            raise
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
                if self._fault_attach is not None and self._fault_attach.should_fire():
                    raise OSError("injected shm attach failure")
                return _attach_shm(descriptor["name"])
            except Exception:  # noqa: BLE001 — fall back to the socket path
                try:
                    send_message(sock, {"op": "shm_failed", "id": 0})
                except OSError:
                    pass
        return None

    @property
    def shm_active(self) -> bool:
        """True when pixel payloads arrive through shared memory."""
        return self._shm is not None

    def close(self, join_timeout: float = 5.0) -> None:
        with self._close_lock:
            if self._closed:
                return
            # Cancel outstanding scans while the socket still works, so the
            # server frees their pumps and decode work right away rather
            # than discovering the disconnect when a write fails.
            with self._table_lock:
                outstanding = list(self._streams.keys())
            for query_id in outstanding:
                self._send_cancel(query_id)
            self._closed = True
            # The socket teardown happens under the same lock the reader's
            # reconnect uses to swap sockets in: either the swap completed
            # (we close the new socket and the reader exits on its next
            # check) or it never will (the reader sees _closed and gives
            # up) — a socket can never leak between close and reconnect.
            # Shutting down before joining matters for a wedged connection:
            # a reader blocked in recv only wakes when the kernel aborts
            # the transfer.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        self._wire_ok.set()  # unblock senders parked on a reconnect
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
        """Demultiplex frames; on a wire failure, reconnect when allowed.

        The reader owns recovery: it is the only thread that knows the wire
        died, and running the reconnect here means stream delivery and
        stream resubmission happen on one thread — no delivered-chunk
        bookkeeping races.  A client without a :class:`RetryPolicy` (or one
        whose attempts are exhausted, or that was closed) fails everything
        outstanding exactly as before.
        """
        while True:
            try:
                self._read_frames()
                error: BaseException = ServiceError("connection closed")
            except (TransportError, ConnectionError, OSError) as wire_error:
                error = wire_error
            except Exception as other:  # noqa: BLE001 — the reader must not die mute
                # A malformed frame (corrupt JSON, truncated chunk header —
                # e.g. a version-skewed peer or a desynced byte stream) is
                # not survivable by reconnecting: the failure is semantic,
                # not transient.  Fail everything outstanding so blocked
                # callers raise instead of waiting on a reader that no
                # longer exists.
                self._fail_outstanding(
                    TransportError(f"malformed frame from server: {other!r}")
                )
                return
            if self._closed:
                self._fail_outstanding(ServiceError("client closed"))
                return
            if self._retry is not None and self._reconnect(error):
                continue
            self._fail_outstanding(error)
            return

    def _read_frames(self) -> None:
        """Read and dispatch frames until a clean EOF (returns) or a wire
        error (raises).  ``self._sock`` is re-read every iteration so a
        reconnect swap takes effect on the next frame.
        """
        while True:
            frame = recv_frame(self._sock)
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

    def _reconnect(self, error: BaseException) -> bool:
        """Dial a replacement connection and resume in-flight scans.

        Runs on the reader thread.  Pending request/reply calls are failed
        immediately (their operation may or may not have been applied — a
        blind re-send could double-apply ``add_metadata``), but scan streams
        are *resumable*: each is re-submitted with ``skip_sots`` naming every
        chunk already delivered, so the server decodes only what the client
        has not seen and the merged result is byte-identical to an
        uninterrupted run.  Returns False when the policy's attempts are
        exhausted or the client was closed concurrently.
        """
        retry = self._retry
        self._wire_ok.clear()
        try:
            # Fail replies only; streams survive the gap and resume below.
            with self._table_lock:
                replies = list(self._replies.values())
                self._replies.clear()
            for reply in replies:
                reply.put(
                    {
                        "type": "error",
                        "message": f"connection lost: {error}",
                        "code": error_code(TransportError("connection lost")),
                    }
                )
            with self._table_lock:
                resumable = list(self._streams.items())
            rng = random.Random(retry.seed)
            for attempt in range(retry.attempts):
                delay = retry.delay(attempt, rng)
                deadline = time.monotonic() + delay
                while not self._closed and time.monotonic() < deadline:
                    time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
                if self._closed:
                    return False
                try:
                    sock = socket.create_connection(
                        self._address, timeout=self._timeout
                    )
                except OSError:
                    continue
                try:
                    _disable_nagle(sock)
                    sock.settimeout(self._timeout)
                    new_shm = self._handshake(sock)
                    sock.settimeout(None)
                except (TransportError, ProtocolError, OSError):
                    sock.close()
                    continue
                with self._close_lock:
                    if self._closed:
                        if new_shm is not None:
                            new_shm.close()
                        sock.close()
                        return False
                    old_sock, self._sock = self._sock, sock
                    old_shm, self._shm = self._shm, new_shm
                try:
                    old_sock.close()
                except OSError:
                    pass
                if old_shm is not None:
                    old_shm.close()
                self.retries_total += 1
                self._wire_ok.set()
                for query_id, stream in resumable:
                    # The snapshot predates the backoff loop: resume() skips
                    # a stream that finished, or that its consumer closed in
                    # the gap (the CANCEL swallowed by the dead wire), so
                    # the new server never executes a scan nobody awaits.
                    try:
                        stream.resume(stream._resubmit)
                    except (ServiceError, OSError) as error:
                        if self._forget_stream(query_id):
                            if isinstance(error, DeadlineExceeded):
                                self.deadline_fast_fails += 1
                            stream._fail(error)
                return True
            return False
        finally:
            # Whatever happened, senders must not block forever on a
            # reconnect that is no longer in progress.
            self._wire_ok.set()

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
                stream._finish(_assemble_result(message, stream.served_regions()))
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

    def _forget_stream(self, query_id: int) -> bool:
        with self._table_lock:
            return self._streams.pop(query_id, None) is not None

    def _fail_outstanding(self, error: BaseException) -> None:
        with self._table_lock:
            self._dead = error
            streams = list(self._streams.values())
            replies = list(self._replies.values())
            self._streams.clear()
            self._replies.clear()
        for stream in streams:
            stream._fail(error)
        for reply in replies:
            reply.put({"type": "error", "message": str(error)})

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _allocate_id(self) -> int:
        with self._table_lock:
            self._next_id += 1
            return self._next_id

    def _send(self, message: dict) -> None:
        # During a reconnect the old socket is gone and the new one is not
        # dialled yet; park senders instead of failing them into the gap.
        if not self._wire_ok.wait(timeout=self._timeout):
            raise TransportError(
                f"reconnect did not complete within {self._timeout} seconds"
            )
        if self._closed:
            raise ServiceError("the client is closed")
        with self._table_lock:
            dead = self._dead
        if dead is not None:
            raise ServiceError(f"connection failed: {dead}") from dead
        with self._send_lock:
            send_message(self._sock, message)

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
        priority: int = 0,
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
            "priority": priority,
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
        priority: int = 0,
    ) -> ScanResult:
        return self.scan_streaming(
            video,
            labels,
            frame_start,
            frame_stop,
            deadline_ms=deadline_ms,
            priority=priority,
        ).result()

    def query_status(self, query_id: int) -> dict:
        """Ask the server where a query currently sits (queue / execute /
        wire) and how many chunks it has pushed; used to attribute stream
        timeouts to the starving stage."""
        reply = self._request({"op": "query_status", "target_id": query_id})
        if reply.get("type") != "status":
            raise ServiceError(f"query_status failed: {reply}")
        return reply

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
        reply = self._request(
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
            }
        )
        if reply.get("type") != "ok":
            raise ServiceError(f"add_metadata failed: {reply}")

    def stats(self) -> dict:
        reply = self._request({"op": "stats"})
        if reply.get("type") != "stats":
            raise ServiceError(f"stats failed: {reply}")
        return reply

    def video_info(self, video: str) -> dict:
        """Layout facts for one video: ``{"video", "sot_count",
        "frame_count"}``.  The cluster router partitions scans by these."""
        reply = self._request({"op": "video_info", "video": video})
        if reply.get("type") != "video_info":
            raise ServiceError(f"video_info failed: {reply}")
        return reply

    def metrics(self) -> dict:
        """The server's full metrics snapshot (see ``repro.obs``).

        Render it for humans with :func:`repro.obs.render_text`.
        """
        reply = self._request({"op": "metrics"})
        if reply.get("type") != "metrics":
            raise ServiceError(f"metrics failed: {reply}")
        return reply["metrics"]

    def traces(self, last: int = 16) -> list[dict]:
        """The server's most recent completed query traces, newest first."""
        reply = self._request({"op": "trace", "last": last})
        if reply.get("type") != "trace":
            raise ServiceError(f"trace failed: {reply}")
        return reply["traces"]

    def _request(self, message: dict) -> dict:
        """One blocking request/response exchange over the multiplexed wire."""
        query_id = self._allocate_id()
        pending: queue.SimpleQueue = queue.SimpleQueue()
        with self._table_lock:
            self._replies[query_id] = pending
        try:
            self._send({**message, "id": query_id})
            return pending.get(timeout=self._timeout)
        except queue.Empty:
            raise ServiceError(
                f"no reply to {message.get('op')!r} within {self._timeout} seconds"
            ) from None
        finally:
            with self._table_lock:
                self._replies.pop(query_id, None)


# Build one assembled ScanResult from a done-frame and the delivered regions.
def _assemble_result(done: dict, regions: list[ScanRegion]) -> ScanResult:
    stats = DecodeStats(**done["stats"])
    return ScanResult(
        video=done["video"],
        regions=regions,
        stats=stats,
        index_seconds=done["index_seconds"],
        decode_seconds=done["decode_seconds"],
    )
