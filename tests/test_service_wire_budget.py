"""A clock-free budget for the served path: what one chunk and one scan cost.

``ops_per_s`` on ``cluster_warm`` cannot gate on a noisy runner; counts can.
The one-sender design rests on exact counts, pinned here over 50 warm 4-chunk
scans through a real ``SocketTransport`` and ``RemoteTasmClient`` at the
default 64-credit window:

* a connection that is up starts no thread, whatever it serves, and a
  server with one connection runs its batch runners, one accept thread and
  the connection's reader and writer — nothing else;
* inside half a window no ``KIND_CREDIT`` frame is sent;
* the writer makes at most one ``sendmsg`` per chunk plus one per scan;
* a chunk's pixel buffers are the regions' own arrays on the way out, and
  read-only views of the receive buffer on the way in — no copy on the
  client; on the server a memoised piece sent again is copied once, at that
  second send, into a wire form the decode cache counts
  (``tests/test_wire_form_budget.py``).
"""

from __future__ import annotations

import socket
import threading
from dataclasses import replace

import numpy as np

import repro.service.transport as transport_module
from repro.config import TasmConfig
from repro.core.tasm import TASM
from repro.service import RemoteTasmClient, SocketTransport, TasmServer
from repro.service.transport import chunk_parts
from tests.conftest import build_tiny_video
from tests.test_exec_engine import assert_read_only_pixels, assert_scan_results_identical
from tests.test_service_flow_control import wait_until

SCANS = 50
CHUNKS_PER_SCAN = 4


def four_sot_tasm(config: TasmConfig) -> tuple[TASM, object]:
    video = build_tiny_video(frame_count=CHUNKS_PER_SCAN * config.codec.gop_frames)
    tasm = TASM(config=replace(config, decode_cache_bytes=64 * 1024 * 1024))
    tasm.ingest(video)
    tasm.add_detections(
        video.name, [d for frame in range(video.frame_count) for d in video.ground_truth(frame)]
    )
    return tasm, video


def test_warm_scans_cost_one_send_per_chunk_and_nothing_else(config: TasmConfig, monkeypatch):
    tasm, video = four_sot_tasm(config)
    counts = {"threads": 0, "credits": 0, "sendmsg": 0}
    payloads: list[bytearray] = []

    start_thread = threading.Thread.start
    grant_credit = RemoteTasmClient._grant_credit
    sendmsg = socket.socket.sendmsg
    decode = transport_module.decode_chunk_payload

    def counting_start(self):
        counts["threads"] += 1
        start_thread(self)

    def counting_grant(self, query_id, granted):
        counts["credits"] += 1
        grant_credit(self, query_id, granted)

    def counting_sendmsg(self, *args):
        counts["sendmsg"] += 1
        return sendmsg(self, *args)

    def recording_decode(payload):
        payloads.append(payload)
        return decode(payload)

    with TasmServer(tasm) as server, SocketTransport(server) as transport:
        with RemoteTasmClient(transport.address, use_shm=False) as client:
            warm = client.scan(video.name, "car")  # connection up, tiles cached
            assert warm.regions
            monkeypatch.setattr(threading.Thread, "start", counting_start)
            monkeypatch.setattr(RemoteTasmClient, "_grant_credit", counting_grant)
            monkeypatch.setattr(socket.socket, "sendmsg", counting_sendmsg)
            monkeypatch.setattr(transport_module, "decode_chunk_payload", recording_decode)
            results = [client.scan(video.name, "car") for _ in range(SCANS)]
            monkeypatch.undo()

    for result in results:
        assert result.pixels_decoded == 0
        assert_scan_results_identical(result, warm)
    assert len(payloads) == SCANS * CHUNKS_PER_SCAN
    assert counts["threads"] == 0, "a scan must not start a thread"
    assert counts["credits"] == 0, "4 chunks sit inside half of a 64-credit window"
    assert 0 < counts["sendmsg"] <= SCANS * (CHUNKS_PER_SCAN + 1)

    # Client side: every region's pixels are a read-only view into the frame
    # its chunk arrived in (the receive buffer), not a copy of it, and cannot
    # be made writable again.
    frames = [np.frombuffer(payload, dtype=np.uint8) for payload in payloads]
    for result in results:
        for region in result.regions:
            assert_read_only_pixels(region.pixels)
            assert any(np.shares_memory(region.pixels, frame) for frame in frames)

    # Server side: what goes to ``sendmsg`` is the regions' own memory.
    header, buffers, pixel_bytes = chunk_parts(1, 0, warm.regions)
    assert isinstance(header, bytes)
    assert pixel_bytes == sum(region.pixels.size for region in warm.regions)
    assert len(buffers) == len(warm.regions)
    for buffer, region in zip(buffers, warm.regions):
        assert np.shares_memory(buffer, region.pixels)


def test_a_connection_runs_two_threads_whatever_it_serves(config: TasmConfig):
    """Reader and writer, with eight scans in flight as with none.  Beside
    them the server owns its batch runners and the accept thread, nothing
    else; ``stop()`` ends the accept thread by shutting the listener down,
    and the listener never carried a timeout to poll on."""
    tasm, video = four_sot_tasm(config)
    before = set(threading.enumerate())
    expected = sorted(
        [f"tasm-batch-runner-{index}" for index in range(config.service_runners)]
        + ["tasm-socket-accept", "tasm-socket-conn", "tasm-socket-writer"]
    )

    def server_threads() -> list[str]:
        return sorted(
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.name != "tasm-client-reader"
        )

    with TasmServer(tasm) as server:
        transport = SocketTransport(server).start()
        accept = transport._accept_thread
        try:
            # One credit and nobody draining: every scan parks after its
            # first chunk.
            with RemoteTasmClient(
                transport.address, use_shm=False, stream_buffer_chunks=1
            ) as client:
                client.stats()
                assert server_threads() == expected
                streams = [client.scan_streaming(video.name, "car") for _ in range(8)]
                assert wait_until(lambda: all(stream.buffered_chunks for stream in streams))
                assert server_threads() == expected
                for stream in streams:
                    assert len(stream.result(timeout=30).regions) > 0
        finally:
            transport.stop()
        assert not accept.is_alive()
        assert transport._listener.gettimeout() is None
