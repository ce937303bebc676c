"""One stream contract, three clients.

``TasmClient`` (in process), ``RemoteTasmClient`` (socket) and a two-shard
``ClusterRouter`` all hand out the same :class:`~repro.service.ScanStream`
state machine, so one set of tests pins what every one of them promises:

* chunks cover each SOT the scan touches exactly once, as
  :class:`~repro.service.StreamChunk` named tuples;
* ``result()`` is byte-identical to ``TASM.scan``;
* ``close()`` then ``result()`` raises ``StreamCancelledError``;
* a failed stream re-raises the same typed error on every later ``iter`` /
  ``result()`` instead of hanging the second consumer;
* an expired ``deadline_ms`` raises ``DeadlineExceeded``.

Plus the property the shared core gives the cluster: a consumer that stops
iterating a merged stream parks the shards instead of buffering their whole
output in the router.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import pytest

from repro.cluster import ClusterRouter
from repro.errors import DeadlineExceeded, ServiceError, StreamCancelledError
from repro.service import RemoteTasmClient, ScanStream, StreamChunk
from tests.test_cluster import (
    WIDE_DATASET,
    make_local_cluster,
    ring_owners,
    stop_local_cluster,
)
from tests.test_exec_engine import assert_scan_results_identical, make_tasm
from tests.test_faults import LABELS, gate_decoder
from tests.test_service_flow_control import wait_until

CLIENTS = ["inproc", "socket", "cluster"]


@contextmanager
def serving(kind: str, config):
    """``(client, servers, video)`` for one of the three serving paths; every
    path serves the same tiny scene."""
    servers, transports, video = make_local_cluster(
        config, shards=2 if kind == "cluster" else 1
    )
    if kind == "inproc":
        client = servers[0].connect()
    elif kind == "socket":
        client = RemoteTasmClient(transports[0].address, timeout=30.0, use_shm=False)
    else:
        client = ClusterRouter([t.address for t in transports], config=config)
    try:
        yield client, servers, video
    finally:
        if kind != "inproc":
            client.close()
        stop_local_cluster(servers, transports)


@contextmanager
def gated(servers):
    """Park every server's first prefetch until the block exits."""
    gate = threading.Event()
    originals = [gate_decoder(server.tasm, gate, hold_call=1)[1] for server in servers]
    try:
        yield gate
    finally:
        gate.set()
        for server, original in zip(servers, originals):
            server.tasm._decoder.prefetch_regions = original


@pytest.mark.parametrize("kind", CLIENTS)
def test_chunks_cover_each_sot_once_and_result_matches_tasm_scan(config, kind):
    reference, _ = make_tasm(config)
    with serving(kind, config) as (client, _, video):
        stream = client.scan_streaming(video.name, LABELS)
        assert isinstance(stream, ScanStream)
        chunks = list(stream)
        result = stream.result()
    assert all(isinstance(chunk, StreamChunk) for chunk in chunks)
    # Both spellings every client's callers use: attributes and unpacking.
    assert [(c.sot_index, c.regions) for c in chunks] == [
        (sot_index, regions) for sot_index, regions in chunks
    ]
    sot_count = reference.video(video.name).sot_count
    assert sorted(chunk.sot_index for chunk in chunks) == list(range(sot_count))
    expected = reference.scan(video.name, LABELS)
    assert_scan_results_identical(result, expected)
    by_sot = sorted(chunks, key=lambda chunk: chunk.sot_index)
    assert [id(r) for chunk in by_sot for r in chunk.regions] == [
        id(r) for r in result.regions
    ], "the result is the chunks' regions in ascending SOT order"


@pytest.mark.parametrize("kind", CLIENTS)
def test_close_then_result_raises_stream_cancelled(config, kind):
    with serving(kind, config) as (client, servers, video), gated(servers):
        stream = client.scan_streaming(video.name, "car")
        stream.close()
        for _ in range(2):
            with pytest.raises(StreamCancelledError):
                stream.result(timeout=10)
        assert stream.cancelled and stream.done
        stream.close()  # idempotent


@pytest.mark.parametrize("kind", CLIENTS)
def test_failed_stream_reraises_the_same_typed_error(config, kind):
    """The terminal state lives on the stream, not in its buffer: a second
    (and third) consumer raises what the first one did instead of blocking."""

    def explode(sot, requests, scope):
        raise RuntimeError("decoder exploded")

    with serving(kind, config) as (client, servers, video):
        for server in servers:
            server.tasm._decoder.prefetch_regions = explode
        stream = client.scan_streaming(video.name, "car")
        seen = []
        for _ in range(3):
            with pytest.raises(ServiceError) as by_iter:
                list(stream)
            with pytest.raises(ServiceError) as by_result:
                stream.result(timeout=10)
            seen += [by_iter.value, by_result.value]
    assert len({(type(error), str(error)) for error in seen}) == 1
    assert "decoder exploded" in str(seen[0])


@pytest.mark.parametrize("kind", CLIENTS)
def test_expired_deadline_raises_deadline_exceeded(config, kind):
    with serving(kind, config) as (client, servers, video), gated(servers) as gate:
        stream = client.scan_streaming(video.name, "car", deadline_ms=50.0)
        time.sleep(0.1)  # the deadline lapses while every runner is held
        gate.set()
        for _ in range(2):
            with pytest.raises(DeadlineExceeded):
                stream.result(timeout=30)
        with pytest.raises(DeadlineExceeded):
            list(stream)


def test_stalled_cluster_consumer_parks_the_shards(config):
    """Credits go back to a shard when the *cluster* consumer takes a chunk,
    so a consumer that stops iterating holds at most ``stream_buffer_chunks``
    undelivered chunks per sub-scan and the shards' pumps park — the router
    never soaks up a whole scan behind a stalled caller."""
    window = 1
    servers, transports, _ = make_local_cluster(
        config, shards=2, dataset=WIDE_DATASET, service_stream_buffer_chunks=1
    )
    name = WIDE_DATASET.names[0]
    reference = servers[0].tasm.scan(name, LABELS)
    try:
        router = ClusterRouter(
            [t.address for t in transports], config=config, stream_buffer_chunks=window
        )
        owners = list(ring_owners(router, config, name).values())
        # A shard gets at most four SOTs ahead of a stalled consumer (one
        # sent, one in its pump's hands, one buffered, one being pushed), so
        # one that owns more cannot finish.  Of 24 SOTs some shard owns 12.
        loaded = [
            server
            for server, transport in zip(servers, transports)
            if owners.count(router._shard_name(transport.address)) > 4
        ]
        assert loaded
        stream = router.scan_streaming(name, LABELS)
        iterator = iter(stream)
        chunks = [next(iterator)]
        # ... and the consumer stalls.
        assert not wait_until(
            lambda: any(s.queries_completed for s in loaded), timeout=0.5
        ), "a shard ran its whole share into the router behind a stalled consumer"
        assert stream.buffered_chunks <= window * len(router.shards)
        # Taking chunks again returns credits and the pumps resume.
        chunks.extend(iterator)
        assert len({chunk.sot_index for chunk in chunks}) == len(chunks) == len(owners)
        assert_scan_results_identical(stream.result(), reference)
        router.close()
    finally:
        stop_local_cluster(servers, transports)
