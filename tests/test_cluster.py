"""The cluster layer: ring placement, scatter-gather, replication, failover.

The contracts pinned here:

* the consistent-hash ring is deterministic across processes (stable
  hashing, never ``PYTHONHASHSEED``-salted builtins), replicas are distinct,
  **the ring over one more shard gives it ~1/N of the keys, all moving TO
  it** — the property that keeps N-1 caches warm through a topology change
  — and its table is pinned by a digest, so a refactor moves no key;
* a scattered scan merges **byte-identical** to a single unsharded server,
  for plain, multi-label, and temporally bounded queries;
* placement is the ring's: each SOT goes to its first live replica in
  ring order, and no scan sends a ``metrics`` request;
* failover: a shard killed **mid-scan** (SIGKILL, no goodbye) re-scatters
  its undelivered SOTs to replicas and the merged result stays
  byte-identical to a healthy run — likewise for a seeded transport-drop
  storm confined to one shard by a proxy in front of it, whether the router
  re-dials the shard under its :class:`~repro.service.RetryPolicy` or has
  none;
* a shard that dies before it reports ready fails the supervisor's start,
  which stops the shards that did come up;
* ``ServerBusy`` from a shard at its depth bound routes around it for that
  scan only (the shard is not marked down), and a shard marked down is
  dialled again once ``DOWN_RETRY_AFTER_S`` has passed;
* every request reaches a shard through the router's one ``_call`` path:
  ``metrics`` and ``add_metadata`` mark a lost shard down just as a scan
  does, and leave it alone while the mark lasts;
* the metrics rollup sums counters across shards without flattening
  per-shard detail.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.cluster import (
    ClusterRouter,
    ClusterSupervisor,
    HashRing,
    SceneDataset,
    sot_key,
)
from repro.cluster import router as router_module
from repro.core.tasm import TASM
from repro.errors import ProtocolError, QueryRefused, ServiceError, TransportError
from repro.service import RemoteTasmClient, RetryPolicy, SocketTransport, TasmServer
from tests.test_exec_engine import assert_scan_results_identical
from repro.service.transport import KIND_JSON
from tests.test_faults import FrameServer, frame, gate_decoder
from tests.test_service_flow_control import make_server, wait_until
from tests.wire_proxy import Fault, Faults, WireProxy

LABELS = ["car", "person", "sign"]
#: sha256 of ``nodes_for`` over 2,000 keys and 1-3 replicas (see
#: ``test_placement_matches_the_pinned_table``).
PINNED_PLACEMENT = "2ab3a302b08ed4ae87c6096a3f1cd03a635151855d612a5b599f272c6f06003e"
RETRY = RetryPolicy(attempts=6, base_delay=0.02, max_delay=0.2, seed=11)


# ----------------------------------------------------------------------
# The ring
# ----------------------------------------------------------------------
class TestHashRing:
    def keys(self, count: int = 1000):
        return [sot_key("video", index) for index in range(count)]

    def test_placement_is_deterministic_across_instances(self):
        """Two independently built rings agree on every owner — placement
        must be a pure function of membership, never process state."""
        a = HashRing(["s0", "s1", "s2"], vnodes=32)
        b = HashRing(["s2", "s0", "s1"], vnodes=32)  # insertion order differs
        for key in self.keys():
            assert a.node_for(key) == b.node_for(key)

    def test_replicas_are_distinct_and_owner_first(self):
        ring = HashRing(["s0", "s1", "s2", "s3"], vnodes=32)
        for key in self.keys(200):
            replicas = ring.nodes_for(key, 3)
            assert len(replicas) == len(set(replicas)) == 3
            assert replicas[0] == ring.node_for(key)

    def test_replication_clamps_to_membership(self):
        ring = HashRing(["s0", "s1"], vnodes=16)
        assert sorted(ring.nodes_for("k", 5)) == ["s0", "s1"]

    def test_join_moves_about_one_nth_of_keys_all_toward_the_joiner(self):
        """The consistent-hashing contract: the ring with a 4th shard gives
        it ~1/4 of the keyspace, every moved key moves *to* it, and nothing
        else reshuffles (so the other shards' caches stay warm)."""
        keys = self.keys(2000)
        three = HashRing(["s0", "s1", "s2"], vnodes=64)
        before = {key: three.node_for(key) for key in keys}
        four = HashRing(["s0", "s1", "s2", "s3"], vnodes=64)
        after = {key: four.node_for(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        assert all(after[key] == "s3" for key in moved)
        fraction = len(moved) / len(keys)
        assert 0.15 < fraction < 0.35, f"expected ~1/4 of keys to move, got {fraction:.3f}"

    def test_leave_moves_only_the_leavers_keys(self):
        """The ring without ``s3`` is the 4-node ring with ``s3``'s keys
        re-homed, and only those."""
        keys = self.keys(2000)
        full = HashRing(["s0", "s1", "s2", "s3"], vnodes=64)
        before = {key: full.node_for(key) for key in keys}
        without = HashRing(["s0", "s1", "s2"], vnodes=64)
        after = {key: without.node_for(key) for key in keys}
        for key in keys:
            if before[key] != "s3":
                assert after[key] == before[key]
            else:
                assert after[key] != "s3"

    def test_load_spread_is_reasonable(self):
        """Virtual nodes keep per-shard load near 1/N — no shard may own a
        wildly outsized arc."""
        ring = HashRing([f"s{i}" for i in range(4)], vnodes=64)
        counts: dict[str, int] = {}
        for key in self.keys(4000):
            owner = ring.node_for(key)
            counts[owner] = counts.get(owner, 0) + 1
        for owner, count in counts.items():
            assert 0.5 / 4 < count / 4000 < 2.0 / 4, (owner, counts)

    def test_placement_matches_the_pinned_table(self):
        """Every key's replica list, for 1-3 replicas over shards named as
        the router names them, hashes to a pinned digest: no refactor of the
        ring may move a key (and with it, every shard's warm cache)."""
        ring = HashRing([f"127.0.0.1:{port}" for port in (20471, 20472, 20473, 20474)])
        table = hashlib.sha256()
        for key in self.keys(2000):
            for count in (1, 2, 3):
                table.update(f"{key}\t{count}\t{','.join(ring.nodes_for(key, count))}\n".encode())
        assert table.hexdigest() == PINNED_PLACEMENT


# ----------------------------------------------------------------------
# In-process shards: scatter-gather semantics under full control
# ----------------------------------------------------------------------
#: 24 SOTs: enough keys that each of two ring nodes owns at least one
#: whatever the nodes are called (all on one node: p = 2^-23).  Shard names
#: are ephemeral ``host:port`` strings, so a test that needs every shard to
#: take part must not depend on how a 3-SOT video happens to hash.
WIDE_DATASET = SceneDataset(names=("wide-traffic",), frame_count=120)


def ring_owners(router, config, name):
    """Each SOT's owner per a ring built over the router's shard names."""
    ring = HashRing(router.shards, vnodes=config.cluster_ring_vnodes)
    sot_count = router.video_info(name)["sot_count"]
    return {sot: ring.node_for(sot_key(name, sot)) for sot in range(sot_count)}


def record_shares(monkeypatch) -> list:
    """From now on, ``(shard, skip_sots)`` of every scan a router sends."""
    sent = []
    scan_streaming = RemoteTasmClient.scan_streaming

    def recording(self, *args, skip_sots=None, **kwargs):
        host, port = self._sock.getpeername()[:2]
        sent.append((f"{host}:{port}", frozenset(skip_sots or ())))
        return scan_streaming(self, *args, skip_sots=skip_sots, **kwargs)

    monkeypatch.setattr(RemoteTasmClient, "scan_streaming", recording)
    return sent


def shares(sent, sot_count) -> dict:
    """Each shard's share of one scan: the SOTs its ``skip_sots`` left."""
    universe = set(range(sot_count))
    assert len({shard for shard, _ in sent}) == len(sent), "one share per shard"
    return {shard: universe - skip for shard, skip in sent}


def make_local_cluster(
    config, shards=2, overrides_by_shard=None, dataset=None, **overrides
):
    """N in-process TasmServers behind SocketTransports, same tiny dataset.

    In-process shards let tests gate decoders and bound queues
    deterministically; real multi-process shards are exercised by the
    supervisor tests below.  Every shard builds the same deterministic tiny
    scene (or ``dataset``), so any shard can serve any SOT byte-identically.
    """
    servers, transports = [], []
    video = None
    for index in range(shards):
        shard_overrides = {**overrides, **(overrides_by_shard or {}).get(index, {})}
        if dataset is None:
            server, video = make_server(config, **shard_overrides)
        else:
            tasm = TASM(config=config.with_updates(**shard_overrides))
            dataset(tasm)
            server = TasmServer(tasm).start()
        transport = SocketTransport(server).start()
        servers.append(server)
        transports.append(transport)
    return servers, transports, video


def stop_local_cluster(servers, transports):
    for transport in transports:
        transport.stop()
    for server in servers:
        server.stop()


def replicated(config, factor=2):
    return config.with_updates(cluster_replication_factor=factor)


class TestScatterGather:
    def test_merged_result_matches_single_server(self, config):
        servers, transports, video = make_local_cluster(config, shards=3)
        try:
            router = ClusterRouter(
                [t.address for t in transports], config=replicated(config)
            )
            with RemoteTasmClient(
                transports[0].address, timeout=30.0, use_shm=False
            ) as direct:
                for labels in ("car", LABELS, ["person", "sign"]):
                    assert_scan_results_identical(
                        router.scan(video.name, labels),
                        direct.scan(video.name, labels),
                    )
                # Temporal bound: SOTs outside the range deliver nothing,
                # whichever shard owns them.
                assert_scan_results_identical(
                    router.scan(video.name, "car", frame_start=5, frame_stop=12),
                    direct.scan(video.name, "car", frame_start=5, frame_stop=12),
                )
            router.close()
        finally:
            stop_local_cluster(servers, transports)

    def test_work_actually_splits_across_shards(self, config, monkeypatch):
        """Scatter must be real: with 2 shards each serves a strict subset
        of the SOTs (the ring never degenerates to one owner) — exactly the
        subset the ring assigns it, read off the ``skip_sots`` it was sent."""
        servers, transports, _ = make_local_cluster(
            config, shards=2, dataset=WIDE_DATASET
        )
        name = WIDE_DATASET.names[0]
        try:
            router = ClusterRouter([t.address for t in transports], config=config)
            owners = ring_owners(router, config, name)
            assert set(owners.values()) == set(router.shards)
            sent = record_shares(monkeypatch)
            router.scan(name, LABELS)
            assert shares(sent, len(owners)) == {
                shard: {sot for sot, owner in owners.items() if owner == shard}
                for shard in router.shards
            }
            router.close()
        finally:
            stop_local_cluster(servers, transports)

    def test_each_sot_goes_to_its_first_live_replica_in_ring_order(
        self, config, monkeypatch
    ):
        """At replication 2 the ring alone places each SOT: on its owner,
        ``nodes_for(key, 2)[0]``, and with that owner marked down on the
        next replica, ``nodes_for(key, 2)[1]``.  Either way the merged
        result is byte-identical to a direct scan."""
        servers, transports, _ = make_local_cluster(
            config, shards=3, dataset=WIDE_DATASET
        )
        name = WIDE_DATASET.names[0]
        try:
            router = ClusterRouter(
                [t.address for t in transports], config=replicated(config)
            )
            sot_count = router.video_info(name)["sot_count"]
            ring = HashRing(router.shards, vnodes=config.cluster_ring_vnodes)
            replicas = {sot: ring.nodes_for(sot_key(name, sot), 2) for sot in range(sot_count)}
            direct = servers[0].tasm.scan(name, LABELS)
            sent = record_shares(monkeypatch)
            for down in (None, replicas[0][0]):
                if down is not None:
                    router._down[down] = (TransportError("marked down"), time.monotonic())
                sent.clear()
                assert_scan_results_identical(router.scan(name, LABELS), direct)
                placed = {
                    sot: shard
                    for shard, share in shares(sent, sot_count).items()
                    for sot in share
                }
                assert placed == {
                    sot: owners[1] if owners[0] == down else owners[0]
                    for sot, owners in replicas.items()
                }
            router.close()
        finally:
            stop_local_cluster(servers, transports)

    @pytest.mark.parametrize("factor", [1, 2])
    def test_no_scan_sends_a_metrics_op(self, config, factor, monkeypatch):
        """Placement asks the shards nothing: at any replication factor, 100
        scans send no ``metrics`` request, which would be a round trip to
        every shard on the caller's thread."""
        metrics_ops = []
        fetch = RemoteTasmClient.metrics

        def counting_metrics(self):
            metrics_ops.append(self)
            return fetch(self)

        monkeypatch.setattr(RemoteTasmClient, "metrics", counting_metrics)
        servers, transports, video = make_local_cluster(config, shards=2)
        try:
            router = ClusterRouter(
                [t.address for t in transports], config=replicated(config, factor)
            )
            for _ in range(100):
                assert router.scan(video.name, "car").regions
            router.close()
        finally:
            stop_local_cluster(servers, transports)
        assert not metrics_ops, f"{len(metrics_ops)} metrics ops from 100 scans"

    def test_video_info_cached_and_answered_by_any_live_shard(self, config):
        servers, transports, video = make_local_cluster(config, shards=2)
        try:
            router = ClusterRouter([t.address for t in transports], config=config)
            info = router.video_info(video.name)
            assert info["sot_count"] == servers[0].tasm.video(video.name).sot_count
            assert router.video_info(video.name) is info  # cached
            router.close()
        finally:
            stop_local_cluster(servers, transports)


class TestClusterFailover:
    def test_a_peer_whose_hello_reply_is_no_object_is_marked_down(self, config, monkeypatch):
        """A peer answering the hello with ``[]`` once raised
        ``AttributeError`` out of every ``router.scan``: not a wire error, so
        the router neither re-dialled nor marked it down.  It fails the dial
        with ``ProtocolError`` now, the peer is marked down, and the scans are
        served by the live replica, byte-identical to a direct one."""
        monkeypatch.setattr(router_module, "DOWN_RETRY_AFTER_S", 60.0)
        servers, transports, video = make_local_cluster(config, shards=1)
        live = ("localhost", transports[0].address[1])
        try:
            with FrameServer([frame(KIND_JSON, b"[]")]) as peer:
                # Named so that the peer sorts first: ``video_info`` asks the
                # up shards in name order, so the first scan dials the peer.
                peer_name = ClusterRouter._shard_name(peer.address)
                assert peer_name < ClusterRouter._shard_name(live)
                router = ClusterRouter([live, peer.address], config=replicated(config))
                try:
                    with RemoteTasmClient(
                        transports[0].address, timeout=30.0, use_shm=False
                    ) as direct:
                        for label in ("car", "person"):
                            assert_scan_results_identical(
                                router.scan(video.name, label), direct.scan(video.name, label)
                            )
                    assert list(router._down) == [peer_name]
                    assert isinstance(router._down[peer_name][0], ProtocolError)
                finally:
                    router.close()
        finally:
            stop_local_cluster(servers, transports)

    @pytest.mark.parametrize("shards, retry", [(1, RETRY), (2, None)])
    def test_a_refused_scan_leaves_every_shard_up(self, config, shards, retry):
        """A scan no query can be built from is refused by the shards it
        reaches with ``QueryRefused``: the client's fault, not theirs.  The
        scan fails, no shard is marked down, and the next well-formed scan on
        the same router is served."""
        servers, transports, video = make_local_cluster(config, shards=shards)
        try:
            router = ClusterRouter([t.address for t in transports], config=config, retry=retry)
            with pytest.raises(QueryRefused, match="not a string"):
                router.scan(video.name, [["car"]])
            assert not router._down
            with RemoteTasmClient(
                transports[0].address, timeout=30.0, use_shm=False
            ) as direct:
                assert_scan_results_identical(
                    router.scan(video.name, "car"), direct.scan(video.name, "car")
                )
            router.close()
        finally:
            stop_local_cluster(servers, transports)

    def test_server_busy_routes_around_the_shard_without_marking_it_down(
        self, config
    ):
        """Shard 0 is wedged — its lone runner parked on a gated decoder,
        every pipeline stage full — so its share of the scatter is refused
        SERVER_BUSY and re-scatters to shard 1: the merged result is
        unchanged and shard 0 is still considered healthy (busy != dead)."""
        servers, transports, video = make_local_cluster(
            config,
            shards=2,
            overrides_by_shard={
                0: {"service_runners": 1, "service_max_queue_depth": 1}
            },
        )
        gate = threading.Event()
        calls, original = gate_decoder(servers[0].tasm, gate, hold_call=1)
        filler = RemoteTasmClient(transports[0].address, timeout=30.0, use_shm=False)
        fillers = []
        try:
            # Fill shard 0's whole pipeline (running batch, handoff queue,
            # pending queue) until the server itself starts refusing
            # (SERVER_BUSY arrives as an error on the submitted stream, so
            # watch the server's shed counter, not the submit call); the
            # gated runner guarantees nothing drains back out.
            server = servers[0]

            def server_full():
                fillers.append(filler.scan_streaming(video.name, "car"))
                return server.shed_queue_full >= 2 and server.queue_depth >= 1

            assert wait_until(server_full, timeout=15.0)
            router = ClusterRouter(
                [t.address for t in transports], config=replicated(config)
            )
            with RemoteTasmClient(
                transports[1].address, timeout=30.0, use_shm=False
            ) as direct:
                assert_scan_results_identical(
                    router.scan(video.name, "sign"), direct.scan(video.name, "sign")
                )
            assert not router._down, "busy is overload, not death"
            assert router._shard_name(transports[0].address) not in router._down
            router.close()
        finally:
            gate.set()
            for stream in fillers:
                try:
                    stream.result()
                except ServiceError:
                    pass
            servers[0].tasm._decoder.prefetch_regions = original
            filler.close()
            stop_local_cluster(servers, transports)

    def test_dead_shard_at_submit_time_fails_over(self, config):
        servers, transports, video = make_local_cluster(config, shards=2)
        try:
            router = ClusterRouter(
                [t.address for t in transports], config=replicated(config)
            )
            with RemoteTasmClient(
                transports[1].address, timeout=30.0, use_shm=False
            ) as direct:
                reference = direct.scan(video.name, LABELS)
            transports[0].stop()
            servers[0].stop()
            assert_scan_results_identical(router.scan(video.name, LABELS), reference)
            router.close()
        finally:
            stop_local_cluster(servers[1:], transports[1:])

    def test_no_live_replica_surfaces_the_failure(self, config):
        servers, transports, video = make_local_cluster(config, shards=1)
        router = ClusterRouter([t.address for t in transports], config=config)
        router.video_info(video.name)  # prime the cache while alive
        stop_local_cluster(servers, transports)
        with pytest.raises(ServiceError):
            router.scan(video.name, "car")
        router.close()

    def test_a_down_shard_is_dialled_again_once_its_cooldown_passes(
        self, config, monkeypatch
    ):
        """A one-shard router whose shard went away and came back on the same
        port serves again: once ``DOWN_RETRY_AFTER_S`` has passed since the
        shard was marked down, the next scan dials it."""
        monkeypatch.setattr(router_module, "DOWN_RETRY_AFTER_S", 0.05)
        servers, transports, video = make_local_cluster(config, shards=1)
        address = transports[0].address
        router = ClusterRouter([address], config=config)
        try:
            expected = router.scan(video.name, "car")
            transports[0].stop()
            with pytest.raises(ServiceError):
                router.scan(video.name, "car")
            assert list(router._down) == router.shards
            transports[0] = SocketTransport(servers[0], *address).start()
            time.sleep(0.05)  # the down mark's cooldown, DOWN_RETRY_AFTER_S above
            assert_scan_results_identical(router.scan(video.name, "car"), expected)
            assert not router._down
        finally:
            router.close()
            stop_local_cluster(servers, transports)

    def test_a_stopped_shard_is_dialled_once_then_left_down(
        self, config, monkeypatch
    ):
        """``metrics`` and ``add_metadata`` reach a shard through the same
        ``_call`` as a scan: the first that finds the shard gone marks it
        down, and the calls after it leave it alone while the mark lasts."""
        monkeypatch.setattr(router_module, "DOWN_RETRY_AFTER_S", 60.0)
        servers, transports, video = make_local_cluster(config, shards=2)
        dead, live = (ClusterRouter._shard_name(t.address) for t in transports)
        dials = []
        connect = socket.create_connection

        def counting_connect(address, *args, **kwargs):
            if ClusterRouter._shard_name(address) == dead:
                dials.append(address)
            return connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        router = ClusterRouter([t.address for t in transports], config=config)
        try:
            transports[0].stop()
            servers[0].stop()
            for _ in range(3):
                assert list(router.metrics()["shards"]) == [live]
            assert len(dials) == 1
            for frame in range(3):
                router.add_metadata(video.name, frame, "landmark", 8, 8, 40, 40)
            assert len(dials) == 1
            assert dead in router._down
        finally:
            router.close()
            stop_local_cluster(servers[1:], transports[1:])


# ----------------------------------------------------------------------
# Real shard processes: the chaos suite
# ----------------------------------------------------------------------
CLUSTER_DATASET = SceneDataset(names=("cluster-traffic",), frame_count=30)
#: A longer scene (12 SOTs) so a SIGKILL lands while replicas still owe
#: most of their share — the mid-scan failover window.
CHAOS_DATASET = SceneDataset(names=("chaos-traffic",), frame_count=60)


def cluster_config(config):
    return config.with_updates(
        decode_cache_bytes=64 * 1024 * 1024,
        cluster_replication_factor=2,
    )


class FirstShardDies(SceneDataset):
    """Shard 0 exits while it ingests, before it reports ready."""

    def __call__(self, tasm):
        if multiprocessing.current_process().name == "tasm-shard-0":
            os._exit(3)
        super().__call__(tasm)


def proxy_owning_two_sots(upstream, peer, config, faults: Faults) -> WireProxy:
    """A proxy to ``upstream`` that the ring over it and ``peer`` makes the
    first replica of two or more of CLUSTER_DATASET's SOTs, so it carries a
    hello and two chunks whichever shard answers ``video_info``."""
    name = CLUSTER_DATASET.names[0]
    sots = CLUSTER_DATASET.frame_count // config.codec.gop_frames
    while True:
        proxy = WireProxy(upstream, faults)
        shard = ClusterRouter._shard_name(proxy.address)
        ring = HashRing([shard, ClusterRouter._shard_name(peer)], vnodes=config.cluster_ring_vnodes)
        if sum(ring.node_for(sot_key(name, sot)) == shard for sot in range(sots)) >= 2:
            return proxy
        proxy.close()


class TestShardProcesses:
    def test_kill_one_shard_mid_scan_merged_result_byte_identical(self, config):
        """SIGKILL a shard after the scan's first chunk: the router
        re-scatters its undelivered SOTs to replicas and the merged result
        is byte-identical to a healthy single-server run."""
        with ClusterSupervisor(
            cluster_config(config), shards=3, dataset=CHAOS_DATASET
        ) as supervisor:
            # A one-chunk credit window: a shard may be at most one chunk
            # ahead of the consumer, so the victim below provably still owes
            # SOTs it never sent when it dies.
            router = ClusterRouter(
                supervisor.addresses,
                config=cluster_config(config),
                timeout=60.0,
                stream_buffer_chunks=1,
            )
            name = CHAOS_DATASET.names[0]
            with RemoteTasmClient(
                supervisor.addresses[0], timeout=60.0, use_shm=False
            ) as direct:
                healthy = direct.scan(name, LABELS)
            stream = router.scan_streaming(name, LABELS)
            iterator = iter(stream)
            next(iterator)  # the scan is live: at least one chunk arrived
            # Kill the shard that still owes the most undelivered SOTs.
            victim = max(stream.outstanding, key=lambda owing: len(owing[1]))[0]
            victim_index = [
                router._shard_name(address) for address in supervisor.addresses
            ].index(victim)
            supervisor.kill(victim_index)
            assert not supervisor._shards[victim_index].process.is_alive()
            for _ in iterator:
                pass
            assert_scan_results_identical(stream.result(), healthy)
            assert stream.failovers >= 1
            assert victim in router._down
            router.close()

    def test_seeded_transport_storm_on_one_shard_stays_byte_identical(
        self, config
    ):
        """A seeded drop storm confined to shard 0: a proxy in front of it,
        in this process, kills the connection at its third frame.  Whether
        the router re-dials the shard (RetryPolicy) or fails its share over
        to the replica at once, the merged bytes never change, and the drop
        fired."""
        name = CLUSTER_DATASET.names[0]
        for retry in (None, RETRY):
            with ClusterSupervisor(
                cluster_config(config), shards=2, dataset=CLUSTER_DATASET
            ) as supervisor:
                first, second = supervisor.addresses
                with RemoteTasmClient(second, timeout=30.0, use_shm=False) as direct:
                    healthy = direct.scan(name, LABELS)
                faults = Faults(21, drop=Fault(skip_first=2, max_fires=1))
                with proxy_owning_two_sots(first, second, cluster_config(config), faults) as proxy:
                    router = ClusterRouter(
                        [proxy.address, second],
                        config=cluster_config(config),
                        timeout=30.0,
                        retry=retry,
                    )
                    assert_scan_results_identical(router.scan(name, LABELS), healthy)
                    router.close()
                    assert proxy.fires() == {"drop": 1}

    def test_a_shard_dead_before_reporting_fails_start_and_stops_the_rest(self, config):
        """``poll()`` is true on EOF too: a shard that exits before it
        reports ready fails ``start()`` with RuntimeError, and the shard that
        did come up is stopped, not left running."""
        supervisor = ClusterSupervisor(
            cluster_config(config), shards=2, dataset=FirstShardDies()
        )
        with pytest.raises(RuntimeError, match="shard 0 exited before reporting ready"):
            supervisor.start()
        assert multiprocessing.active_children() == []
        assert supervisor.addresses == []

    def test_metrics_rollup_sums_counters_across_shards(self, config):
        with ClusterSupervisor(
            cluster_config(config), shards=2, dataset=WIDE_DATASET
        ) as supervisor:
            router = ClusterRouter(
                supervisor.addresses, config=cluster_config(config), timeout=30.0
            )
            name = WIDE_DATASET.names[0]
            owners = ring_owners(router, cluster_config(config), name)
            assert set(owners.values()) == set(router.shards)
            router.scan(name, LABELS)
            rolled = router.metrics()
            assert set(rolled["shards"]) == set(router.shards)
            per_shard = [
                sum(
                    float(entry.get("value", 0.0))
                    for entry in snapshot["tasm_queries_submitted_total"]["values"]
                )
                for snapshot in rolled["shards"].values()
            ]
            # Both shards served their share of the scatter...
            assert all(total >= 1.0 for total in per_shard)
            # ...and the rollup is their sum, while per-shard detail survives.
            assert rolled["cluster"]["tasm_queries_submitted_total"] == sum(per_shard)
            router.close()
