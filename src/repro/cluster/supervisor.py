"""Shard process management for the TASM cluster.

A :class:`ClusterSupervisor` launches N shard processes, each running one
:class:`~repro.service.server.TasmServer` behind a
:class:`~repro.service.transport.SocketTransport` on an ephemeral port, and
reports their addresses back to the parent over a pipe.  Tests and benches
use it to stand a cluster up in a few lines — and to tear individual shards
down mid-scan (:meth:`kill` is an abrupt SIGKILL, the chaos suite's shard
failure).

Every shard ingests the *same* dataset (the VSS shape: storage shared behind
one API), so any shard can serve any ``(video, SOT)`` — partitioning is a
*cache and work* assignment made by the router's consistent-hash ring, not a
data placement constraint.  A failed-over SOT is therefore served
byte-identically by any replica; only its cache warmth differs.

Spawn-safety: the child entry point and the dataset builders are
module-level and their arguments picklable.  A :class:`~repro.faults.FaultPlan`
holds a lock and cannot cross the process boundary, so per-shard fault
injection travels as ``(fault_specs, fault_seed)`` and the child constructs
its plan after the fork.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

from ..config import TasmConfig
from ..core.tasm import TASM
from ..video.synthetic import (
    LinearMotion,
    ObjectTrack,
    OscillatingMotion,
    SceneSpec,
    StationaryMotion,
    SyntheticVideo,
)

__all__ = ["ClusterSupervisor", "SceneDataset", "build_cluster_scene"]

#: Seconds :meth:`ClusterSupervisor.start` waits for every shard to report
#: ready (each builds and encodes its dataset first).
START_TIMEOUT_S = 60.0


def build_cluster_scene(
    name: str,
    width: int = 128,
    height: int = 96,
    frame_count: int = 30,
    frame_rate: int = 5,
    seed: int = 3,
    object_scale: float = 1.0,
) -> SyntheticVideo:
    """A deterministic small scene (car, person, sign) for cluster datasets.

    Every shard, the router's reference runs, and the benches must build
    bit-identical frames from the same arguments — determinism here is what
    makes the failover tests' byte-identity assertions meaningful.

    ``object_scale`` multiplies the object box sizes.  The default tracks are
    deliberately small (fast tests); the scaling bench raises it so each
    region crop decodes enough pixels for compute — not RPC overhead — to
    dominate a scan.
    """
    scale = lambda size: max(4, int(round(size * object_scale)))  # noqa: E731
    tracks = [
        ObjectTrack(
            label="car",
            width=scale(32),
            height=scale(16),
            motion=LinearMotion(
                start_x=4.0,
                start_y=40.0,
                velocity_x=2.0,
                velocity_y=0.0,
                frame_width=width,
                frame_height=height,
            ),
            intensity=220,
        ),
        ObjectTrack(
            label="person",
            width=scale(10),
            height=scale(22),
            motion=OscillatingMotion(
                center_x=width * 0.75,
                center_y=height * 0.75,
                amplitude_x=12.0,
                amplitude_y=4.0,
                period_frames=20.0,
            ),
            intensity=180,
        ),
        ObjectTrack(
            label="sign",
            width=scale(8),
            height=scale(12),
            motion=StationaryMotion(x=8.0, y=8.0),
            intensity=240,
        ),
    ]
    spec = SceneSpec(
        name=name,
        width=width,
        height=height,
        frame_count=frame_count,
        frame_rate=frame_rate,
        tracks=tracks,
        noise_sigma=1.0,
        seed=seed,
    )
    return SyntheticVideo(spec)


@dataclass(frozen=True)
class SceneDataset:
    """A picklable dataset description: named scenes plus shared shape.

    Calling it on a TASM ingests every scene and indexes its full ground
    truth, so a shard comes up query-ready.
    """

    names: tuple = ("cluster-traffic",)
    width: int = 128
    height: int = 96
    frame_count: int = 30
    frame_rate: int = 5
    seed: int = 3
    object_scale: float = 1.0

    def build(self, name: str) -> SyntheticVideo:
        return build_cluster_scene(
            name,
            width=self.width,
            height=self.height,
            frame_count=self.frame_count,
            frame_rate=self.frame_rate,
            seed=self.seed,
            object_scale=self.object_scale,
        )

    def __call__(self, tasm: TASM) -> None:
        for name in self.names:
            video = self.build(name)
            tasm.ingest(video)
            tasm.add_detections(
                video.name,
                [
                    detection
                    for frame in range(video.frame_count)
                    for detection in video.ground_truth(frame)
                ],
            )


def _run_shard(index, config, dataset, host, fault_specs, fault_seed, conn):
    """Child entry point: one TasmServer + SocketTransport until told to stop.

    Reports ``("ready", address)`` (or ``("failed", repr)``) over the pipe,
    then blocks on it: any parent message — or the parent vanishing — shuts
    the shard down.
    """
    # Imported here, not at module top: the parent only needs this module's
    # dataclasses to *describe* a cluster; only children run servers.
    from ..service.server import TasmServer
    from ..service.transport import SocketTransport

    try:
        if fault_specs:
            from ..faults import FaultPlan

            config = config.with_updates(
                fault_plan=FaultPlan(list(fault_specs), seed=fault_seed)
            )
        tasm = TASM(config=config)
        dataset(tasm)
        server = TasmServer(tasm).start()
        transport = SocketTransport(server, host=host)
        transport.start()
    except Exception as error:  # noqa: BLE001 — report, do not die silently
        try:
            conn.send(("failed", repr(error)))
        finally:
            conn.close()
        return
    conn.send(("ready", transport.address))
    try:
        conn.recv()  # blocks until the parent says stop (or disappears)
    except (EOFError, OSError):
        pass
    transport.stop()
    server.stop()
    conn.close()


@dataclass
class _Shard:
    index: int
    process: multiprocessing.process.BaseProcess
    conn: object
    address: tuple | None = None


class ClusterSupervisor:
    """Launches and monitors N shard processes on localhost.

    ``fault_specs`` arms the same deterministic
    :class:`~repro.faults.FaultSpec` storm in every shard (per-shard plans
    are independent RNG streams only through their shared seed and the
    per-point derivation inside ``FaultPlan``); ``fault_specs_by_shard``
    targets individual shards instead — e.g. a transport storm on shard 0
    only.
    """

    def __init__(
        self,
        config: TasmConfig,
        shards: int,
        dataset: SceneDataset | None = None,
        host: str = "127.0.0.1",
        fault_specs=None,
        fault_specs_by_shard: dict | None = None,
        fault_seed: int = 0,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if config.fault_plan is not None:
            raise ValueError(
                "pass fault_specs / fault_specs_by_shard instead of a "
                "fault_plan: plans hold locks and cannot cross the fork"
            )
        self._config = config
        self._count = shards
        self._dataset = dataset if dataset is not None else SceneDataset()
        self._host = host
        self._fault_specs = fault_specs
        self._by_shard = fault_specs_by_shard or {}
        self._fault_seed = fault_seed
        self._shards: list[_Shard] = []
        self._ctx = multiprocessing.get_context()

    @property
    def dataset(self) -> SceneDataset:
        return self._dataset

    @property
    def addresses(self) -> list:
        return [shard.address for shard in self._shards]

    def start(self) -> "ClusterSupervisor":
        if self._shards:
            return self
        for index in range(self._count):
            specs = self._by_shard.get(index, self._fault_specs)
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_run_shard,
                args=(
                    index,
                    self._config,
                    self._dataset,
                    self._host,
                    list(specs) if specs else None,
                    self._fault_seed,
                    child_conn,
                ),
                name=f"tasm-shard-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._shards.append(_Shard(index, process, parent_conn))
        deadline = time.monotonic() + START_TIMEOUT_S
        for shard in self._shards:
            remaining = max(0.0, deadline - time.monotonic())
            if not shard.conn.poll(remaining):
                self.stop()
                raise TimeoutError(
                    f"shard {shard.index} did not come up within "
                    f"{START_TIMEOUT_S} seconds"
                )
            status, payload = shard.conn.recv()
            if status != "ready":
                self.stop()
                raise RuntimeError(f"shard {shard.index} failed to start: {payload}")
            shard.address = tuple(payload)
        return self

    def kill(self, index: int) -> None:
        """SIGKILL one shard — the chaos suite's abrupt shard failure.

        Its clients see a cut wire (no FIN handshake grace: the kernel
        resets the connections), and later dials are refused.
        """
        self._shards[index].process.kill()
        self._shards[index].process.join(timeout=10.0)

    def stop(self) -> None:
        for shard in self._shards:
            try:
                shard.conn.send("stop")
            except (OSError, BrokenPipeError):
                pass
        for shard in self._shards:
            shard.process.join(timeout=10.0)
            if shard.process.is_alive():
                shard.process.kill()
                shard.process.join(timeout=10.0)
            try:
                shard.conn.close()
            except OSError:
                pass
        self._shards = []

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
