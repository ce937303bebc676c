"""The ledger's four canonical workloads.

Each workload is a class with the same small surface — ``setup`` (everything
until the first op can be issued, warm-up pass included), ``run_window`` (a
closed loop over a fixed slice of the op list, latency timed per op),
``teardown`` and ``oracle`` — so ``harness.py`` measures all four the same way.

Inputs come from ``--seed``; the program under test only ever sees them.  What
the seed drives is deliberately narrow: the scene's pixel content (background,
textures, sensor noise — so every encoded byte differs) and the order ops are
issued in.  The query *multiset* is the paper's W3/W4 at the generators'
published default seeds and the object tracks are fixed, because the driver
requires ten different seeds to agree within a third of each metric's bound: a
re-drawn query list moves decoded pixels by 3% (W3) to 30% (W4's re-tiling
trajectory is chaotic in its query order), which would drown every later PR's
signal.  ``inputs`` records exactly what was generated.
"""

from __future__ import annotations

import dataclasses
import json
import random
import select
import subprocess
import sys
import time
from pathlib import Path

from repro.cluster.ring import HashRing, sot_key
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import SceneDataset
from repro.config import CodecConfig, TasmConfig
from repro.core.policies import IncrementalRegretPolicy
from repro.core.predicates import TemporalPredicate
from repro.core.tasm import TASM
from repro.datasets import visual_road_scene
from repro.errors import ServerBusy, TasmError
from repro.video.synthetic import SyntheticVideo
from repro.workloads import workload_3, workload_4
from repro.workloads.runner import MeasuredEngine

from measure import cpu_seconds, layout_fingerprint, peak_rss_mib, thread_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIB = 1024 * 1024
FRAME_RATE = 10
#: Seed of the road scene's object tracks (the generator's default): fixed,
#: so every seed queries the same boxes.
TRACK_SEED = 101

#: Shard i listens on base + 1 + i.  Shard names are ``host:port`` and seed
#: the hash ring, so ephemeral ports would re-partition SOTs on every run;
#: each base below splits both 8-SOT videos 4/4 between the two shards and
#: lies under Linux's ephemeral range (32768+), so no outgoing connection can
#: be sitting on it.  A later base is used only when an earlier one cannot be
#: bound, and recorded.
BASE_PORTS = (20470, 20730, 21250, 21550)

#: Closed-loop rates measured on the 2-core reference container.  They only
#: size the fixed op lists so that a repeat times about seconds / repeats of
#: work; op counts must not depend on how fast this run happens to be.
NOMINAL_OPS_PER_S = {"lib_cold": 90, "lib_warm": 720, "cluster_warm": 125, "adaptive_retile": 38}


@dataclasses.dataclass(frozen=True)
class Scale:
    repeats: int
    road: tuple  # (resolution class, seconds)
    lib_queries: int
    cluster_scene: dict
    #: The traced run's layer drill: single-label queries, and how many
    #: times each is sampled.
    drill_queries: int
    drill_rounds: int
    #: Host-speed samples per repeat (about 15 ms each), taken between windows.
    speed_samples: int
    #: Fixed per-repeat sizes (smoke); None sizes them from --seconds.
    fixed_ops: dict | None = None


SCALES = {
    "full": Scale(
        repeats=5,
        road=("4K", 20.0),
        lib_queries=200,
        cluster_scene=dict(width=640, height=480, frame_count=80, object_scale=3.0),
        drill_queries=16,
        drill_rounds=3,
        speed_samples=8,
    ),
    "smoke": Scale(
        repeats=1,
        road=("2K", 2.0),
        lib_queries=12,
        cluster_scene=dict(width=128, height=96, frame_count=20, object_scale=1.0),
        drill_queries=3,
        drill_rounds=1,
        speed_samples=2,
        fixed_ops={"lib_cold": 12, "lib_warm": 24, "cluster_warm": 12, "adaptive_retile": 12},
    ),
}


def ledger_config(**overrides) -> TasmConfig:
    """``bench_config``-style codec: 10 fps, 1-second GOP = 1 SOT."""
    return TasmConfig(
        codec=CodecConfig(gop_frames=FRAME_RATE, frame_rate=FRAME_RATE), **overrides
    )


def road_scene(scale: Scale, noise_seed: int) -> SyntheticVideo:
    """The Visual Road stand-in: fixed tracks, seed-driven pixel content."""
    resolution, seconds = scale.road
    base = visual_road_scene(
        "ledger-road", resolution, seconds, frame_rate=FRAME_RATE, seed=TRACK_SEED
    )
    return SyntheticVideo(dataclasses.replace(base.spec, seed=noise_seed))


def all_detections(video) -> list:
    return [d for frame in range(video.frame_count) for d in video.ground_truth(frame)]


def build_tiled_tasm(video, config: TasmConfig, layouts: dict) -> TASM:
    """A TASM holding ``video`` fully indexed under exactly ``layouts`` (SOTs
    left untiled are encoded on first touch)."""
    tasm = TASM(config)
    tasm.ingest(video)
    tasm.add_detections(video.name, all_detections(video))
    for sot_index, layout in layouts.items():
        tasm.retile_sot(video.name, sot_index, layout)
    return tasm


def tiled_layouts(tiled) -> dict:
    return {sot: tiled.layout_for(sot) for sot in tiled.layout_spec.tiled_sots()}


def cluster_dataset(scale: Scale, noise_seed: int) -> SceneDataset:
    return SceneDataset(
        names=("ledger-cam-0", "ledger-cam-1"),
        frame_rate=FRAME_RATE,
        seed=noise_seed,
        **scale.cluster_scene,
    )


def build_cluster_tasm(dataset: SceneDataset, config: TasmConfig) -> TASM:
    """What every shard (and the oracle) holds: both videos, fully indexed,
    every SOT tiled around all labels."""
    tasm = TASM(config)
    dataset(tasm)
    for name in dataset.names:
        tiled = tasm.video(name)
        labels = tasm.semantic_index.labels(name)
        for sot_index in range(tiled.sot_count):
            layout = tasm.layout_around(name, sot_index, labels)
            if not layout.is_untiled:
                tasm.retile_sot(name, sot_index, layout)
        tiled.materialise_all()
    return tasm


class Workload:
    """Common shape of a ledger workload; see the module docstring."""

    name = ""
    #: On a warm workload an op that decodes anything has failed.
    must_not_decode = False
    #: What only cluster_warm has: live shard processes, their router, the
    #: ring's SOT split, ops a shard refused, and (traced) the shards' spans.
    shards: list = []
    router = None
    sot_split: dict = {}
    refused = 0
    trace_shards = False
    shard_traces: list = []

    def __init__(self, seed: int, seconds: float, scale: Scale):
        self.seed = seed
        self.scale = scale
        self.repeats = scale.repeats
        self.rng = random.Random(seed)
        if scale.fixed_ops:
            self.ops_per_repeat = scale.fixed_ops[self.name]
        else:
            self.ops_per_repeat = max(
                1, round(seconds / scale.repeats * NOMINAL_OPS_PER_S[self.name])
            )
        #: Everything generated from the seed, written beside the results.
        self.inputs: dict = {"seed": seed, "repeats": scale.repeats}
        #: ``[(op id, key)]``: the timed op list of one repeat.
        self.ops: list = []
        #: Records of the untimed warm-up pass of the latest ``setup``.
        self.warmup: list = []

    def _passes(self, keys: list) -> list:
        """``ops_per_repeat`` ops as whole passes over ``keys``, each pass in a
        seed-shuffled order."""
        ops: list = []
        for _ in range(max(1, round(self.ops_per_repeat / len(keys)))):
            order = list(keys)
            self.rng.shuffle(order)
            ops.extend(order)
        return list(enumerate(ops))

    # -- the surface the harness drives ---------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def _op(self, key):
        """Issue one op and return its ScanResult."""
        raise NotImplementedError

    def run_window(self, ops, tracer=None) -> list:
        """Run ``ops`` closed-loop; ``[(key, latency seconds, result | error)]``."""
        op, clock = self._op, time.perf_counter
        records = []
        for op_id, key in ops:
            if tracer is not None:
                tracer.begin_op(op_id)
            started = clock()
            try:
                result = op(key)
            except TasmError as error:
                result = error
            elapsed = clock() - started
            if tracer is not None:
                tracer.end_op()
            records.append((key, elapsed, result))
        return records

    def teardown(self) -> None:
        """Release the repeat's state, so the next set-up does not build its
        TASM beside the previous one (which would double the measured RSS)."""
        self.tasm = self.tiled = self.state = None

    def oracle(self) -> tuple[dict, str]:
        """``({key: ScanResult}, layout fingerprint)`` from a single-threaded,
        cache-less TASM holding identical layouts."""
        raise NotImplementedError

    def cpu_seconds(self) -> float:
        """CPU consumed so far by every process the workload runs in."""
        return cpu_seconds()

    def drill_video(self) -> SyntheticVideo:
        """The video the traced run's layer drill works on."""
        return road_scene(self.scale, self.seed)

    def server_decoded_pixels(self) -> int | None:
        """Pixels decoded since set-up as counted by the servers, for workloads
        whose decode work the per-op results do not carry (a server's batch
        prefetch is accounted to the batch, not to a query).  None: they do."""
        return None

    def snapshot(self) -> dict:
        """State after the last op of a repeat, read before ``teardown``."""
        cache = self.tasm.tile_cache
        return {
            "stored_ratio": _stored_ratio(self.tiled),
            "fingerprint": layout_fingerprint(self.tiled),
            "peak_rss_mib": peak_rss_mib(),
            "evictions": cache.stats.evictions if cache is not None else 0,
            "resident_bytes": cache.current_bytes if cache is not None else 0,
        }


def _stored_ratio(tiled) -> float:
    video = tiled.video
    return tiled.total_size_bytes() / (video.width * video.height * video.frame_count)


# ----------------------------------------------------------------------
# lib_cold / lib_warm: the paper's subframe-selection query, in process
# ----------------------------------------------------------------------
class LibraryScan(Workload):
    """W3 over the road scene, tiled by ``optimize_for_workload``; each op is
    one ``TASM.execute``."""

    cache_bytes = 0

    def __init__(self, seed, seconds, scale):
        super().__init__(seed, seconds, scale)
        scene = road_scene(scale, seed)
        self.workload = workload_3(scene, query_count=scale.lib_queries).workload
        self.queries = list(self.workload)
        self.ops = self._passes(list(range(len(self.queries))))
        self.inputs.update(
            video=dict(name=scene.name, width=scene.width, height=scene.height,
                       frames=scene.frame_count, track_seed=TRACK_SEED, noise_seed=seed),
            decode_cache_bytes=self.cache_bytes,
            queries=[query.describe() for query in self.queries],
            op_order=[key for _, key in self.ops],
        )

    def setup(self) -> None:
        video = road_scene(self.scale, self.seed)
        self.tasm = TASM(ledger_config(decode_cache_bytes=self.cache_bytes))
        self.tiled = self.tasm.ingest(video)
        self.tasm.add_detections(video.name, all_detections(video))
        self.tasm.optimize_for_workload(video.name, self.workload)
        # SOTs the optimiser left untiled would otherwise be encoded lazily
        # inside the first op that touches them.
        self.tiled.materialise_all()
        self.warmup = []
        if self.must_not_decode:
            self.warmup = self.run_window([(-1, key) for key in range(len(self.queries))])

    def _op(self, key):
        return self.tasm.execute(self.queries[key])

    def snapshot(self) -> dict:
        self.layouts = tiled_layouts(self.tiled)  # the oracle re-tiles to exactly these
        return super().snapshot()

    def oracle(self) -> tuple[dict, str]:
        video = road_scene(self.scale, self.seed)
        reference = build_tiled_tasm(video, ledger_config(), self.layouts)
        answers = {key: reference.execute(query) for key, query in enumerate(self.queries)}
        return answers, layout_fingerprint(reference.video(video.name))


class LibCold(LibraryScan):
    name = "lib_cold"
    cache_bytes = 0  # no decode cache: every op decodes its tiles


class LibWarm(LibraryScan):
    name = "lib_warm"
    cache_bytes = 256 * MIB  # vs a ~12 MB decoded working set: nothing evicts
    must_not_decode = True


# ----------------------------------------------------------------------
# adaptive_retile: writes beside reads
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _AdaptiveState:
    video: SyntheticVideo
    detections: list
    tasm: TASM
    tiled: object
    policy: IncrementalRegretPolicy
    engine: MeasuredEngine


class AdaptiveRetile(Workload):
    """W4 (car -> person -> car) against an untiled video and an empty index.

    One op is one workload step: index the detections of frames not seen yet,
    execute the query, then let the regret policy re-tile (physically).
    """

    name = "adaptive_retile"
    cache_bytes = 16 * MIB  # about half the 29.5 MB untiled working set

    def __init__(self, seed, seconds, scale):
        super().__init__(seed, seconds, scale)
        scene = road_scene(scale, seed)
        steps = max(3, self.ops_per_repeat // 3 * 3)
        self.workload = workload_4(scene, query_count=steps).workload
        self.queries = list(self.workload)
        self.ops = list(enumerate(range(steps)))
        # Which frames each step is the first to look at (the detector runs
        # on demand); fixed by the query sequence, so computed once.
        seen: set = set()
        self.new_frames = []
        for query in self.queries:
            start, stop = query.temporal.resolve(scene.frame_count)
            self.new_frames.append([f for f in range(start, stop) if f not in seen])
            seen.update(range(start, stop))
        self.inputs.update(
            video=dict(name=scene.name, width=scene.width, height=scene.height,
                       frames=scene.frame_count, track_seed=TRACK_SEED, noise_seed=seed),
            decode_cache_bytes=self.cache_bytes,
            queries=[query.describe() for query in self.queries],
        )

    def _fresh(self, cache_bytes: int) -> _AdaptiveState:
        video = road_scene(self.scale, self.seed)
        tasm = TASM(ledger_config(decode_cache_bytes=cache_bytes))
        tiled = tasm.ingest(video)
        tiled.materialise_all()  # the video is stored (untiled) before queries arrive
        state = _AdaptiveState(
            video=video,
            detections=[video.ground_truth(f) for f in range(video.frame_count)],
            tasm=tasm,
            tiled=tiled,
            policy=IncrementalRegretPolicy(),
            engine=MeasuredEngine(tasm),
        )
        state.policy.prepare(tasm, state.engine, video.name, self.workload)
        return state

    def setup(self) -> None:
        self.state = self._fresh(self.cache_bytes)
        self.tasm, self.tiled = self.state.tasm, self.state.tiled

    def _op(self, key):
        return self._step(self.state, key)

    def _step(self, state: _AdaptiveState, key: int):
        query, name = self.queries[key], state.video.name
        fresh = [d for frame in self.new_frames[key] for d in state.detections[frame]]
        if fresh:
            state.tasm.add_detections(name, fresh)
        result = state.tasm.execute(query)
        state.policy.on_query(state.tasm, state.engine, name, query)
        return result

    def oracle(self) -> tuple[dict, str]:
        """A cache-less replay of the same steps.  It re-tiles the same way:
        the policy reads the index and the cost model, never the cache."""
        state = self._fresh(0)
        answers = {key: self._step(state, key) for _, key in self.ops}
        return answers, layout_fingerprint(state.tiled)


# ----------------------------------------------------------------------
# cluster_warm: two shard processes behind one router
# ----------------------------------------------------------------------
class _Shard:
    """One shard subprocess (``shard.py``): line-JSON over its stdin/stdout."""

    def __init__(self, index: int, port: int, dataset_args: dict, cache_bytes: int, trace: bool):
        spec = dict(port=port, dataset=dataset_args, cache_bytes=cache_bytes, trace=trace)
        self.index = index
        self.address = ("127.0.0.1", port)
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "shard.py"), json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.pid = self.process.pid

    def read(self, timeout: float = 60.0) -> dict:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"shard {self.index} went silent (exit {self.process.poll()})")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.read()

    def stop(self) -> None:
        """Stop the shard and wait until it has ended."""
        try:
            if self.process.poll() is None:
                self.ask("stop")
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdin.close()
            self.process.stdout.close()


class ClusterWarm(Workload):
    """Two shards (TasmServer + SocketTransport each) behind a ClusterRouter.

    One caller keeps two scans in flight: ``scan_streaming`` on video 0 and on
    video 1 back to back, then ``result()`` on each.  (Two *independent*
    closed-loop clients are bistable on one server — their scans either
    coalesce into one batch or never do, and flip mid-run — hence one caller
    with a fixed pipeline depth.)
    """

    name = "cluster_warm"
    must_not_decode = True
    cache_bytes = 256 * MIB
    #: (labels, frame range as fractions of the video): single label, label
    #: set and temporal windows.
    SHAPES = (
        (["car"], None),
        (["person"], None),
        (["car", "person"], None),
        (["sign"], (0.0, 0.5)),
        (["car"], (0.25, 0.75)),
        (["person", "sign"], (0.5, 1.0)),
    )

    def __init__(self, seed, seconds, scale):
        super().__init__(seed, seconds, scale)
        self.dataset = cluster_dataset(scale, seed)
        frames = self.dataset.frame_count
        self.shapes = [
            (labels, None if window is None else (int(window[0] * frames), int(window[1] * frames)))
            for labels, window in self.SHAPES
        ]
        # Ops come in pairs: the same shape on video 0 then video 1.
        ops = []
        for _ in range(max(1, round(self.ops_per_repeat / (2 * len(self.shapes))))):
            order = list(range(len(self.shapes)))
            self.rng.shuffle(order)
            ops.extend((video, shape) for shape in order for video in (0, 1))
        self.ops = list(enumerate(ops))
        self.shards: list[_Shard] = []
        self.inputs.update(
            dataset=dataclasses.asdict(self.dataset),
            decode_cache_bytes_per_shard=self.cache_bytes,
            shapes=[dict(labels=labels, frames=window) for labels, window in self.shapes],
            op_order=[list(key) for _, key in self.ops],
            pipeline_depth=2,
        )

    # -- shard lifecycle -------------------------------------------------
    def _start_shards(self) -> None:
        errors = []
        for base in BASE_PORTS:
            self.shards = [
                _Shard(i, base + 1 + i, dataclasses.asdict(self.dataset),
                       self.cache_bytes, self.trace_shards)
                for i in range(2)
            ]
            replies = [shard.read() for shard in self.shards]
            if all(reply["event"] == "ready" for reply in replies):
                self.layouts = sorted({reply["fingerprint"] for reply in replies})
                self.inputs["base_port"] = base
                self.inputs["addresses"] = [list(shard.address) for shard in self.shards]
                return
            errors.append({base: [reply.get("error") for reply in replies]})
            self._stop_shards()
        raise RuntimeError(f"no base port could be bound: {errors}")

    def _stop_shards(self) -> None:
        for shard in self.shards:
            shard.stop()
        self.shards = []

    def setup(self) -> None:
        self._start_shards()
        config = ledger_config()
        self.router = ClusterRouter([shard.address for shard in self.shards], config)
        ring = HashRing(self.router.shards, vnodes=config.cluster_ring_vnodes)
        self.sot_split = {}
        for name in self.dataset.names:
            sots = range(int(self.router.video_info(name)["sot_count"]))
            owners = [ring.node_for(sot_key(name, sot)) for sot in sots]
            self.sot_split[name] = {shard: owners.count(shard) for shard in self.router.shards}
        self.inputs["sot_split"] = self.sot_split
        self.warmup = self.run_window(
            [(-1, (video, shape)) for shape in range(len(self.shapes)) for video in (0, 1)]
        )
        for shard in self.shards:
            shard.ask("mark")  # a traced shard now forgets set-up and warm-up

    def teardown(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        self._stop_shards()

    # -- the op loop -----------------------------------------------------
    def _submit(self, key):
        video, shape = key
        labels, window = self.shapes[shape]
        start, stop = window if window is not None else (None, None)
        try:
            return self.router.scan_streaming(self.dataset.names[video], labels, start, stop)
        except ServerBusy as error:
            self.refused += 1
            return error
        except TasmError as error:
            return error

    @staticmethod
    def _finish(stream):
        if isinstance(stream, Exception):
            return stream
        try:
            return stream.result()
        except TasmError as error:
            return error

    def run_window(self, ops, tracer=None) -> list:
        submit, finish, clock = self._submit, self._finish, time.perf_counter
        records = []
        for position in range(0, len(ops), 2):
            (op_id, first), (_, second) = ops[position], ops[position + 1]
            if tracer is not None:
                tracer.begin_op(op_id)  # one root span per in-flight pair
            started_first = clock()
            stream_first = submit(first)
            started_second = clock()
            stream_second = submit(second)
            result_first = finish(stream_first)
            elapsed_first = clock() - started_first
            result_second = finish(stream_second)
            elapsed_second = clock() - started_second
            if tracer is not None:
                tracer.end_op()
            records.append((first, elapsed_first, result_first))
            records.append((second, elapsed_second, result_second))
        return records

    def oracle(self) -> tuple[dict, str]:
        reference = build_cluster_tasm(self.dataset, ledger_config())
        answers = {}
        for shape, (labels, window) in enumerate(self.shapes):
            temporal = TemporalPredicate(*window) if window is not None else None
            predicate = labels if len(labels) != 1 else labels[0]
            for video, name in enumerate(self.dataset.names):
                answers[(video, shape)] = reference.scan(name, predicate, temporal)
        fingerprint = "+".join(
            layout_fingerprint(reference.video(name)) for name in self.dataset.names
        )
        return answers, fingerprint

    # -- accounting over the bench process and the shards ------------------
    def cpu_seconds(self) -> float:
        return cpu_seconds() + sum(cpu_seconds(shard.pid) for shard in self.shards)

    def drill_video(self) -> SyntheticVideo:
        return self.dataset.build(self.dataset.names[0])

    def server_decoded_pixels(self) -> int:
        return sum(shard.ask("stats")["pixels_decoded"] for shard in self.shards)

    def snapshot(self) -> dict:
        stats = [shard.ask("stats") for shard in self.shards]
        if self.trace_shards:
            self.shard_traces = [shard.ask("trace")["trace"] for shard in self.shards]
        return {
            # Every shard stores the same bytes; shard 0 answers for all.
            "stored_ratio": stats[0]["stored_bytes"] / stats[0]["raw_bytes"],
            "fingerprint": "|".join(self.layouts),
            "peak_rss_mib": peak_rss_mib() + sum(peak_rss_mib(s.pid) for s in self.shards),
            "evictions": sum(reply["evictions"] for reply in stats),
            "resident_bytes": sum(reply["resident_bytes"] for reply in stats),
            "threads_per_shard": sum(thread_count(s.pid) for s in self.shards) / len(self.shards),
        }


WORKLOADS = {
    workload.name: workload for workload in (LibCold, LibWarm, ClusterWarm, AdaptiveRetile)
}
