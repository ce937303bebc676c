"""Shared fixtures for the test suite.

Tests run against deliberately tiny videos (around 128x96 pixels, a couple of
seconds) and a codec configured with small blocks and short GOPs, so the whole
suite exercises real encode/decode paths while staying fast.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.config import CodecConfig, TasmConfig
from repro.core.policies import IncrementalRegretPolicy
from repro.core.tasm import TASM
from repro.datasets import visual_road_scene
from repro.geometry import Rectangle
from repro.video.decoder import RegionRequest, VideoDecoder
from repro.video.encoder import EncodedSot
from repro.video.frame import Frame
from repro.video.video import Video, VideoMetadata
from repro.video.synthetic import (
    LinearMotion,
    ObjectTrack,
    OscillatingMotion,
    SceneSpec,
    StationaryMotion,
    SyntheticVideo,
)
from repro.workloads import workload_4
from repro.workloads.runner import MeasuredEngine


#: Suites whose tests start servers, transports, proxies, clients, routers
#: and shard processes: each test must hand back every thread, socket and
#: child process it started.
_THREAD_ACCOUNTED = ("test_service", "test_faults", "test_cluster", "test_stream_contract")


def _open_sockets() -> int:
    """Sockets among this process's descriptors (not every fd: the first
    shared-memory segment a process makes opens the resource tracker's
    pipe, once)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor, closed by now
    return count


def _sockets_and_children() -> tuple[int, int]:
    return _open_sockets(), len(multiprocessing.active_children())


@pytest.fixture(autouse=True)
def threads_return_to_baseline(request):
    """Leak accounting: after every service/fault/cluster test the process
    is back to the thread, socket and child-process counts it started the
    test with (short grace waits for what was told to stop and is on its
    way out)."""
    if not request.module.__name__.rpartition(".")[2].startswith(_THREAD_ACCOUNTED):
        yield
        return
    before = threading.active_count()
    baseline = set(threading.enumerate())
    counts = _sockets_and_children()
    yield
    give_up = time.monotonic() + 5.0
    for thread in set(threading.enumerate()) - baseline:
        thread.join(timeout=max(0.0, give_up - time.monotonic()))
    assert threading.active_count() <= before, (
        f"the test leaked threads: {sorted(t.name for t in threading.enumerate())}"
    )
    give_up = time.monotonic() + 2.0
    while time.monotonic() < give_up:
        sockets, children = _sockets_and_children()
        if sockets <= counts[0] and children <= counts[1]:
            break
        time.sleep(0.01)
    assert sockets <= counts[0], f"the test leaked {sockets - counts[0]} socket(s)"
    assert children <= counts[1], (
        f"the test left child processes running: {multiprocessing.active_children()}"
    )


@pytest.fixture
def codec_config() -> CodecConfig:
    """A small-block, short-GOP codec configuration suitable for tiny videos."""
    return CodecConfig(
        gop_frames=5,
        frame_rate=5,
        block_size=8,
        min_tile_width=16,
        min_tile_height=16,
    )


@pytest.fixture
def config(codec_config: CodecConfig) -> TasmConfig:
    return TasmConfig(codec=codec_config)


def union_bounds(a: Rectangle, b: Rectangle) -> Rectangle:
    """The smallest rectangle containing both rectangles (a test oracle)."""
    return Rectangle(min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2))


def contains_point(rectangle: Rectangle, x: float, y: float) -> bool:
    """Half-open point membership (a test oracle)."""
    return rectangle.x1 <= x < rectangle.x2 and rectangle.y1 <= y < rectangle.y2


def video_from_frames(name: str, frames: list[np.ndarray], frame_rate: int = 30) -> Video:
    """A video over an in-memory list of rasters."""
    height, width = frames[0].shape
    stored = [np.asarray(frame, dtype=np.uint8) for frame in frames]
    return Video(VideoMetadata(name, width, height, len(stored), frame_rate), stored.__getitem__)


def crop(frame: Frame, region: Rectangle) -> np.ndarray:
    """A copy of a frame's pixels inside ``region``, clipped to the frame
    (a test oracle)."""
    clipped = region.clamp(frame.bounds)
    if clipped is None:
        return np.zeros((0, 0), dtype=np.uint8)
    x1, y1, x2, y2 = clipped.as_int_tuple()
    return frame.pixels[y1:y2, x1:x2].copy()


def decode_full_frames(decoder: VideoDecoder, sot: EncodedSot, frame_indices: list[int]):
    """Whole frames (every tile) of a SOT, through the region decoder."""
    bounds = Rectangle(0, 0, sot.layout.frame_width, sot.layout.frame_height)
    return decoder.decode_regions(sot, [RegionRequest(index, bounds) for index in frame_indices])


def bitstreams(sot: EncodedSot) -> list:
    """Every tile of an encoded SOT as ``(rectangle, payloads, checksums)``."""
    return [(tile.region, tile.payloads, tile.checksums) for gop in sot.gops for tile in gop.tiles]


def build_tiny_video(
    name: str = "tiny-traffic",
    width: int = 128,
    height: int = 96,
    frame_count: int = 15,
    frame_rate: int = 5,
    seed: int = 3,
    camera_pan: float = 0.0,
) -> SyntheticVideo:
    """A small scene with one car, one person, and one stationary sign."""
    tracks = [
        ObjectTrack(
            label="car",
            width=32,
            height=16,
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
            width=10,
            height=22,
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
            width=8,
            height=12,
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
        camera_pan_per_frame=camera_pan,
        seed=seed,
    )
    return SyntheticVideo(spec)


@pytest.fixture
def tiny_video() -> SyntheticVideo:
    return build_tiny_video()


@pytest.fixture
def dense_video() -> SyntheticVideo:
    """A scene whose objects cover most of every frame (a crowded market).

    Coverage is far above the 20% sparse/dense threshold and the objects
    reach close to every frame edge, so no tile layout can skip enough pixels
    to satisfy the alpha usefulness rule — the regime where the paper finds
    tiling counterproductive.
    """
    width, height = 128, 96
    # Motion models report the object's top-left corner; place one large
    # person in each quadrant so their union reaches every frame edge.
    quadrant_corners = [(0.0, 0.0), (62.0, 0.0), (0.0, 46.0), (62.0, 46.0)]
    tracks = [
        ObjectTrack(
            label="person",
            width=66,
            height=50,
            motion=OscillatingMotion(
                center_x=corner_x,
                center_y=corner_y,
                amplitude_x=3.0,
                amplitude_y=2.0,
                period_frames=18.0,
                phase=index,
            ),
            intensity=190,
        )
        for index, (corner_x, corner_y) in enumerate(quadrant_corners)
    ]
    spec = SceneSpec(
        name="tiny-crowd",
        width=width,
        height=height,
        frame_count=15,
        frame_rate=5,
        tracks=tracks,
        noise_sigma=1.0,
        seed=9,
    )
    return SyntheticVideo(spec)


@pytest.fixture
def flat_frames() -> list[np.ndarray]:
    """Ten simple gradient frames used by codec-level tests."""
    frames = []
    base = np.tile(np.arange(64, dtype=np.uint8), (48, 1))
    for index in range(10):
        frame = np.clip(base.astype(np.int16) + index * 2, 0, 255).astype(np.uint8)
        frames.append(frame)
    return frames


def run_w4_on_smoke_road(
    steps: int = 240, road: tuple = ("2K", 2.0), cache_bytes: int = 16 << 20, results=None
):
    """The ledger's ``adaptive_retile`` loop on its smoke road scene (384x224,
    two 10-frame SOTs; ``road=("4K", 20.0)`` with 75 steps is its full scale):
    W4's queries against an untiled video and an empty index, each step
    indexing the frames it is first to see, executing, then letting the regret
    policy re-tile physically.  Returns ``(tasm, video)``; a ``results`` list
    receives every step's ``ScanResult``."""
    video = visual_road_scene("ledger-road", *road, frame_rate=10, seed=101)
    codec = CodecConfig(gop_frames=10, frame_rate=10)
    tasm = TASM(TasmConfig(codec=codec, decode_cache_bytes=cache_bytes))
    tasm.ingest(video).materialise_all()
    workload = workload_4(video, query_count=steps).workload
    policy, engine = IncrementalRegretPolicy(), MeasuredEngine(tasm)
    policy.prepare(tasm, engine, video.name, workload)
    seen: set[int] = set()
    for query in workload:
        window = range(*query.temporal.resolve(video.frame_count))
        fresh = [d for frame in window if frame not in seen for d in video.ground_truth(frame)]
        seen.update(window)
        if fresh:
            tasm.add_detections(video.name, fresh)
        result = tasm.execute(query)
        if results is not None:
            results.append(result)
        policy.on_query(tasm, engine, video.name, query)
    return tasm, video
