"""A re-tile transcodes what is stored, and writes exactly what a first
encode of the raw frames would.

The codec is per pixel, the keyframe's tile-boundary artifact is on its
output only, and residuals are clamped so that no reconstruction is clipped.
So the frames a tile's later frames are predicted from (its *references*)
are the same under every layout, and encoding a stored SOT's decoded
references under a layout writes the payloads its raw frames would.
``TiledVideo.retile`` relies on this: a stored SOT is never read from the raw
video again.  Checked over frames that sit on 0 and 255 and jump by up to
255, at the default quantisation steps and at the harsh ones, along layout
chains L1 -> L2 -> L3 through 1x1, cache-less and with a cache holding the
stored tiles at mixed depths (a keyframe-only boundary tile among them).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import CodecConfig, TasmConfig
from repro.core.tasm import TASM
from repro.errors import BitstreamCorruptionError
from repro.tiles.layout import TileLayout, uniform_layout, untiled_layout
from repro.video.codec import TileCodec
from repro.video.encoder import VideoEncoder
from repro.video.video import Video, VideoMetadata

from tests.conftest import bitstreams, video_from_frames
from tests.test_decoder_state_properties import same_frames
from tests.test_kernel_goldens import HARSH_CODEC

CODECS = {"default": CodecConfig(), "harsh": HARSH_CODEC}
WIDTH, HEIGHT = 128, 96


@st.composite
def scenes(draw) -> list[np.ndarray]:
    """Two to seven frames, each uniform noise, only 0s and 255s, the frame
    before it inverted (pixels jump by up to 255) or nudged against the
    extremes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extremes = np.array([0, 255], dtype=np.uint8)
    first = draw(st.sampled_from(["noise", "extremes"]))
    kinds = draw(st.lists(st.sampled_from(["noise", "extremes", "invert", "nudge"]), min_size=1, max_size=6))
    frames: list[np.ndarray] = []
    for kind in [first, *kinds]:
        if kind == "noise":
            frames.append(rng.integers(0, 256, (HEIGHT, WIDTH), dtype=np.uint8))
        elif kind == "extremes":
            frames.append(rng.choice(extremes, (HEIGHT, WIDTH)))
        elif kind == "invert":
            frames.append(255 - frames[-1])
        else:
            nudged = frames[-1].astype(np.int16) + rng.integers(-9, 10, (HEIGHT, WIDTH))
            frames.append(np.clip(nudged, 0, 255).astype(np.uint8))
    return frames


@st.composite
def grids(draw) -> TileLayout:
    """A grid of at least two tiles, its edges on 8-pixel steps."""
    rows = sorted(set(draw(st.lists(st.integers(1, HEIGHT // 8 - 1), max_size=3))))
    columns = sorted(set(draw(st.lists(st.integers(1, WIDTH // 8 - 1), max_size=3)))) or [8]

    def sizes(cuts, total):
        edges = [0, *(8 * cut for cut in cuts), total]
        return tuple(b - a for a, b in zip(edges, edges[1:]))

    return TileLayout(WIDTH, HEIGHT, sizes(rows, HEIGHT), sizes(columns, WIDTH))


@st.composite
def chains(draw) -> list[TileLayout]:
    """L1 -> L2 -> L3, one of them 1x1, no two in a row the same."""
    chain = [draw(grids()) for _ in range(3)]
    chain[draw(st.integers(0, 2))] = untiled_layout(WIDTH, HEIGHT)
    assume(chain[0] != chain[1] and chain[1] != chain[2])
    return chain


class RawFrames:
    """A frame source that can be closed: once a SOT is stored, nothing may
    read its raw frames again."""

    def __init__(self, frames: list[np.ndarray]):
        self.frames, self.closed = frames, False

    def __call__(self, index: int) -> np.ndarray:
        assert not self.closed, f"raw frame {index} was read after the SOT was stored"
        return self.frames[index]


def config_for(codec: CodecConfig, cache_bytes: int) -> TasmConfig:
    """One SOT holding every frame of a scene at most one GOP long."""
    return TasmConfig(codec=codec, decode_cache_bytes=cache_bytes)


@pytest.mark.parametrize("steps", sorted(CODECS))
@settings(max_examples=15, deadline=None)
@given(frames=scenes(), chain=chains(), data=st.data())
def test_a_retile_from_storage_writes_what_the_raw_frames_would(steps, frames, chain, data):
    codec = CODECS[steps]
    frames = frames[: codec.gop_frames]  # a SOT is one GOP
    count, cached = len(frames), data.draw(st.booleans(), label="cached")
    source = RawFrames(frames)
    tasm = TASM(config_for(codec, (64 << 20) if cached else 0))
    tiled = tasm.ingest(Video(VideoMetadata("clip", WIDTH, HEIGHT, count, 5), source))
    first, second, third = chain

    tasm.retile_sot("clip", 0, first)  # the first encode reads the raw frames
    source.closed = True
    tasm.retile_sot("clip", 0, second)
    held_pixels = 0
    if cached:
        stored, decoder = tiled.encoded_sot(0), TileCodec(codec)
        tile_count = len(stored.tiles)
        depths = data.draw(
            st.lists(st.integers(-1, stored.frame_count - 1), min_size=tile_count, max_size=tile_count),
            label="held depths",
        )
        if tile_count > 1:
            depths[0] = 0  # a boundary tile's keyframe, alone
        for index, (tile, depth) in enumerate(zip(stored.tiles, depths)):
            if depth >= 0:
                frames_held = decoder.decode_tile(tile, depth)
                tasm.tile_cache.put(("clip", 0, index), frames_held, tile.checksums)
                held_pixels += tile.pixels_per_frame * (depth + 1)
    record = tasm.retile_sot("clip", 0, third)

    raw = VideoEncoder(codec).encode_sot(video_from_frames("clip", frames), 0, 0, count, third)
    assert bitstreams(tiled.encoded_sot(0)) == bitstreams(raw)
    assert record.pixels_held == held_pixels
    assert record.pixels_inflated + record.pixels_held == WIDTH * HEIGHT * count


@pytest.mark.parametrize("steps", sorted(CODECS))
@settings(max_examples=15, deadline=None)
@given(frames=scenes(), layout=grids())
def test_a_decode_resumed_from_a_held_boundary_keyframe_equals_a_cold_decode(
    steps, frames, layout
):
    codec = TileCodec(CODECS[steps])
    frames = frames[: codec.config.gop_frames]
    for region in layout.tile_rectangles():
        tile = codec.encode_tile(frames, region, 0, is_boundary_tile=True)
        keyframe = codec.decode_tile(tile, 0)
        assert same_frames(codec.decode_tile(tile, resume_from=keyframe), codec.decode_tile(tile))


def test_a_failed_retile_leaves_the_sot_claiming_the_layout_it_is_stored_under():
    """Re-tile to 2x2, corrupt one stored payload, re-tile to 1x2: the
    transcode raises, and the SOT still claims the 2x2 it is stored under, so
    the cost model prices what is stored.  The retry transcodes again rather
    than reporting a no-op, and once the payload is whole the SOT takes 1x2."""
    rng = np.random.default_rng(7)
    frames = [rng.integers(0, 256, (HEIGHT, WIDTH), dtype=np.uint8) for _ in range(4)]
    tasm = TASM(config_for(CodecConfig(), 0))
    tiled = tasm.ingest(video_from_frames("clip", frames))
    grid, halves = uniform_layout(WIDTH, HEIGHT, 2, 2), uniform_layout(WIDTH, HEIGHT, 1, 2)
    tiled.retile(0, grid)
    tiles = tiled.encoded_sot(0).tiles
    whole = tiles[0]
    payloads = list(whole.payloads)
    payloads[1] = payloads[1][:-1] + bytes([payloads[1][-1] ^ 0x01])
    tiles[0] = dataclasses.replace(whole, payloads=tuple(payloads))

    for _ in range(2):
        with pytest.raises(BitstreamCorruptionError):
            tiled.retile(0, halves)
        assert tiled.layout_for(0) == tiled.stored_layout(0) == grid

    tiles[0] = whole
    record = tiled.retile(0, halves)
    assert record.tiles_encoded > 0
    assert tiled.layout_for(0) == tiled.stored_layout(0) == halves
