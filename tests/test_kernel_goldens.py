"""Golden pins for the fused codec kernels, frame synthesis and the what-if memo.

Captured from the commit before the kernels went in place and the memo went
under ``TASM.layout_around`` / ``estimate_sot_query_cost``.  The new code is a
different way of computing the same thing, so what it writes is pinned, not
re-derived:

* every payload byte the encoder writes (``stored_bytes_per_raw_byte`` is an
  exact ledger metric) and every pixel the decoder reconstructs from them,
  under 1x1, 2x2 and an uneven layout, plus a full-range clip at quantisation
  steps where the keyframe clip and the int8 residual clip both bind
  (captured again, once, when the boundary artifact left the reference chain
  and residuals began rounding to the nearest step, clamped to keep every
  reconstruction in range; ``harsh/1x1`` did not move);
* ``SyntheticVideo`` frames with and without sensor noise;
* the W4 re-tile trajectory on the ledger's smoke road scene — the ledger's
  oracle replays the same code, so only a pin notices a memo that changed a
  decision on both sides.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import CodecConfig
from repro.tiles.layout import TileLayout, uniform_layout, untiled_layout
from repro.video.codec import EncodeStats, TileCodec
from repro.video.encoder import VideoEncoder
from repro.video.synthetic import SyntheticVideo
from repro.video.video import Video

from tests.conftest import build_tiny_video, run_w4_on_smoke_road, video_from_frames

CODEC = CodecConfig(gop_frames=5, frame_rate=5, block_size=8, min_tile_width=16, min_tile_height=16)
#: Steps at which ``q * step + step // 2`` passes 255 and ``residual // step``
#: leaves int8, so both clips change bytes.
HARSH_CODEC = dataclasses.replace(CODEC, keyframe_quant=3, predicted_quant=1)
LAYOUTS = {
    "1x1": untiled_layout(128, 96),
    "2x2": uniform_layout(128, 96, 2, 2, 8),
    "uneven": TileLayout(128, 96, row_heights=(32, 40, 24), column_widths=(48, 32, 48)),
}

#: case -> (sha256 of every payload, EncodeStats, sha256 of every decoded frame)
ENCODED = {
    "tiny/1x1": (
        "e419ce2343cfa027482c40d68eb3259674c4e9fb9781022c084d06a35cf6b9a6",
        (184320, 3, 48220),
        "b3e186fcd10585db7c8cf5ba31136d4101f3a60afb277dd4856b286f93adddbe",
    ),
    "tiny/2x2": (
        "6a268d7f4e5f88740397fdde8a9e0160f793e72757f2a134577ba5f7bb0ec455",
        (184320, 12, 49213),
        "bad37fba7d865c7f20f7c6fc01f5fac7cbb9a2606c37cd53a1386e3d007a6311",
    ),
    "tiny/uneven": (
        "0f628387bc5cf841c69ffc27dd36831cdfaed5c63ec4dd72b37372645ccb25dd",
        (184320, 27, 51453),
        "a1328081d28f89f6e5225748081d6cbc4859d750cfa1af99b9d769e9f60cac62",
    ),
    "harsh/1x1": (
        "1d16b2006bb7c740a3bb650684714b55daee595c3dbb4c5474575b973bacc965",
        (184320, 3, 5963),
        "0f8b9066a3ff20363451f551367019d535d0b8a28ab57d3e947d47f519d65f81",
    ),
    "harsh/2x2": (
        "0598283715ac44860b550ff5b0ab8fcf6ec17e54e22daee682c2e470354da717",
        (184320, 12, 11174),
        "24c2d6476603a1894e6be0e60d0a1347d1de3f5dd857264ce7233d1324f0cc8f",
    ),
    "harsh/uneven": (
        "765470333f5908e722e2ffd4c49b1724660685f5f3ceb7ddff9bfa738504d8d6",
        (184320, 27, 17200),
        "f0eb4c863741072203c84b0e7747ddbae7821bb21e51bf2f1aa3db57ac3d542d",
    ),
}

#: noise_sigma -> sha256 of frames 0..14 of the tiny scene
FRAMES = {
    1.0: "eabeb0062e69f3dd196a320bed2a776f3dc4b259d65dcaf2c06a8e16b863fcc5",
    0.0: "5ba8ff8c6e46c71193b8b52e8d6d71863eb4ac9b8a5b4b7634600e7194b9cc67",
}

#: Ordered ``(sot, row_heights, column_widths)`` of ``retile_history``.
#: (Re-pinned once, when R(s, L) began to price the read of the stored SOT
#: and a fitted encode: the "and back" to the first layout, once cars are
#: queried again, no longer earns back its cost.)
W4_TRAJECTORY = [
    (0, (80, 80, 64), (176, 112, 96)),  # untiled -> 9 tiles
    (0, (112, 112), (128, 96, 96, 64)),
    (0, (80, 144), (224, 64, 96)),
]


def harsh_video() -> Video:
    """Fifteen full-range frames that jump by up to 255 between neighbours."""
    grid = np.arange(96 * 128, dtype=np.int64).reshape(96, 128)
    frames = [((grid * (7 + 13 * k) + 97 * k * k) % 256).astype(np.uint8) for k in range(15)]
    return video_from_frames("harsh", frames, frame_rate=5)


def encode_and_decode(video: Video, codec_config: CodecConfig, layout: TileLayout):
    stats = EncodeStats()
    sot = VideoEncoder(codec_config).encode_sot(video, 0, 0, 15, layout, stats=stats)
    assert len(sot.gops) == 3
    codec = TileCodec(codec_config)
    payloads, decoded = hashlib.sha256(), hashlib.sha256()
    for gop in sot.gops:
        for tile in gop.tiles:
            for payload in tile.payloads:
                payloads.update(payload)
            for frame in codec.decode_tile(tile):
                assert frame.dtype == np.uint8 and frame.shape == (tile.height, tile.width)
                decoded.update(frame.tobytes())
    return payloads.hexdigest(), dataclasses.astuple(stats), decoded.hexdigest()


def observed_encodings() -> dict:
    scenes = {"tiny": (build_tiny_video(), CODEC), "harsh": (harsh_video(), HARSH_CODEC)}
    return {
        f"{scene}/{name}": encode_and_decode(video, codec_config, layout)
        for scene, (video, codec_config) in scenes.items()
        for name, layout in LAYOUTS.items()
    }


def frames_digest(noise_sigma: float) -> str:
    spec = dataclasses.replace(build_tiny_video().spec, noise_sigma=noise_sigma)
    video, sha = SyntheticVideo(spec), hashlib.sha256()
    for index in range(video.frame_count):
        pixels = video.frame(index).pixels
        assert pixels.dtype == np.uint8 and pixels.flags.c_contiguous
        sha.update(pixels.tobytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def encodings() -> dict:
    return observed_encodings()


@pytest.mark.parametrize("case", sorted(ENCODED))
def test_the_codec_writes_and_reconstructs_the_same_bytes(encodings, case):
    payloads, stats, decoded = ENCODED[case]
    assert encodings[case][1] == stats  # pixels, tiles, bytes written
    assert encodings[case][0] == payloads
    assert encodings[case][2] == decoded


@pytest.mark.parametrize("noise_sigma", sorted(FRAMES))
def test_synthetic_frames_are_the_same_pixels(noise_sigma):
    assert frames_digest(noise_sigma) == FRAMES[noise_sigma]


def test_w4_retiles_the_smoke_road_scene_the_same_way():
    tasm, video = run_w4_on_smoke_road()
    history = tasm.video(video.name).retile_history
    assert [
        (record.sot_index, record.layout.row_heights, record.layout.column_widths)
        for record in history
    ] == W4_TRAJECTORY


if __name__ == "__main__":  # prints the pins, for capturing them from a parent commit
    print(observed_encodings(), {sigma: frames_digest(sigma) for sigma in FRAMES})
