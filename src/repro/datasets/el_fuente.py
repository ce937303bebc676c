"""El Fuente stand-ins: the individual scenes of the multi-scene sequence.

The paper evaluates both the full eight-minute El Fuente sequence and its
individual scenes (using the published scene boundaries); the stand-ins are
the scenes, one :func:`el_fuente_scene` call each.  The scenes range
from sparse (a lone boat, a bicycle on an empty road) to extremely dense
(market crowds filling most of the frame), and several involve camera motion
— the combination that defeats both pre-tiling around all objects and
background subtraction in the paper's experiments.
"""

from __future__ import annotations

import numpy as np

from ..video.synthetic import SceneSpec, SyntheticVideo
from ._builders import (
    SCALED_4K,
    car_tracks,
    crowd_tracks,
    person_tracks,
    roaming_tracks,
)

__all__ = ["el_fuente_scene", "EL_FUENTE_SCENES"]

#: Named scenes with their content style: (scene name, style, relative length).
EL_FUENTE_SCENES: tuple[tuple[str, str, float], ...] = (
    ("market", "dense-crowd", 1.0),
    ("plaza", "dense-mixed", 1.0),
    ("river", "sparse-boat", 0.75),
    ("street", "sparse-traffic", 0.75),
    ("cyclists", "sparse-bicycle", 0.5),
)


def el_fuente_scene(
    scene: str = "market",
    duration_seconds: float = 16.0,
    frame_rate: int = 10,
    camera_pan: float = 0.4,
    seed: int = 503,
) -> SyntheticVideo:
    """One El Fuente scene by name (see ``EL_FUENTE_SCENES``)."""
    styles = {name: style for name, style, _ in EL_FUENTE_SCENES}
    if scene not in styles:
        raise ValueError(f"unknown El Fuente scene {scene!r}; expected one of {sorted(styles)}")
    style = styles[scene]
    width, height = SCALED_4K
    rng = np.random.default_rng(seed + sum(ord(c) for c in scene))
    frame_count = max(int(duration_seconds * frame_rate), 1)

    if style == "dense-crowd":
        tracks = crowd_tracks(22, width, height, rng)
    elif style == "dense-mixed":
        tracks = crowd_tracks(14, width, height, rng) + car_tracks(3, width, height, rng, size=(90, 50))
    elif style == "sparse-boat":
        tracks = roaming_tracks(2, width, height, rng, "boat", (70, 30), amplitude_fraction=0.15)
    elif style == "sparse-traffic":
        tracks = car_tracks(3, width, height, rng) + person_tracks(2, width, height, rng)
    else:  # sparse-bicycle
        tracks = roaming_tracks(2, width, height, rng, "bicycle", (40, 26), amplitude_fraction=0.35)
        tracks += person_tracks(2, width, height, rng)

    pan = camera_pan if style.startswith("dense") else 0.0
    spec = SceneSpec(
        name=f"el-fuente-{scene}",
        width=width,
        height=height,
        frame_count=frame_count,
        frame_rate=frame_rate,
        tracks=tracks,
        noise_sigma=2.0,
        camera_pan_per_frame=pan,
        seed=seed,
    )
    return SyntheticVideo(spec)
