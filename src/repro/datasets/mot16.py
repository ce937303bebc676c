"""MOT16 stand-in: pedestrian tracking scenes with dataset-provided boxes.

MOT16 ships unlabeled ground-truth bounding boxes with the videos, so the
paper stores them in the semantic index under a generic "object" label and
queries retrieve cars and pedestrians through that label.  The stand-in does
the same: :func:`mot16_scene` builds a street scene, and
``GroundTruthDetector(relabel=MOT16_GENERIC_LABEL)`` returns its ground-truth
boxes relabelled to "object", exactly how TASM ingests the real dataset.
"""

from __future__ import annotations

import numpy as np

from ..video.synthetic import SceneSpec, SyntheticVideo
from ._builders import SCALED_2K, car_tracks, person_tracks

__all__ = ["mot16_scene", "MOT16_GENERIC_LABEL"]

#: The label under which MOT16 boxes are stored (the dataset's boxes carry no class).
MOT16_GENERIC_LABEL = "object"


def mot16_scene(
    name: str = "mot16-street",
    duration_seconds: float = 18.0,
    frame_rate: int = 10,
    pedestrians: int = 7,
    cars: int = 2,
    seed: int = 409,
) -> SyntheticVideo:
    """A street scene with many pedestrians and a couple of vehicles."""
    width, height = SCALED_2K
    rng = np.random.default_rng(seed)
    frame_count = max(int(duration_seconds * frame_rate), 1)
    tracks = person_tracks(pedestrians, width, height, rng) + car_tracks(
        cars, width, height, rng
    )
    spec = SceneSpec(
        name=name,
        width=width,
        height=height,
        frame_count=frame_count,
        frame_rate=frame_rate,
        tracks=tracks,
        noise_sigma=2.5,
        seed=seed,
    )
    return SyntheticVideo(spec)
