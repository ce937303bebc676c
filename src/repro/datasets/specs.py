"""Dataset specifications mirroring Table 1 of the paper."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DatasetSpec", "TABLE1_SPECS"]


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 1: the dataset's published characteristics.

    These are the *paper's* numbers; the synthetic generators target the same
    object classes and coverage band at a reduced resolution and duration
    (see ``registry.table1_rows`` for the measured values of the generated
    stand-ins).
    """

    name: str
    video_type: str
    duration_seconds: tuple[float, float]
    resolutions: tuple[str, ...]
    coverage_percent: tuple[float, float]
    frequent_objects: tuple[str, ...]


TABLE1_SPECS: tuple[DatasetSpec, ...] = (
    DatasetSpec(
        name="visual-road",
        video_type="Synthetic",
        duration_seconds=(540.0, 900.0),
        resolutions=("2K", "4K"),
        coverage_percent=(0.06, 10.0),
        frequent_objects=("car", "person"),
    ),
    DatasetSpec(
        name="netflix-public",
        video_type="Real",
        duration_seconds=(6.0, 6.0),
        resolutions=("2K",),
        coverage_percent=(0.32, 49.0),
        frequent_objects=("person", "car", "bird"),
    ),
    DatasetSpec(
        name="netflix-open-source",
        video_type="Real, Synthetic",
        duration_seconds=(720.0, 720.0),
        resolutions=("2K", "4K"),
        coverage_percent=(25.0, 45.0),
        frequent_objects=("person", "car", "sheep"),
    ),
    DatasetSpec(
        name="xiph",
        video_type="Real",
        duration_seconds=(4.0, 20.0),
        resolutions=("2K", "4K"),
        coverage_percent=(2.0, 59.0),
        frequent_objects=("car", "person", "boat"),
    ),
    DatasetSpec(
        name="mot16",
        video_type="Real",
        duration_seconds=(15.0, 30.0),
        resolutions=("2K",),
        coverage_percent=(3.0, 36.0),
        frequent_objects=("car", "person"),
    ),
    DatasetSpec(
        name="el-fuente",
        video_type="Real",
        duration_seconds=(15.0, 480.0),
        resolutions=("4K",),
        coverage_percent=(1.0, 47.0),
        frequent_objects=("person", "car", "boat", "bicycle"),
    ),
)
