"""Registry of the benchmark videos used across the experiment suite.

The benchmarks need one consistent set of named scenes, one or more per
dataset.  This module owns that set so every experiment draws the same
scenes, and provides the measured Table 1 summary (type, duration, resolution
class, coverage, frequent objects, sparse or dense) for the generated
stand-ins.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..video.synthetic import SyntheticVideo
from .el_fuente import el_fuente_scene
from .mot16 import mot16_scene
from .netflix import netflix_open_source_scene, netflix_public_scene
from .visual_road import visual_road_scene
from .xiph import xiph_scene

__all__ = [
    "dataset_registry",
    "table1_rows",
]

VideoFactory = Callable[[], SyntheticVideo]


def dataset_registry() -> Mapping[str, VideoFactory]:
    """Every named benchmark video and the factory that builds it."""
    return {
        "visual-road-2k": lambda: visual_road_scene("visual-road-2k", resolution="2K", seed=101),
        "visual-road-4k": lambda: visual_road_scene("visual-road-4k", resolution="4K", seed=131),
        "netflix-public-birds": lambda: netflix_public_scene(
            "netflix-public-birds", primary_object="bird", seed=211
        ),
        "netflix-public-people": lambda: netflix_public_scene(
            "netflix-public-people", primary_object="person", dense=True, seed=227
        ),
        "netflix-open-source": lambda: netflix_open_source_scene(seed=223),
        "xiph-harbour": lambda: xiph_scene("xiph-harbour", style="harbour", seed=307),
        "xiph-crossing": lambda: xiph_scene("xiph-crossing", style="crossing", seed=311),
        "xiph-street": lambda: xiph_scene("xiph-street", style="street", seed=313),
        "mot16-street": lambda: mot16_scene(seed=409),
        "el-fuente-market": lambda: el_fuente_scene("market", seed=503),
        "el-fuente-river": lambda: el_fuente_scene("river", seed=503),
        "el-fuente-street": lambda: el_fuente_scene("street", seed=503),
    }


def table1_rows() -> list[dict[str, object]]:
    """Measured characteristics of the generated stand-ins (our Table 1)."""
    rows = []
    for name, factory in dataset_registry().items():
        video = factory()
        coverage = video.average_object_coverage()
        rows.append(
            {
                "video": name,
                "type": "Synthetic stand-in",
                "duration_seconds": round(video.metadata.duration_seconds, 1),
                "resolution": f"{video.width}x{video.height}",
                "coverage_percent": round(coverage * 100.0, 2),
                "frequent_objects": ", ".join(sorted(video.labels())),
                "sparse": video.is_sparse(),
            }
        )
    return rows
