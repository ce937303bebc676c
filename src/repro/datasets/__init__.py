"""Synthetic stand-ins for the paper's video datasets (Table 1).

The original evaluation uses Visual Road, the Netflix public / open-source
sets, Xiph, MOT16, and El Fuente — none of which can be downloaded offline.
Each generator here produces a :class:`~repro.video.synthetic.SyntheticVideo`
whose object classes, per-frame object coverage (the sparse/dense split the
evaluation hinges on), camera behaviour, and relative duration follow the
corresponding dataset, at a reduced resolution so the experiments run on a
laptop.  ``scale`` parameters let callers regenerate closer to the original
resolutions when they have the time budget.
"""

from .specs import DatasetSpec, TABLE1_SPECS
from .visual_road import visual_road_scene
from .netflix import netflix_public_scene, netflix_open_source_scene
from .xiph import xiph_scene
from .mot16 import mot16_scene
from .el_fuente import el_fuente_scene
from .registry import dataset_registry, table1_rows

__all__ = [
    "DatasetSpec",
    "TABLE1_SPECS",
    "visual_road_scene",
    "netflix_public_scene",
    "netflix_open_source_scene",
    "xiph_scene",
    "mot16_scene",
    "el_fuente_scene",
    "dataset_registry",
    "table1_rows",
]
