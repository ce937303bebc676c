"""TASM core: the tile-based storage manager and its tiling strategies.

This package implements the paper's primary contribution:

* :class:`~repro.core.tasm.TASM` — the storage manager with the paper's
  access-method API (``scan`` / ``add_metadata``), built on the semantic
  index, the tile partitioner, and the simulated codec.
* :mod:`~repro.core.cost` — the decode cost model ``C = beta*P + gamma*T``
  and the re-tile cost ``R`` it is weighed against.
* :mod:`~repro.core.policies` — the tiling strategies evaluated in Section 5:
  not tiling, pre-tiling around all objects, the known-query/known-object
  (KQKO) optimisation, incremental-more, and incremental-regret.
* :mod:`~repro.core.edge` — the edge-camera extension that detects objects
  and tiles video before it reaches the VDBMS.
"""

from .predicates import LabelPredicate, TemporalPredicate
from .query import Query, Workload
from .cost import CostEstimate, CostModel, fit_cost_model
from .regret import RegretAccumulator, layout_key
from .scan import ScanResult
from .tasm import TASM
from .policies import (
    TilingPolicy,
    NoTilingPolicy,
    PreTileAllObjectsPolicy,
    KnownWorkloadPolicy,
    IncrementalMorePolicy,
    IncrementalRegretPolicy,
)
from .edge import EdgeCamera, EdgeTilingResult

__all__ = [
    "LabelPredicate",
    "TemporalPredicate",
    "Query",
    "Workload",
    "CostEstimate",
    "CostModel",
    "fit_cost_model",
    "RegretAccumulator",
    "layout_key",
    "ScanResult",
    "TASM",
    "TilingPolicy",
    "NoTilingPolicy",
    "PreTileAllObjectsPolicy",
    "KnownWorkloadPolicy",
    "IncrementalMorePolicy",
    "IncrementalRegretPolicy",
    "EdgeCamera",
    "EdgeTilingResult",
]
