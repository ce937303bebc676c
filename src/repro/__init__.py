"""Reproduction of "TASM: A Tile-Based Storage Manager for Video Analytics".

The public API re-exports the pieces a downstream user needs:

* :class:`TASM` — the storage manager (ingest, add_metadata, scan, retile).
* Tile layouts and the partitioner (:class:`TileLayout`, ``uniform_layout``,
  ``partition_around_boxes``).
* The tiling policies evaluated in the paper.
* The simulated video substrate (synthetic scenes, the tile codec) and the
  simulated detectors, so the paper's experiments can run end to end offline.
"""

from .config import CodecConfig, CostCoefficients, TasmConfig, DEFAULT_CONFIG
from .errors import TasmError
from .geometry import BoundingBox, Rectangle
from .core import (
    TASM,
    Query,
    Workload,
    LabelPredicate,
    TemporalPredicate,
    ScanResult,
    CostModel,
    CostEstimate,
    fit_cost_model,
    RegretAccumulator,
    NoTilingPolicy,
    PreTileAllObjectsPolicy,
    KnownWorkloadPolicy,
    IncrementalMorePolicy,
    IncrementalRegretPolicy,
    EdgeCamera,
    EdgeTilingResult,
)
from .tiles import (
    TileLayout,
    TileGranularity,
    uniform_layout,
    untiled_layout,
    partition_around_boxes,
)
from .exec import BatchResult, CacheStats, TileDecodeCache
from .obs import MetricsRegistry, Observability
from .service import (
    RemoteTasmClient,
    ResultStream,
    SocketTransport,
    StreamChunk,
    TasmClient,
    TasmServer,
)
from .detection import (
    Detection,
    GroundTruthDetector,
    SimulatedYoloV3,
    SimulatedTinyYoloV3,
    BackgroundSubtractionDetector,
)
from .video import SyntheticVideo, SceneSpec, ObjectTrack, Video

__version__ = "1.0.0"

__all__ = [
    "CodecConfig",
    "CostCoefficients",
    "TasmConfig",
    "DEFAULT_CONFIG",
    "TasmError",
    "BoundingBox",
    "Rectangle",
    "TASM",
    "Query",
    "Workload",
    "LabelPredicate",
    "TemporalPredicate",
    "ScanResult",
    "CostModel",
    "CostEstimate",
    "fit_cost_model",
    "RegretAccumulator",
    "NoTilingPolicy",
    "PreTileAllObjectsPolicy",
    "KnownWorkloadPolicy",
    "IncrementalMorePolicy",
    "IncrementalRegretPolicy",
    "EdgeCamera",
    "EdgeTilingResult",
    "TileLayout",
    "TileGranularity",
    "uniform_layout",
    "untiled_layout",
    "partition_around_boxes",
    "BatchResult",
    "CacheStats",
    "MetricsRegistry",
    "Observability",
    "TileDecodeCache",
    "RemoteTasmClient",
    "ResultStream",
    "SocketTransport",
    "StreamChunk",
    "TasmClient",
    "TasmServer",
    "Detection",
    "GroundTruthDetector",
    "SimulatedYoloV3",
    "SimulatedTinyYoloV3",
    "BackgroundSubtractionDetector",
    "SyntheticVideo",
    "SceneSpec",
    "ObjectTrack",
    "Video",
    "__version__",
]
