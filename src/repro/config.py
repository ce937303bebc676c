"""Configuration for the TASM storage manager.

The paper's tuning knobs are collected in :class:`TasmConfig`:

* ``alpha`` — the not-tiling threshold from Section 3.4.4 / 5.2.3: a layout is
  only considered useful when the pixels it decodes for the workload are below
  ``alpha`` times the pixels decoded by the untiled layout (the paper uses 0.8).
* ``eta`` — the regret multiplier from Section 4.4: a SOT is re-tiled with an
  alternative layout once its accumulated regret exceeds ``eta`` times the
  estimated re-tile cost R(s, L) (the paper uses 1.0, mirroring online
  indexing).
* ``beta`` / ``gamma`` — coefficients of the decode cost model
  ``C(s, q, L) = beta * P + gamma * T`` from Section 4.1.  Defaults come from
  fitting the simulated codec (see ``repro.core.cost.fit_cost_model``); they
  can be re-estimated for any deployment.
* codec parameters — GOP length, quantisation step, block size, minimum tile
  dimensions (HEVC imposes a minimum tile width/height; we default to 64 px
  wide by 64 px tall after block snapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigurationError

__all__ = ["CodecConfig", "CostCoefficients", "TasmConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class CodecConfig:
    """Parameters of the simulated tile-capable codec.

    Attributes:
        gop_frames: number of frames in a group of pictures.  The paper treats
            one-second GOPs (30 frames at 30 fps) as the default.
        frame_rate: frames per second, used to convert durations to frames.
        block_size: encoding block granularity; tile boundaries are snapped to
            multiples of this value, mirroring HEVC coding-tree-unit alignment.
        min_tile_width / min_tile_height: smallest tile the codec accepts.
        keyframe_quant: quantisation step for intra (key) frames.
        predicted_quant: quantisation step for predicted (P) frames.
        tile_overhead_bytes: per-tile container/header overhead added to the
            stored size of every encoded tile.
    """

    gop_frames: int = 30
    frame_rate: int = 30
    block_size: int = 16
    min_tile_width: int = 64
    min_tile_height: int = 64
    keyframe_quant: int = 4
    predicted_quant: int = 6
    tile_overhead_bytes: int = 96

    def __post_init__(self) -> None:
        if self.gop_frames <= 0:
            raise ConfigurationError("gop_frames must be positive")
        if self.frame_rate <= 0:
            raise ConfigurationError("frame_rate must be positive")
        if self.block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if self.min_tile_width < self.block_size or self.min_tile_height < self.block_size:
            raise ConfigurationError(
                "minimum tile dimensions must be at least one block"
            )
        if not (1 <= self.keyframe_quant <= 255 and 1 <= self.predicted_quant <= 255):
            raise ConfigurationError("quantisation steps must be in [1, 255]")
        if self.tile_overhead_bytes < 0:
            raise ConfigurationError("tile_overhead_bytes must be non-negative")


@dataclass(frozen=True)
class CostCoefficients:
    """Coefficients of the paper's linear decode-cost model ``beta*P + gamma*T``.

    ``beta`` is the cost per decoded pixel and ``gamma`` the fixed cost per
    decoded tile.  The units are arbitrary (the evaluation normalises to the
    untiled baseline); what matters is their ratio, which determines where the
    "more tiles versus fewer pixels" trade-off crosses over.  The defaults are
    calibrated against the simulated codec the same way the paper calibrates
    against its prototype: fitting decode time to pixels and tiles decoded
    (see ``benchmarks/bench_cost_model_fit.py``) gives a per-tile overhead
    worth roughly forty thousand pixels, so gamma / beta = 4e4.
    """

    beta: float = 1.0e-6
    gamma: float = 4.0e-2

    def __post_init__(self) -> None:
        if self.beta <= 0 or self.gamma < 0:
            raise ConfigurationError("beta must be > 0 and gamma >= 0")


@dataclass(frozen=True)
class TasmConfig:
    """Top-level configuration of the TASM storage manager."""

    codec: CodecConfig = field(default_factory=CodecConfig)
    cost: CostCoefficients = field(default_factory=CostCoefficients)
    #: Not-tiling threshold alpha from Section 3.4.4 (paper value 0.8).
    alpha: float = 0.8
    #: Regret threshold multiplier eta from Section 4.4 (paper value 1.0).
    eta: float = 1.0
    #: Number of frames covered by one sequence-of-tiles (layout duration).
    #: Must be a multiple of the GOP length; defaults to one GOP.
    sot_frames: int | None = None
    #: Capacity of the persistent tile-decode cache in decoded bytes.  0
    #: disables the persistent cache, preserving the paper's one-shot scan
    #: behaviour; a batch then serves each SOT's queries from that SOT's warm.
    decode_cache_bytes: int = 0
    #: Upper bound on the number of queries one service batch holds.  A free
    #: batch runner takes up to this many pending queries at once, so a batch
    #: is whatever queued while every runner was busy (one query when idle).
    service_max_batch: int = 16
    #: Number of batch-runner threads a ``TasmServer`` runs.  1 executes
    #: one batch at a time; more runners execute batches concurrently, so
    #: decode-bound mixes keep every core busy while arrivals coalesce
    #: behind them.  Concurrent batches are safe: per-``(video, SOT)``
    #: readers-writer locks order them against writes, and the tile cache and
    #: lazy SOT encoding are lock-protected.
    service_runners: int = 2
    #: Per-stream chunk-buffer bound of the service layer.  A query's
    #: :class:`~repro.service.server.ResultStream` holds at most this many
    #: undelivered per-SOT chunks; when a consumer falls behind, the producing
    #: batch runner suspends instead of buffering without limit
    #: (backpressure).
    service_stream_buffer_chunks: int = 64
    #: Whether the server keeps a trace per query (``repro.obs``) and logs a
    #: slow one with its spans.  Off, every query carries the shared null
    #: trace; the metrics registry counts either way.
    observability: bool = True
    #: Admission bound of a ``TasmServer``: a query arriving while this
    #: many are already pending is refused immediately with
    #: :class:`~repro.errors.ServerBusy` instead of joining a backlog the
    #: server cannot drain.  0 disables the bound (accept everything).
    service_max_queue_depth: int = 0
    #: Replication factor of the cluster layer (``repro.cluster``): every
    #: ``(video, SOT)`` key is owned by this many distinct shards on the
    #: consistent-hash ring, so a mid-scan shard failure fails over to a
    #: replica instead of failing the query.  1 means no replication (each
    #: key has exactly one owner); values above the shard count clamp to it.
    cluster_replication_factor: int = 1
    #: Virtual nodes per shard on the cluster's consistent-hash ring.  More
    #: vnodes smooth the key distribution (each shard owns ~1/N of the
    #: keyspace with lower variance) at the cost of a larger ring to bisect.
    cluster_ring_vnodes: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if self.eta < 0.0:
            raise ConfigurationError("eta must be non-negative")
        if self.sot_frames is not None:
            if self.sot_frames <= 0:
                raise ConfigurationError("sot_frames must be positive")
            if self.sot_frames % self.codec.gop_frames != 0:
                raise ConfigurationError(
                    "sot_frames must be a multiple of the GOP length: layout "
                    "changes can only happen at GOP boundaries"
                )
        if self.decode_cache_bytes < 0:
            raise ConfigurationError("decode_cache_bytes must be non-negative")
        if self.service_max_batch < 1:
            raise ConfigurationError("service_max_batch must be at least 1")
        if self.service_runners < 1:
            raise ConfigurationError("service_runners must be at least 1")
        if self.service_stream_buffer_chunks < 1:
            raise ConfigurationError("service_stream_buffer_chunks must be at least 1")
        if self.service_max_queue_depth < 0:
            raise ConfigurationError(
                "service_max_queue_depth must be non-negative (0 = unbounded)"
            )
        if self.cluster_replication_factor < 1:
            raise ConfigurationError("cluster_replication_factor must be at least 1")
        if self.cluster_ring_vnodes < 1:
            raise ConfigurationError("cluster_ring_vnodes must be at least 1")

    @property
    def layout_duration_frames(self) -> int:
        """Frames per SOT; defaults to one GOP when not set explicitly."""
        return self.sot_frames if self.sot_frames is not None else self.codec.gop_frames

    def with_updates(self, **changes: Any) -> "TasmConfig":
        """Return a copy with the given fields replaced (dataclasses.replace)."""
        return replace(self, **changes)


#: A shared default configuration used when callers do not supply one.
DEFAULT_CONFIG = TasmConfig()
