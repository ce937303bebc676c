"""The decode cost model and the re-tile cost it is weighed against (Section 4.1).

The estimated cost of executing query ``q`` over SOT ``s`` with layout ``L``
is ``C(s, q, L) = beta * P(s, q, L) + gamma * T(s, q, L)`` where ``P`` is the
number of pixels decoded and ``T`` the number of tiles decoded.  The paper
validates this model by fitting a linear model to measured decode times
(R^2 = 0.996); :func:`fit_cost_model` performs the same fit against the
simulated codec so the benchmark suite can reproduce that validation.

The re-tile cost ``R(s, L)`` is in the same units: a re-tile reads the stored
SOT (a whole-SOT ``C``) and encodes it again, linear in the pixels and tiles
encoded (:meth:`CostModel.retile_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..config import TasmConfig
from ..errors import QueryError
from ..geometry import Rectangle
from ..tiles.layout import TileLayout

__all__ = [
    "ENCODE_COST_PER_PIXEL",
    "ENCODE_COST_PER_TILE",
    "CostEstimate",
    "CostModel",
    "SotCostTable",
    "FittedCostModel",
    "fit_cost_model",
]

#: Encoding cost per pixel, in the units of ``beta * P + gamma * T``: the
#: write half of R(s, L) (:meth:`CostModel.retile_cost`), fitted to the codec
#: by the R section of ``benchmarks/bench_cost_model_fit.py``.
ENCODE_COST_PER_PIXEL = 2.8e-6
#: Encoding cost per tile and GOP, fitted likewise.
ENCODE_COST_PER_TILE = 5.2e-2


@dataclass(frozen=True)
class CostEstimate:
    """Estimated decode work for one (SOT, query, layout) combination."""

    pixels: int
    tiles: int
    cost: float

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(
            pixels=self.pixels + other.pixels,
            tiles=self.tiles + other.tiles,
            cost=self.cost + other.cost,
        )

    @property
    def is_zero(self) -> bool:
        return self.pixels == 0 and self.tiles == 0


class CostModel:
    """Implements C(s, q, L), R(s, L), and the improvement delta."""

    def __init__(self, config: TasmConfig):
        self.config = config

    # ------------------------------------------------------------------
    # Decode cost C(s, q, L)
    # ------------------------------------------------------------------
    def cost(self, pixels: float, tiles: float) -> float:
        return self.config.cost.beta * pixels + self.config.cost.gamma * tiles

    @staticmethod
    def _tiles_needed(layout: TileLayout, boxes: Iterable[Rectangle]) -> set[int]:
        """The tiles one frame's boxes touch: what decoding them there opens."""
        columns, span = layout.columns, layout.tile_span
        needed: set[int] = set()
        for box in boxes:
            row0, row1, col0, col1 = span(box)
            for first in range(row0 * columns, row1 * columns, columns):
                needed.update(range(first + col0, first + col1))
        return needed

    def sot_cost_table(
        self, layout: TileLayout, boxes_per_frame: Iterable[Iterable[Rectangle]]
    ) -> "SotCostTable":
        """What a decode estimate needs of every frame of a SOT, so that any
        window of it is a lookup (:meth:`window_cost`).  ``boxes_per_frame``
        holds the boxes requested on each of the SOT's frames, first frame
        first.  A frame's P is the full area of every tile its boxes touch,
        since the codec cannot decode part of a tile."""
        areas = layout.tile_areas
        needed = [self._tiles_needed(layout, boxes) for boxes in boxes_per_frame]
        return SotCostTable(
            (0, *accumulate(sum(areas[tile_index] for tile_index in tiles) for tiles in needed)),
            tuple(sum(1 << tile_index for tile_index in tiles) for tiles in needed),
        )

    def window_cost(self, table: "SotCostTable", first: int, last: int) -> CostEstimate:
        """P, T and C(s, q, L) of frames ``[first, last)`` of ``table``'s SOT,
        counted from its first frame (which starts a GOP).  A tile is opened
        once per GOP (the per-tile overhead T), so T is, GOP by GOP, the bits
        set in the OR of the window's frame masks."""
        gop_frames, needed = self.config.codec.gop_frames, table.tiles_needed
        pixels = table.pixels_before[last] - table.pixels_before[first]
        tiles = 0
        while first < last:  # the window's frames of one GOP per turn
            stop = min(last, first - first % gop_frames + gop_frames)
            tiles += reduce(or_, needed[first:stop], 0).bit_count()
            first = stop
        return CostEstimate(pixels, tiles, self.cost(pixels, tiles))

    def delta(self, current: CostEstimate, alternative: CostEstimate) -> float:
        """Delta(q, L, L') = C(s,q,L) - C(s,q,L'): positive when L' is better."""
        return current.cost - alternative.cost

    def pixel_ratio(self, layout_estimate: CostEstimate, untiled_estimate: CostEstimate) -> float:
        """P(s,q,L) / P(s,q,omega) — the not-tiling decision metric (Fig. 10)."""
        if untiled_estimate.pixels == 0:
            return 1.0
        return layout_estimate.pixels / untiled_estimate.pixels

    def layout_is_useful(
        self, layout_estimate: CostEstimate, untiled_estimate: CostEstimate
    ) -> bool:
        """The alpha rule from Section 3.4.4: tile only if it skips enough pixels."""
        if untiled_estimate.is_zero:
            return False
        return self.pixel_ratio(layout_estimate, untiled_estimate) < self.config.alpha

    # ------------------------------------------------------------------
    # Re-tile cost R(s, L)
    # ------------------------------------------------------------------
    def retile_cost(
        self, current: TileLayout | None, new: TileLayout, frame_count: int
    ) -> float:
        """R(s, L): re-tiling a SOT of ``frame_count`` frames stored under
        ``current`` to ``new``, in the units of ``beta * P + gamma * T``.

        A re-tile transcodes what is stored, so R is a read plus a write: the
        decode estimate of the whole SOT under ``current`` (every tile of
        every frame), and the encode of every tile under ``new``.  A SOT never
        stored (``current`` None) is encoded from the raw video and reads
        nothing.
        """
        if frame_count <= 0:
            raise QueryError("frame_count must be positive")
        gop_count = -(-frame_count // self.config.codec.gop_frames)
        read = 0.0
        if current is not None:
            read = self.cost(current.frame_pixels * frame_count, current.tile_count * gop_count)
        pixel_term = ENCODE_COST_PER_PIXEL * new.frame_pixels * frame_count
        tile_term = ENCODE_COST_PER_TILE * new.tile_count * gop_count
        return read + pixel_term + tile_term


class SotCostTable(NamedTuple):
    """P and T of every frame of one SOT, for one predicate under one layout."""

    #: ``pixels_before[k]``: the area of the tiles the first ``k`` frames
    #: need, each frame's tiles counted on that frame (the P term is per frame).
    pixels_before: tuple[int, ...]
    #: Frame ``k``'s needed tiles, a bit per tile index.
    tiles_needed: tuple[int, ...]


@dataclass(frozen=True)
class FittedCostModel:
    """Result of regressing measured decode time on pixels and tiles."""

    beta: float
    gamma: float
    intercept: float
    r_squared: float

    def predict(self, pixels: float, tiles: float) -> float:
        return self.intercept + self.beta * pixels + self.gamma * tiles


def fit_cost_model(samples: Sequence[tuple[float, float, float]]) -> FittedCostModel:
    """Fit ``seconds ~ beta * pixels + gamma * tiles + intercept`` by least squares.

    ``samples`` holds (pixels_decoded, tiles_decoded, seconds) triples — the
    same validation the paper performs over 1,400 decode measurements.
    """
    if len(samples) < 3:
        raise QueryError("fitting the cost model requires at least three samples")
    matrix = np.array([[pixels, tiles, 1.0] for pixels, tiles, _ in samples], dtype=np.float64)
    observed = np.array([seconds for _, _, seconds in samples], dtype=np.float64)
    coefficients, _, _, _ = np.linalg.lstsq(matrix, observed, rcond=None)
    predicted = matrix @ coefficients
    residual = float(np.sum((observed - predicted) ** 2))
    total = float(np.sum((observed - np.mean(observed)) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return FittedCostModel(
        beta=float(coefficients[0]),
        gamma=float(coefficients[1]),
        intercept=float(coefficients[2]),
        r_squared=r_squared,
    )
