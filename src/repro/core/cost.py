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
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..config import TasmConfig
from ..errors import QueryError
from ..geometry import Rectangle
from ..tiles.layout import TileLayout, untiled_layout

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

    def estimate_query_cost(
        self,
        layout: TileLayout,
        frame_boxes: Mapping[int, Sequence[Rectangle]],
        gop_frames: int | None = None,
    ) -> CostEstimate:
        """Estimate P, T, and C for decoding the given boxes under ``layout``.

        ``frame_boxes`` maps each frame the query touches to the bounding
        boxes requested on that frame.  A tile is charged once per GOP it is
        opened in (the per-tile overhead ``T``), and its full area is charged
        for every frame on which it must be decoded (the pixel term ``P``),
        since the codec cannot decode part of a tile.
        """
        gop_frames = gop_frames or self.config.codec.gop_frames
        areas = layout.tile_areas
        pixels = 0
        opened: set[tuple[int, int]] = set()
        for frame_index, boxes in frame_boxes.items():
            gop_index = frame_index // gop_frames
            for tile_index in self._tiles_needed(layout, boxes):
                pixels += areas[tile_index]
                opened.add((gop_index, tile_index))
        tiles = len(opened)
        return CostEstimate(pixels=pixels, tiles=tiles, cost=self.cost(pixels, tiles))

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
        """What :meth:`estimate_query_cost` needs of every frame of a SOT, so
        that any window of it is a lookup (:meth:`window_cost`).
        ``boxes_per_frame`` holds the boxes requested on each of the SOT's
        frames, first frame first."""
        areas = layout.tile_areas
        needed = [self._tiles_needed(layout, boxes) for boxes in boxes_per_frame]
        return SotCostTable(
            (0, *accumulate(sum(areas[tile_index] for tile_index in tiles) for tiles in needed)),
            tuple(sum(1 << tile_index for tile_index in tiles) for tiles in needed),
        )

    def window_cost(self, table: "SotCostTable", first: int, last: int) -> CostEstimate:
        """The cost of frames ``[first, last)`` of ``table``'s SOT, counted
        from its first frame (which starts a GOP): the integers
        :meth:`estimate_query_cost` gives for the same frames.  A tile is
        opened once per GOP, so T is, GOP by GOP, the bits set in the OR of
        the window's frame masks."""
        gop_frames, needed = self.config.codec.gop_frames, table.tiles_needed
        pixels = table.pixels_before[last] - table.pixels_before[first]
        tiles = sum(
            reduce(or_, needed[max(first, start) : min(last, start + gop_frames)], 0).bit_count()
            for start in range(first - first % gop_frames, last, gop_frames)
        )
        return CostEstimate(pixels=pixels, tiles=tiles, cost=self.cost(pixels, tiles))

    def untiled_query_cost(
        self,
        frame_width: int,
        frame_height: int,
        frame_boxes: Mapping[int, Sequence[Rectangle]],
        gop_frames: int | None = None,
    ) -> CostEstimate:
        """Cost of the same query against the untiled (omega) layout."""
        return self.estimate_query_cost(
            untiled_layout(frame_width, frame_height), frame_boxes, gop_frames
        )

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
