"""Non-uniform tile layout generation around object bounding boxes.

This implements ``partition(s, O)`` from Section 3.4.2 of the paper: given the
bounding boxes of the objects a layout should be designed around, produce a
regular tile grid whose boundaries do not cross any box, at one of two
granularities:

* **Fine-grained** — isolate objects into the smallest tiles the codec allows
  (Figure 4(a)).  Every edge of the boxes' merged projection onto an axis is
  a candidate cut.
* **Coarse-grained** — place all boxes inside one large tile: the only
  candidates are the outer extent of their union (Figure 4(b)).

Boxes are clipped to the frame and snapped outward to the codec block size,
so every candidate is block-aligned and none crosses a box.  The codec's
minimum tile dimensions decide which subsets of the candidates an axis may
keep: every row (column) of a tiled axis is at least the minimum, while an
axis with no cut is one tile whatever its extent.

Among those subsets the partitioner keeps the one that shrinks what the
boxes touch.  Each box lies inside one tile, and a scan of it decodes that
tile, so a layout costs ``sum over boxes of (tile height x tile width)``.
Rows are chosen first, minimising ``sum of (row height x box width)``;
columns then, minimising ``sum of (column width x height of the box's row)``
— given the rows, that is the cost exactly.  Each axis is an exact dynamic
programme over its candidates (:func:`_cheapest_cuts`).  A tie goes to fewer
cuts, so two empty segments side by side stay one tile.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Iterable, Sequence

from ..config import CodecConfig
from ..errors import LayoutError
from ..geometry import Rectangle, merge_intervals
from .layout import TileLayout, untiled_layout

__all__ = ["TileGranularity", "partition_around_boxes"]


class TileGranularity(enum.Enum):
    """Granularity of non-uniform layouts (Section 3.4.2, Figure 4)."""

    FINE = "fine"
    COARSE = "coarse"


def partition_around_boxes(
    boxes: Iterable[Rectangle],
    frame_width: int,
    frame_height: int,
    granularity: TileGranularity = TileGranularity.FINE,
    codec: CodecConfig | None = None,
) -> TileLayout:
    """Design a non-uniform layout whose boundaries avoid ``boxes``.

    Returns the untiled layout when no valid cut exists (for example when
    objects cover essentially the whole frame), which is also the correct
    degenerate answer: a layout with no interior boundary.
    """
    codec = codec or CodecConfig()
    if frame_width <= 0 or frame_height <= 0:
        raise LayoutError("frame dimensions must be positive")

    # Clip to the frame, snap outward to blocks and clip again, on plain
    # ints: no Rectangle is built per box.
    block = codec.block_size
    usable = []
    for box in boxes:
        x1, y1 = max(box.x1, 0), max(box.y1, 0)
        x2, y2 = min(box.x2, frame_width), min(box.y2, frame_height)
        if x1 < x2 and y1 < y2:
            usable.append(
                (
                    _snap_down(x1, block),
                    _snap_down(y1, block),
                    min(_snap_up(x2, block), frame_width),
                    min(_snap_up(y2, block), frame_height),
                )
            )
    if not usable:
        return untiled_layout(frame_width, frame_height)

    candidates = _fine_cuts if granularity is TileGranularity.FINE else _coarse_cuts
    row_spans = [(y1, y2) for _, y1, _, y2 in usable]
    row_cuts = _cheapest_cuts(
        candidates(row_spans, frame_height),
        row_spans,
        [x2 - x1 for x1, _, x2, _ in usable],
        frame_height,
        codec.min_tile_height,
    )
    row_edges = [0, *row_cuts, frame_height]
    row_of = [bisect_right(row_edges, y1) - 1 for _, y1, _, _ in usable]
    column_spans = [(x1, x2) for x1, _, x2, _ in usable]
    column_cuts = _cheapest_cuts(
        candidates(column_spans, frame_width),
        column_spans,
        [row_edges[row + 1] - row_edges[row] for row in row_of],
        frame_width,
        codec.min_tile_width,
    )

    return TileLayout(
        frame_width=frame_width,
        frame_height=frame_height,
        row_heights=_sizes_from_cuts(row_cuts, frame_height),
        column_widths=_sizes_from_cuts(column_cuts, frame_width),
    )


# ----------------------------------------------------------------------
# Cut selection
# ----------------------------------------------------------------------
def _fine_cuts(spans: Sequence[tuple[int, int]], extent: int) -> list[int]:
    """Candidate cuts for fine-grained tiling along one axis, ascending.

    The merged projections of the boxes onto the axis form "occupied"
    intervals, and a position outside every one of them is a legal cut.
    The candidates are the edges of those intervals inside the frame: a cut
    anywhere else in a gap could only leave a box's segment longer.  The
    spans are block-snapped, so every edge is block-aligned (or the frame's
    own edge, which is no cut), and no edge lies inside another interval.
    Consecutive candidates therefore enclose every box, which is what
    :func:`_cheapest_cuts` weighs segments by.
    """
    return [
        edge
        for interval in merge_intervals(spans)
        for edge in interval
        if 0 < edge < extent
    ]


def _coarse_cuts(spans: Sequence[tuple[int, int]], extent: int) -> list[int]:
    """Candidate cuts for coarse-grained tiling along one axis, ascending.

    Only the outer extent of the union of all boxes generates cuts, so all
    boxes end up inside one large middle tile.
    """
    low = min(low for low, _ in spans)
    high = max(high for _, high in spans)
    return [cut for cut in (low, high) if 0 < cut < extent]


def _cheapest_cuts(
    candidates: Sequence[int],
    spans: Sequence[tuple[int, int]],
    weights: Sequence[int],
    extent: int,
    min_size: int,
) -> list[int]:
    """The subset of ``candidates`` that minimises the pixels boxes touch.

    Each span, weighted by ``weights``, lies between two consecutive
    positions of ``0, *candidates, extent``; keeping a subset of the
    candidates costs ``sum of (segment length x weight of the spans in it)``
    over its segments.  Every segment must be at least ``min_size`` unless
    the subset is empty.  ``best[j]`` is the cheapest ``(cost, cuts)`` of a
    subset whose last segment ends at position ``j``, and a prefix sum gives
    a segment's weight, so the axis costs O(spans log candidates +
    candidates²).  Ties go to fewer cuts.
    """
    positions = [0, *candidates, extent]
    last = len(positions) - 1
    prefix = [0] * (last + 1)
    for (low, _), weight in zip(spans, weights):
        prefix[bisect_right(positions, low)] += weight
    for index in range(1, last + 1):
        prefix[index] += prefix[index - 1]

    best: list[tuple[int, int] | None] = [(0, 0)] + [None] * last
    back = [0] * (last + 1)
    for end in range(1, last + 1):
        # Starts that leave a segment of at least min_size; the whole axis
        # as one segment (no cut at all) is always allowed.
        reach = bisect_right(positions, positions[end] - min_size)
        for start in range(max(reach, end == last)):
            if best[start] is None:
                continue
            cost, cuts = best[start]
            option = (
                cost + (positions[end] - positions[start]) * (prefix[end] - prefix[start]),
                cuts + (start > 0),
            )
            if best[end] is None or option < best[end]:
                best[end], back[end] = option, start

    kept: list[int] = []
    start = back[last]
    while start > 0:
        kept.append(positions[start])
        start = back[start]
    return kept[::-1]


def _sizes_from_cuts(cuts: Sequence[int], extent: int) -> tuple[int, ...]:
    edges = [0, *cuts, extent]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def _snap_down(value: float, block_size: int) -> int:
    return int(value // block_size) * block_size


def _snap_up(value: float, block_size: int) -> int:
    return int(-(-value // block_size)) * block_size
