"""Rectangle and bounding-box geometry used throughout TASM.

The paper represents object detections as axis-aligned bounding boxes
``(x1, y1, x2, y2)`` on a frame, and tile layouts as grids of rectangles.
This module provides a single :class:`Rectangle` value type plus the
operations TASM needs: intersection, union, area, coverage fractions, and
interval arithmetic helpers used by the tile partitioner.

Coordinates follow image conventions: ``x`` grows to the right, ``y`` grows
downward, and rectangles are half-open (``x1 <= x < x2``), so the width is
``x2 - x1`` and two rectangles that merely share an edge do not intersect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import GeometryError

__all__ = [
    "Rectangle",
    "BoundingBox",
    "merge_intervals",
    "interval_cover",
    "total_covered_area",
]


@dataclass(frozen=True, order=True)
class Rectangle:
    """An axis-aligned, half-open rectangle ``[x1, x2) x [y1, y2)``.

    Instances are immutable and hashable so they can be used as dictionary
    keys and stored in sets (the tile partitioner relies on this).
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        # NaN fails both comparisons, so it is refused with the inverted boxes.
        if not (self.x2 >= self.x1 and self.y2 >= self.y1):
            raise GeometryError(
                "rectangle needs x1 <= x2 and y1 <= y2, none of them NaN: "
                f"({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    # ------------------------------------------------------------------
    # Basic measurements
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def is_empty(self) -> bool:
        return self.width == 0 or self.height == 0

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    # ------------------------------------------------------------------
    # Set-like operations
    # ------------------------------------------------------------------
    def intersects(self, other: "Rectangle") -> bool:
        """Return True when the two rectangles share a region of positive area."""
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
        )

    def intersection(self, other: "Rectangle") -> "Rectangle | None":
        """Return the overlapping rectangle, or None when disjoint."""
        if not self.intersects(other):
            return None
        return Rectangle(
            max(self.x1, other.x1),
            max(self.y1, other.y1),
            min(self.x2, other.x2),
            min(self.y2, other.y2),
        )

    def contains(self, other: "Rectangle") -> bool:
        """Return True when ``other`` lies entirely within this rectangle."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def intersection_area(self, other: "Rectangle") -> float:
        overlap = self.intersection(other)
        return 0.0 if overlap is None else overlap.area

    def iou(self, other: "Rectangle") -> float:
        """Intersection-over-union, used by the detector simulations."""
        inter = self.intersection_area(other)
        if inter == 0.0:
            return 0.0
        union = self.area + other.area - inter
        return inter / union

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scale(self, sx: float, sy: float) -> "Rectangle":
        return Rectangle(self.x1 * sx, self.y1 * sy, self.x2 * sx, self.y2 * sy)

    def clamp(self, bounds: "Rectangle") -> "Rectangle | None":
        """Clip this rectangle to ``bounds``; returns None if nothing remains."""
        clipped = self.intersection(bounds)
        if clipped is None or clipped.is_empty:
            return None
        return clipped

    def expand(self, margin: float, bounds: "Rectangle | None" = None) -> "Rectangle":
        """Grow the rectangle by ``margin`` on every side, optionally clipped."""
        grown = Rectangle(
            self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin
        )
        if bounds is None:
            return grown
        clipped = grown.intersection(bounds)
        if clipped is None:
            raise GeometryError("expanded rectangle does not intersect bounds")
        return clipped

    def as_int_tuple(self) -> tuple[int, int, int, int]:
        return (int(self.x1), int(self.y1), int(self.x2), int(self.y2))

    def __iter__(self) -> Iterator[float]:
        yield self.x1
        yield self.y1
        yield self.x2
        yield self.y2


# A bounding box produced by a detector is geometrically just a rectangle; the
# alias keeps call sites readable (``BoundingBox`` for detections, ``Rectangle``
# for tiles and frame bounds).
BoundingBox = Rectangle


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge overlapping or touching 1-D intervals.

    Used by the fine-grained tile partitioner to project bounding boxes onto
    the x and y axes and derive cut points that do not intersect any box.
    """
    ordered = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    merged: list[tuple[float, float]] = []
    for lo, hi in ordered:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def interval_cover(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly-overlapping intervals."""
    return sum(hi - lo for lo, hi in merge_intervals(intervals))


def total_covered_area(boxes: Sequence[Rectangle], bounds: Rectangle) -> float:
    """Area of the union of ``boxes`` clipped to ``bounds``.

    Computed with a sweep over the distinct y coordinates: within each
    horizontal strip the union is a set of x intervals.  This exact union area
    (rather than the sum of box areas) is what the paper's sparse/dense
    classification ("average area occupied by all objects in a frame") needs,
    because overlapping detections must not be double counted.
    """
    clipped = [b for b in (box.clamp(bounds) for box in boxes) if b is not None]
    if not clipped:
        return 0.0
    ys = sorted({b.y1 for b in clipped} | {b.y2 for b in clipped})
    area = 0.0
    for y_lo, y_hi in zip(ys, ys[1:]):
        strip_height = y_hi - y_lo
        if strip_height <= 0:
            continue
        spans = [
            (b.x1, b.x2)
            for b in clipped
            if b.y1 <= y_lo and b.y2 >= y_hi
        ]
        area += interval_cover(spans) * strip_height
    return area
