"""Tile layouts.

The paper defines a layout as ``L = (nr, nc, {h1..hnr}, {c1..cnc})``: the
number of rows and columns plus the height of each row and the width of each
column.  Rows and columns extend across the whole frame (HEVC only supports
regular grids), so a layout is fully described by its row heights and column
widths.  The untiled layout ``omega`` is the special case of a single tile
covering the whole frame.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterator

from ..errors import LayoutError
from ..geometry import Rectangle

__all__ = ["TileLayout", "VideoLayoutSpec", "uniform_layout", "untiled_layout"]


@dataclass(frozen=True)
class TileLayout:
    """A regular tile grid over a frame of ``frame_width`` x ``frame_height``.

    The row heights must sum to the frame height and the column widths to the
    frame width; every tile therefore has positive area and the grid exactly
    covers the frame (pixel conservation — verified by property tests).

    A layout is immutable, so its geometry (cumulative row/column edges, tile
    rectangles) is computed once per instance, on first use.  The memo lives
    outside the four defining fields: it takes no part in ``==``, ``hash`` or
    ``repr``, and a pickle carries the fields alone.
    """

    frame_width: int
    frame_height: int
    row_heights: tuple[int, ...]
    column_widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise LayoutError("frame dimensions must be positive")
        if not self.row_heights or not self.column_widths:
            raise LayoutError("a layout needs at least one row and one column")
        if any(h <= 0 for h in self.row_heights) or any(w <= 0 for w in self.column_widths):
            raise LayoutError("row heights and column widths must be positive")
        if sum(self.row_heights) != self.frame_height:
            raise LayoutError(
                f"row heights {self.row_heights} sum to {sum(self.row_heights)}, "
                f"expected frame height {self.frame_height}"
            )
        if sum(self.column_widths) != self.frame_width:
            raise LayoutError(
                f"column widths {self.column_widths} sum to {sum(self.column_widths)}, "
                f"expected frame width {self.frame_width}"
            )
        # Normalise to tuples so instances built from lists stay hashable.
        object.__setattr__(self, "row_heights", tuple(int(h) for h in self.row_heights))
        object.__setattr__(self, "column_widths", tuple(int(w) for w in self.column_widths))

    def __reduce__(self):
        # Shards receive layouts pickled: ship the fields, not the memo.
        return TileLayout, (
            self.frame_width, self.frame_height, self.row_heights, self.column_widths
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return len(self.row_heights)

    @property
    def columns(self) -> int:
        return len(self.column_widths)

    @property
    def tile_count(self) -> int:
        return self.rows * self.columns

    @property
    def is_untiled(self) -> bool:
        """True for the omega layout: a single tile covering the frame."""
        return self.tile_count == 1

    @cached_property
    def row_edges(self) -> tuple[int, ...]:
        """Cumulative row boundaries: row ``r`` is ``[row_edges[r], row_edges[r + 1])``."""
        return (0, *accumulate(self.row_heights))

    @cached_property
    def column_edges(self) -> tuple[int, ...]:
        """Cumulative column boundaries, as :attr:`row_edges`."""
        return (0, *accumulate(self.column_widths))

    # ------------------------------------------------------------------
    # Tile geometry
    # ------------------------------------------------------------------
    @cached_property
    def _rectangles(self) -> tuple[Rectangle, ...]:
        rows, columns = self.row_edges, self.column_edges
        return tuple(
            Rectangle(columns[column], rows[row], columns[column + 1], rows[row + 1])
            for row in range(self.rows)
            for column in range(self.columns)
        )

    @cached_property
    def tile_areas(self) -> tuple[int, ...]:
        """Pixels per tile, in row-major order."""
        return tuple(h * w for h in self.row_heights for w in self.column_widths)

    def tile_rectangles(self) -> list[Rectangle]:
        """All tile rectangles in row-major order."""
        return list(self._rectangles)

    def tile_index(self, row: int, column: int) -> int:
        if not 0 <= row < self.rows or not 0 <= column < self.columns:
            raise LayoutError(
                f"tile ({row}, {column}) out of range for a {self.rows}x{self.columns} layout"
            )
        return row * self.columns + column

    def tile_span(self, box: Rectangle) -> tuple[int, int, int, int]:
        """The grid range ``(row0, row1, col0, col1)`` of tiles ``box`` touches.

        Both ranges are half-open.  This is the system's one overlap rule: a
        tile is touched when it shares positive area with the box, so a box of
        zero area, or one lying outside the frame, touches nothing and gets
        the empty span ``(0, 0, 0, 0)``.  Two bisects per axis over the
        cumulative edges replace a test of every tile rectangle.
        """
        x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
        if x1 < x2 and y1 < y2:
            rows, columns = self.row_edges, self.column_edges
            # First row/column ending past the box's near edge, last one
            # starting before its far edge; out-of-frame edges clip to the grid.
            row0 = bisect_right(rows, y1) - 1 if y1 > 0 else 0
            col0 = bisect_right(columns, x1) - 1 if x1 > 0 else 0
            row1 = bisect_left(rows, y2) if y2 < rows[-1] else len(rows) - 1
            col1 = bisect_left(columns, x2) if x2 < columns[-1] else len(columns) - 1
            if row0 < row1 and col0 < col1:
                return row0, row1, col0, col1
        return 0, 0, 0, 0

    def tiles_intersecting(self, region: Rectangle) -> list[int]:
        """Indices of every tile whose area overlaps ``region``, ascending."""
        row0, row1, col0, col1 = self.tile_span(region)
        columns = self.columns
        return [
            row * columns + column
            for row in range(row0, row1)
            for column in range(col0, col1)
        ]

    @property
    def frame_pixels(self) -> int:
        return self.frame_width * self.frame_height

    def describe(self) -> str:
        """Short human-readable description, e.g. '3x4 (non-uniform)'."""
        uniform = len(set(self.row_heights)) <= 1 and len(set(self.column_widths)) <= 1
        kind = "uniform" if uniform else "non-uniform"
        if self.is_untiled:
            return "untiled"
        return f"{self.rows}x{self.columns} ({kind})"

    def __iter__(self) -> Iterator[Rectangle]:
        return iter(self._rectangles)


def untiled_layout(frame_width: int, frame_height: int) -> TileLayout:
    """The omega layout: one tile spanning the whole frame (Section 2)."""
    return TileLayout(
        frame_width=frame_width,
        frame_height=frame_height,
        row_heights=(frame_height,),
        column_widths=(frame_width,),
    )


def uniform_layout(
    frame_width: int,
    frame_height: int,
    rows: int,
    columns: int,
    block_size: int = 1,
) -> TileLayout:
    """A uniform ``rows x columns`` grid, with dimensions snapped to blocks.

    Each row/column gets the same size rounded down to a multiple of
    ``block_size``; the remainder is absorbed by the last row/column, the same
    way hardware encoders pad the final coding-tree-unit row.
    """
    if rows <= 0 or columns <= 0:
        raise LayoutError("rows and columns must be positive")
    if rows > frame_height or columns > frame_width:
        raise LayoutError(
            f"cannot split a {frame_width}x{frame_height} frame into {rows}x{columns} tiles"
        )

    def split(total: int, parts: int) -> tuple[int, ...]:
        base = max((total // parts) // block_size * block_size, 1)
        sizes = [base] * (parts - 1)
        last = total - base * (parts - 1)
        if last <= 0:
            raise LayoutError(
                f"cannot split {total} pixels into {parts} parts with block size {block_size}"
            )
        sizes.append(last)
        return tuple(sizes)

    return TileLayout(
        frame_width=frame_width,
        frame_height=frame_height,
        row_heights=split(frame_height, rows),
        column_widths=split(frame_width, columns),
    )


@dataclass
class VideoLayoutSpec:
    """Maps every sequence of tiles (SOT) of a video to its tile layout.

    SOTs are identified by index; each SOT covers ``sot_frames`` frames (the
    last one may be shorter).  SOTs without an explicit entry use the untiled
    layout, matching the paper's starting state where videos are not tiled.
    """

    frame_width: int
    frame_height: int
    frame_count: int
    sot_frames: int
    layouts: dict[int, TileLayout] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sot_frames <= 0:
            raise LayoutError("sot_frames must be positive")
        if self.frame_count <= 0:
            raise LayoutError("frame_count must be positive")

    @property
    def sot_count(self) -> int:
        return -(-self.frame_count // self.sot_frames)

    def sot_of_frame(self, frame_index: int) -> int:
        if not 0 <= frame_index < self.frame_count:
            raise LayoutError(f"frame {frame_index} out of range")
        return frame_index // self.sot_frames

    def frame_range(self, sot_index: int) -> tuple[int, int]:
        if not 0 <= sot_index < self.sot_count:
            raise LayoutError(f"SOT {sot_index} out of range ({self.sot_count} SOTs)")
        start = sot_index * self.sot_frames
        return start, min(start + self.sot_frames, self.frame_count)

    def sots_for_frames(self, start: int, stop: int) -> list[int]:
        """SOT indices overlapping the frame range ``[start, stop)``."""
        if stop <= start:
            return []
        start = max(start, 0)
        stop = min(stop, self.frame_count)
        return list(range(start // self.sot_frames, (stop - 1) // self.sot_frames + 1))

    def layout_for(self, sot_index: int) -> TileLayout:
        if not 0 <= sot_index < self.sot_count:
            raise LayoutError(f"SOT {sot_index} out of range ({self.sot_count} SOTs)")
        layout = self.layouts.get(sot_index)
        if layout is None:
            return untiled_layout(self.frame_width, self.frame_height)
        return layout

    def set_layout(self, sot_index: int, layout: TileLayout) -> None:
        self.check_layout(sot_index, layout)
        self.layouts[sot_index] = layout

    def check_layout(self, sot_index: int, layout: TileLayout) -> None:
        """Raise :class:`LayoutError` unless ``layout`` may be set for ``sot_index``."""
        if layout.frame_width != self.frame_width or layout.frame_height != self.frame_height:
            raise LayoutError(
                "layout frame dimensions do not match the video this spec describes"
            )
        if not 0 <= sot_index < self.sot_count:
            raise LayoutError(f"SOT {sot_index} out of range ({self.sot_count} SOTs)")

    def tiled_sots(self) -> list[int]:
        """Indices of SOTs that carry a non-trivial (non-omega) layout."""
        return sorted(
            index for index, layout in self.layouts.items() if not layout.is_untiled
        )
