"""Tests for tile layouts (repro.tiles.layout)."""

from __future__ import annotations

from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from repro.config import TasmConfig
from repro.core.cost import CostModel
from repro.errors import LayoutError
from repro.geometry import Rectangle
from repro.tiles.layout import TileLayout, VideoLayoutSpec, uniform_layout, untiled_layout
from tests.conftest import contains_point


def tile_containing_point(layout: TileLayout, x: float, y: float) -> int:
    """Index of the tile holding an in-frame point, found from the edges
    (the oracle ``tile_rectangles()`` is checked against)."""
    row = bisect_right(layout.row_edges, y) - 1
    return row * layout.columns + bisect_right(layout.column_edges, x) - 1


class TestTileLayoutValidation:
    def test_row_heights_must_sum_to_frame(self):
        with pytest.raises(LayoutError):
            TileLayout(100, 100, (40, 40), (50, 50))

    def test_column_widths_must_sum_to_frame(self):
        with pytest.raises(LayoutError):
            TileLayout(100, 100, (50, 50), (40, 40))

    def test_positive_sizes_required(self):
        with pytest.raises(LayoutError):
            TileLayout(100, 100, (0, 100), (100,))

    def test_at_least_one_row_and_column(self):
        with pytest.raises(LayoutError):
            TileLayout(100, 100, (), (100,))


class TestTileLayoutGeometry:
    def test_untiled_layout(self):
        layout = untiled_layout(320, 200)
        assert layout.is_untiled
        assert layout.tile_count == 1
        assert layout.tile_rectangles() == [Rectangle(0, 0, 320, 200)]
        assert layout.describe() == "untiled"

    def test_tile_rectangles_cover_frame_without_overlap(self):
        layout = TileLayout(100, 60, (20, 40), (30, 30, 40))
        rectangles = layout.tile_rectangles()
        assert len(rectangles) == 6
        assert sum(r.area for r in rectangles) == 100 * 60
        for i, a in enumerate(rectangles):
            for b in rectangles[i + 1 :]:
                assert not a.intersects(b)

    def test_tile_index_round_trip(self):
        """The index of (row, column) is where the rectangle built from that
        row's height and that column's width sits in ``tile_rectangles()``."""
        layout = TileLayout(100, 60, (20, 40), (30, 30, 40))
        rectangles = layout.tile_rectangles()
        for row in range(layout.rows):
            for column in range(layout.columns):
                x1 = sum(layout.column_widths[:column])
                y1 = sum(layout.row_heights[:row])
                assert rectangles[layout.tile_index(row, column)] == Rectangle(
                    x1, y1, x1 + layout.column_widths[column], y1 + layout.row_heights[row]
                )

    def test_tiles_intersecting(self):
        layout = TileLayout(100, 60, (20, 40), (30, 30, 40))
        assert layout.tiles_intersecting(Rectangle(0, 0, 10, 10)) == [0]
        spanning = layout.tiles_intersecting(Rectangle(25, 15, 65, 45))
        assert spanning == [0, 1, 2, 3, 4, 5]
        assert layout.tiles_intersecting(Rectangle(200, 200, 300, 300)) == []

    def test_pixels_decoded_for(self):
        layout = TileLayout(100, 60, (20, 40), (30, 30, 40))
        model = CostModel(TasmConfig())

        def pixels(boxes):
            return model.estimate_query_cost(layout, {0: boxes}).pixels

        # A box fully inside tile (0, 0) costs that tile's whole area.
        assert pixels([Rectangle(1, 1, 5, 5)]) == 30 * 20
        # Two boxes in the same tile are not double counted.
        assert pixels([Rectangle(1, 1, 5, 5), Rectangle(10, 10, 15, 15)]) == 30 * 20

    def test_describe_uniform_vs_non_uniform(self):
        assert "uniform" in TileLayout(100, 60, (30, 30), (50, 50)).describe()
        assert "non-uniform" in TileLayout(100, 60, (20, 40), (50, 50)).describe()


class TestUniformLayout:
    def test_equal_split(self):
        layout = uniform_layout(120, 90, rows=3, columns=4)
        assert layout.rows == 3
        assert layout.columns == 4
        assert sum(layout.row_heights) == 90
        assert sum(layout.column_widths) == 120

    def test_block_snapping(self):
        layout = uniform_layout(100, 100, rows=3, columns=3, block_size=16)
        # All but the last row/column are multiples of the block size.
        assert all(height % 16 == 0 for height in layout.row_heights[:-1])
        assert all(width % 16 == 0 for width in layout.column_widths[:-1])
        assert sum(layout.row_heights) == 100

    def test_too_many_tiles_rejected(self):
        with pytest.raises(LayoutError):
            uniform_layout(10, 10, rows=20, columns=2)

    def test_invalid_counts(self):
        with pytest.raises(LayoutError):
            uniform_layout(100, 100, rows=0, columns=2)


class TestVideoLayoutSpec:
    def make_spec(self) -> VideoLayoutSpec:
        return VideoLayoutSpec(frame_width=64, frame_height=48, frame_count=23, sot_frames=5)

    def test_sot_count_and_ranges(self):
        spec = self.make_spec()
        assert spec.sot_count == 5
        assert spec.frame_range(0) == (0, 5)
        assert spec.frame_range(4) == (20, 23)

    def test_sot_of_frame(self):
        spec = self.make_spec()
        assert spec.sot_of_frame(0) == 0
        assert spec.sot_of_frame(22) == 4
        with pytest.raises(LayoutError):
            spec.sot_of_frame(23)

    def test_sots_for_frames(self):
        spec = self.make_spec()
        assert spec.sots_for_frames(3, 12) == [0, 1, 2]
        assert spec.sots_for_frames(10, 10) == []
        assert spec.sots_for_frames(-5, 100) == [0, 1, 2, 3, 4]

    def test_default_layout_is_untiled(self):
        spec = self.make_spec()
        assert spec.layout_for(2).is_untiled
        assert spec.tiled_sots() == []

    def test_set_layout(self):
        spec = self.make_spec()
        layout = TileLayout(64, 48, (24, 24), (32, 32))
        spec.set_layout(1, layout)
        assert spec.layout_for(1) == layout
        assert spec.tiled_sots() == [1]

    def test_set_layout_dimension_mismatch(self):
        spec = self.make_spec()
        with pytest.raises(LayoutError):
            spec.set_layout(0, TileLayout(100, 48, (48,), (100,)))

    def test_set_layout_out_of_range(self):
        spec = self.make_spec()
        with pytest.raises(LayoutError):
            spec.set_layout(10, untiled_layout(64, 48))


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@st.composite
def layouts(draw):
    row_heights = draw(st.lists(st.integers(min_value=4, max_value=64), min_size=1, max_size=5))
    column_widths = draw(st.lists(st.integers(min_value=4, max_value=64), min_size=1, max_size=5))
    return TileLayout(sum(column_widths), sum(row_heights), tuple(row_heights), tuple(column_widths))


@given(layouts())
def test_pixel_conservation(layout: TileLayout):
    """Tiles partition the frame exactly: areas sum to the frame area."""
    assert sum(r.area for r in layout.tile_rectangles()) == layout.frame_pixels


@given(layouts(), st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
def test_every_point_belongs_to_exactly_one_tile(layout: TileLayout, x: int, y: int):
    if x >= layout.frame_width or y >= layout.frame_height:
        return
    containing = [
        index
        for index, rectangle in enumerate(layout.tile_rectangles())
        if contains_point(rectangle, x, y)
    ]
    assert len(containing) == 1
    assert containing[0] == tile_containing_point(layout, x, y)
