"""Tests for non-uniform layout generation (repro.tiles.partitioner)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CodecConfig, TasmConfig
from repro.core.cost import CostModel
from repro.errors import LayoutError
from repro.geometry import Rectangle
from repro.tiles.partitioner import TileGranularity, partition_around_boxes
from tests.conftest import query_cost, union_bounds

CODEC = CodecConfig(block_size=8, min_tile_width=16, min_tile_height=16, gop_frames=5, frame_rate=5)
FRAME_W, FRAME_H = 160, 128


def partition(boxes, granularity=TileGranularity.FINE):
    return partition_around_boxes(boxes, FRAME_W, FRAME_H, granularity, CODEC)


def frame_pixels(layout, boxes):
    """P of decoding ``boxes`` on one frame under ``layout`` (the cost model's)."""
    return query_cost(CostModel(TasmConfig(codec=CODEC)), layout, {0: boxes}).pixels


class TestBasicBehaviour:
    def test_no_boxes_gives_untiled(self):
        assert partition([]).is_untiled

    def test_boxes_outside_frame_ignored(self):
        layout = partition([Rectangle(500, 500, 600, 600)])
        assert layout.is_untiled

    def test_single_box_is_isolated(self):
        box = Rectangle(40, 40, 72, 64)
        layout = partition([box])
        assert not layout.is_untiled
        # Exactly one tile should contain the whole box.
        containing = [r for r in layout.tile_rectangles() if r.contains(box)]
        assert len(containing) == 1

    def test_invalid_frame_dimensions(self):
        with pytest.raises(LayoutError):
            partition_around_boxes([Rectangle(0, 0, 5, 5)], 0, 100, TileGranularity.FINE, CODEC)

    def test_frame_filling_box_gives_untiled(self):
        layout = partition([Rectangle(0, 0, FRAME_W, FRAME_H)])
        assert layout.is_untiled


class TestBoundaryAvoidance:
    def test_no_cut_crosses_a_box(self):
        boxes = [Rectangle(10, 10, 40, 30), Rectangle(90, 70, 130, 110), Rectangle(50, 90, 70, 120)]
        for granularity in TileGranularity:
            layout = partition(boxes, granularity)
            for cut in layout.column_edges[1:-1]:
                assert not any(box.x1 < cut < box.x2 for box in boxes)
            for cut in layout.row_edges[1:-1]:
                assert not any(box.y1 < cut < box.y2 for box in boxes)

    def test_minimum_tile_dimensions_respected(self):
        boxes = [Rectangle(4, 4, 20, 20), Rectangle(30, 30, 48, 44)]
        for granularity in TileGranularity:
            layout = partition(boxes, granularity)
            assert all(height >= CODEC.min_tile_height for height in layout.row_heights)
            assert all(width >= CODEC.min_tile_width for width in layout.column_widths)

    def test_cuts_are_block_aligned(self):
        boxes = [Rectangle(33, 21, 57, 49)]
        layout = partition(boxes)
        assert all(offset % CODEC.block_size == 0 for offset in layout.column_edges[:-1])
        assert all(offset % CODEC.block_size == 0 for offset in layout.row_edges[:-1])


class TestGranularity:
    def test_fine_has_at_least_as_many_tiles_as_coarse(self):
        boxes = [
            Rectangle(8, 8, 32, 24),
            Rectangle(64, 16, 96, 40),
            Rectangle(112, 88, 144, 112),
        ]
        fine = partition(boxes, TileGranularity.FINE)
        coarse = partition(boxes, TileGranularity.COARSE)
        assert fine.tile_count >= coarse.tile_count

    def test_coarse_keeps_all_boxes_in_one_tile(self):
        boxes = [Rectangle(40, 40, 56, 56), Rectangle(72, 64, 96, 88)]
        coarse = partition(boxes, TileGranularity.COARSE)
        bounding = union_bounds(boxes[0], boxes[1])
        containing = [r for r in coarse.tile_rectangles() if r.contains(bounding)]
        assert len(containing) == 1

    def test_fine_layout_decodes_fewer_pixels_for_separated_objects(self):
        boxes = [Rectangle(8, 8, 32, 24), Rectangle(120, 96, 152, 120)]
        fine = partition(boxes, TileGranularity.FINE)
        coarse = partition(boxes, TileGranularity.COARSE)
        assert frame_pixels(fine, boxes) <= frame_pixels(coarse, boxes)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@st.composite
def box_lists(draw):
    count = draw(st.integers(min_value=0, max_value=6))
    boxes = []
    for _ in range(count):
        x1 = draw(st.integers(min_value=0, max_value=FRAME_W - 9))
        y1 = draw(st.integers(min_value=0, max_value=FRAME_H - 9))
        x2 = draw(st.integers(min_value=x1 + 8, max_value=min(x1 + 80, FRAME_W)))
        y2 = draw(st.integers(min_value=y1 + 8, max_value=min(y1 + 80, FRAME_H)))
        boxes.append(Rectangle(x1, y1, x2, y2))
    return boxes


@settings(max_examples=60, deadline=None)
@given(box_lists(), st.sampled_from(list(TileGranularity)))
def test_partition_invariants(boxes, granularity):
    layout = partition_around_boxes(boxes, FRAME_W, FRAME_H, granularity, CODEC)
    # 1. The layout is a valid partition of the frame.
    assert sum(r.area for r in layout.tile_rectangles()) == FRAME_W * FRAME_H
    # 2. Minimum tile dimensions are honoured.
    assert all(height >= CODEC.min_tile_height for height in layout.row_heights)
    assert all(width >= CODEC.min_tile_width for width in layout.column_widths)
    # 3. No interior boundary crosses any box.
    for cut in layout.column_edges[1:-1]:
        assert not any(box.x1 < cut < box.x2 for box in boxes)
    for cut in layout.row_edges[1:-1]:
        assert not any(box.y1 < cut < box.y2 for box in boxes)
    # 4. Tiling never makes a single query decode more pixels than the frame.
    assert frame_pixels(layout, boxes) <= FRAME_W * FRAME_H
