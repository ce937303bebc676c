"""Property-based tests for the tile partitioner (Section 3.4.2).

For arbitrary box sets the partitioner must emit layouts that (a) tile the
frame exactly — every pixel covered once, no gaps, no overlaps; (b) never cut
through a box, so no object is split across tiles; and (c) respect the
codec's structural constraints — interior cuts land on block boundaries and
no row or column is thinner than the codec minimum.  Hypothesis drives these
invariants across randomly generated frames, boxes, and granularities.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CodecConfig
from repro.geometry import Rectangle
from repro.tiles.layout import TileLayout
from repro.tiles.partitioner import TileGranularity, partition_around_boxes

CODEC = CodecConfig(
    gop_frames=5,
    frame_rate=5,
    block_size=8,
    min_tile_width=16,
    min_tile_height=16,
)

#: A spread of frame extents: block multiples, non-multiples, and odd sizes.
_EXTENTS = st.sampled_from([64, 96, 100, 128, 150, 160, 200])


@st.composite
def _boxes(draw, frame_width: int, frame_height: int) -> list[Rectangle]:
    """Boxes with float coordinates, possibly degenerate or partly off-frame."""
    count = draw(st.integers(min_value=0, max_value=8))
    boxes = []
    for _ in range(count):
        x1 = draw(st.floats(min_value=-20.0, max_value=frame_width - 1.0))
        y1 = draw(st.floats(min_value=-20.0, max_value=frame_height - 1.0))
        width = draw(st.floats(min_value=1.0, max_value=frame_width * 0.8))
        height = draw(st.floats(min_value=1.0, max_value=frame_height * 0.8))
        boxes.append(Rectangle(x1, y1, x1 + width, y1 + height))
    return boxes


@st.composite
def _cases(draw):
    frame_width = draw(_EXTENTS)
    frame_height = draw(_EXTENTS)
    boxes = draw(_boxes(frame_width, frame_height))
    granularity = draw(st.sampled_from([TileGranularity.FINE, TileGranularity.COARSE]))
    return frame_width, frame_height, boxes, granularity


def _clipped_boxes(
    boxes: list[Rectangle], frame_width: int, frame_height: int
) -> list[Rectangle]:
    frame = Rectangle(0, 0, frame_width, frame_height)
    clipped = [box.clamp(frame) for box in boxes]
    return [box for box in clipped if box is not None and not box.is_empty]


def _assert_exact_tiling(layout: TileLayout) -> None:
    """Every frame pixel is covered by exactly one tile."""
    coverage = np.zeros((layout.frame_height, layout.frame_width), dtype=np.int32)
    for rectangle in layout.tile_rectangles():
        x1, y1, x2, y2 = rectangle.as_int_tuple()
        coverage[y1:y2, x1:x2] += 1
    assert coverage.min() == 1 and coverage.max() == 1, (
        f"layout {layout.describe()} does not tile the frame exactly: "
        f"coverage range [{coverage.min()}, {coverage.max()}]"
    )


@settings(max_examples=80, deadline=None)
@given(_cases())
def test_layout_tiles_frame_exactly(case):
    frame_width, frame_height, boxes, granularity = case
    layout = partition_around_boxes(
        boxes, frame_width, frame_height, granularity=granularity, codec=CODEC
    )
    assert layout.frame_width == frame_width
    assert layout.frame_height == frame_height
    assert sum(layout.row_heights) == frame_height
    assert sum(layout.column_widths) == frame_width
    _assert_exact_tiling(layout)


@settings(max_examples=80, deadline=None)
@given(_cases())
def test_cuts_never_cross_a_box(case):
    """No interior cut passes strictly through any (clipped) input box."""
    frame_width, frame_height, boxes, granularity = case
    layout = partition_around_boxes(
        boxes, frame_width, frame_height, granularity=granularity, codec=CODEC
    )
    column_cuts = layout.column_edges[1:-1]
    row_cuts = layout.row_edges[1:-1]
    for box in _clipped_boxes(boxes, frame_width, frame_height):
        for cut in column_cuts:
            assert not box.x1 < cut < box.x2, (
                f"column cut {cut} crosses box {box} under {granularity}"
            )
        for cut in row_cuts:
            assert not box.y1 < cut < box.y2, (
                f"row cut {cut} crosses box {box} under {granularity}"
            )


@settings(max_examples=80, deadline=None)
@given(_cases())
def test_layout_respects_codec_constraints(case):
    """Interior cuts are block-aligned; tiled axes keep the codec minimums."""
    frame_width, frame_height, boxes, granularity = case
    layout = partition_around_boxes(
        boxes, frame_width, frame_height, granularity=granularity, codec=CODEC
    )
    for cut in layout.column_edges[1:-1]:
        assert cut % CODEC.block_size == 0, f"column cut {cut} is not block-aligned"
    for cut in layout.row_edges[1:-1]:
        assert cut % CODEC.block_size == 0, f"row cut {cut} is not block-aligned"
    if layout.columns > 1:
        assert min(layout.column_widths) >= CODEC.min_tile_width
    if layout.rows > 1:
        assert min(layout.row_heights) >= CODEC.min_tile_height


@settings(max_examples=40, deadline=None)
@given(_EXTENTS, _EXTENTS)
def test_no_boxes_yields_untiled_layout(frame_width, frame_height):
    layout = partition_around_boxes([], frame_width, frame_height, codec=CODEC)
    assert layout.is_untiled
    assert layout.tile_rectangles() == [Rectangle(0, 0, frame_width, frame_height)]


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_coarse_never_finer_than_fine(case):
    """Coarse layouts use at most as many cuts per axis as fine layouts."""
    frame_width, frame_height, boxes, _ = case
    fine = partition_around_boxes(
        boxes, frame_width, frame_height, granularity=TileGranularity.FINE, codec=CODEC
    )
    coarse = partition_around_boxes(
        boxes, frame_width, frame_height, granularity=TileGranularity.COARSE, codec=CODEC
    )
    assert coarse.rows <= fine.rows
    assert coarse.columns <= fine.columns
