"""Property tests: the tile-span kernel against the brute-force rectangle scan.

``TileLayout.tile_span`` finds the tiles a box touches with two bisects per
axis; every tile-vs-box question in ``src/`` is answered through it.  The
scan it replaced — clip the box to the frame, test every tile rectangle —
lives on here as the oracle, over random non-uniform layouts and boxes with
float coordinates, edges exactly on tile boundaries, partly or wholly outside
the frame, and zero width or height.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.config import CodecConfig, TasmConfig
from repro.core.cost import CostModel
from repro.geometry import Rectangle
from repro.tiles.layout import TileLayout
from tests.conftest import query_cost

sizes = st.lists(st.integers(1, 40), min_size=1, max_size=12)


@st.composite
def layouts(draw) -> TileLayout:
    rows, columns = draw(sizes), draw(sizes)
    return TileLayout(sum(columns), sum(rows), tuple(rows), tuple(columns))


def _coordinates(edges, extent):
    return st.one_of(
        st.sampled_from(edges),
        st.integers(-10, extent + 10),
        st.floats(-10.0, extent + 10.0, allow_nan=False),
    )


@st.composite
def boxes(draw, layout: TileLayout) -> Rectangle:
    xs = _coordinates(layout.column_edges, layout.frame_width)
    ys = _coordinates(layout.row_edges, layout.frame_height)
    x1, x2 = sorted((draw(xs), draw(xs)))
    y1, y2 = sorted((draw(ys), draw(ys)))
    flat = draw(st.sampled_from(["", "", "", "x", "y", "xy"]))  # zero width / height
    return Rectangle(x1, y1, x1 if "x" in flat else x2, y1 if "y" in flat else y2)


@st.composite
def layout_and_boxes(draw, max_boxes: int = 6):
    layout = draw(layouts())
    return layout, draw(st.lists(boxes(layout), min_size=1, max_size=max_boxes))


def scan_tiles(layout: TileLayout, box: Rectangle) -> list[int]:
    """The oracle: clip to the frame, then test every tile rectangle."""
    clipped = box.clamp(Rectangle(0, 0, layout.frame_width, layout.frame_height))
    if clipped is None:
        return []
    return [
        index
        for index, rectangle in enumerate(layout.tile_rectangles())
        if rectangle.intersects(clipped)
    ]


def scan_query_cost(model: CostModel, layout, frame_boxes, gop_frames):
    """C(s, q, L) computed over the rectangle scan."""
    rectangles = layout.tile_rectangles()
    pixels, opened = 0, set()
    for frame_index, frame_box_list in frame_boxes.items():
        needed = {tile for box in frame_box_list for tile in scan_tiles(layout, box)}
        for tile in needed:
            pixels += int(rectangles[tile].area)
            opened.add((frame_index // gop_frames, tile))
    return pixels, len(opened), model.cost(pixels, len(opened))


@given(layout_and_boxes())
@settings(max_examples=100, deadline=None)
def test_span_and_intersecting_tiles_match_the_scan(drawn):
    layout, drawn_boxes = drawn
    for box in drawn_boxes:
        expected = scan_tiles(layout, box)
        row0, row1, col0, col1 = span = layout.tile_span(box)
        assert [
            layout.tile_index(row, column)
            for row in range(row0, row1)
            for column in range(col0, col1)
        ] == expected
        assert expected or span == (0, 0, 0, 0)
        assert layout.tiles_intersecting(box) == expected
    rectangles = layout.tile_rectangles()
    union = {tile for box in drawn_boxes for tile in scan_tiles(layout, box)}
    estimate = query_cost(CostModel(TasmConfig()), layout, {0: drawn_boxes})
    assert estimate.pixels == sum(rectangles[t].area for t in union)


@given(layout_and_boxes(), st.lists(st.integers(0, 40), min_size=1, max_size=6), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_query_cost_matches_the_scan(drawn, frames, gop_frames):
    layout, drawn_boxes = drawn
    frame_boxes: dict[int, list[Rectangle]] = {}
    for position, box in enumerate(drawn_boxes):
        frame_boxes.setdefault(frames[position % len(frames)], []).append(box)
    model = CostModel(TasmConfig(codec=CodecConfig(gop_frames=gop_frames)))
    estimate = query_cost(model, layout, frame_boxes)
    assert (estimate.pixels, estimate.tiles, estimate.cost) == scan_query_cost(
        model, layout, frame_boxes, gop_frames
    )


@given(layout_and_boxes(max_boxes=2))
@settings(max_examples=30, deadline=None)
def test_memoised_geometry_stays_out_of_identity_and_pickles(drawn):
    used, drawn_boxes = drawn
    fresh = TileLayout(used.frame_width, used.frame_height, used.row_heights, used.column_widths)
    for box in drawn_boxes:
        used.tile_span(box)
    assert used.tile_rectangles() == list(used)
    fields = {"frame_width", "frame_height", "row_heights", "column_widths"}
    assert set(vars(used)) > fields == set(vars(fresh))  # the memo is there ...
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)  # ... and stays here
    shipped = pickle.loads(pickle.dumps(used))
    assert shipped == used and set(vars(shipped)) == fields
    assert shipped.tile_span(drawn_boxes[0]) == used.tile_span(drawn_boxes[0])
    assert shipped.tile_rectangles() == used.tile_rectangles()
