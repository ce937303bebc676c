"""The fine-grained partitioner keeps the cheapest cuts (Section 3.4.2).

A layout designed around boxes costs what the boxes touch: each box lies in
one tile, and a scan of it decodes that tile.  Per axis, the partitioner
minimises ``sum of (segment length x weight)`` over the subsets of the legal
cuts that keep every segment at least the codec minimum — rows with each box
weighted by its width, then columns with each box weighted by the height of
its row.  Here that choice is checked against every subset, on frames small
enough to enumerate them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from repro.config import CodecConfig
from repro.geometry import Rectangle, merge_intervals
from repro.tiles.partitioner import TileGranularity, partition_around_boxes

CODEC = CodecConfig(
    gop_frames=5, frame_rate=5, block_size=8, min_tile_width=16, min_tile_height=24
)


def snapped_boxes(boxes, frame_width, frame_height, block_size):
    """The boxes as the partitioner sees them: clipped to the frame, edges
    snapped outward to blocks, clipped again."""
    frame = Rectangle(0, 0, frame_width, frame_height)
    snapped = []
    for box in boxes:
        clipped = box.clamp(frame)
        if clipped is not None:
            low = (math.floor(edge / block_size) * block_size for edge in (clipped.x1, clipped.y1))
            high = (math.ceil(edge / block_size) * block_size for edge in (clipped.x2, clipped.y2))
            snapped.append(Rectangle(*low, *high).clamp(frame))
    return snapped


def legal_cuts(spans, extent, granularity=TileGranularity.FINE):
    """Fine: the edges of the spans' merged projection strictly inside the
    axis.  Coarse: only the outer extent of their union."""
    if granularity is TileGranularity.FINE:
        edges = {edge for interval in merge_intervals(spans) for edge in interval}
    else:
        edges = {min(low for low, _ in spans), max(high for _, high in spans)}
    return sorted(edge for edge in edges if 0 < edge < extent)


def objective(cuts, spans, weights, extent):
    """``sum of (length of the segment a span lies in) x its weight``."""
    edges = [0, *cuts, extent]
    total = 0
    for (low, _), weight in zip(spans, weights):
        segment = bisect_right(edges, low) - 1
        total += (edges[segment + 1] - edges[segment]) * weight
    return total


def allowed(cuts, extent, min_size):
    edges = [0, *cuts, extent]
    return not cuts or all(b - a >= min_size for a, b in zip(edges, edges[1:]))


def check_axis_is_cheapest(cuts, spans, weights, extent, min_size, granularity):
    legal = legal_cuts(spans, extent, granularity)
    assert set(cuts) <= set(legal)
    assert allowed(cuts, extent, min_size)
    options = [
        (objective(subset, spans, weights, extent), len(subset))
        for size in range(len(legal) + 1)
        for subset in combinations(legal, size)
        if allowed(subset, extent, min_size)
    ]
    # The cheapest subset, and of the cheapest, one with the fewest cuts.
    assert (objective(cuts, spans, weights, extent), len(cuts)) == min(options)


@st.composite
def small_cases(draw):
    frame_width = draw(st.sampled_from([48, 64, 80, 100]))
    frame_height = draw(st.sampled_from([48, 72, 96, 100]))
    boxes = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        x1 = draw(st.integers(min_value=-8, max_value=frame_width - 1))
        y1 = draw(st.integers(min_value=-8, max_value=frame_height - 1))
        width = draw(st.integers(min_value=1, max_value=frame_width // 2))
        height = draw(st.integers(min_value=1, max_value=frame_height // 2))
        boxes.append(Rectangle(x1, y1, x1 + width, y1 + height))
    return frame_width, frame_height, boxes


@settings(max_examples=150, deadline=None)
@given(small_cases(), st.sampled_from(list(TileGranularity)))
def test_each_axis_keeps_the_cheapest_allowed_cuts(case, granularity):
    frame_width, frame_height, boxes = case
    snapped = snapped_boxes(boxes, frame_width, frame_height, CODEC.block_size)
    assume(snapped)
    row_spans = [(box.y1, box.y2) for box in snapped]
    column_spans = [(box.x1, box.x2) for box in snapped]
    assume(len(legal_cuts(row_spans, frame_height)) <= 8)
    assume(len(legal_cuts(column_spans, frame_width)) <= 8)

    layout = partition_around_boxes(boxes, frame_width, frame_height, granularity, CODEC)
    row_cuts = list(layout.row_edges[1:-1])
    column_cuts = list(layout.column_edges[1:-1])
    check_axis_is_cheapest(
        row_cuts,
        row_spans,
        [box.width for box in snapped],
        frame_height,
        CODEC.min_tile_height,
        granularity,
    )
    row_edges = [0, *row_cuts, frame_height]
    row_heights = []
    for box in snapped:
        row = bisect_right(row_edges, box.y1) - 1
        row_heights.append(row_edges[row + 1] - row_edges[row])
    check_axis_is_cheapest(
        column_cuts, column_spans, row_heights, frame_width, CODEC.min_tile_width, granularity
    )


def test_the_road_scene_rows_keep_the_cut_below_the_cars():
    """A 288-px axis with legal cuts at 16, 64 and 112 and 64-px minimum
    tiles: keeping 64 forbids 112 and leaves the lower, wider box in a
    224-px row; keeping 112 alone puts it in a 176-px row, which touches
    fewer pixels."""
    codec = CodecConfig()
    assert (codec.block_size, codec.min_tile_height) == (16, 64)
    boxes = [Rectangle(32, 16, 96, 64), Rectangle(160, 112, 288, 288)]
    layout = partition_around_boxes(boxes, 320, 288, TileGranularity.FINE, codec)
    assert layout.row_heights == (112, 176)
