"""A clock-free budget for the partitioner.

``adaptive_retile`` partitions on most ops, so what ``partition_around_boxes``
builds per input box is paid per op.  Clipping and snapping run on plain int
tuples, so no :class:`~repro.geometry.Rectangle` is built per box: the count
of ``Rectangle.__init__`` calls is the same for N boxes as for 2N.
"""

from __future__ import annotations

import random

import pytest

from repro.config import CodecConfig
from repro.geometry import Rectangle
from repro.tiles.partitioner import TileGranularity, partition_around_boxes

FRAME_W, FRAME_H = 640, 360


def road_boxes(count: int, seed: int = 5) -> list[Rectangle]:
    """Car-sized boxes, some poking out of the frame."""
    rng = random.Random(seed)
    boxes = []
    for _ in range(count):
        x1, y1 = rng.uniform(-20, FRAME_W - 10), rng.uniform(100, FRAME_H - 10)
        boxes.append(Rectangle(x1, y1, x1 + rng.uniform(20, 90), y1 + rng.uniform(15, 60)))
    return boxes


def rectangles_built(monkeypatch, boxes, granularity) -> int:
    built = 0
    original = Rectangle.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Rectangle, "__init__", counted)
        partition_around_boxes(boxes, FRAME_W, FRAME_H, granularity, CodecConfig())
    return built


@pytest.mark.parametrize("granularity", list(TileGranularity))
def test_no_rectangle_is_built_per_box(monkeypatch, granularity):
    boxes = road_boxes(160)
    few = rectangles_built(monkeypatch, boxes[:80], granularity)
    many = rectangles_built(monkeypatch, boxes, granularity)
    assert few == many == 0
