"""Tests for repro.geometry."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry import Rectangle, interval_cover, merge_intervals, total_covered_area
from tests.conftest import contains_point, union_bounds


def rect(x1=0, y1=0, x2=10, y2=10) -> Rectangle:
    return Rectangle(x1, y1, x2, y2)


class TestRectangleBasics:
    def test_width_height_area(self):
        r = rect(1, 2, 5, 10)
        assert r.width == 4
        assert r.height == 8
        assert r.area == 32

    def test_negative_extent_rejected(self):
        with pytest.raises(GeometryError):
            Rectangle(5, 0, 1, 10)
        with pytest.raises(GeometryError):
            Rectangle(0, 5, 10, 1)

    @pytest.mark.parametrize("coordinate", ["x1", "y1", "x2", "y2"])
    def test_nan_coordinate_rejected(self, coordinate):
        """``NaN < x`` is False, so a NaN slips past a negative-extent test;
        it is refused all the same, and not described as a negative extent."""
        corners = {"x1": 0.0, "y1": 0.0, "x2": 10.0, "y2": 10.0}
        corners[coordinate] = float("nan")
        with pytest.raises(GeometryError) as refused:
            Rectangle(**corners)
        assert "negative extent" not in str(refused.value)
        assert "NaN" in str(refused.value)

    def test_zero_area_is_empty(self):
        assert Rectangle(3, 3, 3, 8).is_empty
        assert not rect().is_empty

    def test_center(self):
        assert rect(0, 0, 10, 20).center == (5.0, 10.0)

    def test_iteration_order(self):
        assert list(rect(1, 2, 3, 4)) == [1, 2, 3, 4]

    def test_as_int_tuple_truncates(self):
        assert Rectangle(1.7, 2.2, 3.9, 4.5).as_int_tuple() == (1, 2, 3, 4)


class TestRectangleSetOperations:
    def test_disjoint_rectangles_do_not_intersect(self):
        assert not rect(0, 0, 5, 5).intersects(rect(6, 6, 10, 10))
        assert rect(0, 0, 5, 5).intersection(rect(6, 6, 10, 10)) is None

    def test_touching_edges_do_not_intersect(self):
        # Half-open semantics: sharing an edge is not an overlap.
        assert not rect(0, 0, 5, 5).intersects(rect(5, 0, 10, 5))

    def test_intersection_area(self):
        overlap = rect(0, 0, 6, 6).intersection(rect(3, 3, 10, 10))
        assert overlap == Rectangle(3, 3, 6, 6)
        assert rect(0, 0, 6, 6).intersection_area(rect(3, 3, 10, 10)) == 9

    def test_union_bounds(self):
        assert union_bounds(rect(0, 0, 2, 2), rect(5, 5, 7, 9)) == Rectangle(0, 0, 7, 9)

    def test_contains(self):
        assert rect(0, 0, 10, 10).contains(rect(2, 2, 8, 8))
        assert not rect(0, 0, 10, 10).contains(rect(2, 2, 12, 8))

    def test_contains_point_half_open(self):
        r = rect(0, 0, 10, 10)
        assert contains_point(r, 0, 0)
        assert not contains_point(r, 10, 5)

    def test_iou(self):
        a = rect(0, 0, 10, 10)
        b = rect(5, 0, 15, 10)
        assert a.iou(b) == pytest.approx(50 / 150)
        assert a.iou(rect(20, 20, 30, 30)) == 0.0
        assert a.iou(a) == 1.0


class TestRectangleTransforms:
    def test_scale(self):
        assert rect(1, 2, 3, 4).scale(2, 10) == Rectangle(2, 20, 6, 40)

    def test_clamp_inside_bounds(self):
        assert rect(-5, -5, 5, 5).clamp(rect(0, 0, 10, 10)) == Rectangle(0, 0, 5, 5)

    def test_clamp_outside_returns_none(self):
        assert rect(20, 20, 30, 30).clamp(rect(0, 0, 10, 10)) is None

    def test_expand_with_bounds(self):
        grown = rect(4, 4, 6, 6).expand(10, bounds=rect(0, 0, 10, 10))
        assert grown == Rectangle(0, 0, 10, 10)


class TestIntervalHelpers:
    def test_merge_overlapping(self):
        assert merge_intervals([(0, 5), (3, 8), (10, 12)]) == [(0, 8), (10, 12)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(5, 5), (1, 2)]) == [(1, 2)]

    def test_interval_cover(self):
        assert interval_cover([(0, 5), (3, 8), (10, 12)]) == 10

    def test_total_covered_area_no_double_counting(self):
        bounds = rect(0, 0, 100, 100)
        boxes = [rect(0, 0, 10, 10), rect(5, 5, 15, 15)]
        # Union is 100 + 100 - 25 = 175.
        assert total_covered_area(boxes, bounds) == 175

    def test_total_covered_area_clips_to_bounds(self):
        bounds = rect(0, 0, 10, 10)
        assert total_covered_area([rect(5, 5, 50, 50)], bounds) == 25

    def test_total_covered_area_empty(self):
        assert total_covered_area([], rect(0, 0, 10, 10)) == 0.0


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
coordinates = st.integers(min_value=0, max_value=200)


@st.composite
def rectangles(draw):
    x1 = draw(coordinates)
    y1 = draw(coordinates)
    x2 = draw(st.integers(min_value=x1 + 1, max_value=x1 + 100))
    y2 = draw(st.integers(min_value=y1 + 1, max_value=y1 + 100))
    return Rectangle(x1, y1, x2, y2)


@given(rectangles(), rectangles())
def test_intersection_is_contained_in_both(a: Rectangle, b: Rectangle):
    overlap = a.intersection(b)
    if overlap is not None:
        assert a.contains(overlap)
        assert b.contains(overlap)
        assert overlap.area <= min(a.area, b.area)


@given(rectangles(), rectangles())
def test_intersection_is_commutative(a: Rectangle, b: Rectangle):
    assert a.intersection(b) == b.intersection(a)
    assert a.intersection_area(b) == b.intersection_area(a)


@given(rectangles(), rectangles())
def test_union_bounds_contains_both(a: Rectangle, b: Rectangle):
    union = union_bounds(a, b)
    assert union.contains(a)
    assert union.contains(b)


@given(st.lists(rectangles(), max_size=8))
def test_total_covered_area_bounds(boxes: list[Rectangle]):
    bounds = Rectangle(0, 0, 300, 300)
    area = total_covered_area(boxes, bounds)
    assert 0.0 <= area <= bounds.area
    # Union area never exceeds the sum of individual (clipped) areas.
    assert area <= sum(box.area for box in boxes) + 1e-9
