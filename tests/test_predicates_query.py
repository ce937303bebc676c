"""Tests for label/temporal predicates and queries."""

from __future__ import annotations

import pytest

from repro.core.predicates import LabelPredicate, TemporalPredicate
from repro.core.query import Query, Workload
from repro.errors import QueryError
from repro.geometry import Rectangle


class TestLabelPredicate:
    def test_single_label(self):
        predicate = LabelPredicate.single("car")
        assert predicate.labels == {"car"}
        assert predicate.is_single_label
        assert predicate.describe() == "(car)"

    def test_any_of(self):
        predicate = LabelPredicate.any_of(["car", "bicycle"])
        assert predicate.labels == {"car", "bicycle"}
        assert not predicate.is_single_label

    def test_all_of(self):
        predicate = LabelPredicate.all_of(["car", "red"])
        assert len(predicate.clauses) == 2
        assert predicate.labels == {"car", "red"}

    def test_empty_clauses_rejected(self):
        with pytest.raises(QueryError):
            LabelPredicate(())
        with pytest.raises(QueryError):
            LabelPredicate((frozenset(),))

    def test_disjunction_returns_union_of_boxes(self):
        predicate = LabelPredicate.any_of(["car", "bicycle"])
        regions = predicate.regions_for_frame(
            {
                "car": [Rectangle(0, 0, 10, 10)],
                "bicycle": [Rectangle(20, 20, 30, 30)],
            }
        )
        assert len(regions) == 2

    def test_conjunction_returns_intersections(self):
        predicate = LabelPredicate.all_of(["car", "red"])
        regions = predicate.regions_for_frame(
            {
                "car": [Rectangle(0, 0, 10, 10)],
                "red": [Rectangle(5, 5, 20, 20)],
            }
        )
        assert regions == [Rectangle(5, 5, 10, 10)]

    def test_conjunction_with_missing_label_is_empty(self):
        predicate = LabelPredicate.all_of(["car", "red"])
        assert predicate.regions_for_frame({"car": [Rectangle(0, 0, 10, 10)]}) == []

    def test_conjunction_without_overlap_is_empty(self):
        predicate = LabelPredicate.all_of(["car", "red"])
        regions = predicate.regions_for_frame(
            {
                "car": [Rectangle(0, 0, 10, 10)],
                "red": [Rectangle(50, 50, 60, 60)],
            }
        )
        assert regions == []

    def test_cnf_combination(self):
        # (car OR bicycle) AND (red): only the car overlaps the red box.
        predicate = LabelPredicate(
            (frozenset({"car", "bicycle"}), frozenset({"red"}))
        )
        regions = predicate.regions_for_frame(
            {
                "car": [Rectangle(0, 0, 10, 10)],
                "bicycle": [Rectangle(30, 30, 40, 40)],
                "red": [Rectangle(5, 0, 25, 10)],
            }
        )
        assert regions == [Rectangle(5, 0, 10, 10)]


class TestTemporalPredicate:
    def test_everything(self):
        predicate = TemporalPredicate.everything()
        assert predicate.is_unbounded
        assert predicate.resolve(100) == (0, 100)
        assert 50 in range(*predicate.resolve(100))

    def test_between(self):
        predicate = TemporalPredicate.between(10, 20)
        assert predicate.resolve(100) == (10, 20)
        assert 10 in range(*predicate.resolve(100))
        assert 20 not in range(*predicate.resolve(100))
        assert "frames [10, 20)" == predicate.describe()

    def test_at_single_frame(self):
        predicate = TemporalPredicate.at(7)
        assert predicate.resolve(100) == (7, 8)

    def test_empty_range_rejected(self):
        with pytest.raises(QueryError):
            TemporalPredicate.between(10, 10)

    def test_resolve_clamps_to_video(self):
        predicate = TemporalPredicate.between(50, 500)
        assert predicate.resolve(100) == (50, 100)


class TestQuery:
    def test_select(self):
        query = Query.select("car", "traffic")
        assert query.objects == {"car"}
        assert query.video == "traffic"
        assert query.temporal.is_unbounded
        assert "SELECT (car) FROM traffic" in query.describe()

    def test_select_range(self):
        query = Query.select_range("person", "traffic", 5, 25)
        assert query.temporal.resolve(100) == (5, 25)

    def test_select_any(self):
        query = Query.select_any(["car", "bicycle"], "traffic")
        assert query.objects == {"car", "bicycle"}


class TestWorkload:
    def test_objects_union(self):
        workload = Workload.from_queries(
            "w",
            [Query.select("car", "a"), Query.select("person", "a"), Query.select("car", "b")],
        )
        assert workload.objects == {"car", "person"}
        assert len(workload) == 3

    def test_for_video_filters(self):
        workload = Workload.from_queries(
            "w", [Query.select("car", "a"), Query.select("car", "b")]
        )
        only_a = workload.for_video("a")
        assert len(only_a) == 1
        assert only_a[0].video == "a"

    def test_requires_name(self):
        with pytest.raises(QueryError):
            Workload(name="")

    def test_add_and_iterate(self):
        workload = Workload(name="w")
        workload.add(Query.select("car", "a"))
        assert [query.video for query in workload] == ["a"]
