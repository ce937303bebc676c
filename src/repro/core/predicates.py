"""Query predicates (Section 3.1 of the paper).

``Scan(video, L, T)`` takes a CNF predicate ``L`` over labels and an optional
temporal predicate ``T``.  For each disjunctive clause, TASM retrieves the
pixels of boxes carrying *any* of the clause's labels; across clauses
(conjunction), it retrieves the pixels lying in the *intersection* of boxes —
e.g. ``(label = 'car') AND (label = 'red')`` returns pixels that are inside
both a "car" box and a "red" box on the same frame.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..errors import QueryError
from ..geometry import Rectangle

__all__ = ["LabelPredicate", "TemporalPredicate"]


@dataclass(frozen=True)
class LabelPredicate:
    """A CNF predicate over labels: a conjunction of disjunctive clauses.

    ``clauses`` is a tuple of clauses; each clause is a frozenset of labels
    combined with OR, and the clauses are combined with AND.  The common case
    of "give me all cars" is a single one-label clause.
    """

    clauses: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        clauses = tuple(tuple(clause) for clause in self.clauses)
        if not clauses:
            raise QueryError("a label predicate needs at least one clause")
        if any(not clause for clause in clauses):
            raise QueryError("label predicate clauses must not be empty")
        for label in (label for clause in clauses for label in clause):
            if not isinstance(label, str):
                raise QueryError(f"label {label!r} is not a string")
        object.__setattr__(self, "clauses", tuple(frozenset(clause) for clause in clauses))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, label: str) -> "LabelPredicate":
        """Predicate matching one label (``SELECT o FROM v``)."""
        return cls(((label,),))

    @classmethod
    def any_of(cls, labels: Iterable[str]) -> "LabelPredicate":
        """Disjunction: pixels of any of the given labels."""
        return cls((tuple(labels),))

    @classmethod
    def all_of(cls, labels: Iterable[str]) -> "LabelPredicate":
        """Conjunction: pixels lying in a box of every given label."""
        return cls(tuple((label,) for label in labels))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def labels(self) -> frozenset[str]:
        """Every label the predicate references (the query's object set O_q)."""
        result: set[str] = set()
        for clause in self.clauses:
            result.update(clause)
        return frozenset(result)

    @property
    def is_single_label(self) -> bool:
        return len(self.clauses) == 1 and len(self.clauses[0]) == 1

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def regions_for_frame(
        self, boxes_by_label: Mapping[str, Sequence[Rectangle]]
    ) -> list[Rectangle]:
        """The pixel regions the predicate selects on one frame.

        ``boxes_by_label`` maps each label to the bounding boxes on that frame
        (from the semantic index).  The result is the list of rectangles whose
        pixels satisfy the predicate; an empty list means the frame
        contributes nothing.
        """
        per_clause: list[list[Rectangle]] = []
        for clause in self.clauses:
            clause_boxes: list[Rectangle] = []
            for label in sorted(clause):  # equal predicates select in one order
                clause_boxes.extend(boxes_by_label.get(label, ()))
            if not clause_boxes:
                # A conjunction with an unsatisfied clause selects nothing.
                return []
            per_clause.append(clause_boxes)

        regions = per_clause[0]
        for clause_boxes in per_clause[1:]:
            intersections: list[Rectangle] = []
            for existing in regions:
                for box in clause_boxes:
                    overlap = existing.intersection(box)
                    if overlap is not None and not overlap.is_empty:
                        intersections.append(overlap)
            regions = intersections
            if not regions:
                return []
        return regions

    def describe(self) -> str:
        return " AND ".join(
            "(" + " OR ".join(sorted(clause)) + ")" for clause in self.clauses
        )


@dataclass(frozen=True)
class TemporalPredicate:
    """An optional restriction to a frame range ``[start, stop)``.

    ``TemporalPredicate.everything()`` matches every frame; ``at(frame)``
    matches exactly one frame (the paper's ``T = t`` form).
    """

    frame_start: int | None = None
    frame_stop: int | None = None

    def __post_init__(self) -> None:
        for bound in ("frame_start", "frame_stop"):
            value = getattr(self, bound)
            if value is not None:
                try:
                    object.__setattr__(self, bound, operator.index(value))
                except TypeError:
                    raise QueryError(f"{bound} {value!r} is not a frame index") from None
        if (
            self.frame_start is not None
            and self.frame_stop is not None
            and self.frame_stop <= self.frame_start
        ):
            raise QueryError(
                f"temporal predicate range [{self.frame_start}, {self.frame_stop}) is empty"
            )

    @classmethod
    def everything(cls) -> "TemporalPredicate":
        return cls(None, None)

    @classmethod
    def between(cls, frame_start: int, frame_stop: int) -> "TemporalPredicate":
        return cls(frame_start, frame_stop)

    @classmethod
    def at(cls, frame: int) -> "TemporalPredicate":
        return cls(frame, frame + 1)

    @property
    def is_unbounded(self) -> bool:
        return self.frame_start is None and self.frame_stop is None

    def resolve(self, frame_count: int) -> tuple[int, int]:
        """Concrete ``[start, stop)`` bounds for a video of ``frame_count`` frames."""
        start = 0 if self.frame_start is None else max(self.frame_start, 0)
        stop = frame_count if self.frame_stop is None else min(self.frame_stop, frame_count)
        return start, max(stop, start)

    def describe(self) -> str:
        if self.is_unbounded:
            return "all frames"
        return f"frames [{self.frame_start if self.frame_start is not None else 0}, " \
               f"{self.frame_stop if self.frame_stop is not None else 'end'})"
