"""Queries and workloads (Section 4.1 notation).

A :class:`Query` is one ``Scan`` invocation: a video, a label predicate, and
an optional temporal predicate.  A :class:`Workload` ``Q = {q1..qn}`` is an
ordered sequence of queries; ``O_Q`` (the set of all objects targeted by the
workload) is exposed as :attr:`Workload.objects`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import QueryError
from .predicates import LabelPredicate, TemporalPredicate

__all__ = ["Query", "Workload"]


@dataclass(frozen=True)
class Query:
    """One retrieval query over a video."""

    video: str
    predicate: LabelPredicate
    temporal: TemporalPredicate = field(default_factory=TemporalPredicate.everything)

    # ------------------------------------------------------------------
    # Constructors matching the paper's query templates
    # ------------------------------------------------------------------
    @classmethod
    def select(cls, label: str, video: str) -> "Query":
        """``SELECT o FROM v`` — all pixels of one object class."""
        return cls(video=video, predicate=LabelPredicate.single(label))

    @classmethod
    def select_range(
        cls, label: str, video: str, frame_start: int, frame_stop: int
    ) -> "Query":
        """``SELECT o FROM v WHERE start <= t < end``."""
        return cls(
            video=video,
            predicate=LabelPredicate.single(label),
            temporal=TemporalPredicate.between(frame_start, frame_stop),
        )

    @classmethod
    def select_any(cls, labels: Iterable[str], video: str) -> "Query":
        return cls(video=video, predicate=LabelPredicate.any_of(labels))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def objects(self) -> frozenset[str]:
        """The object classes this query targets (O_q in the paper)."""
        return self.predicate.labels

    def describe(self) -> str:
        return f"SELECT {self.predicate.describe()} FROM {self.video} WHERE {self.temporal.describe()}"


@dataclass
class Workload:
    """An ordered sequence of queries plus a human-readable name."""

    name: str
    queries: list[Query] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("a workload needs a name")

    def add(self, query: Query) -> None:
        self.queries.append(query)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __getitem__(self, index: int) -> Query:
        return self.queries[index]

    @property
    def objects(self) -> frozenset[str]:
        """O_Q: the union of object classes over all queries."""
        result: set[str] = set()
        for query in self.queries:
            result.update(query.objects)
        return frozenset(result)

    def for_video(self, video: str) -> "Workload":
        """Sub-workload containing only the queries over one video."""
        return Workload(
            name=f"{self.name}[{video}]",
            queries=[query for query in self.queries if query.video == video],
        )

    @classmethod
    def from_queries(cls, name: str, queries: Sequence[Query]) -> "Workload":
        return cls(name=name, queries=list(queries))
