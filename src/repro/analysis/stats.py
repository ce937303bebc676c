"""Small statistics and table-formatting helpers for the experiment harness.

The paper reports medians and interquartile ranges of *percentage
improvement* in query time; these helpers centralise those calculations so
every benchmark reports them the same way.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "improvement_percent",
    "median",
    "quartiles",
    "summarize_improvements",
    "format_table",
]


def improvement_percent(baseline: float, measured: float) -> float:
    """Percentage improvement of ``measured`` over ``baseline``.

    Positive values mean ``measured`` is faster/cheaper than ``baseline``
    (e.g. 51.0 means a 51% reduction), matching how the paper reports
    "improvement in query time".
    """
    if baseline <= 0:
        return 0.0
    return (baseline - measured) / baseline * 100.0


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sequence is undefined")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(25th percentile, median, 75th percentile)."""
    if not values:
        raise ValueError("quartiles of an empty sequence are undefined")
    data = np.asarray(values, dtype=np.float64)
    q25, q50, q75 = np.percentile(data, [25.0, 50.0, 75.0])
    return float(q25), float(q50), float(q75)


def summarize_improvements(values: Sequence[float]) -> dict[str, float]:
    """Median / quartile / mean summary of a set of improvement percentages."""
    q25, q50, q75 = quartiles(values)
    return {
        "count": float(len(values)),
        "mean": float(np.mean(np.asarray(values, dtype=np.float64))),
        "q25": q25,
        "median": q50,
        "q75": q75,
        "iqr": q75 - q25,
        "min": float(np.min(np.asarray(values, dtype=np.float64))),
        "max": float(np.max(np.asarray(values, dtype=np.float64))),
    }


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render a list of dict rows as a fixed-width text table.

    Benchmarks print these tables so their output can be compared side by
    side with the paper's tables and figure captions.
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    formatted_rows = [
        {column: _format_cell(row.get(column, "")) for column in columns} for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in formatted_rows))
        for column in columns
    }
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    body = [
        " | ".join(row[column].ljust(widths[column]) for column in columns)
        for row in formatted_rows
    ]
    return "\n".join([header, separator, *body])


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
