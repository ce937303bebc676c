"""Reporting helpers shared by the benchmark harness and the examples."""

from .stats import (
    improvement_percent,
    median,
    quartiles,
    summarize_improvements,
    format_table,
)
from .experiments import (
    LayoutMeasurement,
    prepare_tasm,
    apply_uniform_layout,
    apply_object_layout,
    measure_query,
    measure_psnr,
    improvement_over_untiled,
    modelled_improvement,
)

__all__ = [
    "improvement_percent",
    "median",
    "quartiles",
    "summarize_improvements",
    "format_table",
    "LayoutMeasurement",
    "prepare_tasm",
    "apply_uniform_layout",
    "apply_object_layout",
    "measure_query",
    "measure_psnr",
    "improvement_over_untiled",
    "modelled_improvement",
]
