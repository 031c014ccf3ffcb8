"""Disorder measurement (Section II of the paper)."""

from repro.metrics.profile import (
    disorder_profile,
    lateness_quantiles,
    lateness_values,
    suggest_reorder_latency,
)
from repro.metrics.disorder import (
    DisorderStats,
    count_interleaved_runs,
    count_inversions,
    count_inversions_mergesort,
    count_natural_runs,
    max_inversion_distance,
    measure_disorder,
)

__all__ = [
    "DisorderStats",
    "count_interleaved_runs",
    "disorder_profile",
    "lateness_quantiles",
    "lateness_values",
    "suggest_reorder_latency",
    "count_inversions",
    "count_inversions_mergesort",
    "count_natural_runs",
    "max_inversion_distance",
    "measure_disorder",
]
