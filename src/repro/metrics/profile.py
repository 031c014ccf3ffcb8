"""Stream disorder profiling: lateness distributions and regional stats.

Section II reads the datasets through global disorder measures and a
visual (Figure 2) inspection of regions; this module provides the
programmatic equivalents an operator of this system needs:

* :func:`lateness_values` / :func:`lateness_quantiles` — how far behind
  the running high watermark each event arrives; the distribution that a
  reorder-latency choice trades off against completeness.
* :func:`suggest_reorder_latency` — the smallest latency that captures a
  target fraction of events (how the paper "tuned the reorder latency
  for each dataset independently, to ensure that the sorting operator
  can tolerate a majority of late events", §VI-B2).
* :func:`disorder_profile` — per-region disorder measures over fixed
  arrival windows, quantifying Figure 2's "well-ordered coarsely /
  chaotic finely" reading region by region.
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.disorder import measure_disorder

__all__ = [
    "lateness_values",
    "lateness_quantiles",
    "suggest_reorder_latency",
    "disorder_profile",
]


def lateness_values(timestamps):
    """Per-event lateness: running high watermark minus event time.

    On-time events (new maxima) have lateness 0.  Array-backed input (a
    numpy array, a ``Dataset.timestamps`` view) is computed vectorized;
    the result is a list of Python ints either way.
    """
    if hasattr(timestamps, "__array__"):
        ts = np.asarray(timestamps)
        return (np.maximum.accumulate(ts) - ts).tolist()
    out = []
    high = None
    for t in timestamps:
        if high is None or t > high:
            high = t
            out.append(0)
        else:
            out.append(high - t)
    return out


def lateness_quantiles(timestamps, quantiles=(0.5, 0.9, 0.99, 1.0)):
    """Selected quantiles of the lateness distribution, as a dict."""
    values = sorted(lateness_values(timestamps))
    if not values:
        return {q: 0 for q in quantiles}
    n = len(values)
    return {
        q: values[min(max(math.ceil(q * n) - 1, 0), n - 1)]
        for q in quantiles
    }


def suggest_reorder_latency(timestamps, coverage=0.95):
    """Smallest reorder latency capturing ``coverage`` of events.

    An event is captured when its lateness is strictly below the latency
    plus one tick, i.e. latency >= lateness; the suggestion is the
    coverage-quantile of lateness (so ``coverage=1.0`` tolerates every
    event in the sample).
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be within (0, 1]")
    return lateness_quantiles(timestamps, (coverage,))[coverage]


def disorder_profile(timestamps, region_size=10_000):
    """Table I measures per fixed-size arrival region.

    Returns a list of dicts (one per region) with the region's offset and
    its :class:`~repro.metrics.disorder.DisorderStats` fields — the
    quantitative version of zooming into Figure 2's Region 1/Region 2.
    """
    if region_size < 2:
        raise ValueError("region_size must be >= 2")
    timestamps = list(timestamps)
    regions = []
    for offset in range(0, len(timestamps), region_size):
        chunk = timestamps[offset:offset + region_size]
        stats = measure_disorder(chunk)
        row = {"offset": offset, **stats.as_dict()}
        row["mean_run_length"] = stats.mean_run_length
        regions.append(row)
    return regions
