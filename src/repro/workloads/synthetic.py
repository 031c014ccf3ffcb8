"""The paper's synthetic out-of-order generator (Section VI-A).

    "It starts with a sorted dataset with increasing timestamps, and makes
    p% of events delayed by moving their timestamps backward, based on the
    absolute value of a sample from a normal distribution with mean 0 and
    standard deviation d."

Figures 7(b)/(c) sweep ``d`` over {1024, 256, 64, 16, 4} and ``p`` over
{100, 30, 10, 3, 1}%; Figure 8(a) uses (p=30%, d=64).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Dataset

__all__ = ["generate_synthetic"]


def generate_synthetic(n, percent_disorder=30.0, amount_disorder=64.0,
                       seed=0, spacing=1, n_keys=100) -> Dataset:
    """Build the paper's synthetic workload.

    Parameters
    ----------
    n:
        Number of events.
    percent_disorder:
        ``p`` — percentage (0..100) of events moved backward in time.
    amount_disorder:
        ``d`` — standard deviation of the normal delay distribution.
    seed:
        RNG seed; the stream is fully deterministic given the parameters.
    spacing:
        Event-time gap between consecutive in-order events.
    n_keys:
        Cardinality of the grouping-key column (Q2/Q3 group counts).
    """
    if not 0.0 <= percent_disorder <= 100.0:
        raise ValueError("percent_disorder must be within [0, 100]")
    if amount_disorder < 0:
        raise ValueError("amount_disorder must be non-negative")
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * spacing
    delayed = rng.random(n) < (percent_disorder / 100.0)
    shifts = np.abs(rng.normal(0.0, amount_disorder, size=n)).astype(np.int64)
    times = np.where(delayed, np.maximum(times - shifts, 0), times)
    keys = rng.integers(0, n_keys, size=n, dtype=np.int64)
    payload_cols = rng.integers(0, 2**31 - 1, size=(n, 4), dtype=np.int64)
    return Dataset(
        name="synthetic",
        timestamps=times,
        payloads=payload_cols,
        keys=keys,
        params={
            "n": n,
            "percent_disorder": percent_disorder,
            "amount_disorder": amount_disorder,
            "seed": seed,
            "spacing": spacing,
        },
    )
