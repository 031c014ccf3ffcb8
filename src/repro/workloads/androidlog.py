"""Simulated AndroidLog workload.

The paper's AndroidLog dataset comes from the Device Analyzer project
(University of Cambridge) and is not redistributable, so this module
simulates its generating process as Section II describes it: an app on each
phone records activities in order and uploads the accumulated batch when
the phone is attached to a charger, hours (or days) later.

Calibration targets (Table I, qualitatively): few natural runs (each upload
batch is one long in-order run — the 20M-event original has only 5,560),
interleaved runs bounded by the phone count (≈227), and inversions orders
of magnitude above CloudLog because entire batches arrive hours late —
i.e. *well-ordered at a fine granularity, chaotic at a coarse granularity*.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Dataset

__all__ = ["generate_androidlog"]


def generate_androidlog(n, n_phones=227, uploads_per_phone=16,
                        rare_uploader_fraction=0.25, rare_uploads=1,
                        seed=0, n_keys=100) -> Dataset:
    """Simulate the AndroidLog server-side stream.

    Parameters
    ----------
    n:
        Number of events; the simulated horizon is ``n`` milliseconds so the
        aggregate rate matches CloudLog's for comparable sweeps.
    n_phones:
        Participating phones (default mirrors the original's 227
        interleaved runs).
    uploads_per_phone:
        Charge-and-upload episodes per ordinary phone over the horizon;
        the total number of batches approximates the natural-run count.
    rare_uploader_fraction:
        Fraction of phones that charge only ``rare_uploads`` times over the
        whole horizon.  Their batches arrive a large fraction of the stream
        late, producing the days-late spikes of Figure 2(c) and driving the
        Inversions measure orders of magnitude above CloudLog's.
    seed:
        RNG seed.
    n_keys:
        Cardinality of the grouping-key column.
    """
    if n_phones < 1:
        raise ValueError("n_phones must be >= 1")
    if uploads_per_phone < 1 or rare_uploads < 1:
        raise ValueError("upload counts must be >= 1")
    if not 0.0 <= rare_uploader_fraction <= 1.0:
        raise ValueError("rare_uploader_fraction must be within [0, 1]")
    rng = np.random.default_rng(seed)
    horizon = n  # ms
    phone = rng.integers(0, n_phones, size=n)
    event_time = np.sort(rng.integers(0, horizon, size=n)).astype(np.int64)

    # Per-phone upload schedule: jittered periodic charging sessions, with a
    # heavy tail of phones that almost never charge.
    uploads = np.full(n_phones, uploads_per_phone, dtype=np.float64)
    rare = rng.random(n_phones) < rare_uploader_fraction
    uploads[rare] = rare_uploads
    period = horizon / uploads
    phase = rng.uniform(0.0, 1.0, size=n_phones) * period
    per_event_period = period[phone]
    session = np.floor(
        (event_time - phase[phone]) / per_event_period
    ).astype(np.int64) + 1
    upload_time = phase[phone] + session * per_event_period

    # Arrival order: by upload instant; within one phone's batch the upload
    # time is identical, so the index tiebreaker keeps events in recorded
    # (event-time) order — each batch is one long natural run.
    order = np.lexsort((np.arange(n), phone, upload_time))
    times = event_time[order]
    keys = rng.integers(0, n_keys, size=n, dtype=np.int64)[order]
    payload_cols = rng.integers(0, 2**31 - 1, size=(n, 4), dtype=np.int64)
    return Dataset(
        name="androidlog",
        timestamps=times,
        payloads=payload_cols,
        keys=keys,
        params={
            "n": n,
            "n_phones": n_phones,
            "uploads_per_phone": uploads_per_phone,
            "seed": seed,
        },
    )
