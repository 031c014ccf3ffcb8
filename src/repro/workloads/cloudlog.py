"""Simulated CloudLog workload.

The paper's CloudLog dataset — a proprietary log of a large Microsoft cloud
application — is unavailable, so this module simulates its generating
process as Section II describes it: many distributed application servers
emit events in order and send them immediately to a central collector;
per-server network jitter scrambles arrivals at a fine granularity, and
occasional server failures hold a server's events back and flush them in a
burst, far out of position.

Calibration targets (Table I, qualitatively): natural runs averaging ≈2.7
events; interleaved runs on the order of the server count (a few hundred);
a maximum inversion distance that is a large fraction of the stream ("the
most delayed events need to be moved over 13.6 million events" of 20M) —
i.e. *well-ordered at a coarse granularity, chaotic at a fine granularity*.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Dataset

__all__ = ["cloudlog_arrays", "generate_cloudlog"]


def cloudlog_arrays(n, n_servers=387, jitter_ms=4.0,
                    delay_spread_ms=4000.0, n_bursts=3,
                    burst_fraction=0.55, seed=0, n_keys=100):
    """The CloudLog arrival simulation as raw numpy arrays.

    Returns ``(timestamps, keys, rng)`` — int64 event times in arrival
    order, the parallel grouping-key column, and the generator's RNG
    positioned exactly where :func:`generate_cloudlog` draws payloads.
    Sorter-only benchmarks use this directly: they need no payload
    columns, so they skip the ``(n, 4)`` payload draw and the
    :class:`Dataset` around it (which stores these same arrays).
    """
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    rng = np.random.default_rng(seed)
    event_time = np.arange(n, dtype=np.int64)  # one event per ms, globally
    server = rng.integers(0, n_servers, size=n)
    base_delay = rng.uniform(0.0, delay_spread_ms, size=n_servers)
    jitter = np.abs(rng.normal(0.0, jitter_ms, size=n))
    arrival = event_time + base_delay[server] + jitter

    # Failure bursts: a server goes dark for a window; everything it would
    # have sent during the window arrives right after recovery.
    fraction = burst_fraction
    for _ in range(n_bursts):
        victim = rng.integers(0, n_servers)
        length = max(int(n * fraction), 1)
        start = int(rng.integers(0, max(n - length, 1)))
        end = start + length
        held = (server == victim) & (event_time >= start) & (event_time < end)
        arrival[held] = end + rng.uniform(0.0, jitter_ms, size=int(held.sum()))
        fraction /= 3.0

    order = np.argsort(arrival, kind="stable")
    times = event_time[order]
    keys = rng.integers(0, n_keys, size=n, dtype=np.int64)[order]
    return times, keys, rng


def generate_cloudlog(n, n_servers=387, jitter_ms=4.0, delay_spread_ms=4000.0,
                      n_bursts=3, burst_fraction=0.55, seed=0,
                      n_keys=100) -> Dataset:
    """Simulate the CloudLog collector stream.

    Parameters
    ----------
    n:
        Number of events; event times tick one per millisecond.
    n_servers:
        Distributed application servers (the paper's dataset shows 387
        interleaved runs, so the default mirrors that scale).
    jitter_ms:
        Std-dev of per-event network jitter; a few milliseconds against a
        1 kHz aggregate event rate yields the tiny natural runs of Table I.
    delay_spread_ms:
        Range of persistent per-server base latency.  Servers at distinct
        base latencies form mutually offset lanes in the collector stream,
        which is what drives the Interleaved measure toward the server
        count (387 in the original dataset).
    n_bursts:
        Number of failure episodes.  Each picks one server and an outage
        window; the server's events within the window all arrive together
        when it recovers.
    burst_fraction:
        Length of the *largest* outage as a fraction of the stream; later
        bursts are geometrically shorter.  Controls the Distance measure.
    seed:
        RNG seed.
    n_keys:
        Cardinality of the grouping-key column.
    """
    times, keys, rng = cloudlog_arrays(
        n, n_servers=n_servers, jitter_ms=jitter_ms,
        delay_spread_ms=delay_spread_ms, n_bursts=n_bursts,
        burst_fraction=burst_fraction, seed=seed, n_keys=n_keys,
    )
    payload_cols = rng.integers(0, 2**31 - 1, size=(n, 4), dtype=np.int64)
    return Dataset(
        name="cloudlog",
        timestamps=times,
        payloads=payload_cols,
        keys=keys,
        params={
            "n": n,
            "n_servers": n_servers,
            "jitter_ms": jitter_ms,
            "n_bursts": n_bursts,
            "burst_fraction": burst_fraction,
            "seed": seed,
        },
    )
