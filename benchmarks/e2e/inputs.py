"""Seeded inputs: datasets, reorder latency, punctuation schedules.

The program under test sees only what these functions return.  Set-up
calls the generators that ``repro.workloads.load_dataset`` dispatches
to rather than ``load_dataset`` itself, because that function memoizes:
a second set-up in the same process would cost nothing and ``setup_s``
would stop measuring generation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import iter_batches
from repro.engine.event import Punctuation
from repro.metrics.profile import suggest_reorder_latency
from repro.workloads import generate_androidlog, generate_cloudlog

from benchmarks.e2e.spec import BATCH, COVERAGE

GENERATORS = {
    "cloudlog": generate_cloudlog,
    "androidlog": generate_androidlog,
}


def timed(parts, key, call):
    """Run ``call()``, add its wall time to ``parts[key]``."""
    t0 = time.perf_counter()
    result = call()
    parts[key] = parts.get(key, 0.0) + time.perf_counter() - t0
    return result


def generate(name, n, seed, parts):
    """The seeded dataset, its generation charged to ``<name>_gen_s``."""
    return timed(
        parts, f"{name}_gen_s", lambda: GENERATORS[name](n, seed=seed)
    )


def profile(timestamps, every, parts):
    """``(ts array, reorder latency, schedule)`` charged to ``profile_s``.

    The latency is the lateness quantile that keeps ``COVERAGE`` of the
    events; the schedule is the advance-only punctuation sequence below.
    """
    def work():
        ts = np.asarray(timestamps, dtype=np.int64)
        latency = suggest_reorder_latency(timestamps, COVERAGE)
        return ts, latency, punct_schedule(ts, every, latency)

    return timed(parts, "profile_s", work)


def punct_schedule(ts, every, latency):
    """``[(position, timestamp)]``: after every ``every`` arrivals a
    punctuation at ``high watermark − latency``, kept only when it
    advances — the sequence ``QueryPlan.run(punctuation_frequency=every,
    reorder_latency=latency)`` issues before its final one."""
    schedule = []
    if ts.size < every:
        return schedule
    stops = np.arange(every, ts.size + 1, every)
    highs = np.maximum.accumulate(ts)[stops - 1]
    last = None
    for position, high in zip(stops.tolist(), highs.tolist()):
        candidate = high - latency
        if last is None or candidate > last:
            last = candidate
            schedule.append((position, candidate))
    return schedule


def with_final(schedule, ts):
    """The schedule plus the end-of-data punctuation at the high
    watermark, which ingress appends unconditionally."""
    return schedule + [(int(ts.size), int(ts.max()))]


def ingress_elements(dataset, schedule, span):
    """Arrival-order ``EventBatch`` blocks from ``iter_batches`` with the
    scheduled punctuations between them.  The list-to-column encode
    happens inside ``next()``, under an ``ingress.encode`` span, so it
    is charged where it runs."""
    batches = iter(iter_batches(dataset, BATCH))
    position = 0
    due = 0
    while True:
        with span("ingress.encode"):
            block = next(batches, None)
        if block is None:
            break
        yield block
        position += len(block)
        while due < len(schedule) and schedule[due][0] <= position:
            yield Punctuation(schedule[due][1])
            due += 1
