"""Clocks, memory probes, order statistics and the span recorder.

Everything here measures from *outside* the program under test: wall
and CPU clocks around public calls, ``/proc`` reads for resident
memory, and an in-memory span list written out when the run ends.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext

# -- order statistics ---------------------------------------------------------

def median(values):
    return float(statistics.median(values))


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the driver applies to ten runs of a metric."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``)."""
    ordered = sorted(samples)
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return float(ordered[rank - 1])


def supported_percentile(count, candidates=(99, 95, 90, 75, 50)):
    """Highest candidate percentile with at least ten samples beyond it.

    A tail percentile read from fewer than ten samples is one outlier's
    value, not a property of the distribution; ``None`` when even the
    median has fewer than ten samples above it.
    """
    for p in candidates:
        if count * (100 - p) / 100.0 >= 10:
            return p
    return None


# -- clocks -------------------------------------------------------------------

def cpu_seconds():
    """User+system CPU of this process and of every child it has reaped.

    ``process_time`` and ``getrusage`` read the scheduler's nanosecond
    accounting, not 10 ms clock ticks, so a 0.15 s repetition resolves.
    Forked shard workers are joined inside ``run_parallel``, so their
    CPU has landed in ``RUSAGE_CHILDREN`` when the call returns.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def process_cpu_seconds(pid):
    """On-CPU seconds of another live process, all threads."""
    try:
        total_ns = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total_ns += int(fh.read().split()[0])
        return total_ns / 1e9
    except (OSError, ValueError, IndexError):
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def timed_repetitions(entry, seconds, min_reps, check=None):
    """Closed loop: call ``entry()`` until ``seconds`` of repetitions
    have run (at least ``min_reps``).  Each repetition is preceded by
    ``gc.collect()`` and timed on the wall and CPU clocks; ``check``
    sees every result.  Returns ``(walls, cpus, last_result)``.
    """
    walls, cpus = [], []
    result = None
    deadline = time.perf_counter() + seconds
    while len(walls) < min_reps or time.perf_counter() < deadline:
        result = None
        gc.collect()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        result = entry()
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
        if check is not None:
            check(result)
    return walls, cpus, result


# -- resident memory ----------------------------------------------------------

def _status_mib(pid, field):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"/proc/{pid}/status has no {field}")


def peak_rss_mib(pid="self"):
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    return _status_mib(pid, "VmHWM")


def peak_rss_during(call):
    """Run ``call()``; return ``(result, peak resident MiB while it ran)``.

    Resets the kernel's high-water mark through ``/proc/self/clear_refs``
    so the peak belongs to the call, not to whatever set-up ran before
    it.  Where that file is not writable a 20 ms sampler thread reads the
    resident size instead (it can miss a short spike).
    """
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return _sampled_peak(call)
    result = call()
    return result, peak_rss_mib()


def _sampled_peak(call):
    peak = [_status_mib("self", "VmRSS")]
    done = threading.Event()

    def sample():
        while not done.wait(0.02):
            peak[0] = max(peak[0], _status_mib("self", "VmRSS"))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        result = call()
    finally:
        done.set()
        sampler.join(timeout=1.0)
    peak[0] = max(peak[0], _status_mib("self", "VmRSS"))
    return result, peak[0]


# -- spans --------------------------------------------------------------------

class Tracer:
    """In-memory span list: ``(id, name, start, end, parent, workload,
    rep)``.  ``span`` nests through a stack, so a span opened while
    another is open records it as its parent; ``add`` records an
    interval whose ends were read elsewhere (the gaps between a
    generator's yields)."""

    def __init__(self, workload):
        self.workload = workload
        self.rep = 0
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        record = self._open(name, time.perf_counter())
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end):
        record = self._open(name, start)
        record["end"] = end
        return record

    def _open(self, name, start):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "rep": self.rep,
        }
        self.spans.append(record)
        return record


_NO_SPAN = nullcontext()


def no_span(_name):
    """Stand-in for ``Tracer.span`` on the untraced pass."""
    return _NO_SPAN


def self_times(spans):
    """Self time per span name: duration minus the part its direct
    children cover, summed over spans of that name."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (
                children.get(span["parent"], 0.0)
                + span["end"] - span["start"]
            )
    out = {}
    for span in spans:
        own = span["end"] - span["start"] - children.get(span["id"], 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def per_rep(spans):
    """Spans grouped by repetition, in repetition order."""
    reps = {}
    for span in spans:
        reps.setdefault(span["rep"], []).append(span)
    return [reps[key] for key in sorted(reps)]


def rep_sums(spans, name):
    """Self time of ``name`` spans, one total per repetition."""
    return [self_times(rep).get(name, 0.0) for rep in per_rep(spans)]


def rep_walls(spans):
    """First span start to last span end, per repetition."""
    return [
        max(s["end"] for s in rep) - min(s["start"] for s in rep)
        for rep in per_rep(spans)
    ]


def coverage_metrics(spans, walls, base_wall):
    """``trace.coverage``: self time of the spans around calls into the
    program, summed, over the untraced wall — near 1 when the replay is
    the same work.  ``harness.*`` spans (turning wire items back into
    ``Event`` lists for the check) are the harness's own work and stay
    out.  ``trace.overhead``: traced wall over untraced wall."""
    covered = [
        sum(seconds for name, seconds in self_times(rep).items()
            if not name.startswith("harness."))
        for rep in per_rep(spans)
    ]
    return {
        "trace.coverage": median(covered) / base_wall,
        "trace.overhead": median(walls) / base_wall,
    }
