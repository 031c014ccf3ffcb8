"""``sort_online``: raw arrival-order columns straight into
``ColumnarImpatienceSorter`` — the paper's Figure 8 experiment.

No caller-side presort stands between the stream and the sorter, so
segment placement does the work; every other workload reaches the
sorter through a presort and should not move when placement changes.
The harness is the driver here, so the traced pass is the untraced loop
with a span around each of the same calls.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from repro.core.columnar import ColumnarImpatienceSorter

from benchmarks.e2e import checks as ck
from benchmarks.e2e import inputs
from benchmarks.e2e.measure import (
    coverage_metrics,
    durations,
    median,
    no_span,
    percentile,
    rep_sums,
    supported_percentile,
    timed_repetitions,
)
from benchmarks.e2e.spec import BATCH


class SortOnline:
    name = "sort_online"

    # -- set-up ---------------------------------------------------------------

    def make_inputs(self, seed, sizes):
        """A prefix of the ``cloud_query`` stream as ``(ts, key)`` int64
        columns; the row lists are dropped before anything is timed."""
        parts = {}
        dataset = inputs.generate("cloudlog", sizes.cloud_n, seed, parts)
        prefix = dataset.head(sizes.sort_n)
        ts, _, schedule = inputs.profile(
            prefix.timestamps, BATCH, parts
        )
        keys = np.asarray(prefix.keys, dtype=np.int64)
        return SimpleNamespace(
            parts=parts, sizes=sizes, n=int(ts.size), ts=ts, keys=keys,
            schedule=schedule, punct_at=dict(schedule),
        )

    def add_reference(self, state):
        """The reference is the numpy rule in ``checks``; nothing to
        precompute beyond the schedule."""
        state.parts.setdefault("reference_s", 0.0)

    def teardown(self, state):
        """Nothing outlives the calls."""

    # -- the entry point ----------------------------------------------------------

    def entry(self, state, span=no_span):
        """``insert_batch`` per 8192 arrivals, ``on_punctuation`` where
        the schedule advances, ``flush`` at the end."""
        sorter = ColumnarImpatienceSorter(columns=1)
        ts, keys = state.ts, state.keys
        cuts, waits = [], []
        for start in range(0, state.n, BATCH):
            stop = min(start + BATCH, state.n)
            with span("columnar.insert"):
                sorter.insert_batch(ts[start:stop], (keys[start:stop],))
            timestamp = state.punct_at.get(stop)
            if timestamp is not None:
                with span("columnar.punct"):
                    t0 = time.perf_counter()
                    cut = sorter.on_punctuation(timestamp)
                    waits.append(time.perf_counter() - t0)
                cuts.append((timestamp, cut))
        with span("columnar.flush"):
            tail = sorter.flush()
        return SimpleNamespace(
            cuts=cuts, tail=tail, waits=waits, stats=sorter.stats,
        )

    def check(self, state, result, checks):
        checks.record(
            f"{self.name}: sorted, cut at each punctuation, input minus "
            "the late set",
            ck.sorter_output_ok(
                result.cuts, result.tail, state.ts, state.keys,
                state.schedule,
            ),
        )

    # -- untraced pass ------------------------------------------------------------

    def untraced(self, state, seconds, checks):
        self.check(state, self.entry(state), checks)          # warm-up
        waits_ms = []

        def check(result):
            self.check(state, result, checks)
            waits_ms.extend(w * 1e3 for w in result.waits)

        walls, cpus, result = timed_repetitions(
            lambda: self.entry(state), seconds, state.sizes.min_reps,
            check=check,
        )
        wall = median(walls)
        metrics = {
            "events_per_s": state.n / wall,
            "cpu_s_per_mevent": median(cpus) / state.n * 1e6,
            "punct_latency_p50_ms": percentile(waits_ms, 50),
            "completeness": result.stats.emitted / state.n,
        }
        info = {
            "n": state.n, "reps": len(walls),
            "latency_samples": len(waits_ms),
            "supported_percentile": supported_percentile(len(waits_ms)),
        }
        return metrics, info, result

    # -- traced pass --------------------------------------------------------------

    def traced(self, state, seconds, tracer, checks):
        base, _, result = self.untraced(state, seconds / 3, checks)
        base_wall = state.n / base["events_per_s"]

        def one():
            tracer.rep += 1
            return self.entry(state, tracer.span)

        walls, _, _ = timed_repetitions(
            one, seconds / 2, state.sizes.min_reps,
            check=lambda r: self.check(state, r, checks),
        )
        stats = result.stats
        puncts_ms = [
            d * 1e3 for d in durations(tracer.spans, "columnar.punct")
        ]
        metrics = {
            "columnar.insert_s":
                median(rep_sums(tracer.spans, "columnar.insert")),
            "columnar.punct_s":
                median(rep_sums(tracer.spans, "columnar.punct")),
            "columnar.flush_s":
                median(rep_sums(tracer.spans, "columnar.flush")),
            "columnar.punct_ms_p50": percentile(puncts_ms, 50),
            "columnar.punct_ms_p95": percentile(puncts_ms, 95),
            "columnar.runs_created": stats.runs_created,
            "columnar.binary_searches": stats.binary_searches,
            "columnar.merge_events": stats.merge_events,
            "columnar.max_buffered": stats.max_buffered,
            "columnar.events_per_search":
                stats.inserted / max(stats.binary_searches, 1),
            "columnar.merge_amplification":
                stats.merge_events / max(stats.emitted, 1),
        }
        metrics.update(coverage_metrics(tracer.spans, walls, base_wall))
        return metrics, result

