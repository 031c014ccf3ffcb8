"""The three batch-entry workloads: ``cloud_query``, ``android_spill``
and ``cloud_par2``.

Untraced, each is one public call — ``QueryPlan.run`` or
``run_parallel`` — timed from entry to a complete ``Event`` list.
Traced, the same work is replayed as a chain of public calls the
harness sequences itself (``iter_batches`` → ``CompiledShardPlan(...)
.build_executor(0)`` ``feed_batch``/``feed_punctuation``/``feed_flush``;
or ``run_parallel`` over a generator that timestamps every hand-off),
with one span per call.
"""

from __future__ import annotations

import gc
import time
from types import SimpleNamespace

from repro.core.late import LatePolicy
from repro.engine import QueryPlan, field
from repro.engine.event import Event, is_punctuation
from repro.engine.operators.aggregates import Sum
from repro.parallel import CompiledShardPlan, run_parallel

from benchmarks.e2e import checks as ck
from benchmarks.e2e import inputs
from benchmarks.e2e.measure import (
    Tracer,
    coverage_metrics,
    durations,
    median,
    no_span,
    per_rep,
    percentile,
    rep_sums,
    rep_walls,
    timed_repetitions,
)
from benchmarks.e2e.spec import BATCH, SESSION_GAP, WINDOW


def cloud_plan():
    """Two payload predicates, tumbling window, sort, grouped sum."""
    return (
        QueryPlan()
        .where(field(0) > 2**29)
        .where(field(1) < 3 * 2**29)
        .tumbling_window(WINDOW)
        .sort(late_policy=LatePolicy.DROP)
        .group_aggregate(Sum(field(2)))
    )


def android_plan():
    """Sort, then a session-window sum: a second kernel shape."""
    return (
        QueryPlan()
        .sort(late_policy=LatePolicy.DROP)
        .session_window(SESSION_GAP, Sum(field(0)))
    )


class CloudQuery:
    """``QueryPlan.run(engine="columnar")`` over a CloudLog ``Dataset``."""

    name = "cloud_query"
    dataset_name = "cloudlog"
    plan = staticmethod(cloud_plan)

    def size(self, sizes):
        return sizes.cloud_n

    def budget(self, sizes):
        return None

    # -- set-up ---------------------------------------------------------------

    def make_inputs(self, seed, sizes):
        """Dataset, latency, schedule: all the entry point needs."""
        parts = {}
        dataset = inputs.generate(
            self.dataset_name, self.size(sizes), seed, parts
        )
        ts, latency, schedule = inputs.profile(
            dataset.timestamps, BATCH, parts
        )
        return SimpleNamespace(
            parts=parts, sizes=sizes, dataset=dataset, n=len(dataset),
            latency=latency, schedule=inputs.with_final(schedule, ts),
            plan=self.plan(), budget=self.budget(sizes),
        )

    def add_reference(self, state):
        """Row engine, no budget, same dataset and punctuations."""
        state.reference = inputs.timed(
            state.parts, "reference_s", lambda: state.plan.run(
                state.dataset, punctuation_frequency=BATCH,
                reorder_latency=state.latency, engine="row",
            )
        )

    def teardown(self, state):
        """Nothing outlives the calls."""

    # -- the entry point and what it returned -----------------------------------

    def entry(self, state):
        return state.plan.run(
            state.dataset, punctuation_frequency=BATCH,
            reorder_latency=state.latency, engine="columnar",
            memory_budget=state.budget,
        )

    def dropped(self, result):
        return result.snapshot().as_dict()["totals"]["dropped"]

    def check(self, state, result, checks):
        checks.record(
            f"{self.name}: events equal the row reference",
            ck.same_sequence(state.reference.events, result.events),
        )
        checks.record(
            f"{self.name}: punctuations equal the row reference",
            list(result.punctuations) == list(state.reference.punctuations),
        )

    # -- untraced pass ----------------------------------------------------------

    def untraced(self, state, seconds, checks):
        """``(end-to-end metrics, info, last result)``; the caller adds
        ``setup_s`` and ``peak_rss_mb``."""
        self.check(state, self.entry(state), checks)          # warm-up
        walls, cpus, result = timed_repetitions(
            lambda: self.entry(state), seconds, state.sizes.min_reps,
            check=lambda r: self.check(state, r, checks),
        )
        wall = median(walls)
        metrics = {
            "events_per_s": state.n / wall,
            "cpu_s_per_mevent": median(cpus) / state.n * 1e6,
            # A batch entry point hands back every result at return, so
            # a punctuation handed in with the input is answered after
            # one call's wall.
            "punct_latency_p50_ms": wall * 1e3,
            "completeness": 1.0 - self.dropped(result) / state.n,
        }
        info = {"n": state.n, "reps": len(walls), "latency_samples": 0}
        return metrics, info, result

    # -- traced pass ------------------------------------------------------------

    def replay(self, state, tracer, budget):
        """The compiled path as a push chain of public calls."""
        span = tracer.span
        with span("compiler.compile"):
            executor = CompiledShardPlan(
                state.plan, memory_budget=budget
            ).build_executor(0)
        out = SimpleNamespace(events=[], punctuations=[])

        def collect(items):
            with span("harness.decode"):
                for kind, value in items:
                    if kind == "punct":
                        out.punctuations.append(value)
                    else:
                        out.events.extend(_decode(kind, value))

        for element in inputs.ingress_elements(
            state.dataset, state.schedule, span
        ):
            if is_punctuation(element):
                with span("compiler.punct"):
                    items = executor.feed_punctuation(element.timestamp)
                collect(items)
            else:
                with span("compiler.feed_batch"):
                    executor.feed_batch(element)
        with span("compiler.flush"):
            items = executor.feed_flush()
        collect(items)
        return out

    def paired_reps(self, state, seconds, tracer, checks, budget):
        """Alternate the untraced entry point and the traced replay for
        ``seconds``, so both see the same machine state (the parallel
        runtime's wall shifts between modes that last seconds).
        Returns ``(untraced walls, traced walls, last untraced result)``.
        """
        self.check(state, self.entry(state), checks)          # warm-ups
        self.check(state, self.replay(state, Tracer(None), budget), checks)
        plain, traced = [], []

        def timed(walls, call):
            gc.collect()
            t0 = time.perf_counter()
            out = call()
            walls.append(time.perf_counter() - t0)
            self.check(state, out, checks)
            return out

        result = None
        deadline = time.perf_counter() + seconds
        while (len(plain) < state.sizes.min_reps
               or time.perf_counter() < deadline):
            result = timed(plain, lambda: self.entry(state))
            tracer.rep += 1
            timed(traced, lambda: self.replay(state, tracer, budget))
        return plain, traced, result

    def traced(self, state, seconds, tracer, checks):
        """Per-layer metrics of the layers this workload runs."""
        plain, walls, result = self.paired_reps(
            state, seconds, tracer, checks, state.budget
        )
        metrics = ingress_metrics(tracer.spans, state.n)
        metrics.update(compiler_metrics(tracer.spans, result, state.n))
        metrics.update(coverage_metrics(tracer.spans, walls, median(plain)))
        return metrics, result


class AndroidSpill(CloudQuery):
    """The same entry point under a memory budget far below the
    buffered working set, so spill, read-back and merge do the work."""

    name = "android_spill"
    dataset_name = "androidlog"
    plan = staticmethod(android_plan)

    def size(self, sizes):
        return sizes.android_n

    def budget(self, sizes):
        return sizes.android_budget

    def check(self, state, result, checks):
        super().check(state, result, checks)
        spill = getattr(result, "spill", None)
        if spill is not None:       # the push replay returns no spill doc
            checks.record(
                f"{self.name}: resident peak within the budget",
                ck.within_budget(spill, state.budget),
            )

    def traced(self, state, seconds, tracer, checks):
        metrics, result = super().traced(state, seconds * 0.8, tracer, checks)

        def unbudgeted():
            return self.replay(state, Tracer(None), None)

        plain, _, _ = timed_repetitions(
            unbudgeted, seconds * 0.1, state.sizes.min_reps,
            check=lambda r: self.check(state, r, checks),
        )
        slowdown = median(rep_walls(tracer.spans)) / median(plain)
        spill = result.spill
        metrics.update({
            "external.spills": spill["spills"],
            "external.bytes_written": spill["bytes_written"],
            "external.bytes_read": spill["bytes_read"],
            "external.max_merge_fan_in": spill["max_merge_fan_in"],
            "external.peak_buffered_bytes": spill["peak_buffered_bytes"],
            "external.read_amplification":
                spill["bytes_read"] / max(spill["bytes_written"], 1),
            "external.budget_use":
                spill["peak_buffered_bytes"] / state.budget,
            "external.budgeted_over_unbudgeted_wall": slowdown,
        })
        return metrics, result


class CloudPar2(CloudQuery):
    """The ``cloud_query`` input and plan through two forked shard
    workers; the list-to-column encode runs inside the ingress
    generator, so it is charged."""

    name = "cloud_par2"

    def entry(self, state, span=no_span, wrap=None):
        elements = inputs.ingress_elements(
            state.dataset, state.schedule, span
        )
        return run_parallel(
            wrap(elements) if wrap else elements,
            CompiledShardPlan(state.plan), state.sizes.workers,
            batch_size=BATCH, ring_capacity=state.sizes.ring_capacity,
        )

    def dropped(self, result):
        return sum(s["late_dropped"] for s in result.parallel["shards"])

    def check(self, state, result, checks):
        checks.record(
            f"{self.name}: event multiset equals the row reference",
            ck.same_multiset(state.reference.events, result.events),
        )
        checks.record(
            f"{self.name}: punctuations equal the row reference",
            list(result.punctuations) == list(state.reference.punctuations),
        )

    def replay(self, state, tracer, budget):
        """``run_parallel`` timed from outside through its own ingress:
        call → first ``next()`` is start-up (compile, rings, fork); the
        gap after yielding a batch is routing including ring write
        stalls; after a punctuation, broadcast and merge; exhaustion →
        return is flush, final merge and join."""
        marks = {}

        def gaps(elements):
            since, gap = marks["call"], "runtime.startup"
            source = iter(elements)
            while True:
                tracer.add(gap, since, time.perf_counter())
                element = next(source, None)
                if element is None:
                    break
                gap = (
                    "runtime.punct" if is_punctuation(element)
                    else "runtime.route"
                )
                since = time.perf_counter()
                yield element
            marks["exhausted"] = time.perf_counter()

        with tracer.span("runtime.call") as root:
            cpu0 = time.process_time()
            marks["call"] = time.perf_counter()
            result = self.entry(state, tracer.span, gaps)
            tracer.add(
                "runtime.finish", marks["exhausted"], time.perf_counter()
            )
            root["coordinator_cpu_s"] = time.process_time() - cpu0
        return result

    def traced(self, state, seconds, tracer, checks):
        plain, walls, result = self.paired_reps(
            state, seconds * 0.8, tracer, checks, None
        )
        single, _, _ = timed_repetitions(
            lambda: CloudQuery.entry(self, state), seconds * 0.1,
            state.sizes.min_reps,
        )
        wall = median(plain)
        metrics = ingress_metrics(tracer.spans, state.n)
        metrics.update(runtime_metrics(tracer.spans, result, wall))
        # Both sides measured in this run, on this input; the base is
        # the single-process QueryPlan.run.
        metrics["runtime.speedup_vs_cloud_query"] = median(single) / wall
        metrics.update(coverage_metrics(tracer.spans, walls, wall))
        return metrics, result


# -- spans and results → per-layer metrics --------------------------------------

def _decode(kind, value):
    """Executor wire items back to ``Event`` lists ("int"/"float" wire
    modes: one value column, scalar payloads)."""
    if kind == "batch":
        values = value.payload_columns[0]
        sync, other, keys = value.sync_times, value.other_times, value.keys
    elif kind == "fbatch":
        sync, other, keys, values = value
    else:
        return value                        # "elements": already events
    return map(
        Event, sync.tolist(), other.tolist(), keys.tolist(), values.tolist()
    )


def ingress_metrics(spans, n):
    encode = median(rep_sums(spans, "ingress.encode"))
    reps = len(per_rep(spans))
    return {
        "ingress.encode_s": encode,
        "ingress.encode_ns_per_event": encode / n * 1e9,
        # The last next() of a repetition finds the source exhausted.
        "ingress.batches":
            len(durations(spans, "ingress.encode")) // reps - 1,
    }


def compiler_metrics(spans, result, n):
    puncts_ms = [d * 1e3 for d in durations(spans, "compiler.punct")]
    operators = result.snapshot().as_dict()["operators"]
    kernel_busy = sum(
        op["busy_s"]["total"] for op in operators
        if op["name"] not in ("ingress", "sort")
    )
    return {
        "compiler.compile_ms":
            median(rep_sums(spans, "compiler.compile")) * 1e3,
        "compiler.feed_batch_s":
            median(rep_sums(spans, "compiler.feed_batch")),
        "compiler.punct_s": median(rep_sums(spans, "compiler.punct")),
        "compiler.punct_ms_p50": percentile(puncts_ms, 50),
        "compiler.punct_ms_p95": percentile(puncts_ms, 95),
        "compiler.flush_s": median(rep_sums(spans, "compiler.flush")),
        "compiler.events_out": len(result.events),
        "kernels.ns_per_event": kernel_busy / n * 1e9,
    }


def runtime_metrics(spans, result, wall):
    doc = result.parallel
    shards = doc["shards"]
    events_in = [s["events_in"] for s in shards]
    worker_cpu = sum(s["cpu_s"] for s in shards)
    coordinator_cpu = [
        s["coordinator_cpu_s"] for s in spans if s["name"] == "runtime.call"
    ]
    return {
        "runtime.startup_s": median(rep_sums(spans, "runtime.startup")),
        "runtime.route_s": median(rep_sums(spans, "runtime.route")),
        "runtime.punct_s": median(rep_sums(spans, "runtime.punct")),
        "runtime.finish_s": median(rep_sums(spans, "runtime.finish")),
        "runtime.coord_cpu_s": median(coordinator_cpu),
        "runtime.frames_sent": doc["frames_sent"],
        "runtime.frames_received": doc["frames_received"],
        "runtime.rounds": doc["rounds"],
        "runtime.fast_merge_rounds": doc["fast_merge_rounds"],
        "runtime.shard_skew":
            max(events_in) / (sum(events_in) / len(events_in)),
        "shm.spins": sum(s["ring_wait"]["spins"] for s in shards),
        "shm.parks": sum(s["ring_wait"]["parks"] for s in shards),
        "shm.stall_s": sum(s["ring_wait"]["stall_s"] for s in shards),
        "worker.cpu_s": worker_cpu,
        "worker.busy_share": worker_cpu / (len(shards) * wall),
        "worker.buffered_peak_events":
            max(s["buffered_peak"] for s in shards),
    }
