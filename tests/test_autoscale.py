"""Tests for adaptive worker autoscaling (repro.parallel.autoscale).

The headline invariant: a run whose pool grows and shrinks mid-stream is
*output-equivalent* to every fixed-size pool — the event multiset is
identical and the punctuation sequence is exactly equal (fixed pools
already differ from each other only in same-sync-time tie order, so the
multiset + punctuation bar is the strongest pool-invariant property that
exists).  Around that: policy unit tests (hysteresis, cooldown,
determinism from a recorded trace), checkpoint-handoff trajectories
across late policies and memory budgets, supervised kill -9 mid-rescale,
spec parsing, and the serve layer's scale-up-instead-of-shed elasticity.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.errors import QueryBuildError
from repro.core.late import LatePolicy
from repro.engine import Event, Punctuation, QueryPlan
from repro.engine.kernels import field
from repro.engine.operators.aggregates import Count, Sum
from repro.parallel import (
    AutoscalePolicy,
    CompiledShardPlan,
    RowPlan,
    crash_on_rescale,
    parse_parallel_spec,
    run_parallel,
)
from repro.parallel.autoscale import RoundSignals
from repro.resilience.parallel import run_parallel_supervised


def _signals(round, workers, events, stall_s=0.0, wall_s=1.0):
    per = events // workers
    return RoundSignals(
        round=round, workers=workers, events=events,
        per_shard=tuple([per] * workers), buffered=tuple([0] * workers),
        stall_s=stall_s, wall_s=wall_s,
    )


def _multiset(result):
    return sorted(
        (e.sync_time, e.key, e.payload) for e in result.events
    )


def bursty_elements(rounds=24, heavy=range(4, 13), heavy_n=1200,
                    light_n=40, keys=29, seed=11, spread=130,
                    payload=None):
    """A bursty disordered stream: quiet rounds, a heavy burst, quiet
    again — the shape autoscaling exists for.  ``spread > 100`` leaves
    stragglers past each round's punctuation, so late policies engage.
    """
    rng = random.Random(seed)
    out = []
    ts = 0
    for rnd in range(rounds):
        n = heavy_n if rnd in heavy else light_n
        for _ in range(n):
            t = ts + rng.randrange(0, spread)
            key = rng.randrange(0, keys)
            out.append(Event(
                t, t + 1, key, payload(t, key) if payload else ()
            ))
        ts += 100
        out.append(Punctuation(ts - 1))
    return out


def _grouped_count():
    """A compiled push-down grouped count: rescalable key-local state."""
    return CompiledShardPlan(
        QueryPlan().tumbling_window(100).sort().group_aggregate(Count())
    )


def _test_policy(min_workers=1, max_workers=3, high=700.0, low=200.0,
                 cooldown=1):
    """Deterministic for tests: stall_high disabled (wall-clock free)."""
    return AutoscalePolicy(
        min_workers, max_workers, high=high, low=low,
        cooldown=cooldown, stall_high=1e9,
    )


# ---------------------------------------------------------------------------
# Policy units
# ---------------------------------------------------------------------------


class TestPolicy:
    def test_hysteresis_band_holds_steady(self):
        policy = _test_policy(cooldown=0)
        for rnd in range(10):
            assert policy.observe(_signals(rnd, 2, 1000)) is None
        assert policy.decisions == []

    def test_grows_above_high_watermark(self):
        policy = _test_policy(cooldown=0)
        decision = policy.observe(_signals(0, 1, 5000))
        assert decision is not None and decision.workers == 2
        assert "events/worker" in decision.reason

    def test_shrinks_below_low_watermark(self):
        policy = _test_policy(cooldown=0)
        decision = policy.observe(_signals(0, 3, 30))
        assert decision is not None and decision.workers == 2

    def test_clamped_at_bounds(self):
        policy = _test_policy(max_workers=2, cooldown=0)
        assert policy.observe(_signals(0, 2, 50_000)) is None
        assert policy.observe(_signals(1, 1, 1)) is None

    def test_stall_ratio_override_grows(self):
        policy = AutoscalePolicy(1, 4, high=1e12, low=0.0, cooldown=0,
                                 stall_high=0.2)
        decision = policy.observe(
            _signals(0, 1, 10, stall_s=0.5, wall_s=1.0)
        )
        assert decision is not None and decision.workers == 2
        assert "stall_ratio" in decision.reason

    def test_cooldown_blocks_until_applied_decision_ages(self):
        policy = _test_policy(cooldown=3)
        decision = policy.observe(_signals(0, 1, 5000))
        assert decision is not None
        policy.notify_applied(decision)
        # Rounds 1..3 fall inside the cooldown; round 4 is free again.
        for rnd in range(1, 4):
            assert policy.observe(_signals(rnd, 2, 5000)) is None
        assert policy.observe(_signals(4, 2, 5000)) is not None

    def test_deferred_decisions_do_not_restart_cooldown(self):
        policy = _test_policy(cooldown=2)
        first = policy.observe(_signals(0, 1, 5000))
        assert first is not None
        # Not applied (coordinator deferred it): the next observation
        # may emit again immediately.
        assert policy.observe(_signals(1, 1, 5000)) is not None

    def test_deterministic_given_signal_trace(self):
        trace = [
            _signals(r, w, ev) for r, (w, ev) in enumerate(
                [(1, 50), (1, 5000), (2, 5000), (3, 900), (3, 100),
                 (2, 100), (1, 100), (1, 4000)]
            )
        ]

        def run():
            policy = _test_policy(cooldown=1)
            out = []
            for signals in trace:
                decision = policy.observe(signals)
                if decision is not None:
                    policy.notify_applied(decision)
                    out.append((decision.round, decision.workers))
            return out

        assert run() == run() and run()  # same trace in, same plan out

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(0, 4)
        with pytest.raises(ValueError):
            AutoscalePolicy(4, 2)


class TestSpecParsing:
    def test_integers_pass_through(self):
        assert parse_parallel_spec(3) == (3, None)
        assert parse_parallel_spec("5") == (5, None)

    def test_auto_defaults(self):
        workers, policy = parse_parallel_spec("auto")
        assert workers == 1
        assert (policy.min_workers, policy.max_workers) == (1, 4)

    def test_auto_with_bounds(self):
        workers, policy = parse_parallel_spec("auto:2-6")
        assert workers == 2
        assert (policy.min_workers, policy.max_workers) == (2, 6)

    @pytest.mark.parametrize("bad", [
        "bogus", "auto:2", "auto:x-y", "auto:0-4", "auto:5-2", "auto:",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_parallel_spec(bad)


# ---------------------------------------------------------------------------
# Trajectory equivalence: grow/shrink/grow vs every fixed pool
# ---------------------------------------------------------------------------


class TestTrajectoryEquivalence:
    def _run_all(self, plan, elements_fn, max_workers=3):
        fixed = {
            w: run_parallel(elements_fn(), plan, w)
            for w in range(1, max_workers + 1)
        }
        schedule = []
        auto = run_parallel(
            elements_fn(), plan, 1,
            autoscale=_test_policy(max_workers=max_workers),
            rescale_schedule=schedule,
        )
        return fixed, auto, schedule

    def test_grouped_plan_grow_shrink_matches_every_fixed_pool(self):
        plan = _grouped_count()
        assert plan.rescalable, plan.rescale_reason
        fixed, auto, schedule = self._run_all(plan, bursty_elements)
        workers_seen = [1] + [entry["workers"] for entry in schedule]
        assert max(workers_seen) > 1, "burst never grew the pool"
        assert workers_seen[-1] < max(workers_seen), "never shrank back"
        base = fixed[1]
        for w, result in fixed.items():
            assert _multiset(result) == _multiset(base), f"w={w}"
            assert result.punctuations == base.punctuations, f"w={w}"
        assert _multiset(auto) == _multiset(base)
        assert auto.punctuations == base.punctuations
        assert auto.completed

    @pytest.mark.parametrize(
        "policy", [LatePolicy.DROP, LatePolicy.ADJUST, LatePolicy.RAISE],
        ids=["drop", "adjust", "raise"],
    )
    def test_compiled_plan_under_every_late_policy(self, policy):
        def build():
            return (QueryPlan().tumbling_window(100)
                    .sort(late_policy=policy)
                    .group_aggregate(Sum(field(1))))

        def elements():
            # RAISE needs on-time data: keep events inside the round.
            spread = 99 if policy is LatePolicy.RAISE else 130
            return bursty_elements(
                spread=spread, payload=lambda t, k: (t % 7, 1)
            )

        plan = CompiledShardPlan(build())
        assert plan.rescalable, plan.rescale_reason
        fixed, auto, schedule = self._run_all(plan, elements)
        assert len(schedule) >= 2
        base = fixed[1]
        for w, result in fixed.items():
            assert _multiset(result) == _multiset(base), f"w={w}"
        assert _multiset(auto) == _multiset(base)
        assert auto.punctuations == base.punctuations

    def test_compiled_plan_with_memory_budget(self):
        build = (QueryPlan().tumbling_window(100)
                 .sort(late_policy=LatePolicy.DROP)
                 .group_aggregate(Sum(field(1))))
        plan = CompiledShardPlan(build, memory_budget=64 * 1024)

        def elements():
            return bursty_elements(payload=lambda t, k: (t % 7, 1))

        fixed, auto, schedule = self._run_all(plan, elements)
        assert len(schedule) >= 2
        base = fixed[1]
        assert _multiset(auto) == _multiset(base)
        assert auto.punctuations == base.punctuations

    def test_schedule_replay_is_deterministic(self):
        plan = _grouped_count()
        schedule = []
        first = run_parallel(
            bursty_elements(), plan, 1, autoscale=_test_policy(),
            rescale_schedule=schedule,
        )
        assert len(schedule) >= 2
        replayed_schedule = list(schedule)
        replay = run_parallel(
            bursty_elements(), plan, 1, autoscale=_test_policy(),
            rescale_schedule=replayed_schedule,
        )
        # The recorded prefix replays verbatim — no new entries, and the
        # output is equivalent.
        assert replayed_schedule == schedule
        assert _multiset(replay) == _multiset(first)
        assert replay.punctuations == first.punctuations

    def test_accounting_records_the_trajectory(self):
        plan = _grouped_count()
        _, auto, schedule = self._run_all(plan, bursty_elements)
        doc = auto.parallel["autoscale"]
        assert doc["enabled"] is True
        assert doc["initial_workers"] == 1
        assert doc["applied"] == schedule
        assert doc["final_workers"] == schedule[-1]["workers"]
        assert len(doc["epochs"]) == len(schedule)
        assert doc["worker_seconds"] > 0
        assert doc["signals"], "signal trace missing"
        for entry in doc["signals"][:3]:
            assert set(entry) >= {
                "round", "workers", "events", "per_shard", "buffered",
                "stall_s", "wall_s",
            }
        # Epochs carry the retired workers' stats, wait counters included.
        for epoch in doc["epochs"]:
            assert len(epoch["shards"]) == epoch["from_workers"]
            for stats in epoch["shards"]:
                assert "ring_wait" in stats and "cpu_s" in stats

    def test_row_plan_rejects_autoscale(self):
        plan = RowPlan(lambda s: s.count())
        with pytest.raises(QueryBuildError, match="not rescalable"):
            run_parallel(
                bursty_elements(rounds=2), plan, 1,
                autoscale=_test_policy(),
            )

    def test_topk_compiled_plan_rejects_autoscale(self):
        build = (QueryPlan().tumbling_window(100)
                 .sort(late_policy=LatePolicy.DROP).top_k(2))
        plan = CompiledShardPlan(build)
        assert not plan.rescalable
        with pytest.raises(QueryBuildError, match="not rescalable"):
            run_parallel(
                bursty_elements(rounds=2), plan, 1,
                autoscale=_test_policy(),
            )


# ---------------------------------------------------------------------------
# Supervised crash mid-rescale
# ---------------------------------------------------------------------------


class TestSupervisedRescale:
    def test_kill9_mid_rescale_recovers_exactly_once(self):
        plan = _grouped_count()
        base = run_parallel(bursty_elements(), plan, 1)
        delivered = []
        outcome = run_parallel_supervised(
            bursty_elements(), plan, 1,
            fault=crash_on_rescale(0),
            on_event=delivered.append,
            autoscale=_test_policy(),
        )
        assert outcome.restarts == 1
        assert outcome.crashes[0].exitcode == 43
        assert outcome.completed
        assert _multiset(outcome) == _multiset(base)
        assert outcome.punctuations == base.punctuations
        # on_event saw every output event exactly once across the crash.
        assert sorted(
            (e.sync_time, e.key, e.payload) for e in delivered
        ) == _multiset(base)
        doc = outcome.resilience_doc()
        assert doc["rescales"] >= 1
        assert doc["crashes"][0]["exitcode"] == 43

    def test_supervised_rescale_without_faults(self):
        plan = _grouped_count()
        base = run_parallel(bursty_elements(), plan, 1)
        outcome = run_parallel_supervised(
            bursty_elements(), plan, 1, autoscale=_test_policy(),
        )
        assert outcome.restarts == 0
        assert _multiset(outcome) == _multiset(base)
        assert outcome.punctuations == base.punctuations
        assert outcome.resilience_doc()["rescales"] >= 2


# ---------------------------------------------------------------------------
# Serve: scale up instead of shedding
# ---------------------------------------------------------------------------


class TestServeElasticity:
    def _runtime(self, tmp_path, **kwargs):
        from repro.resilience.quarantine import QuarantineLedger
        from repro.serve.tenant import TenantRuntime

        ledger = QuarantineLedger(
            sidecar=os.path.join(tmp_path, "quarantine.jsonl")
        )
        return TenantRuntime("t1", str(tmp_path), ledger, **kwargs)

    def _flood(self, runtime, n, start=0):
        for i in range(start, start + n):
            runtime.accept_event(
                runtime.journal.length, Event(i, i + 1, 0, (i,))
            )

    def test_breach_scales_up_before_shedding(self, tmp_path):
        runtime = self._runtime(tmp_path, quota=8, max_slots=3)
        runtime.subscribe("q", "window=100|sort|count")
        self._flood(runtime, 20)
        assert runtime.counters["scale_ups"] >= 1
        assert runtime.counters["shed"] == 0
        assert runtime.slots > 1

    def test_sheds_only_after_every_slot_is_consumed(self, tmp_path):
        runtime = self._runtime(tmp_path, quota=8, max_slots=3)
        runtime.subscribe("q", "window=100|sort|count")
        self._flood(runtime, 200)
        assert runtime.slots == 3
        assert runtime.counters["scale_ups"] == 2
        assert runtime.counters["shed"] >= 1

    def test_elastic_tenant_sheds_less_than_rigid(self, tmp_path):
        elastic = self._runtime(
            os.path.join(tmp_path, "a"), quota=8, max_slots=3
        )
        rigid = self._runtime(os.path.join(tmp_path, "b"), quota=8)
        for runtime in (elastic, rigid):
            os.makedirs(os.path.dirname(runtime.journal.path),
                        exist_ok=True)
            runtime.subscribe("q", "window=100|sort|count")
            self._flood(runtime, 200)
        assert elastic.counters["shed"] < rigid.counters["shed"]

    def test_slots_retire_as_buffers_drain(self, tmp_path):
        runtime = self._runtime(tmp_path, quota=8, max_slots=3)
        runtime.subscribe("q", "window=100|sort|count")
        self._flood(runtime, 200)
        assert runtime.slots == 3
        runtime.accept_punctuation(runtime.journal.length, 500)
        assert runtime.slots == 1
        assert runtime.counters["scale_downs"] == 2

    def test_state_roundtrips_slots(self, tmp_path):
        runtime = self._runtime(tmp_path, quota=8, max_slots=3)
        runtime.subscribe("q", "window=100|sort|count")
        self._flood(runtime, 20)
        assert runtime.slots > 1
        state = runtime.as_state()
        assert state["slots"] == runtime.slots
        runtime.close()
        recovered = self._runtime(tmp_path, quota=8, max_slots=3)
        recovered.recover(state)
        assert recovered.slots == runtime.slots

    def test_max_slots_validation(self, tmp_path):
        with pytest.raises(ValueError):
            self._runtime(tmp_path, quota=8, max_slots=0)


# ---------------------------------------------------------------------------
# Framework + CLI specs
# ---------------------------------------------------------------------------


class TestFrameworkSpec:
    def _build(self):
        from repro.engine import DisorderedStreamable
        from repro.engine.operators.aggregates import Count
        from repro.workloads import load_dataset

        dataset = load_dataset("cloudlog", 2000)
        return (
            DisorderedStreamable.from_dataset(
                dataset, punctuation_frequency=500, reorder_latency=0
            )
            .tumbling_window(50)
            .to_streamables([0, 20, 100])
            .apply(lambda s: s.group_aggregate(Count()))
        )

    def test_streamables_run_accepts_auto(self):
        # Framework workers partition outputs, not keys: "auto" resolves
        # to clamp(#outputs, MIN, MAX) deterministically.
        reference = self._build().run()
        auto = self._build().run(parallel="auto:1-2")
        assert auto.parallel["workers"] == 2
        for i in range(3):
            assert [e.payload for e in auto.output_events(i)] == \
                [e.payload for e in reference.output_events(i)], i

    def test_streamables_auto_clamps_to_outputs(self):
        result = self._build().run(parallel="auto:1-8")
        assert result.parallel["workers"] == 3  # three outputs

    def test_streamables_rejects_bad_spec(self):
        with pytest.raises(QueryBuildError):
            self._build().run(parallel="bogus")
