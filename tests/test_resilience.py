"""Unit tests for the resilience layer's pieces in isolation.

End-to-end crash-recovery byte-identity lives in
``tests/test_chaos_recovery.py``; this file covers the mechanisms —
retry backoff, chaos-spec parsing, injector determinism, the quarantine
ledger, the load-shedding guard, and exactly-once delivery bookkeeping.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core import ImpatienceSorter
from repro.core.errors import (
    ChaosSpecError,
    LateEventError,
    MalformedEventError,
    ReplayDivergenceError,
    SupervisionExhaustedError,
)
from repro.core.late import LatePolicy, LateEventTracker
from repro.engine import DisorderedStreamable, Event
from repro.engine.event import Punctuation
from repro.resilience import (
    FaultInjector,
    InjectedCrashError,
    LoadSheddingGuard,
    MalformedEvent,
    QuarantineLedger,
    Reason,
    RetryPolicy,
    SorterSupervisor,
    TransientInjectedError,
    parse_chaos_spec,
    run_supervised,
)
from repro.resilience.degradation import DEGRADE_LATE_POLICY
from repro.resilience.supervisor import PipelineSupervisor, _DeliveryChannel
from repro.engine.graph import Pipeline, QueryNode
from repro.engine.operators.sink import Collector


def stream_of(times, punctuation_frequency=4, reorder_latency=3):
    return DisorderedStreamable.from_events(
        [Event(t) for t in times],
        punctuation_frequency=punctuation_frequency,
        reorder_latency=reorder_latency,
    )


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0,
                             jitter=0.0)
        assert [policy.delay(i) for i in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_is_deterministic_per_seed(self):
        a = [RetryPolicy(seed=7).delay(i) for i in range(5)]
        b = [RetryPolicy(seed=7).delay(i) for i in range(5)]
        c = [RetryPolicy(seed=8).delay(i) for i in range(5)]
        assert a == b
        assert a != c

    def test_jitter_stretches_within_bounds(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5)
        for i in range(20):
            assert 1.0 <= policy.delay(i) <= 1.5

    def test_transient_failures_use_injected_sleep(self):
        slept = []
        stream = stream_of(range(20))
        result = run_supervised(
            stream.to_streamable(),
            chaos="io:p=0.2", seed=1,
            retry=RetryPolicy(max_retries=50, jitter=0.0),
            sleep=slept.append,
        )
        assert result.retries == len(slept) > 0
        assert all(d > 0 for d in slept)

    def test_retry_budget_exhaustion_is_fatal(self):
        stream = stream_of(range(50))
        with pytest.raises(SupervisionExhaustedError, match="consecutive"):
            run_supervised(
                stream.to_streamable(),
                chaos="io:p=1.0", seed=0,
                retry=RetryPolicy(max_retries=3),
                sleep=lambda s: None,
            )

    def test_handles_classifies_timeouts_as_transient(self):
        policy = RetryPolicy()
        assert policy.handles(OSError("conn reset"))
        assert policy.handles(TimeoutError("deadline"))
        assert policy.handles(asyncio.TimeoutError())
        assert not policy.handles(ValueError("semantic"))
        narrow = RetryPolicy(retry_on=(ConnectionError,))
        assert narrow.handles(ConnectionResetError())
        assert not narrow.handles(TimeoutError())

    def test_deadline_expiry_preserves_seeded_backoff_schedule(self):
        # A source whose pulls 2 and 3 (consecutive) and 7 expire their
        # deadline must retry on exactly the schedule a twin policy with
        # the same seed produces: delay(0), delay(1) for the consecutive
        # pair, then delay(0) again — same RNG draws, same order.
        class DeadlineSource:
            def __init__(self, inner, fail_calls):
                self._it = iter(inner)
                self._fail = set(fail_calls)
                self._calls = 0

            def __iter__(self):
                return self

            def __next__(self):
                call = self._calls
                self._calls += 1
                if call in self._fail:
                    raise asyncio.TimeoutError(f"deadline at pull {call}")
                return next(self._it)

        stream = stream_of(range(12)).to_streamable()
        sink_node = QueryNode(
            Collector, ((stream.node, None),), name="collect"
        )

        def build():
            pipeline = Pipeline([sink_node])
            return pipeline, [pipeline.operator_for(sink_node)]

        slept = []
        supervisor = PipelineSupervisor(
            build,
            DeadlineSource(stream.source.elements(), {2, 3, 7}),
            retry=RetryPolicy(seed=11),
            sleep=slept.append,
        )
        result = supervisor.run()
        twin = RetryPolicy(seed=11)
        assert slept == [twin.delay(0), twin.delay(1), twin.delay(0)]
        assert result.retries == 3
        assert result.restarts == 0
        expected = stream_of(range(12)).to_streamable().collect().events
        assert result.events == expected


class TestChaosSpec:
    def test_parses_multi_clause_spec(self):
        spec = parse_chaos_spec(
            "io:p=0.01,limit=5;crash:punct=3+9,limit=2;"
            "malform:p=0.1;regress:p=0.2,delta=4"
        )
        assert spec.io_p == 0.01 and spec.io_limit == 5
        assert spec.crash_puncts == frozenset({3, 9})
        assert spec.crash_limit == 2
        assert spec.malform_p == 0.1
        assert spec.regress_delta == 4

    @pytest.mark.parametrize("bad", [
        "", "  ", "unknownfault:p=0.1", "io:q=0.1", "io:p=nope",
        "io:p=1.5", "crash", "crash:punct=0", "crash:punct=a+b",
        "io:p", "drop:p=-0.1",
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ChaosSpecError):
            parse_chaos_spec(bad)

    def test_net_clauses_accumulate(self):
        spec = parse_chaos_spec(
            "net:p=0.1,mode=disconnect;"
            "net:p=0.05,mode=malform,tenant=acme,limit=3;"
            "io:p=0.01"
        )
        assert spec.net == [
            {"p": 0.1, "mode": "disconnect", "tenant": None, "limit": None},
            {"p": 0.05, "mode": "malform", "tenant": "acme", "limit": 3},
        ]
        assert "net" in repr(spec)

    @pytest.mark.parametrize("bad", [
        "net:p=0.1", "net:p=0.1,mode=flood", "net:mode=dup",
        "net:p=2,mode=dup", "net:p=0.1,mode=dup,limit=0",
    ])
    def test_rejects_bad_net_clauses(self, bad):
        with pytest.raises(ChaosSpecError):
            parse_chaos_spec(bad)

    def test_spec_passthrough(self):
        spec = parse_chaos_spec("io:p=0.5")
        assert parse_chaos_spec(spec) is spec


class TestFaultInjector:
    def elements(self, n=40, punct_every=5):
        out = []
        for i in range(n):
            out.append(Event(i))
            if (i + 1) % punct_every == 0:
                out.append(Punctuation(i))
        return out

    def test_same_seed_same_faults(self):
        def collect(seed):
            inj = FaultInjector("drop:p=0.2;dup:p=0.2", seed)
            return list(inj.wrap(self.elements())), dict(inj.fired)

        a_elems, a_fired = collect(5)
        b_elems, b_fired = collect(5)
        c_elems, _ = collect(6)
        assert a_elems == b_elems and a_fired == b_fired
        assert a_elems != c_elems

    def test_transient_io_raises_before_consuming(self):
        inj = FaultInjector("io:p=1.0,limit=1", seed=0)
        wrapped = inj.wrap(self.elements(4, punct_every=99))
        with pytest.raises(TransientInjectedError):
            next(wrapped)
        # Nothing was lost: the retry sees the full stream.
        assert [e.sync_time for e in wrapped] == [0, 1, 2, 3]

    def test_crash_fires_after_nth_punctuation(self):
        inj = FaultInjector("crash:punct=2", seed=0)
        wrapped = inj.wrap(self.elements(20, punct_every=5))
        seen = []
        with pytest.raises(InjectedCrashError, match="#2"):
            for element in wrapped:
                seen.append(element)
        # Both punctuations were delivered before the crash.
        assert sum(type(e) is Punctuation for e in seen) == 2
        # The iterator is restartable and loses nothing after the crash.
        rest = list(wrapped)
        assert len(seen) + len(rest) == len(self.elements(20, punct_every=5))

    def test_malform_injects_additional_element(self):
        inj = FaultInjector("malform:p=1.0,limit=1", seed=0)
        out = list(inj.wrap(self.elements(3, punct_every=99)))
        assert isinstance(out[0], MalformedEvent)
        # The real event follows: injection is additive, not destructive.
        assert [e.sync_time for e in out[1:]] == [0, 1, 2]

    def test_limit_bounds_firing(self):
        inj = FaultInjector("drop:p=1.0,limit=2", seed=0)
        out = list(inj.wrap(self.elements(10, punct_every=99)))
        assert inj.fired["drop"] == 2
        assert len(out) == 8

    def test_wrap_operator_injects_crash(self):
        class FakeOp:
            def instrument(self, wrappers):
                self.on_event = wrappers["on_event"](lambda e: None)
                return {}

        op = FakeOp()
        FaultInjector("op:p=1.0,limit=1", seed=0).wrap_operator(op)
        with pytest.raises(InjectedCrashError):
            op.on_event("x")
        op.on_event("y")  # limit reached: passes through

    def test_net_fault_is_seeded_and_tenant_scoped(self):
        spec = (
            "net:p=0.3,mode=disconnect;net:p=0.3,mode=malform,tenant=acme"
        )

        def roll(seed, tenant, n=50):
            inj = FaultInjector(spec, seed)
            return [inj.net_fault(tenant) for _ in range(n)], dict(inj.fired)

        a_modes, a_fired = roll(3, "acme")
        b_modes, b_fired = roll(3, "acme")
        assert a_modes == b_modes and a_fired == b_fired
        assert "net:disconnect" in a_fired and "net:malform" in a_fired
        # Another tenant never sees acme's malform clause.
        other_modes, other_fired = roll(3, "globex")
        assert "net:malform" not in other_fired
        assert set(other_modes) <= {None, "disconnect"}

    def test_net_fault_respects_limit(self):
        inj = FaultInjector("net:p=1.0,mode=dup,limit=2", seed=0)
        modes = [inj.net_fault("t") for _ in range(5)]
        assert modes == ["dup", "dup", None, None, None]
        assert inj.fired["net:dup"] == 2


class TestQuarantineLedger:
    def test_records_with_reason_and_context(self):
        ledger = QuarantineLedger()
        entry = ledger.record(Reason.MALFORMED, "garbage", offset=7)
        assert entry.seq == 0
        assert entry.context == {"offset": 7}
        assert ledger.count(Reason.MALFORMED) == 1
        doc = ledger.as_dict()
        assert doc["total"] == 1
        assert doc["by_reason"] == {"malformed": 1}
        assert doc["entries"][0]["element"] == "'garbage'"

    def test_bounded_entries_unbounded_counts(self):
        ledger = QuarantineLedger(max_entries=2)
        for i in range(5):
            ledger.record(Reason.DUPLICATE, i)
        assert len(ledger) == 2
        assert ledger.total == 5
        assert ledger.as_dict()["retained"] == 2

    def test_clear_resets_everything(self):
        ledger = QuarantineLedger()
        ledger.record(Reason.LATE_EVENT, 3)
        ledger.clear()
        assert ledger.total == 0 and len(ledger) == 0
        assert ledger.record(Reason.LATE_EVENT, 4).seq == 0

    def test_rotation_evicts_oldest_first(self):
        ledger = QuarantineLedger(max_entries=3)
        for i in range(7):
            ledger.record(Reason.MALFORMED, i)
        assert [entry.seq for entry in ledger] == [4, 5, 6]
        assert [entry.element for entry in ledger] == [4, 5, 6]
        assert ledger.rotated == 4
        assert ledger.total == 7
        doc = ledger.as_dict()
        assert doc["retained"] == 3 and doc["rotated"] == 4

    def test_rotation_appends_jsonl_sidecar(self, tmp_path):
        sidecar = tmp_path / "deadletter.jsonl"
        ledger = QuarantineLedger(max_entries=2, sidecar=sidecar)
        for i in range(5):
            ledger.record(Reason.DUPLICATE, i, offset=i * 10)
        lines = sidecar.read_text().splitlines()
        assert len(lines) == 3
        docs = [json.loads(line) for line in lines]
        assert [d["seq"] for d in docs] == [0, 1, 2]
        assert all(d["reason"] == Reason.DUPLICATE for d in docs)
        assert docs[2]["context"] == {"offset": 20}
        # in-memory window still holds the newest two
        assert [entry.seq for entry in ledger] == [3, 4]
        assert ledger.as_dict()["sidecar"] == str(sidecar)

    def test_clear_resets_rotation_counter(self):
        ledger = QuarantineLedger(max_entries=1)
        ledger.record(Reason.MALFORMED, "a")
        ledger.record(Reason.MALFORMED, "b")
        assert ledger.rotated == 1
        ledger.clear()
        assert ledger.rotated == 0

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError, match="max_entries"):
            QuarantineLedger(max_entries=0)


class TestLateQuarantine:
    def test_raise_policy_routes_to_ledger(self):
        ledger = QuarantineLedger()
        tracker = LateEventTracker(LatePolicy.RAISE, quarantine=ledger)
        assert tracker.admit(3, punctuation_time=10) is None
        assert tracker.quarantined == 1
        assert ledger.count(Reason.LATE_EVENT) == 1
        assert ledger.entries[0].context["watermark"] == 10

    def test_raise_policy_without_ledger_still_raises(self):
        tracker = LateEventTracker(LatePolicy.RAISE)
        with pytest.raises(LateEventError):
            tracker.admit(3, punctuation_time=10)

    def test_completeness_counts_quarantined_as_excluded(self):
        ledger = QuarantineLedger()
        tracker = LateEventTracker(LatePolicy.RAISE, quarantine=ledger)
        tracker.admit(1, punctuation_time=5)
        assert tracker.preserved == 0
        assert tracker.completeness(10) == 0.9

    def test_sorter_accepts_quarantine_kwarg(self):
        ledger = QuarantineLedger()
        sorter = ImpatienceSorter(
            late_policy=LatePolicy.RAISE, quarantine=ledger
        )
        sorter.extend([5, 6])
        sorter.on_punctuation(5)
        assert sorter.insert(2) is False
        assert ledger.count(Reason.LATE_EVENT) == 1


class TestLoadSheddingGuard:
    def test_requires_exactly_one_bound(self):
        with pytest.raises(ValueError, match="exactly one"):
            LoadSheddingGuard()
        with pytest.raises(ValueError, match="exactly one"):
            LoadSheddingGuard(max_buffered_events=5, max_buffered_mb=1)

    def test_mb_bound_converts_to_events(self):
        guard = LoadSheddingGuard(max_buffered_mb=1.0, bytes_per_event=1024)
        assert guard.max_buffered_events == 1024

    def test_early_punctuation_decision(self):
        class FakePipeline:
            def buffered_events(self):
                return 100

        guard = LoadSheddingGuard(max_buffered_events=10)
        assert guard.check(FakePipeline(), high_watermark=55) == 55
        assert guard.decisions[0].kind == "early-punctuation"
        assert guard.decisions[0].buffered == 100
        # Under the bound: no decision.
        guard2 = LoadSheddingGuard(max_buffered_events=1000)
        assert guard2.check(FakePipeline(), high_watermark=55) is None
        assert guard2.decisions == []

    def test_degrade_mode_flips_raise_to_adjust(self):
        sorter = ImpatienceSorter(late_policy=LatePolicy.RAISE)

        class FakeOp:
            def __init__(self, s):
                self.sorter = s

        class FakePipeline:
            operators = [FakeOp(sorter)]

            def buffered_events(self):
                return 100

        guard = LoadSheddingGuard(
            max_buffered_events=10, mode=DEGRADE_LATE_POLICY
        )
        assert guard.check(FakePipeline(), high_watermark=1) is None
        assert sorter.late.policy is LatePolicy.ADJUST
        assert guard.as_dicts()[0]["detail"]["sorters_degraded"] == 1

    def test_guard_forces_punctuation_under_starvation(self):
        # No periodic punctuations at all: only the guard's event-interval
        # check can cap the reorder buffer.
        def starved():
            return stream_of(
                range(100), punctuation_frequency=None, reorder_latency=0
            ).to_streamable()

        baseline = run_supervised(starved())
        guard = LoadSheddingGuard(max_buffered_events=10, check_interval=8)
        guarded = run_supervised(starved(), guard=guard)
        # The guard fired, and shedding did not change the output (the
        # stream is ordered, so early punctuations lose nothing).
        assert guard.decisions
        assert guarded.events == baseline.events
        doc = guarded.resilience_doc()
        assert doc["degradations"][0]["kind"] == "early-punctuation"

    def test_guard_decisions_survive_crash_recovery(self):
        def starved():
            return stream_of(
                range(100), punctuation_frequency=None, reorder_latency=0
            ).to_streamable()

        plain_guard = LoadSheddingGuard(
            max_buffered_events=10, check_interval=8
        )
        baseline = run_supervised(starved(), guard=plain_guard)
        crash_guard = LoadSheddingGuard(
            max_buffered_events=10, check_interval=8
        )
        # Forced punctuations make ingress punctuation counting moot, so
        # crash on an event via the operator path instead: use io faults
        # plus a mid-stream crash armed on the final ingress punctuation.
        crashed = run_supervised(
            starved(), guard=crash_guard, chaos="io:p=0.05", seed=9,
            sleep=lambda s: None,
        )
        assert crashed.events == baseline.events
        # Replay regenerated exactly the same decision log.
        assert [d.as_dict() for d in crash_guard.decisions] == \
            [d.as_dict() for d in plain_guard.decisions]


#: One raw-pair stream with a malformed element at input index 1.
RAW = [
    ("event", 0), "garbage", ("event", 1), ("punct", 1),
    ("event", 2), ("punct", 2), ("event", 3), ("punct", 3),
]


def supervise_pipeline(raw, wrap=iter, **kwargs):
    """``PipelineSupervisor`` over ``raw`` as events and punctuations;
    returns ``(result, delivered output)``."""
    rich = [
        MalformedEvent(e) if e == "garbage"
        else Punctuation(e[1]) if e[0] == "punct" else Event(e[1])
        for e in raw
    ]
    stream = stream_of([]).to_streamable()
    sink_node = QueryNode(Collector, ((stream.node, None),), name="collect")

    def build():
        pipeline = Pipeline([sink_node])
        return pipeline, [pipeline.operator_for(sink_node)]

    result = PipelineSupervisor(build, wrap(rich), **kwargs).run()
    return result, result.events


def supervise_sorter(raw, wrap=iter, **kwargs):
    """``SorterSupervisor`` over ``raw``; returns ``(result, output)``."""
    result = SorterSupervisor(**kwargs).run(wrap(raw))
    return result, result.output


class FailingSecondPull:
    """Iterates ``elements``, raising ``exc`` (before consuming anything)
    on the second pull only."""

    def __init__(self, elements, exc):
        self._it = iter(elements)
        self._exc = exc
        self._calls = 0

    def __iter__(self):
        return self

    def __next__(self):
        self._calls += 1
        if self._calls == 2:
            raise self._exc
        return next(self._it)


@pytest.mark.parametrize("supervise", [supervise_pipeline, supervise_sorter],
                         ids=["pipeline", "sorter"])
class TestOneSupervisionLoop:
    """Both supervisors run the same loop, so they agree on retry and
    on what the quarantine ledger records."""

    @pytest.mark.parametrize("exc, retry_on", [
        (ValueError("flaky parse"), (OSError, ValueError)),
        (asyncio.TimeoutError(), None),
    ], ids=["custom-retry-on", "asyncio-timeout"])
    def test_retry_policy_classifies_source_failures(self, supervise, exc,
                                                     retry_on):
        _, expected = supervise(RAW, quarantine=True)
        slept = []
        result, output = supervise(
            RAW, wrap=lambda elements: FailingSecondPull(elements, exc),
            quarantine=True, sleep=slept.append,
            retry=RetryPolicy(seed=5, retry_on=retry_on),
        )
        assert (result.retries, result.restarts) == (1, 0)
        assert slept == [RetryPolicy(seed=5).delay(0)]
        assert output == expected

    def test_recovered_ledger_matches_uninterrupted(self, supervise):
        plain, expected = supervise(RAW, quarantine=True)
        recovered, output = supervise(
            RAW, quarantine=True, chaos="crash:punct=2", seed=0,
        )
        assert recovered.restarts == 1
        assert output == expected
        doc = recovered.ledger.as_dict()
        assert doc == plain.ledger.as_dict()
        # The malformed element is recorded at its own journal index.
        [entry] = doc["entries"]
        assert entry["context"]["offset"] == 1


class TestExactlyOnceDelivery:
    def test_supervised_matches_plain_collect(self):
        stream = stream_of(range(100))
        expected = stream.to_streamable().collect().events
        result = run_supervised(stream_of(range(100)).to_streamable())
        assert result.events == expected
        assert result.completed
        assert result.restarts == 0

    def test_duplicate_ingress_suppressed_and_recorded(self):
        stream = stream_of(range(40))
        expected = stream.to_streamable().collect().events
        result = run_supervised(
            stream_of(range(40)).to_streamable(),
            chaos="dup:p=0.3", seed=2, quarantine=True,
            sleep=lambda s: None,
        )
        assert result.events == expected
        assert result.duplicates_suppressed > 0
        assert result.ledger.count(Reason.DUPLICATE) == \
            result.duplicates_suppressed

    def test_malformed_without_quarantine_is_fatal(self):
        with pytest.raises(MalformedEventError):
            run_supervised(
                stream_of(range(40)).to_streamable(),
                chaos="malform:p=0.5", seed=0,
            )

    def test_restart_budget_exhaustion(self):
        with pytest.raises(SupervisionExhaustedError, match="restarts"):
            run_supervised(
                stream_of(range(100)).to_streamable(),
                chaos="crash:every=1", seed=0, max_restarts=2,
            )


class TestDeliveryChannel:
    """The exactly-once ledger, driven directly: no process, no race."""

    @staticmethod
    def stream(n):
        return [Event(t, t + 1, t % 3, (t,)) for t in range(n)]

    def test_replayed_prefix_is_suppressed_once_each(self):
        seen = []
        channel = _DeliveryChannel(seen.append)
        stream = self.stream(10)
        prefix = stream[:4]
        for event in prefix:
            channel.accept_event(event)
        channel.accept_punctuation(Punctuation(3))
        # The attempt dies; the next one replays the whole stream.
        channel.begin_attempt()
        for event in stream:
            channel.accept_event(event)
        channel.accept_punctuation(Punctuation(3))
        channel.accept_punctuation(Punctuation(9))
        channel.accept_flush()
        assert channel.suppressed == len(prefix)
        assert seen == stream
        assert channel.events == stream
        assert channel.punctuations == [3, 9]
        assert channel.completed

    def test_diverging_replay_raises(self):
        channel = _DeliveryChannel()
        for event in self.stream(3):
            channel.accept_event(event)
        channel.accept_punctuation(Punctuation(2))
        channel.begin_attempt()
        channel.accept_event(Event(0, 1, 0, (0,)))
        with pytest.raises(ReplayDivergenceError, match="output #1"):
            channel.accept_event(Event(1, 2, 1, (99,)))
        with pytest.raises(ReplayDivergenceError, match="punctuation #0"):
            channel.accept_punctuation(Punctuation(5))
        assert channel.suppressed == 1


class TestSorterSupervisorUnits:
    def test_checkpoints_truncate_journal(self):
        elements = []
        for i in range(100):
            elements.append(("event", i))
            if (i + 1) % 10 == 0:
                elements.append(("punct", i - 5))
        expected = []
        plain = ImpatienceSorter()
        for kind, value in elements:
            if kind == "event":
                plain.insert(value)
            else:
                expected.extend(plain.on_punctuation(value))
        expected.extend(plain.flush())
        sup = SorterSupervisor(checkpoint_every=1)
        result = sup.run(elements)
        assert result.checkpoints == 10
        # Journal holds only the delta since the last checkpoint.
        assert result.journal_len < len(elements) / 2
        assert result.output == expected

    def test_malformed_pair_quarantined(self):
        elements = [("event", 1), "garbage", ("event", 2), ("punct", 5)]
        sup = SorterSupervisor(quarantine=True)
        result = sup.run(elements)
        assert result.output == [1, 2]
        assert result.ledger.count(Reason.MALFORMED) == 1

    def test_regressing_punctuation_suppressed(self):
        elements = [
            ("event", 1), ("punct", 5), ("punct", 2), ("event", 7),
            ("punct", 7),
        ]
        sup = SorterSupervisor(quarantine=True)
        result = sup.run(elements)
        assert result.output == [1, 7]
        assert result.punctuations_suppressed == 1
        assert result.ledger.count(Reason.PUNCTUATION_REGRESSION) == 1
