"""Tests for the multi-process parallel shard runtime (repro.parallel).

The runtime's core invariant — ``run_parallel(ingress, plan, N)`` is
byte-identical to the single-process
``shard_disordered(stream, query, N)`` plan over the same element
sequence — is asserted here across compiled shapes, merge strategies,
late policies, memory budgets and worker counts, alongside unit tests
for the shared-memory ring transport, crash and failure handling, and
the observability snapshot's ``parallel`` section.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal

import numpy as np
import pytest

from repro.core.errors import (
    LateEventError,
    QueryBuildError,
    WorkerCrashError,
)
from repro.core.impatience import ImpatienceSorter
from repro.core.late import LatePolicy
from repro.engine import (
    DisorderedStreamable,
    Event,
    Punctuation,
    QueryPlan,
    Streamable,
)
from repro.engine.batch import EventBatch
from repro.engine.compiler import UnsupportedPlanError
from repro.engine.kernels import field
from repro.engine.operators.aggregates import Avg, Count, Max, Min, Sum
from repro.engine.sharded import shard_disordered
from repro.parallel import CompiledShardPlan, ShmRing, run_parallel
from repro.parallel import exchange
from repro.parallel.shm import RingClosedError
from tests import item_events


def _key(event):
    return (event.sync_time, event.other_time, event.key, event.payload)


def _assert_identical(result, reference, tag=""):
    assert list(map(_key, result.events)) == \
        list(map(_key, reference.events)), tag
    assert result.punctuations == reference.punctuations, tag


def disordered_elements(seed=7, n=800, key_range=12, ts_range=300,
                        punct_every=40, lag=8, payload=None):
    """A shuffled-window disordered stream with interleaved punctuations.

    A slice of each window's events is held back until after that
    window's punctuation, so streams carry genuine stragglers: with a
    small ``lag`` some arrive below the watermark (late), with a large
    ``lag`` they are disordered but still on time.
    """
    rng = random.Random(seed)
    pairs = sorted(
        (rng.randrange(ts_range), rng.randrange(key_range))
        for _ in range(n)
    )
    elements = []
    window = []
    held = []
    high = None
    for i, (t, k) in enumerate(pairs):
        event = Event(
            t, t + 1, key=k, payload=payload(t, k) if payload else ()
        )
        if rng.random() < 0.1:
            held.append(event)
        else:
            window.append(event)
        high = t if high is None or t > high else high
        if i % punct_every == punct_every - 1:
            rng.shuffle(window)
            elements.extend(window)
            elements.append(Punctuation(high - lag))
            window = held  # stragglers surface after the punctuation
            held = []
    window.extend(held)
    rng.shuffle(window)
    elements.extend(window)
    return elements


def grouped_count(stream):
    return stream.tumbling_window(10).group_aggregate(Count())


def _sync(event):
    return event.sync_time


AGGREGATES = {"count": Count, "sum": Sum, "avg": Avg, "min": Min, "max": Max}


def _aggregate(agg):
    return Count() if agg == "count" else AGGREGATES[agg](field(0))


def compiled_grouped(window=10, agg="count", policy=LatePolicy.DROP):
    """The §IV push-down grouped aggregate as a compiled shard plan:
    ``TumblingWindow → Sort → GroupedWindowAggregate``."""
    return CompiledShardPlan(
        QueryPlan().tumbling_window(window).sort(late_policy=policy)
        .group_aggregate(_aggregate(agg))
    )


def pushdown_reference(elements, workers, window=10, agg="count",
                       policy=LatePolicy.DROP):
    """``shard_disordered`` over the same push-down plan: the window is
    aligned before routing (it is per-event, so routing commutes with
    it), then every shard sorts under ``policy`` and aggregates."""
    sorter = lambda: ImpatienceSorter(  # noqa: E731
        key=_sync, late_policy=policy
    )
    return shard_disordered(
        Streamable.from_elements(list(elements)).tumbling_window(window),
        lambda s: s.group_aggregate(_aggregate(agg)), workers,
        sorter=sorter,
    ).collect()


# ---------------------------------------------------------------------------
# Shared-memory ring transport
# ---------------------------------------------------------------------------

class TestShmRing:
    def test_frame_roundtrip(self):
        ring = ShmRing(1 << 12)
        try:
            ring.write(3, b"hello")
            ring.write(5)
            kind, payload = ring.try_read()
            assert (kind, bytes(payload)) == (3, b"hello")
            kind, payload = ring.try_read()
            assert (kind, bytes(payload)) == (5, b"")
            assert ring.try_read() is None
        finally:
            ring.unlink()

    def test_wrap_stress_sequence_integrity(self):
        """Mixed frame sizes at a small capacity force many wraps; every
        frame must come back intact and in order."""
        ring = ShmRing(1 << 12)
        rng = random.Random(3)
        sizes = [rng.choice([0, 8, 24, 200, 1000]) for _ in range(500)]
        sent = 0
        received = 0
        try:
            while received < len(sizes):
                while sent < len(sizes) and ring.try_write(
                    1, sent.to_bytes(4, "little") * (sizes[sent] // 4 + 1)
                ):
                    sent += 1
                frame = ring.try_read()
                assert frame is not None
                kind, payload = frame
                assert kind == 1
                assert bytes(payload[:4]) == received.to_bytes(4, "little")
                assert len(payload) == 4 * (sizes[received] // 4 + 1)
                received += 1
        finally:
            ring.unlink()

    def test_payload_view_survives_until_next_read(self):
        """The head is published on the *next* read: a producer must not
        be able to overwrite a frame the consumer is still decoding."""
        ring = ShmRing(1 << 12)
        big = bytes(range(256)) * 14   # ~3.5k of the 4k ring
        try:
            assert ring.try_write(1, big)
            kind, payload = ring.try_read()
            # Slot not yet released: an equally big frame cannot fit.
            assert not ring.try_write(1, big)
            assert bytes(payload) == big
            # The next read (even on an empty ring) releases the slot.
            assert ring.try_read() is None
            assert ring.try_write(1, big)
        finally:
            ring.unlink()

    def test_reserve_in_place_fill(self):
        ring = ShmRing(1 << 12)

        def fill(view):
            view[:] = b"ab" * 8

        try:
            ring.write(2, reserve=(16, fill))
            kind, payload = ring.try_read()
            assert (kind, bytes(payload)) == (2, b"ab" * 8)
        finally:
            ring.unlink()

    def test_oversized_frame_rejected(self):
        ring = ShmRing(1 << 12)
        try:
            with pytest.raises(ValueError, match="exceeds ring size"):
                ring.try_write(1, b"x" * (1 << 13))
        finally:
            ring.unlink()

    def test_dead_peer_surfaces_ring_closed(self):
        ring = ShmRing(1 << 12)
        try:
            with pytest.raises(RingClosedError):
                ring.read(alive=lambda: False)
        finally:
            ring.unlink()

    def test_full_ring_write_times_out(self):
        ring = ShmRing(1 << 12)
        payload = b"x" * 1024
        try:
            while ring.try_write(1, payload):
                pass
            with pytest.raises(TimeoutError):
                ring.write(1, payload, timeout=0.05)
        finally:
            ring.unlink()


class TestExchange:
    def test_event_batch_roundtrip(self):
        ring = ShmRing(1 << 14)
        batch = EventBatch(
            [5, 3, 9], [6, 4, 10], [1, 2, 1], [[7, 8, 9], [0, 1, 2]]
        )
        try:
            exchange.write_batch(ring, batch)
            kind, payload = ring.try_read()
            assert kind == exchange.DATA
            out = exchange.read_batch(payload, copy=True)
            assert out.sync_times.tolist() == [5, 3, 9]
            assert out.other_times.tolist() == [6, 4, 10]
            assert out.keys.tolist() == [1, 2, 1]
            assert [col.tolist() for col in out.payload_columns] == \
                [[7, 8, 9], [0, 1, 2]]
        finally:
            ring.unlink()

    def test_pickled_roundtrip(self):
        ring = ShmRing(1 << 14)
        items = [Event(1, 2, key=3, payload=(4,)), Punctuation(5)]
        try:
            exchange.write_pickled(ring, exchange.PICKLE, items)
            kind, payload = ring.try_read()
            assert kind == exchange.PICKLE
            assert exchange.read_pickled(payload) == items
        finally:
            ring.unlink()


# ---------------------------------------------------------------------------
# Equivalence with the single-process sharded plan
# ---------------------------------------------------------------------------

WORKER_SWEEP = [1, 2, 3, 4]


class TestEquivalence:
    @pytest.mark.parametrize("workers", WORKER_SWEEP)
    @pytest.mark.parametrize("merge", ["auto", "tree"])
    def test_grouped_kernel_matches_sharded(self, workers, merge):
        """Every vectorized aggregate under DROP and ADJUST is
        byte-identical to the single-process push-down plan."""
        elements = disordered_elements(
            seed=workers, lag=30, payload=lambda t, k: (t % 9, 1)
        )
        for agg in AGGREGATES:
            for policy in (LatePolicy.DROP, LatePolicy.ADJUST):
                tag = f"{agg}/{policy.name} w={workers} merge={merge}"
                result = run_parallel(
                    list(elements), compiled_grouped(agg=agg, policy=policy),
                    workers, batch_size=64, merge=merge,
                )
                _assert_identical(
                    result,
                    pushdown_reference(
                        elements, workers, agg=agg, policy=policy
                    ),
                    tag,
                )
                assert result.completed, tag
                assert result.parallel["workers"] == workers, tag
                if merge == "tree":
                    assert result.parallel["fast_merge_rounds"] == 0, tag

    @pytest.mark.parametrize("workers", [1, 3])
    def test_row_plan_matches_sharded(self, workers):
        """The compiled shards equal the row plan sharded in one
        process over the disordered stream."""
        elements = disordered_elements(seed=2, lag=30)
        reference = shard_disordered(
            DisorderedStreamable.from_elements(list(elements))
            .tumbling_window(10),
            lambda s: s.group_aggregate(Count()), workers,
        ).collect()
        result = run_parallel(
            list(elements), compiled_grouped(), workers, batch_size=64
        )
        _assert_identical(result, reference, f"row w={workers}")

    @pytest.mark.parametrize("policy", [LatePolicy.DROP, LatePolicy.ADJUST])
    @pytest.mark.parametrize("agg", ["count", "sum", "avg", "min", "max"])
    def test_late_policies_and_aggregates(self, policy, agg):
        elements = disordered_elements(
            seed=23, n=600, lag=10, payload=lambda t, k: (t % 9, 1)
        )
        reference = pushdown_reference(elements, 3, agg=agg, policy=policy)
        result = run_parallel(
            list(elements), compiled_grouped(agg=agg, policy=policy), 3,
            batch_size=64,
        )
        _assert_identical(result, reference, f"{policy.name}/{agg}")
        if policy is LatePolicy.DROP:
            assert sum(
                s["late_dropped"] for s in result.parallel["shards"]
            ) > 0
        else:
            assert sum(
                s["late_adjusted"] for s in result.parallel["shards"]
            ) > 0

    def test_avg_payloads_are_row_engine_floats(self):
        elements = disordered_elements(
            seed=29, n=400, lag=30, payload=lambda t, k: (t % 7, 1)
        )
        result = run_parallel(
            list(elements), compiled_grouped(agg="avg"), 2, batch_size=64,
        )
        assert result.events
        assert all(isinstance(e.payload, float) for e in result.events)

    def test_session_window_row_plan(self):
        query = lambda s: s.session_window(15)  # noqa: E731
        elements = disordered_elements(seed=9, n=500, lag=40)
        reference = shard_disordered(
            DisorderedStreamable.from_elements(list(elements)), query, 3
        ).collect()
        result = run_parallel(
            list(elements),
            CompiledShardPlan(QueryPlan().sort().session_window(15)), 3,
            batch_size=64,
        )
        _assert_identical(result, reference, "sessions")
        assert len(result.events) > 0

    def test_columnar_ingress_matches_row_ingress(self):
        """Whole EventBatch blocks route vectorized to the same result
        as the equivalent per-event stream."""
        elements = disordered_elements(seed=31, n=600, lag=30)
        rows = []
        blocks = []
        for element in elements:
            if isinstance(element, Event):
                rows.append(element)
            else:
                if rows:
                    blocks.append(EventBatch(
                        [e.sync_time for e in rows],
                        [e.other_time for e in rows],
                        [e.key for e in rows],
                        [],
                    ))
                    rows = []
                blocks.append(element)
        if rows:
            blocks.append(EventBatch(
                [e.sync_time for e in rows],
                [e.other_time for e in rows],
                [e.key for e in rows],
                [],
            ))
        reference = run_parallel(
            list(elements), compiled_grouped(), 3, batch_size=64
        )
        result = run_parallel(blocks, compiled_grouped(), 3)
        _assert_identical(result, reference, "columnar ingress")

    def test_pre_alignment_matches_pushdown_plan(self):
        """The compiled plan aligns windows before the sort (§IV):
        identical to the single-process push-down query, and distinct
        from the post-sort alignment, under aggressive lateness."""
        elements = disordered_elements(seed=13, n=700, lag=3)
        reference = (
            DisorderedStreamable.from_elements(list(elements))
            .tumbling_window(10)
            .to_streamable()
            .group_aggregate(Count())
            .collect()
        )
        result = run_parallel(
            list(elements), compiled_grouped(), 1, batch_size=64,
        )
        _assert_identical(result, reference, "push-down")
        post = shard_disordered(
            DisorderedStreamable.from_elements(list(elements)),
            grouped_count, 1,
        ).collect()
        assert sorted(map(_key, post.events)) != \
            sorted(map(_key, result.events))

    def test_raise_policy_crosses_process_boundary(self):
        elements = disordered_elements(seed=11, n=600, lag=5)
        with pytest.raises(LateEventError) as row_err:
            pushdown_reference(elements, 2, policy=LatePolicy.RAISE)
        with pytest.raises(LateEventError) as par_err:
            run_parallel(
                list(elements), compiled_grouped(policy=LatePolicy.RAISE),
                2, batch_size=64,
            )
        assert par_err.value.event_time == row_err.value.event_time
        assert par_err.value.punctuation_time == \
            row_err.value.punctuation_time

    def test_rejects_bad_arguments(self):
        with pytest.raises(QueryBuildError):
            run_parallel([], compiled_grouped(), 0)
        with pytest.raises(QueryBuildError):
            run_parallel([], compiled_grouped(), 2, merge="bogus")


# ---------------------------------------------------------------------------
# Crash and failure handling
# ---------------------------------------------------------------------------

def _kill_a_worker_after_first_punctuation(elements, workers):
    """Yield ``elements``; once the first punctuation has been routed,
    SIGKILL one of the run's forked workers."""
    killed = False
    for element in elements:
        yield element
        if not killed and isinstance(element, Punctuation):
            children = multiprocessing.active_children()
            assert len(children) == workers
            os.kill(children[0].pid, signal.SIGKILL)
            killed = True


class TestCrashRecovery:
    def test_worker_crash_carries_journal_offset(self):
        elements = disordered_elements(seed=5, n=600, lag=8, punct_every=30)
        first_punct = next(
            i for i, e in enumerate(elements) if isinstance(e, Punctuation)
        )
        with pytest.raises(WorkerCrashError) as err:
            run_parallel(
                _kill_a_worker_after_first_punctuation(elements, 3),
                compiled_grouped(20), 3, batch_size=64,
            )
        crash = err.value
        assert crash.shard in range(3)
        assert crash.exitcode == -signal.SIGKILL
        # Acknowledged through the first round, or not at all yet.
        assert crash.journal_offset in (-1, first_punct + 1)

    @pytest.mark.parametrize("failure", ["crash", "late"])
    def test_failed_run_leaves_no_live_child(self, failure):
        """Whether a worker dies or raises, the surviving workers are
        terminated and joined before ``run_parallel`` raises."""
        if failure == "crash":
            elements = disordered_elements(
                seed=5, n=600, lag=8, punct_every=30
            )
            with pytest.raises(WorkerCrashError):
                run_parallel(
                    _kill_a_worker_after_first_punctuation(elements, 2),
                    compiled_grouped(20), 2, batch_size=64,
                )
        else:
            plan = (
                QueryPlan().where(field(0) >= 0).tumbling_window(10)
                .sort(late_policy=LatePolicy.RAISE).distinct()
            )
            with pytest.raises(LateEventError):
                run_parallel(
                    _HEAD + _TAIL, CompiledShardPlan(plan), 2,
                    batch_size=8,
                )
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Framework and observability surfaces
# ---------------------------------------------------------------------------

class TestObservabilitySection:
    def test_snapshot_carries_parallel_doc(self):
        from repro.observability import MetricsRegistry

        elements = disordered_elements(seed=1, n=300, lag=30)
        result = run_parallel(
            list(elements), compiled_grouped(), 2, batch_size=64
        )
        snapshot = MetricsRegistry(trace=False).snapshot(
            parallel=result.parallel
        )
        assert snapshot.parallel["workers"] == 2
        assert len(snapshot.parallel["shards"]) == 2
        for stats in snapshot.parallel["shards"]:
            assert stats["plan"] == "compiled"
            assert stats["events_in"] >= 0
            assert isinstance(stats["runs_peak"], int)
        assert '"parallel"' in snapshot.to_json()

    def test_accounting_balances(self):
        elements = disordered_elements(seed=1, n=300, lag=30)
        result = run_parallel(
            list(elements), compiled_grouped(), 2, batch_size=64
        )
        doc = result.parallel
        assert doc["journal_elements"] == len(elements)
        assert doc["rounds"] == sum(
            1 for e in elements if isinstance(e, Punctuation)
        )
        assert doc["fast_merge_rounds"] + doc["tree_merge_rounds"] <= \
            doc["rounds"]
        assert sum(s["events_in"] for s in doc["shards"]) == sum(
            1 for e in elements if isinstance(e, Event)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("plan_kind", ["compiled", "row"])
    def test_accounting_surface_of_fixed_pools(self, plan_kind, workers):
        # The accounting keys the end-to-end benchmark reads, for a
        # columnar plan and one whose rounds leave as row-shaped
        # PICKLE frames (the self-join), which must equal the row
        # plan sharded in one process.
        elements = disordered_elements(
            seed=3, n=300, lag=30, payload=_tuple_payload
        )
        if plan_kind == "compiled":
            plan = compiled_grouped()
        else:
            plan = CompiledShardPlan(QueryPlan().sort().self_join())
            assert plan.wire_mode == "pickle"
        result = run_parallel(list(elements), plan, workers)
        doc = result.parallel
        if plan_kind == "row":
            assert doc["frames_received_by_kind"]["PICKLE"] > 0
            _assert_identical(result, shard_disordered(
                DisorderedStreamable.from_elements(list(elements)),
                lambda s: s.self_join(), workers,
            ).collect())
        assert len(doc["shards"]) == workers
        for stats in doc["shards"]:
            assert set(stats["ring_wait"]) == {
                "spins", "parks", "stall_s", "park_s"}
            assert set(stats) >= {"cpu_s", "wall_s", "events_in",
                                  "buffered_peak", "late_dropped"}
        rounds = sum(isinstance(e, Punctuation) for e in elements)
        assert doc["rounds"] == rounds == \
            doc["fast_merge_rounds"] + doc["tree_merge_rounds"]
        known = set(exchange.KIND_NAMES.values())
        assert set(doc["frames_sent_by_kind"]) <= known
        assert set(doc["frames_received_by_kind"]) <= known


# ---------------------------------------------------------------------------
# Compiled shard workers: kernel pipelines shipped to shard processes
# ---------------------------------------------------------------------------

def _tuple_payload(t, k):
    return (t % 9, t % 5)


def _compiled_shapes():
    """(name, plan_builder(policy), row query_fn, row pre) covering every
    lowered kernel family.  The row leg replicates the compiled plan's
    per-shard pipeline with row operators, sharded in one process by
    ``shard_disordered`` — the byte-identity target of
    ``run_parallel``."""
    return [
        ("grouped-count",
         lambda p: QueryPlan().tumbling_window(10).sort(late_policy=p)
         .group_aggregate(Count()),
         lambda s: s.group_aggregate(Count()),
         lambda d: d.tumbling_window(10)),
        ("grouped-avg",
         lambda p: QueryPlan().tumbling_window(10).sort(late_policy=p)
         .group_aggregate(Avg(field(0))),
         lambda s: s.group_aggregate(Avg(field(0))),
         lambda d: d.tumbling_window(10)),
        ("count",
         lambda p: QueryPlan().tumbling_window(10).sort(late_policy=p)
         .count(),
         lambda s: s.count(),
         lambda d: d.tumbling_window(10)),
        ("session",
         lambda p: QueryPlan().sort(late_policy=p).session_window(15),
         lambda s: s.session_window(15),
         None),
        ("session-avg",
         lambda p: QueryPlan().sort(late_policy=p)
         .session_window(12, Avg(field(0))),
         lambda s: s.session_window(12, Avg(field(0))),
         None),
        ("coalesce",
         lambda p: QueryPlan().tumbling_window(10).sort(late_policy=p)
         .coalesce(),
         lambda s: s.coalesce(),
         lambda d: d.tumbling_window(10)),
        ("self-join",
         lambda p: QueryPlan().sort(late_policy=p).self_join(),
         lambda s: s.self_join(),
         None),
        ("pattern",
         lambda p: QueryPlan().sort(late_policy=p)
         .pattern_match(field(0) > 4, field(1) < 2, 20),
         lambda s: s.pattern_match(
             lambda e: e.payload[0] > 4, lambda e: e.payload[1] < 2, 20),
         None),
        ("group-apply",
         lambda p: QueryPlan().sort(late_policy=p).group_apply(
             lambda s: s.where(field(1) < 3).tumbling_window(16)
             .aggregate(Sum(field(0)))),
         lambda s: s.group_apply(
             lambda b: b.where(field(1) < 3).tumbling_window(16)
             .aggregate(Sum(field(0)))),
         None),
        ("group-apply-stage",
         lambda p: QueryPlan().sort(late_policy=p).group_apply(
             lambda s: s.where(field(0) > 2)),
         lambda s: s.group_apply(lambda b: b.where(field(0) > 2)),
         None),
        ("distinct",
         lambda p: QueryPlan().sort(late_policy=p).distinct(field(0)),
         lambda s: s.distinct(field(0)),
         None),
        ("raw-topk",
         lambda p: QueryPlan().tumbling_window(10).sort(late_policy=p)
         .top_k(2),
         lambda s: s.top_k(2),
         lambda d: d.tumbling_window(10)),
        ("where-grouped",
         lambda p: QueryPlan().where(field(0) > 2).tumbling_window(10)
         .sort(late_policy=p).group_aggregate(Sum(field(1))),
         lambda s: s.group_aggregate(Sum(field(1))),
         lambda d: d.where(lambda e: e.payload[0] > 2)
         .tumbling_window(10)),
    ]


COMPILED_SHAPES = _compiled_shapes()
_SHAPE_IDS = [shape[0] for shape in COMPILED_SHAPES]


def _row_reference(elements, row_q, row_pre, policy, workers):
    """The row-operator twin of a compiled shape, sharded in one
    process over the same disordered stream."""
    stream = DisorderedStreamable.from_elements(list(elements))
    if row_pre is not None:
        stream = row_pre(stream)
    sorter = lambda: ImpatienceSorter(  # noqa: E731
        key=_sync, late_policy=policy
    )
    return shard_disordered(stream, row_q, workers, sorter=sorter).collect()


def _run_compiled_pair(shape, policy, workers, n=450, memory_budget=None):
    """run_parallel the compiled plan over a disordered stream; return
    it with its row-operator twin's result."""
    name, build, row_q, row_pre = shape
    elements = disordered_elements(
        seed=17, n=n, lag=12, payload=_tuple_payload
    )
    compiled = CompiledShardPlan(build(policy), memory_budget=memory_budget)
    result = run_parallel(list(elements), compiled, workers, batch_size=64)
    return result, _row_reference(elements, row_q, row_pre, policy, workers)


#: Key 0's events, then a punctuation that reaches the other shard of
#: two before any of key 1's events, then key 1's events — one late.
_HEAD = [Event(t, t + 1, 0, (t,)) for t in range(100)]
_TAIL = [
    Punctuation(99), Event(50, 51, 1, (1,)), Event(150, 151, 1, (2,)),
    Punctuation(200),
]
_LATE_SHAPES = [
    (lambda p: QueryPlan().tumbling_window(10).sort(late_policy=p)
     .distinct(),
     lambda s: s.distinct(), lambda d: d.tumbling_window(10)),
    (lambda p: QueryPlan().sort(late_policy=p).session_window(5),
     lambda s: s.session_window(5), None),
]


class TestCompiledShardPlan:
    @pytest.mark.parametrize(
        "policy", [LatePolicy.DROP, LatePolicy.ADJUST],
        ids=["drop", "adjust"],
    )
    @pytest.mark.parametrize(
        "shape", _LATE_SHAPES, ids=["distinct", "session"]
    )
    def test_punctuation_before_first_event_reaches_the_sorter(
        self, shape, policy
    ):
        """A broadcast punctuation may reach a shard before any of its
        events; the shard's sorter still applies it, so a later event at
        or below it is late there too."""
        build, row_q, row_pre = shape
        plan = build(policy)
        shard_plan = CompiledShardPlan(plan)
        executor = shard_plan.build_executor(0)
        items = executor.feed_punctuation(99)
        executor.feed_elements(_TAIL[1:3])
        items += executor.feed_punctuation(200)
        items += executor.feed_flush()
        row = plan.bind(DisorderedStreamable.from_elements(_TAIL)).collect()
        assert item_events(items, shard_plan.wire_mode) == (
            row.events, row.punctuations
        )
        for workers in (1, 2):
            result = run_parallel(
                _HEAD + _TAIL, CompiledShardPlan(plan), workers,
                batch_size=8,
            )
            reference = _row_reference(
                _HEAD + _TAIL, row_q, row_pre, policy, workers
            )
            _assert_identical(result, reference, f"w={workers}")

    def test_punctuation_before_first_event_raises_in_the_worker(self):
        """Under RAISE with the coordinator guard off (a ``where`` runs
        before the sorter), the shard that saw only the punctuation
        raises the row engine's ``LateEventError``."""
        plan = (
            QueryPlan().where(field(0) >= 0).tumbling_window(10)
            .sort(late_policy=LatePolicy.RAISE).distinct()
        )
        assert CompiledShardPlan(plan).window is None
        with pytest.raises(LateEventError) as expected:
            plan.bind(
                DisorderedStreamable.from_elements(_HEAD + _TAIL)
            ).collect()
        for workers in (1, 2):
            with pytest.raises(LateEventError) as err:
                run_parallel(
                    _HEAD + _TAIL, CompiledShardPlan(plan), workers,
                    batch_size=8,
                )
            assert err.value.args == expected.value.args

    @pytest.mark.parametrize(
        "policy", [LatePolicy.DROP, LatePolicy.ADJUST],
        ids=["drop", "adjust"],
    )
    @pytest.mark.parametrize("shape", COMPILED_SHAPES, ids=_SHAPE_IDS)
    def test_every_kernel_matches_row_plan(self, shape, policy):
        result, reference = _run_compiled_pair(shape, policy, workers=2)
        _assert_identical(result, reference, f"{shape[0]} {policy.name}")
        for stats in result.parallel["shards"]:
            assert stats["plan"] == "compiled"

    @pytest.mark.parametrize("workers", WORKER_SWEEP)
    @pytest.mark.parametrize(
        "shape_name", ["grouped-avg", "session", "self-join"]
    )
    def test_worker_sweep(self, shape_name, workers):
        shape = COMPILED_SHAPES[_SHAPE_IDS.index(shape_name)]
        result, reference = _run_compiled_pair(
            shape, LatePolicy.DROP, workers
        )
        _assert_identical(result, reference, f"{shape_name} w={workers}")

    @pytest.mark.parametrize(
        "shape_name", ["grouped-avg", "distinct", "self-join"]
    )
    def test_memory_budget_spills_byte_identical(self, shape_name):
        """A tiny per-shard budget forces the external columnar sorter
        to spill; output must not change by a byte."""
        shape = COMPILED_SHAPES[_SHAPE_IDS.index(shape_name)]
        budgeted, _ = _run_compiled_pair(
            shape, LatePolicy.DROP, workers=2, memory_budget=2048
        )
        unbounded, _ = _run_compiled_pair(shape, LatePolicy.DROP, workers=2)
        _assert_identical(budgeted, unbounded, f"{shape_name} budget")

    @pytest.mark.parametrize(
        "shape_name", ["grouped-count", "session"]
    )
    def test_raise_guard_deterministic_across_worker_counts(
        self, shape_name
    ):
        """RAISE surfaces the same late event no matter how many workers
        split the stream — the coordinator-side guard sees the global
        arrival order, not a shard-local one."""
        shape = COMPILED_SHAPES[_SHAPE_IDS.index(shape_name)]
        _, build, _, _ = shape
        seen = []
        for workers in (1, 2, 4):
            elements = disordered_elements(
                seed=11, n=450, lag=3, payload=_tuple_payload
            )
            with pytest.raises(LateEventError) as err:
                run_parallel(
                    list(elements),
                    CompiledShardPlan(build(LatePolicy.RAISE)),
                    workers, batch_size=64,
                )
            seen.append(err.value.args)
        assert seen[0] == seen[1] == seen[2]

    def test_avg_rides_native_float_frames(self):
        """avg results cross the ring as float64 FDATA frames — no
        pickled elements anywhere on the aggregate hot path — and equal
        the single-process push-down plan's floats."""
        elements = disordered_elements(
            seed=9, n=500, lag=20, payload=_tuple_payload
        )
        result = run_parallel(
            list(elements), compiled_grouped(agg="avg"), 2, batch_size=64,
        )
        received = result.parallel["frames_received_by_kind"]
        sent = result.parallel["frames_sent_by_kind"]
        assert received.get("FDATA", 0) > 0
        assert "PICKLE" not in received
        assert "PICKLE" not in sent
        assert all(isinstance(e.payload, float) for e in result.events)
        _assert_identical(
            result, pushdown_reference(elements, 2, agg="avg"), "avg fdata"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "event, reason",
        [(lambda t: Event(t, t + 1, t % 3, (0.5, 1)),
          "event payloads are not integer columns"),
         (lambda t: Event(t, t + 1, t % 3, None),
          "event payloads are not tuples"),
         (lambda t: Event(t, t + 1, t % 3, (2 ** 63,)),
          f"event payload field {2 ** 63} does not fit int64"),
         (lambda t: Event(t, t + 1, 2 ** 63, (1,)),
          f"event key {2 ** 63} does not fit int64"),
         (lambda t: Event(t, 2 ** 63, t % 3, (1,)),
          f"event other_time {2 ** 63} does not fit int64")],
        ids=["float", "none", "int64-payload", "int64-key", "int64-other"],
    )
    def test_non_int_payloads_refused_like_single_process(
        self, event, reason, workers
    ):
        """Per-event ingress the columnar path cannot carry raises the
        single-process compiler's ``UnsupportedPlanError`` reason on the
        coordinator instead of truncating floats or crashing."""
        query = (
            QueryPlan().tumbling_window(10).sort()
            .group_aggregate(Sum(field(0)))
        )
        elements = []
        for t in range(40):
            elements.append(event(t))
            if t % 10 == 9:
                elements.append(Punctuation(t))
        events = [e for e in elements if isinstance(e, Event)]
        with pytest.raises(QueryBuildError, match=reason):
            query.run(events, engine="columnar")
        with pytest.raises(UnsupportedPlanError) as err:
            run_parallel(
                elements, CompiledShardPlan(query), workers, batch_size=8
            )
        assert err.value.reason == reason

    def test_sum_beyond_int64_ships_as_elements(self):
        """A round whose exact sum does not fit int64 leaves the shard as
        row-shaped elements; the next round rides DATA frames again."""
        plan = CompiledShardPlan(
            QueryPlan().tumbling_window(10).sort()
            .group_aggregate(Sum(field(0)))
        )
        elements = [Event(t, t + 1, 0, (2 ** 62,)) for t in range(3)]
        elements += [Event(t, t + 1, 0, (1,)) for t in (12, 13)]
        executor = plan.build_executor(0)
        executor.feed_elements(elements)
        assert executor.feed_punctuation(9) == [
            ("elements", [Event(0, 10, 0, 3 * 2 ** 62)]), ("punct", 9),
        ]
        [(kind, batch)] = executor.feed_flush()
        assert kind == "batch"
        assert batch.sync_times.tolist() == [10]
        assert batch.payload_columns[0].tolist() == [2]
        result = run_parallel(
            elements + [Punctuation(9)], plan, 1, batch_size=8
        )
        assert result.events == [
            Event(0, 10, 0, 3 * 2 ** 62), Event(10, 20, 0, 2),
        ]

    def test_tuple_payloads_ride_columnar_frames(self):
        """distinct emits multi-column int64 DATA frames, not pickles."""
        shape = COMPILED_SHAPES[_SHAPE_IDS.index("distinct")]
        result, _ = _run_compiled_pair(shape, LatePolicy.DROP, workers=2)
        received = result.parallel["frames_received_by_kind"]
        assert received.get("DATA", 0) > 0
        assert "PICKLE" not in received

    def test_unsupported_plan_raises_at_build_time(self):
        plan = (
            QueryPlan().where(lambda e: e.key < 4).tumbling_window(8)
            .sort().count()
        )
        with pytest.raises(UnsupportedPlanError) as err:
            CompiledShardPlan(plan)
        assert "opaque Python callable" in err.value.reason

    def test_describe_names_kernels_and_wire(self):
        shape = COMPILED_SHAPES[_SHAPE_IDS.index("grouped-avg")]
        plan = CompiledShardPlan(shape[1](LatePolicy.DROP))
        doc = plan.describe()
        assert doc["plan"] == "compiled"
        assert doc["wire"] == "float"
        assert doc["kernels"]
