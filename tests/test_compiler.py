"""Tests for the fused columnar query compiler (repro.engine.compiler).

The differential half — byte-identical output versus the row engine over
random plans — lives in ``tests/test_fuzz_queries.py``; this module pins
down the compiler's *surface*: which shapes compile, the fallback
reasons, the ``explain()`` path line, the :class:`PlanResult` API, the
per-kernel snapshot schema, and the push-down effects that must be
visible in the sorter's statistics.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.errors import QueryBuildError
from repro.core.late import LatePolicy
from repro.engine import DisorderedStreamable, QueryPlan
from repro.engine.compiler import (
    UnsupportedPlanError,
    analyze_plan,
    compile_plan,
    execute_plan,
)
from repro.engine.event import Event
from repro.engine.kernels import field, key_field, sync_field
from repro.engine.operators.aggregates import Avg, Count, Max, Min, Sum
from repro.observability.snapshot import PipelineSnapshot


def _events(n=400, seed=11, keys=5, spread=300):
    rng = random.Random(seed)
    return [
        Event(rng.randrange(spread), key=rng.randrange(keys),
              payload=(rng.randrange(50), rng.randrange(9)))
        for _ in range(n)
    ]


def _plan():
    return (
        QueryPlan()
        .where(field(0) > 5)
        .tumbling_window(16)
        .sort()
        .group_aggregate(Sum(field(1)))
    )


class TestCompileSurface:
    def test_supported_shapes_compile(self):
        plans = [
            QueryPlan().tumbling_window(8).sort().count(),
            QueryPlan().hopping_window(32, 16).sort().aggregate(Avg(field(0))),
            (QueryPlan().where(key_field() < 3).select_columns((1,))
             .tumbling_window(8).sort().aggregate(Min(field(0)))),
            (QueryPlan().tumbling_window(8).sort()
             .group_aggregate(Max(field(1)), key_field()).top_k(2)),
            # Pass-through terminal kernels.
            QueryPlan().tumbling_window(8).sort().distinct(field(0)),
            QueryPlan().tumbling_window(8).sort().distinct(),
            QueryPlan().sort().session_window(16),
            QueryPlan().sort().session_window(8, Avg(field(0)), key_field()),
            QueryPlan().sort().coalesce(),
            QueryPlan().sort().self_join(),
            (QueryPlan().sort()
             .pattern_match(field(0) > 25, field(1) < 4, 16)),
            (QueryPlan().sort().group_apply(
                lambda s: s.where(field(1) < 7).tumbling_window(16)
                .aggregate(Sum(field(0))))),
            QueryPlan().sort().group_apply(lambda s: s.where(field(0) > 3)),
            QueryPlan().tumbling_window(8).sort().top_k(2),
        ]
        for plan in plans:
            path, reason = analyze_plan(plan)
            assert (path, reason) == ("columnar", None)

    def test_describe_lists_kernel_stages(self):
        compiled = compile_plan(
            QueryPlan().where(field(0) > 5).tumbling_window(16)
            .sort(late_policy=LatePolicy.ADJUST)
            .group_aggregate(Count()).top_k(3)
        )
        assert compiled.describe() == [
            "where[field(0) > 5]",
            "tumbling_window[16]",
            "columnar_sort[ADJUST]",
            "group_aggregate[count]",
            "top_k[3]",
        ]

    @pytest.mark.parametrize("build, fragment", [
        (lambda: (QueryPlan().where(lambda e: True).tumbling_window(8)
                  .sort().count()),
         "opaque Python callable"),
        (lambda: (QueryPlan().select(lambda p: p).tumbling_window(8)
                  .sort().count()),
         "opaque Python callable"),
        (lambda: (QueryPlan().tumbling_window(8).sort(sorter=lambda: None)
                  .count()),
         "custom sorter factory"),
        (lambda: QueryPlan().tumbling_window(8).sort().top_k(
            2, lambda e: e.payload),
         "score_fn is an opaque Python callable"),
        (lambda: QueryPlan().sort().session_window(16, key_fn=lambda e: 0),
         "key_fn is an opaque Python callable"),
        (lambda: (QueryPlan().sort()
                  .session_window(16, Sum(lambda p: p[0]))),
         "opaque Python callable"),
        (lambda: (QueryPlan().sort().select_columns((0,))
                  .tumbling_window(8).count()),
         "runs above the sort"),
        (lambda: QueryPlan().sort().self_join(lambda a, b: a),
         "result_selector is an opaque Python callable"),
        (lambda: QueryPlan().sort().distinct(lambda p: p[0]),
         "selector is an opaque Python callable"),
        (lambda: QueryPlan().sort().coalesce(lambda acc, e: 1),
         "combine is an opaque Python callable"),
        (lambda: (QueryPlan().sort()
                  .pattern_match(lambda e: True, lambda e: True, 16)),
         "opaque Python callables"),
        (lambda: (QueryPlan().sort()
                  .group_apply(lambda s: s.select(lambda p: p))),
         "no columnar kernel"),
        (lambda: (QueryPlan().sort()
                  .group_apply(lambda s: s.aggregate(Count()))),
         "body aggregates need"),
        (lambda: QueryPlan().sort().session_window(16).count(),
         "after session_window() is not vectorized"),
        (lambda: QueryPlan().tumbling_window(8).sort(),
         "no windowed aggregate terminal"),
        (lambda: QueryPlan().sort().count(),
         "need a tumbling/hopping window"),
        (lambda: (QueryPlan().tumbling_window(8).sort()
                  .aggregate(Sum(lambda p: p[0]))),
         "opaque Python callable"),
        (lambda: (QueryPlan().tumbling_window(8).sort()
                  .group_aggregate(Count(), lambda e: e.key)),
         "key_fn is an opaque Python callable"),
        (lambda: (QueryPlan().tumbling_window(8).sort()
                  .group_aggregate(Count()).top_k(2, lambda e: e.payload)),
         "score_fn is an opaque Python callable"),
        (lambda: (QueryPlan().tumbling_window(8).sort()
                  .group_aggregate(Count()).coalesce()),
         "after the aggregate"),
    ], ids=[
        "lambda-where", "lambda-select", "custom-sorter",
        "lambda-topk-score", "lambda-session-key", "lambda-session-agg",
        "above-sort", "lambda-join-selector", "lambda-distinct-selector",
        "lambda-coalesce-combine", "lambda-pattern-preds",
        "opaque-group-apply-body", "windowless-group-apply-agg",
        "post-session-stage", "no-terminal", "no-window",
        "lambda-selector", "lambda-key-fn", "lambda-score-fn",
        "post-aggregate-stage",
    ])
    def test_fallback_reasons(self, build, fragment):
        with pytest.raises(UnsupportedPlanError) as info:
            compile_plan(build())
        assert fragment in info.value.reason

    def test_as_written_plans_are_not_hoisted(self):
        """Operator placement relative to the sort is semantics: a plan
        written with the window *above* the sort falls back (with a hint)
        rather than being silently pushed down; its ``optimized()`` form
        compiles."""
        naive = QueryPlan().sort().tumbling_window(8).count()
        path, reason = analyze_plan(naive)
        assert path == "row"
        assert "apply plan.optimized()" in reason
        assert analyze_plan(naive.optimized()) == ("columnar", None)

    def test_explain_names_the_chosen_path(self):
        assert "-- path: columnar (fused kernel pipeline)" in _plan().explain()
        for plan in (
            QueryPlan().tumbling_window(8).sort().distinct(),
            QueryPlan().sort().session_window(16),
            QueryPlan().sort().self_join(),
            (QueryPlan().sort()
             .pattern_match(field(0) > 5, field(0) < 2, 16)),
            QueryPlan().sort().group_apply(
                lambda s: s.tumbling_window(8).count()),
        ):
            assert "-- path: columnar" in plan.explain()
        fallback = (QueryPlan().where(lambda e: True).tumbling_window(8)
                    .sort().count())
        assert "-- path: row (fallback:" in fallback.explain()
        assert "opaque Python callable" in fallback.explain()


class TestExecution:
    def test_plan_result_surface(self):
        result = _plan().run(_events(), 32, 40)
        assert result.engine == "columnar"
        assert result.reason is None
        assert result.completed
        assert len(result) == len(result.events)
        assert result.sync_times == [e.sync_time for e in result.events]
        assert result.payloads == [e.payload for e in result.events]
        assert result.sync_times == sorted(result.sync_times)

    def test_engine_row_records_reason(self):
        result = _plan().run(_events(), 32, 40, engine="row")
        assert result.engine == "row"
        assert result.reason == "engine='row' requested"

    def test_columnar_engine_raises_with_reason(self):
        plan = (QueryPlan().where(lambda e: True).tumbling_window(8)
                .sort().count())
        with pytest.raises(QueryBuildError, match="cannot be compiled"):
            plan.run(_events(40), 8, 0, engine="columnar")

    def test_rejects_unknown_engine(self):
        with pytest.raises(QueryBuildError, match="engine must be"):
            _plan().run(_events(10), 8, 0, engine="vectorized")

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            _plan().run(_events(10), 8, 0, batch_size=0)

    def test_streamable_source_compiles(self):
        events = _events()
        stream = DisorderedStreamable.from_events(events, 32, 40)
        result = _plan().run(stream)
        assert result.engine == "columnar"
        row = _plan().run(list(events), 32, 40, engine="row")
        assert result.events == row.events
        assert result.punctuations == row.punctuations

    def test_derived_streamable_falls_back(self):
        stream = DisorderedStreamable.from_events(
            _events(), 32, 40
        ).tumbling_window(8)
        plan = QueryPlan().sort().count()
        result = execute_plan(plan, stream)
        assert result.engine == "row"
        assert "columnar ingress" in result.reason

    def test_non_integer_payloads_fall_back(self):
        events = [Event(t, key=0, payload=(str(t),)) for t in range(20)]
        plan = QueryPlan().tumbling_window(8).sort().count()
        result = plan.run(events, 8, 0)
        assert result.engine == "row"
        assert "integer" in result.reason
        # Ints beyond int64 are refused the same way, naming the field.
        top = 2 ** 63
        for plan, events, name in (
            (plan, [Event(t, payload=(top,)) for t in range(20)],
             "payload field"),
            (plan, [Event(t, key=top) for t in range(20)], "key"),
            (QueryPlan().sort().coalesce(),
             [Event(t, top) for t in range(20)], "other_time"),
        ):
            result = plan.run(events, 8, 0)
            assert result.engine == "row"
            assert result.reason == f"event {name} {top} does not fit int64"
            assert result.events == plan.run(events, 8, 0, engine="row").events
            with pytest.raises(QueryBuildError, match="does not fit int64"):
                plan.run(events, 8, 0, engine="columnar")

    def test_bool_fields_fall_back_and_match_the_row_engine(self):
        """A column would box ``True`` back as ``1``; bool times, keys
        and payload fields stay on the row engine, so ``auto`` prints
        exactly what ``row`` prints."""
        plans = (
            QueryPlan().tumbling_window(8).sort().group_aggregate(Count()),
            QueryPlan().tumbling_window(8).sort().distinct(field(0)),
        )
        for events in (
            [Event(t, key=t % 3 == 0, payload=(t % 5,)) for t in range(40)],
            [Event(t, key=t % 3, payload=(t % 2 == 0,)) for t in range(40)],
            [Event(t % 2 == 0, payload=(t,)) for t in range(40)],
        ):
            for plan in plans:
                auto = plan.run(events, 8, 0)
                row = plan.run(events, 8, 0, engine="row")
                assert auto.engine == "row"
                assert "integer" in auto.reason
                assert repr(auto.events) == repr(row.events)
                assert auto.punctuations == row.punctuations
        with pytest.raises(QueryBuildError, match="not integers"):
            plans[0].run(
                [Event(t, key=True) for t in range(8)], 8, 0,
                engine="columnar",
            )

    @pytest.mark.parametrize("frequency, latency, message", [
        (0, 0, "frequency must be >= 1 or None"),
        (-5, 0, "frequency must be >= 1 or None"),
        (8, -10, "reorder_latency must be non-negative"),
        (None, -10, "reorder_latency must be non-negative"),
    ])
    def test_both_engines_refuse_a_bad_punctuation_policy(
            self, frequency, latency, message):
        from repro.workloads.base import Dataset

        sources = (
            _events(40), Dataset("t", [5, 3, 9, 1], keys=[0, 1, 0, 1]),
            DisorderedStreamable.from_events(_events(40), frequency, latency),
        )
        for source in sources:
            for engine in ("row", "columnar"):
                with pytest.raises(ValueError) as info:
                    _plan().run(source, frequency, latency, engine=engine)
                assert str(info.value) == message

    def test_batch_size_does_not_change_results(self):
        events = _events(seed=23)
        baseline = _plan().run(events, 32, 40, batch_size=8192)
        for batch_size in (1, 7, 64):
            result = _plan().run(events, 32, 40, batch_size=batch_size)
            assert result.events == baseline.events
            assert result.punctuations == baseline.punctuations


class TestSnapshot:
    def test_per_kernel_snapshot_schema(self):
        plan = (
            QueryPlan().where(field(0) > 5).tumbling_window(16).sort()
            .group_aggregate(Count()).top_k(2)
        )
        result = plan.run(_events(), 32, 40)
        snap = result.snapshot()
        assert isinstance(snap, PipelineSnapshot)
        names = [op["name"] for op in snap.operators]
        assert names == [
            "ingress", "where", "window", "sort", "group_aggregate", "top_k",
        ]
        for op in snap.operators:
            kernel = op["kernel"]
            assert kernel["batches"] >= 1
            assert kernel["ns_per_event"] >= 0.0
            assert op["events"]["in"] >= op["events"]["out"] >= 0
        meta = snap.as_dict()["meta"]
        assert meta["engine"] == "columnar"
        assert meta["kernels"][0].startswith("where[")

    def test_sort_operator_carries_sorter_stats(self):
        result = _plan().run(_events(), 32, 40)
        doc = result.snapshot().operator("sort")
        assert doc["sorter"]["runs_created"] >= 1
        assert doc["late"]["policy"] == "DROP"

    def test_predicate_push_down_shrinks_sorted_volume(self):
        """The where() bitmap runs below the sort: the sort kernel must
        see only the surviving rows, not the raw stream.  It counts
        rows: the late events it dropped plus the partial rows the
        sorter took in, at most one per surviving event."""
        events = _events(n=600)
        result = _plan().run(events, 32, 40)
        survivors = sum(1 for e in events if e.payload[0] > 5)
        snapshot = result.snapshot()
        assert snapshot.operator("window")["events"]["out"] == survivors
        sort_doc = snapshot.operator("sort")
        assert sort_doc["events"]["in"] == (
            sort_doc["late"]["dropped"] + sort_doc["sorter"]["inserted"]
        )
        assert sort_doc["events"]["in"] <= survivors < len(events)

    def test_row_fallback_snapshot_keeps_reason(self):
        from repro.observability.registry import MetricsRegistry

        plan = (QueryPlan().where(lambda e: True).tumbling_window(8)
                .sort().count())
        registry = MetricsRegistry()
        result = plan.run(_events(100), 16, 20, metrics=registry)
        assert result.engine == "row"
        meta = result.snapshot().as_dict()["meta"]
        assert meta["engine"] == "row"
        assert "opaque Python callable" in meta["engine_reason"]

    def test_row_run_without_registry_has_no_snapshot(self):
        result = _plan().run(_events(50), 16, 20, engine="row")
        assert result.snapshot() is None

    def test_fused_where_run_reports_each_predicate(self):
        """Consecutive wheres run as one filter pass, but the snapshot
        keeps one ``where`` entry per predicate with the in/out counts
        each predicate would see running alone."""
        predicates = [
            (field(0) > 5, lambda e: e.payload[0] > 5),
            (key_field() < 3, lambda e: e.key < 3),
            (sync_field() % 2 == 0, lambda e: e.sync_time % 2 == 0),
        ]
        plan = QueryPlan()
        for predicate, _ in predicates:
            plan = plan.where(predicate)
        plan = (plan.tumbling_window(16).where(field(1) < 7).sort()
                .group_aggregate(Sum(field(1))))
        compiled = compile_plan(plan)
        assert [stage.name for stage in compiled.stages] == [
            "where", "window", "where",
        ]
        assert compiled.describe()[:5] == [
            "where[field(0) > 5]", "where[key() < 3]",
            "where[(sync() % 2) == 0]", "tumbling_window[16]",
            "where[field(1) < 7]",
        ]
        events = _events()
        result = plan.run(events, 32, 40)
        operators = result.snapshot().operators
        assert [op["name"] for op in operators[:6]] == [
            "ingress", "where", "where", "where", "window", "where",
        ]
        survivors = events
        for (_, keep), op in zip(predicates, operators[1:4]):
            kept = [e for e in survivors if keep(e)]
            assert op["events"] == {"in": len(survivors), "out": len(kept)}
            survivors = kept
        row = plan.run(events, 32, 40, engine="row")
        assert result.events == row.events
        assert result.punctuations == row.punctuations

    def test_fused_where_gathers_only_the_columns_read_later(self):
        compiled = compile_plan(
            QueryPlan().where(field(0) > 1).where(field(1) < 5)
            .tumbling_window(8).sort().group_aggregate(Sum(field(2)))
        )
        stage = compiled.stages[0]
        sync = np.arange(6, dtype=np.int64)
        cols = [np.arange(6, dtype=np.int64) for _ in range(4)]
        out_sync, _, keys, out_cols = stage.apply(sync, None, sync, cols)
        assert out_sync.tolist() == [2, 3, 4]
        assert keys.tolist() == [2, 3, 4]
        assert out_cols[2].tolist() == [2, 3, 4]
        assert out_cols[0] is out_cols[1] is out_cols[3] is None


_BIG = 2 ** 62


def _cross_round_events(first, second, third):
    """Arrival order for ``hopping_window(20, 10)`` under ADJUST with
    ``punctuation_frequency=2``: ``first`` and ``second`` fold into the
    window at 0 in one round, then ``third`` arrives late, is adjusted
    to the watermark and folds into the still-open window one round
    later."""
    return [
        Event(9, payload=(first,)), Event(8, payload=(second,)),
        Event(3, payload=(third,)), Event(12, payload=(1,)),
    ]


class TestExactFolds:
    """Compiled folds add like the row aggregates' Python ints: a sum
    beyond int64 is exact, never wrapped."""

    def test_grouped_sum_of_two_payloads_beyond_int64(self):
        events = [Event(1, payload=(_BIG + 2,)), Event(4, payload=(_BIG + 3,))]
        plan = (QueryPlan().tumbling_window(10).sort()
                .group_aggregate(Sum(field(0))))
        result = plan.run(events, 2, 0, engine="columnar")
        assert result.payloads == [2 ** 63 + 5]
        assert result.events == plan.run(events, 2, 0, engine="row").events

    @pytest.mark.parametrize("terminal", [
        lambda p: p.group_aggregate(Sum(field(0))),
        lambda p: p.aggregate(Sum(field(0))),
        lambda p: p.group_aggregate(Avg(field(0))),
        lambda p: p.aggregate(Avg(field(0))),
        lambda p: p.group_aggregate(Sum(field(0))).top_k(2),
    ], ids=["group-sum", "sum", "group-avg", "avg", "top-k"])
    @pytest.mark.parametrize("values", [
        [_BIG, _BIG, _BIG + 7],
        [-_BIG, -_BIG, -_BIG - 1, -_BIG],
        [_BIG, _BIG, -_BIG, 5],            # leaves int64 and comes back
        [2 ** 63 - 1, 2 ** 63 - 1, -(2 ** 63), 1],
    ], ids=["positive", "negative", "returns", "extremes"])
    def test_within_round(self, terminal, values):
        events = [
            Event(t, key=t % 2, payload=(v,)) for t, v in enumerate(values)
        ]
        plan = terminal(QueryPlan().tumbling_window(10).sort())
        compiled = plan.run(events, 3, 0, engine="columnar")
        row = plan.run(events, 3, 0, engine="row")
        assert compiled.events == row.events
        assert compiled.punctuations == row.punctuations

    @pytest.mark.parametrize("values, total", [
        ((_BIG, _BIG // 2, _BIG), 2 ** 63 + _BIG // 2),
        ((_BIG, _BIG, -_BIG), _BIG),
        ((-_BIG, -_BIG, -_BIG), -3 * _BIG),
    ], ids=["leaves-int64-next-round", "object-state-returns",
            "negative"])
    def test_cross_round(self, values, total):
        plan = (QueryPlan().hopping_window(20, 10)
                .sort(late_policy=LatePolicy.ADJUST)
                .group_aggregate(Sum(field(0))))
        events = _cross_round_events(*values)
        compiled = plan.run(events, 2, 0, engine="columnar")
        row = plan.run(events, 2, 0, engine="row")
        assert compiled.payloads == [total, 1]
        assert compiled.events == row.events
        assert compiled.punctuations == row.punctuations

    def test_window_end_beyond_int64(self):
        top = 2 ** 63 - 1
        events = [Event(top - t, top, payload=(t,)) for t in (0, 3, 12, 1)]
        plan = (QueryPlan().tumbling_window(10).sort()
                .group_aggregate(Sum(field(0))))
        compiled = plan.run(events, 2, 0, engine="columnar")
        assert compiled.events[-1].other_time == top - 7 + 10
        assert compiled.events == plan.run(events, 2, 0, engine="row").events

    def test_session_sum_beyond_int64(self):
        events = [Event(t, key=1, payload=(_BIG + t,)) for t in range(3)]
        plan = QueryPlan().sort().session_window(4, Sum(field(0)))
        compiled = plan.run(events, 3, 0, engine="columnar")
        assert compiled.payloads == [3 * _BIG + 3]
        assert compiled.events == plan.run(events, 3, 0, engine="row").events
