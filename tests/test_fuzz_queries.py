"""Fuzz tests: random query chains over random disordered streams.

Hypothesis composes random operator pipelines from a pool of
order-insensitive and order-sensitive stages and checks global engine
invariants that every legal query must satisfy:

* output events are sync-ordered;
* no output event arrives at or below a previously emitted punctuation;
* the pipeline always completes (flush reaches the sink);
* buffered memory returns to zero after the flush.

``TestRowVsCompiled`` is the differential half: random *plans* run
through ``QueryPlan.run`` on both the row engine and the fused columnar
compiler and must be byte-identical — including late-policy effects,
punctuation streams, and raised errors — while non-compilable plans
must silently fall back to the row engine with identical output.
"""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import LateEventError
from repro.core.late import LatePolicy
from repro.engine import DisorderedStreamable, QueryPlan, compile_plan
from repro.engine.event import Event, is_punctuation
from repro.engine.ingress import ingress_events
from repro.core.strings import StringDictionary
from repro.parallel import CompiledShardPlan
from tests import item_events
from repro.engine.kernels import (
    field,
    field_str_eq,
    field_str_prefix,
    key_field,
    key_str_eq,
    key_str_prefix,
    sync_field,
)
from repro.engine.operators.aggregates import Avg, Count, Max, Min, Sum

#: Six service names whose dense dictionary codes 0..5 coincide with the
#: fuzz events' ``key = t % 6`` — string predicates lower to plain int
#: comparisons over exactly the key domain the streams populate.
_SERVICES = StringDictionary([
    b"auth.api", b"auth.web", b"billing.core", b"billing.jobs",
    b"cart.svc", b"search.svc",
])

# -- stage pool -------------------------------------------------------------


def _where_even(stream):
    return stream.where(lambda e: e.sync_time % 2 == 0)


def _where_keys(stream):
    return stream.where(lambda e: e.key < 70)


def _select(stream):
    return stream.select(lambda p: (p[0],))


def _window_small(stream):
    return stream.tumbling_window(8)


def _window_large(stream):
    return stream.tumbling_window(64)


def _alter(stream):
    return stream.alter_duration(16)


PRE_SORT_STAGES = st.lists(
    st.sampled_from([
        _where_even, _where_keys, _select, _window_small, _window_large,
        _alter,
    ]),
    max_size=3,
)


def _count(stream):
    return stream.count()


def _group_count(stream):
    return stream.group_aggregate(Count())


def _group_sum(stream):
    return stream.group_aggregate(Sum(lambda p: 1))


def _coalesce(stream):
    return stream.coalesce()


def _session(stream):
    return stream.session_window(16)


def _top(stream):
    return stream.group_aggregate(Count()).top_k(3)


POST_SORT_STAGES = st.lists(
    st.sampled_from([
        _count, _group_count, _group_sum, _coalesce, _session, _top,
    ]),
    max_size=1,
)

STREAMS = st.lists(st.integers(0, 300), min_size=1, max_size=200)


class TestRandomQueries:
    @given(
        STREAMS,
        PRE_SORT_STAGES,
        POST_SORT_STAGES,
        st.integers(5, 60),
        st.integers(0, 100),
    )
    @settings(max_examples=120, deadline=None)
    def test_engine_invariants(self, times, pre, post, frequency, latency):
        events = [Event(t, t + 1, key=t % 100, payload=(t, t)) for t in times]
        stream = DisorderedStreamable.from_events(
            events, punctuation_frequency=frequency,
            reorder_latency=latency,
        )
        needs_window = any(f in (_count, _group_count, _group_sum)
                           for f in post)
        has_window = any(f in (_window_small, _window_large) for f in pre)
        for stage in pre:
            stream = stage(stream)
        ordered = stream.to_streamable()
        if needs_window and not has_window:
            ordered = ordered.tumbling_window(8)
        for stage in post:
            ordered = stage(ordered)
        result = ordered.collect()

        # 1. Completion.
        assert result.completed
        # 2. Global sync order.
        assert result.sync_times == sorted(result.sync_times)
        # 3. Punctuations are monotone (the event-vs-punctuation interleaving
        #    contract is covered per-operator in their dedicated tests).
        puncts = result.punctuations
        assert puncts == sorted(puncts)

    @given(STREAMS, st.integers(5, 60))
    @settings(max_examples=60, deadline=None)
    def test_memory_drains_after_flush(self, times, frequency):
        from repro.engine.graph import Pipeline, QueryNode
        from repro.engine.operators import Collector

        stream = (
            DisorderedStreamable.from_events(
                [Event(t) for t in times],
                punctuation_frequency=frequency,
                reorder_latency=50,
            )
            .tumbling_window(8)
            .to_streamable()
            .count()
        )
        sink_node = QueryNode(Collector, ((stream.node, None),))
        pipeline = Pipeline([sink_node])
        pipeline.run(stream.source.elements())
        assert pipeline.buffered_events() == 0

    @given(STREAMS, PRE_SORT_STAGES)
    @settings(max_examples=60, deadline=None)
    def test_conservation_without_filters(self, times, pre):
        """Chains without selection stages must conserve every on-time
        event through the sort."""
        pre = [f for f in pre if f not in (_where_even, _where_keys)]
        events = [Event(t, t + 1, key=t % 100, payload=(t, t)) for t in times]
        stream = DisorderedStreamable.from_events(
            events, punctuation_frequency=10,
            reorder_latency=max(times) + 1,
        )
        for stage in pre:
            stream = stage(stream)
        result = stream.to_streamable().collect()
        assert len(result.events) == len(times)


# -- row vs compiled differential fuzz --------------------------------------


def _p_where_payload(plan):
    return plan.where(field(0) > 10)


def _p_where_key(plan):
    return plan.where(key_field() < 4)


def _p_where_sync(plan):
    return plan.where(sync_field() % 2 == 0)


def _p_project(plan):
    return plan.select_columns((0, 1))


def _p_project_swap(plan):
    return plan.select_columns((1, 0))


def _p_where_str_key(plan):
    return plan.where(key_str_eq(_SERVICES, b"billing.core"))


def _p_where_str_prefix(plan):
    return plan.where(key_str_prefix(_SERVICES, b"auth."))


PLAN_PRE = st.lists(
    st.sampled_from([
        _p_where_payload, _p_where_key, _p_where_sync, _p_project,
        _p_project_swap, _p_where_str_key, _p_where_str_prefix,
    ]),
    max_size=3,
)


def _w_tumbling_small(plan):
    return plan.tumbling_window(8)


def _w_tumbling_large(plan):
    return plan.tumbling_window(64)


def _w_hopping(plan):
    return plan.hopping_window(32, 16)


PLAN_WINDOW = st.sampled_from(
    [_w_tumbling_small, _w_tumbling_large, _w_hopping]
)


def _t_count(plan):
    return plan.count()


def _t_sum(plan):
    return plan.aggregate(Sum(field(0)))


def _t_min(plan):
    return plan.aggregate(Min(field(0)))


def _t_max(plan):
    return plan.aggregate(Max(field(1)))


def _t_avg(plan):
    return plan.aggregate(Avg(field(0)))


def _t_group_count(plan):
    return plan.group_aggregate(Count())


def _t_group_sum(plan):
    return plan.group_aggregate(Sum(field(0)))


def _t_group_avg(plan):
    return plan.group_aggregate(Avg(field(1)))


def _t_group_top(plan):
    return plan.group_aggregate(Count()).top_k(2)


def _t_distinct(plan):
    return plan.distinct(field(0))


def _t_distinct_all(plan):
    return plan.distinct()


def _t_session(plan):
    return plan.session_window(16)


def _t_session_avg(plan):
    return plan.session_window(8, Avg(field(0)))


def _t_coalesce(plan):
    return plan.coalesce()


def _t_self_join(plan):
    return plan.self_join()


def _t_pattern(plan):
    return plan.pattern_match(field(0) > 25, field(1) < 4, 24)


def _t_group_apply(plan):
    return plan.group_apply(
        lambda s: s.where(field(1) < 7).tumbling_window(16)
        .aggregate(Sum(field(0)))
    )


def _t_group_apply_stage(plan):
    return plan.group_apply(lambda s: s.where(field(0) > 10))


def _t_raw_top(plan):
    return plan.top_k(2)


PLAN_TERMINAL = st.sampled_from([
    _t_count, _t_sum, _t_min, _t_max, _t_avg,
    _t_group_count, _t_group_sum, _t_group_avg, _t_group_top,
    _t_distinct, _t_distinct_all, _t_session, _t_session_avg,
    _t_coalesce, _t_self_join, _t_pattern,
    _t_group_apply, _t_group_apply_stage, _t_raw_top,
])

PLAN_POLICY = st.sampled_from(
    [LatePolicy.DROP, LatePolicy.ADJUST, LatePolicy.RAISE]
)


def _first_small(event):
    return event.payload[0] < 10


def _then_big(event):
    return event.payload[0] >= 40


def _opaque_where(event):
    return event.key < 4


#: Keys spread over ±2**40 and ±2**62: a round holding both extremes
#: cannot pack ``(start, key)`` into one int64 sort key.
_WIDE_KEYS = (-(2 ** 62), -(2 ** 40), -3, 0, 2, 2 ** 40 + 1, 2 ** 62)


def _small_shape(t):
    return t % 6, (t % 50, t % 9)


def _wide_keys_shape(t):
    return _WIDE_KEYS[t % 7], (t % 50, t % 9)


def _huge_values_shape(t):
    """Payloads near ±2**62: a window's sum leaves int64."""
    sign = 1 if t % 3 else -1
    return t % 6, (sign * (2 ** 62 + t % 50), 2 ** 62 - t % 9)


EVENT_SHAPES = st.sampled_from(
    [_small_shape, _wide_keys_shape, _huge_values_shape]
)

#: Chunk sizes the push legs cycle through between punctuations; 1-event
#: chunks are common, so a ``where`` often empties one.
CHUNK_SIZES = st.lists(
    st.one_of(st.just(1), st.integers(1, 50)), min_size=1, max_size=4
)


def _push(elements, sizes, feed, punctuate, flush):
    """Drive a push executor over ingress ``elements``: the events
    between two punctuations in chunks of ``sizes`` (cycled), each
    punctuation, then the flush.  Returns an ``outcomes`` entry."""
    sizes = itertools.cycle(sizes)
    events, puncts, run = [], [], []

    def collect(round_):
        events.extend(round_[0])
        puncts.extend(round_[1])
    try:
        for element in elements + [None]:
            if element is not None and not is_punctuation(element):
                run.append(element)
                continue
            while run:
                size = next(sizes)
                feed(run[:size])
                run = run[size:]
            if element is not None:
                collect(punctuate(element.timestamp))
        collect(flush())
    except LateEventError as exc:
        return "late", exc.args
    return "ok", events, puncts, "push"


class TestRowVsCompiled:
    """Differential fuzz: ``engine="row"`` versus ``engine="auto"``.

    Every compilable plan shape must produce byte-identical events and
    punctuations on both engines (and genuinely take the columnar
    path); RAISE plans must raise the identical ``LateEventError`` on
    both; non-compilable shapes must fall back to the row engine —
    silently under ``auto`` — with identical output.

    Each engine also runs a third/fourth leg under a deliberately tiny
    ``memory_budget``, forcing the bounded-memory spill path: output
    must stay byte-identical to the unbudgeted runs while the resident
    buffer never exceeds the budget.
    """

    @given(
        STREAMS,
        PLAN_PRE,
        PLAN_WINDOW,
        PLAN_TERMINAL,
        PLAN_POLICY,
        st.integers(5, 60),
        st.integers(0, 100),
        EVENT_SHAPES,
        CHUNK_SIZES,
    )
    # A fused run of three wheres on payload, key and sync over keys
    # that force the lexsort fallback; and a where after a projection
    # that reorders the payload, with sums leaving int64 across rounds.
    @example(
        list(range(120)), [_p_where_payload, _p_where_key, _p_where_sync],
        _w_tumbling_small, _t_group_sum, LatePolicy.DROP, 40, 0,
        _wide_keys_shape, [1, 7],
    )
    @example(
        list(range(0, 120, 3)) + list(range(1, 120, 5)),
        [_p_project_swap, _p_where_payload], _w_hopping, _t_group_avg,
        LatePolicy.ADJUST, 7, 20, _huge_values_shape, [3],
    )
    @settings(max_examples=100, deadline=None)
    def test_compiled_matches_row(self, times, pre, window, terminal,
                                  policy, frequency, latency, shape, sizes):
        events = [Event(t, t + 1, *shape(t)) for t in times]
        plan = QueryPlan()
        for stage in pre:
            plan = stage(plan)
        plan = terminal(window(plan).sort(late_policy=policy))
        outcomes = []
        for engine, budget in (
            ("row", None), ("auto", None), ("row", 64), ("auto", 64),
        ):
            try:
                result = plan.run(
                    list(events), frequency, latency, engine=engine,
                    memory_budget=budget,
                )
                outcomes.append((
                    "ok", result.events, result.punctuations, result.engine
                ))
                if budget is None:
                    assert result.spill is None
                else:
                    assert result.spill["peak_buffered_bytes"] <= budget
            except LateEventError as exc:
                outcomes.append(("late", exc.args))
        # The push face itself, fed chunks of the hypothesis sizes, and
        # the shard executor that drives it, with its items decoded.
        elements = list(ingress_events(events, frequency, latency))
        executor = compile_plan(plan).open()
        outcomes.append(_push(
            elements, sizes, executor.feed_events, executor.punctuate,
            executor.flush,
        ))
        if outcomes[-1][0] == "ok":
            assert executor.buffered() == 0
        shard_plan = CompiledShardPlan(plan)
        shard = shard_plan.build_executor(0)

        def decoded(call):
            return lambda *args: item_events(
                call(*args), shard_plan.wire_mode
            )
        outcomes.append(_push(
            elements, sizes, shard.feed_elements,
            decoded(shard.feed_punctuation), decoded(shard.feed_flush),
        ))
        first = outcomes[0]
        for other in outcomes[1:]:
            assert other[0] == first[0]
            assert other[1] == first[1]  # events, or identical error args
            if first[0] == "ok":
                assert other[2] == first[2]  # punctuations
        if first[0] == "ok":
            assert outcomes[0][3] == outcomes[2][3] == "row"
            assert outcomes[1][3] == outcomes[3][3] == "columnar"

    @pytest.mark.parametrize("build", [
        lambda: (QueryPlan().where(_opaque_where).tumbling_window(8)
                 .sort().count()),
        lambda: (QueryPlan().select(lambda p: (p[0],)).tumbling_window(8)
                 .sort().count()),
        lambda: (QueryPlan().sort()
                 .pattern_match(_first_small, _then_big, 16)),
        lambda: QueryPlan().sort().session_window(16, key_fn=_opaque_where),
        lambda: (QueryPlan().tumbling_window(8)
                 .sort(sorter=lambda: None).count()),
        lambda: (QueryPlan().tumbling_window(8).sort()
                 .top_k(2, score_fn=lambda e: e.payload)),
    ], ids=[
        "lambda-where", "lambda-select", "pattern-match",
        "lambda-session-key", "custom-sorter", "lambda-topk-score",
    ])
    def test_fallback_plans_identical(self, build):
        import random

        rng = random.Random(17)
        events = [
            Event(rng.randrange(200), key=rng.randrange(5),
                  payload=(rng.randrange(50), rng.randrange(9)))
            for _ in range(400)
        ]
        plan = build()
        row = plan.run(list(events), 32, 40, engine="row")
        auto = plan.run(list(events), 32, 40, engine="auto")
        assert auto.engine == "row"
        assert auto.reason
        assert row.events == auto.events
        assert row.punctuations == auto.punctuations
        assert "-- path: row (fallback:" in plan.explain()

    def test_columnar_engine_refuses_uncompilable_plan(self):
        from repro.core.errors import QueryBuildError

        plan = (QueryPlan().where(_opaque_where).tumbling_window(8)
                .sort().count())
        with pytest.raises(QueryBuildError, match="cannot be compiled"):
            plan.run([Event(1)], 4, 0, engine="columnar")


# -- fallback-reason histogram (CI regression gate) -------------------------

# The canonical plan corpus: every query shape the test suite exercises,
# tagged with the execution path it is *expected* to take.  Shapes that
# once compiled must never silently regress to the row engine — the gate
# below fails the build if they do.
CANONICAL_CORPUS = {
    "count": lambda: QueryPlan().tumbling_window(8).sort().count(),
    "sum": lambda: (QueryPlan().tumbling_window(8).sort()
                    .aggregate(Sum(field(0)))),
    "avg": lambda: (QueryPlan().hopping_window(32, 16).sort()
                    .aggregate(Avg(field(0)))),
    "min": lambda: (QueryPlan().tumbling_window(8).sort()
                    .aggregate(Min(field(0)))),
    "max": lambda: (QueryPlan().tumbling_window(8).sort()
                    .aggregate(Max(field(1)))),
    "group-count": lambda: (QueryPlan().tumbling_window(8).sort()
                            .group_aggregate(Count())),
    "group-avg": lambda: (QueryPlan().tumbling_window(8).sort()
                          .group_aggregate(Avg(field(0)))),
    "group-top-k": lambda: (QueryPlan().tumbling_window(8).sort()
                            .group_aggregate(Count()).top_k(2)),
    "filtered-agg": lambda: (QueryPlan().where(field(0) > 10)
                             .where(key_field() < 4).tumbling_window(8)
                             .sort().aggregate(Sum(field(0)))),
    "projected-agg": lambda: (QueryPlan().select_columns((0,))
                              .tumbling_window(8).sort().count()),
    "distinct": lambda: QueryPlan().sort().distinct(field(0)),
    "distinct-all": lambda: QueryPlan().sort().distinct(),
    "session-window": lambda: QueryPlan().sort().session_window(16),
    "session-avg": lambda: (QueryPlan().sort()
                            .session_window(8, Avg(field(0)))),
    "coalesce": lambda: QueryPlan().tumbling_window(8).sort().coalesce(),
    "self-join": lambda: QueryPlan().sort().self_join(),
    "pattern-match": lambda: (QueryPlan().sort()
                              .pattern_match(field(0) > 25, field(1) < 4,
                                             16)),
    "group-apply-agg": lambda: QueryPlan().sort().group_apply(
        lambda s: s.where(field(1) < 7).tumbling_window(16)
        .aggregate(Sum(field(0)))
    ),
    "group-apply-stages": lambda: (QueryPlan().sort()
                                   .group_apply(
                                       lambda s: s.where(field(0) > 10))),
    "raw-top-k": lambda: QueryPlan().tumbling_window(8).sort().top_k(2),
    # String predicates lower to dictionary-code int comparisons and
    # must stay on the columnar path (PR: string keys end-to-end).
    "string-key-eq": lambda: (
        QueryPlan().where(key_str_eq(_SERVICES, b"cart.svc"))
        .tumbling_window(8).sort().count()),
    "string-key-prefix": lambda: (
        QueryPlan().where(key_str_prefix(_SERVICES, b"billing."))
        .tumbling_window(8).sort().group_aggregate(Count())),
    "string-field-eq": lambda: (
        QueryPlan().where(field_str_eq(1, _SERVICES, b"auth.web"))
        .tumbling_window(8).sort().aggregate(Sum(field(0)))),
    "string-field-prefix": lambda: (
        QueryPlan().where(field_str_prefix(1, _SERVICES, b"search."))
        .tumbling_window(8).sort().count()),
    # Genuinely uncompilable: opaque Python callables and custom sorters.
    "lambda-where": lambda: (QueryPlan().where(_opaque_where)
                             .tumbling_window(8).sort().count()),
    "lambda-select": lambda: (QueryPlan().select(lambda p: (p[0],))
                              .tumbling_window(8).sort().count()),
    "lambda-pattern": lambda: (QueryPlan().sort()
                               .pattern_match(_first_small, _then_big, 16)),
    "lambda-session-key": lambda: (QueryPlan().sort()
                                   .session_window(16,
                                                   key_fn=_opaque_where)),
    "lambda-topk-score": lambda: (QueryPlan().tumbling_window(8).sort()
                                  .top_k(2, score_fn=lambda e: e.payload)),
    "custom-sorter": lambda: (QueryPlan().tumbling_window(8)
                              .sort(sorter=lambda: None).count()),
}

ROW_SHAPES = frozenset({
    "lambda-where", "lambda-select", "lambda-pattern",
    "lambda-session-key", "lambda-topk-score", "custom-sorter",
})


def _bucket(reason):
    if "opaque Python callable" in reason:
        return "opaque-python-callable"
    if "custom sorter" in reason:
        return "custom-sorter"
    return reason


HISTOGRAM_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "fallback_histogram.json"
)


def fallback_histogram():
    """Analyze every corpus plan: ``(paths, histogram, json text)``."""
    from repro.engine.compiler import analyze_plan

    paths = {}
    histogram = {}
    for name, build in CANONICAL_CORPUS.items():
        path, reason = analyze_plan(build())
        paths[name] = {"path": path, "reason": reason}
        if path == "row":
            bucket = _bucket(reason)
            histogram[bucket] = histogram.get(bucket, 0) + 1
    text = json.dumps(
        {"histogram": dict(sorted(histogram.items())), "plans": paths},
        indent=2, sort_keys=False,
    ) + "\n"
    return paths, histogram, text


class TestFallbackHistogram:
    """Gate lowering coverage against the committed fallback histogram.

    ``fallback_histogram.json`` at the repo root records, per corpus
    plan, the engine it lowers to, so coverage is diffable across
    commits.  Three assertions act as the CI regression gate:

    * the committed file matches the current analysis — regenerate it
      with ``PYTHONPATH=src python -m tests.test_fuzz_queries`` and
      commit the diff;
    * every shape the compiler has ever lowered still compiles
      (``ROW_SHAPES`` is the exhaustive allow-list of fallbacks);
    * the bucketed histogram has at most two categories — opaque Python
      callables and custom sorters are the only residual fallbacks.
    """

    def test_histogram_export_and_regression_gate(self):
        paths, histogram, text = fallback_histogram()
        assert HISTOGRAM_PATH.read_text() == text, (
            f"{HISTOGRAM_PATH.name} is stale; regenerate it with "
            f"`PYTHONPATH=src python -m tests.test_fuzz_queries` and "
            f"commit the diff"
        )

        regressions = sorted(
            name for name, info in paths.items()
            if info["path"] == "row" and name not in ROW_SHAPES
        )
        assert not regressions, (
            f"previously-lowered shapes fell back to the row engine: "
            f"{regressions} "
            f"({ {n: paths[n]['reason'] for n in regressions} })"
        )
        assert set(histogram) <= {"opaque-python-callable", "custom-sorter"}
        assert len(histogram) <= 2


if __name__ == "__main__":
    HISTOGRAM_PATH.write_text(fallback_histogram()[2])
