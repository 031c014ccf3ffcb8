"""The one push face: both engines' executors, round by round.

:meth:`CompiledPlan.open` and :class:`RowExecution` return the same face —
``feed``/``feed_events``, ``punctuate``/``flush`` returning the round's
``(events, punctuations)``, ``buffered``, ``stats``.  Here the two are
fed the same chunks (as columns and as events) and the same
punctuations, and every round must print the same, the buffered census
must agree after the flush — after every call for the windowed
aggregates, whose compiled sorter holds folded partial rows — and a
``sort=raise`` plan must raise the same error at the same call.  A plan
the compiler cannot lower (an opaque ``where`` lambda) runs on the row
face against its structured twin on the compiled face.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.core.columnar import ColumnarImpatienceSorter
from repro.core.errors import LateEventError
from repro.core.late import LatePolicy
from repro.engine import QueryPlan, compile_plan
from repro.engine.compiler import RowExecution, UnsupportedPlanError
from repro.engine.event import Event
from repro.engine.kernels import field, key_field
from repro.engine.operators.aggregates import Avg, Count, Sum
from repro.engine.punctuation import PunctuationPolicy


def _key_below_3(event):
    return event.key < 3


def _windowed(policy=LatePolicy.DROP):
    return QueryPlan().tumbling_window(8).sort(late_policy=policy)


#: ``(id, row plan, compiled plan)``: the same query on both faces.
CORPUS = [
    ("count", _windowed().count(), None),
    ("group-sum-adjust",
     _windowed(LatePolicy.ADJUST).group_aggregate(Sum(field(0))), None),
    ("hopping-avg",
     QueryPlan().hopping_window(16, 4).sort().aggregate(Avg(field(1))),
     None),
    ("where-project-group-top",
     QueryPlan().where(field(0) > 10).select_columns((1, 0))
     .tumbling_window(8).sort().group_aggregate(Count()).top_k(2), None),
    ("distinct", _windowed().distinct(field(1)), None),
    ("session", QueryPlan().sort().session_window(12, Sum(field(0))), None),
    ("coalesce", QueryPlan().sort().coalesce(), None),
    ("self-join", _windowed().self_join(), None),
    ("pattern",
     QueryPlan().sort().pattern_match(field(0) > 25, field(1) < 4, 24),
     None),
    ("group-apply", QueryPlan().sort().group_apply(
        lambda s: s.where(field(1) < 7).tumbling_window(16).count()
    ), None),
    ("raw-top-k", _windowed(LatePolicy.ADJUST).top_k(3), None),
    ("opaque-where",
     QueryPlan().where(_key_below_3).tumbling_window(8).sort().count(),
     QueryPlan().where(key_field() < 3).tumbling_window(8).sort().count()),
]

#: The windowed-aggregate shapes: their census agrees after every call.
AGGREGATES = {
    "count", "group-sum-adjust", "hopping-avg", "where-project-group-top",
    "opaque-where",
}


def _stream(seed, n=300):
    """Disordered events: arrival order drifts up, with stragglers."""
    rng = random.Random(seed)
    events = []
    for i in range(n):
        t = max(0, i // 2 + rng.randrange(-12, 4))
        events.append(Event(t, t + 1 + rng.randrange(3), rng.randrange(5),
                            (rng.randrange(50), rng.randrange(9))))
    return events


def _columns(events):
    return (
        np.array([e.sync_time for e in events], np.int64),
        np.array([e.other_time for e in events], np.int64),
        np.array([e.key for e in events], np.int64),
        [np.array(col, np.int64) for col in zip(*(e.payload for e in events))],
    )


def _script(events, frequency, latency, sizes):
    """The calls both faces get: ``("feed", events)`` chunks of the
    cycled ``sizes`` (odd steps as columns), a ``("punct", t)`` where the
    policy puts one, its end-of-data punctuation, then ``("flush",)``."""
    policy = PunctuationPolicy(frequency, latency)
    sizes = itertools.cycle(sizes)
    steps, position = [], 0
    while position < len(events):
        stop = min(position + next(sizes), position + policy.room(),
                   len(events))
        chunk = events[position:stop]
        steps.append(("feed", chunk))
        timestamp = policy.observe_chunk(
            len(chunk), max(e.sync_time for e in chunk)
        )
        position = stop
        if timestamp is not None:
            steps.append(("punct", timestamp))
    steps.append(("punct", policy.final()))
    steps.append(("flush",))
    return steps


def _play(executor, steps, census=False):
    """Each call's outcome, printed: a round, ``None`` for a feed, or
    the error raised (which ends the script); with ``census``, each
    call's is followed by ``buffered()`` after it."""
    outcomes = []
    for index, step in enumerate(steps):
        try:
            if step[0] == "feed":
                if index % 2:
                    executor.feed(*_columns(step[1]))
                else:
                    executor.feed_events(step[1])
                outcomes.append(None)
            elif step[0] == "punct":
                outcomes.append(repr(executor.punctuate(step[1])))
            else:
                outcomes.append(repr(executor.flush()))
            if census:
                outcomes.append(("buffered", executor.buffered()))
        except LateEventError as exc:
            outcomes.append(("raised", type(exc).__name__, exc.args))
            executor.close()
            break
    return outcomes


@pytest.mark.parametrize(
    "row_plan, compiled_plan, census",
    [(row, compiled or row, name in AGGREGATES)
     for name, row, compiled in CORPUS],
    ids=[name for name, _, _ in CORPUS],
)
@pytest.mark.parametrize("seed, frequency, latency, sizes", [
    (1, 16, 6, [5, 16]),
    (2, 40, 0, [1, 7, 40]),
    (3, 9, 20, [3]),
])
def test_faces_return_identical_rounds(row_plan, compiled_plan, census,
                                       seed, frequency, latency, sizes):
    steps = _script(_stream(seed), frequency, latency, sizes)
    row = RowExecution(row_plan._bind)
    compiled = compile_plan(compiled_plan).open()
    played = _play(row, steps, census)
    assert played == _play(compiled, steps, census)
    assert any(outcome and "Event(" in outcome for outcome in played)
    assert repr(row.buffered()) == repr(compiled.buffered())
    row_stats, compiled_stats = row.stats(), compiled.stats()
    assert row_stats.keys() == compiled_stats.keys()
    for name in ("late_dropped", "late_adjusted"):
        assert row_stats[name] == compiled_stats[name]


def _in_pieces(steps, rng, taken):
    """Each released step re-cut at random sort-key boundaries — the
    only places a spilling sorter's stream cuts a round; ``taken``
    counts the pieces of every round."""
    count = 0
    for keys, cols, objs, scols in steps:
        bounds = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        cuts = sorted(rng.sample(
            bounds.tolist(), min(bounds.size, rng.randrange(5))
        ))
        for start, stop in zip([0, *cuts], [*cuts, keys.size]):
            count += 1
            yield keys[start:stop], tuple(
                col[start:stop] for col in cols
            ), objs, scols
    taken.append(count)


@pytest.mark.parametrize(
    "plan", [compiled or row for _, row, compiled in CORPUS],
    ids=[name for name, _, _ in CORPUS],
)
@pytest.mark.parametrize("seed, frequency, latency, sizes", [
    (1, 16, 6, [5, 16]),
    (3, 9, 20, [3]),
])
def test_every_terminal_takes_a_round_in_pieces(monkeypatch, plan, seed,
                                                frequency, latency, sizes):
    """A budgeted sorter releases a round as several steps, so every
    terminal kernel must take several ingests before one punctuation:
    the same rounds cut into pieces at sort-key boundaries give the
    same events, punctuations and ``buffered()`` after every call as
    one ingest per round."""
    steps = _script(_stream(seed), frequency, latency, sizes)
    whole = _play(compile_plan(plan).open(), steps, census=True)
    rng, taken = random.Random(seed), []
    release = ColumnarImpatienceSorter.release
    monkeypatch.setattr(
        ColumnarImpatienceSorter, "release",
        lambda self, timestamp: _in_pieces(
            release(self, timestamp), rng, taken
        ),
    )
    assert _play(compile_plan(plan).open(), steps, census=True) == whole
    assert max(taken) > 1


@pytest.mark.parametrize(
    "plan", [compiled or row for _, row, compiled in CORPUS],
    ids=[name for name, _, _ in CORPUS],
)
def test_budgeted_compiled_rounds_match_unbudgeted(plan):
    """At a budget of a few rows the sorter spills and streams every
    round back in steps; each round prints as the unbudgeted one."""
    steps = _script(_stream(5), 30, 10, [30])
    spilling = compile_plan(plan).open(memory_budget=64)
    assert _play(spilling, steps) == _play(compile_plan(plan).open(), steps)
    doc = spilling.result([], [], None).spill
    assert doc["spills"] > 0 and doc["blocks_read"] == doc["blocks_written"]


def test_the_opaque_twin_does_not_compile():
    with pytest.raises(UnsupportedPlanError, match="where"):
        compile_plan(CORPUS[-1][1])


@pytest.mark.parametrize("late_at", [12, 30])
def test_sort_raise_raises_alike_at_the_same_call(late_at):
    events = [Event(t, payload=(t,)) for t in range(0, 60, 2)]
    events.insert(late_at, Event(1, payload=(1,)))
    steps = _script(events, 8, 0, [4])
    plan = _windowed(LatePolicy.RAISE).count()
    row = _play(RowExecution(plan._bind), steps)
    compiled = _play(compile_plan(plan).open(), steps)
    assert row == compiled
    assert row[-1][:2] == ("raised", "LateEventError")


def test_memory_budget_spills_on_the_row_face():
    plan = _windowed().group_aggregate(Sum(field(0)))
    steps = _script(_stream(4), 30, 10, [30])
    spilling = RowExecution(plan._bind, memory_budget=256)
    assert _play(spilling, steps) == _play(RowExecution(plan._bind), steps)
    doc = spilling.result([], [], None).spill
    assert doc["spills"] > 0
    assert doc["peak_buffered_bytes"] <= 256
