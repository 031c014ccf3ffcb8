"""Combine below the sort: a windowed aggregate's compiled executor folds
each admitted ingress chunk into one partial row per (window, key)
before the sorter, and must stay indistinguishable from the row engine.

Hypothesis draws dense and sparse grids, every spec with and without a
chained ``top_k``, the DROP/ADJUST/RAISE late policies (RAISE also with
a quarantine ledger), a memory budget that spills partial rows, and
values near ±2**62 whose chunks cannot be folded exactly.  After every
call the compiled executor and the unbudgeted row engine must return the
same round, the same late counters and ledger, and the same
``buffered()`` census.  The named tests below pin when a chunk folds and
when it goes in unfolded.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import LateEventError
from repro.core.late import LatePolicy
from repro.engine import QueryPlan, compile_plan
from repro.engine.compiler import RowExecution
from repro.engine.event import Event
from repro.engine.kernels import field
from repro.engine.operators.aggregates import Avg, Count, Max, Min, Sum
from repro.resilience.quarantine import QuarantineLedger

_AGGREGATES = {"count": Count, "sum": Sum, "avg": Avg, "min": Min,
               "max": Max}


def _plan(name, grouped, size, hop, policy, top_k):
    plan = QueryPlan().hopping_window(size, hop).sort(late_policy=policy)
    aggregate = Count() if name == "count" else _AGGREGATES[name](field(0))
    plan = plan.group_aggregate(aggregate) if grouped \
        else plan.aggregate(aggregate)
    return plan if top_k is None else plan.top_k(top_k)


def _columns(events):
    return (
        np.array([e.sync_time for e in events], np.int64),
        None,
        np.array([e.key for e in events], np.int64),
        [np.array([e.payload[0] for e in events], np.int64)],
    )


def _census(executor):
    stats = executor.stats()
    return (executor.buffered(), stats["buffered_peak"],
            stats["late_dropped"], stats["late_adjusted"],
            executor.sorter.late.quarantined)


def _ledger(executor):
    ledger = executor.sorter.late.quarantine
    return None if ledger is None else [
        (entry.reason, entry.element, entry.context)
        for entry in ledger.entries
    ]


def _step(executor, op):
    """One call's outcome: the round printed, or the error raised."""
    try:
        if op[0] == "feed":
            executor.feed(*_columns(op[1]))
            return None
        if op[0] == "punct":
            return repr(executor.punctuate(op[1]))
        return repr(executor.flush())
    except LateEventError as exc:
        return ("raised", exc.args)


def _play_both(plan, ops, budget, quarantine):
    row = RowExecution(plan._bind)
    compiled = compile_plan(plan).open(budget)
    if quarantine:
        row.sorter.late.quarantine = QuarantineLedger()
        compiled.sorter.late.quarantine = QuarantineLedger()
    try:
        for op in ops:
            outcome = _step(row, op)
            assert _step(compiled, op) == outcome, op
            if isinstance(outcome, tuple):
                return
            assert _census(compiled) == _census(row), op
            assert _ledger(compiled) == _ledger(row)
    finally:
        row.close()
        compiled.close()


_VALUES = st.one_of(
    st.integers(-50, 50),
    st.integers(2 ** 61 - 3, 2 ** 61 + 3),
    st.integers(2 ** 62 - 3, 2 ** 62 + 3),
    st.integers(-(2 ** 62) - 3, -(2 ** 62) + 3),
)


@st.composite
def _scripts(draw):
    """Calls on a dense or a sparse grid: feeds of ``(t, key, value)``
    events, advancing punctuations, then the flush."""
    dense = draw(st.booleans())
    keys = st.integers(0, 3) if dense else st.integers(0, 10 ** 6)
    span = draw(st.integers(8, 60)) if dense else 10 ** 5
    ops, watermark = [], 0
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            watermark += draw(st.integers(0, span // 2))
            ops.append(("punct", watermark))
            continue
        low = max(0, watermark - draw(st.integers(0, 10)))
        rows = draw(st.lists(
            st.tuples(st.integers(low, low + span), keys, _VALUES),
            min_size=1, max_size=30,
        ))
        ops.append(("feed", [
            Event(t, key=key, payload=(value,)) for t, key, value in rows
        ]))
    ops.append(("flush",))
    return ops


@given(
    name=st.sampled_from(sorted(_AGGREGATES)),
    grouped=st.booleans(),
    size=st.integers(1, 16),
    hop_divides=st.booleans(),
    policy=st.sampled_from(
        [LatePolicy.DROP, LatePolicy.ADJUST, LatePolicy.RAISE, "quarantine"]
    ),
    top_k=st.none() | st.integers(1, 3),
    budget=st.none() | st.sampled_from([96, 256]),
    ops=_scripts(),
)
@settings(max_examples=300, deadline=None)
def test_folded_executor_matches_the_row_engine(name, grouped, size,
                                                hop_divides, policy, top_k,
                                                budget, ops):
    hop = size if hop_divides else max(1, size // 2)
    quarantine = policy == "quarantine"
    if quarantine:
        policy = LatePolicy.RAISE
    plan = _plan(name, grouped, size, hop, policy, top_k)
    _play_both(plan, ops, budget, quarantine)


# -- when a chunk folds ------------------------------------------------------


def _chunk(n=400, seed=5, keys=4, spread=64, value=lambda rng: 7):
    rng = random.Random(seed)
    return [
        Event(rng.randrange(spread), key=rng.randrange(keys),
              payload=(value(rng),))
        for _ in range(n)
    ]


def _sort_rows(plan, events, punct=None):
    """Rows the sort stage took in for one chunk (after an optional
    punctuation), and the flushed result."""
    executor = compile_plan(plan).open()
    if punct is not None:
        executor.punctuate(punct)
    executor.feed(*_columns(events))
    out = executor.flush()
    doc = executor.result([], [], None).snapshot().operator("sort")
    return doc["events"]["in"], out


def _group_sum(policy=LatePolicy.DROP):
    return _plan("sum", True, 8, 8, policy, None)


def test_a_dense_chunk_folds_to_one_row_per_window_and_key():
    events = _chunk()
    rows, out = _sort_rows(_group_sum(), events)
    assert rows == len({(e.sync_time // 8, e.key) for e in events}) == 32
    row = RowExecution(_group_sum()._bind)
    row.feed(*_columns(events))
    assert repr(out) == repr(row.flush())


def test_a_sparse_grid_goes_in_unfolded():
    events = _chunk(n=40, keys=10 ** 6)
    rows, _ = _sort_rows(_group_sum(), events)
    assert rows == len(events)


def test_a_sum_that_could_leave_int64_goes_in_unfolded():
    events = _chunk(value=lambda rng: rng.choice([2 ** 62, -(2 ** 62)]))
    rows, _ = _sort_rows(_group_sum(), events)
    assert rows == len(events)
    # min and max cannot overflow: the same chunk folds.
    rows, _ = _sort_rows(_plan("max", True, 8, 8, LatePolicy.DROP, None),
                         events)
    assert rows == 32


def test_an_adjusted_chunk_goes_in_unfolded():
    events = _chunk()
    rows, _ = _sort_rows(_group_sum(LatePolicy.ADJUST), events, punct=23)
    assert rows == len(events)
    # DROP removes the same late events; the survivors still fold.
    rows, _ = _sort_rows(_group_sum(LatePolicy.DROP), events, punct=23)
    late = sum(1 for e in events if e.sync_time < 24)
    folded = len({(e.sync_time // 8, e.key) for e in events
                  if e.sync_time >= 24})
    assert rows == late + folded


def test_the_census_counts_events_not_partial_rows():
    events = _chunk()
    executor = compile_plan(_group_sum()).open()
    executor.feed(*_columns(events))
    assert executor.sorter.buffered == 32
    assert executor.buffered() == len(events)
    executor.punctuate(31)
    assert executor.sorter.buffered == 16
    assert executor.buffered() == sum(1 for e in events if e.sync_time >= 32)
    executor.close()


@pytest.mark.parametrize("policy", [LatePolicy.DROP, LatePolicy.ADJUST])
def test_a_budget_spills_partial_rows_with_identical_rounds(policy):
    events = _chunk(n=2000, spread=1000, seed=9)
    plan = _group_sum(policy)
    compiled = compile_plan(plan).open(memory_budget=256)
    row = RowExecution(plan._bind)
    punct = 0
    for start in range(0, len(events), 250):
        chunk = events[start:start + 250]
        for executor in (compiled, row):
            executor.feed(*_columns(chunk))
        punct += 100
        assert repr(compiled.punctuate(punct)) == repr(row.punctuate(punct))
        assert _census(compiled) == _census(row)
    assert repr(compiled.flush()) == repr(row.flush())
    assert compiled.result([], [], None).spill["spills"] > 0
