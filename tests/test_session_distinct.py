"""Tests for SessionWindow, DistinctWindow and CountDistinct."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Streamable
from repro.engine.event import Event, Punctuation
from repro.engine.kernels import SessionKernel, field
from repro.engine.operators import (
    Avg,
    Collector,
    Count,
    CountDistinct,
    DistinctWindow,
    Max,
    Min,
    SessionWindow,
    Sum,
)


def wire(op):
    sink = Collector()
    op.add_downstream(sink)
    return sink


class TestSessionWindow:
    def test_gap_splits_sessions(self):
        op = SessionWindow(timeout=10)
        sink = wire(op)
        for t in (0, 5, 9, 30, 35):
            op.on_event(Event(t, key=1))
        op.on_flush()
        assert [(e.sync_time, e.other_time, e.payload) for e in sink.events] \
            == [(0, 19, 3), (30, 45, 2)]
        assert op.sessions == 2

    def test_exact_timeout_gap_splits(self):
        op = SessionWindow(timeout=10)
        sink = wire(op)
        op.on_event(Event(0, key=1))
        op.on_event(Event(10, key=1))  # gap == timeout: new session
        op.on_flush()
        assert len(sink.events) == 2

    def test_keys_independent(self):
        op = SessionWindow(timeout=10)
        sink = wire(op)
        op.on_event(Event(0, key=1))
        op.on_event(Event(5, key=2))
        op.on_flush()
        assert sorted(e.key for e in sink.events) == [1, 2]

    def test_custom_aggregate(self):
        op = SessionWindow(timeout=10, aggregate=Sum())
        sink = wire(op)
        op.on_event(Event(0, key=1, payload=3))
        op.on_event(Event(1, key=1, payload=4))
        op.on_flush()
        assert sink.events[0].payload == 7

    def test_punctuation_closes_expired_sessions(self):
        op = SessionWindow(timeout=10)
        sink = wire(op)
        op.on_event(Event(0, key=1))
        op.on_punctuation(Punctuation(5))
        assert sink.events == []  # still within timeout of last event
        op.on_punctuation(Punctuation(9))
        assert len(sink.events) == 1  # 0 + 10 - 1 <= 9: closed

    def test_open_session_clamps_punctuation(self):
        op = SessionWindow(timeout=100)
        sink = wire(op)
        op.on_event(Event(50, key=1))
        op.on_punctuation(Punctuation(60))
        assert sink.punctuations == [49]

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            SessionWindow(0)

    def test_stream_api_and_order(self, rng):
        events = []
        t = 0
        for _ in range(300):
            t += rng.randrange(1, 6)
            events.append(Event(t, key=rng.randrange(3)))
        out = Streamable.from_elements(events).session_window(8).collect()
        assert out.sync_times == sorted(out.sync_times)
        assert sum(e.payload for e in out.events) == len(events)


@st.composite
def session_rounds(draw):
    """``[(rows, punctuation)]``: one stream of ``(time, key, value)``
    rows cut into rounds at arbitrary points, a punctuation after each.

    Six keys over 16 timestamps with timeouts up to 6: different keys'
    sessions share start timestamps (the only case where retirement
    order shows), keys reopen inside a round, sessions straddle rounds
    and one punctuation retires several keys.  The six keys are
    ``0..5``, negatives (both within a 16-bit span, the kernel's radix
    key order), or a set spanning at least 2**16 or ±2**62 (its int64
    key order).  Usually time-ordered, as the sorter releases them;
    otherwise left as drawn, which is what an ADJUST round (late rows
    re-sorted at the watermark, original times kept) looks like to the
    kernel."""
    key_set = draw(st.sampled_from([
        range(6),
        (-300, -44, -1, 0, 1, 2),
        (-5, 0, 7, 2**16, 2**16 + 3, 2**20),
        (-2**62, -1, 0, 1, 2**62 - 1, 2**62),
    ]))
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, 15), st.sampled_from(key_set),
            st.integers(-40, 40),
        ),
        max_size=70,
    ))
    if draw(st.sampled_from([True, True, False])):
        rows.sort(key=lambda row: row[0])
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=6)))
    rounds = []
    high = 0
    for start, stop in zip([0] + cuts, cuts + [len(rows)]):
        chunk = rows[start:stop]
        high = max([high] + [row[0] for row in chunk])
        rounds.append((chunk, high - draw(st.integers(0, 4))))
    return rounds


class TestSessionKernel:
    """The vectorized fold against the row operator it replaces."""

    @pytest.mark.parametrize("fold,value_index,aggregate", [
        ("count", None, Count),
        ("count", 0, Count),
        ("sum", 0, lambda: Sum(field(0))),
        ("min", 0, lambda: Min(field(0))),
        ("max", 0, lambda: Max(field(0))),
        ("avg", 0, lambda: Avg(field(0))),
    ])
    @given(rounds=session_rounds(), timeout=st.integers(1, 6))
    # Key 1's session carried in from round one and key 2's session
    # inside round two both start at 5; key 2 reopens first, so its
    # session retires first — against key order.
    @example(
        rounds=[
            ([(5, 1, 0)], 0),
            ([(5, 2, 0), (6, 2, 0), (6, 1, 0)], 6),
        ],
        timeout=1,
    )
    # Sums beyond int64: inside one round, and carried across rounds.
    @example(
        rounds=[([(0, 1, 2**62), (1, 1, 2**62), (2, 1, 2**62 + 1)], 0)],
        timeout=4,
    )
    @example(
        rounds=[([(0, 1, 2**62 + 1)], 0), ([(1, 1, 2**62)], 2)],
        timeout=4,
    )
    # A session the flush retires, ending past INT64_MAX.
    @example(
        rounds=[([(0, 3, 1), (2**63 - 3, 3, 2), (2**63 - 2, -2**62, 4)], 0)],
        timeout=6,
    )
    @settings(max_examples=120, deadline=None)
    def test_rounds_equal_the_row_operator(
        self, fold, value_index, aggregate, rounds, timeout
    ):
        op = SessionWindow(timeout, aggregate())
        sink = wire(op)
        kernel = SessionKernel(timeout, fold, value_index)
        events, puncts = [], []
        for rows, punctuation in rounds:
            for t, key, value in rows:
                op.on_event(Event(t, t + 1, key, (value,)))
            op.on_punctuation(Punctuation(punctuation))
            sync, keys, values = (
                np.asarray([row[c] for row in rows], dtype=np.int64)
                for c in range(3)
            )
            events += kernel.ingest(sync, sync + 1, keys, [values])
            closed, forwarded = kernel.punctuate(punctuation)
            events += closed
            puncts += forwarded
            assert kernel.buffered() == op.buffered_count()
            assert (events, puncts) == (sink.events, sink.punctuations)
        op.on_flush()
        closed, forwarded = kernel.flush()
        events += closed    # may be a lazy iterable: consume it once
        assert events == sink.events
        assert puncts + forwarded == sink.punctuations
        assert kernel.buffered() == op.buffered_count() == 0
        scalar = float if fold == "avg" else int
        for event in sink.events:
            assert type(event.payload) is scalar
        for event in events:
            assert [type(x) for x in (
                event.sync_time, event.other_time, event.key, event.payload
            )] == [int, int, int, scalar]


class TestDistinctWindow:
    def test_first_per_value_survives(self):
        op = DistinctWindow(selector=lambda p: p[0])
        sink = wire(op)
        for payload in [(1, "a"), (2, "b"), (1, "c")]:
            op.on_event(Event(0, 10, payload=payload))
        assert [e.payload for e in sink.events] == [(1, "a"), (2, "b")]

    def test_windows_independent(self):
        op = DistinctWindow()
        sink = wire(op)
        op.on_event(Event(0, 10, payload=7))
        op.on_event(Event(10, 20, payload=7))
        assert len(sink.events) == 2

    def test_punctuation_evicts_closed_window_state(self):
        op = DistinctWindow()
        wire(op)
        op.on_event(Event(0, 10, payload=1))
        assert op.buffered_count() == 1
        op.on_punctuation(Punctuation(9))
        assert op.buffered_count() == 0

    def test_stream_api(self):
        events = [Event(0, 10, payload=v) for v in (1, 1, 2, 3, 2)]
        out = Streamable.from_elements(events).distinct().collect()
        assert [e.payload for e in out.events] == [1, 2, 3]


class TestCountDistinct:
    def test_aggregate(self):
        agg = CountDistinct()
        state = agg.initial()
        for v in (1, 2, 2, 3, 1):
            state = agg.accumulate(state, Event(0, payload=v))
        assert agg.result(state) == 3

    def test_in_windowed_query(self):
        events = [
            Event(t, payload=t % 3) for t in range(30)
        ]
        out = (
            Streamable.from_elements(events)
            .tumbling_window(10)
            .aggregate(CountDistinct())
            .collect()
        )
        assert out.payloads == [3, 3, 3]

    def test_selector(self):
        agg = CountDistinct(selector=lambda p: p % 2)
        state = agg.initial()
        for v in range(10):
            state = agg.accumulate(state, Event(0, payload=v))
        assert agg.result(state) == 2
