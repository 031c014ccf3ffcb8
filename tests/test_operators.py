"""Tests for the stateless and windowed operators (repro.engine.operators)."""

from __future__ import annotations

import pytest

from repro.engine.event import Event, Punctuation
from repro.engine.operators import (
    Avg,
    Collector,
    Count,
    GroupedWindowAggregate,
    HoppingWindow,
    Max,
    Min,
    Select,
    SelectColumns,
    Sum,
    TumblingWindow,
    Where,
    WindowAggregate,
    WindowTopK,
)


def wire(operator):
    sink = Collector()
    operator.add_downstream(sink)
    return sink


def feed(operator, events, punctuation=None, flush=True):
    for event in events:
        operator.on_event(event)
    if punctuation is not None:
        operator.on_punctuation(Punctuation(punctuation))
    if flush:
        operator.on_flush()


class TestWhere:
    def test_filters_and_counts(self):
        op = Where(lambda e: e.payload[0] % 2 == 0)
        sink = wire(op)
        feed(op, [Event(i, payload=(i,)) for i in range(10)])
        assert [e.payload[0] for e in sink.events] == [0, 2, 4, 6, 8]
        assert op.selectivity == 0.5
        assert sink.completed

    def test_selectivity_before_input(self):
        assert Where(lambda e: True).selectivity == 1.0

    def test_punctuations_pass_through(self):
        op = Where(lambda e: False)
        sink = wire(op)
        op.on_punctuation(Punctuation(5))
        assert sink.punctuations == [5]


class TestSelect:
    def test_payload_projection(self):
        op = Select(lambda p: (p[0] * 2,))
        sink = wire(op)
        feed(op, [Event(1, payload=(21,))])
        assert sink.events[0].payload == (42,)

    def test_select_columns(self):
        op = SelectColumns([2, 0])
        sink = wire(op)
        feed(op, [Event(1, payload=(10, 11, 12, 13))])
        assert sink.events[0].payload == (12, 10)

    def test_select_columns_requires_columns(self):
        with pytest.raises(ValueError):
            SelectColumns([])


class TestWindows:
    def test_tumbling_alignment(self):
        op = TumblingWindow(10)
        sink = wire(op)
        feed(op, [Event(17), Event(20), Event(9)])
        assert [(e.sync_time, e.other_time) for e in sink.events] == [
            (10, 20), (20, 30), (0, 10),
        ]

    def test_hopping_window(self):
        op = HoppingWindow(60, 10)
        sink = wire(op)
        feed(op, [Event(25)])
        assert (sink.events[0].sync_time, sink.events[0].other_time) == (20, 80)

    def test_window_reduces_distinct_timestamps(self):
        op = TumblingWindow(100)
        sink = wire(op)
        feed(op, [Event(t) for t in range(500)])
        assert len({e.sync_time for e in sink.events}) == 5

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            TumblingWindow(0)
        with pytest.raises(ValueError):
            HoppingWindow(10, 0)


class TestAggregateFunctions:
    def test_count(self):
        agg = Count()
        state = agg.initial()
        for _ in range(3):
            state = agg.accumulate(state, Event(0))
        assert agg.result(state) == 3

    def test_sum_with_selector(self):
        agg = Sum(lambda p: p[1])
        state = agg.initial()
        state = agg.accumulate(state, Event(0, payload=(0, 5)))
        state = agg.accumulate(state, Event(0, payload=(0, 7)))
        assert agg.result(state) == 12

    def test_avg(self):
        agg = Avg()
        state = agg.initial()
        for v in (2, 4):
            state = agg.accumulate(state, Event(0, payload=v))
        assert agg.result(state) == 3.0
        assert agg.result(agg.initial()) is None

    def test_min_max(self):
        for agg, expected in ((Min(), 1), (Max(), 9)):
            state = agg.initial()
            for v in (5, 1, 9):
                state = agg.accumulate(state, Event(0, payload=v))
            assert agg.result(state) == expected


class TestWindowAggregate:
    def _window_events(self, values, window=10):
        return [
            Event(t - t % window, t - t % window + window, payload=t)
            for t in values
        ]

    def test_counts_per_window_on_punctuation(self):
        op = WindowAggregate(Count())
        sink = wire(op)
        feed(op, self._window_events([1, 2, 11, 12, 13]), punctuation=25,
             flush=False)
        assert [(e.sync_time, e.payload) for e in sink.events] == [
            (0, 2), (10, 3),
        ]

    def test_window_not_closed_before_its_end(self):
        op = WindowAggregate(Count())
        sink = wire(op)
        feed(op, self._window_events([1, 2]), punctuation=5, flush=False)
        assert sink.events == []  # window [0,10) can still receive t=6..9
        op.on_punctuation(Punctuation(9))
        assert [(e.sync_time, e.payload) for e in sink.events] == [(0, 2)]

    def test_flush_closes_everything(self):
        op = WindowAggregate(Count())
        sink = wire(op)
        feed(op, self._window_events([1, 11, 21]))
        assert len(sink.events) == 3
        assert sink.completed

    def test_windows_emitted_in_order(self):
        op = WindowAggregate(Count())
        sink = wire(op)
        feed(op, self._window_events([21, 1, 11]))
        assert sink.sync_times == [0, 10, 20]

    def test_buffered_count_tracks_open_windows(self):
        op = WindowAggregate(Count())
        wire(op)
        feed(op, self._window_events([1, 11, 21]), flush=False)
        assert op.buffered_count() == 3
        op.on_punctuation(Punctuation(19))
        assert op.buffered_count() == 1


class TestGroupedWindowAggregate:
    def test_counts_per_group(self):
        op = GroupedWindowAggregate(Count())
        sink = wire(op)
        events = [Event(0, 10, key=k) for k in (1, 2, 1, 1)]
        feed(op, events)
        assert [(e.key, e.payload) for e in sink.events] == [(1, 3), (2, 1)]

    def test_custom_key_fn(self):
        op = GroupedWindowAggregate(Count(), key_fn=lambda e: e.payload % 2)
        sink = wire(op)
        feed(op, [Event(0, 10, payload=v) for v in range(5)])
        assert [(e.key, e.payload) for e in sink.events] == [(0, 3), (1, 2)]

    def test_groups_sorted_within_window(self):
        op = GroupedWindowAggregate(Count())
        sink = wire(op)
        feed(op, [Event(0, 10, key=k) for k in (5, 3, 9)])
        assert [e.key for e in sink.events] == [3, 5, 9]

    def test_mixed_key_types_close_in_a_total_order(self):
        # Keys decoded from JSON may not compare with each other; the
        # window still closes, numbers first by value, then by type.
        op = GroupedWindowAggregate(Count())
        sink = wire(op)
        keys = ("b", (), 10, None, 2, "a", 2, True)
        feed(op, [Event(0, 10, key=k) for k in keys], punctuation=9,
             flush=False)
        assert [(e.key, e.payload) for e in sink.events] == [
            (True, 1), (2, 2), (10, 1), (None, 1), ("a", 1), ("b", 1),
            ((), 1),
        ]

    def test_buffered_counts_group_states(self):
        op = GroupedWindowAggregate(Count())
        wire(op)
        feed(op, [Event(0, 10, key=k) for k in (1, 2)], flush=False)
        feed(op, [Event(10, 20, key=1)], flush=False)
        assert op.buffered_count() == 3


class TestWindowTopK:
    def test_emits_top_k_by_payload(self):
        op = WindowTopK(2)
        sink = wire(op)
        feed(op, [Event(0, 10, key=k, payload=p)
                  for k, p in [(1, 5), (2, 9), (3, 1), (4, 7)]])
        assert [(e.key, e.payload) for e in sink.events] == [(2, 9), (4, 7)]

    def test_running_trim_keeps_true_top_k(self):
        op = WindowTopK(3)
        sink = wire(op)
        feed(op, [Event(0, 1000, payload=p) for p in range(500)])
        assert sorted(e.payload for e in sink.events) == [497, 498, 499]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            WindowTopK(0)
