"""Tests for the statistical aggregates."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Streamable
from repro.engine.event import Event
from repro.engine.operators import Median, Quantile, StdDev, Variance
class TestStatisticalAggregates:
    def _run(self, aggregate, values):
        state = aggregate.initial()
        for v in values:
            state = aggregate.accumulate(state, Event(0, payload=v))
        return aggregate.result(state)

    def test_variance_known(self):
        assert self._run(Variance(), [2, 4, 4, 4, 5, 5, 7, 9]) == \
            pytest.approx(4.0)

    def test_variance_empty(self):
        assert self._run(Variance(), []) is None

    def test_stddev(self):
        assert self._run(StdDev(), [2, 4, 4, 4, 5, 5, 7, 9]) == \
            pytest.approx(2.0)

    def test_median_odd_even(self):
        assert self._run(Median(), [3, 1, 2]) == 2
        assert self._run(Median(), [4, 1, 2, 3]) == 2  # nearest-rank lower

    def test_quantile_p99(self):
        values = list(range(1, 101))
        assert self._run(Quantile(0.99), values) == 99
        assert self._run(Quantile(1.0), values) == 100
        assert self._run(Quantile(0.0), values) == 1

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            Quantile(1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_welford_matches_two_pass(self, values):
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / len(values)
        got = self._run(Variance(), values)
        assert math.isclose(got, expected, rel_tol=1e-6, abs_tol=1e-6)

    def test_windowed_p95_query(self):
        events = [Event(t, payload=t % 100) for t in range(300)]
        out = (
            Streamable.from_elements(events)
            .tumbling_window(100)
            .aggregate(Quantile(0.95))
            .collect()
        )
        assert out.payloads == [94, 94, 94]

    def test_selector(self):
        agg = Variance(selector=lambda p: p[1])
        state = agg.initial()
        for v in (1.0, 3.0):
            state = agg.accumulate(state, Event(0, payload=(0, v)))
        assert agg.result(state) == pytest.approx(1.0)
