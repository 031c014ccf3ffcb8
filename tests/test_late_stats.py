"""Tests for LateEventTracker, SorterStats and the query definitions."""

from __future__ import annotations

import pytest

from repro.core.late import LateEventTracker, LatePolicy
from repro.core.errors import LateEventError
from repro.core.stats import SorterStats
from repro.engine import DisorderedStreamable
from repro.framework.queries import DEFAULT_WINDOW, PaperQuery, make_query
from repro.workloads import generate_cloudlog


class TestLateEventTracker:
    def test_drop(self):
        tracker = LateEventTracker(LatePolicy.DROP)
        assert tracker.admit(5, 10) is None
        assert tracker.dropped == 1
        assert tracker.total == 1
        assert tracker.preserved == 0

    def test_adjust(self):
        tracker = LateEventTracker(LatePolicy.ADJUST)
        assert tracker.admit(5, 10) == 10
        assert tracker.adjusted == 1
        assert tracker.preserved == 1

    def test_raise(self):
        tracker = LateEventTracker(LatePolicy.RAISE)
        with pytest.raises(LateEventError) as excinfo:
            tracker.admit(5, 10)
        assert excinfo.value.event_time == 5
        assert excinfo.value.punctuation_time == 10

    @pytest.mark.parametrize("policy", [LatePolicy.DROP, LatePolicy.ADJUST])
    def test_admit_many_matches_admit_loop(self, policy):
        bulk, loop = LateEventTracker(policy), LateEventTracker(policy)
        bulk.admit_many([5, 3, 9], 10)
        for time in [5, 3, 9]:
            loop.admit(time, 10)
        for name in ("total", "dropped", "adjusted", "quarantined"):
            assert getattr(bulk, name) == getattr(loop, name)

    def test_admit_many_raises_on_first_arrival(self):
        tracker = LateEventTracker(LatePolicy.RAISE)
        with pytest.raises(LateEventError) as excinfo:
            tracker.admit_many([5, 3, 9], 10)
        assert excinfo.value.event_time == 5
        assert tracker.total == 1

    def test_completeness(self):
        tracker = LateEventTracker(LatePolicy.DROP)
        for _ in range(3):
            tracker.admit(0, 1)
        assert tracker.completeness(30) == pytest.approx(0.9)
        assert tracker.completeness(0) == 1.0

    def test_repr(self):
        assert "dropped=0" in repr(LateEventTracker())


class TestSorterStats:
    def test_buffered_derived(self):
        stats = SorterStats()
        stats.inserted = 10
        stats.emitted = 4
        assert stats.buffered == 6

    def test_note_buffered_high_water(self):
        stats = SorterStats()
        stats.inserted = 5
        stats.note_buffered()
        stats.emitted = 5
        stats.inserted = 7
        stats.note_buffered()
        assert stats.max_buffered == 5

    def test_as_dict_excludes_history(self):
        stats = SorterStats()
        stats.sample_runs(3)
        d = stats.as_dict()
        assert "run_count_history" not in d
        assert stats.run_count_history == [(0, 3)]

    def test_repr_smoke(self):
        assert "inserted=0" in repr(SorterStats())


class TestPaperQueries:
    def test_make_query_names(self):
        for name, groups, k in (
            ("Q1", 0, 0), ("Q2", 100, 0), ("Q3", 1000, 0), ("Q4", 100, 5),
        ):
            q = make_query(name)
            assert q.name == name
            assert q.n_groups == groups
            assert q.top_k == k
            assert q.window_size == DEFAULT_WINDOW

    def test_make_query_unknown(self):
        with pytest.raises(ValueError, match="unknown query"):
            make_query("Q9")

    def test_custom_window(self):
        assert make_query("Q1", window_size=77).window_size == 77

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
    def test_piq_then_merge_equals_full_on_single_stream(self, name):
        """On one stream, merge(piq(s)) must agree with the full query —
        the algebraic property the advanced framework relies on."""
        query = make_query(name, window_size=200)
        dataset = generate_cloudlog(4_000, delay_spread_ms=200, seed=3)

        def run(build):
            disordered = DisorderedStreamable.from_dataset(
                dataset, punctuation_frequency=500, reorder_latency=3_000
            ).tumbling_window(query.window_size)
            return build(disordered.to_streamable()).collect()

        full = run(query.body)
        composed = run(lambda s: query.merge(query.piq(s)))
        assert (
            sorted((e.sync_time, e.key, e.payload) for e in full.events)
            == sorted((e.sync_time, e.key, e.payload) for e in composed.events)
        )

    def test_query_is_frozen(self):
        query = make_query("Q1")
        with pytest.raises(Exception):
            query.name = "Q5"

    def test_paper_query_dataclass_fields(self):
        query = PaperQuery("X", "desc", 100, n_groups=2, top_k=1)
        assert query.description == "desc"
