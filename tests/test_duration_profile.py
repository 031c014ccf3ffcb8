"""Tests for duration operators and stream profiling utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import DisorderedStreamable, Streamable
from repro.engine.event import Event
from repro.engine.operators import Collector
from repro.engine.operators.duration import (
    AlterEventDuration,
    ClipEventDuration,
)
from repro.metrics.profile import (
    disorder_profile,
    lateness_quantiles,
    lateness_values,
    suggest_reorder_latency,
)


class TestDurationOperators:
    def test_alter_sets_fixed_lifetime(self):
        op = AlterEventDuration(60)
        sink = Collector()
        op.add_downstream(sink)
        op.on_event(Event(10, 11))
        assert (sink.events[0].sync_time, sink.events[0].other_time) == (10, 70)

    def test_clip_caps_lifetime(self):
        op = ClipEventDuration(5)
        sink = Collector()
        op.add_downstream(sink)
        op.on_event(Event(10, 100))
        op.on_event(Event(20, 22))
        assert [(e.sync_time, e.other_time) for e in sink.events] == [
            (10, 15), (20, 22),
        ]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AlterEventDuration(0)
        with pytest.raises(ValueError):
            ClipEventDuration(0)

    def test_available_on_both_stream_types(self):
        events = [Event(t) for t in (3, 1, 2)]
        ordered = (
            DisorderedStreamable.from_elements(events)
            .alter_duration(10)
            .clip_duration(5)
            .to_streamable()
            .collect()
        )
        assert [(e.sync_time, e.other_time) for e in ordered.events] == [
            (1, 6), (2, 7), (3, 8),
        ]
        stream = Streamable.from_elements(
            [Event(1)]
        ).alter_duration(4).collect()
        assert stream.events[0].other_time == 5

    def test_alter_duration_enables_overlap_join(self):
        """alter_duration is how 'within d of each other' joins are built."""
        events = [
            Event(0, key=1, payload="a"),
            Event(3, key=1, payload="b"),
            Event(50, key=1, payload="c"),
        ]
        base = Streamable.from_elements(events).alter_duration(10)
        a = base.where(lambda e: e.payload == "a")
        rest = base.where(lambda e: e.payload != "a")
        out = a.join(rest).collect()
        assert [e.payload for e in out.events] == [("a", "b")]


class TestLateness:
    def test_values(self):
        assert lateness_values([1, 5, 3, 7, 2]) == [0, 0, 2, 0, 5]

    def test_column_input_matches_the_loop(self, cloudlog_small):
        # Array-backed input takes the vectorized path; the per-event
        # loop over the same values as a list is the reference.
        view = cloudlog_small.timestamps
        expected = lateness_values(list(view))
        for columnar in (view, np.asarray(view)):
            got = lateness_values(columnar)
            assert got == expected
            assert all(type(v) is int for v in got)
        latency = suggest_reorder_latency(view, 0.95)
        assert type(latency) is int
        assert latency == suggest_reorder_latency(list(view), 0.95)

    def test_empty(self):
        assert lateness_values([]) == []
        assert lateness_values(np.empty(0, dtype=np.int64)) == []
        assert lateness_quantiles([])[1.0] == 0

    def test_quantiles(self):
        # lateness: [0, 0, 10] -> median 0, max 10
        q = lateness_quantiles([10, 20, 10], quantiles=(0.5, 1.0))
        assert q[0.5] == 0
        assert q[1.0] == 10

    def test_suggest_full_coverage(self):
        times = [10, 20, 5, 30, 25]
        latency = suggest_reorder_latency(times, coverage=1.0)
        assert latency == max(lateness_values(times)) == 15

    def test_suggest_partial_coverage_smaller(self):
        times = list(range(100)) + [0]  # one maximally late event
        assert suggest_reorder_latency(times, 1.0) == 99
        assert suggest_reorder_latency(times, 0.9) == 0

    def test_suggest_invalid_coverage(self):
        with pytest.raises(ValueError):
            suggest_reorder_latency([1], coverage=0.0)

    def test_suggested_latency_achieves_coverage(self, cloudlog_small):
        """The headline property: sorting with the suggested latency
        preserves at least the requested fraction of events."""
        from repro.core.impatience import ImpatienceSorter
        from repro.engine.ingress import ingress_timestamps

        times = cloudlog_small.timestamps
        latency = suggest_reorder_latency(times, coverage=0.9)
        sorter = ImpatienceSorter()
        for tag, value in ingress_timestamps(times, 100, latency):
            if tag == "event":
                sorter.insert(value)
            else:
                sorter.on_punctuation(value)
        sorter.flush()
        kept = 1 - sorter.late.dropped / len(times)
        assert kept >= 0.9


class TestDisorderProfile:
    def test_regions_cover_stream(self):
        profile = disorder_profile(list(range(100)), region_size=30)
        assert [r["offset"] for r in profile] == [0, 30, 60, 90]
        assert sum(r["n"] for r in profile) == 100

    def test_sorted_regions_are_clean(self):
        profile = disorder_profile(list(range(100)), region_size=50)
        assert all(r["inversions"] == 0 for r in profile)
        assert all(r["runs"] == 1 for r in profile)

    def test_detects_local_burst(self):
        data = list(range(50)) + list(range(100, 50, -1)) + list(range(101, 150))
        profile = disorder_profile(data, region_size=50)
        assert profile[0]["inversions"] == 0
        assert profile[1]["inversions"] > 1000  # the reversed region

    def test_invalid_region_size(self):
        with pytest.raises(ValueError):
            disorder_profile([1, 2], region_size=1)

    def test_android_coarse_vs_fine(self, androidlog_small):
        """AndroidLog's signature: regions are locally much cleaner than
        the global stream (chaos lives at the coarse granularity)."""
        from repro.metrics import measure_disorder

        times = androidlog_small.timestamps
        global_stats = measure_disorder(times)
        regions = disorder_profile(times, region_size=500)
        local_inversion_rate = sum(r["inversions"] for r in regions) / len(times)
        global_inversion_rate = global_stats.inversions / len(times)
        assert local_inversion_rate < global_inversion_rate / 3
