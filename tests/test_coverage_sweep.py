"""Coverage sweep: exercises branches the focused suites leave thin."""

from __future__ import annotations

import pytest

from repro.core.errors import QueryBuildError
from repro.engine import DisorderedStreamable, Event, Punctuation, Streamable
from repro.engine.operators import Collector, Count
from repro.framework import make_query
from repro.framework.audit import run_method
from repro.workloads import generate_synthetic


class TestFrameworkEdges:
    def test_advanced_with_single_latency_falls_back(self, synthetic_small):
        """run_method('advanced') with a one-rung ladder degenerates to a
        single sorted stream plus the full query body."""
        result = run_method(
            "advanced", synthetic_small, make_query("Q1", 500), [1_000],
            punctuation_frequency=500,
        )
        assert result.latencies == [1_000]
        assert len(result.output_events) == 1

    def test_streamables_apply_maps_every_output(self, synthetic_small):
        disordered = DisorderedStreamable.from_dataset(
            synthetic_small, punctuation_frequency=500
        ).tumbling_window(500)
        streamables = disordered.to_streamables([100, 1_000])
        counted = streamables.apply(lambda s: s.count())
        result = counted.run()
        for collector in result.collectors:
            assert all(isinstance(e.payload, int) for e in collector.events)

    def test_single_latency_piq_without_merge_allowed(self, synthetic_small):
        disordered = DisorderedStreamable.from_dataset(
            synthetic_small, punctuation_frequency=500
        ).tumbling_window(500)
        q = make_query("Q1", 500)
        result = disordered.to_streamables([2_000], piq=q.piq).run()
        assert sum(
            e.payload for e in result.output_events(0)
        ) == len(synthetic_small)


class TestOperatorEdges:
    def test_advance_to_helper(self):
        from repro.engine.operators.base import PassThrough

        op = PassThrough()
        sink = Collector()
        op.add_downstream(sink)
        op.advance_to(42)
        assert sink.punctuations == [42]

    def test_selectivity_property_updates(self):
        from repro.engine.operators.where import Where

        where = Where(lambda e: e.sync_time < 5)
        for t in range(10):
            where.on_event(Event(t))
        assert where.selectivity == 0.5

    def test_hopping_window_punctuation_alignment(self):
        from repro.engine.operators.window import TumblingWindow

        op = TumblingWindow(10)
        sink = Collector()
        op.add_downstream(sink)
        op.on_punctuation(Punctuation(7))   # next raw is 8 -> aligns to 0
        op.on_punctuation(Punctuation(9))   # next raw is 10 -> aligns to 10
        assert sink.punctuations == [-1, 9]

    def test_window_then_aggregate_after_sort_still_correct(self):
        """The realigned punctuations keep post-sort windowed counts
        exact (the configuration the contract fuzz found broken)."""
        times = [17, 3, 29, 11, 5, 23, 41, 35]
        result = (
            DisorderedStreamable.from_events(
                [Event(t) for t in times], punctuation_frequency=2,
                reorder_latency=40,
            )
            .to_streamable()
            .tumbling_window(10)
            .count()
            .collect()
        )
        got = {e.sync_time: e.payload for e in result.events}
        want = {}
        for t in sorted(times):
            want[t - t % 10] = want.get(t - t % 10, 0) + 1
        assert got == want

    def test_top_k_with_score_fn(self):
        events = [Event(0, 10, key=k, payload=(k,)) for k in range(6)]
        out = (
            Streamable.from_elements(events)
            .top_k(2, score_fn=lambda e: -e.payload[0])
            .collect()
        )
        assert sorted(e.key for e in out.events) == [0, 1]

    def test_group_aggregate_after_group_apply_chain(self):
        events = [Event(0, 10, key=k % 2, payload=(k,)) for k in range(8)]
        out = (
            Streamable.from_elements(events)
            .group_apply(lambda s: s.group_aggregate(Count()))
            .collect()
        )
        assert sum(e.payload for e in out.events) == 8


class TestMiscEdges:
    def test_dataset_head_and_span_roundtrip(self):
        dataset = generate_synthetic(100, seed=0)
        head = dataset.head(10)
        low, high = head.span
        assert low <= high
        assert len(head.keys) == 10

    def test_query_build_error_is_repro_error(self):
        from repro.core.errors import ReproError

        assert issubclass(QueryBuildError, ReproError)

    def test_union_via_streamables_three_way(self, synthetic_small):
        disordered = DisorderedStreamable.from_dataset(
            synthetic_small, punctuation_frequency=500,
            reorder_latency=1_000,
        )
        result = disordered.to_streamables([10, 100, 1_000]).run()
        # The cascade's final output is complete and sorted.
        final = result.output_events(2)
        assert len(final) == len(synthetic_small)
        syncs = [e.sync_time for e in final]
        assert syncs == sorted(syncs)

    def test_stats_sample_interval_on_impatience(self):
        from repro.core import ImpatienceSorter

        sorter = ImpatienceSorter(sample_every=10)
        for v in range(35):
            sorter.insert(v)
        marks = [n for n, _ in sorter.stats.run_count_history]
        assert marks == [10, 20, 30]

    def test_callback_sink_without_optional_hooks(self):
        from repro.engine.operators.sink import CallbackSink

        seen = []
        sink = CallbackSink(seen.append)
        sink.on_event(Event(1))
        sink.on_punctuation(Punctuation(1))  # no hook: no crash
        sink.on_flush()
        assert len(seen) == 1
