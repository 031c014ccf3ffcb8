"""Tests for the stream-contract monitor, and contract fuzzing with it."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DisorderedStreamable, Streamable
from repro.engine.event import Event, Punctuation
from repro.engine.operators import Collector
from repro.engine.operators.monitor import ContractViolation, OrderingMonitor


def wire(op):
    sink = Collector()
    op.add_downstream(sink)
    return sink


class TestOrderingMonitor:
    def test_passes_well_formed_stream(self):
        monitor = OrderingMonitor()
        sink = wire(monitor)
        monitor.on_event(Event(1))
        monitor.on_event(Event(2))
        monitor.on_punctuation(Punctuation(2))
        monitor.on_event(Event(3))
        monitor.on_flush()
        assert sink.sync_times == [1, 2, 3]
        assert monitor.events_seen == 3
        assert monitor.punctuations_seen == 1

    def test_detects_sync_regression(self):
        monitor = OrderingMonitor(label="L")
        wire(monitor)
        monitor.on_event(Event(5))
        with pytest.raises(ContractViolation, match="L: sync regressed"):
            monitor.on_event(Event(4))

    def test_scan_order_false_allows_intra_punctuation_regression(self):
        monitor = OrderingMonitor(scan_order=False)
        wire(monitor)
        monitor.on_event(Event(5))
        monitor.on_event(Event(4))  # allowed
        monitor.on_punctuation(Punctuation(5))
        with pytest.raises(ContractViolation, match="at/below punctuation"):
            monitor.on_event(Event(5))

    def test_detects_event_below_punctuation(self):
        monitor = OrderingMonitor()
        wire(monitor)
        monitor.on_punctuation(Punctuation(10))
        with pytest.raises(ContractViolation, match="at/below"):
            monitor.on_event(Event(10))

    def test_detects_punctuation_regression(self):
        monitor = OrderingMonitor()
        wire(monitor)
        monitor.on_punctuation(Punctuation(10))
        with pytest.raises(ContractViolation, match="punctuation regressed"):
            monitor.on_punctuation(Punctuation(9))

    def test_detects_empty_interval(self):
        monitor = OrderingMonitor()
        wire(monitor)
        with pytest.raises(ContractViolation, match="interval"):
            monitor.on_event(Event(5, 5))

    def test_flush_resets_watermark_for_replayed_streams(self):
        # Regression: a monitor used across replayed streams must not
        # treat the second pass's events as late against the first
        # pass's final punctuation (on_flush used to keep the watermark
        # and forbid further events entirely).
        monitor = OrderingMonitor()
        sink = wire(monitor)
        for _ in range(2):
            monitor.on_event(Event(1))
            monitor.on_punctuation(Punctuation(5))
            monitor.on_event(Event(6))
            monitor.on_flush()
        assert sink.sync_times == [1, 6, 1, 6]
        assert monitor.flushes == 2
        assert monitor.events_seen == 4

    def test_replayed_stream_reuses_monitor(self):
        monitor = OrderingMonitor(label="replayed")
        sink = wire(monitor)
        elements = (
            [Event(t) for t in range(8)] + [Punctuation(7)]
            + [Event(t) for t in range(8, 16)] + [Punctuation(15)]
            + [Event(t) for t in range(16, 20)] + [Punctuation(19)]
        )
        for _ in range(2):  # same stream replayed twice, one monitor
            for element in elements:
                if isinstance(element, Punctuation):
                    monitor.on_punctuation(element)
                else:
                    monitor.on_event(element)
            monitor.on_flush()
        assert sink.sync_times == list(range(20)) * 2
        assert monitor.flushes == 2


class TestContractFuzzing:
    """Every order-sensitive operator, sandwiched between monitors."""

    STAGES = {
        "count": lambda s: s.tumbling_window(16).count(),
        "grouped": lambda s: s.tumbling_window(16).group_aggregate(
            __import__(
                "repro.engine.operators.aggregates", fromlist=["Count"]
            ).Count()
        ),
        "coalesce": lambda s: s.alter_duration(8).coalesce(),
        "session": lambda s: s.session_window(8),
        "snapshot": lambda s: s.alter_duration(8).snapshot_aggregate(),
        "distinct": lambda s: s.tumbling_window(16).distinct(
            selector=lambda p: p[0] % 3
        ),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    @given(
        times=st.lists(st.integers(0, 300), min_size=1, max_size=150),
        frequency=st.integers(3, 40),
        latency=st.integers(0, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_stage_preserves_contract(self, stage, times, frequency,
                                      latency):
        stream = (
            DisorderedStreamable.from_events(
                [Event(t, t + 1, key=t % 5, payload=(t,)) for t in times],
                punctuation_frequency=frequency,
                reorder_latency=latency,
            )
            .to_streamable()
            .monitor("pre", scan_order=True)
        )
        out = self.STAGES[stage](stream).monitor(f"post-{stage}")
        result = out.collect()
        assert result.completed

    def test_monitor_via_stream_api(self):
        events = [Event(t) for t in (1, 2, 3)]
        result = Streamable.from_elements(events).monitor().collect()
        assert result.sync_times == [1, 2, 3]
