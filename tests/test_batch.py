"""Tests for columnar event batches (repro.engine.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import iter_batches
from repro.engine.batch import EventBatch
from repro.workloads import generate_synthetic


def small_batch():
    return EventBatch(
        sync_times=[3, 1, 2],
        other_times=[4, 2, 3],
        keys=[0, 1, 2],
        payload_columns=[[10, 11, 12], [20, 21, 22]],
    )


class TestConstruction:
    def test_mismatched_columns_rejected(self):
        # The error names the offending column and both lengths.
        with pytest.raises(
            ValueError, match=r"'keys' has length 1, expected 2"
        ):
            EventBatch([1, 2], [2, 3], [0], [[1, 2]])

    def test_mismatched_payload_column_named(self):
        with pytest.raises(
            ValueError,
            match=r"'payload_columns\[1\]' has length 3, expected 2",
        ):
            EventBatch([1, 2], [2, 3], [0, 1], [[1, 2], [1, 2, 3]])

    def test_mismatched_string_column_named(self):
        with pytest.raises(
            ValueError,
            match=r"'string_columns\[0\]' has length 3, expected 2",
        ):
            EventBatch([1, 2], [2, 3], [0, 1], [],
                       string_columns=[[b"a", b"b", b"c"]])

    def test_from_dataset_roundtrip(self, synthetic_small):
        batch = EventBatch.from_dataset(synthetic_small)
        assert len(batch) == len(synthetic_small)
        assert batch.timestamps() == synthetic_small.timestamps
        first = next(batch.events())
        assert first.sync_time == synthetic_small.timestamps[0]
        assert first.payload == synthetic_small.payloads[0]


class TestIterBatches:
    def test_covers_dataset_in_order(self):
        dataset = generate_synthetic(1000, seed=2)
        batches = list(iter_batches(dataset, 256))
        assert [len(b) for b in batches] == [256, 256, 256, 232]
        rejoined = np.concatenate([b.sync_times for b in batches])
        assert rejoined.tolist() == dataset.timestamps
        first = batches[0]
        assert first.other_times.tolist() == (first.sync_times + 1).tolist()
        assert [e.payload for e in first.events()] == dataset.payloads[:256]
        assert [e.key for e in first.events()] == dataset.keys[:256]

    def test_invalid_batch_size(self):
        dataset = generate_synthetic(10, seed=2)
        with pytest.raises(ValueError):
            list(iter_batches(dataset, 0))

    def test_incremental_ingress_peak_memory(self):
        """Ingress slices the dataset's stored columns: the allocation
        peak while streaming batches stays far below the bytes one
        whole-dataset copy would pin."""
        import tracemalloc

        dataset = generate_synthetic(50_000, seed=3)
        n_cols = len(dataset.payloads[0])
        full_bytes = (3 + n_cols) * 8 * len(dataset)
        tracemalloc.start()
        try:
            total = 0
            for batch in iter_batches(dataset, 1024):
                total += len(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == len(dataset)
        assert peak < full_bytes // 2


class TestColumnarOperators:
    def test_filter_marks_bitmap_without_moving_data(self):
        batch = small_batch()
        filtered = batch.filter([True, False, True])
        assert len(filtered) == 3  # physical rows unchanged
        assert filtered.valid_count == 2
        assert filtered.timestamps() == [3, 2]

    def test_filter_composes(self):
        batch = small_batch()
        both = batch.filter([True, True, False]).filter([True, False, True])
        assert both.valid_count == 1

    def test_filter_payload_vectorized(self):
        batch = small_batch()
        filtered = batch.filter_payload(0, lambda col: col >= 11)
        assert filtered.valid_count == 2

    def test_project(self):
        batch = small_batch().project([1])
        assert len(batch.payload_columns) == 1
        assert batch.payload_columns[0].tolist() == [20, 21, 22]

    def test_tumbling_window_vectorized_matches_row_operator(self):
        dataset = generate_synthetic(500, seed=3)
        batch = EventBatch.from_dataset(dataset).tumbling_window(100)
        from repro.engine.operators import Collector, TumblingWindow

        op = TumblingWindow(100)
        sink = Collector()
        op.add_downstream(sink)
        for event in dataset.events():
            op.on_event(event)
        assert batch.sync_times.tolist() == sink.sync_times
        assert batch.other_times.tolist() == [
            e.other_time for e in sink.events
        ]

    def test_tumbling_window_invalid_size(self):
        with pytest.raises(ValueError):
            small_batch().tumbling_window(0)

    def test_compact_drops_invalid_rows(self):
        batch = small_batch().filter([False, True, True])
        compacted = batch.compact()
        assert len(compacted) == 2
        assert compacted.valid.all()
        assert compacted.timestamps() == [1, 2]

    def test_compact_noop_when_all_valid(self):
        batch = small_batch()
        assert batch.compact() is batch

    def test_events_respect_bitmap(self):
        batch = small_batch().filter([False, True, False])
        events = list(batch.events())
        assert len(events) == 1
        assert events[0].sync_time == 1
        assert events[0].payload == (11, 21)

    def test_numpy_dtype_is_int64(self):
        batch = small_batch()
        assert batch.sync_times.dtype == np.int64
