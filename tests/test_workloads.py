"""Tests for workload simulators and their Table I calibration."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.engine import EventBatch, QueryPlan, field, iter_batches
from repro.engine.operators import Sum
from repro.metrics import measure_disorder
from repro.workloads import (
    Dataset,
    generate_androidlog,
    generate_androidlog_strings,
    generate_cloudlog,
    generate_cloudlog_strings,
    generate_synthetic,
    load_dataset,
    simulate_androidlog,
    simulate_cloudlog,
)
from repro.workloads.strings import _string_variant, cloudlog_service_names


class TestDataset:
    def test_parallel_columns_enforced(self):
        with pytest.raises(ValueError, match="parallel"):
            Dataset("x", [1, 2], payloads=[(1,)], keys=[0, 0])

    def test_default_payloads_and_keys(self):
        ds = Dataset("x", [5, 6, 7])
        assert len(ds.payloads) == 3
        assert len(ds.keys) == 3

    def test_events_iteration(self):
        ds = Dataset("x", [5, 6], payloads=[(1,), (2,)], keys=[9, 8])
        events = list(ds.events())
        assert [(e.sync_time, e.key, e.payload) for e in events] == [
            (5, 9, (1,)), (6, 8, (2,)),
        ]

    def test_head_prefix(self):
        ds = Dataset("x", [1, 2, 3])
        head = ds.head(2)
        assert head.timestamps == [1, 2]
        assert len(head.payloads) == 2
        assert head.params["head"] == 2

    def test_span(self):
        assert Dataset("x", [5, 1, 9]).span == (1, 9)

    def test_ragged_payloads_rejected(self):
        with pytest.raises(ValueError):
            Dataset("x", [1, 2], payloads=[(1, 2), (3,)], keys=[0, 0])

    def test_non_integer_columns_rejected(self):
        with pytest.raises(ValueError, match="timestamps must be integers"):
            Dataset("x", [1.0, 2.5])
        with pytest.raises(ValueError, match="keys must be integers"):
            Dataset("x", [1, 2], keys=["a", "b"])
        with pytest.raises(ValueError, match="payloads must be integers"):
            Dataset("x", [1, 2], payloads=[(1.5,), (2.5,)])
        with pytest.raises(ValueError, match="timestamps must be integers"):
            Dataset("x", [2**70])

    def test_payload_shape_rejected(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Dataset("x", [1, 2], payloads=[1, 2])

    def test_empty_and_zero_arity(self):
        empty = Dataset("x", [], payloads=[], keys=[])
        assert len(empty) == 0
        assert list(empty.events()) == []
        bare = Dataset("x", [4, 5], payloads=[(), ()])
        assert bare.payloads == [(), ()]
        assert [e.payload for e in bare.events()] == [(), ()]


class TestRowViews:
    """The row API is derived from the columns, as exact Python types."""

    def test_exact_python_types(self):
        ds = generate_cloudlog(300, seed=1)
        for view in (ds.timestamps, ds.keys):
            assert type(view[0]) is int
            assert type(view[-1]) is int
            assert all(type(v) is int for v in view)
            assert all(type(v) is int for v in view[10:20])
        for row in (ds.payloads[0], *ds.payloads[5:8], *ds.payloads):
            assert type(row) is tuple
            assert all(type(v) is int for v in row)
        event = next(ds.events())
        assert type(event.sync_time) is int and type(event.key) is int
        assert type(event.payload) is tuple
        assert all(type(v) is int for v in event.payload)
        assert json.loads(json.dumps(list(ds.payloads[0]))) == list(
            ds.payloads[0]
        )

    def test_sequence_protocol(self):
        ds = Dataset("x", [5, 3, 9], payloads=[(1, 2), (3, 4), (5, 6)],
                     keys=[7, 8, 9])
        assert len(ds.timestamps) == 3
        assert ds.timestamps == [5, 3, 9]
        assert [5, 3, 9] == ds.timestamps
        assert ds.timestamps != [5, 3]
        assert ds.timestamps[1:] == [3, 9]
        assert ds.timestamps[-1] == 9
        assert sorted(ds.timestamps) == [3, 5, 9]
        assert ds.payloads == [(1, 2), (3, 4), (5, 6)]
        assert ds.payloads[::2] == [(1, 2), (5, 6)]
        assert ds.keys == ds.head(3).keys
        with pytest.raises(IndexError):
            ds.timestamps[3]

    def test_events_cross_conversion_chunks(self):
        ds = generate_synthetic(20_000, seed=4)
        events = list(ds.events())
        assert [e.sync_time for e in events] == ds.timestamps
        assert [e.other_time for e in events] == [
            t + 1 for t in ds.timestamps
        ]
        assert [e.payload for e in events] == ds.payloads

    def test_asarray_returns_the_columns(self):
        ds = generate_synthetic(100, seed=4)
        ts, keys, cols = ds.columns(0, len(ds))
        assert np.shares_memory(np.asarray(ds.timestamps), ts)
        assert np.shares_memory(
            np.asarray(ds.keys, dtype=np.int64), keys
        )
        matrix = np.asarray(ds.payloads, dtype=np.int64)
        assert matrix.shape == (100, 4)
        assert matrix[:, 2].tolist() == cols[2].tolist()

    def test_columns_are_read_only_views(self):
        ds = generate_synthetic(100, seed=4)
        ts, keys, cols = ds.columns(10, 20)
        assert ts.tolist() == ds.timestamps[10:20]
        for column in (ts, keys, *cols):
            assert column.dtype == np.int64
            assert column.flags.c_contiguous
            with pytest.raises(ValueError):
                column[0] = 0


class _RowApiOff(Dataset):
    """A dataset whose row accessors raise: nothing on the columnar
    path may read them (each read would box every event)."""

    def _tripped(self):
        raise AssertionError("columnar path touched the row API")

    timestamps = keys = payloads = property(_tripped)

    def events(self):
        self._tripped()


class TestColumnarReadersSkipTheRowApi:
    def test_plan_iter_batches_and_from_dataset(self):
        base = generate_cloudlog(3_000, seed=5)
        guarded = _RowApiOff(
            "guarded", np.asarray(base.timestamps),
            payloads=np.asarray(base.payloads), keys=np.asarray(base.keys),
        )
        plan = (
            QueryPlan()
            .where(field(0) > 2**29)
            .tumbling_window(100)
            .sort()
            .group_aggregate(Sum(field(2)))
        )
        expected = plan.run(
            base, punctuation_frequency=500, reorder_latency=400,
            engine="row",
        )
        got = plan.run(
            guarded, punctuation_frequency=500, reorder_latency=400,
            engine="columnar",
        )
        assert got.engine == "columnar"
        assert got.events == expected.events
        assert got.punctuations == expected.punctuations
        assert sum(len(b) for b in iter_batches(guarded, 512)) == len(base)
        assert len(EventBatch.from_dataset(guarded)) == len(base)
        assert len(guarded.head(10)) == 10


class TestSharedColumns:
    def test_head_shares_parent_memory(self):
        ds = generate_cloudlog(1_000, seed=1)
        head = ds.head(100)
        for mine, parent in zip(
            _flat(head.columns(0, 100)), _flat(ds.columns(0, 1_000))
        ):
            assert np.shares_memory(mine, parent)
        assert head.timestamps == ds.timestamps[:100]
        assert head.payloads == ds.payloads[:100]

    def test_string_variant_shares_base_columns(self):
        base = generate_cloudlog(500, seed=3, n_keys=50)
        variant = _string_variant(
            base, cloudlog_service_names(50), "strings"
        )
        ts, keys, cols = variant.columns(0, 500)
        base_ts, base_keys, base_cols = base.columns(0, 500)
        assert np.shares_memory(ts, base_ts)
        for mine, parent in zip(cols, base_cols):
            assert np.shares_memory(mine, parent)
        # Only the key column is new: dictionary codes of the names.
        assert not np.shares_memory(keys, base_keys)
        assert len(variant.string_payloads) == 2
        assert variant.key_dictionary is not None


def _flat(columns):
    ts, keys, cols = columns
    return [ts, keys, *cols]


#: SHA-256 of ``repr((timestamps, keys, payloads))`` over the first 10k
#: rows at seed 0, computed at the commit before ``Dataset`` went
#: columnar: the generators' draw order and the row API's exact Python
#: types (``repr`` of an ``np.int64`` differs) are both pinned.
_PINNED = [
    (generate_cloudlog, 20_000,
     "0c49fb0c18c61669bc51697b6405dfca9365256714248a22b7bdfc8b620a3b63"),
    (generate_androidlog, 20_000,
     "9f399a308200cf90820d7c329fa1a269f7f5043a0d1b5a98b6f43f75e6b4a734"),
    (generate_synthetic, 20_000,
     "bec2914206072eff1bf8914b8c87bf0d1454e0da7e0e95419b577bf86567d901"),
    (generate_cloudlog_strings, 20_000,
     "a8122d3f3c7de106e95663a120982f0b9b679f488bbd7607773e78aa9db683f4"),
    (generate_androidlog_strings, 20_000,
     "f239eb79209dcc5e1bf73592cd899d4963cd6f53e119efd6e6020eb9d1f23cd9"),
    (simulate_cloudlog, 3_000,
     "0fee5fd87389c1f8a8cd1fbfeb181a653fddb3b0dbbf5c76a44598dbe9edd954"),
    (simulate_androidlog, 3_000,
     "d968562baf0fd529e14c5e620af59eb5661c0c7109b102518017e6ee79c1786b"),
]


class TestPinnedStreams:
    @pytest.mark.parametrize(
        "generator, n, digest", _PINNED,
        ids=[generator.__name__ for generator, _, _ in _PINNED],
    )
    def test_same_seed_same_rows_as_before(self, generator, n, digest):
        ds = generator(n, seed=0)
        head = (
            list(ds.timestamps)[:10_000], list(ds.keys)[:10_000],
            list(ds.payloads)[:10_000],
        )
        assert hashlib.sha256(repr(head).encode()).hexdigest() == digest


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(1000, seed=5)
        b = generate_synthetic(1000, seed=5)
        assert a.timestamps == b.timestamps
        assert a.payloads == b.payloads

    def test_zero_disorder_is_sorted(self):
        ds = generate_synthetic(1000, percent_disorder=0)
        assert ds.timestamps == sorted(ds.timestamps)

    def test_disorder_percentage_scales_inversions(self):
        low = generate_synthetic(3000, percent_disorder=1, seed=1)
        high = generate_synthetic(3000, percent_disorder=100, seed=1)
        assert (
            measure_disorder(high.timestamps).inversions
            > 10 * measure_disorder(low.timestamps).inversions
        )

    def test_disorder_amount_scales_distance(self):
        small = generate_synthetic(3000, amount_disorder=4, seed=1)
        large = generate_synthetic(3000, amount_disorder=1024, seed=1)
        assert (
            measure_disorder(large.timestamps).distance
            > measure_disorder(small.timestamps).distance
        )

    def test_timestamps_never_negative(self):
        ds = generate_synthetic(2000, percent_disorder=100,
                                amount_disorder=10_000)
        assert min(ds.timestamps) >= 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, percent_disorder=101)
        with pytest.raises(ValueError):
            generate_synthetic(10, amount_disorder=-1)


class TestCloudLog:
    """Table I shape: chaotic at fine granularity, ordered coarsely."""

    def test_deterministic(self):
        assert (
            generate_cloudlog(2000, seed=2).timestamps
            == generate_cloudlog(2000, seed=2).timestamps
        )

    def test_tiny_natural_runs(self, cloudlog_small):
        stats = measure_disorder(cloudlog_small.timestamps)
        assert stats.mean_run_length < 5  # paper: ≈2.7

    def test_interleaved_far_below_runs(self, cloudlog_small):
        stats = measure_disorder(cloudlog_small.timestamps)
        assert stats.interleaved < stats.runs / 10

    def test_burst_creates_large_distance(self, cloudlog_small):
        stats = measure_disorder(cloudlog_small.timestamps)
        assert stats.distance > len(cloudlog_small) * 0.3

    def test_no_bursts_means_small_distance(self):
        ds = generate_cloudlog(5000, n_bursts=0, delay_spread_ms=50,
                               seed=7)
        stats = measure_disorder(ds.timestamps)
        assert stats.distance < len(ds) * 0.05

    def test_invalid_servers(self):
        with pytest.raises(ValueError):
            generate_cloudlog(10, n_servers=0)


class TestAndroidLog:
    """Table I shape: ordered at fine granularity, chaotic coarsely."""

    def test_deterministic(self):
        assert (
            generate_androidlog(2000, seed=2).timestamps
            == generate_androidlog(2000, seed=2).timestamps
        )

    def test_long_natural_runs(self, androidlog_small):
        stats = measure_disorder(androidlog_small.timestamps)
        assert stats.mean_run_length > 5

    def test_interleaved_bounded_by_phones(self):
        ds = generate_androidlog(3000, n_phones=10, seed=1)
        stats = measure_disorder(ds.timestamps)
        assert stats.interleaved <= 10 + 1

    def test_inversions_orders_of_magnitude_above_cloudlog(
        self, cloudlog_small, androidlog_small
    ):
        cloud = measure_disorder(cloudlog_small.timestamps)
        android = measure_disorder(androidlog_small.timestamps)
        assert android.inversions > 2 * cloud.inversions
        assert android.runs < cloud.runs / 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_androidlog(10, n_phones=0)
        with pytest.raises(ValueError):
            generate_androidlog(10, uploads_per_phone=0)
        with pytest.raises(ValueError):
            generate_androidlog(10, rare_uploader_fraction=1.5)


class TestRegistry:
    def test_load_dataset_memoizes(self):
        a = load_dataset("synthetic", 500, seed=9)
        b = load_dataset("synthetic", 500, seed=9)
        assert a is b

    def test_load_dataset_kwargs_distinguish(self):
        a = load_dataset("synthetic", 500, seed=9, percent_disorder=10)
        b = load_dataset("synthetic", 500, seed=9, percent_disorder=20)
        assert a is not b

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_dataset("oracle", 10)

    def test_all_names_loadable(self):
        for name in ("synthetic", "cloudlog", "androidlog"):
            ds = load_dataset(name, 300)
            assert len(ds) == 300
            assert ds.name == name
