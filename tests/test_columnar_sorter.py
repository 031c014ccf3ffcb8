"""Tests for the columnar Impatience sorter (repro.core.columnar)."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarImpatienceSorter, stable_order
from repro.core.errors import LateEventError, PunctuationOrderError
from repro.core.impatience import ImpatienceSorter
from repro.core.late import LatePolicy


class TestBasics:
    def test_paper_example(self):
        sorter = ColumnarImpatienceSorter()
        sorter.insert_batch([2, 6, 5, 1])
        assert sorter.on_punctuation(2).tolist() == [1, 2]
        sorter.insert_batch([4, 3, 7, 8])
        assert sorter.on_punctuation(4).tolist() == [3, 4]
        assert sorter.flush().tolist() == [5, 6, 7, 8]

    def test_empty_batch(self):
        sorter = ColumnarImpatienceSorter()
        assert sorter.insert_batch([]) == 0
        assert sorter.flush().tolist() == []

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            ColumnarImpatienceSorter().insert_batch([[1, 2]])

    def test_stats_count_batches_and_cut_splits(self):
        """Each admitted batch is one sorted run; a cut binary-searches
        only the chunk it straddles."""
        sorter = ColumnarImpatienceSorter()
        sorter.insert_batch([1, 2])
        sorter.insert_batch([9, 3, 5])
        sorter.insert_batch([7, 8])
        sorter.insert_batch([])
        assert sorter.stats.runs_created == 3
        assert sorter.on_punctuation(4).tolist() == [1, 2, 3]
        assert sorter.stats.binary_searches == 1
        assert sorter.on_punctuation(6).tolist() == [5]
        assert sorter.stats.binary_searches == 2
        assert sorter.flush().tolist() == [7, 8, 9]
        assert sorter.stats.binary_searches == 2

    def test_regressing_punctuation_raises(self):
        sorter = ColumnarImpatienceSorter()
        sorter.on_punctuation(10)
        with pytest.raises(PunctuationOrderError):
            sorter.on_punctuation(9)


class TestLateHandling:
    def test_drop(self):
        sorter = ColumnarImpatienceSorter()
        sorter.insert_batch([10])
        sorter.on_punctuation(5)
        assert sorter.insert_batch([3, 4, 7]) == 1
        assert sorter.late.dropped == 2
        assert sorter.flush().tolist() == [7, 10]

    def test_adjust(self):
        sorter = ColumnarImpatienceSorter(late_policy=LatePolicy.ADJUST)
        sorter.insert_batch([10])
        sorter.on_punctuation(5)
        sorter.insert_batch([3, 7])
        assert sorter.late.adjusted == 1
        assert sorter.flush().tolist() == [5, 7, 10]

    def test_raise(self):
        sorter = ColumnarImpatienceSorter(late_policy=LatePolicy.RAISE)
        sorter.on_punctuation(5)
        with pytest.raises(LateEventError):
            sorter.insert_batch([3])


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


@st.composite
def _order_batches(draw):
    """int64 batches for :func:`stable_order`: 0-3 rows or up to a few
    thousand; few distinct values (heavy ties) or many; any offset,
    negative included; ascending, descending or shuffled; and on request
    a planted minimum and maximum whose span sits one below, at or one
    past the packed-key fit boundary ``2**(63 - bits)``."""
    n = draw(st.integers(0, 3) | st.integers(4, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    distinct = draw(st.sampled_from([1, 2, 5, 100, 2 ** 40]))
    values = rng.integers(0, distinct, n, dtype=np.int64)
    shape = draw(st.sampled_from(["shuffled", "ascending", "descending"]))
    if shape != "shuffled":
        values.sort()
        if shape == "descending":
            values = values[::-1].copy()
    if n >= 2 and draw(st.booleans()):
        span = 2 ** (63 - (n - 1).bit_length()) + draw(st.integers(-1, 1))
        low_at, high_at = draw(st.permutations(range(n)))[:2]
        values[low_at], values[high_at] = 0, span
        offset = draw(st.integers(_INT64_MIN, _INT64_MAX - span))
    else:
        offset = draw(st.integers(_INT64_MIN, _INT64_MAX - distinct))
    return values + offset


def _assert_stable_order(values):
    order, ordered = stable_order(values)
    expected = np.argsort(values, kind="stable")
    assert order.tolist() == expected.tolist()
    assert ordered.dtype == np.int64
    assert ordered.tolist() == values[expected].tolist()


class TestStableOrder:
    """``stable_order`` is the stable argsort, on either of its paths."""

    @given(_order_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort(self, values):
        _assert_stable_order(values)

    @given(st.lists(
        st.integers(-3, 3)
        | st.integers(_INT64_MIN, _INT64_MIN + 3)
        | st.integers(_INT64_MAX - 3, _INT64_MAX),
        max_size=40,
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort_at_int64_extremes(self, values):
        """Values near both int64 ends in one batch: ``v - min`` would
        wrap, so the span must be judged in Python ints."""
        _assert_stable_order(np.asarray(values, dtype=np.int64))


class TestEquivalence:
    @given(
        st.lists(
            st.lists(st.integers(0, 1000), max_size=60),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_impatience(self, batches):
        """Identical emissions and drop counts versus the scalar sorter,
        batch for batch, punctuation for punctuation."""
        columnar = ColumnarImpatienceSorter()
        scalar = ImpatienceSorter()
        watermark = None
        for batch in batches:
            columnar.insert_batch(batch)
            for value in batch:
                scalar.insert(value)
            high = max(
                (v for v in batch),
                default=watermark if watermark is not None else 0,
            )
            watermark = high if watermark is None else max(watermark, high)
            ts = watermark - 50
            if scalar.watermark == float("-inf") or ts > scalar.watermark:
                assert columnar.on_punctuation(ts).tolist() == \
                    scalar.on_punctuation(ts)
        assert columnar.flush().tolist() == scalar.flush()
        assert columnar.late.dropped == scalar.late.dropped

    @given(st.lists(st.integers(-1000, 1000), max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_flush_is_sorted_input(self, values):
        sorter = ColumnarImpatienceSorter()
        sorter.insert_batch(values)
        assert sorter.flush().tolist() == sorted(values)


class TestThroughputPath:
    def test_large_stream_smoke(self, cloudlog_small):
        sorter = ColumnarImpatienceSorter()
        times = np.asarray(cloudlog_small.timestamps)
        out = []
        for i in range(0, len(times), 512):
            chunk = times[i:i + 512]
            sorter.insert_batch(chunk)
            ts = int(chunk.max()) - 1500
            if sorter.watermark == float("-inf") or ts > sorter.watermark:
                out.append(sorter.on_punctuation(ts))
        out.append(sorter.flush())
        merged = np.concatenate(out)
        assert (np.diff(merged) >= 0).all()
        assert merged.size + sorter.late.dropped == len(times)


class TestPayloadColumns:
    """columns=k carries parallel payload columns through the sorter."""

    @staticmethod
    def _reference(rows):
        # Stable sort by timestamp: numpy argsort(kind="stable") on the
        # arrival order, i.e. Python's sorted() keyed on ts alone.
        return sorted(rows, key=lambda row: row[0])

    def test_columns_follow_timestamps(self):
        sorter = ColumnarImpatienceSorter(columns=2)
        sorter.insert_batch([2, 6, 5, 1], ([20, 60, 50, 10], [0, 1, 2, 3]))
        ts, (a, b) = sorter.on_punctuation(2)
        assert ts.tolist() == [1, 2]
        assert a.tolist() == [10, 20]
        assert b.tolist() == [3, 0]
        sorter.insert_batch([4, 3], ([40, 30], [4, 5]))
        ts, (a, b) = sorter.flush()
        assert ts.tolist() == [3, 4, 5, 6]
        assert a.tolist() == [30, 40, 50, 60]
        assert b.tolist() == [5, 4, 2, 1]

    def test_column_arity_enforced(self):
        sorter = ColumnarImpatienceSorter(columns=1)
        with pytest.raises(ValueError, match="payload columns"):
            sorter.insert_batch([1, 2])
        with pytest.raises(ValueError, match="parallel"):
            sorter.insert_batch([1, 2], ([1],))
        with pytest.raises(ValueError, match=">= 0"):
            ColumnarImpatienceSorter(columns=-1)

    def test_empty_outputs_keep_tuple_shape(self):
        sorter = ColumnarImpatienceSorter(columns=1)
        ts, cols = sorter.flush()
        assert ts.size == 0
        assert len(cols) == 1 and cols[0].size == 0

    def test_drop_policy_filters_columns(self):
        sorter = ColumnarImpatienceSorter(columns=1)
        sorter.insert_batch([5], ([50],))
        sorter.on_punctuation(5)
        sorter.insert_batch([3, 7, 4], ([30, 70, 40],))
        ts, (col,) = sorter.flush()
        assert ts.tolist() == [7]
        assert col.tolist() == [70]
        assert sorter.late.dropped == 2

    def test_adjust_policy_keeps_columns(self):
        sorter = ColumnarImpatienceSorter(
            late_policy=LatePolicy.ADJUST, columns=1
        )
        sorter.insert_batch([5], ([50],))
        sorter.on_punctuation(5)
        sorter.insert_batch([3, 7], ([30, 70],))
        ts, (col,) = sorter.flush()
        assert ts.tolist() == [5, 7]
        assert col.tolist() == [30, 70]
        assert sorter.late.adjusted == 1

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=300), max_size=40),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_stable_row_equivalence(self, batches):
        """(ts, col) output rows == stable sort of arrival rows by ts."""
        sorter = ColumnarImpatienceSorter(columns=1)
        arrival = []
        out_rows = []
        serial = 0
        watermark = None
        for batch in batches:
            ident = list(range(serial, serial + len(batch)))
            serial += len(batch)
            admitted = [
                (t, i)
                for t, i in zip(batch, ident)
                if watermark is None or t > watermark
            ]
            arrival.extend(admitted)
            sorter.insert_batch(batch, (ident,))
            if batch:
                cut = max(batch) // 2
                if watermark is None or cut > watermark:
                    ts, (col,) = sorter.on_punctuation(cut)
                    out_rows.extend(zip(ts.tolist(), col.tolist()))
                    watermark = cut
        ts, (col,) = sorter.flush()
        out_rows.extend(zip(ts.tolist(), col.tolist()))
        assert out_rows == self._reference(arrival)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=300), max_size=40),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_bare_path_unchanged_by_columns(self, batches):
        """columns=0 timestamps match a columns=1 sorter's timestamps."""
        bare = ColumnarImpatienceSorter()
        wide = ColumnarImpatienceSorter(columns=1)
        for batch in batches:
            bare.insert_batch(batch)
            wide.insert_batch(batch, (list(range(len(batch))),))
            if batch:
                cut = max(batch) // 2
                if bare.watermark == float("-inf") or cut > bare.watermark:
                    lhs = bare.on_punctuation(cut)
                    rhs, _ = wide.on_punctuation(cut)
                    assert lhs.tolist() == rhs.tolist()
        lhs = bare.flush()
        rhs, _ = wide.flush()
        assert lhs.tolist() == rhs.tolist()


KINDS = ["in-memory", "budgeted"]


@contextlib.contextmanager
def _sorter(kind, policy):
    """Either columnar sorter, one payload column; the budgeted one's
    spill directory is released on exit."""
    if kind == "in-memory":
        yield ColumnarImpatienceSorter(late_policy=policy, columns=1)
        return
    sorter = ColumnarImpatienceSorter(
        late_policy=policy, columns=1, memory_budget=64
    )
    try:
        yield sorter
    finally:
        sorter.close()


class TestBatchSortIsInvisible:
    """Sorting each batch inside the sorter changes run structure only:
    every cut is still the stable sort of the admitted arrivals."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("policy", list(LatePolicy))
    @given(st.lists(
        st.tuples(
            st.lists(st.integers(0, 30), max_size=40),  # heavy duplicates
            st.integers(0, 6),                          # watermark advance
        ),
        max_size=8,
    ), st.sampled_from([1, 7, 2 ** 57]),
        st.integers(_INT64_MIN, _INT64_MAX - 48 * 2 ** 57))
    @settings(max_examples=60, deadline=None)
    def test_cuts_are_stable_sorts_of_admitted_arrivals(self, kind, policy,
                                                        rounds, scale,
                                                        offset):
        """Times are ``offset + scale * t``: at scale 2**57 a batch's
        span rarely fits the packed sort key, so its presort and cuts
        also run through the stable-argsort fallback."""
        with _sorter(kind, policy) as sorter:
            self._check_cuts(sorter, policy, rounds, scale, offset)

    @staticmethod
    def _check_cuts(sorter, policy, rounds, scale, offset):
        pending = []  # admitted (ts, serial) rows in arrival order
        serial = 0
        watermark = None

        def expect_cut(released, bound):
            nonlocal pending
            ts, (col,) = released
            rows = np.asarray(pending, dtype=np.int64).reshape(-1, 2)
            if bound is not None:
                due = rows[:, 0] <= bound
                pending = rows[~due].tolist()
                rows = rows[due]
            rows = rows[np.argsort(rows[:, 0], kind="stable")]
            assert ts.tolist() == rows[:, 0].tolist()
            assert col.tolist() == rows[:, 1].tolist()  # tie order too

        for batch, advance in rounds:
            batch = [offset + scale * t for t in batch]
            advance *= scale
            ident = list(range(serial, serial + len(batch)))
            serial += len(batch)
            late = [
                t for t in batch if watermark is not None and t <= watermark
            ]
            if late and policy is LatePolicy.RAISE:
                with pytest.raises(LateEventError) as info:
                    sorter.insert_batch(batch, (ident,))
                assert info.value.event_time == late[0]
                assert info.value.punctuation_time == watermark
            else:
                assert sorter.insert_batch(batch, (ident,)) == len(batch) - (
                    len(late) if policy is LatePolicy.DROP else 0
                )
                for t, i in zip(batch, ident):
                    if watermark is None or t > watermark:
                        pending.append((t, i))
                    elif policy is LatePolicy.ADJUST:
                        pending.append((watermark, i))
            watermark = (
                offset + advance if watermark is None else watermark + advance
            )
            expect_cut(sorter.on_punctuation(watermark), watermark)
        expect_cut(sorter.flush(), None)
        assert sorter.stats.emitted == sorter.stats.inserted

    def test_raise_names_first_late_arrival_on_both_engines(self):
        """Two late events in one unsorted chunk, the later arrival the
        smaller: the error names the first *arrival*, on either engine."""
        from repro.engine.event import Event
        from repro.engine.planner import QueryPlan

        events = [
            Event(t, t + 1, key=0, payload=(t,))
            for t in [10, 20, 30, 40, 50, 7, 3, 60]
        ]
        plan = (
            QueryPlan().tumbling_window(1)
            .sort(late_policy=LatePolicy.RAISE).count()
        )
        raised = {}
        for engine in ("row", "columnar"):
            with pytest.raises(LateEventError) as info:
                plan.run(list(events), 4, 0, engine=engine)
            raised[engine] = info.value
        assert raised["row"].args == raised["columnar"].args
        assert raised["columnar"].event_time == 7
        assert raised["columnar"].punctuation_time == 40


class TestBulkLateAccounting:
    """``admit_many``: one counter add, or one ledger record per event."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_quarantine_records_every_late_event_time(self, kind):
        from repro.resilience.quarantine import QuarantineLedger, Reason

        with _sorter(kind, LatePolicy.RAISE) as sorter:
            sorter.late.quarantine = ledger = QuarantineLedger()
            sorter.insert_batch([10], ([0],))
            sorter.on_punctuation(5)
            admitted = sorter.insert_batch([4, 9, 2, 5, 7], (range(5),))
            ts, (col,) = sorter.flush()
        assert admitted == 2
        assert [entry.element for entry in ledger.entries] == [4, 2, 5]
        assert {entry.reason for entry in ledger.entries} == {
            Reason.LATE_EVENT
        }
        assert all(
            entry.context == {"watermark": 5} for entry in ledger.entries
        )
        assert sorter.late.quarantined == sorter.late.total == 3
        assert ts.tolist() == [7, 9, 10]
        assert col.tolist() == [4, 1, 0]

    @pytest.mark.parametrize("policy, counter", [
        (LatePolicy.DROP, "dropped"), (LatePolicy.ADJUST, "adjusted"),
    ])
    def test_counts_whole_batch(self, policy, counter):
        sorter = ColumnarImpatienceSorter(late_policy=policy)
        sorter.on_punctuation(100)
        sorter.insert_batch(np.arange(150, 50, -1))
        assert getattr(sorter.late, counter) == sorter.late.total == 50
