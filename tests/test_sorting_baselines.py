"""Tests for the from-scratch baseline sorters (repro.sorting)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sorting import (
    OFFLINE_SORTS,
    binary_insertion_sort,
    heapsort,
    offline_sort,
    quicksort,
    timsort,
)

ADVERSARIAL = {
    "empty": [],
    "single": [5],
    "sorted": list(range(500)),
    "reverse": list(range(500, 0, -1)),
    "all_equal": [3] * 500,
    "organ_pipe": list(range(250)) + list(range(250, 0, -1)),
    "sawtooth": [i % 17 for i in range(500)],
    "two_runs": list(range(250)) + list(range(250)),
    "alternating": [i % 2 for i in range(500)],
}


@pytest.mark.parametrize("sorter", [quicksort, timsort, heapsort])
@pytest.mark.parametrize("pattern", sorted(ADVERSARIAL))
def test_adversarial_patterns(sorter, pattern):
    data = ADVERSARIAL[pattern]
    assert sorter(data) == sorted(data)


@pytest.mark.parametrize("sorter", [quicksort, timsort, heapsort])
def test_does_not_mutate_input(sorter):
    data = [3, 1, 2]
    sorter(data)
    assert data == [3, 1, 2]


@pytest.mark.parametrize("sorter", [quicksort, timsort, heapsort])
def test_key_function(sorter):
    data = [(1, "b"), (0, "c"), (2, "a")]
    out = sorter(data, key=lambda p: p[1])
    assert [p[1] for p in out] == ["a", "b", "c"]


@pytest.mark.parametrize("name", sorted(OFFLINE_SORTS))
@given(data=st.lists(st.integers(-10_000, 10_000)))
@settings(max_examples=60, deadline=None)
def test_registry_sorters_match_builtin(name, data):
    assert offline_sort(name, data) == sorted(data)


def test_registry_unknown_name():
    with pytest.raises(ValueError, match="unknown offline sorter"):
        offline_sort("bogosort", [1])


@given(st.lists(st.tuples(st.integers(0, 5), st.integers())))
@settings(max_examples=100, deadline=None)
def test_timsort_is_stable(pairs):
    """Equal keys keep input order (Timsort's contract)."""
    indexed = [(k, i) for i, (k, _) in enumerate(pairs)]
    out = timsort(indexed, key=lambda p: p[0])
    for (ka, ia), (kb, ib) in zip(out, out[1:]):
        if ka == kb:
            assert ia < ib


@given(st.lists(st.floats(allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_quicksort_floats_with_infinities(data):
    assert quicksort(data) == sorted(data)


class TestBinaryInsertion:
    def test_full_range(self):
        keys = [5, 2, 4, 1]
        items = ["e5", "e2", "e4", "e1"]
        binary_insertion_sort(keys, items)
        assert keys == [1, 2, 4, 5]
        assert items == ["e1", "e2", "e4", "e5"]

    def test_subrange_only(self):
        keys = [9, 3, 1, 2, 0]
        items = list(keys)
        binary_insertion_sort(keys, items, lo=1, hi=4)
        assert keys == [9, 1, 2, 3, 0]

    def test_presorted_prefix_start(self):
        keys = [1, 3, 5, 2, 4]
        items = list(keys)
        binary_insertion_sort(keys, items, lo=0, hi=5, start=3)
        assert keys == [1, 2, 3, 4, 5]

    def test_stability(self):
        keys = [1, 0, 1, 0]
        items = ["a", "b", "c", "d"]
        binary_insertion_sort(keys, items)
        assert items == ["b", "d", "a", "c"]


class TestTimsortInternals:
    def test_descending_run_detection(self):
        """A strictly descending prefix is reversed as one run."""
        data = [5, 4, 3, 2, 1] + list(range(100))
        assert timsort(data) == sorted(data)

    @given(st.lists(st.integers(0, 100), min_size=32, max_size=2000))
    @settings(max_examples=60, deadline=None)
    def test_large_inputs_trigger_merge_path(self, data):
        assert timsort(data) == sorted(data)


class TestHeapsortInternals:
    @given(st.lists(st.integers()))
    @settings(max_examples=80, deadline=None)
    def test_heapsort_property(self, data):
        assert heapsort(data) == sorted(data)

    def test_duplicate_heavy(self):
        data = [1, 1, 0, 0, 2, 2] * 100
        assert heapsort(data) == sorted(data)


class TestNaturalMergeSort:
    @pytest.mark.parametrize("pattern", sorted(ADVERSARIAL))
    def test_adversarial(self, pattern):
        from repro.sorting.natural_merge import natural_merge_sort

        data = ADVERSARIAL[pattern]
        assert natural_merge_sort(data) == sorted(data)

    @given(st.lists(st.integers(-5000, 5000)))
    @settings(max_examples=80, deadline=None)
    def test_matches_builtin(self, data):
        from repro.sorting.natural_merge import natural_merge_sort

        assert natural_merge_sort(data) == sorted(data)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers())))
    @settings(max_examples=60, deadline=None)
    def test_stability(self, pairs):
        from repro.sorting.natural_merge import natural_merge_sort

        indexed = [(k, i) for i, (k, _) in enumerate(pairs)]
        out = natural_merge_sort(indexed, key=lambda p: p[0])
        for (ka, ia), (kb, ib) in zip(out, out[1:]):
            if ka == kb:
                assert ia < ib

    def test_registered_offline_and_online(self, rng):
        from repro.sorting import make_online_sorter, offline_sort

        data = [rng.randrange(500) for _ in range(1000)]
        assert offline_sort("naturalmerge", data) == sorted(data)
        sorter = make_online_sorter("naturalmerge")
        sorter.extend(data)
        assert sorter.flush() == sorted(data)

    def test_does_not_mutate_input(self):
        from repro.sorting.natural_merge import natural_merge_sort

        data = [3, 1, 2]
        natural_merge_sort(data)
        assert data == [3, 1, 2]
