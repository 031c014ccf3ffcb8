"""Model test: the columnar ``GroupedWindowKernel`` against the
dict-of-dicts kernel it replaced.

The oracle below is the previous kernel, copied with one change: its
folds run on Python ints (``dtype=object``), the row aggregates'
arithmetic, where the copy it came from wrapped at int64.  Hypothesis
drives arbitrary ``accumulate`` / ``close`` / ``forward`` sequences —
starts in any order, starts that re-open an emitted window (what an
ADJUST round delivers), keys wide enough to force the ``lexsort``
fallback and values whose sums leave int64 — and after every step both
kernels must agree on the rows, the forwarded punctuation and
``buffered()``, for every spec, grouped and ungrouped.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels import AGGREGATE_SPECS, GroupedWindowKernel

_NEG_INF = float("-inf")


# -- the oracle: the dict-of-dicts kernel and its specs ---------------------


class _OldCount:
    needs_value = False

    def fold(self, values, group_idx, sizes):
        return sizes.tolist()

    def merge(self, state, partial):
        return state + partial

    def result(self, state):
        return state


class _OldSum:
    needs_value = True

    def fold(self, values, group_idx, sizes):
        return np.add.reduceat(values, group_idx).tolist()

    def merge(self, state, partial):
        return state + partial

    def result(self, state):
        return state


class _OldMin(_OldSum):
    def fold(self, values, group_idx, sizes):
        return np.minimum.reduceat(values, group_idx).tolist()

    def merge(self, state, partial):
        return partial if partial < state else state


class _OldMax(_OldSum):
    def fold(self, values, group_idx, sizes):
        return np.maximum.reduceat(values, group_idx).tolist()

    def merge(self, state, partial):
        return partial if partial > state else state


class _OldAvg(_OldSum):
    def fold(self, values, group_idx, sizes):
        totals = np.add.reduceat(values, group_idx)
        return list(zip(totals.tolist(), sizes.tolist()))

    def merge(self, state, partial):
        return (state[0] + partial[0], state[1] + partial[1])

    def result(self, state):
        total, count = state
        return total / count if count else None


_OLD_SPECS = {
    "count": _OldCount(), "sum": _OldSum(), "min": _OldMin(),
    "max": _OldMax(), "avg": _OldAvg(),
}


class _OldKernel:
    def __init__(self, window, spec, grouped=True):
        self.window = window
        self.windows = {}
        self.out_watermark = _NEG_INF
        self.spec = spec
        self.grouped = grouped

    def _due(self, up_to):
        window = self.window
        return sorted(
            start for start in self.windows
            if up_to is None or start + window - 1 <= up_to
        )

    def forward(self, bound):
        if self.windows:
            bound = min(bound, min(self.windows) - 1)
        if bound > self.out_watermark:
            self.out_watermark = bound
            return bound
        return None

    def accumulate(self, starts, keys=None, values=None):
        if starts.size == 0:
            return
        if not self.grouped or keys is None:
            order = np.argsort(starts, kind="stable")
            starts = starts[order]
            keys = None
            change = np.diff(starts) != 0
        else:
            order = np.lexsort((keys, starts))
            starts = starts[order]
            keys = keys[order]
            change = (np.diff(starts) != 0) | (np.diff(keys) != 0)
        boundaries = np.flatnonzero(change) + 1
        group_idx = np.concatenate(([0], boundaries))
        sizes = np.diff(np.append(group_idx, starts.size))
        vals = values[order].astype(object) if values is not None else None
        partials = self.spec.fold(vals, group_idx, sizes)
        start_list = starts[group_idx].tolist()
        if keys is None:
            key_list = [0] * len(start_list)
        else:
            key_list = keys[group_idx].tolist()
        merge = self.spec.merge
        windows = self.windows
        for start, key, partial in zip(start_list, key_list, partials):
            groups = windows.get(start)
            if groups is None:
                groups = windows[start] = {}
            if key in groups:
                groups[key] = merge(groups[key], partial)
            else:
                groups[key] = partial

    def close(self, up_to):
        if not self.windows:
            return []
        rows = []
        result = self.spec.result
        for start in self._due(up_to):
            groups = self.windows.pop(start)
            for key in sorted(groups):
                rows.append((start, key, result(groups[key])))
        return rows

    def buffered(self):
        return sum(len(groups) for groups in self.windows.values())


# -- operation sequences ----------------------------------------------------

_KEYS = st.one_of(
    st.integers(0, 4),
    st.sampled_from([-(2 ** 62), -(2 ** 40), 2 ** 40, 2 ** 62]),
)
_VALUES = st.one_of(
    st.integers(-50, 50),
    st.integers(2 ** 62 - 5, 2 ** 63 - 1),
    st.integers(-(2 ** 63), -(2 ** 62) + 5),
)
_ROWS = st.lists(
    st.tuples(st.integers(-3, 40), _KEYS, _VALUES), max_size=25
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("accumulate"), _ROWS, st.booleans()),
        st.tuples(st.just("close"), st.none() | st.integers(-5, 50)),
        st.tuples(st.just("forward"), st.integers(-5, 50)),
    ),
    max_size=14,
)


@pytest.mark.parametrize(
    "grouped", [True, False], ids=["grouped", "ungrouped"]
)
@pytest.mark.parametrize("name", sorted(AGGREGATE_SPECS))
@given(window=st.integers(1, 12), ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_columnar_kernel_matches_dict_kernel(name, grouped, window, ops):
    kernel = GroupedWindowKernel(window, AGGREGATE_SPECS[name], grouped)
    oracle = _OldKernel(window, _OLD_SPECS[name], grouped)
    needs_value = AGGREGATE_SPECS[name].needs_value
    for op in ops:
        if op[0] == "accumulate":
            rows, with_keys = op[1], op[2]
            starts, keys, values = (
                np.array([row[c] for row in rows], dtype=np.int64)
                for c in range(3)
            )
            args = (starts, keys if with_keys else None,
                    values if needs_value else None)
            kernel.accumulate(*args)
            oracle.accumulate(*args)
        elif op[0] == "close":
            starts, keys, results = kernel.close(op[1])
            got = [
                (start, key, value, type(value)) for start, key, value
                in zip(starts.tolist(), keys.tolist(), results)
            ]
            want = [
                (start, key, value, type(value))
                for start, key, value in oracle.close(op[1])
            ]
            assert got == want
        else:
            assert kernel.forward(op[1]) == oracle.forward(op[1])
        assert kernel.buffered() == oracle.buffered()
        # What every later forward() clamps to: the earliest open start.
        assert kernel._earliest() == min(oracle.windows, default=None)


def test_one_window_whose_keys_span_two_to_the_63():
    """One start and keys ``0`` and ``2**63 - 1``: every composite fits
    int64, but the key span alone does not."""
    kernel = GroupedWindowKernel(4, AGGREGATE_SPECS["count"], True)
    kernel.accumulate(np.array([0, 0, 0]), np.array([0, 2 ** 63 - 1, 0]),
                      None)
    starts, keys, results = kernel.close(None)
    assert list(zip(starts.tolist(), keys.tolist(), results)) == [
        (0, 0, 2), (0, 2 ** 63 - 1, 1),
    ]
