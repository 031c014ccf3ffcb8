"""Timsort baseline, implemented from scratch (Section VI-B).

Timsort — Python's own standard sort — detects natural ascending runs
(reversing strictly descending ones), extends short runs to ``minrun`` with
binary insertion sort, and merges runs off a stack whose size invariants
keep merges balanced.  This implementation follows Tim Peters' design
(run detection, minrun computation, the A > B+C / B > C stack invariants)
but omits galloping mode; it is deliberately independent of ``list.sort``
so the paper's baseline comparison measures our own code on every
algorithm equally.
"""

from __future__ import annotations

from repro.core.merge import merge_two
from repro.sorting.insertion import binary_insertion_sort

__all__ = ["timsort"]

_MIN_MERGE = 32


def _minrun(n: int) -> int:
    """Tim Peters' minrun: n scaled into [16, 32] so runs merge evenly."""
    r = 0
    while n >= _MIN_MERGE:
        r |= n & 1
        n >>= 1
    return n + r


def _next_run(keys, items, lo, hi, minrun):
    """Identify (and normalize) the run starting at ``lo``.

    Detects a maximal ascending run, or a *strictly* descending run which is
    reversed in place (strictness preserves stability).  Runs shorter than
    ``minrun`` are extended with binary insertion sort.  Returns the run's
    exclusive end index.  ``items=None`` is the keyless single-array mode.
    """
    end = lo + 1
    if end == hi:
        return end
    if keys[end] < keys[lo]:
        while end < hi and keys[end] < keys[end - 1]:
            end += 1
        keys[lo:end] = keys[lo:end][::-1]
        if items is not None:
            items[lo:end] = items[lo:end][::-1]
    else:
        while end < hi and keys[end] >= keys[end - 1]:
            end += 1
    if end - lo < minrun:
        forced = min(lo + minrun, hi)
        binary_insertion_sort(keys, items, lo, forced, start=end)
        end = forced
    return end


def _merge_at(keys, items, stack, i):
    """Merge stack runs i and i+1 (each a ``(start, length)`` pair)."""
    start_a, len_a = stack[i]
    start_b, len_b = stack[i + 1]
    key_slice_a = keys[start_a:start_a + len_a]
    key_slice_b = keys[start_b:start_b + len_b]
    if items is None:
        merged_keys, _ = merge_two(
            (key_slice_a, key_slice_a), (key_slice_b, key_slice_b)
        )
        keys[start_a:start_b + len_b] = merged_keys
    else:
        merged_keys, merged_items = merge_two(
            (key_slice_a, items[start_a:start_a + len_a]),
            (key_slice_b, items[start_b:start_b + len_b]),
        )
        keys[start_a:start_b + len_b] = merged_keys
        items[start_a:start_b + len_b] = merged_items
    stack[i] = (start_a, len_a + len_b)
    del stack[i + 1]


def _collapse(keys, items, stack):
    """Restore the Timsort stack invariants after pushing a run."""
    while len(stack) > 1:
        n = len(stack) - 2
        if n > 0 and stack[n - 1][1] <= stack[n][1] + stack[n + 1][1]:
            if stack[n - 1][1] < stack[n + 1][1]:
                _merge_at(keys, items, stack, n - 1)
            else:
                _merge_at(keys, items, stack, n)
        elif stack[n][1] <= stack[n + 1][1]:
            _merge_at(keys, items, stack, n)
        else:
            break


def timsort(items, key=None):
    """Return a new list of ``items`` stably sorted ascending by ``key``.

    With ``key=None`` the values are their own keys and a single array is
    sorted (keyless mode, matching every other sorter here).
    """
    items = list(items)
    n = len(items)
    if n < 2:
        return items
    if key is None:
        keys, parallel = items, None
    else:
        keys, parallel = [key(item) for item in items], items
    if n < _MIN_MERGE:
        binary_insertion_sort(keys, parallel, 0, n)
        return items
    minrun = _minrun(n)
    stack = []
    lo = 0
    while lo < n:
        end = _next_run(keys, parallel, lo, n, minrun)
        stack.append((lo, end - lo))
        _collapse(keys, parallel, stack)
        lo = end
    while len(stack) > 1:
        _merge_at(keys, parallel, stack, len(stack) - 2)
    return items
