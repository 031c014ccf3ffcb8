"""Output checks against the references computed in set-up.

Each function answers one yes/no question about one output; the caller
counts questions asked and questions failed, which is where the result
line's ``attempted``/``failed`` come from.  Nothing here reads a counter
the program made: the references are the row engine, a numpy rule, or
the batch run of the served query.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


class Checks:
    """Tally of checks attempted and failed, with the failures' labels."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)
        return ok


def same_sequence(reference, observed):
    """Identical elements in identical order."""
    return len(reference) == len(observed) and all(
        a == b for a, b in zip(reference, observed)
    )


def same_multiset(reference, observed):
    """Identical elements, any order (shard tie-breaks may differ)."""
    return Counter(reference) == Counter(observed)


def within_budget(spill, budget):
    """The sorter's resident peak stayed under the memory budget."""
    return spill is not None and spill["peak_buffered_bytes"] <= budget


def late_mask(ts, schedule):
    """Independent high-watermark rule: an event is late when a
    punctuation at or above its timestamp was issued at a stream
    position at or before the start of its batch — ``schedule`` is the
    ``(position, timestamp)`` list, positions on batch boundaries."""
    watermark = np.full(ts.size, np.iinfo(np.int64).min, dtype=np.int64)
    for position, timestamp in schedule:
        watermark[position:] = timestamp
    return ts <= watermark


def sorter_output_ok(cuts, tail, ts, keys, schedule):
    """``sort_online``: the cuts concatenate to a non-decreasing stream,
    no cut holds a value above its punctuation, and the ``(ts, key)``
    multiset equals the input minus the late set."""
    parts = [out for _, out in cuts] + [tail]
    out_ts = np.concatenate([p[0] for p in parts])
    out_keys = np.concatenate([p[1][0] for p in parts])
    if out_ts.size > 1 and bool((np.diff(out_ts) < 0).any()):
        return False
    for timestamp, (cut_ts, _) in cuts:
        if cut_ts.size and int(cut_ts[-1]) > timestamp:
            return False
    keep = ~late_mask(ts, schedule)
    want_ts, want_keys = ts[keep], keys[keep]
    if want_ts.size != out_ts.size:
        return False
    want = np.lexsort((want_keys, want_ts))
    got = np.lexsort((out_keys, out_ts))
    return bool(
        np.array_equal(want_ts[want], out_ts[got])
        and np.array_equal(want_keys[want], out_keys[got])
    )
