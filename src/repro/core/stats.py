"""Statistics collected by sorters.

Figure 5 of the paper plots the number of sorted runs over time for Patience
versus Impatience sort; the ablation rows of Figure 7 depend on knowing how
much work the Huffman-merge and speculative-run-selection optimizations save.
``SorterStats`` is a cheap, always-on counter bundle that every sorter in
this library exposes as ``.stats``.
"""

from __future__ import annotations

__all__ = ["SorterStats"]


class SorterStats:
    """Counter bundle shared by all sorters in :mod:`repro`.

    Attributes
    ----------
    inserted:
        Total events inserted into the sorter.
    emitted:
        Total events emitted (via punctuations or a final flush).
    runs_created:
        Number of sorted runs created during the partition phase (the
        columnar sorter: admitted batches, each kept as one sorted run).
    runs_removed:
        Runs that became empty after a head cut and were discarded
        (scalar Impatience sort only; always 0 for offline Patience sort
        and the columnar sorter).
    srs_hits:
        Inserts placed by speculative run selection without a binary search.
    binary_searches:
        Inserts that required a binary search over the tails array (the
        columnar sorter: buffered chunks a cut split by binary search).
    merge_events:
        Events read during merge phases.  With an optimal (Huffman) merge
        schedule this is the weighted external path length of the merge tree.
    merges:
        Number of two-way (or k-way) merge operations performed.
    max_buffered:
        High-water mark of events resident in the sorter at once.
    run_count_history:
        ``(events_inserted, live_runs)`` samples, recorded at punctuations
        (and optionally on a sampling interval) — the Figure 5 series.
    """

    __slots__ = (
        "inserted",
        "emitted",
        "runs_created",
        "runs_removed",
        "srs_hits",
        "binary_searches",
        "merge_events",
        "merges",
        "max_buffered",
        "run_count_history",
    )

    def __init__(self):
        self.inserted = 0
        self.emitted = 0
        self.runs_created = 0
        self.runs_removed = 0
        self.srs_hits = 0
        self.binary_searches = 0
        self.merge_events = 0
        self.merges = 0
        self.max_buffered = 0
        self.run_count_history = []

    @property
    def buffered(self) -> int:
        """Events currently held by the sorter."""
        return self.inserted - self.emitted

    def note_buffered(self):
        """Update the buffered-events high-water mark."""
        buffered = self.inserted - self.emitted
        if buffered > self.max_buffered:
            self.max_buffered = buffered

    def sample_runs(self, live_runs: int):
        """Record a Figure 5 sample: (#inserted so far, #live runs)."""
        self.run_count_history.append((self.inserted, live_runs))

    def as_dict(self) -> dict:
        """Snapshot of every scalar counter (history excluded)."""
        return {
            "inserted": self.inserted,
            "emitted": self.emitted,
            "runs_created": self.runs_created,
            "runs_removed": self.runs_removed,
            "srs_hits": self.srs_hits,
            "binary_searches": self.binary_searches,
            "merge_events": self.merge_events,
            "merges": self.merges,
            "max_buffered": self.max_buffered,
        }

    def __repr__(self):
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SorterStats({parts})"
