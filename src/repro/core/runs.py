"""Sorted-run data structures for Patience and Impatience sort.

A *sorted run* is an ascending (by sort key) sequence of items grown at the
tail by the partition phase and — for Impatience sort — consumed from the
head on every punctuation (Section III-D of the paper).  Head cuts are the
hot path that lets Impatience sort avoid touching the whole buffer, so
:class:`SortedRun` cuts in O(log n + h) for a head of h items using an
offset pointer instead of repeated list slicing.

:class:`RunPool` owns the set of runs and the *tails array* — the keys of
the last element of every run, kept in strictly descending order, which is
the invariant that makes binary-search placement (and the speculative run
selection shortcut of Section III-E2) correct.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

__all__ = ["SortedRun", "RunPool"]

# Compact a run's backing lists once the dead prefix exceeds both this many
# slots and half of the backing storage.  Keeps head cuts amortized O(h).
_COMPACT_THRESHOLD = 64


class SortedRun:
    """One ascending run: parallel key/item lists with a live-start offset.

    Keys are stored alongside items so that bisection and merging never
    re-invoke the (potentially expensive) key function.  In *keyless* mode
    (items are their own sort keys — bare timestamps) the two lists are one
    shared object, halving storage and merge traffic.
    """

    __slots__ = ("keys", "items", "start")

    def __init__(self, keyless=False):
        self.keys = []
        self.items = self.keys if keyless else []
        self.start = 0

    def __len__(self) -> int:
        return len(self.keys) - self.start

    def __bool__(self) -> bool:
        return len(self.keys) > self.start

    @property
    def tail_key(self):
        """Key of the last (largest) element; undefined on an empty run."""
        return self.keys[-1]

    @property
    def head_key(self):
        """Key of the first live (smallest) element."""
        return self.keys[self.start]

    def append(self, key, item):
        """Append an element; caller guarantees ``key >= tail_key``."""
        self.keys.append(key)
        if self.items is not self.keys:
            self.items.append(item)

    def cut_head(self, timestamp):
        """Remove and return the prefix with keys <= ``timestamp``.

        Returns a ``(keys, items)`` pair of new lists (the *head run* of
        Section III-D), each in ascending order; both empty when no element
        qualifies.  In keyless mode the returned pair shares one list.
        """
        end = bisect_right(self.keys, timestamp, self.start)
        if end == self.start:
            return [], []
        head_keys = self.keys[self.start:end]
        if self.items is self.keys:
            head_items = head_keys
        else:
            head_items = self.items[self.start:end]
        self.start = end
        self._maybe_compact()
        return head_keys, head_items

    def _maybe_compact(self):
        if self.start > _COMPACT_THRESHOLD and self.start * 2 > len(self.keys):
            if self.items is not self.keys:
                del self.items[: self.start]
            del self.keys[: self.start]
            self.start = 0

    def live(self):
        """The live ``(keys, items)`` view as freshly sliced lists."""
        keys = self.keys[self.start:]
        if self.items is self.keys:
            items = keys
        else:
            items = self.items[self.start:]
        return keys, items

    def __repr__(self):
        n = len(self)
        if not n:
            return "SortedRun(empty)"
        return f"SortedRun(len={n}, head={self.head_key!r}, tail={self.tail_key!r})"


class RunPool:
    """The partition-phase state: live runs plus their descending tails.

    ``insert`` implements the Patience placement rule — append to the first
    run whose tail is <= the new key, else open a new run — with the
    optional speculative-run-selection (SRS) fast path that first probes the
    run that received the previous element (Section III-E2).

    ``placement`` picks how an SRS miss finds the first eligible run:
    ``"bisect"`` (default) keeps a parallel *negated* tails list in
    ascending order and binary-searches it with the C-implemented
    :func:`bisect.bisect_left`; ``"binary"`` is the pure-Python binary
    search over the descending tails, kept for the Figure 8 ablation.
    Keys that cannot be negated (non-numeric sort keys) silently demote
    ``"bisect"`` to ``"binary"`` on first contact.
    """

    __slots__ = ("runs", "tails", "neg_tails", "speculative", "keyless",
                 "stats", "_last")

    def __init__(self, speculative: bool = True, keyless: bool = False,
                 stats=None, placement: str = "bisect"):
        if placement not in ("bisect", "binary"):
            raise ValueError(
                f"placement must be 'bisect' or 'binary', not {placement!r}"
            )
        self.runs: list[SortedRun] = []
        #: keys of run tails, strictly descending; parallel to ``runs``.
        self.tails = []
        #: negated tails, strictly ascending (``bisect``-searchable);
        #: ``None`` when placement is (or was demoted to) ``"binary"``.
        self.neg_tails = [] if placement == "bisect" else None
        self.speculative = speculative
        #: items are their own keys: runs store one shared list.
        self.keyless = keyless
        self.stats = stats
        self._last = -1

    def __len__(self) -> int:
        return len(self.runs)

    def insert(self, key, item):
        """Place one element, preserving the descending-tails invariant."""
        tails = self.tails
        n = len(tails)
        last = self._last
        if (
            self.speculative
            and 0 <= last < n
            and tails[last] <= key
            and (last == 0 or tails[last - 1] > key)
        ):
            # SRS hit: the element extends the same run as its predecessor.
            idx = last
            if self.stats is not None:
                self.stats.srs_hits += 1
        else:
            idx = self._search(key)
            if self.stats is not None:
                self.stats.binary_searches += 1
        if idx == n:
            run = SortedRun(keyless=self.keyless)
            run.append(key, item)
            self.runs.append(run)
            tails.append(key)
            if self.neg_tails is not None:
                self.neg_tails.append(-key)
            if self.stats is not None:
                self.stats.runs_created += 1
        else:
            self.runs[idx].append(key, item)
            tails[idx] = key
            if self.neg_tails is not None:
                try:
                    self.neg_tails[idx] = -key
                except TypeError:
                    self.neg_tails = None
        self._last = idx

    def _search(self, key) -> int:
        """First index whose tail is <= ``key`` (== len(tails) when none).

        The descending tails order is the wrong way round for
        :mod:`bisect`, so the fast path searches the ascending *negated*
        tails (``tails[i] <= key`` iff ``-tails[i] >= -key``); keys
        without ``-`` demote the pool to the pure-Python binary search.
        """
        if self.neg_tails is not None:
            try:
                return bisect_left(self.neg_tails, -key)
            except TypeError:
                self.neg_tails = None
        tails = self.tails
        lo, hi = 0, len(tails)
        while lo < hi:
            mid = (lo + hi) // 2
            if tails[mid] <= key:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def insert_batch(self, keys, items):
        """Place many elements at once (offline partition hot path).

        ``keys`` and ``items`` are parallel sequences.  Semantically
        identical to calling :meth:`insert` per element, but with the loop
        state held in locals — this is what makes the pure-Python partition
        phase competitive with the tight run-scanning loops of Timsort.
        """
        runs = self.runs
        tails = self.tails
        neg_tails = self.neg_tails
        speculative = self.speculative
        keyless = self.keyless
        last = self._last
        srs_hits = 0
        searches = 0
        created = 0
        if keyless:
            items = keys
        nk = None
        for key, item in zip(keys, items):
            n = len(tails)
            if neg_tails is not None:
                try:
                    nk = -key
                except TypeError:
                    neg_tails = self.neg_tails = None
            if (
                speculative
                and 0 <= last < n
                and tails[last] <= key
                and (last == 0 or tails[last - 1] > key)
            ):
                idx = last
                srs_hits += 1
            else:
                if neg_tails is not None:
                    idx = bisect_left(neg_tails, nk)
                else:
                    lo, hi = 0, n
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if tails[mid] <= key:
                            hi = mid
                        else:
                            lo = mid + 1
                    idx = lo
                searches += 1
            if idx == n:
                run = SortedRun(keyless=keyless)
                run.keys.append(key)
                if not keyless:
                    run.items.append(item)
                runs.append(run)
                tails.append(key)
                if neg_tails is not None:
                    neg_tails.append(nk)
                created += 1
            else:
                run = runs[idx]
                run.keys.append(key)
                if not keyless:
                    run.items.append(item)
                tails[idx] = key
                if neg_tails is not None:
                    neg_tails[idx] = nk
            last = idx
        self._last = last
        if self.stats is not None:
            self.stats.srs_hits += srs_hits
            self.stats.binary_searches += searches
            self.stats.runs_created += created

    def cut_heads(self, timestamp):
        """Cut every run's head at ``timestamp``; drop emptied runs.

        Returns the list of non-empty ``(keys, items)`` head runs.  Runs that
        become empty are removed from the pool (the "gradual clean-up" that
        distinguishes Impatience from Patience sort — Figure 5).
        """
        heads = []
        survivors = []
        surviving_tails = []
        removed = 0
        for run, tail in zip(self.runs, self.tails):
            if run.head_key <= timestamp:
                head = run.cut_head(timestamp)
                heads.append(head)
                if not run:
                    removed += 1
                    continue
            survivors.append(run)
            surviving_tails.append(tail)
        if removed:
            self.runs = survivors
            self.tails = surviving_tails
            if self.neg_tails is not None:
                self.neg_tails = [-tail for tail in surviving_tails]
            self._last = -1  # indices shifted; invalidate the SRS hint
            if self.stats is not None:
                self.stats.runs_removed += removed
        return heads

    def drain(self):
        """Remove and return all live runs as ``(keys, items)`` pairs."""
        heads = [run.live() for run in self.runs if run]
        self.runs = []
        self.tails = []
        if self.neg_tails is not None:
            self.neg_tails = []
        self._last = -1
        return heads

    def check_invariants(self):
        """Assert the structural invariants (used by tests, not hot paths)."""
        assert len(self.runs) == len(self.tails)
        for run, tail in zip(self.runs, self.tails):
            assert run, "pool holds an empty run"
            assert run.tail_key == tail, "tails array out of sync"
            keys = run.live()[0]
            assert all(a <= b for a, b in zip(keys, keys[1:])), (
                "run not ascending"
            )
        assert all(
            a > b for a, b in zip(self.tails, self.tails[1:])
        ), "tails not strictly descending"
        if self.neg_tails is not None:
            assert self.neg_tails == [-tail for tail in self.tails], (
                "negated tails out of sync"
            )
