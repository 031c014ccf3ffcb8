"""Impatience sort — incremental Patience sort (Section III-D/E).

Impatience sort keeps the Patience partition phase but makes the merge phase
incremental: on the i-th punctuation with timestamp ``T_i`` it cuts from the
head of every run the prefix of events with time <= ``T_i`` (cheap, because
runs are sorted), merges only those *head runs*, and emits the result.  Runs
emptied by the cut are removed, which gradually heals the damage done by
bursts of severely late events (Figure 5).

Two optimizations from Section III-E are built in and individually
toggleable for the Figure 7 ablation:

* ``huffman_merge`` — merge smallest head runs first (Section III-E1);
* ``speculative`` — speculative run selection, probing the run that
  received the previous element before binary-searching (Section III-E2).
"""

from __future__ import annotations

from repro.core.late import LateEventTracker, LatePolicy
from repro.core.errors import PunctuationOrderError
from repro.core.merge import MERGE_STRATEGIES, merge_runs
from repro.core.runs import RunPool
from repro.core.stats import SorterStats

__all__ = ["ImpatienceSorter"]

_NEG_INF = float("-inf")

# ``tie_break="arrival"`` lifts integer sort keys to
# ``key * _SEQ_SPAN + arrival_seq`` so equal keys become a strict total
# order.  The span bounds the number of inserts over a sorter's
# lifetime (~2.8e14) — far beyond any stream this process can hold.
_SEQ_SPAN = 1 << 48
_SEQ_MAX = _SEQ_SPAN - 1




class ImpatienceSorter:
    """Online, punctuation-driven adaptive sorter.

    Parameters
    ----------
    key:
        Sort-key extractor; ``None`` sorts items by themselves.
    huffman_merge:
        Use the Huffman (smallest-first) merge schedule for head runs;
        when ``False``, head runs are merged pairwise in creation order.
    merge:
        Explicit merge-strategy name from
        :data:`repro.core.merge.MERGE_STRATEGIES` (``huffman``,
        ``pairwise``, or ``kway``); overrides ``huffman_merge`` when
        given.  ``kway`` is the classic Patience heap merge, kept for
        differential testing and comparison.
    speculative:
        Enable speculative run selection in the partition phase.
    late_policy:
        What to do with events at or before the last punctuation — see
        :class:`repro.core.late.LatePolicy`.
    sample_every:
        When set, record a run-count sample every that many inserts
        (in addition to the sample taken at every punctuation) — the
        Figure 5 series.
    placement:
        Run-placement search on an SRS miss: ``"bisect"`` (default, C
        binary search over negated tails) or ``"binary"`` (pure-Python
        binary search; the pre-optimization baseline, kept for the
        Figure 8 placement ablation).
    tie_break:
        ``"arrival"`` (default for keyed sorters) makes emission order a
        *total* deterministic order: items with equal sort keys emit in
        arrival order, matching the tie order the columnar and external
        sorters already guarantee.  Internally each integer key is
        lifted to ``key * 2**48 + arrival_seq``, so placement, cuts, and
        every merge strategy see strictly distinct keys (requires
        integer keys).  ``"none"`` keeps the raw keys — tie order then
        depends on run placement and the merge schedule, which is fine
        when equal-keyed items are interchangeable (e.g. keyless bare
        timestamps, which always use ``"none"``).

    Examples
    --------
    >>> s = ImpatienceSorter()
    >>> for x in [2, 6, 5, 1]:
    ...     s.insert(x)
    >>> s.on_punctuation(2)
    [1, 2]
    >>> for x in [4, 3, 7, 8]:
    ...     s.insert(x)
    >>> s.on_punctuation(4)
    [3, 4]
    >>> s.flush()
    [5, 6, 7, 8]
    """

    def __init__(self, key=None, huffman_merge=True, speculative=True,
                 late_policy=LatePolicy.DROP, sample_every=None, merge=None,
                 quarantine=None, placement="bisect", tie_break=None):
        self.key = key
        if tie_break is None:
            tie_break = "none" if key is None else "arrival"
        if tie_break not in ("arrival", "none"):
            raise ValueError(
                f"tie_break must be 'arrival' or 'none', not {tie_break!r}"
            )
        # Keyless sorters emit the keys themselves: equal keys are
        # indistinguishable, so lifting would only corrupt the output.
        self.tie_break = "none" if key is None else tie_break
        self._stable = self.tie_break == "arrival"
        self._seq = 0
        if merge is None:
            merge = "huffman" if huffman_merge else "pairwise"
        elif merge not in MERGE_STRATEGIES:
            raise ValueError(
                f"unknown merge strategy {merge!r}; "
                f"expected one of {sorted(MERGE_STRATEGIES)}"
            )
        self.merge = merge
        self.stats = SorterStats()
        self.late = LateEventTracker(late_policy, quarantine=quarantine)
        self.sample_every = sample_every
        self._pool = RunPool(speculative=speculative, keyless=key is None,
                             stats=self.stats, placement=placement)
        # Ingress batch (Trill ingests columnar batches): inserts append
        # here in O(1); the partition phase consumes the whole batch at
        # the next punctuation/flush.  A constant-factor staging area —
        # per-punctuation behaviour of the algorithm is unchanged.
        self._pending_keys = []
        self._pending_items = []
        self._watermark = _NEG_INF
        self._has_watermark = False

    @property
    def run_count(self) -> int:
        """Number of live sorted runs (ingress batch partitioned first)."""
        self._flush_pending()
        return len(self._pool)

    @property
    def buffered(self) -> int:
        """Events currently buffered (runs + ingress batch)."""
        return (
            sum(len(run) for run in self._pool.runs)
            + len(self._pending_keys)
        )

    @property
    def watermark(self):
        """Timestamp of the last punctuation, or ``-inf`` before the first."""
        return self._watermark

    def insert(self, item):
        """Ingest one out-of-order item.

        Items with key <= the last punctuation are handled by the late
        policy (dropped, adjusted to just after the punctuation, or raised).
        Returns ``True`` when the item was admitted.
        """
        key = item if self.key is None else self.key(item)
        if self._has_watermark and key <= self._watermark:
            key = self.late.admit(key, self._watermark)
            if key is None:
                return False
            if self.key is None:
                item = key  # bare timestamps: adjusting the key IS the item
        if self._stable:
            key = self._lift(key)
        self._pending_keys.append(key)
        if self.key is not None:
            self._pending_items.append(item)
        self.stats.inserted += 1
        self.stats.note_buffered()
        if (
            self.sample_every
            and self.stats.inserted % self.sample_every == 0
        ):
            self._flush_pending()
            self.stats.sample_runs(len(self._pool))
        return True

    def extend(self, items):
        """Insert every item from an iterable.

        Stages through the ingress batch when no late events are present
        (the common case); any batch containing a late event falls back to
        per-item :meth:`insert` so the late policy applies.
        """
        items = list(items)
        if not items:
            return
        keys = items if self.key is None else list(map(self.key, items))
        if self.sample_every or (
            self._has_watermark and min(keys) <= self._watermark
        ):
            for item in items:
                self.insert(item)
            return
        if self._stable:
            keys = [self._lift(key) for key in keys]
        self._pending_keys.extend(keys)
        if self.key is not None:
            self._pending_items.extend(items)
        self.stats.inserted += len(items)
        self.stats.note_buffered()

    def on_punctuation(self, timestamp):
        """Sort and emit all buffered items with key <= ``timestamp``.

        Returns the emitted items in ascending key order.  Punctuations must
        be non-decreasing; a regressing punctuation raises
        :class:`repro.core.errors.PunctuationOrderError`.
        """
        if self._has_watermark and timestamp < self._watermark:
            raise PunctuationOrderError(timestamp, self._watermark)
        self._watermark = timestamp
        self._has_watermark = True
        self._flush_pending()
        if self._stable:
            # Release every lifted key whose raw key is <= timestamp.
            heads = self._pool.cut_heads(timestamp * _SEQ_SPAN + _SEQ_MAX)
        else:
            heads = self._pool.cut_heads(timestamp)
        self.stats.sample_runs(len(self._pool))
        if not heads:
            return []
        _, items = merge_runs(heads, self.merge, self.stats)
        self.stats.emitted += len(items)
        return items

    def flush(self):
        """Emit everything still buffered, in order (end-of-stream)."""
        self._flush_pending()
        runs = self._pool.drain()
        self.stats.sample_runs(0)
        if not runs:
            return []
        _, items = merge_runs(runs, self.merge, self.stats)
        self.stats.emitted += len(items)
        return items

    def _lift(self, key):
        """Lift one raw key to ``key * 2**48 + arrival_seq``.

        A non-integer *first* key demotes the sorter to raw keys (same
        spirit as the bisect -> binary placement demotion); a non-integer
        key after integer ones cannot be ordered against already-lifted
        keys and raises.
        """
        if not self._stable:
            return key
        if type(key) is not int:
            try:
                coerced = int(key)
            except (TypeError, ValueError):
                coerced = None
            if coerced is None or coerced != key:
                if self._seq == 0:
                    self._stable = False
                    self.tie_break = "none"
                    return key
                raise TypeError(
                    f"tie_break='arrival' saw non-integer sort key {key!r} "
                    f"after integer keys; construct the sorter with "
                    f"tie_break='none' for non-integer keys"
                )
            key = coerced
        seq = self._seq
        self._seq = seq + 1
        return key * _SEQ_SPAN + seq

    def _flush_pending(self):
        """Partition the staged ingress batch into the run pool."""
        keys = self._pending_keys
        if not keys:
            return
        items = keys if self.key is None else self._pending_items
        self._pool.insert_batch(keys, items)
        self._pending_keys = []
        self._pending_items = []

    def __repr__(self):
        return (
            f"ImpatienceSorter(runs={self.run_count}, "
            f"buffered={self.buffered}, watermark={self._watermark!r})"
        )
