"""Columnar Impatience sort — the batched/vectorized extension.

Trill ingests columnar batches (§I-A); the natural evolution of
Impatience sort in that setting sorts *batches* instead of single
events.  Each incoming batch is a bounded reorder buffer: after the late
policy has seen it in arrival order it is stable-sorted once by
:func:`stable_order` (skipped when already ascending, or folded instead
by the caller's ``combine``) and kept as one sorted chunk.  A
punctuation cut takes every chunk wholly at or below the timestamp,
keeps every chunk wholly above it, and splits only a straddling chunk
via ``searchsorted``; the taken pieces go to one stable ``argsort`` — a
C-speed adaptive merge (timsort) that finds the sorted pieces by itself,
which a packed-key sort cannot (packing the cut merge measured slower).

The scalar sorter's run placement exists so the merge has few, long
runs.  Here the merge already exploits every presorted batch, so dealing
batches onto runs only adds Python-level work: the sorter keeps no run
structure of its own.  Its buffer is the spill pool
(:class:`~repro.sorting.external.ExternalRunPool`); with a
``memory_budget`` cold rows spill to disk, without one nothing does.
:meth:`ColumnarImpatienceSorter.release` hands a cut out as the pool's
stream of merged steps (one step when nothing has spilled), so a
consumer that takes it step by step never holds the whole cut.

The emission at a punctuation is the stable sort by timestamp of the
admitted arrivals at any budget: chunks sit in arrival order, so the
stable merge breaks ties by arrival.  Per-punctuation semantics are
identical to :class:`~repro.core.impatience.ImpatienceSorter`
(equivalence is property-tested).

``columns`` extends the sorter from bare timestamps to whole columnar
rows: payload columns ride along each timestamp through the batch sort,
punctuation cuts, and the merge (an ``argsort`` permutation instead of
an in-place sort), so a shard worker can sort an entire
:class:`~repro.engine.batch.EventBatch` without ever materializing
per-event objects.  An already-ascending batch is kept as views of the
caller's arrays — no copies on the ingress path.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import PunctuationOrderError
from repro.core.late import LateEventTracker, LatePolicy
from repro.core.stats import SorterStats
from repro.core.strings import StringColumn

__all__ = ["ColumnarImpatienceSorter"]

_NEG_INF = float("-inf")
_EMPTY = np.empty(0, dtype=np.int64)


def stable_order(values):
    """``(order, sorted_values)``: ``np.argsort(values, kind="stable")``
    of a 1-D int64 array and ``values[order]``, exactly.

    When the span ``max - min`` leaves room for ``bits`` row-index bits
    below it in an int64, each row becomes one unique normalized key
    ``(value - min) << bits | row`` — the row breaks ties, as a stable
    sort does — so numpy's vectorised unstable ``sort`` yields the same
    permutation several times faster, and the values decode from the
    keys without a gather.  Wider spans take the stable argsort.
    """
    n = int(values.size)
    if n:
        low = int(values.min())
        bits = (n - 1).bit_length()
        # The span in Python ints: ``max - min`` may not fit int64.
        if int(values.max()) - low < 1 << (63 - bits):
            key = values - low
            key <<= bits
            key |= np.arange(n, dtype=np.int64)
            key.sort()
            order = key & ((1 << bits) - 1)
            key >>= bits
            key += low
            return order, key
    order = np.argsort(values, kind="stable")
    return order, values[order]


def admit_batch(sorter, values, columns, string_columns, combine=None):
    """Validate, lateness-filter and stable-sort one arrival-order batch.

    The ingress half of ``insert_batch`` (``sorter`` supplies
    ``columns``, ``string_columns``, ``late`` and ``watermark``).
    Returns the admitted rows as ascending ``(arr, cols, scols)`` —
    empty when nothing is admitted — and how many values were admitted.
    The late policy sees arrival order; only the survivors are
    reordered, through one :func:`stable_order` permutation, so equal
    timestamps keep their arrival order.

    ``combine(arr, cols)`` may take the sort's place on a batch
    without string columns that ADJUST did not rewrite: it returns the
    survivors folded into ascending ``(arr, cols)``, or ``None``.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("insert_batch expects a 1-D array")
    if len(columns) != sorter.columns:
        raise ValueError(
            f"expected {sorter.columns} payload columns, "
            f"got {len(columns)}"
        )
    if len(string_columns) != sorter.string_columns:
        raise ValueError(
            f"expected {sorter.string_columns} string columns, "
            f"got {len(string_columns)}"
        )
    cols = tuple(np.asarray(col, dtype=np.int64) for col in columns)
    if any(col.shape != arr.shape for col in cols):
        raise ValueError("payload columns must parallel the timestamps")
    scols = tuple(
        col if isinstance(col, StringColumn)
        else StringColumn.from_values(col)
        for col in string_columns
    )
    if any(len(col) != arr.size for col in scols):
        raise ValueError("string columns must parallel the timestamps")
    watermark = sorter.watermark  # -inf before the first punctuation
    late_mask = arr <= watermark
    if late_mask.any():
        sorter.late.admit_many(arr[late_mask].tolist(), watermark)
        if sorter.late.policy is LatePolicy.ADJUST:
            arr = arr.copy()
            arr[late_mask] = watermark
            combine = None
        else:
            keep = ~late_mask
            arr = arr[keep]
            cols = tuple(col[keep] for col in cols)
            scols = tuple(col.filter(keep) for col in scols)
    admitted = int(arr.size)
    if combine is not None and admitted and not scols:
        folded = combine(arr, cols)
        if folded is not None:
            return (*folded, scols, admitted)
    if (arr[1:] < arr[:-1]).any():
        order, arr = stable_order(arr)
        cols = tuple(col[order] for col in cols)
        scols = tuple(col.take(order) for col in scols)
    return arr, cols, scols, admitted


def merge_sorted_parts(parts, ncols, nscols, has_objects=False):
    """Stable-merge sorted ``(ts, cols, objs, scols)`` parts into one.

    The merge the spill pool runs at every cut and spill: one
    concatenation, one stable ``argsort`` (a C-speed adaptive merge over
    a concatenation of sorted parts) and one gather per column — int64
    columns, string columns and the optional per-row object list all
    ride the same permutation.  A stable sort breaks key ties by
    position in the concatenation, which is ``(part index, row)`` order,
    so earlier parts win ties.  A single part is returned as is (no
    copy); ``objs`` is ``None`` unless ``has_objects``.
    """
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return (
            _EMPTY, tuple(_EMPTY for _ in range(ncols)),
            [] if has_objects else None,
            tuple(StringColumn.empty() for _ in range(nscols)),
        )
    ts = np.concatenate([part[0] for part in parts])
    if not (ncols or nscols or has_objects):
        ts.sort(kind="stable")
        return ts, (), None, ()
    order = np.argsort(ts, kind="stable")
    cols = tuple(
        np.concatenate([part[1][c] for part in parts])[order]
        for c in range(ncols)
    )
    objs = None
    if has_objects:
        flat = [obj for part in parts for obj in part[2]]
        objs = [flat[i] for i in order.tolist()]
    scols = tuple(
        StringColumn.concat([part[3][c] for part in parts]).take(order)
        for c in range(nscols)
    )
    return ts[order], cols, objs, scols


class ColumnarImpatienceSorter:
    """Punctuation-driven sorter over numpy timestamp batches.

    API mirrors the scalar sorter with batch-shaped ingress/egress:
    ``insert_batch(array)``, ``on_punctuation(ts) -> ndarray``,
    ``flush() -> ndarray``.  Late events are dropped or adjusted per the
    late policy (RAISE raises on the first late element of a batch).

    With ``columns=k`` the sorter carries ``k`` parallel ``int64``
    payload columns: ``insert_batch(ts, cols)`` takes the column arrays,
    and ``on_punctuation``/``flush`` return ``(ts_sorted, cols_sorted)``
    tuples instead of a bare timestamp array.  ADJUST rewrites only the
    sort timestamps; payload columns pass through untouched (the row
    engine keeps the original event and re-sorts it at the watermark —
    callers wanting that semantic pass the original time as a payload
    column).

    With ``string_columns=m`` the sorter additionally carries ``m``
    parallel :class:`~repro.core.strings.StringColumn` payloads.  They
    ride punctuation cuts as contiguous arena-sharing slices (offset
    views, no byte copies) and the merge gathers them through the same
    ``argsort`` permutation; the return value grows a third element,
    ``(ts, cols, scols)``.

    ``memory_budget`` (bytes) bounds the resident buffer: cold sorted
    runs spill to files under ``spill_dir`` (a base path or a
    :class:`~repro.sorting.external.SpillDirectory`);
    :meth:`attach_injector` hooks spill I/O faults.  Output is
    byte-identical at any budget.  Call :meth:`close` to release spill
    files.

    ``stats.runs_created`` counts admitted batches (each is kept as one
    sorted run) and ``stats.binary_searches`` the resident chunks a
    punctuation cut had to split with a binary search.
    """

    def __init__(self, late_policy=LatePolicy.DROP, columns=0,
                 string_columns=0, memory_budget=None, spill_dir=None):
        # Imported here: repro.sorting imports this module.
        from repro.sorting.external import ExternalRunPool

        self.stats = SorterStats()
        self.late = LateEventTracker(late_policy)
        self.columns = int(columns)
        self.string_columns = int(string_columns)
        self.pool = ExternalRunPool(
            memory_budget, columns=self.columns, spill_dir=spill_dir,
            string_columns=self.string_columns,
        )
        self._watermark = _NEG_INF
        self._has_watermark = False

    @property
    def run_count(self) -> int:
        """Number of live spilled runs (0 without a budget)."""
        return self.pool.run_count

    @property
    def buffered(self) -> int:
        """Events resident in memory (spilled ones excluded)."""
        return self.pool.buffered_rows

    @property
    def watermark(self):
        """Timestamp of the last punctuation, or ``-inf`` before the first."""
        return self._watermark

    @property
    def memory_budget(self):
        """The resident-buffer budget in bytes, or ``None``."""
        return self.pool.budget

    def attach_injector(self, injector):
        self.pool.injector = injector

    def spill_doc(self):
        return self.pool.metrics.as_dict()

    def insert_batch(self, values, columns=(), string_columns=(),
                     combine=None):
        """Ingest one arrival-order batch of timestamps (+ columns);
        returns how many the late policy admitted, which ``combine``
        may fold into fewer rows (:func:`admit_batch`)."""
        arr, cols, scols, admitted = admit_batch(
            self, values, columns, string_columns, combine
        )
        if arr.size:
            self.pool.insert_sorted(arr, cols, scols=scols)
            self.stats.inserted += int(arr.size)
            self.stats.runs_created += 1
            self.stats.note_buffered()
        return admitted

    def on_punctuation(self, timestamp):
        """Cut and return every buffered value <= ``timestamp``, sorted."""
        return self._shape(self.pool.concat(self.release(timestamp)))

    def flush(self):
        """Return everything still buffered, sorted (end-of-stream)."""
        return self._shape(self.pool.concat(self.release(None)))

    def release(self, timestamp):
        """Advance to punctuation ``timestamp`` (``None``: end of
        stream) and return what it releases as a stream of ascending,
        disjoint ``(ts, cols, objs, scols)`` steps
        (:meth:`~repro.sorting.external.ExternalRunPool.steps`), whose
        concatenation :meth:`on_punctuation` and :meth:`flush` return.
        Drain it before the next call."""
        if timestamp is not None:
            if self._has_watermark and timestamp < self._watermark:
                raise PunctuationOrderError(timestamp, self._watermark)
            self._watermark = timestamp
            self._has_watermark = True
        return self._counted(self.pool.steps(timestamp))

    def _counted(self, steps):
        emitted = 0
        for step in steps:
            emitted += int(step[0].size)
            yield step
            del step
        if emitted:
            self.stats.merges += 1
            self.stats.merge_events += emitted
        self.stats.emitted += emitted
        self.stats.binary_searches = self.pool.splits
        self.stats.sample_runs(self.pool.run_count)

    def _shape(self, cut):
        merged, cols, _, scols = cut
        if self.string_columns:
            return merged, cols, scols
        if self.columns:
            return merged, cols
        return merged

    def close(self):
        """Drop the buffer and release any spill files and directory."""
        self.pool.close()
