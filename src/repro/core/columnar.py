"""Columnar Impatience sort — the batched/vectorized extension.

Trill ingests columnar batches (§I-A); the natural evolution of
Impatience sort in that setting is to partition *run segments* instead of
single events.  Each incoming batch is a bounded reorder buffer: after
the late policy has seen it in arrival order it is stable-sorted once
(skipped when already ascending), and the resulting ascending batch is
dealt onto the sorted runs by the usual placement rule — the prefix that
fits the first run whose tail does not exceed the head lands there, the
rest cascades to earlier runs.  That is one Python-level bisect per
cascade step rather than one per descent in the input.  Runs are lists
of contiguous numpy chunks, so a punctuation cut pops whole chunks and
splits at most one per run via ``searchsorted``.

The head-run merge uses numpy's stable sort over the concatenated heads;
on a concatenation of sorted runs that is a C-speed adaptive merge.  The
emission at a punctuation is the stable sort by timestamp of the admitted
arrivals — an equal timestamp arriving later can only land on the same
or a higher-indexed run, and heads are concatenated run-major — so the
per-batch sort changes run structure only, never output bytes or tie
order.  Per-punctuation semantics are identical to
:class:`~repro.core.impatience.ImpatienceSorter` (equivalence is
property-tested); the run count never exceeds the scalar sorter's, so
the Propositions 3.1–3.3 bounds still hold.

``columns`` extends the sorter from bare timestamps to whole columnar
rows: payload columns ride along each timestamp through the batch sort,
segment placement, punctuation cuts, and the head merge (an ``argsort``
permutation instead of an in-place sort), so a shard worker can sort an
entire :class:`~repro.engine.batch.EventBatch` without ever
materializing per-event objects.  An already-ascending batch is placed
as views of the caller's arrays — no copies on the ingress path.
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


def admit_batch(sorter, values, columns, string_columns):
    """Validate, lateness-filter and stable-sort one arrival-order batch.

    The ingress half of ``insert_batch`` shared by both columnar sorters
    (``sorter`` supplies ``columns``, ``string_columns``, ``late`` and
    ``watermark``).  Returns the admitted rows as ascending
    ``(arr, cols, scols)`` — empty when nothing is admitted.  The late
    policy sees arrival order; only the survivors are reordered, through
    one stable argsort, so equal timestamps keep their arrival order.
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
        else:
            keep = ~late_mask
            arr = arr[keep]
            cols = tuple(col[keep] for col in cols)
            scols = tuple(col.filter(keep) for col in scols)
    if (arr[1:] < arr[:-1]).any():
        order = np.argsort(arr, kind="stable")
        arr = arr[order]
        cols = tuple(col[order] for col in cols)
        scols = tuple(col.take(order) for col in scols)
    return arr, cols, scols


def merge_sorted_parts(parts, ncols, nscols, has_objects=False):
    """Stable-merge sorted ``(ts, cols, objs, scols)`` parts into one.

    The merge both columnar sorters share: one concatenation, one stable
    ``argsort`` (a C-speed adaptive merge over a concatenation of sorted
    parts) and one gather per column — int64 columns, string columns and
    the optional per-row object list all ride the same permutation.  A
    stable sort breaks key ties by position in the concatenation, which
    is ``(part index, row)`` order, so earlier parts win ties.  A single
    part is returned as is (no copy); ``objs`` is ``None`` unless
    ``has_objects``.
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
    ride segment placement and punctuation cuts as contiguous
    arena-sharing slices (offset views, no byte copies) and the head
    merge gathers them through the same ``argsort`` permutation; the
    return value grows a third element, ``(ts, cols, scols)``.
    """

    def __init__(self, late_policy=LatePolicy.DROP, columns=0,
                 string_columns=0):
        if columns < 0:
            raise ValueError("columns must be >= 0")
        if string_columns < 0:
            raise ValueError("string_columns must be >= 0")
        self.stats = SorterStats()
        self.late = LateEventTracker(late_policy)
        self.columns = int(columns)
        self.string_columns = int(string_columns)
        self._chunks = []   # parallel to _tails: list of (ts, cols, scols)
        self._tails = []    # strictly descending run tails
        self._watermark = _NEG_INF
        self._has_watermark = False

    @property
    def run_count(self) -> int:
        """Number of live sorted runs."""
        return len(self._tails)

    @property
    def buffered(self) -> int:
        """Events currently buffered across all run chunks."""
        return sum(
            ts.size for chunks in self._chunks for ts, _, _ in chunks
        )

    @property
    def watermark(self):
        """Timestamp of the last punctuation, or ``-inf`` before the first."""
        return self._watermark

    def insert_batch(self, values, columns=(), string_columns=()):
        """Ingest one arrival-order batch of timestamps (+ columns)."""
        arr, cols, scols = admit_batch(self, values, columns, string_columns)
        if arr.size == 0:
            return 0
        self._place_segments(arr, cols, scols)
        self.stats.inserted += int(arr.size)
        self.stats.note_buffered()
        return int(arr.size)

    def _place_segments(self, arr, cols, scols=()):
        """Deal one ascending batch onto the runs, segment by segment.

        Placement is the exact chunk-wise equivalent of element-wise
        Patience dealing: the batch placed on run ``lo`` may only keep
        the prefix strictly below ``tails[lo-1]`` (further elements would
        have preferred an earlier run); the suffix cascades to a strictly
        earlier index, preserving the strictly-descending tails invariant
        and producing the same runs element dealing would.  One Python
        bisect per cascade step: at most ``run_count + 1`` per batch.
        """
        tails = self._tails
        chunks = self._chunks
        start, stop = 0, arr.size
        while start < stop:
            head = int(arr[start])
            lo, hi = 0, len(tails)
            while lo < hi:
                mid = (lo + hi) // 2
                if tails[mid] <= head:
                    hi = mid
                else:
                    lo = mid + 1
            self.stats.binary_searches += 1
            if lo == 0:
                split = stop
            else:
                bound = tails[lo - 1]
                split = start + int(np.searchsorted(
                    arr[start:stop], bound, side="left"
                ))
            placeable = (
                arr[start:split],
                tuple(col[start:split] for col in cols),
                tuple(col.slice(start, split) for col in scols),
            )
            if lo == len(tails):
                chunks.append([placeable])
                tails.append(int(arr[split - 1]))
                self.stats.runs_created += 1
            else:
                chunks[lo].append(placeable)
                tails[lo] = int(arr[split - 1])
            start = split

    def on_punctuation(self, timestamp):
        """Cut and return every buffered value <= ``timestamp``, sorted."""
        if self._has_watermark and timestamp < self._watermark:
            raise PunctuationOrderError(timestamp, self._watermark)
        self._watermark = timestamp
        self._has_watermark = True
        heads = []
        surviving_chunks = []
        surviving_tails = []
        removed = 0
        for run, tail in zip(self._chunks, self._tails):
            keep_from = 0
            for i, (ts, cols, scols) in enumerate(run):
                if int(ts[-1]) <= timestamp:
                    heads.append((ts, cols, scols))
                    keep_from = i + 1
                    continue
                split = int(np.searchsorted(ts, timestamp, side="right"))
                if split:
                    heads.append((
                        ts[:split],
                        tuple(col[:split] for col in cols),
                        tuple(col.slice(0, split) for col in scols),
                    ))
                    run[i] = (
                        ts[split:],
                        tuple(col[split:] for col in cols),
                        tuple(
                            col.slice(split, len(col)) for col in scols
                        ),
                    )
                keep_from = i
                break
            remaining = run[keep_from:] if keep_from else run
            if remaining:
                surviving_chunks.append(remaining)
                surviving_tails.append(tail)
            else:
                removed += 1
        self._chunks = surviving_chunks
        self._tails = surviving_tails
        if removed:
            self.stats.runs_removed += removed
        self.stats.sample_runs(len(self._tails))
        return self._merge(heads)

    def flush(self):
        """Return everything still buffered, sorted (end-of-stream)."""
        heads = [chunk for run in self._chunks for chunk in run]
        self._chunks = []
        self._tails = []
        self.stats.sample_runs(0)
        return self._merge(heads)

    def _merge(self, heads):
        merged, cols, _, scols = merge_sorted_parts(
            [(ts, cols, None, scols) for ts, cols, scols in heads],
            self.columns, self.string_columns,
        )
        if len(heads) > 1:
            self.stats.merges += 1
            self.stats.merge_events += int(merged.size)
        self.stats.emitted += int(merged.size)
        if self.string_columns:
            return merged, cols, scols
        if self.columns:
            return merged, cols
        return merged
