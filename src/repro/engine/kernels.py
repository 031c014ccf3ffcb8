"""Numpy kernel library shared by the columnar compiler and shard plans.

Trill's performance story (§I-A) is that *every* relational operator runs
as a tight loop over columnar batches; our reproduction grew vectorized
fragments twice (an ad-hoc columnar pipeline, the parallel runtime's
grouped count/sum executor) without a shared substrate.  This module is
that substrate:

* a **structured expression DSL** (:func:`field`, :func:`key_field`,
  :func:`sync_field`) whose predicates and selectors are *both* plain
  callables — so the row engine's ``Where``/``Sum`` consume them
  unchanged — and vectorizable column programs the compiler lowers onto
  whole numpy arrays.  A query written against the DSL is eligible for
  the fused columnar path; a query written with opaque lambdas falls
  back to the row engine (the compiler cannot introspect Python code).
* an **aggregate spec table** (:data:`AGGREGATE_SPECS`): each of
  ``count``/``sum``/``avg``/``min``/``max`` is one definition — lifted
  state columns, one ufunc per column and a result.  The ufunc's
  ``reduceat`` folds rows into groups and the same ufunc merges
  partial states, replicating the row aggregates' fold interface
  (``initial``/``accumulate``/``result``) batch-wise.  Folds are exact
  like the row aggregates' Python ints: a sum not bounded below 2**62
  whose float64 shadow reaches it is redone in ``dtype=object``.
* the **windowed kernel state machines**
  (:class:`GroupedWindowKernel`, :class:`WindowTopKKernel`) that
  replicate ``TumblingWindow -> (Grouped)WindowAggregate [-> WindowTopK]``
  byte-for-byte: the window-close rule (``end - 1 <= T``), the clamped
  forwarded punctuation (``min(T, min(open) - 1)``, suppressed unless it
  advances), emission in ascending (window, key) order, and the
  ADJUST-policy subtlety that a late event may re-open an
  already-emitted window.  The grouped kernel keeps its open windows as
  columns sorted by ``(start, key)``: a round costs one ``argsort`` of
  an int64 composite key and one ``reduceat`` per state column, a close
  one ``searchsorted`` cut, and closed rows leave as columns that are
  boxed into ``Event`` objects in one pass.

The single-process compiler (:mod:`repro.engine.compiler`) builds on
these kernels, and the parallel ``CompiledShardPlan``
(:mod:`repro.parallel.plans`) runs the same compiled pipeline inside
every shard worker, so an aggregate added here is inherited by every
vectorized path at once.
"""

from __future__ import annotations

import operator as _op
from collections import deque
from time import perf_counter

import numpy as np

from repro.core.columnar import stable_order
from repro.engine.event import Event

__all__ = [
    "Expr",
    "Predicate",
    "field",
    "key_field",
    "sync_field",
    "key_str_eq",
    "key_str_prefix",
    "field_str_eq",
    "field_str_prefix",
    "AggregateSpec",
    "AGGREGATE_SPECS",
    "GroupedWindowKernel",
    "WindowTopKKernel",
    "TerminalKernel",
    "DistinctKernel",
    "SessionKernel",
    "CoalesceKernel",
    "SelfJoinKernel",
    "PatternKernel",
    "GroupApplyKernel",
    "WindowAggregateKernel",
    "RawTopKKernel",
]

_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Structured expressions: one object, two evaluators.
# ---------------------------------------------------------------------------

_ARITH = {
    "%": _op.mod,
    "//": _op.floordiv,
    "+": _op.add,
    "-": _op.sub,
    "*": _op.mul,
}

_COMPARE = {
    "==": _op.eq,
    "!=": _op.ne,
    "<": _op.lt,
    "<=": _op.le,
    ">": _op.gt,
    ">=": _op.ge,
}


def _wrap(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (str, bytes)):
        raise TypeError(
            f"string constant {value!r} cannot appear directly in an "
            f"expression: the columnar engines compare int64 dictionary "
            f"codes, not bytes.  Encode the query side with a "
            f"StringDictionary and use key_str_eq / key_str_prefix / "
            f"field_str_eq / field_str_prefix (repro.engine.kernels)."
        )
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(
            f"expression operands must be int constants or expressions, "
            f"got {value!r}"
        )
    return _Const(value)


class Expr:
    """A structured scalar expression over one event.

    The row engine evaluates it per event (``_scalar``); the columnar
    compiler evaluates it once per batch over whole columns
    (``_vector``).  Arithmetic with int constants builds derived
    expressions; comparisons build :class:`Predicate` objects.
    """

    __hash__ = object.__hash__

    def _scalar(self, event):
        raise NotImplementedError

    def _vector(self, sync, keys, payload):
        raise NotImplementedError

    # -- arithmetic ------------------------------------------------------

    def __mod__(self, other):
        return _BinOp("%", self, _wrap(other))

    def __floordiv__(self, other):
        return _BinOp("//", self, _wrap(other))

    def __add__(self, other):
        return _BinOp("+", self, _wrap(other))

    def __radd__(self, other):
        return _BinOp("+", _wrap(other), self)

    def __sub__(self, other):
        return _BinOp("-", self, _wrap(other))

    def __rsub__(self, other):
        return _BinOp("-", _wrap(other), self)

    def __mul__(self, other):
        return _BinOp("*", self, _wrap(other))

    def __rmul__(self, other):
        return _BinOp("*", _wrap(other), self)

    # -- comparisons -> predicates --------------------------------------

    def __eq__(self, other):
        return _Compare("==", self, _wrap(other))

    def __ne__(self, other):
        return _Compare("!=", self, _wrap(other))

    def __lt__(self, other):
        return _Compare("<", self, _wrap(other))

    def __le__(self, other):
        return _Compare("<=", self, _wrap(other))

    def __gt__(self, other):
        return _Compare(">", self, _wrap(other))

    def __ge__(self, other):
        return _Compare(">=", self, _wrap(other))


class _Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def _scalar(self, event):
        return self.value

    def _vector(self, sync, keys, payload):
        return self.value

    def __repr__(self):
        return repr(self.value)


class _PayloadField(Expr):
    """Payload column reference; also a row-engine payload *selector*."""

    __slots__ = ("index",)

    def __init__(self, index):
        if index < 0:
            raise ValueError("payload field index must be >= 0")
        self.index = index

    def __call__(self, payload):
        # Aggregate-selector protocol: ``Sum(field(i))`` on the row path.
        return payload[self.index]

    def _scalar(self, event):
        return event.payload[self.index]

    def _vector(self, sync, keys, payload):
        return payload[self.index]

    def __repr__(self):
        return f"field({self.index})"


class _KeyField(Expr):
    """Grouping-key reference; also a row-engine ``key_fn``."""

    __slots__ = ()

    def __call__(self, event):
        return event.key

    def _scalar(self, event):
        return event.key

    def _vector(self, sync, keys, payload):
        return keys

    def __repr__(self):
        return "key()"


class _SyncField(Expr):
    __slots__ = ()

    def __call__(self, event):
        return event.sync_time

    def _scalar(self, event):
        return event.sync_time

    def _vector(self, sync, keys, payload):
        return sync

    def __repr__(self):
        return "sync()"


class _BinOp(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def _scalar(self, event):
        return _ARITH[self.op](self.lhs._scalar(event), self.rhs._scalar(event))

    def _vector(self, sync, keys, payload):
        return _ARITH[self.op](
            self.lhs._vector(sync, keys, payload),
            self.rhs._vector(sync, keys, payload),
        )

    def __repr__(self):
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class Predicate:
    """A boolean expression; callable on an event, maskable on columns.

    The row engine's ``Where`` calls it per event; the compiler calls
    :meth:`mask` once per batch.  Combine with ``&``, ``|``, ``~``.
    """

    __hash__ = object.__hash__

    def __call__(self, event):
        return bool(self._scalar(event))

    def _scalar(self, event):
        raise NotImplementedError

    def _vector(self, sync, keys, payload):
        raise NotImplementedError

    def mask(self, sync, keys, payload):
        """Vectorized evaluation -> boolean selection bitmap."""
        return np.asarray(
            self._vector(sync, keys, payload), dtype=bool
        )

    def __and__(self, other):
        return _BoolOp("&", self, other)

    def __or__(self, other):
        return _BoolOp("|", self, other)

    def __invert__(self):
        return _Not(self)


class _Compare(Predicate):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def _scalar(self, event):
        return _COMPARE[self.op](
            self.lhs._scalar(event), self.rhs._scalar(event)
        )

    def _vector(self, sync, keys, payload):
        return _COMPARE[self.op](
            self.lhs._vector(sync, keys, payload),
            self.rhs._vector(sync, keys, payload),
        )

    def __repr__(self):
        return f"{self.lhs!r} {self.op} {self.rhs!r}"


class _BoolOp(Predicate):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        if not isinstance(lhs, Predicate) or not isinstance(rhs, Predicate):
            raise TypeError("&/| combine predicates, not raw expressions")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def _scalar(self, event):
        left = self.lhs._scalar(event)
        right = self.rhs._scalar(event)
        return (left and right) if self.op == "&" else (left or right)

    def _vector(self, sync, keys, payload):
        left = self.lhs.mask(sync, keys, payload)
        right = self.rhs.mask(sync, keys, payload)
        return (left & right) if self.op == "&" else (left | right)

    def __repr__(self):
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class _Not(Predicate):
    __slots__ = ("inner",)

    def __init__(self, inner):
        if not isinstance(inner, Predicate):
            raise TypeError("~ inverts a predicate, not a raw expression")
        self.inner = inner

    def _scalar(self, event):
        return not self.inner._scalar(event)

    def _vector(self, sync, keys, payload):
        return ~self.inner.mask(sync, keys, payload)

    def __repr__(self):
        return f"~({self.inner!r})"


def field(index) -> _PayloadField:
    """Reference payload column ``index`` (predicate term or selector)."""
    return _PayloadField(index)


def key_field() -> _KeyField:
    """Reference the event key (predicate term or grouping ``key_fn``)."""
    return _KeyField()


def sync_field() -> _SyncField:
    """Reference the event sync time (predicate term)."""
    return _SyncField()


# -- string predicates: lowered to dictionary-code comparisons ----------
#
# Order-preserving dictionary encoding (repro.core.strings) maps string
# equality to ONE int comparison and string prefix match to ONE code
# range test, so string where-clauses compile to the same fused int64
# masks as any other predicate — no per-row byte comparisons, and the
# row/compiled equivalence proof carries over unchanged.

def key_str_eq(dictionary, value) -> Predicate:
    """``key() == code(value)`` — string equality on a dictionary-coded
    key.  A value absent from the dictionary lowers to code ``-1``,
    which no row carries: the predicate matches nothing (no error)."""
    return key_field() == int(dictionary.code(value))


def key_str_prefix(dictionary, prefix) -> Predicate:
    """Prefix match on a dictionary-coded key as one code-range test.

    Order preservation turns ``startswith(prefix)`` into membership in
    the contiguous code range ``[lo, hi)``; an empty range (no value has
    the prefix) yields an always-false predicate for free."""
    lo, hi = dictionary.prefix_range(prefix)
    return (key_field() >= int(lo)) & (key_field() < int(hi))


def field_str_eq(index, dictionary, value) -> Predicate:
    """``field(index) == code(value)`` for dictionary-coded payloads."""
    return field(index) == int(dictionary.code(value))


def field_str_prefix(index, dictionary, prefix) -> Predicate:
    """Prefix match on a dictionary-coded payload column."""
    lo, hi = dictionary.prefix_range(prefix)
    return (field(index) >= int(lo)) & (field(index) < int(hi))


# ---------------------------------------------------------------------------
# Aggregate specs: vectorized folds with mergeable partial states.
# ---------------------------------------------------------------------------


_INT64_MAX = 2 ** 63 - 1
_EMPTY = np.empty(0, dtype=np.int64)

#: A float64 shadow sum below this magnitude proves the int64 sum exact:
#: its rounding error stays far below the 2**62 of headroom left.
_EXACT_LIMIT = 2.0 ** 62

#: The Python operation each fold ufunc applies to one pair of states.
_SCALAR = {np.add: _op.add, np.minimum: min, np.maximum: max}

#: Each fold ufunc's identity on int64, an empty grid cell's start.
_IDENTITY = {np.add: 0, np.minimum: _INT64_MAX, np.maximum: -_INT64_MAX - 1}


def _bounded(column):
    """Whether no sum of ``column``'s int64 values reaches 2**62 in
    magnitude (largest magnitude times rows, on Python ints)."""
    return not column.size or 2 ** 62 > column.size * max(
        -int(column.min()), int(column.max()))


def _narrow(column):
    """An object state column back as int64 once every value fits."""
    if column.dtype == object:
        try:
            return column.astype(np.int64)
        except OverflowError:
            pass
    return column


class AggregateSpec:
    """One windowed aggregate as a columnar fold.

    ``lift`` turns released rows into state columns, and ``ufuncs``
    holds one associative, commutative ufunc per column.  The ufunc
    folds rows into groups and merges partial states alike, so
    :meth:`fold` (``reduceat`` over sorted groups) and :meth:`merge`
    (one pair of states) are the same definition.  ``results``
    finalizes whole state columns into output payloads, matching the row
    aggregate's ``result`` exactly (ints for count/sum/min/max, a Python
    float for avg).

    The row aggregates add in Python ints, so folds are exact: an int64
    sum that :func:`_bounded` cannot prove exact and whose float64
    shadow reaches 2**62 is redone in ``dtype=object``, and its state
    column stays object until every value fits int64 again.

    ``counted`` indexes the state column that counts rows, if one does:
    a partial row's weight, the events it stands for.
    """

    name = None
    needs_value = False
    ufuncs = ()
    counted = None

    def lift(self, values, n):
        """State columns for ``n`` released rows (``values`` or None)."""
        raise NotImplementedError

    def fold(self, columns, heads):
        """Reduce sorted state columns over the groups opening at
        ``heads``; exact on ints."""
        out = []
        for ufunc, column in zip(self.ufuncs, columns):
            folded = ufunc.reduceat(column, heads)
            if ufunc is np.add and column.dtype != object \
                    and not _bounded(column):
                shadow = np.add.reduceat(column.astype(np.float64), heads)
                if np.abs(shadow).max() >= _EXACT_LIMIT:
                    folded = _narrow(
                        np.add.reduceat(column.astype(object), heads)
                    )
            out.append(folded)
        return tuple(out)

    def combine(self, cells, size, columns):
        """Fold lifted int64 state ``columns`` into a dense grid of
        ``size`` cells, row ``i`` into ``cells[i]``: ``(occupied cells
        ascending, their row counts, folded state)``, or ``None`` when a
        sum cannot be proven exact in int64."""
        if any(ufunc is np.add and index != self.counted
               and not _bounded(column)
               for index, (ufunc, column)
               in enumerate(zip(self.ufuncs, columns))):
            return None
        counts = np.bincount(cells, minlength=size)
        occupied = np.flatnonzero(counts)
        weights = counts[occupied]
        state = []
        for index, (ufunc, column) in enumerate(zip(self.ufuncs, columns)):
            if index == self.counted:
                state.append(weights)
                continue
            grid = np.full(size, _IDENTITY[ufunc], dtype=np.int64)
            ufunc.at(grid, cells, column)
            state.append(grid[occupied])
        return occupied, weights, tuple(state)

    def merge(self, state, other):
        """Combine two states of one group (tuples of Python values)."""
        return tuple(
            _SCALAR[ufunc](a, b)
            for ufunc, a, b in zip(self.ufuncs, state, other)
        )

    def results(self, columns):
        """Every state row's output payload, as a list."""
        return columns[0].tolist()


class _CountSpec(AggregateSpec):
    name = "count"
    ufuncs = (np.add,)
    counted = 0

    def lift(self, values, n):
        return (np.ones(n, dtype=np.int64),)


class _ValueSpec(AggregateSpec):
    needs_value = True

    def lift(self, values, n):
        return (values,)


class _SumSpec(_ValueSpec):
    name = "sum"
    ufuncs = (np.add,)


class _MinSpec(_ValueSpec):
    name = "min"
    ufuncs = (np.minimum,)


class _MaxSpec(_ValueSpec):
    name = "max"
    ufuncs = (np.maximum,)


class _AvgSpec(AggregateSpec):
    name = "avg"
    needs_value = True
    ufuncs = (np.add, np.add)
    counted = 1

    def lift(self, values, n):
        return (values, np.ones(n, dtype=np.int64))

    def results(self, columns):
        totals, counts = columns
        return list(map(_op.truediv, totals.tolist(), counts.tolist()))


#: Vectorizable aggregates by name, resolved by the compiler and the
#: session kernel.
AGGREGATE_SPECS = {
    spec.name: spec
    for spec in (_CountSpec(), _SumSpec(), _MinSpec(), _MaxSpec(), _AvgSpec())
}


# ---------------------------------------------------------------------------
# Windowed kernel state machines.
# ---------------------------------------------------------------------------


class _WindowedKernelBase:
    """Shared close/forward discipline of ``_WindowedBase`` on kernels.

    A window ``[start, start + window)`` closes when
    ``start + window - 1 <= T``; the forwarded punctuation is clamped
    below the earliest still-open window and suppressed unless it
    advances the output watermark.
    """

    def __init__(self, window):
        if window < 1:
            raise ValueError("window size must be >= 1")
        self.window = window
        self.out_watermark = _NEG_INF

    def _earliest(self):
        """Start of the earliest open window, or ``None``."""
        raise NotImplementedError

    def forward(self, bound):
        """Clamped output punctuation for input promise ``bound``.

        Returns the timestamp to forward downstream, or ``None`` when
        the promise would not advance the output watermark (the row
        operators' suppression rule).
        """
        earliest = self._earliest()
        if earliest is not None:
            bound = min(bound, earliest - 1)
        if bound > self.out_watermark:
            self.out_watermark = bound
            return bound
        return None


def _cut(ascending, bound):
    """How many values of ``ascending`` are ``<= bound`` (any int)."""
    if not ascending.size or bound < int(ascending[0]):
        return 0
    if bound >= int(ascending[-1]):
        return int(ascending.size)
    return int(np.searchsorted(ascending, bound, side="right"))


def _composite(major, minor):
    """One int64 key ascending with ``(major, minor)``, or ``None``
    when it would not fit int64: major offset times minor span plus
    minor offset."""
    low, high = int(major.min()), int(major.max())
    minor_low = int(minor.min())
    span = int(minor.max()) - minor_low + 1
    # ``span`` itself must fit too: numpy cannot multiply by 2**63.
    if span <= _INT64_MAX and (high - low + 1) * span - 1 <= _INT64_MAX:
        return (major - low) * span + (minor - minor_low)
    return None


def _group_runs(starts, keys):
    """Sort rows by ``(start, key)``: ``(order, heads)``, ``heads``
    indexing the first sorted row of every group.

    The sort key is one int64 :func:`_composite` under an unstable
    ``argsort`` (every fold is commutative, so ties may land in any
    order); ``lexsort`` only when the composite would not fit int64.
    """
    composite = _composite(starts, keys)
    if composite is not None:
        order = composite.argsort()
        ordered = composite[order]
        change = ordered[1:] != ordered[:-1]
    else:
        order = np.lexsort((keys, starts))
        ordered_starts, ordered_keys = starts[order], keys[order]
        change = ordered_starts[1:] != ordered_starts[:-1]
        change |= ordered_keys[1:] != ordered_keys[:-1]
    heads = np.flatnonzero(change)
    heads += 1
    return order, np.concatenate(([0], heads))


def _key_order(keys):
    """``(order, ordered)``: a stable ``argsort`` of int64 ``keys`` and
    the keys in that order.  Below a 2**16 key span both are of their
    16-bit offsets, which numpy radix sorts (the same order); wider
    spans take :func:`~repro.core.columnar.stable_order`."""
    low = int(keys.min())
    if int(keys.max()) - low >= 2 ** 16:
        return stable_order(keys)
    keys = (keys - low).astype(np.uint16)
    order = keys.argsort(kind="stable")
    return order, keys[order]


class GroupedWindowKernel(_WindowedKernelBase):
    """Vectorized ``(Grouped)WindowAggregate`` over window-aligned rows.

    Open windows live as parallel arrays sorted by ``(start, key)``:
    ``starts``, ``keys`` and the spec's ``state`` columns.  ``merge``
    concatenates them with one released batch's partial rows (``starts``
    already floored to window starts, in any order — ADJUST may re-open
    an emitted window), sorts once and folds each state column with one
    ``reduceat``; ``accumulate`` lifts raw values into such rows
    first.  ``close`` is one
    ``searchsorted`` cut returning the due rows as columns, ascending by
    start then key — exactly the row operators' emission order.  With
    ``grouped=False`` (or ``keys=None``) every row folds into group key
    ``0``, replicating the ungrouped ``WindowAggregate``.
    """

    def __init__(self, window, spec, grouped=True):
        super().__init__(window)
        self.spec = spec
        self.grouped = grouped
        self.starts = _EMPTY
        self.keys = _EMPTY
        self.state = tuple(_EMPTY for _ in spec.ufuncs)

    def _earliest(self):
        return int(self.starts[0]) if self.starts.size else None

    def accumulate(self, starts, keys=None, values=None):
        self.merge(starts, keys, self.spec.lift(values, starts.size))

    def merge(self, starts, keys, state):
        """Fold partial rows: ``state`` holds the spec's state columns."""
        n = starts.size
        if n == 0:
            return
        if not self.grouped or keys is None:
            keys = np.zeros(n, dtype=np.int64)
        if self.starts.size:
            starts = np.concatenate((self.starts, starts))
            keys = np.concatenate((self.keys, keys))
            state = [
                np.concatenate(pair) for pair in zip(self.state, state)
            ]
        order, heads = _group_runs(starts, keys)
        firsts = order[heads]
        self.starts = starts[firsts]
        self.keys = keys[firsts]
        self.state = self.spec.fold(
            [column[order] for column in state], heads
        )

    def close(self, up_to):
        """Pop windows due at ``up_to`` (all when ``None``) and return
        their rows as ``(starts, keys, results)`` in emission order."""
        cut = (
            self.starts.size if up_to is None
            else _cut(self.starts, up_to - self.window + 1)
        )
        if not cut:
            return _EMPTY, _EMPTY, []
        starts, self.starts = self.starts[:cut], self.starts[cut:]
        keys, self.keys = self.keys[:cut], self.keys[cut:]
        state = tuple(column[:cut] for column in self.state)
        self.state = tuple(_narrow(column[cut:]) for column in self.state)
        return starts, keys, self.spec.results(state)

    def buffered(self) -> int:
        return int(self.starts.size)


class WindowTopKKernel(_WindowedKernelBase):
    """Replicates ``WindowTopK`` over ``(start, key, value)`` rows.

    Consumes the grouped kernel's closed rows (arriving in ascending key
    order per window, which fixes tie resolution identically to the row
    operator's stable sort) and keeps a running top-k selection per
    window with the same ``4k`` trim rule.
    """

    def __init__(self, window, k):
        super().__init__(window)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.windows = {}

    def _earliest(self):
        return min(self.windows) if self.windows else None

    def extend(self, starts, keys, values):
        """Add closed ``(starts, keys, results)`` rows."""
        windows = self.windows
        trim = 4 * self.k
        for start, key, value in zip(starts.tolist(), keys.tolist(), values):
            rows = windows.get(start)
            if rows is None:
                rows = windows[start] = []
            rows.append((key, value))
            if len(rows) > trim:
                rows.sort(key=_row_value, reverse=True)
                del rows[self.k:]

    def close(self, up_to):
        """Pop due windows; return their top-k rows as ``(starts, keys,
        values)``, score-descending with ties in insertion (key) order."""
        window = self.window
        due = sorted(
            start for start in self.windows
            if up_to is None or start + window - 1 <= up_to
        )
        starts, keys, values = [], [], []
        for start in due:
            rows = self.windows.pop(start)
            rows.sort(key=_row_value, reverse=True)
            for key, value in rows[: self.k]:
                starts.append(start)
                keys.append(key)
                values.append(value)
        return (
            np.array(starts, dtype=np.int64),
            np.array(keys, dtype=np.int64),
            values,
        )

    def buffered(self) -> int:
        return sum(len(rows) for rows in self.windows.values())


def _row_value(row):
    return row[1]


def _events(starts, keys, values, reach, lasts=None):
    """Box closed rows into ``Event(start, last + reach, key, value)`` in
    one lazy pass (``lasts`` defaults to ``starts``: a window of
    ``reach``); ends are Python ints if int64 would wrap."""
    lasts = starts if lasts is None else lasts
    if lasts.size and int(lasts.max()) > _INT64_MAX - reach:
        ends = [last + reach for last in lasts.tolist()]
    else:
        ends = (lasts + reach).tolist()
    return map(Event, starts.tolist(), ends, keys.tolist(), values)


# ---------------------------------------------------------------------------
# Pass-through terminal kernels.
#
# Each replicates one row operator byte-for-byte over the columnar
# sorter's released rounds.  The compiler carries the *full* column
# layout to these terminals — ``(sync, other, key, payload columns…)``
# all int64, with the sorter's (possibly ADJUST-rewritten) sort values
# kept separate — so the terminal sees exactly the event fields the row
# operator would, in exactly the order the row sorter would emit them
# (the sorters share one total tie order: effective key, arrival).
# ---------------------------------------------------------------------------


def _rows(sync, other, keys, cols):
    """Per-row python scalars for a released round (zip of .tolist())."""
    payloads = (
        list(zip(*(col.tolist() for col in cols))) if cols
        else [()] * sync.size
    )
    return zip(sync.tolist(), other.tolist(), keys.tolist(), payloads)


class TerminalKernel:
    """A post-sort terminal consuming released rounds.

    ``ingest`` scans one released round's rows in emission order and
    returns immediately-emitted events as a list; ``punctuate``/``flush``
    advance operator state and return ``(events, punctuations)`` — the
    exact elements (and order) the row operator would emit for the same
    punctuation or flush signal.  Their ``events`` may be a lazy
    iterable, consumed once: closed rows then box outside the kernel.

    ``reads`` names the columns ``ingest`` reads — ``None`` for the full
    ``(sync, other, key, payload…)`` row, else payload indices plus
    ``"key"``; unread arguments arrive as ``None``.  ``wire`` is how the
    output rides a shard exchange: one int64 (``"int"``) or float64
    (``"float"``) value column, one int64 column per payload field
    (``"tuple"``), or pickled rows (``"pickle"``).
    """

    name = None
    reads = None
    wire = "pickle"

    def ingest(self, sync, other, keys, cols):
        raise NotImplementedError

    def punctuate(self, timestamp):
        return [], []

    def flush(self):
        return [], []

    def buffered(self) -> int:
        return 0

    def describe(self):
        return self.name

    def entries(self):
        """``(snapshot name, EXPLAIN label)`` per row operator reported."""
        return [(self.name, self.describe())]

    def note(self, metrics, n_in, n_out, punctuated, forwarded, seconds):
        """Record one executor round in ``metrics``, one per entry."""
        metric = metrics[0]
        metric.note_batch(n_in, n_out, seconds)
        if punctuated:
            metric.note_punct(forwarded)
        metric.peak = max(metric.peak, self.buffered() + n_out)


class DistinctKernel(TerminalKernel):
    """``DistinctWindow``: first event per (window start, selector value).

    Candidate first-occurrences within a round come from one
    ``np.unique`` over the stacked ``(start, value…)`` rows; the
    persistent per-start seen-sets then decide which candidates survive
    across rounds.  Emission order is row-scan order (the sorted round),
    matching the row operator exactly.
    """

    name = "distinct"
    wire = "tuple"

    def __init__(self, selector_index=None):
        self.selector_index = selector_index
        self._seen = {}  # start -> (end, set of values)

    def ingest(self, sync, other, keys, cols):
        if sync.size == 0:
            return []
        if self.selector_index is None:
            value_cols = cols
        else:
            value_cols = (cols[self.selector_index],)
        if value_cols:
            stacked = np.column_stack((sync, *value_cols))
        else:
            stacked = sync.reshape(-1, 1)
        _, first_idx = np.unique(stacked, axis=0, return_index=True)
        first_idx.sort()
        out = []
        seen = self._seen
        for i in first_idx.tolist():
            start = int(sync[i])
            entry = seen.get(start)
            if entry is None:
                entry = seen[start] = (int(other[i]), set())
            if self.selector_index is None:
                value = tuple(int(col[i]) for col in cols)
            else:
                value = int(cols[self.selector_index][i])
            if value not in entry[1]:
                entry[1].add(value)
                out.append(Event(
                    start, int(other[i]), int(keys[i]),
                    tuple(int(col[i]) for col in cols),
                ))
        return out

    def punctuate(self, timestamp):
        seen = self._seen
        dead = [
            start for start, (end, _) in seen.items()
            if end - 1 <= timestamp
        ]
        for start in dead:
            del seen[start]
        return [], [timestamp]

    def flush(self):
        self._seen.clear()
        return [], []

    def buffered(self) -> int:
        return sum(len(values) for _, values in self._seen.values())


class _ReleaseKernel(TerminalKernel):
    """Shared start-ordered release discipline of SessionWindow/Coalesce.

    Open groups stay in ``_open`` (key -> ``[start, last, *state]``), in
    the row operator's dict order; one is due at promise ``T`` once
    ``last + _slack <= T``.  Closed groups are rows of ``(start, seq,
    last, key, *state)`` columns, closed in *parts* (a round's worth at
    a time) and held in ``_store`` sorted on ``(start, seq)``, a total
    order.  ``_release`` sorts new parts in with one ``argsort``, cuts
    at the clamp bound (min of the promise and one below the earliest
    open start) with one ``searchsorted``, boxes the cut lazily as
    ``Event(start, last + _reach, key, payload)`` and forwards the bound
    only when it advances the output watermark.
    """

    _reach = 0
    _slack = 0

    def __init__(self, spec=AGGREGATE_SPECS["count"]):
        self._spec = spec
        self._open = {}
        self._parts = []    # closed since the last release, any order
        self._store = [_EMPTY] * (4 + len(spec.ufuncs))
        self._seq = 0
        self._out_watermark = _NEG_INF

    def _close(self, rows):
        """Close ``(start, seq, last, key, *state)`` rows as one part
        (a column of ints that would wrap int64 stays object)."""
        part = []
        for column in zip(*rows):
            try:
                part.append(np.array(column, dtype=np.int64))
            except OverflowError:
                part.append(np.array(column, dtype=object))
        if part:
            self._parts.append(part)

    def _retire_open(self, keys):
        """Close the open groups of ``keys``, in that order."""
        groups = map(self._open.pop, keys)
        self._close([
            (group[0], self._seq + i, group[1], key, *group[2:])
            for i, (key, group) in enumerate(zip(keys, groups))
        ])
        self._seq += len(keys)

    def punctuate(self, timestamp):
        due = timestamp - self._slack
        self._retire_open([
            key for key, group in self._open.items() if group[1] <= due
        ])
        return self._release(timestamp)

    def flush(self):
        self._retire_open(list(self._open))
        return self._release(float("inf"))

    def _release(self, timestamp):
        open_floor = min(
            (group[0] for group in self._open.values()), default=None
        )
        bound = timestamp if open_floor is None else min(
            timestamp, open_floor - 1
        )
        store = self._store
        if self._parts:
            store = [np.concatenate(c) for c in zip(store, *self._parts)]
            composite = _composite(store[0], store[1])
            order = (
                composite.argsort() if composite is not None
                else np.lexsort((store[1], store[0]))
            )
            store = [column[order] for column in store]
            self._parts = []
        cut = _cut(store[0], bound)
        self._store = [column[cut:] for column in store]
        starts, _, lasts, keys, *state = (column[:cut] for column in store)
        puncts = []
        if bound != float("inf") and bound > self._out_watermark:
            self._out_watermark = bound
            puncts.append(bound)
        return _events(
            starts, keys, self._spec.results(state), self._reach, lasts
        ), puncts

    def buffered(self) -> int:
        closed = sum(part[0].size for part in self._parts)
        return len(self._open) + self._store[0].size + closed


class SessionKernel(_ReleaseKernel):
    """``SessionWindow``: per-key gap sessions over the sorted rounds.

    ``ingest`` orders a round by key (:func:`_key_order`, a radix sort
    on narrow key spans) and cuts it into *segments* — maximal stretches
    of one key's rows, in scan order, with every gap below the timeout
    — each folded by ``reduceat`` (:meth:`AggregateSpec.fold`, exact; a
    carried-in session merges through :meth:`AggregateSpec.merge`).
    Only a key's last segment stays open; every earlier one is retired
    by the row opening the next, so a round's closed sessions leave as
    one part of columns, unboxed until release.  Python steps once per
    *key* — continue or retire the session it carried in, store the one
    it carries out — in the scan order of the keys' first rows, the
    order the row operator opens them in: ``_open`` keeps its dict
    order and ``seq`` is the scan position of the retiring row, so ties
    between sessions with one start break as they do there.
    """

    name = "session_window"

    def __init__(self, timeout, fold="count", value_index=None):
        super().__init__(AGGREGATE_SPECS[fold])
        if timeout < 1:
            raise ValueError("timeout must be >= 1")
        self.timeout = self._reach = timeout
        self._slack = timeout - 1
        self.fold = fold
        self.value_index = value_index
        self.wire = "float" if fold == "avg" else "int"

    def ingest(self, sync, other, keys, cols):
        n = int(sync.size)
        if n == 0:
            return []
        timeout = self.timeout
        spec = self._spec
        order, k = _key_order(keys)
        t = sync[order]
        # A segment opens where the key changes or the gap to the key's
        # previous row reaches the timeout — the previous *row*, as in
        # the row operator, so ADJUST-ed rounds (times not ascending)
        # segment the same way.
        key_opens = np.empty(n, dtype=bool)
        key_opens[0] = True
        np.not_equal(k[1:], k[:-1], out=key_opens[1:])
        opens = key_opens.copy()
        opens[1:] |= (t[1:] - t[:-1]) >= timeout
        first = np.flatnonzero(opens)
        seg_start = t[first]
        seg_last = t[np.append(first[1:], n) - 1]
        seg_pos = order[first]          # scan position of the opening row
        folded = spec.fold(spec.lift(
            cols[self.value_index][order] if spec.needs_value else None, n
        ), first)
        heads = np.flatnonzero(key_opens[first])    # per key: first segment
        tails = np.append(heads[1:], first.size) - 1    # and last segment
        firsts = seg_pos[heads]     # scan position of each key's first row
        scan = np.argsort(firsts)
        heads, tails, firsts = heads[scan], tails[scan], firsts[scan]
        seq = self._seq
        self._seq += n
        open_ = self._open
        retired = []    # carried-in sessions, and heads that merged one
        # Every segment but a key's last is retired by the key's next one.
        closes = np.ones(first.size, dtype=bool)
        closes[tails] = False
        for key, head, tail, start, pos, tail_start, tail_last, head_state, \
                tail_state in zip(
                    keys[firsts].tolist(), heads.tolist(), tails.tolist(),
                    seg_start[heads].tolist(), firsts.tolist(),
                    seg_start[tails].tolist(), seg_last[tails].tolist(),
                    zip(*(column[heads].tolist() for column in folded)),
                    zip(*(column[tails].tolist() for column in folded)),
                ):
            session = open_.get(key)
            if session is not None:
                if start - session[1] < timeout:
                    state = spec.merge(session[2:], head_state)
                    if head == tail:
                        tail_start, tail_state = session[0], state
                    else:
                        closes[head] = False
                        retired.append((
                            session[0], seq + int(seg_pos[head + 1]),
                            int(seg_last[head]), key, *state,
                        ))
                else:
                    retired.append(
                        (session[0], seq + pos, session[1], key, *session[2:])
                    )
            open_[key] = [tail_start, tail_last, *tail_state]
        self._close(retired)
        inner = np.flatnonzero(closes)
        if inner.size:
            self._parts.append([
                seg_start[inner], seq + seg_pos[inner + 1], seg_last[inner],
                keys[seg_pos[inner]], *(column[inner] for column in folded),
            ])
        return []

    def describe(self):
        return f"session_window[{self.timeout},{self.fold}]"


class CoalesceKernel(_ReleaseKernel):
    """``Coalesce`` with the default count combiner (``combine=None``):
    ``ingest`` walks a round's rows, and the groups it closes leave as
    one part of columns."""

    name = "coalesce"
    wire = "int"

    def ingest(self, sync, other, keys, cols):
        open_ = self._open
        closed = []
        for t, o, key, _ in _rows(sync, other, keys, cols):
            group = open_.get(key)
            if group is not None:
                if t <= group[1]:
                    if o > group[1]:
                        group[1] = o
                    group[2] += 1
                    continue
                closed.append((group[0], self._seq, group[1], key, group[2]))
                self._seq += 1
            open_[key] = [t, o, 1]
        self._close(closed)
        return []


class SelfJoinKernel(TerminalKernel):
    """``self_join()``: the stream's temporal equi-join with itself.

    The row plan wires one ``TemporalJoin`` with both ports fed by the
    same sort node, port 0 before port 1.  Unrolling that delivery order
    for an arriving event ``e`` with buffered same-key partners
    ``p1, p2`` gives the emission sequence ``(e,p1), (e,p2)`` (port 0:
    event-left), then ``(p1,e), (p2,e), (e,e)`` (port 1: event-right —
    the self-pair comes last because port 0 already buffered ``e``).
    Between deliveries both sides hold identical state, so one state
    dict suffices; the same collapse applies to the two per-port
    punctuation deliveries (evict both sides, emit once if advancing).
    """

    name = "self_join"

    def __init__(self):
        self._state = {}  # key -> list of (sync, other, payload)
        self._watermark = _NEG_INF
        self._emitted_watermark = _NEG_INF

    def ingest(self, sync, other, keys, cols):
        state = self._state
        out = []
        for t, o, key, payload in _rows(sync, other, keys, cols):
            partners = state.get(key)
            if partners:
                for ps, po, pp in partners:
                    start = t if t > ps else ps
                    end = o if o < po else po
                    if start < end:
                        out.append(Event(start, end, key, (payload, pp)))
                for ps, po, pp in partners:
                    start = t if t > ps else ps
                    end = o if o < po else po
                    if start < end:
                        out.append(Event(start, end, key, (pp, payload)))
                if t < o:
                    out.append(Event(t, o, key, (payload, payload)))
                partners.append((t, o, payload))
            else:
                if t < o:
                    out.append(Event(t, o, key, (payload, payload)))
                state[key] = [(t, o, payload)]
        return out

    def punctuate(self, timestamp):
        if timestamp > self._watermark:
            self._watermark = timestamp
            state = self._state
            dead = []
            for key, partners in state.items():
                partners[:] = [
                    row for row in partners if row[1] > timestamp
                ]
                if not partners:
                    dead.append(key)
            for key in dead:
                del state[key]
        puncts = []
        if (
            self._watermark > self._emitted_watermark
            and self._watermark != _NEG_INF
        ):
            self._emitted_watermark = self._watermark
            puncts.append(self._watermark)
        return [], puncts

    def flush(self):
        self._state = {}
        return [], []

    def buffered(self) -> int:
        return sum(len(partners) for partners in self._state.values())


class PatternKernel(TerminalKernel):
    """``PatternMatch``: vectorized predicate masks + sparse deque scan.

    Both predicates evaluate once per round over whole columns; the
    scalar loop touches only rows where either mask fired (rows firing
    neither change no state in the row operator either).
    """

    name = "pattern_match"
    wire = "tuple"

    def __init__(self, first, second, within):
        if within < 1:
            raise ValueError("within must be >= 1")
        self.first = first
        self.second = second
        self.within = within
        self._pending = {}  # key -> deque of first-step sync_times

    def ingest(self, sync, other, keys, cols):
        if sync.size == 0:
            return []
        m1 = self.first.mask(sync, keys, cols)
        m2 = self.second.mask(sync, keys, cols)
        active = np.flatnonzero(m1 | m2)
        if active.size == 0:
            return []
        within = self.within
        pending_map = self._pending
        out = []
        sync_l = sync.tolist()
        other_l = other.tolist()
        keys_l = keys.tolist()
        for i in active.tolist():
            key = keys_l[i]
            now = sync_l[i]
            if m2[i]:
                pending = pending_map.get(key)
                if pending:
                    while pending and pending[0] <= now - within:
                        pending.popleft()
                    if pending:
                        end = other_l[i]
                        for first_sync in pending:
                            if first_sync < now:
                                out.append(Event(
                                    now, end, key, (first_sync, now)
                                ))
            if m1[i]:
                pending_map.setdefault(key, deque()).append(now)
        return out

    def punctuate(self, timestamp):
        horizon = timestamp - self.within
        dead = []
        for key, pending in self._pending.items():
            while pending and pending[0] <= horizon:
                pending.popleft()
            if not pending:
                dead.append(key)
        for key in dead:
            del self._pending[key]
        return [], [timestamp]

    def flush(self):
        # Nothing after the flush can complete a match.
        self._pending.clear()
        return [], []

    def buffered(self) -> int:
        return sum(len(pending) for pending in self._pending.values())

    def describe(self):
        return f"pattern_match[{self.first!r} -> {self.second!r}]"


class GroupApplyKernel(TerminalKernel):
    """``GroupApply`` over a traced straight-line body.

    The compiler traces the body's operator chain (structured ``where``
    stages, one window alignment, an optional aggregate terminal); this
    kernel then runs it vectorized: body stages are row-local column
    transforms applied to the whole round, and the aggregate folds via
    the shared :class:`GroupedWindowKernel` machinery.  What survives of
    the row operator's per-key sub-pipelines is the *emission tie
    order*: closed windows with equal starts emit in key-first-seen
    order (sub-pipelines materialize on a key's first raw event, before
    any body filtering), not key-ascending order — ``_ranks`` replays
    that by re-sorting the fold's closed columns on ``(start, rank)``.
    Stage-only bodies pass transformed rows through immediately.
    """

    name = "group_apply"

    def __init__(self, stages, window, spec=None, value_index=None):
        self.stages = tuple(stages)
        self.window = window
        self.spec = spec
        self.value_index = value_index
        self._ranks = {}  # raw key -> first-seen rank
        self._fold = (
            GroupedWindowKernel(window, spec) if spec is not None else None
        )
        self.wire = "tuple" if spec is None else (
            "float" if spec.name == "avg" else "int"
        )

    def _register(self, keys):
        ranks = self._ranks
        if keys.size == 0:
            return
        _, first_idx = np.unique(keys, return_index=True)
        first_idx.sort()
        for i in first_idx.tolist():
            key = int(keys[i])
            if key not in ranks:
                ranks[key] = len(ranks)

    def ingest(self, sync, other, keys, cols):
        # Sub-pipelines materialize on the raw (pre-body) event, so
        # first-seen ranks register before any body stage filters.
        self._register(keys)
        for stage in self.stages:
            sync, other, keys, cols = stage.apply(sync, other, keys, cols)
        if self._fold is None:
            return [Event(*row) for row in _rows(sync, other, keys, cols)]
        values = (
            cols[self.value_index]
            if self.spec.needs_value else None
        )
        self._fold.accumulate(sync, keys, values)
        return []

    def _close(self, bound):
        if self._fold is None:
            return []
        starts, keys, values = self._fold.close(bound)
        if not starts.size:
            return []
        ranks = np.fromiter(
            map(self._ranks.__getitem__, keys.tolist()), np.int64, keys.size
        )
        order = np.lexsort((ranks, starts))
        return list(_events(
            starts[order], keys[order],
            [values[i] for i in order.tolist()], self.window,
        ))

    def punctuate(self, timestamp):
        # GroupApply broadcasts the promise into each sub-pipeline
        # (where the body window aligns it) but forwards the *original*
        # punctuation downstream, unconditionally.
        bound = timestamp
        for stage in self.stages:
            bound = stage.transform_punct(bound)
        return self._close(bound), [timestamp]

    def flush(self):
        return self._close(None), []

    def buffered(self) -> int:
        return self._fold.buffered() if self._fold is not None else 0

    def describe(self):
        inner = [label for stage in self.stages for label in stage.labels()]
        if self.spec is not None:
            inner.append(f"aggregate[{self.spec.name}]")
        return f"group_apply[{' -> '.join(inner)}]"


#: A chunk folds when its dense (window, key) grid has at most this many
#: cells per row; a sparser grid costs more than the rows it saves.
_GRID_CELLS_PER_ROW = 2


class WindowAggregateKernel(TerminalKernel):
    """``(Grouped)WindowAggregate [-> WindowTopK]`` over aligned rows.

    ``name`` is the plan step: ``count``, ``aggregate`` or
    ``group_aggregate`` (the one that groups).  A round folds into a
    :class:`GroupedWindowKernel`, whose closed windows and clamped
    promise pass a chained :class:`WindowTopKKernel` when ``top_k`` is
    set, and leave as one lazy boxing pass.  The chain reports one
    snapshot entry per row operator, the fold and ``top_k``.

    It reads *partial rows* ``(sync, [key], *state, [weight])``: the
    weight (events stood for) is dropped where the spec's ``counted``
    column gives it.  :meth:`partials` lifts ingress rows at weight 1,
    :meth:`combine` folds them below the sort, and ``ingest`` merges
    released rows (``cols`` holds their state columns).
    """

    def __init__(self, name, window, spec, value_index=None, top_k=None,
                 hop=None):
        self.name = name
        self.window = window
        self.hop = window if hop is None else hop
        self.spec = spec
        self.value_index = value_index
        grouped = name == "group_aggregate"
        self.fold = GroupedWindowKernel(window, spec, grouped=grouped)
        self.topk = None if top_k is None else WindowTopKKernel(window, top_k)
        self.reads = frozenset(
            ({"key"} if grouped else set())
            | ({value_index} if spec.needs_value else set())
        )
        self.wire = "float" if spec.name == "avg" else "int"
        state_at = 1 + grouped
        #: Sorter column of a partial row's weight.
        self.weight_at = state_at + (
            len(spec.ufuncs) if spec.counted is None else spec.counted
        )
        self.width = state_at + len(spec.ufuncs) + (spec.counted is None)
        # The last round through top-k, for note: (rows the fold closed,
        # the fold's forwarded bound, seconds spent in top-k).
        self._round = None

    def partials(self, sync, keys, cols):
        """An aligned ingress chunk as partial rows of weight 1."""
        spec, n = self.spec, sync.size
        state = spec.lift(cols[self.value_index] if spec.needs_value
                          else None, n)
        weight = () if spec.counted is not None else (np.ones(n, np.int64),)
        return (sync, *((keys,) if self.fold.grouped else ()), *state,
                *weight)

    def combine(self, ts, columns):
        """One admitted chunk of weight-1 rows (``ts`` their aligned
        syncs) as one row per (sync, key), ascending: cell ``(sync -
        low) // hop * key_span + key - key_low`` of a dense grid.
        ``None`` (sort the rows) when the grid has over
        :data:`_GRID_CELLS_PER_ROW` cells per row or a sum may wrap."""
        low, high = int(ts.min()), int(ts.max())
        hop, span, keys = self.hop, 1, None
        if self.fold.grouped:
            keys = columns[1]
            key_low = int(keys.min())
            span = int(keys.max()) - key_low + 1
        size = ((high - low) // hop + 1) * span
        if size > _GRID_CELLS_PER_ROW * ts.size or high - low > _INT64_MAX:
            return None
        cells = (ts - low) // hop
        if keys is not None:
            cells *= span
            cells += keys - key_low
        state_at = 1 + (keys is not None)
        folded = self.spec.combine(
            cells, size, columns[state_at:state_at + len(self.spec.ufuncs)]
        )
        if folded is None:
            return None
        occupied, weights, state = folded
        if keys is not None:
            occupied, slots = np.divmod(occupied, span)
            keys = (slots + key_low,)
        sync = occupied * hop + low
        weight = (weights,) if self.spec.counted is None else ()
        return sync, (sync, *(keys or ()), *state, *weight)

    def ingest(self, sync, other, keys, cols):
        self.fold.merge(sync, keys, cols[:len(self.spec.ufuncs)])
        return []

    def punctuate(self, timestamp):
        return self._close(timestamp)

    def flush(self):
        return self._close(None)

    def _close(self, timestamp):
        rows = self.fold.close(timestamp)
        bound = None if timestamp is None else self.fold.forward(timestamp)
        topk = self.topk
        if topk is None:
            puncts = [] if bound is None else [bound]
            return _events(*rows, self.window), puncts
        t0 = perf_counter()
        topk.extend(*rows)
        out, forwarded = (_EMPTY, _EMPTY, []), None
        if timestamp is None:
            out = topk.close(None)
        elif bound is not None:
            out = topk.close(bound)
            forwarded = topk.forward(bound)
        self._round = (len(rows[2]), bound, perf_counter() - t0)
        puncts = [] if forwarded is None else [forwarded]
        return _events(*out, self.window), puncts

    def buffered(self) -> int:
        held = self.fold.buffered()
        return held if self.topk is None else held + self.topk.buffered()

    def entries(self):
        kind = "group_aggregate" if self.fold.grouped else "aggregate"
        entries = [(self.name, f"{kind}[{self.spec.name}]")]
        if self.topk is not None:
            entries.append(("top_k", f"top_k[{self.topk.k}]"))
        return entries

    def note(self, metrics, n_in, n_out, punctuated, forwarded, seconds):
        if self.topk is None:
            super().note(metrics, n_in, n_out, punctuated, forwarded, seconds)
            return
        closed, bound, topk_s = self._round
        fold, topk = metrics
        fold.note_batch(n_in, closed, seconds - topk_s)
        if punctuated:
            fold.note_punct(bound is not None)
        fold.peak = max(fold.peak, self.fold.buffered() + closed)
        topk.note_batch(closed, n_out, topk_s)
        if bound is not None:
            topk.note_punct(forwarded)
        topk.peak = max(topk.peak, self.topk.buffered() + n_out)


def _event_payload(event):
    return event.payload


class RawTopKKernel(TerminalKernel):
    """``WindowTopK`` directly over the sorted rows (``score_fn=None``).

    Scores are the raw payload tuples; ties resolve by insertion order
    under Python's stable descending sort, which is deterministic now
    that every sorter breaks equal-sync ties by arrival.
    """

    name = "top_k"
    wire = "tuple"

    def __init__(self, k):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.windows = {}  # start -> (end, best event list)
        self._out_watermark = _NEG_INF

    def ingest(self, sync, other, keys, cols):
        windows = self.windows
        k4 = 4 * self.k
        for t, o, key, payload in _rows(sync, other, keys, cols):
            entry = windows.get(t)
            if entry is None:
                best = []
                windows[t] = (o, best)
            else:
                best = entry[1]
            best.append(Event(t, o, key, payload))
            if len(best) > k4:
                best.sort(key=_event_payload, reverse=True)
                del best[self.k:]
        return []

    def _close(self, up_to):
        if not self.windows:
            return []
        due = sorted(
            start for start, (end, _) in self.windows.items()
            if up_to is None or end - 1 <= up_to
        )
        events = []
        for start in due:
            _, best = self.windows.pop(start)
            best.sort(key=_event_payload, reverse=True)
            events.extend(best[: self.k])
        return events

    def punctuate(self, timestamp):
        events = self._close(timestamp)
        bound = timestamp
        if self.windows:
            bound = min(bound, min(self.windows) - 1)
        puncts = []
        if bound > self._out_watermark:
            self._out_watermark = bound
            puncts.append(bound)
        return events, puncts

    def flush(self):
        return self._close(None), []

    def buffered(self) -> int:
        return sum(len(best) for _, best in self.windows.values())

    def describe(self):
        return f"top_k[{self.k}]"
