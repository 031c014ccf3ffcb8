"""Aggregate functions and windowed-aggregate operators.

The aggregate *functions* follow Trill's fold interface — ``initial``,
``accumulate``, ``result`` — and are composed with the windowed aggregate
*operators* that maintain one state per open window (or per window × group)
and emit on punctuation.  That per-window state, rather than buffered raw
events, is precisely the memory advantage the advanced Impatience framework
exploits (Section V-B).

Ordering contract: these operators are order-*sensitive* (they rely on
punctuations to close windows), so they are only reachable from a sorted
``Streamable`` — never from a ``DisorderedStreamable``.
"""

from __future__ import annotations

from repro.engine.event import Event, Punctuation
from repro.engine.operators.base import Operator

_NEG_INF = float("-inf")


def _mixed_key_order(key):
    """A sort key for group keys of mixed types: numbers by value
    first, then the rest by type name and ``repr``."""
    if isinstance(key, (int, float)):
        return (0, "", key, "")
    return (1, type(key).__name__, 0, repr(key))


__all__ = [
    "Aggregate",
    "Count",
    "Sum",
    "Avg",
    "Min",
    "Max",
    "WindowAggregate",
    "GroupedWindowAggregate",
    "WindowTopK",
]


class Aggregate:
    """Fold interface: subclass and override the three methods."""

    def initial(self):
        """Fresh accumulator state."""
        raise NotImplementedError

    def accumulate(self, state, event):
        """Fold one event into ``state``; returns the new state."""
        raise NotImplementedError

    def result(self, state):
        """Final payload value for a closed window."""
        return state


class Count(Aggregate):
    """Number of events in the window."""

    def initial(self):
        return 0

    def accumulate(self, state, event):
        return state + 1


class Sum(Aggregate):
    """Sum of ``selector(payload)`` over the window."""

    def __init__(self, selector=None):
        self.selector = selector

    def initial(self):
        return 0

    def accumulate(self, state, event):
        value = event.payload if self.selector is None else self.selector(event.payload)
        return state + value


class Avg(Aggregate):
    """Arithmetic mean of ``selector(payload)``; ``None`` on empty windows."""

    def __init__(self, selector=None):
        self.selector = selector

    def initial(self):
        return (0, 0)

    def accumulate(self, state, event):
        value = event.payload if self.selector is None else self.selector(event.payload)
        return (state[0] + value, state[1] + 1)

    def result(self, state):
        total, count = state
        return total / count if count else None


class Min(Aggregate):
    """Minimum of ``selector(payload)`` over the window."""

    def __init__(self, selector=None):
        self.selector = selector

    def initial(self):
        return None

    def accumulate(self, state, event):
        value = event.payload if self.selector is None else self.selector(event.payload)
        return value if state is None or value < state else state


class Max(Aggregate):
    """Maximum of ``selector(payload)`` over the window."""

    def __init__(self, selector=None):
        self.selector = selector

    def initial(self):
        return None

    def accumulate(self, state, event):
        value = event.payload if self.selector is None else self.selector(event.payload)
        return value if state is None or value > state else state


class _WindowedBase(Operator):
    """Shared close-on-punctuation logic for windowed operators.

    Windows are identified by the (sync_time, other_time) pair stamped by
    an upstream window operator.  A punctuation at ``T`` guarantees no more
    events with sync <= T; a window [w, end) can still receive events as
    long as some t > T maps into it, so it closes exactly when
    ``end - 1 <= T``.

    Forwarded punctuations are clamped below the earliest still-open
    window's start: that window will eventually emit at its start time,
    so promising anything at or beyond it would break the output
    contract (the discipline Coalesce/SessionWindow also follow).
    """

    def __init__(self):
        super().__init__()
        self._windows = {}  # window_start -> (window_end, state)
        self._out_watermark = _NEG_INF

    def on_punctuation(self, punctuation):
        self._close(punctuation.timestamp)
        bound = punctuation.timestamp
        if self._windows:
            bound = min(bound, min(self._windows) - 1)
        if bound > self._out_watermark:
            self._out_watermark = bound
            self.emit_punctuation(Punctuation(bound))

    def on_flush(self):
        self._close(None)
        self.emit_flush()

    def _close(self, up_to):
        if not self._windows:
            return
        due = sorted(
            start
            for start, (end, _) in self._windows.items()
            if up_to is None or end - 1 <= up_to
        )
        for start in due:
            end, state = self._windows.pop(start)
            self._emit_window(start, end, state)

    def _emit_window(self, start, end, state):
        raise NotImplementedError


class WindowAggregate(_WindowedBase):
    """One aggregate state per window; emits one result event per window."""

    def __init__(self, aggregate):
        super().__init__()
        self.aggregate = aggregate

    def on_event(self, event):
        start = event.sync_time
        entry = self._windows.get(start)
        if entry is None:
            state = self.aggregate.initial()
            end = event.other_time
        else:
            end, state = entry
        self._windows[start] = (end, self.aggregate.accumulate(state, event))

    def _emit_window(self, start, end, state):
        self.emit_event(Event(start, end, 0, self.aggregate.result(state)))

    def buffered_count(self) -> int:
        return len(self._windows)


class GroupedWindowAggregate(_WindowedBase):
    """Per-window, per-group states; emits one event per (window, group).

    This is the engine's GroupApply-with-aggregate: ``key_fn`` extracts the
    grouping key (default: the event's key field), and each closed window
    emits its groups in key order with the group key stamped on the output
    event — Q2/Q3 of the paper's framework evaluation.
    """

    def __init__(self, aggregate, key_fn=None):
        super().__init__()
        self.aggregate = aggregate
        self.key_fn = key_fn

    def on_event(self, event):
        start = event.sync_time
        key = event.key if self.key_fn is None else self.key_fn(event)
        entry = self._windows.get(start)
        if entry is None:
            groups = {}
            self._windows[start] = (event.other_time, groups)
        else:
            groups = entry[1]
        state = groups.get(key)
        if state is None:
            state = self.aggregate.initial()
        groups[key] = self.aggregate.accumulate(state, event)

    def _emit_window(self, start, end, groups):
        try:
            keys = sorted(groups)
        except TypeError:  # keys of types that do not compare
            keys = sorted(groups, key=_mixed_key_order)
        for key in keys:
            payload = self.aggregate.result(groups[key])
            self.emit_event(Event(start, end, key, payload))

    def buffered_count(self) -> int:
        return sum(len(groups) for _, groups in self._windows.values())


class WindowTopK(_WindowedBase):
    """Top-k events per window by ``score_fn`` (descending), ties by key.

    Consumes per-group result events (e.g. the output of
    :class:`GroupedWindowAggregate`) and re-emits only the k best per
    window — Q4 of the framework evaluation.  Keeps at most k states per
    window via a running selection.
    """

    def __init__(self, k, score_fn=None):
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.score_fn = score_fn

    def _score(self, event):
        return event.payload if self.score_fn is None else self.score_fn(event)

    def on_event(self, event):
        start = event.sync_time
        entry = self._windows.get(start)
        if entry is None:
            best = []
            self._windows[start] = (event.other_time, best)
        else:
            best = entry[1]
        best.append(event)
        if len(best) > 4 * self.k:
            best.sort(key=self._score, reverse=True)
            del best[self.k:]

    def _emit_window(self, start, end, best):
        best.sort(key=self._score, reverse=True)
        for event in best[: self.k]:
            self.emit_event(event)

    def buffered_count(self) -> int:
        return sum(len(best) for _, best in self._windows.values())
