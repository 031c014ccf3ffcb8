"""Sequence pattern matching over an ordered stream.

Implements the paper's second framework example (Section V-C): "find users
who click ad X followed by clicking ad Y within a one-minute window".  The
operator consumes an ordered stream, tracks per-correlation-key occurrences
of the first predicate, and emits a match event when the second predicate
fires within ``within`` time units.  State is evicted on punctuations, so
memory stays bounded by the window.
"""

from __future__ import annotations

from collections import deque

from repro.engine.event import Event
from repro.engine.operators.base import Operator

__all__ = ["PatternMatch"]


class PatternMatch(Operator):
    """Detect ``first`` followed by ``second`` within ``within`` per key.

    Parameters
    ----------
    first, second:
        Event predicates for the two pattern steps.
    within:
        Maximum ``sync_time`` gap between the two steps (exclusive start:
        the second event must be strictly later).
    key_fn:
        Correlation key (default: the event's key field — "per user").

    Output events carry ``sync_time`` of the second step and payload
    ``(first_sync, second_sync)``.
    """

    def __init__(self, first, second, within, key_fn=None):
        super().__init__()
        if within < 1:
            raise ValueError("within must be >= 1")
        self.first = first
        self.second = second
        self.within = within
        self.key_fn = key_fn
        self._pending = {}  # key -> deque of first-step sync_times
        self.matches = 0

    def _key(self, event):
        return event.key if self.key_fn is None else self.key_fn(event)

    def on_event(self, event):
        key = self._key(event)
        now = event.sync_time
        if self.second(event):
            pending = self._pending.get(key)
            if pending:
                while pending and pending[0] <= now - self.within:
                    pending.popleft()
                for first_sync in pending:
                    if first_sync < now:
                        self.matches += 1
                        self.emit_event(
                            Event(now, event.other_time, key,
                                  (first_sync, now))
                        )
        if self.first(event):
            self._pending.setdefault(key, deque()).append(now)

    def on_punctuation(self, punctuation):
        horizon = punctuation.timestamp - self.within
        dead = []
        for key, pending in self._pending.items():
            while pending and pending[0] <= horizon:
                pending.popleft()
            if not pending:
                dead.append(key)
        for key in dead:
            del self._pending[key]
        self.emit_punctuation(punctuation)

    def on_flush(self):
        # Nothing after the flush can complete a match.
        self._pending.clear()
        self.emit_flush()

    def buffered_count(self) -> int:
        return sum(len(pending) for pending in self._pending.values())
