"""Punctuation generation at ingress (Section III-A).

    "SPEs insert punctuations based on user-specified settings when events
    are ingested into the engine.  The timestamp in a punctuation is set by
    subtracting the reorder latency from the high-watermark timestamp when
    the punctuation is produced and emitted."

:class:`PunctuationPolicy` implements exactly that: every ``frequency``
events it produces a punctuation at ``high_watermark - reorder_latency``,
clamped to be non-decreasing.
"""

from __future__ import annotations

__all__ = ["PunctuationPolicy"]

_NEG_INF = float("-inf")


class PunctuationPolicy:
    """Emit a punctuation every ``frequency`` events at ``hw - latency``.

    Parameters
    ----------
    frequency:
        Number of events between consecutive punctuations (the x-axis of
        Figure 8).  ``None`` disables punctuation generation entirely
        (offline mode).
    reorder_latency:
        How much disorder to tolerate: the punctuation trails the highest
        event time seen so far by this much.  Events arriving later than
        this bound are late (handled by the sorter's late policy).
    """

    __slots__ = ("frequency", "reorder_latency", "_count", "_high_watermark",
                 "_last_punctuation")

    def __init__(self, frequency, reorder_latency=0):
        if frequency is not None and frequency < 1:
            raise ValueError("frequency must be >= 1 or None")
        if reorder_latency < 0:
            raise ValueError("reorder_latency must be non-negative")
        self.frequency = frequency
        self.reorder_latency = reorder_latency
        self._count = 0
        self._high_watermark = _NEG_INF
        self._last_punctuation = _NEG_INF

    @property
    def high_watermark(self):
        """Highest event time observed so far (``-inf`` before any)."""
        return self._high_watermark

    @property
    def last_punctuation(self):
        """Timestamp of the last produced punctuation (``-inf`` if none)."""
        return self._last_punctuation

    def observe(self, event_time):
        """Account for one ingested event.

        Returns the timestamp of a punctuation to emit *after* this event,
        or ``None`` when this event does not complete a punctuation period.
        """
        return self.observe_chunk(1, event_time)

    def room(self):
        """Events until the next punctuation falls due (``None`` offline)."""
        if self.frequency is None:
            return None
        return self.frequency - self._count % self.frequency

    def observe_chunk(self, count, high):
        """:meth:`observe` for ``count`` events at once, ``high`` the
        highest of their times; the chunk must end at or before the next
        punctuation (``count <= room()``)."""
        if high > self._high_watermark:
            self._high_watermark = high
        if self.frequency is None:
            return None
        self._count += count
        if self._count % self.frequency:
            return None
        timestamp = self._high_watermark - self.reorder_latency
        if timestamp <= self._last_punctuation:
            return None  # watermark has not advanced enough; skip
        self._last_punctuation = timestamp
        return timestamp

    def final(self):
        """The end-of-data punctuation: the high watermark, or ``None``
        before any event."""
        if self._high_watermark == _NEG_INF:
            return None
        return self._high_watermark
