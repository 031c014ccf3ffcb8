"""Stream-contract monitor: an assertion layer between operators.

Every operator downstream of the sort relies on two promises — events
are sync-ordered (between punctuations) and nothing arrives at or below
an emitted punctuation.  :class:`OrderingMonitor` is a pass-through
operator that *checks* those promises, for use in tests, fuzz harnesses,
and debugging sessions ("which operator broke the contract?").
"""

from __future__ import annotations

from repro.core.errors import ReproError

__all__ = ["ContractViolation", "OrderingMonitor"]

from repro.engine.operators.base import Operator

_NEG_INF = float("-inf")


class ContractViolation(ReproError):
    """An operator emitted something that breaks the stream contract."""


class OrderingMonitor(Operator):
    """Pass-through that asserts the ordered-stream contract.

    Parameters
    ----------
    label:
        Included in violation messages so a monitor placed after each
        stage pinpoints the offender.
    scan_order:
        When ``True`` (default) events must be non-decreasing in
        sync_time even between punctuations (the contract scan-order
        consumers like PatternMatch need).  ``False`` relaxes to
        punctuation-granularity ordering (what aggregate-style consumers
        need): events only have to stay above the last punctuation.
    """

    def __init__(self, label="monitor", scan_order=True):
        super().__init__()
        self.label = label
        self.scan_order = scan_order
        self.events_seen = 0
        self.punctuations_seen = 0
        self.flushes = 0
        self._last_sync = _NEG_INF
        self._last_punctuation = _NEG_INF

    def on_event(self, event):
        self.events_seen += 1
        if event.sync_time <= self._last_punctuation:
            raise ContractViolation(
                f"{self.label}: event sync={event.sync_time} at/below "
                f"punctuation {self._last_punctuation}"
            )
        if self.scan_order and event.sync_time < self._last_sync:
            raise ContractViolation(
                f"{self.label}: sync regressed {self._last_sync} -> "
                f"{event.sync_time} between punctuations"
            )
        if event.other_time <= event.sync_time:
            raise ContractViolation(
                f"{self.label}: empty/negative interval "
                f"[{event.sync_time}, {event.other_time})"
            )
        self._last_sync = max(self._last_sync, event.sync_time)
        self.emit_event(event)

    def on_punctuation(self, punctuation):
        self.punctuations_seen += 1
        if punctuation.timestamp < self._last_punctuation:
            raise ContractViolation(
                f"{self.label}: punctuation regressed "
                f"{self._last_punctuation} -> {punctuation.timestamp}"
            )
        self._last_punctuation = punctuation.timestamp
        if not self.scan_order:
            # Order resets at punctuation granularity.
            self._last_sync = _NEG_INF
        self.emit_punctuation(punctuation)

    def on_flush(self):
        # A flush ends the stream; a replayed stream then starts from
        # scratch, so the watermark must reset or every event of the
        # second pass reads as late against the first pass's final
        # punctuation.
        self.flushes += 1
        self._last_sync = _NEG_INF
        self._last_punctuation = _NEG_INF
        self.emit_flush()
