"""Policies for events that arrive after their punctuation has passed.

The paper (Section I-A) notes that with buffer-and-sort, "events that arrive
after the specified reorder latency have to be either discarded or adjusted
(on timestamps)".  Both choices are offered here, plus a strict mode that
raises, which is useful in tests.
"""

from __future__ import annotations

import enum

from repro.core.errors import LateEventError

__all__ = ["LatePolicy", "LateEventTracker"]


class LatePolicy(enum.Enum):
    """What to do with an event whose time is <= the last punctuation."""

    #: Silently drop the event (counted by :class:`LateEventTracker`).
    DROP = "drop"
    #: Adjust the event's time forward to just after the last punctuation.
    ADJUST = "adjust"
    #: Raise :class:`repro.core.errors.LateEventError`.
    RAISE = "raise"


class LateEventTracker:
    """Applies a :class:`LatePolicy` and keeps counts for completeness audits.

    The tracker is shared by sorters and ingress sites so that Table II-style
    completeness numbers (fraction of events preserved) can be computed after
    a run.

    ``quarantine`` (usually attached by a supervisor rather than passed at
    construction) is an optional dead-letter ledger — with one attached, a
    late event under :data:`LatePolicy.RAISE` is recorded there with reason
    ``"late-event"`` and excluded from the output instead of killing the
    run.
    """

    __slots__ = ("policy", "dropped", "adjusted", "quarantined", "total",
                 "quarantine")

    def __init__(self, policy: LatePolicy = LatePolicy.DROP,
                 quarantine=None):
        self.policy = policy
        self.dropped = 0
        self.adjusted = 0
        self.quarantined = 0
        self.total = 0
        self.quarantine = quarantine

    def admit(self, event_time, punctuation_time):
        """Decide the fate of a late event.

        Returns the (possibly adjusted) event time to use, or ``None`` if the
        event must be dropped.  ``punctuation_time`` is the most recent
        punctuation the event missed.
        """
        self.total += 1
        if self.policy is LatePolicy.RAISE:
            if self.quarantine is None:
                raise LateEventError(event_time, punctuation_time)
            self.quarantined += 1
            self.quarantine.record(
                "late-event", event_time, watermark=punctuation_time,
            )
            return None
        if self.policy is LatePolicy.DROP:
            self.dropped += 1
            return None
        self.adjusted += 1
        return punctuation_time

    def admit_many(self, event_times, punctuation_time):
        """:meth:`admit` for one batch's late events, in arrival order.

        DROP and ADJUST are a single counter add.  RAISE raises on the
        first event — or, with a quarantine ledger attached, records every
        event under its own time.
        """
        if self.policy is LatePolicy.RAISE:
            for event_time in event_times:
                self.admit(event_time, punctuation_time)
            return
        count = len(event_times)
        self.total += count
        if self.policy is LatePolicy.DROP:
            self.dropped += count
        else:
            self.adjusted += count

    @property
    def preserved(self) -> int:
        """Number of late events that were kept (after adjustment)."""
        return self.total - self.dropped - self.quarantined

    def completeness(self, total_events: int) -> float:
        """Fraction of ``total_events`` not excluded (1.0 when none late)."""
        if total_events <= 0:
            return 1.0
        return 1.0 - (self.dropped + self.quarantined) / total_events

    def __repr__(self):
        return (
            f"LateEventTracker(policy={self.policy.value}, "
            f"dropped={self.dropped}, adjusted={self.adjusted}, "
            f"quarantined={self.quarantined})"
        )
