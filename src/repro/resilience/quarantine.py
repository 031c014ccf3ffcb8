"""Poison-event quarantine: a dead-letter ledger with reason codes.

Production log feeds contain rows no policy can save — events that fail
to parse, events later than the strictest lateness bound under
:data:`~repro.core.late.LatePolicy.RAISE`, punctuations that regress.
Killing the pipeline on the first one (the pre-resilience behaviour)
turns a single poison event into an outage; silently dropping it turns
it into an invisible data-loss bug.  The ledger is the middle road: the
offending element is recorded with a reason code and its arrival
context, the pipeline keeps running, and the counts surface in the
observability export (``docs/resilience.md`` documents the schema).

Memory stays bounded under a poison flood: past ``max_entries`` the
*oldest* retained entries rotate out — to a JSONL sidecar file when one
is configured, so nothing is lost, otherwise they are discarded (counts
always keep accumulating, so the export stays truthful either way).
"""

from __future__ import annotations

import json

__all__ = ["QuarantineLedger", "QuarantinedEvent", "Reason"]


class Reason:
    """Quarantine reason codes (stable strings, used in the JSON export)."""

    #: Event time at or below the watermark under ``LatePolicy.RAISE``.
    LATE_EVENT = "late-event"
    #: Element is neither a valid event nor a punctuation.
    MALFORMED = "malformed"
    #: Punctuation timestamp regressed below an earlier punctuation.
    PUNCTUATION_REGRESSION = "punctuation-regression"
    #: Consecutive duplicate delivered by an at-least-once upstream.
    DUPLICATE = "duplicate"

    ALL = (LATE_EVENT, MALFORMED, PUNCTUATION_REGRESSION, DUPLICATE)


class QuarantinedEvent:
    """One dead-lettered element: what, why, and when it arrived."""

    __slots__ = ("seq", "reason", "element", "context")

    def __init__(self, seq, reason, element, context):
        #: Arrival sequence number within this ledger (0-based).
        self.seq = seq
        #: One of :class:`Reason`'s codes.
        self.reason = reason
        #: The offending element (or its sort key for sorter-level
        #: quarantine, where the full event is not visible).
        self.element = element
        #: Arrival context: watermark, ingress offset, detail — whatever
        #: the quarantining site knew at the time.
        self.context = context

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "reason": self.reason,
            "element": repr(self.element),
            "context": dict(self.context),
        }

    def __repr__(self):
        return (
            f"QuarantinedEvent(seq={self.seq}, reason={self.reason!r}, "
            f"element={self.element!r})"
        )


class QuarantineLedger:
    """Append-only dead-letter store shared by every quarantining site.

    One ledger serves a whole supervised run: the ingress guard records
    malformed elements and punctuation regressions, the sorters' late
    trackers record ``RAISE`` violations.  ``max_entries`` bounds the
    retained elements: past the bound the oldest entry rotates out —
    appended to the ``sidecar`` JSONL file when one is configured (one
    ``QuarantinedEvent.as_dict()`` document per line), discarded
    otherwise.  Counts keep accumulating past the bound either way, so
    the export stays truthful on pathological feeds and a poison-flood
    tenant cannot OOM the process through the dead-letter path.

    The supervisor rolls the ledger back to its checkpoint's
    :meth:`mark` before a recovery replay — deterministic replay
    regenerates the same records, so rolling back (not deduplicating) is
    what keeps recovered runs byte-identical.
    """

    def __init__(self, max_entries=1_000, sidecar=None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.sidecar = None if sidecar is None else str(sidecar)
        self.entries = []
        self.counts = {}     # reason -> total occurrences (unbounded)
        #: entries rotated out of memory (and into the sidecar, if any).
        self.rotated = 0
        self._seq = 0

    def record(self, reason, element, **context):
        """Dead-letter one element; returns the ledger entry.

        Past ``max_entries`` the oldest retained entry is rotated out
        first (to the sidecar when configured), so the in-memory window
        always holds the most recent ``max_entries`` poison elements.
        """
        self.counts[reason] = self.counts.get(reason, 0) + 1
        seq = self._seq
        self._seq += 1
        if len(self.entries) >= self.max_entries:
            overflow = len(self.entries) - self.max_entries + 1
            self._rotate_out(self.entries[:overflow])
            del self.entries[:overflow]
            self.rotated += overflow
        entry = QuarantinedEvent(seq, reason, element, context)
        self.entries.append(entry)
        return entry

    def _rotate_out(self, entries):
        if self.sidecar is None or not entries:
            return
        with open(self.sidecar, "a") as fh:
            for entry in entries:
                fh.write(json.dumps(entry.as_dict(), default=str))
                fh.write("\n")
            fh.flush()

    @property
    def total(self) -> int:
        """Total quarantined elements across all reasons."""
        return sum(self.counts.values())

    def count(self, reason) -> int:
        """Occurrences of one reason code."""
        return self.counts.get(reason, 0)

    def mark(self):
        """An opaque position for :meth:`rollback` (a checkpoint's)."""
        return list(self.entries), dict(self.counts), self.rotated, self._seq

    def rollback(self, mark=None):
        """Return to a :meth:`mark` (``None``: empty) before a recovery
        replay, which regenerates every later record."""
        entries, counts, self.rotated, self._seq = mark or ([], {}, 0, 0)
        self.entries[:] = entries
        self.counts.clear()
        self.counts.update(counts)

    #: Reset to the empty ledger.
    clear = rollback

    def as_dict(self) -> dict:
        """JSON-ready summary for the observability export."""
        return {
            "total": self.total,
            "by_reason": dict(sorted(self.counts.items())),
            "retained": len(self.entries),
            "rotated": self.rotated,
            "sidecar": self.sidecar,
            "entries": [entry.as_dict() for entry in self.entries],
        }

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return (
            f"QuarantineLedger(total={self.total}, "
            f"by_reason={dict(sorted(self.counts.items()))})"
        )
