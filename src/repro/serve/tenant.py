"""Per-tenant runtime: journal, standing queries, quotas, counters.

:class:`TenantRuntime` is the synchronous core of the service — a pure
state machine the asyncio server drives.  Everything hostile traffic can
do to a tenant lands here as an explicit, counted decision:

* **Duplicate frames** (reconnect replays, chaos ``net:dup``) are
  detected by ingress offset and dropped — ``counters["duplicates"]``.
* **Malformed frames** (chaos ``net:malform``, buggy shippers) are
  dead-lettered through the shared
  :class:`~repro.resilience.quarantine.QuarantineLedger` with a
  ``net:<tenant>@<offset>`` source record — ``counters["quarantined"]``.
* **Buffer-quota breaches** — a query buffering more than ``quota``
  events after an event is pushed — force one early punctuation for
  the whole tenant at the highest sync time seen, the paper's
  completeness-for-memory trade.  It is journaled as a ``SHED`` line
  first, so crash-recovery replay reproduces the shed without deciding
  it again — ``counters["shed"]``.
* **Slow/stalled writers** are evicted by the server's read deadline —
  ``counters["evictions"]`` — and **reconnects** (including
  post-eviction and post-crash) increment ``counters["reconnects"]``.

* **Refused elements** — a punctuation that regresses, or a late event
  on a ``sort=raise`` query — leave the refusing query as it was; the
  other queries still take the element, and each refusal is recorded
  once, live, under ``punctuation-regression``/``late-event`` with a
  ``net:<tenant>@<offset>`` source.  Replay meets the same refusals and
  records nothing.

The accept methods journal **before** pushing into standing pipelines,
which is the whole recovery story: replaying the journal through freshly
bound pipelines regenerates every result stream byte-for-byte.  Events
arrive as runs (:meth:`TenantRuntime.accept_events`): one journal write
and one push per query for each run, or, under a quota, for each slice
of it that no quota check could act inside.
"""

from __future__ import annotations

import os
from bisect import bisect_left

from repro.core.errors import LateEventError, ServeProtocolError
from repro.engine.event import Punctuation
from repro.resilience.quarantine import Reason
from repro.serve.journal import TenantJournal
from repro.serve.protocol import EventRun
from repro.serve.standing import REFUSALS, StandingQuery

__all__ = ["TenantRuntime"]

_NEG_INF = float("-inf")

_COUNTERS = ("quarantined", "duplicates", "reconnects", "evictions",
             "shed")


class TenantRuntime:
    """One tenant's durable ingress state and standing-query registry."""

    def __init__(self, name, data_dir, ledger, quota=None):
        self.name = name
        self.journal = TenantJournal(
            os.path.join(data_dir, f"journal-{name}.jsonl")
        )
        self.ledger = ledger
        self.quota = quota         # buffered events a query may hold
        self.queries = {}          # qid -> StandingQuery
        self.counters = {c: 0 for c in _COUNTERS}
        #: Whether an ingest-role connection ever bound this tenant —
        #: the next ingest HELLO after that is a counted reconnect.
        self.had_ingest = False
        self.watermark = None      # last ingress punctuation timestamp
        self._high = _NEG_INF      # max sync_time seen (the shed's ts)

    # -- standing queries --------------------------------------------------

    def subscribe(self, qid, spec) -> StandingQuery:
        if qid in self.queries:
            if self.queries[qid].spec != spec:
                raise ServeProtocolError(
                    f"query id {qid!r} already registered with a "
                    "different spec"
                )
            return self.queries[qid]
        query = StandingQuery(qid, spec)
        query.attach(self.journal)
        self.queries[qid] = query
        return query

    def unsubscribe(self, qid) -> None:
        if qid not in self.queries:
            raise ServeProtocolError(f"unknown query id {qid!r}")
        del self.queries[qid]

    # -- ingress -----------------------------------------------------------

    def _dedup(self, offset) -> bool:
        """True when ``offset`` was already journaled (drop + count)."""
        if offset < self.journal.length:
            self.counters["duplicates"] += 1
            return True
        if offset > self.journal.length:
            raise ServeProtocolError(
                f"ingress gap: got offset {offset}, expected "
                f"{self.journal.length}"
            )
        return False

    def accept_event(self, offset, event, wire=None) -> bool:
        """Journal + push one event; False when it was a duplicate.

        The one-row case of :meth:`accept_events`.  ``wire`` is the
        ``EVENT`` line ``event`` was decoded from, if it carries
        ``offset``.
        """
        if self._dedup(offset):
            return False
        return self.accept_events(EventRun.of(offset, event, wire)) == 1

    def accept_events(self, run) -> int:
        """Journal + push the rows of ``run`` that continue the journal;
        returns how many.

        Row ``i`` continues it when its offset is ``journal.length + i``
        or ``-1`` (append).  The first duplicate or gap ends the rows
        taken: the caller answers that frame alone
        (:meth:`accept_event`).  So does a shed, which journals a line
        of its own: the rows after it are offered again.  The journal
        lines are buffered, not committed: the caller commits before
        anything derived from them leaves the process.
        """
        base = self.journal.length
        taken = len(run)
        offsets = list(range(base, base + taken))
        if run.offsets != offsets:
            taken = next((
                row for row, offset in enumerate(run.offsets)
                if offset != base + row and offset != -1
            ), taken)
            if not taken:
                return 0
            run = run[:taken]
            if run.wire is not None:  # an append line carries no offset
                run.wire = [None if offset == -1 else line
                            for offset, line in zip(run.offsets, run.wire)]
            run.offsets = offsets[:taken]
        if self.quota is None:
            self._push_events(run)
            return taken
        # Each pushed row grows a query's census by at most one, so no
        # quota check inside a slice no longer than the least headroom
        # could act: one check per slice decides what one per row would.
        start = 0
        while start < taken:
            bound = max(
                (query.buffered_bound() for query in self.queries.values()),
                default=0,
            )
            room = max(1, self.quota - bound)
            stop = min(taken, start + room)
            if self._push_events(run[start:stop]):
                try:
                    self._check_quota()
                except Exception:
                    pass  # it fails its row alone, as every push does
            start = stop
            if self.journal.length != base + stop:
                break  # a shed line moved the offsets the rest must have
        return start

    def _push_events(self, run, live=True) -> bool:
        """Journal ``run`` with one write, when ``live``, and push it
        into every query that subscribed before it; False when a query
        raised on its last row.  A refusal is recorded when ``live``.

        A query that raises on a row other than by refusing it fails
        that row alone: the queries after it do not see the row, and no
        quota check follows it.
        """
        if live:
            self.journal.append_events(run)
        high = max(run.syncs)
        if high > self._high:
            self._high = high
        failed = set()   # offsets a query raised on
        refused = []
        for order, query in enumerate(self.queries.values()):
            part = run.without(failed) if failed else run
            if part.offsets and part.offsets[0] < query._origin:
                # Recovery: the rows before the query subscribed.
                part = part[bisect_left(part.offsets, query._origin):]
            for row, exc in query.push_events(part):
                offset = part.offsets[row]
                if isinstance(exc, REFUSALS):
                    refused.append(
                        (offset, order, query, exc, part.events()[row])
                    )
                else:
                    failed.add(offset)
        if refused and live:
            refused.sort(key=lambda refusal: refusal[:2])
            for offset, _, query, exc, event in refused:
                self._refused(offset, event, query, exc)
        return not failed or run.offsets[-1] not in failed

    def accept_punctuation(self, offset, timestamp) -> bool:
        """Journal + commit + push one punctuation; the commit makes
        the journal durable up to here before the caller acks."""
        if self._dedup(offset):
            return False
        self._commit(self.journal.append_punctuation(timestamp))
        self._push_punctuation(offset, timestamp)
        return True

    def _push_punctuation(self, offset, timestamp, live=True) -> None:
        """Push the punctuation at ``offset`` into every query that
        subscribed before it; a refusal is recorded when ``live``."""
        self.watermark = timestamp
        for query in self.queries.values():
            if query._origin > offset:
                continue  # recovery: it subscribed later
            try:
                query.push_punctuation(timestamp)
            except REFUSALS as exc:
                if live:
                    self._refused(offset, Punctuation(timestamp), query, exc)

    def _refused(self, offset, element, query, exc) -> None:
        """Record that ``query`` refused the element at ``offset``."""
        reason = (Reason.LATE_EVENT if isinstance(exc, LateEventError)
                  else Reason.PUNCTUATION_REGRESSION)
        self.ledger.record(
            reason, element, source=f"net:{self.name}@{offset}",
            detail=f"query {query.qid}: {exc}",
        )

    def accept_end(self, offset) -> bool:
        """END frame: journal + commit the flush marker and complete all
        queries."""
        if self._dedup(offset):
            return False
        self._commit(self.journal.append_flush())
        for query in self.queries.values():
            query.flush()
        return True

    def _commit(self, offset) -> None:
        """Commit the journal up to the line just appended at
        ``offset``.  When the commit fails, the line goes: no query has
        seen it, and the client resends it on no ack.  (It stays only if
        a part of it reached the file and cannot be cut off again.)"""
        try:
            self.journal.commit()
        except BaseException:
            self.journal.retract(offset)
            raise

    def quarantine(self, offset, line, detail) -> None:
        """Dead-letter a malformed frame; ingress keeps running."""
        self.ledger.record(
            Reason.MALFORMED, line,
            source=f"net:{self.name}@{offset}", detail=detail,
        )
        self.counters["quarantined"] += 1

    def _check_quota(self) -> None:
        """Shed when a query buffers more than ``quota`` events: one
        forced early punctuation at the highest sync time seen, for the
        whole tenant, journaled as a ``SHED`` line first so replay
        re-applies it without deciding it again."""
        if self.quota is None:
            return
        for query in self.queries.values():
            # The bound never undercounts, so the exact census, which
            # drains a compiled query, is taken only above the quota.
            if (query.buffered_bound() > self.quota
                    and query.buffered_events() > self.quota):
                offset = self.journal.append_punctuation(
                    self._high, forced=True
                )
                self._push_punctuation(offset, self._high)
                self.counters["shed"] += 1
                return

    # -- recovery ----------------------------------------------------------

    def recover(self, state) -> None:
        """Rebuild from the persisted state doc + journal replay.

        Re-registers every standing query at its origin line, pushes the
        journal's event runs, punctuations and ``END`` into each query
        from that line on (the quota *not* checked — ``SHED`` lines are
        replayed as plain punctuations), then verifies each query's
        regenerated result prefix against its pre-crash digest.
        """
        saved = state.get("counters", {})
        self.counters.update({c: saved[c] for c in _COUNTERS if c in saved})
        # A recovered tenant was fed before the crash, so its next
        # ingest HELLO is a reconnect.
        self.had_ingest = True
        expected = state.get("queries", {})
        for qid, qstate in expected.items():
            self.subscribe(qid, qstate["spec"])._origin = \
                qstate.get("origin", 0)
        for offset, record in self.journal.load():
            # Refusals meet the element again, and were recorded live.
            if isinstance(record, EventRun):
                self._push_events(record, live=False)
            elif record is not None:
                self._push_punctuation(offset, record.timestamp, live=False)
            else:
                for query in self.queries.values():
                    if query._origin <= offset:
                        query.flush()
        for qid, qstate in expected.items():
            self.queries[qid].verify_replay(qstate)

    # -- export ------------------------------------------------------------

    def as_state(self) -> dict:
        """The durable slice for ``state.json``."""
        return {
            "counters": dict(self.counters),
            "journal": self.journal.length,
            "watermark": self.watermark,
            "queries": {
                qid: query.as_state()
                for qid, query in self.queries.items()
            },
        }

    def close(self):
        self.journal.close()

    def __repr__(self):
        return (
            f"TenantRuntime(name={self.name!r}, "
            f"journal={self.journal.length}, queries={len(self.queries)})"
        )
