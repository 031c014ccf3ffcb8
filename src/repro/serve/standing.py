"""Standing queries: long-lived incremental pipelines over tenant streams.

A :class:`StandingQuery` runs its spec's
:class:`~repro.engine.planner.QueryPlan` on one of two engines behind
one push face (``feed_events``, ``punctuate``/``flush`` returning the
round's ``(events, punctuations)``, ``buffered``) and appends every
round, through one ``_deliver``, to an in-order result log:

* **compiled** — when :func:`~repro.engine.compiler.compile_plan` lowers
  the plan (``window=``/``hop=``, then ``sort[=drop|adjust]``, then
  ``count`` or ``group-count``).  Pushed events wait as pending columns
  (a tenant pushes a whole run of them at once, never boxing an
  :class:`~repro.engine.event.Event`) and reach the fused columnar
  executor as one chunk per punctuation, so per-event dispatch is paid
  once per chunk (Trill's columnar batches);
* **row** — otherwise.  ``where=`` and ``group-sum`` carry opaque Python
  callables, and ``sort=raise`` must raise at the late event's push,
  where a buffered chunk would raise only at the next punctuation.  The
  executor is :class:`~repro.engine.compiler.RowExecution` over the plan.

Results materialize at punctuation boundaries exactly as they would in a
batch ``QueryPlan.run`` — the chaos soak asserts byte-identity between
the two — and the results, lags, digest and buffered census are the same
on either engine after every element.

Serve ingress has no schema, while the compiled columns hold plain
``int`` values of magnitude below 2**63: the sync time and its window
floor, the key when the plan groups, and every punctuation and the
promise its window derives from it.  The first element outside that
*demotes* the query.  So does a punctuation pattern the compiled engine
runs slower than the row engine: fewer than 48 events per punctuation,
on average, over the query's first 16 punctuations (each chunk pays a
fixed numpy cost).  A demoting query replays its input into a fresh row
executor — the tenant journal's event runs from the line the query
subscribed at (its origin) through the demoting line, or its own input
log when no tenant owns it — checks the regenerated results against the
compiled prefix with :meth:`StandingQuery.verify_replay`, and stays on
the row engine.  The replay costs the row engine's time for that whole
input, so a late demotion on a long history stalls the tenant.
Crash-recovery replay pushes the same runs from the same origin and
demotes at the same element, so no file records the engine.

Each query keeps a running SHA-256 digest over ``repr(element)`` lines
of its result log.  The digest and origin are persisted in the service
state file, and if crash-recovery replay does not regenerate the exact
delivered prefix, recovery raises
:class:`~repro.core.errors.ReplayDivergenceError` instead of silently
serving a forked result stream.
"""

from __future__ import annotations

import hashlib
from itertools import takewhile

import numpy as np

from repro.core.errors import (
    LateEventError,
    PunctuationOrderError,
    ReplayDivergenceError,
)
from repro.core.late import LatePolicy
from repro.engine.compiler import (
    RowExecution,
    UnsupportedPlanError,
    compile_plan,
)
from repro.engine.event import Punctuation, is_punctuation
from repro.serve.journal import TenantJournal
from repro.serve.protocol import EventRun, parse_query_spec

__all__ = ["StandingQuery"]

#: What a query may refuse an element with.  A refusing query is left
#: as it was; the tenant records the refusal and the other queries
#: still take the element.
REFUSALS = (PunctuationOrderError, LateEventError)

#: Compiled columns carry ints of magnitude below this (int64).
_INT64 = 2 ** 63

#: The density trial.  A chunk pays ≈140 µs of fixed cost per
#: punctuation and saves ≈5.5 µs per event on the docs/serve.md
#: workload, so below ≈22 events per punctuation the row engine is the
#: faster one; an earlier, fewer-group measurement put it at ≈46, which
#: ``_MIN_CHUNK`` keeps until the trial is judged end to end.  A
#: compiled query whose first ``_TRIAL_ROUNDS`` punctuations followed
#: fewer than ``_MIN_CHUNK`` events each, on average, demotes at the
#: last of them; that replay is at most
#: ``_TRIAL_ROUNDS * (_MIN_CHUNK + 1)`` lines.
_TRIAL_ROUNDS = 16
_MIN_CHUNK = 48


def _digest_of(elements) -> str:
    digest = hashlib.sha256()
    for element in elements:
        digest.update(repr(element).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _lower(plan):
    """``(compiled, None)`` when ``plan`` runs compiled, else
    ``(None, reason)``."""
    try:
        compiled = compile_plan(plan)
    except UnsupportedPlanError as exc:
        return None, exc.reason
    if compiled.late_policy is LatePolicy.RAISE:
        return None, "sort=raise"
    return compiled, None


class _Demotion(Exception):
    """The compiled engine gives the query up; the text says why.
    ``row`` is the run row that demotes, when a run was pushed;
    ``round`` is what the demoting punctuation released, delivered
    before the query moves."""

    row = None
    round = ((), ())


def _unfit(field, value):
    return _Demotion(
        f"{field} {value!r} ({type(value).__name__}) does not fit the "
        f"int64 columns"
    )


def _ints(values) -> bool:
    """Whether every one of ``values`` is exactly an ``int``."""
    return set(map(type, values)) == {int}


def _least(fits):
    """The least ``t`` in ``(-2**63, 2**63)`` with ``fits(t)``, for a
    ``fits`` that is false below some point and true from it on."""
    lo, hi = -_INT64 + 1, _INT64 - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class _PendingColumns:
    """The compiled executor behind pending columns, with the row
    engine's face (:class:`~repro.engine.compiler.RowExecution`).

    Events wait as pending sync (and key) lists and reach the compiled
    executor as one chunk when a punctuation, a flush or an exact census
    needs them.  No plan that reads a payload value lowers here
    (``group-sum``'s selector is opaque), so chunks carry no value
    column, and the key column only when the count groups.
    """

    def __init__(self, compiled):
        self._executor = compiled.open()
        self._keyed = compiled.reads is None or "key" in compiled.reads
        self._syncs, self._keys = [], []  # pending ingress columns
        #: The executor's census, ``None`` until recounted after it
        #: last changed.
        self._census = 0
        #: Events and punctuations pushed, for the density trial.
        self._events = self._rounds = 0
        # The window stages floor syncs in int64 numpy arithmetic, which
        # wraps silently, and the sorter keeps the promise they derive
        # from a punctuation as an int64.  These are the least sync and
        # punctuation whose floors stay in range (in exact Python ints).
        stages = compiled.stages

        def aligned(sync):
            for stage in stages:
                sync = stage.apply(sync, None, None, ())[0]
            return sync

        def promised(timestamp):
            for stage in stages:
                timestamp = stage.transform_punct(timestamp)
            return timestamp

        self._low_sync = _least(lambda t: aligned(t) > -_INT64)
        self._low_punct = _least(lambda t: promised(t) > -_INT64)

    def _misfit(self, sync, key):
        """The demotion a row with ``sync`` and ``key`` causes, or
        ``None`` when the columns carry it."""
        if not (type(sync) is int and self._low_sync <= sync < _INT64):
            return _unfit("sync", sync)
        if self._keyed and not (type(key) is int and -_INT64 < key < _INT64):
            return _unfit("key", key)
        return None

    def feed_events(self, events):
        for event in events:
            why = self._misfit(event.sync_time, event.key)
            if why is not None:
                raise why
            self._syncs.append(event.sync_time)
            if self._keyed:
                self._keys.append(event.key)
            self._events += 1

    def push_events(self, syncs, keys):
        """Append a run's rows.  At the first row the columns cannot
        carry, append the rows before it and raise its
        :class:`_Demotion` with ``row`` set."""
        keyed = self._keyed
        why = None
        if not (_ints(syncs) and self._low_sync <= min(syncs)
                and max(syncs) < _INT64
                and (not keyed or (_ints(keys) and -_INT64 < min(keys)
                                   and max(keys) < _INT64))):
            for row, (sync, key) in enumerate(zip(syncs, keys)):
                why = self._misfit(sync, key)
                if why is not None:
                    why.row = row
                    syncs, keys = syncs[:row], keys[:row]
                    break
        self._syncs += syncs
        if keyed:
            self._keys += keys
        self._events += len(syncs)
        if why is not None:
            raise why

    def punctuate(self, timestamp):
        """The round's ``(events, punctuations)``.  A query the density
        trial demotes here raises its :class:`_Demotion` with the round
        in ``round``."""
        if not (type(timestamp) is int
                and self._low_punct <= timestamp < _INT64):
            raise _unfit("punctuation", timestamp)
        self._drain()
        self._census = None
        round_ = self._executor.punctuate(timestamp)
        self._rounds += 1
        if (self._rounds == _TRIAL_ROUNDS
                and self._events < _TRIAL_ROUNDS * _MIN_CHUNK):
            why = _Demotion(
                f"{self._events} events in the first {_TRIAL_ROUNDS} "
                f"punctuations, fewer than {_MIN_CHUNK} per punctuation"
            )
            why.round = round_
            raise why
        return round_

    def flush(self):
        self._drain()
        self._census = None
        return self._executor.flush()

    def buffered(self) -> int:
        self._drain()
        return self._settled()

    def buffered_bound(self) -> int:
        """Census upper bound without a drain: a pending event is
        buffered or late-dropped, never more."""
        return self._settled() + len(self._syncs)

    def _settled(self) -> int:
        if self._census is None:
            self._census = self._executor.buffered()
        return self._census

    def _drain(self):
        syncs = self._syncs
        if syncs:
            keys = np.array(self._keys, np.int64) if self._keyed else None
            self._syncs, self._keys = [], []
            self._census = None
            self._executor.feed(np.array(syncs, np.int64), None, keys, [])


class StandingQuery:
    """One tenant's registered query: plan, live executor, result log."""

    def __init__(self, qid, spec):
        self.qid = qid
        self.spec = spec
        self.plan = parse_query_spec(spec)  # validates eagerly
        #: Delivered elements (events and punctuations) in emission
        #: order; a subscriber's resume position indexes this log.
        self.results = []
        self.completed = False
        #: Delivery-lag samples: ingress watermark minus result event
        #: end time, clamped at zero — how far behind live the query's
        #: output runs.
        self.lags = []
        self._digest = hashlib.sha256()
        self._watermark = None
        #: Replays take this journal from line ``_origin`` on (see
        #: :meth:`attach`), or, while no tenant owns a compiled query,
        #: ``_log``: its input as events, punctuations and ``None`` for
        #: a flush.
        self._journal = None
        self._origin = 0
        self._log = None
        compiled, self.row_reason = _lower(self.plan)
        if compiled is None:
            self.engine = "row"
            self.executor = RowExecution(self.plan._bind)
        else:
            self.engine = "compiled"
            self._log = []
            self.executor = _PendingColumns(compiled)

    def attach(self, journal) -> None:
        """Take this query's input history from ``journal``: its lines
        from the current length on.  Call before the first push."""
        self._journal = journal
        self._origin = journal.length
        self._log = None

    # -- delivery ----------------------------------------------------------

    def _record(self, element):
        self.results.append(element)
        self._digest.update(repr(element).encode())
        self._digest.update(b"\n")

    def _deliver(self, events, puncts):
        """One round, in the row order: its events, then its
        punctuations."""
        watermark = self._watermark
        for event in events:
            self._record(event)
            if watermark is not None:
                self.lags.append(max(0, watermark - (event.other_time - 1)))
        for timestamp in puncts:
            self._record(Punctuation(timestamp))

    # -- ingress -----------------------------------------------------------

    def push_event(self, event):
        if self._log is not None:
            self._log.append(event)
        try:
            self.executor.feed_events((event,))
        except _Demotion as why:
            self._demote(why)

    def push_events(self, run):
        """Push the rows of an accepted
        :class:`~repro.serve.protocol.EventRun` (its ``offsets`` are
        journal offsets) in order.

        Returns ``[(row, exception)]`` for the rows the query raised on,
        instead of raising: the rows after one still arrive, as they
        would one frame at a time.  A compiled query takes the run as
        columns; the row engine, and a query without a tenant, take
        :class:`Event`\\ s.
        """
        start, raised = 0, []
        if self.engine == "compiled" and self._log is None:
            try:
                self.executor.push_events(run.syncs, run.keys)
                return raised
            except _Demotion as why:
                start = why.row + 1
                try:
                    self._demote(why, run.offsets[why.row])
                except Exception as exc:
                    raised.append((why.row, exc))
        for row, event in enumerate(run.events()[start:], start):
            try:
                self.push_event(event)
            except Exception as exc:
                raised.append((row, exc))
        return raised

    def push_punctuation(self, timestamp):
        if self._log is not None:
            self._log.append(Punctuation(timestamp))
        self._watermark = timestamp
        try:
            self._deliver(*self.executor.punctuate(timestamp))
        except _Demotion as why:
            self._deliver(*why.round)
            self._demote(why)

    def flush(self):
        if self._log is not None:
            self._log.append(None)
        self._deliver(*self.executor.flush())
        self.completed = True

    def _replay(self, records):
        """Push ``records`` — event runs, events, punctuations, and
        ``None`` for a flush — as live ingress pushed them."""
        for record in records:
            try:
                if record is None:
                    self.flush()
                elif is_punctuation(record):
                    self.push_punctuation(record.timestamp)
                elif isinstance(record, EventRun):
                    self.push_events(record)  # returns what it raised on
                else:
                    self.push_event(record)
            except REFUSALS:
                pass  # refused live too, and it changed nothing

    def buffered_events(self) -> int:
        return self.executor.buffered()

    def buffered_bound(self) -> int:
        """An upper bound on :meth:`buffered_events` that never drains
        the compiled executor (exact on the row engine)."""
        if self.engine == "row":
            return self.executor.buffered()
        return self.executor.buffered_bound()

    def _demote(self, why, offset=None):
        """Move to the row engine by replaying this query's input, the
        demoting element included.  ``offset`` is that element's journal
        offset, by default the last line's."""
        if self._journal is None:
            records, self._log = self._log, None
            offset = len(records) - 1
        else:
            journal = self._journal
            journal.commit()  # the replay reads the file
            if offset is None:
                offset = journal.length - 1
            # A reader of its own: loading moves a journal's length.
            loaded = TenantJournal(journal.path).load(start=self._origin)
            records = (  # through the demoting line
                record[:offset + 1 - at] if isinstance(record, EventRun)
                else record
                for at, record in takewhile(lambda r: r[0] <= offset, loaded))
        self.row_reason = f"offset {offset}: {why}"
        expected = self.as_state()
        self.results, self.lags, self.completed = [], [], False
        self._digest = hashlib.sha256()
        self._watermark = None
        self.engine = "row"
        self.executor = RowExecution(self.plan._bind)
        self._replay(records)
        self.verify_replay(expected)

    # -- durability --------------------------------------------------------

    @property
    def delivered(self) -> int:
        return len(self.results)

    def digest(self) -> str:
        return self._digest.hexdigest()

    def as_state(self) -> dict:
        """The portion persisted in ``state.json``."""
        return {
            "spec": self.spec,
            "origin": self._origin,
            "delivered": self.delivered,
            "digest": self.digest(),
            "completed": self.completed,
        }

    def verify_replay(self, expected) -> None:
        """Check journal replay regenerated the persisted result prefix.

        ``expected`` is this query's ``as_state()`` dict from before the
        crash.  Replay must have delivered *at least* that many elements
        (the journal can run ahead of the last state write, never
        behind) and the prefix digest must match exactly.
        """
        want = expected.get("delivered", 0)
        if self.delivered < want:
            raise ReplayDivergenceError(
                f"standing query {self.qid!r}: replay delivered "
                f"{self.delivered} elements, state file recorded {want}"
            )
        got = _digest_of(self.results[:want])
        if got != expected.get("digest"):
            raise ReplayDivergenceError(
                f"standing query {self.qid!r}: replayed result prefix "
                f"diverges from the pre-crash digest (exactly-once "
                f"violated)"
            )

    def __repr__(self):
        return (
            f"StandingQuery(qid={self.qid!r}, spec={self.spec!r}, "
            f"delivered={self.delivered}, completed={self.completed})"
        )
