"""Supervised execution: one loop for retry, restart, replay and
exactly-once delivery.

:class:`_Supervisor` is the one supervision loop.  A client supplies
the *target* — a pipeline (:class:`PipelineSupervisor`) or a keyless
sorter (:class:`~repro.resilience.sorter.SorterSupervisor`) — and how
an element enters it.  The loop owns the rest:

* every element pulled from the source is appended to an in-memory
  **journal**, the stand-in for a durable ingress log;
* **transient source failures** (``RetryPolicy.handles``) are retried
  in place with seeded exponential backoff through one injectable
  sleeper; they raise before the element is consumed, so none is lost;
* the **ingress guard** quarantines malformed elements, regressing
  punctuations and (optionally) consecutive duplicates into a
  :class:`~repro.resilience.quarantine.QuarantineLedger`;
* any other non-semantic failure closes the attempt and **restarts**
  from the last checkpoint within ``max_restarts``;
  :class:`~repro.core.errors.ReproError` (bad queries, strict late
  policies without quarantine, replay divergence) fails fast;
* delivery is **exactly once**: a replay's re-emitted outputs are
  verified against what was delivered and suppressed.

A checkpoint is (journal offset, delivered counts, ledger mark, ingress
guard position, target state or ``None``).  Recovery restores the state,
or builds a fresh target when it is ``None``, and replays the journal
from the offset.  Every ``checkpoint_every`` punctuations the loop
records the position and asks the client for its state: a sorter has a
compact one, so the checkpoint moves there and the journal is truncated
(recovery in O(state + delta)).  Pipeline operator state has none, so a
pipeline's checkpoint stays at offset 0: replay from zero.
"""

from __future__ import annotations

import asyncio as _asyncio
import random
import time
from collections import namedtuple

from repro.core.errors import (
    MalformedEventError,
    ReplayDivergenceError,
    ReproError,
    SpillCorruptionError,
    SupervisionExhaustedError,
)
from repro.engine.checkpoint import release_checkpoint
from repro.engine.event import Punctuation, is_punctuation
from repro.engine.graph import Pipeline, QueryNode
from repro.engine.operators.sink import Collector
from repro.resilience.chaos import FaultInjector
from repro.resilience.quarantine import QuarantineLedger, Reason

__all__ = [
    "PipelineSupervisor",
    "RetryPolicy",
    "SupervisedResult",
    "run_supervised",
]

_EXHAUSTED = object()


#: Exception types a :class:`RetryPolicy` treats as transient by default.
#: ``TimeoutError`` (builtin) already subclasses :class:`OSError`, but
#: ``asyncio.TimeoutError`` only aliases it from Python 3.11 — on 3.10 a
#: deadline expiry (``asyncio.wait_for``) raises a distinct class, so it
#: is listed explicitly.
_DEFAULT_RETRY_ON = (OSError, TimeoutError, _asyncio.TimeoutError)


class RetryPolicy:
    """Deterministic exponential backoff with seeded jitter.

    ``delay(attempt)`` returns ``min(base * multiplier**attempt,
    max_delay)`` stretched by a jitter factor in ``[1, 1 + jitter]``
    drawn from a seeded RNG — deterministic for tests, decorrelated in
    fleets where each worker seeds differently.

    ``retry_on`` classifies which exceptions count as transient:
    ``handles(exc)`` is consulted by every retry loop (the supervisor's
    source pulls, the serve layer's client writes).  The default covers
    transient I/O *and* expired per-operation deadlines —
    ``TimeoutError`` and ``asyncio.TimeoutError`` — so a deadline-bound
    operation retries on the same seeded schedule as a failed one.
    """

    def __init__(self, max_retries=5, base_delay=0.05, multiplier=2.0,
                 max_delay=5.0, jitter=0.5, seed=0, retry_on=None):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.retry_on = (
            _DEFAULT_RETRY_ON if retry_on is None else tuple(retry_on)
        )
        self._rng = random.Random(seed)

    def handles(self, exc) -> bool:
        """True when ``exc`` is transient under this policy."""
        return isinstance(exc, self.retry_on)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(
            self.base_delay * self.multiplier ** attempt, self.max_delay
        )
        return base * (1.0 + self.jitter * self._rng.random())

    def __repr__(self):
        return (
            f"RetryPolicy(max_retries={self.max_retries}, "
            f"base={self.base_delay}, x{self.multiplier}, "
            f"max={self.max_delay}, jitter={self.jitter})"
        )


class _DeliveryChannel:
    """Exactly-once output ledger for one output of a supervised run.

    Holds everything delivered so far across restarts.  During a
    recovery replay the re-emitted outputs are verified element-by-element
    against the already-delivered record (catching non-deterministic
    targets) and suppressed; only genuinely new output is appended and
    forwarded to the user callback.
    """

    __slots__ = ("events", "punctuations", "completed", "suppressed",
                 "on_event", "_seen_events", "_seen_puncts")

    def __init__(self, on_event=None):
        self.events = []
        self.punctuations = []
        self.completed = False
        #: re-emitted outputs verified and suppressed during replays.
        self.suppressed = 0
        self.on_event = on_event
        self._seen_events = 0
        self._seen_puncts = 0

    def begin_attempt(self, events=0, punctuations=0):
        """Start an attempt at its checkpoint's delivered counts."""
        self._seen_events = events
        self._seen_puncts = punctuations

    def accept_event(self, event):
        index = self._seen_events
        self._seen_events += 1
        if index < len(self.events):
            if event != self.events[index]:
                raise ReplayDivergenceError(
                    f"replayed output #{index} diverged: delivered "
                    f"{self.events[index]!r}, replay produced {event!r}"
                )
            self.suppressed += 1
            return
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)

    def accept_punctuation(self, punctuation):
        index = self._seen_puncts
        self._seen_puncts += 1
        if index < len(self.punctuations):
            if punctuation.timestamp != self.punctuations[index]:
                raise ReplayDivergenceError(
                    f"replayed punctuation #{index} diverged: delivered "
                    f"{self.punctuations[index]!r}, replay produced "
                    f"{punctuation.timestamp!r}"
                )
            return
        self.punctuations.append(punctuation.timestamp)

    def accept_flush(self):
        self.completed = True


#: Where recovery restarts: ``delivered`` holds each channel's ``(events,
#: punctuations)``, ``ledger`` a ledger mark and ``ingress`` the guard's
#: ``(last punctuation, last event, punctuation count)``.
_Checkpoint = namedtuple(
    "_Checkpoint", "offset delivered ledger ingress state"
)
_START = _Checkpoint(0, (), None, (None, None, 0), None)


class _Supervisor:
    """The one supervision loop (see the module docstring).

    A client creates ``_channels`` (by its first ``_build``) and supplies
    the target: ``_build(state)`` (fresh for ``None``), ``_classify`` →
    ``("event", value)``, ``("punct", timestamp)`` or ``(None, None)``
    (malformed), ``_insert``, ``_punctuate``, ``_finish`` and optionally
    ``_snapshot`` (a :mod:`repro.engine.checkpoint` state) and
    ``_on_failure``.
    """

    def __init__(self, *, checkpoint_every, retry, max_restarts,
                 quarantine, dedupe, chaos, seed, sleep):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_restarts = max_restarts
        if quarantine is True:
            quarantine = QuarantineLedger()
        self.ledger = quarantine
        if chaos is None or isinstance(chaos, FaultInjector):
            self.injector = chaos
        else:
            self.injector = FaultInjector(chaos, seed)
        if dedupe is None:
            dedupe = bool(self.injector and self.injector.spec.dup_p > 0)
        self.dedupe = dedupe
        self._sleep = time.sleep if sleep is None else sleep

        #: ingress elements from ``_checkpoint.offset`` on.
        self._journal = []
        self._checkpoint = _START
        self._channels = None
        #: recovery positions, one per ``checkpoint_every`` punctuations.
        self._checkpoints = []
        self.restores = []
        self.restarts = 0
        self.retries = 0
        self.duplicates_suppressed = 0
        self.punctuations_suppressed = 0

    def _snapshot(self, target):
        return None

    def _on_failure(self, exc):
        pass

    def _supervise(self, elements):
        """Drive ``elements`` to completion, surviving crashes; returns
        the last attempt's (fully caught up) target."""
        elements = iter(elements)
        if self.injector is not None:
            elements = self.injector.wrap(elements)
        while True:
            target = self._recover()
            try:
                self._drive(target, elements)
            except SpillCorruptionError as exc:
                # Environmental, like a crash: the checkpoint owns its
                # own pinned spill files and rebuilds a clean twin.
                self._fail(target, exc)
            except ReproError:
                raise  # deterministic semantic failure: restarting can't help
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                self._fail(target, exc)
            else:
                # Every output was delivered: the checkpoint has nothing
                # left to recover.
                release_checkpoint(self._checkpoint.state)
                return target

    def _recover(self):
        """A target at the checkpoint, with the ledger, delivery channels
        and ingress guard rewound to it; ``_drive`` replays the rest."""
        checkpoint = self._checkpoint
        target = self._build(checkpoint.state)
        if self.ledger is not None:
            # Deterministic replay regenerates every later record.
            self.ledger.rollback(checkpoint.ledger)
        delivered = checkpoint.delivered or [(0, 0)] * len(self._channels)
        for channel, counts in zip(self._channels, delivered):
            channel.begin_attempt(*counts)
        # The ingress guard's position.
        self._last_punct, self._last_event, self._punct_count = \
            checkpoint.ingress
        return target

    def _fail(self, target, exc):
        """Close the failed attempt and charge the restart budget."""
        close = getattr(target, "close", None)
        if callable(close):
            close()  # e.g. deletes the attempt's spilled run files
        self.restarts += 1
        if self.restarts > self.max_restarts:
            # Giving up: free the checkpoint's resources (pinned spill
            # files) now rather than leaving them to the GC backstop.
            release_checkpoint(self._checkpoint.state)
            raise SupervisionExhaustedError(
                f"gave up after {self.max_restarts} restarts "
                f"(last failure: {exc!r})"
            ) from exc
        self._on_failure(exc)
        last = self._checkpoints[-1] if self._checkpoints else None
        offset = last["offset"] if last else 0
        self.restores.append({
            "restart": self.restarts,
            "error": repr(exc),
            "from_checkpoint": self._checkpoint.state is not None,
            "checkpoint_offset": offset,
            "checkpoint_watermark": last["watermark"] if last else None,
            "replayed": len(self._journal),
            "delta": self._checkpoint.offset + len(self._journal) - offset,
        })

    def _drive(self, target, elements):
        for index, element in enumerate(
            self._journal, self._checkpoint.offset
        ):
            self._push(target, element, index, replaying=True)
        while True:
            element = self._pull(elements)
            if element is _EXHAUSTED:
                break
            index = self._checkpoint.offset + len(self._journal)
            self._journal.append(element)
            self._push(target, element, index, replaying=False)
        self._finish(target)

    def _pull(self, elements):
        failures = 0
        while True:
            try:
                return next(elements)
            except StopIteration:
                return _EXHAUSTED
            except Exception as exc:
                if not self.retry.handles(exc):
                    raise
                failures += 1
                self.retries += 1
                if failures > self.retry.max_retries:
                    raise SupervisionExhaustedError(
                        f"source failed {failures} consecutive times "
                        f"(last: {exc!r})"
                    ) from exc
                self._sleep(self.retry.delay(failures - 1))

    def _push(self, target, element, index, replaying):
        """Guard and apply the element at journal index ``index``."""
        kind, value = self._classify(element)
        if kind is None:
            if self.ledger is None:
                raise MalformedEventError(element)
            self.ledger.record(
                Reason.MALFORMED, element,
                offset=index, watermark=self._last_punct,
            )
            return
        if kind == "punct":
            if self._last_punct is not None and value < self._last_punct:
                if not replaying:
                    self.punctuations_suppressed += 1
                if self.ledger is not None:
                    self.ledger.record(
                        Reason.PUNCTUATION_REGRESSION, value,
                        previous=self._last_punct,
                    )
                return
            self._last_punct = value
            self._punct_count += 1
            self._punctuate(target, element, value)
            if (
                not replaying
                and self._punct_count % self.checkpoint_every == 0
            ):
                self._take_checkpoint(target, index + 1)
            return
        if self.dedupe and value == self._last_event:
            if not replaying:
                self.duplicates_suppressed += 1
            if self.ledger is not None:
                self.ledger.record(
                    Reason.DUPLICATE, value, watermark=self._last_punct,
                )
            return
        self._last_event = value
        self._insert(target, value)

    def _take_checkpoint(self, target, offset):
        """Record the position ``offset``; with target state, move the
        checkpoint there and truncate the journal it supersedes."""
        self._checkpoints.append({
            "offset": offset,
            "punct_index": self._punct_count,
            "watermark": self._last_punct,
            "delivered": [len(channel.events) for channel in self._channels],
        })
        state = self._snapshot(target)
        if state is None:
            return
        release_checkpoint(self._checkpoint.state)
        self._checkpoint = _Checkpoint(
            offset,
            [(len(channel.events), len(channel.punctuations))
             for channel in self._channels],
            None if self.ledger is None else self.ledger.mark(),
            (self._last_punct, self._last_event, self._punct_count),
            state,
        )
        self._journal.clear()


class SupervisedResult:
    """Everything one supervised execution produced and survived."""

    def __init__(self, supervisor, pipeline, sinks):
        self._channels = supervisor._channels
        #: the last attempt's live pipeline (fully caught up).
        self.pipeline = pipeline
        #: the last attempt's sink operator instances.
        self.collectors = sinks
        self.restarts = supervisor.restarts
        self.retries = supervisor.retries
        self.checkpoints = list(supervisor._checkpoints)
        self.restores = list(supervisor.restores)
        self.duplicates_suppressed = supervisor.duplicates_suppressed
        self.punctuations_suppressed = supervisor.punctuations_suppressed
        self.ledger = supervisor.ledger
        self.guard = supervisor.guard
        self.injector = supervisor.injector
        self.metrics = supervisor.metrics
        self.memory = supervisor.memory

    @property
    def channels(self):
        """Exactly-once delivery channels, one per sink."""
        return list(self._channels)

    @property
    def events(self):
        """Channel 0's delivered events (the single-output case)."""
        return self._channels[0].events

    @property
    def punctuations(self):
        """Channel 0's delivered punctuation timestamps."""
        return self._channels[0].punctuations

    @property
    def completed(self) -> bool:
        return all(channel.completed for channel in self._channels)

    @property
    def outputs_deduplicated(self) -> int:
        """Re-emitted outputs suppressed (and verified) during replays."""
        return sum(channel.suppressed for channel in self._channels)

    def output_events(self, index):
        """Events delivered on the index-th output channel."""
        return self._channels[index].events

    def resilience_doc(self) -> dict:
        """JSON-ready summary for ``PipelineSnapshot``'s resilience field."""
        doc = {
            "restarts": self.restarts,
            "retries": self.retries,
            "checkpoints": len(self.checkpoints),
            "restores": [dict(r) for r in self.restores],
            "outputs_deduplicated": self.outputs_deduplicated,
            "duplicates_suppressed": self.duplicates_suppressed,
            "punctuations_suppressed": self.punctuations_suppressed,
            "quarantine": (
                self.ledger.as_dict() if self.ledger is not None else None
            ),
            "degradations": (
                self.guard.as_dicts() if self.guard is not None else None
            ),
        }
        if self.injector is not None:
            doc["chaos"] = {
                "seed": self.injector.seed,
                "fired": self.injector.summary(),
            }
        return doc

    def __repr__(self):
        return (
            f"SupervisedResult(events={len(self.events)}, "
            f"restarts={self.restarts}, retries={self.retries}, "
            f"deduplicated={self.outputs_deduplicated})"
        )


class PipelineSupervisor(_Supervisor):
    """Drives ``build()``-materialized pipelines until the stream completes.

    Every recovery materializes a fresh pipeline and replays the whole
    journal through it (operator state has no snapshot).

    Parameters
    ----------
    build:
        Zero-argument callable returning ``(pipeline, sinks)`` — a
        freshly materialized :class:`~repro.engine.graph.Pipeline` and
        the list of sink operator instances whose output constitutes
        the run's result.  Called once per attempt.
    elements:
        The ingress element iterable (events + punctuations, arrival
        order).  Consumed exactly once across all attempts.
    checkpoint_every:
        Ingress punctuations between checkpoints (>= 1).
    retry:
        :class:`RetryPolicy` for transient source failures.
    max_restarts:
        Hard-crash restart budget before giving up with
        :class:`~repro.core.errors.SupervisionExhaustedError`.
    quarantine:
        ``True`` (fresh ledger), a
        :class:`~repro.resilience.quarantine.QuarantineLedger`, or
        ``None`` — with a ledger, malformed elements are dead-lettered
        instead of raising, and sorters' ``RAISE`` late policies route
        violations to the ledger instead of killing the run.
    guard:
        Optional :class:`~repro.resilience.degradation.LoadSheddingGuard`.
    dedupe:
        Suppress consecutive duplicate ingress events (at-least-once
        upstreams).  ``None`` auto-enables when the chaos spec injects
        duplicates.
    chaos:
        Optional fault injection — a spec string,
        :class:`~repro.resilience.chaos.ChaosSpec`, or a live
        :class:`~repro.resilience.chaos.FaultInjector` — wrapped around
        the source.
    seed:
        Injector seed when ``chaos`` is a spec.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; reset
        and re-attached per attempt so its final counts describe the
        logical run, not the restarts.
    memory:
        Optional :class:`~repro.framework.memory.MemoryMeter`, sampled
        after every punctuation (reset per attempt).
    on_event:
        Exactly-once delivery callback for channel 0's events.
    on_build:
        Per-attempt hook ``on_build(pipeline)`` (tests use it to wrap
        operators with fault injectors).
    sleep:
        Injectable sleeper for retry backoff (default
        :func:`time.sleep`); tests pass a recorder so nothing blocks.
    """

    def __init__(self, build, elements, *, checkpoint_every=1, retry=None,
                 max_restarts=8, quarantine=None, guard=None, dedupe=None,
                 chaos=None, seed=0, metrics=None, memory=None,
                 on_event=None, on_build=None, sleep=None):
        super().__init__(
            checkpoint_every=checkpoint_every, retry=retry,
            max_restarts=max_restarts, quarantine=quarantine,
            dedupe=dedupe, chaos=chaos, seed=seed, sleep=sleep,
        )
        self._build_pipeline = build
        self._elements = elements
        self.guard = guard
        self.metrics = metrics
        self.memory = memory
        self._on_event = on_event
        self._on_build = on_build

    def run(self) -> SupervisedResult:
        """Drive the stream to completion, surviving crashes; returns the
        exactly-once result."""
        pipeline = self._supervise(self._elements)
        return SupervisedResult(self, pipeline, self._sinks)

    # -- per-attempt setup -------------------------------------------------

    def _build(self, state):
        pipeline, sinks = self._build_pipeline()
        sinks = list(sinks)
        if self._channels is None:
            self._channels = [
                _DeliveryChannel(self._on_event if i == 0 else None)
                for i in range(len(sinks))
            ]
        elif len(sinks) != len(self._channels):
            raise ReproError(
                "build() returned a different number of sinks across "
                "attempts"
            )
        # Deterministic replay regenerates guard decisions and
        # observability counters identically — reset instead of
        # deduplicating.
        if self.guard is not None:
            self.guard.reset()
        if self.metrics is not None:
            self.metrics.reset()
            self.metrics.attach(pipeline)
        if self.memory is not None:
            self.memory.reset()
        if self.ledger is not None:
            for op in pipeline.operators:
                late = getattr(getattr(op, "sorter", None), "late", None)
                if late is not None:
                    late.quarantine = self.ledger
        for channel, sink in zip(self._channels, sinks):
            self._wire_delivery(sink, channel)
        if self._on_build is not None:
            self._on_build(pipeline)
        self._sinks = sinks
        self._source = pipeline.sources[0]
        # Load-guard state, rebuilt by the replay from zero.
        self._high_watermark = float("-inf")
        self._events_pushed = 0
        return pipeline

    @staticmethod
    def _wire_delivery(sink, channel):
        def after(accept):
            def wrap(bound):
                def hook(*args):
                    bound(*args)
                    accept(*args)
                return hook
            return wrap

        sink.instrument({
            "on_event": after(channel.accept_event),
            "on_punctuation": after(channel.accept_punctuation),
            "on_flush": after(channel.accept_flush),
        })

    # -- pushing -----------------------------------------------------------

    @staticmethod
    def _classify(element):
        if is_punctuation(element):
            return "punct", element.timestamp
        sync_time = getattr(element, "sync_time", None)
        if isinstance(sync_time, (int, float)) and \
                not isinstance(sync_time, bool):
            return "event", element
        return None, None

    def _insert(self, pipeline, event):
        if event.sync_time > self._high_watermark:
            self._high_watermark = event.sync_time
        self._source.on_event(event)
        self._events_pushed += 1
        if (
            self.guard is not None
            and self._events_pushed % self.guard.check_interval == 0
        ):
            # Event-interval check: catches punctuation starvation, where
            # no punctuation ever arrives to trigger the guard.
            self._guard_check(pipeline)

    def _punctuate(self, pipeline, punctuation, timestamp):
        self._source.on_punctuation(punctuation)
        if self.memory is not None:
            self.memory.sample(pipeline)
        if self.guard is not None:
            self._guard_check(pipeline)

    def _finish(self, pipeline):
        self._source.on_flush()

    def _guard_check(self, pipeline):
        forced = self.guard.check(pipeline, self._high_watermark)
        if forced is not None and (
            self._last_punct is None or forced >= self._last_punct
        ):
            # Forced punctuations are NOT journaled: the guard is
            # deterministic, so replay re-forces them identically.
            self._last_punct = forced
            self._source.on_punctuation(Punctuation(forced))
            if self.memory is not None:
                self.memory.sample(pipeline)


def run_supervised(stream, **kwargs) -> SupervisedResult:
    """Execute a :class:`~repro.engine.stream.Streamable` under supervision.

    The fault-tolerant counterpart of ``stream.collect()``: the query is
    materialized (re-materialized after every crash), its source driven
    through the supervised ingress loop, and the exactly-once delivered
    output returned as a :class:`SupervisedResult` whose ``events`` are
    byte-identical to an uninterrupted ``collect()``.

    Keyword arguments are :class:`PipelineSupervisor`'s.
    """
    sink_node = QueryNode(
        Collector, ((stream.node, None),), name="collect"
    )

    def build():
        pipeline = Pipeline([sink_node])
        return pipeline, [pipeline.operator_for(sink_node)]

    supervisor = PipelineSupervisor(
        build, stream.source.elements(), **kwargs
    )
    return supervisor.run()
