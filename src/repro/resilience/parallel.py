"""Supervised execution of the parallel shard runtime.

Worker processes can die — OOM-killed, segfaulted, power-cycled — which
the coordinator surfaces as
:class:`~repro.core.errors.WorkerCrashError` carrying the dead shard's
last *acknowledged* ingress-journal offset.  This module adds the
recovery loop on top, honoring the PR 2 supervisor semantics:

- **Journal**: the full ingress element sequence is materialized before
  the first attempt (the coordinator already stamps its offsets onto
  every punctuation frame), so any attempt can be replayed exactly.
- **Restart + replay**: a crash tears the whole pool down (shard worker
  state lives in process memory, so the crashed shard must rebuild from
  offset 0; restarting only the survivors would desynchronize rounds),
  forks a fresh pool, and replays the journal.
- **Exactly-once delivery**: outputs stream through a
  :class:`~repro.resilience.supervisor._DeliveryChannel`-style ledger —
  the replayed prefix is verified element-by-element against what was
  already delivered (``ReplayDivergenceError`` on mismatch, catching
  non-determinism) and suppressed; only new output reaches the caller.
- **Budget**: ``max_restarts`` crashes are absorbed; the next one
  raises :class:`~repro.core.errors.SupervisionExhaustedError` with the
  final ``WorkerCrashError`` as ``__cause__``.

Semantic failures (``ReproError``: late events under RAISE, punctuation
regressions) are *not* retried — replaying deterministic input cannot
fix them, exactly like the single-process supervisor.
"""

from __future__ import annotations

from repro.core.errors import (
    ReproError,
    SupervisionExhaustedError,
    WorkerCrashError,
)
from repro.engine.event import is_punctuation
from repro.resilience.supervisor import _DeliveryChannel

__all__ = ["run_parallel_supervised", "SupervisedParallelResult"]


class SupervisedParallelResult:
    """Merged output plus the recovery ledger of a supervised run."""

    def __init__(self, channel, parallel, crashes, elements):
        self.events = channel.events
        self.punctuations = channel.punctuations
        self.completed = channel.completed
        self.parallel = parallel
        #: :class:`WorkerCrashError` instances absorbed, in order.
        self.crashes = crashes
        self.duplicates_suppressed = channel.suppressed
        #: the exact interleaved output stream (events + punctuations) of
        #: the final, completed attempt — feed it to a plan's ``finalize``
        #: query via ``Streamable.from_elements`` when one is configured.
        self.elements = elements

    @property
    def restarts(self) -> int:
        return len(self.crashes)

    def resilience_doc(self) -> dict:
        """Summary in the shape of ``SupervisedResult.resilience_doc``,
        for the observability snapshot's ``resilience`` section."""
        return {
            "mode": "parallel",
            "restarts": self.restarts,
            "duplicates_suppressed": self.duplicates_suppressed,
            "crashes": [
                {
                    "shard": crash.shard,
                    "journal_offset": crash.journal_offset,
                    "exitcode": crash.exitcode,
                }
                for crash in self.crashes
            ],
            "completed": self.completed,
        }


def run_parallel_supervised(ingress, plan, workers, *, max_restarts=2,
                            on_event=None, fault=None,
                            **run_kwargs) -> SupervisedParallelResult:
    """Run :func:`repro.parallel.run_parallel` under crash supervision.

    ``ingress`` is materialized into the replay journal up front.
    ``on_event`` receives each output event exactly once, across any
    number of worker crashes and replays.  Remaining keyword arguments
    are forwarded to ``run_parallel`` (``batch_size``, ``merge``, …);
    ``fault`` is forwarded on the *first* attempt only — combined with
    :func:`repro.parallel.crash_once` it scripts the crash the recovery
    tests assert on.

    Plans with a coordinator ``finalize`` stage deliver (and record) the
    merged *pre-finalize* stream — apply the finalize query to the
    result's ``elements`` afterwards if needed
    (``plan.finalize(Streamable.from_elements(result.elements))``).
    """
    from repro.parallel.runtime import run_parallel

    journal = list(ingress)
    channel = _DeliveryChannel(on_event)
    crashes = []
    attempt_elements = []

    def deliver(element):
        attempt_elements.append(element)
        if is_punctuation(element):
            channel.accept_punctuation(element)
        else:
            channel.accept_event(element)

    while True:
        channel.begin_attempt()
        attempt_elements.clear()
        attempt_fault = fault if not crashes else None
        try:
            result = run_parallel(
                iter(journal), plan, workers, fault=attempt_fault,
                deliver=deliver, **run_kwargs,
            )
        except WorkerCrashError as crash:
            crashes.append(crash)
            if len(crashes) > max_restarts:
                raise SupervisionExhaustedError(
                    f"gave up after {len(crashes)} worker crashes "
                    f"(budget: {max_restarts} restarts)"
                ) from crash
            continue
        except ReproError:
            raise
        channel.accept_flush()
        return SupervisedParallelResult(
            channel, result.parallel, crashes, list(attempt_elements)
        )
