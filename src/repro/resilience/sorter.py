"""Supervised keyless sorting with true checkpoint/restore.

:class:`SorterSupervisor` is a checkpointing client of the one
supervision loop (:mod:`repro.resilience.supervisor`): retry, the
ingress guard, the restart budget and exactly-once delivery are the
loop's.  What is specific to sorters is the state: a keyless sorter
(in memory or budgeted) has a compact structural checkpoint
(:mod:`repro.engine.checkpoint`), so every ``checkpoint_every``
punctuations the sorter state is snapshotted and the ingress journal is
**truncated** to the delta since the snapshot — recovery costs
O(sorter state + delta) regardless of how much stream has flowed.

The element protocol is the raw-pair form used by the micro-benchmarks:
``("event", value)`` and ``("punct", timestamp)`` tuples.  A corrupt
spill file restarts from the checkpoint and leaves a ``spill:<path>@
<offset>`` quarantine record.
"""

from __future__ import annotations

from repro.core.errors import SpillCorruptionError
from repro.core.impatience import ImpatienceSorter
from repro.engine.checkpoint import checkpoint_sorter, restore_sorter
from repro.resilience.quarantine import Reason
from repro.resilience.supervisor import _DeliveryChannel, _Supervisor

__all__ = ["SorterSupervisor", "SorterResult"]


class SorterResult:
    """Outcome of one supervised sort."""

    def __init__(self, supervisor, sorter):
        channel = supervisor._channels[0]
        #: the totally ordered output, exactly once.
        self.output = channel.events
        #: the last attempt's live sorter.
        self.sorter = sorter
        self.restarts = supervisor.restarts
        self.retries = supervisor.retries
        self.checkpoints = len(supervisor._checkpoints)
        self.restores = list(supervisor.restores)
        self.outputs_deduplicated = channel.suppressed
        self.duplicates_suppressed = supervisor.duplicates_suppressed
        self.punctuations_suppressed = supervisor.punctuations_suppressed
        self.ledger = supervisor.ledger
        self.injector = supervisor.injector
        #: journal elements still held at completion (the delta since the
        #: last checkpoint — the proof that truncation happened).
        self.journal_len = len(supervisor._journal)

    def __repr__(self):
        return (
            f"SorterResult(output={len(self.output)}, "
            f"restarts={self.restarts}, checkpoints={self.checkpoints}, "
            f"journal_len={self.journal_len})"
        )


class SorterSupervisor(_Supervisor):
    """Crash-tolerant driver for a keyless :class:`ImpatienceSorter`.

    Parameters mirror :class:`~repro.resilience.supervisor
    .PipelineSupervisor` where they overlap; ``sorter_factory`` builds
    the initial sorter (restarts restore from the checkpoint instead
    whenever one exists).
    """

    def __init__(self, sorter_factory=None, *, checkpoint_every=1,
                 retry=None, max_restarts=8, quarantine=None, dedupe=None,
                 chaos=None, seed=0, sleep=None):
        super().__init__(
            checkpoint_every=checkpoint_every, retry=retry,
            max_restarts=max_restarts, quarantine=quarantine,
            dedupe=dedupe, chaos=chaos, seed=seed, sleep=sleep,
        )
        self._factory = sorter_factory or ImpatienceSorter
        self._channels = [_DeliveryChannel()]

    def run(self, elements) -> SorterResult:
        """Sort the raw-pair element stream to completion."""
        return SorterResult(self, self._supervise(elements))

    def _build(self, state):
        sorter = self._factory() if state is None else restore_sorter(state)
        if self.injector is not None:
            attach = getattr(sorter, "attach_injector", None)
            if callable(attach):
                attach(self.injector)
        if self.ledger is not None:
            sorter.late.quarantine = self.ledger
        return sorter

    @staticmethod
    def _classify(element):
        if (
            type(element) is tuple
            and len(element) == 2
            and element[0] in ("event", "punct")
            and isinstance(element[1], (int, float))
            and not isinstance(element[1], bool)
        ):
            return element
        return None, None

    def _insert(self, sorter, value):
        sorter.insert(value)

    def _punctuate(self, sorter, element, timestamp):
        for item in sorter.on_punctuation(timestamp):
            self._channels[0].accept_event(item)

    def _finish(self, sorter):
        for item in sorter.flush():
            self._channels[0].accept_event(item)

    _snapshot = staticmethod(checkpoint_sorter)

    def _on_failure(self, exc):
        if self.ledger is None or not isinstance(exc, SpillCorruptionError):
            return
        # Quarantine the poisoned file visibly.  Roll back to the
        # checkpoint mark first (replay regenerates everything past it)
        # and re-mark after, so the record survives rebuilds without
        # ever being doubled.
        self.ledger.rollback(self._checkpoint.ledger)
        self.ledger.record(
            Reason.MALFORMED, f"spill:{exc.path}@{exc.offset}",
            watermark=self._last_punct,
        )
        self._checkpoint = self._checkpoint._replace(
            ledger=self.ledger.mark()
        )
