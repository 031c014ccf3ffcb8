"""The per-shard execution plan of the parallel runtime.

:class:`CompiledShardPlan` lowers a :class:`~repro.engine.planner.QueryPlan`
through :func:`~repro.engine.compiler.compile_plan`, and every shard
worker drives its own compiled executor
(:meth:`~repro.engine.compiler.CompiledPlan.open`) with one push
protocol — ``feed_batch`` / ``feed_elements`` (buffer disordered
ingress), ``feed_punctuation`` (advance the shard pipeline, return the
round's output items), ``feed_flush`` (end of stream) — which is
exactly the ``sort → query`` stage a shard runs in
:func:`repro.engine.sharded.shard_disordered`; equivalence between the
two is the runtime's core invariant.

Output items a round may produce (worker ships them as frames in this
order): ``("batch", EventBatch)`` for columnar rows,
``("fbatch", (sync, other, keys, values))`` for float-valued rows
(native float64 columns — the avg hot path), ``("elements",
[Event, ...])`` for row-shaped output, and ``("punct", ts)`` for an
emitted punctuation.
"""

from __future__ import annotations

import numpy as np

from repro.engine.batch import EventBatch
from repro.engine.compiler import (
    UnsupportedPlanError,
    compile_plan,
    ingest_reason,
)

__all__ = ["CompiledShardPlan"]


class CompiledShardPlan:
    """Run a compiled fused kernel pipeline inside each shard worker.

    ``plan`` is any :class:`~repro.engine.planner.QueryPlan` the fused
    compiler lowers (:func:`~repro.engine.compiler.compile_plan` runs at
    construction time and raises
    :class:`~repro.engine.compiler.UnsupportedPlanError` for shapes it
    cannot).  Each worker drives its own compiled executor
    (:meth:`~repro.engine.compiler.CompiledPlan.open`) — columnar sort
    plus the plan's terminal kernel — over the routed columns, so the
    per-shard pipeline is byte-identical to the plan's row operators
    on that shard, and therefore the merged stream is byte-identical
    to :func:`~repro.engine.sharded.shard_disordered`.  The output wire
    mode is the terminal kernel's ``wire``.  ``memory_budget`` bounds
    each shard sorter's resident bytes via the spill-to-disk external
    sorter.

    The coordinator's deterministic RAISE guard engages when the shard
    pipeline applies no sync transform before the sorter (``window=1``,
    ``align="post"``) or exactly one window stage (``window=hop``,
    ``align="pre"``); a plan with filter stages disables the guard
    (``window=None``) because a guard would fire on events the shard
    pipeline filters out before its sorter — those plans surface worker
    ``LateEventError`` frames instead.
    """

    def __init__(self, plan, memory_budget=None):
        self.compiled = compile_plan(plan)
        self.memory_budget = memory_budget
        self.late_policy = self.compiled.late_policy
        stages = self.compiled.stages
        if not stages:
            self.window = 1
            self.align = "post"
        elif len(stages) == 1 and stages[0].name == "window":
            self.window = stages[0].hop
            self.align = "pre"
        else:
            self.window = None     # disables the coordinator RAISE guard
            self.align = "post"
        self.wire_mode = self.compiled.wire
        # The coordinator decodes this plan's DATA frames as scalar
        # payloads (single int64 value column) in "int" mode.
        self.scalar_output = self.wire_mode == "int"

    def build_executor(self, shard):
        return _ShardExecutor(
            self.compiled.open(self.memory_budget), self.wire_mode,
            self.compiled.describe(),
        )

    def describe(self):
        return {
            "plan": "compiled",
            "kernels": self.compiled.describe(),
            "late_policy": self.late_policy.name,
            "wire": self.wire_mode,
        }


def refuse_string_columns(batch):
    """Refuse a batch whose string columns the int64 shard columns
    cannot carry, with the single-process compiler's non-int reason,
    instead of dropping them."""
    if batch.string_columns:
        raise UnsupportedPlanError("event payloads are not integer columns")


class _ShardExecutor:
    """Drive one shard's compiled executor with the shard push protocol.

    Each round's ``(events, punctuations)`` leaves as wire items, events
    first, then the round's punctuation — the order the wire protocol
    requires — with the events packaged per the wire ``mode``
    (``"pickle"`` ships them as they are).
    """

    def __init__(self, executor, mode, kernels):
        self._executor = executor
        self._mode = mode
        self._kernels = kernels
        self.events_in = 0

    def feed_batch(self, batch):
        refuse_string_columns(batch)
        batch = batch.compact()
        n = len(batch)
        if n:
            self._executor.feed(
                batch.sync_times, batch.other_times, batch.keys,
                list(batch.payload_columns),
            )
        self.events_in += n

    def feed_elements(self, elements):
        # Per-event ingress the int64 columns cannot carry arrives here
        # pickled; refuse it exactly as the single-process compiler
        # does instead of truncating it.
        reason = ingest_reason(elements)
        if reason is not None:
            raise UnsupportedPlanError(reason)
        self._executor.feed_events(elements)
        self.events_in += len(elements)

    def feed_punctuation(self, timestamp):
        return self._package(*self._executor.punctuate(timestamp))

    def feed_flush(self):
        return self._package(*self._executor.flush())

    def _package(self, events, puncts):
        items = self._rows(events) if events else []
        items.extend(("punct", int(ts)) for ts in puncts)
        return items

    def _rows(self, events):
        mode = self._mode
        if mode == "pickle":
            return [("elements", events)]
        n = len(events)
        sync = np.fromiter((e.sync_time for e in events), np.int64, n)
        other = np.fromiter((e.other_time for e in events), np.int64, n)
        keys = np.fromiter((e.key for e in events), np.int64, n)
        dtype = np.float64 if mode == "float" else np.int64
        try:
            values = np.asarray([e.payload for e in events], dtype)
        except OverflowError:
            # An exact sum beyond int64 rides as row-shaped output.
            return [("elements", events)]
        if mode == "float":
            return [("fbatch", (sync, other, keys, values))]
        # "int": one value column; "tuple": one column per field.
        cols = [values] if mode == "int" else list(values.T.copy())
        return [("batch", EventBatch(sync, other, keys, cols))]

    def stats(self):
        return {
            "plan": "compiled",
            "kernels": self._kernels,
            "events_in": self.events_in,
            **self._executor.stats(),
        }
