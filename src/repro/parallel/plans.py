"""Per-shard execution plans for the parallel runtime.

A *plan* describes what one shard worker does with its routed substream.
Every plan builds the same executor over its engine's push face
(:meth:`~repro.engine.compiler.CompiledPlan.open` or
:class:`~repro.engine.compiler.RowExecution`), obeying one push
protocol —
``feed_batch`` / ``feed_elements`` (buffer disordered ingress),
``feed_punctuation`` (advance the shard pipeline, return the round's
output items), ``feed_flush`` (end of stream) — which is exactly the
``sort → query`` stage a shard runs in
:func:`repro.engine.sharded.shard_disordered`; equivalence between the
two is the runtime's core invariant.

Two plan families:

:class:`CompiledShardPlan`
    Vectorized: lowers a :class:`~repro.engine.planner.QueryPlan`
    through :func:`~repro.engine.compiler.compile_plan` and runs the
    fused kernel pipeline (columnar sort + terminal kernel) inside each
    shard worker — every shape the single-process compiler lowers
    (grouped aggregates, sessions, coalesce, joins, patterns,
    group-apply, distinct, top-k) runs compiled *and* parallel.
    Per-shard byte-equivalence with the row operators is the compiler's
    proven invariant, so the merged stream is byte-identical to the
    same plan on :class:`RowPlan` shards.  An optional coordinator-side
    ``finalize`` handles non-key-local tails (global counts, top-k of
    shard top-ks).

:class:`RowPlan`
    Generic fallback: the row engine's face boxes the routed columns
    back into :class:`~repro.engine.event.Event` rows and drives the
    *actual* engine operators (``Sort`` + whatever ``query_fn``
    composes).  Runs
    whatever the compiler rejects — opaque Python callables, custom
    sorters, and a window *above* the sort (``Sort →
    TumblingWindow → aggregate``; the compiler only lowers the §IV
    push-down, window below the sort) — because the fork start method
    ships the closure to the worker as-is.

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
    RowExecution,
    UnsupportedPlanError,
    compile_plan,
    ingest_reason,
)

__all__ = ["RowPlan", "CompiledShardPlan"]


class RowPlan:
    """Run an arbitrary key-local ``query_fn`` on each shard's rows.

    ``sorter`` is an optional zero-argument factory for the per-shard
    online sorter (default: an ``ImpatienceSorter`` keyed on
    ``sync_time``); ``finalize`` is an optional non-key-local query
    applied by the *coordinator* to the merged stream (e.g. a
    ``WindowTopK`` over per-group aggregates); ``pre`` is an optional
    order-insensitive query (``DisorderedStreamable ->
    DisorderedStreamable``, e.g. ``lambda d: d.tumbling_window(w)``)
    run *before* the per-shard sort — the paper's §IV push-down, which
    reduces disorder inside each worker and changes which events count
    as late exactly like it does in the single-process plan.
    """

    def __init__(self, query_fn, sorter=None, finalize=None, pre=None):
        self.query_fn = query_fn
        self.sorter = sorter
        self.finalize = finalize
        self.pre = pre

    def build_executor(self, shard):
        return _ShardExecutor(
            RowExecution(self._bind), "pickle",
            {"plan": "row", "engine": "row"},
        )

    def _bind(self, disordered, memory_budget):
        if self.pre is not None:
            disordered = self.pre(disordered)
        return self.query_fn(disordered.to_streamable(sorter=self.sorter))

    def describe(self):
        return {"plan": "row", "query": getattr(
            self.query_fn, "__name__", "query_fn"
        )}


class CompiledShardPlan:
    """Run a compiled fused kernel pipeline inside each shard worker.

    ``plan`` is any :class:`~repro.engine.planner.QueryPlan` the fused
    compiler lowers (:func:`~repro.engine.compiler.compile_plan` runs at
    construction time and raises
    :class:`~repro.engine.compiler.UnsupportedPlanError` for shapes it
    cannot — callers fall back to :class:`RowPlan` with that reason).
    Each worker drives its own compiled executor
    (:meth:`~repro.engine.compiler.CompiledPlan.open`) — columnar sort
    plus the plan's terminal kernel — over the routed columns, so the
    per-shard pipeline is byte-identical to the same plan on a
    :class:`RowPlan` shard, and therefore so is the merged stream.  The
    output wire mode is the terminal kernel's ``wire``.

    ``finalize`` is the coordinator-side tail for non-key-local stages
    (e.g. summing per-shard window counts, top-k of shard top-ks),
    identical to :class:`RowPlan`'s hook.  ``memory_budget`` bounds each
    shard sorter's resident bytes via the spill-to-disk external sorter.

    The coordinator's deterministic RAISE guard engages when the shard
    pipeline applies no sync transform before the sorter (``window=1``,
    ``align="post"``) or exactly one window stage (``window=hop``,
    ``align="pre"``); a plan with filter stages disables the guard
    (``window=None``) because a guard would fire on events the shard
    pipeline filters out before its sorter — those plans surface worker
    ``LateEventError`` frames instead.
    """

    def __init__(self, plan, finalize=None, memory_budget=None):
        self.query_plan = plan
        self.compiled = compile_plan(plan)
        self.finalize = finalize
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
            self.compiled.open(self.memory_budget), self.wire_mode, {
                "plan": "compiled", "engine": "columnar",
                "kernels": self.compiled.describe(),
            },
        )

    def describe(self):
        return {
            "plan": "compiled",
            "kernels": self.compiled.describe(),
            "late_policy": self.late_policy.name,
            "wire": self.wire_mode,
        }


class _ShardExecutor:
    """Drive one shard's executor — either engine's push face — with the
    shard push protocol.

    Each round's ``(events, punctuations)`` leaves as wire items, events
    first, then the round's punctuation — the order the wire protocol
    requires, which both engines keep within a round — with the events
    packaged per the wire ``mode`` (``"pickle"`` ships them as they
    are).  ``info`` heads :meth:`stats`; its ``engine`` says which face
    this is.
    """

    def __init__(self, executor, mode, info):
        self._executor = executor
        self._mode = mode
        self._info = info
        self._compiled = info["engine"] == "columnar"
        self.events_in = 0

    def feed_batch(self, batch):
        if self._compiled:
            batch = batch.compact()
            n = len(batch)
            if n:
                self._executor.feed(
                    batch.sync_times, batch.other_times, batch.keys,
                    list(batch.payload_columns),
                )
        else:
            # Row events carry the string columns as trailing fields.
            events = list(batch.events())
            n = len(events)
            self._executor.feed_events(events)
        self.events_in += n

    def feed_elements(self, elements):
        if self._compiled:
            # Per-event ingress the int64 columns cannot carry arrives
            # here pickled; refuse it exactly as the single-process
            # compiler does instead of truncating it.
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
            **self._info,
            "events_in": self.events_in,
            **self._executor.stats(),
        }
