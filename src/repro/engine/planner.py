"""Automatic sort-as-needed planning (Section IV as an optimizer pass).

The paper exposes operator placement to the user through the
``DisorderedStreamable`` API ("users often have comprehensive
understanding of these long-running streaming queries").  This module
adds the other ergonomic: write the query in the naive
sort-everything-first order and let the planner hoist order-insensitive
operators below the sorting operator automatically.

Rewrite rule: the maximal contiguous block of order-insensitive
operators immediately following the sort commutes with it (sorting only
permutes rows; selection/projection/window transformations are
row-local), so the block moves onto the disordered side with its
internal order intact.  An order-sensitive operator terminates the
block — anything after it may depend on aggregate shapes and must stay.

Example
-------
>>> plan = (QueryPlan().sort().where(lambda e: e.key < 5)
...         .tumbling_window(1000).count())
>>> plan.optimized().describe()
['where', 'tumbling_window', 'sort', 'count']
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import QueryBuildError
from repro.core.late import LatePolicy

__all__ = ["QueryPlan"]

#: Operator methods that commute with the sorting operator.
ORDER_INSENSITIVE = frozenset({
    "where", "select", "select_columns", "tumbling_window",
    "hopping_window", "alter_duration", "clip_duration",
})

#: Order-sensitive methods available on ordered streams only.
ORDER_SENSITIVE = frozenset({
    "aggregate", "count", "group_aggregate", "top_k", "pattern_match",
    "coalesce", "session_window", "distinct", "group_apply",
    "snapshot_aggregate", "self_join",
})

_SORT = "sort"


def _sync_time_key(event):
    return event.sync_time


@dataclass(frozen=True)
class _Step:
    method: str
    args: tuple
    kwargs: tuple  # sorted (name, value) pairs, hashable

    def apply(self, stream):
        return getattr(stream, self.method)(
            *self.args, **dict(self.kwargs)
        )


class QueryPlan:
    """An ordered logical plan with exactly one sort step.

    Build it fluently (every :data:`ORDER_INSENSITIVE` /
    :data:`ORDER_SENSITIVE` method plus ``sort()`` appends a step), then
    ``optimized()`` applies the push-down rewrite and ``bind()``
    instantiates it over a ``DisorderedStreamable``.
    """

    def __init__(self, steps=()):
        self._steps = tuple(steps)

    # -- construction -------------------------------------------------------

    def _append(self, method, args, kwargs):
        step = _Step(method, tuple(args), tuple(sorted(kwargs.items())))
        return QueryPlan(self._steps + (step,))

    def sort(self, sorter=None, late_policy=None) -> "QueryPlan":
        """Place the sorting operator at this point of the plan.

        ``sorter`` is an opaque zero-argument factory (forces the row
        engine); ``late_policy`` configures the default Impatience
        sorter's late handling and stays compilable.
        """
        if any(step.method == _SORT for step in self._steps):
            raise QueryBuildError("plan already contains a sort step")
        if sorter is not None and late_policy is not None:
            raise QueryBuildError(
                "pass either a sorter factory or a late_policy, not both"
            )
        kwargs = {}
        if sorter:
            kwargs["sorter"] = sorter
        if late_policy is not None:
            kwargs["late_policy"] = late_policy
        return self._append(_SORT, (), kwargs)

    def __getattr__(self, name):
        if name in ORDER_INSENSITIVE or name in ORDER_SENSITIVE:
            def add(*args, **kwargs):
                return self._append(name, args, kwargs)

            return add
        raise AttributeError(name)

    # -- inspection ---------------------------------------------------------

    @property
    def steps(self):
        return self._steps

    def describe(self):
        """Method names in plan order (for tests and EXPLAIN output)."""
        return [step.method for step in self._steps]

    def explain(self) -> str:
        """Human-readable plan listing, marking the sort boundary and
        naming the execution path the compiler would choose."""
        lines = []
        for step in self._steps:
            marker = ">>" if step.method == _SORT else "  "
            lines.append(f"{marker} {step.method}")
        try:
            from repro.engine.compiler import analyze_plan

            path, reason = analyze_plan(self)
        except QueryBuildError:
            return "\n".join(lines)
        if path == "columnar":
            lines.append("-- path: columnar (fused kernel pipeline)")
        else:
            lines.append(f"-- path: row (fallback: {reason})")
        return "\n".join(lines)

    # -- optimization ---------------------------------------------------------

    def _sort_index(self) -> int:
        for index, step in enumerate(self._steps):
            if step.method == _SORT:
                return index
        raise QueryBuildError("plan has no sort step")

    def validate(self):
        """Check placement legality (pre-sort steps must be insensitive)."""
        index = self._sort_index()
        for step in self._steps[:index]:
            if step.method not in ORDER_INSENSITIVE:
                raise QueryBuildError(
                    f"{step.method}() appears before the sort but is "
                    "order-sensitive"
                )
        return self

    def optimized(self) -> "QueryPlan":
        """Hoist the insensitive block following the sort above it."""
        self.validate()
        index = self._sort_index()
        pre = list(self._steps[:index])
        sort_step = self._steps[index]
        post = list(self._steps[index + 1:])
        hoisted = []
        while post and post[0].method in ORDER_INSENSITIVE:
            hoisted.append(post.pop(0))
        return QueryPlan(pre + hoisted + [sort_step] + post)

    # -- execution ------------------------------------------------------------

    def bind(self, disordered):
        """Instantiate over a ``DisorderedStreamable``; returns the final
        ordered ``Streamable`` ready to ``collect()``."""
        return self._bind(disordered, None)

    def _bind(self, disordered, memory_budget):
        """:meth:`bind`, with the sort step on a spilling sorter bounded
        to ``memory_budget`` bytes when that is not ``None``."""
        self.validate()
        index = self._sort_index()
        stream = disordered
        for step in self._steps[:index]:
            stream = step.apply(stream)
        sort_kwargs = dict(self._steps[index].kwargs)
        sorter = sort_kwargs.get("sorter")
        late_policy = sort_kwargs.get("late_policy")
        if memory_budget is not None:
            if sorter is not None:
                raise QueryBuildError(
                    "memory_budget requires the default sorter; the plan "
                    "carries a custom sorter factory"
                )
            from repro.sorting.external import ExternalImpatienceSorter

            def sorter():
                return ExternalImpatienceSorter(
                    memory_budget, key=_sync_time_key,
                    late_policy=late_policy or LatePolicy.DROP,
                )
        elif sorter is None and late_policy is not None:
            from repro.core.impatience import ImpatienceSorter

            def sorter():
                return ImpatienceSorter(
                    key=_sync_time_key, late_policy=late_policy
                )

        stream = stream.to_streamable(sorter=sorter)
        for step in self._steps[index + 1:]:
            stream = step.apply(stream)
        return stream

    def run(self, source, punctuation_frequency=None, reorder_latency=0,
            engine="auto", batch_size=8192, metrics=None,
            memory_budget=None):
        """Execute the plan over a dataset, raw event list, or ingress
        ``DisorderedStreamable``; returns a Collector-shaped
        :class:`~repro.engine.compiler.PlanResult`.

        ``engine`` selects the backend: ``"auto"`` (compile when
        possible, silent row fallback), ``"columnar"`` (compile or
        raise), or ``"row"``.  ``memory_budget`` (bytes, or a string
        like ``"64MB"``) bounds the sorter's resident buffer; cold runs
        spill to disk and the output stays byte-identical.
        """
        from repro.engine.compiler import execute_plan

        if memory_budget is not None:
            from repro.sorting.external import parse_memory_budget

            memory_budget = parse_memory_budget(memory_budget)
        return execute_plan(
            self, source, punctuation_frequency=punctuation_frequency,
            reorder_latency=reorder_latency, engine=engine,
            batch_size=batch_size, metrics=metrics,
            memory_budget=memory_budget,
        )
