"""Fused columnar query compiler: ``QueryPlan`` -> numpy kernel pipeline.

The row operator DAG is the reference semantics; this module is the
engine's single-process fast path.  ``compile_plan`` lowers a
:class:`~repro.engine.planner.QueryPlan` whose shape it understands onto
a fused pipeline of :mod:`repro.engine.kernels` stages around a
:class:`~repro.core.columnar.ColumnarImpatienceSorter`:

* pre-sort (pushed-down, §IV sort-as-needed): bitmap ``where`` over
  structured predicates (a run of consecutive ``where``s is one filter
  pass that compacts only the columns read later), ``select_columns``
  projection, and tumbling/hopping window alignment — all *below* the
  sort point, so selection shrinks the sorted volume and windowing
  reduces disorder, visible in the sorter's
  :class:`~repro.core.stats.SorterStats`.
  String where-clauses lower here too: order-preserving dictionary
  encoding (:mod:`repro.core.strings`) turns string equality into one
  int64 code comparison (``key_str_eq`` / ``field_str_eq``) and string
  prefix match into one code-range test (``key_str_prefix`` /
  ``field_str_prefix``), so string-keyed plans compile to the exact
  same fused int masks — no byte comparisons, no row-path fallback;
* the columnar sorter itself, carrying the post-stage sync time plus
  the columns the terminal kernel ``reads`` — a windowed aggregate's
  partial state, each chunk folded per (window, key) where it pays — as
  parallel ``int64`` columns (the original sync rides as column 0 so
  ADJUST keeps row-engine semantics: adjusted sort position, original
  window);
* post-sort: one :class:`~repro.engine.kernels.TerminalKernel` — the
  grouped/ungrouped windowed aggregate
  (``count``/``sum``/``avg``/``min``/``max``, reading the key and the
  value) with an optional chained ``top_k``, or ``distinct``,
  ``session_window``, ``coalesce``, ``self_join``, ``pattern_match``,
  ``group_apply`` (over a traceable straight-line body) and raw
  ``top_k``, reading full ``(sync, other, key, payload…)`` rows — fed
  in the sorter's deterministic emission order.

Both engines present one push face.  :meth:`CompiledPlan.open` and
:class:`RowExecution` (the row operators of any bind function) give an
executor with ``feed``/``feed_events`` for ingress, ``punctuate``/
``flush`` returning each round's ``(events, punctuations)``, and
``buffered``/``stats``/``result``/``close``.  ``QueryPlan.run``, the
parallel shard workers and serve's standing queries drive it, so the
fallback is a constructor choice; ``QueryPlan.run``'s one driver
(:func:`_drive`) takes every punctuation from a
:class:`~repro.engine.punctuation.PunctuationPolicy`, the one the row
ingress uses.

Anything else — duration rewrites, opaque Python lambdas, custom
sorters — raises :class:`UnsupportedPlanError` with a human-readable
reason, and :func:`execute_plan` (the engine behind
``QueryPlan.run(engine="auto")``) falls back to the row engine
silently.  Equivalence is byte-for-byte: the compiled path replicates
window close rules, clamped forwarded punctuations, emission order, and
late-policy behavior exactly (differentially fuzzed in
``tests/test_fuzz_queries.py``).
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter

import numpy as np

from repro.core.columnar import ColumnarImpatienceSorter
from repro.core.errors import QueryBuildError
from repro.core.late import LatePolicy
from repro.engine.kernels import (
    AGGREGATE_SPECS,
    CoalesceKernel,
    DistinctKernel,
    GroupApplyKernel,
    PatternKernel,
    Predicate,
    RawTopKKernel,
    SelfJoinKernel,
    SessionKernel,
    WindowAggregateKernel,
    _BinOp,
    _BoolOp,
    _Compare,
    _Const,
    _KeyField,
    _Not,
    _PayloadField,
    _SyncField,
)
from repro.engine.event import Event, Punctuation, is_punctuation
from repro.engine.graph import Pipeline, QueryNode
from repro.engine.operators.aggregates import Avg, Count, Max, Min, Sum
from repro.engine.operators.sink import Collector
from repro.engine.operators.sort import Sort
from repro.engine.punctuation import PunctuationPolicy
from repro.observability.snapshot import PipelineSnapshot

__all__ = [
    "UnsupportedPlanError",
    "CompiledPlan",
    "PlanResult",
    "RowExecution",
    "analyze_plan",
    "compile_plan",
    "execute_plan",
    "ingest_reason",
]

_NEG_INF = float("-inf")

#: Compiled columns hold ints of magnitude below this (int64).
_INT64 = 2 ** 63


class UnsupportedPlanError(Exception):
    """The plan has no columnar lowering; ``reason`` says why."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def _resolve(step, names):
    """Merge a step's positional and keyword arguments by parameter name."""
    values = dict(zip(names, step.args))
    values.update(dict(step.kwargs))
    return values


# ---------------------------------------------------------------------------
# Pre-sort stages: batch transform + punctuation transform, like operators.
# ---------------------------------------------------------------------------


class _WhereStage:
    """A run of consecutive ``where`` steps as one filter pass.

    Predicates are row-local and numpy never raises on them, so the run
    masks the same input rows with every predicate, ANDs the masks and
    compacts once: one ``flatnonzero``, then one gather per column in
    ``keep`` (payload indices plus ``"key"``; ``None`` keeps every
    column).  A column nothing downstream reads leaves as ``None``, so
    payload positions stay stable.
    """

    name = "where"

    def __init__(self, predicates, keep=None):
        self.predicates = tuple(predicates)
        self.keep = keep

    def apply(self, sync, other, keys, cols, metrics=None):
        """Filter one chunk; ``metrics`` (one per predicate) get the
        running AND's in/out counts, as if each predicate ran alone."""
        n = kept = sync.size
        mask = None
        for i, predicate in enumerate(self.predicates):
            t0 = perf_counter()
            step = predicate.mask(sync, keys, cols)
            mask = step if mask is None else mask & step
            n_in, kept = kept, int(np.count_nonzero(mask))
            if metrics is not None:
                metrics[i].note_batch(n_in, kept, perf_counter() - t0)
        if kept == n:
            return sync, other, keys, cols
        t0 = perf_counter()
        rows = np.flatnonzero(mask)
        keep = self.keep
        out = (
            sync[rows],
            None if other is None else other[rows],
            None if keys is None or (keep is not None and "key" not in keep)
            else keys[rows],
            [
                None if col is None or (keep is not None and i not in keep)
                else col[rows]
                for i, col in enumerate(cols)
            ],
        )
        if metrics is not None:
            metrics[-1].busy_s += perf_counter() - t0
        return out

    def transform_punct(self, timestamp):
        return timestamp

    def labels(self):
        return [f"where[{predicate!r}]" for predicate in self.predicates]


class _ProjectStage:
    name = "select_columns"

    def __init__(self, columns):
        self.columns = tuple(columns)

    def apply(self, sync, other, keys, cols):
        return sync, other, keys, [cols[index] for index in self.columns]

    def transform_punct(self, timestamp):
        return timestamp

    def labels(self):
        return [f"select_columns{self.columns}"]


class _WindowStage:
    name = "window"

    def __init__(self, size, hop):
        self.size = size
        self.hop = hop

    def apply(self, sync, other, keys, cols):
        # HoppingWindow.with_times: sync = t - t % hop, other = sync + size.
        # ``other`` is only materialized for pass-through terminals; the
        # aggregate path threads None.
        sync = sync - sync % self.hop
        return (
            sync,
            None if other is None else sync + self.size,
            keys,
            cols,
        )

    def transform_punct(self, timestamp):
        # HoppingWindow.on_punctuation: strongest promise expressible on
        # the aligned stream is one tick below the alignment of T + 1.
        next_raw = timestamp + 1
        return next_raw - next_raw % self.hop - 1

    def labels(self):
        if self.hop == self.size:
            return [f"tumbling_window[{self.size}]"]
        return [f"hopping_window[{self.size},{self.hop}]"]


def _columns_read(node):
    """Payload indices (plus ``"key"``) a structured predicate reads, or
    ``None`` for a node this compiler does not know."""
    if isinstance(node, _PayloadField):
        return {node.index}
    if isinstance(node, _KeyField):
        return {"key"}
    if isinstance(node, (_SyncField, _Const)):
        return set()
    if isinstance(node, (_BinOp, _Compare, _BoolOp)):
        children = (node.lhs, node.rhs)
    elif isinstance(node, _Not):
        children = (node.inner,)
    else:
        return None
    found = set()
    for child in children:
        reads = _columns_read(child)
        if reads is None:
            return None
        found |= reads
    return found


def _fuse_filters(stages, reads):
    """Lower each run of consecutive ``where`` stages to one filter pass
    that keeps only the columns the stages after it read.

    ``reads`` is what the terminal reads: payload indices plus
    ``"key"``, or ``None`` for every column.  A window or projection
    between two ``where``s splits the run; a ``where`` ahead of a
    projection keeps every column.  Returns the fused stages and what
    they read of an ingress chunk, in the same form.
    """
    fused = []
    for stage in reversed(stages):
        if isinstance(stage, _WhereStage):
            if fused and isinstance(fused[-1], _WhereStage):
                later = fused.pop()
                stage = _WhereStage(
                    stage.predicates + later.predicates, later.keep
                )
            else:
                keep = None if reads is None else frozenset(reads)
                stage = _WhereStage(stage.predicates, keep)
            for predicate in stage.predicates:
                found = _columns_read(predicate)
                reads = None if reads is None or found is None \
                    else reads | found
        elif isinstance(stage, _ProjectStage):
            reads = None        # it indexes every payload column
        fused.append(stage)
    fused.reverse()
    return fused, reads


# ---------------------------------------------------------------------------
# Compilation.
# ---------------------------------------------------------------------------


def _lower_aggregate(aggregate):
    """Map a row aggregate instance onto a kernel spec + value column."""
    if type(aggregate) is Count:
        return AGGREGATE_SPECS["count"], None
    for cls, name in ((Sum, "sum"), (Avg, "avg"), (Min, "min"), (Max, "max")):
        if type(aggregate) is cls:
            selector = aggregate.selector
            if not isinstance(selector, _PayloadField):
                raise UnsupportedPlanError(
                    f"{cls.__name__} selector is an opaque Python callable "
                    "(use repro.engine.kernels.field(i))"
                )
            return AGGREGATE_SPECS[name], selector.index
    raise UnsupportedPlanError(
        f"aggregate {type(aggregate).__name__} has no columnar kernel"
    )


def _lower_top_k(step):
    """``k`` of a ``top_k`` step with the default score."""
    values = _resolve(step, ("k", "score_fn"))
    if values.get("score_fn") is not None:
        raise UnsupportedPlanError(
            "top_k() score_fn is an opaque Python callable"
        )
    k = values.get("k")
    if not isinstance(k, int) or k < 1:
        raise UnsupportedPlanError("top_k() k must be a positive int")
    return k


def _require_key_field(key_fn, method):
    """Grouping must use the event key column (None or ``key_field()``)."""
    if key_fn is not None and not isinstance(key_fn, _KeyField):
        raise UnsupportedPlanError(
            f"{method}() key_fn is an opaque Python callable"
        )


class _BodyProbe:
    """Traces a ``group_apply`` body to a straight stage chain.

    The body runs against this probe instead of a real stream: structured
    ``where`` and one window lower onto the same pre-sort stage classes
    (applied *post*-sort inside the kernel — row-local transforms are
    position-independent), and an ``aggregate``/``count`` terminal lowers
    onto the grouped window fold.  Anything else has no columnar kernel.
    """

    def __init__(self):
        self.stages = []
        self.window = None
        self.spec = None
        self.value_index = None
        self._terminated = False

    def _check_open(self, method):
        if self._terminated:
            raise UnsupportedPlanError(
                f"group_apply() body continues with {method}() after its "
                "aggregate"
            )

    def where(self, predicate):
        self._check_open("where")
        if not isinstance(predicate, Predicate):
            raise UnsupportedPlanError(
                "group_apply() body where() predicate is an opaque Python "
                "callable"
            )
        self.stages.append(_WhereStage((predicate,)))
        return self

    def tumbling_window(self, size):
        return self.hopping_window(size, size)

    def hopping_window(self, size, hop=None):
        self._check_open("hopping_window")
        if self.window is not None:
            raise UnsupportedPlanError(
                "group_apply() body has more than one window"
            )
        hop = size if hop is None else hop
        if not isinstance(size, int) or not isinstance(hop, int) \
                or size < 1 or hop < 1:
            raise UnsupportedPlanError(
                "group_apply() body window size/hop must be positive ints"
            )
        self.stages.append(_WindowStage(size, hop))
        self.window = size
        return self

    def count(self):
        return self.aggregate(Count())

    def aggregate(self, aggregate):
        self._check_open("aggregate")
        if self.window is None:
            raise UnsupportedPlanError(
                "group_apply() body aggregates need a tumbling/hopping "
                "window stage"
            )
        self.spec, self.value_index = _lower_aggregate(aggregate)
        self._terminated = True
        return self

    def __getattr__(self, name):
        raise UnsupportedPlanError(
            f"group_apply() body uses {name}(), which has no columnar kernel"
        )


def _probe_group_apply(query_fn):
    """Trace a group_apply body; returns (stages, window, spec, index)."""
    if query_fn is None:
        raise UnsupportedPlanError("group_apply() needs a query_fn")
    probe = _BodyProbe()
    try:
        result = query_fn(probe)
    except UnsupportedPlanError:
        raise
    except Exception as exc:
        raise UnsupportedPlanError(
            f"group_apply() body is an opaque Python callable ({exc})"
        )
    if result is not probe:
        raise UnsupportedPlanError(
            "group_apply() body is an opaque Python callable (it does not "
            "return the traced operator chain)"
        )
    stages, _ = _fuse_filters(probe.stages, None)
    return tuple(stages), probe.window, probe.spec, probe.value_index


def compile_plan(plan) -> "CompiledPlan":
    """Lower ``plan`` onto fused kernels or raise ``UnsupportedPlanError``.

    The plan compiles *as written*: operator placement relative to the
    sort is semantics (pushing a window below the sort changes which
    events count as late), so the compiler never hoists steps itself —
    a plan with order-insensitive steps still above the sort falls back
    to the row engine with a hint to call ``plan.optimized()``.
    Compilation demands: pre-sort steps drawn from structured ``where``
    / ``select_columns`` / window alignment, a default sorter (late
    policy allowed), and a known terminal — a windowed aggregate with an
    optional chained ``top_k``, or one of the pass-through terminals
    (``distinct``, ``session_window``, ``coalesce``, ``self_join``,
    ``pattern_match``, ``group_apply`` over a traceable body, raw
    ``top_k``) lowered onto a :class:`~repro.engine.kernels`
    terminal kernel.
    """
    try:
        plan.validate()
    except QueryBuildError as exc:
        raise UnsupportedPlanError(str(exc))
    steps = plan.steps
    sort_index = next(
        i for i, step in enumerate(steps) if step.method == "sort"
    )
    pre = steps[:sort_index]
    sort_kwargs = dict(steps[sort_index].kwargs)
    post = steps[sort_index + 1:]

    if sort_kwargs.get("sorter") is not None:
        raise UnsupportedPlanError(
            "custom sorter factory is opaque to the compiler"
        )
    late_policy = sort_kwargs.get("late_policy") or LatePolicy.DROP

    stages = []
    window_size = window_hop = None
    for step in pre:
        method = step.method
        if method == "where":
            values = _resolve(step, ("predicate",))
            predicate = values.get("predicate")
            if not isinstance(predicate, Predicate):
                raise UnsupportedPlanError(
                    "where() predicate is an opaque Python callable "
                    "(use repro.engine.kernels field/key_field/sync_field "
                    "expressions)"
                )
            stages.append(_WhereStage((predicate,)))
        elif method == "select_columns":
            values = _resolve(step, ("columns",))
            columns = values.get("columns")
            try:
                columns = tuple(columns)
            except TypeError:
                raise UnsupportedPlanError(
                    "select_columns() expects an iterable of column indices"
                )
            if not columns or not all(
                isinstance(c, int) and c >= 0 for c in columns
            ):
                raise UnsupportedPlanError(
                    "select_columns() indices must be non-negative ints"
                )
            stages.append(_ProjectStage(columns))
        elif method in ("tumbling_window", "hopping_window"):
            values = _resolve(step, ("size", "hop"))
            size = values.get("size")
            hop = size if method == "tumbling_window" \
                else values.get("hop", size)
            if not isinstance(size, int) or not isinstance(hop, int) \
                    or size < 1 or hop < 1:
                raise UnsupportedPlanError(
                    "window size/hop must be positive ints"
                )
            stages.append(_WindowStage(size, hop))
            window_size, window_hop = size, hop
        elif method == "select":
            raise UnsupportedPlanError(
                "select() projector is an opaque Python callable"
            )
        else:
            raise UnsupportedPlanError(
                f"{method}() has no columnar kernel"
            )

    if not post:
        raise UnsupportedPlanError(
            "no windowed aggregate terminal after the sort"
        )
    terminal = post[0]
    if terminal.method in (
        "where", "select", "select_columns", "tumbling_window",
        "hopping_window", "alter_duration", "clip_duration",
    ):
        raise UnsupportedPlanError(
            f"{terminal.method}() runs above the sort; apply "
            "plan.optimized() to push it down for the columnar path"
        )
    rest = list(post[1:])
    method = terminal.method
    if method in ("count", "aggregate", "group_aggregate"):
        values = _resolve(terminal, ("aggregate", "key_fn"))
        _require_key_field(values.get("key_fn"), method)
        spec, value_index = _lower_aggregate(
            Count() if method == "count" else values.get("aggregate")
        )
        top_k = None
        if rest and rest[0].method == "top_k":
            top_k = _lower_top_k(rest.pop(0))
        if rest:
            raise UnsupportedPlanError(
                f"{rest[0].method}() after the aggregate is not vectorized"
            )
        if window_size is None:
            raise UnsupportedPlanError(
                "windowed aggregates need a tumbling/hopping window ahead "
                "of the sort"
            )
        kernel_factory = (  # noqa: E731
            lambda: WindowAggregateKernel(
                method, window_size, spec, value_index, top_k, window_hop
            )
        )
    elif method == "distinct":
        values = _resolve(terminal, ("selector",))
        selector = values.get("selector")
        if selector is None:
            selector_index = None
        elif isinstance(selector, _PayloadField):
            selector_index = selector.index
        else:
            raise UnsupportedPlanError(
                "distinct() selector is an opaque Python callable "
                "(use repro.engine.kernels.field(i))"
            )
        kernel_factory = lambda: DistinctKernel(selector_index)  # noqa: E731
    elif method == "session_window":
        values = _resolve(terminal, ("timeout", "aggregate", "key_fn"))
        _require_key_field(values.get("key_fn"), "session_window")
        timeout = values.get("timeout")
        if not isinstance(timeout, int) or timeout < 1:
            raise UnsupportedPlanError(
                "session_window() timeout must be a positive int"
            )
        session_agg = values.get("aggregate")
        if session_agg is None:
            fold, fold_index = "count", None
        else:
            fold_spec, fold_index = _lower_aggregate(session_agg)
            fold = fold_spec.name
        kernel_factory = (  # noqa: E731
            lambda: SessionKernel(timeout, fold, fold_index)
        )
    elif method == "coalesce":
        values = _resolve(terminal, ("combine", "key_fn"))
        if values.get("combine") is not None:
            raise UnsupportedPlanError(
                "coalesce() combine is an opaque Python callable"
            )
        _require_key_field(values.get("key_fn"), "coalesce")
        kernel_factory = CoalesceKernel
    elif method == "self_join":
        values = _resolve(terminal, ("result_selector",))
        if values.get("result_selector") is not None:
            raise UnsupportedPlanError(
                "self_join() result_selector is an opaque Python callable"
            )
        kernel_factory = SelfJoinKernel
    elif method == "pattern_match":
        values = _resolve(terminal, ("first", "second", "within", "key_fn"))
        first = values.get("first")
        second = values.get("second")
        if not isinstance(first, Predicate) \
                or not isinstance(second, Predicate):
            raise UnsupportedPlanError(
                "pattern_match() step predicates are opaque Python "
                "callables (use repro.engine.kernels "
                "field/key_field/sync_field expressions)"
            )
        within = values.get("within")
        if not isinstance(within, int) or within < 1:
            raise UnsupportedPlanError(
                "pattern_match() within must be a positive int"
            )
        _require_key_field(values.get("key_fn"), "pattern_match")
        kernel_factory = (  # noqa: E731
            lambda: PatternKernel(first, second, within)
        )
    elif method == "group_apply":
        values = _resolve(terminal, ("query_fn", "key_fn"))
        _require_key_field(values.get("key_fn"), "group_apply")
        body_stages, body_window, body_spec, body_index = \
            _probe_group_apply(values.get("query_fn"))
        kernel_factory = (  # noqa: E731
            lambda: GroupApplyKernel(
                body_stages, body_window, body_spec, body_index
            )
        )
    elif method == "top_k":
        # Raw top-k became lowerable once every sorter resolved
        # equal-sync ties by arrival order (tie_break="arrival").
        raw_k = _lower_top_k(terminal)
        kernel_factory = lambda: RawTopKKernel(raw_k)  # noqa: E731
    else:
        raise UnsupportedPlanError(f"{method}() is not vectorized")
    if rest:
        raise UnsupportedPlanError(
            f"{rest[0].method}() after {method}() is not vectorized"
        )
    return CompiledPlan(stages, late_policy, kernel_factory)


def analyze_plan(plan):
    """Which execution path the plan gets: ``(path, reason)``.

    ``("columnar", None)`` when compilation succeeds, else
    ``("row", reason)``.
    """
    try:
        compile_plan(plan)
    except UnsupportedPlanError as exc:
        return "row", exc.reason
    return "columnar", None


# ---------------------------------------------------------------------------
# Per-kernel metrics (operator-shaped for PipelineSnapshot).
# ---------------------------------------------------------------------------


class _KernelMetrics:
    __slots__ = (
        "name", "batches", "events_in", "events_out",
        "punct_in", "punct_out", "busy_s", "peak",
    )

    def __init__(self, name):
        self.name = name
        self.batches = 0
        self.events_in = 0
        self.events_out = 0
        self.punct_in = 0
        self.punct_out = 0
        self.busy_s = 0.0
        self.peak = 0

    def note_batch(self, n_in, n_out, seconds):
        self.batches += 1
        self.events_in += int(n_in)
        self.events_out += int(n_out)
        self.busy_s += seconds

    def note_punct(self, forwarded, seconds=0.0):
        self.punct_in += 1
        if forwarded:
            self.punct_out += 1
        self.busy_s += seconds

    def doc(self) -> dict:
        ns_per_event = (
            self.busy_s * 1e9 / self.events_in if self.events_in else 0.0
        )
        return {
            "name": self.name,
            "events": {"in": self.events_in, "out": self.events_out},
            "punctuations": {"in": self.punct_in, "out": self.punct_out},
            "flushes": 1,
            "busy_s": {
                "event": self.busy_s, "punctuation": 0.0, "flush": 0.0,
                "total": self.busy_s,
            },
            "occupancy": {"peak": self.peak, "samples": 0, "timeline": []},
            "kernel": {
                "batches": self.batches,
                "ns_per_event": ns_per_event,
            },
        }


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------


class PlanResult:
    """Collector-shaped result of ``QueryPlan.run``.

    Mirrors :class:`~repro.engine.operators.sink.Collector` (``events``,
    ``punctuations``, ``completed``, ``sync_times``, ``payloads``) and
    adds ``engine`` (``"columnar"`` or ``"row"``), ``reason`` (why the
    row path was taken, ``None`` on the columnar path), and
    ``snapshot()`` — per-kernel metrics for compiled runs, the attached
    registry's snapshot for row runs.
    """

    def __init__(self, events, punctuations, completed, engine,
                 reason=None, operator_docs=None, registry=None, meta=None,
                 spill=None):
        self.events = events
        self.punctuations = punctuations
        self.completed = completed
        self.engine = engine
        self.reason = reason
        self.spill = spill
        self._operator_docs = operator_docs
        self._registry = registry
        self._meta = dict(meta or {})

    @property
    def sync_times(self):
        return [event.sync_time for event in self.events]

    @property
    def payloads(self):
        return [event.payload for event in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def snapshot(self, meta=None, memory=None):
        """A :class:`PipelineSnapshot` of the execution, or ``None``.

        Columnar runs always carry per-kernel metrics; row runs carry
        one only when a :class:`MetricsRegistry` was attached.
        """
        merged = dict(self._meta)
        merged.update(meta or {})
        merged.setdefault("engine", self.engine)
        if self.reason:
            merged.setdefault("engine_reason", self.reason)
        if self._operator_docs is not None:
            return PipelineSnapshot(
                self._operator_docs, memory=memory, meta=merged,
                spill=self.spill,
            )
        if self._registry is not None:
            return self._registry.snapshot(
                memory=memory, meta=merged, spill=self.spill,
            )
        return None


class CompiledPlan:
    """An executable fused pipeline produced by :func:`compile_plan`:
    pre-sort ``stages``, the sort's ``late_policy`` and the terminal's
    ``kernel_factory``.  ``reads`` is what the stages read of an ingress
    chunk (payload indices plus ``"key"``; ``None`` for every column),
    ``wire`` the terminal kernel's shard wire mode.
    """

    def __init__(self, stages, late_policy, kernel_factory):
        self.late_policy = late_policy
        self.kernel_factory = kernel_factory
        probe = kernel_factory()
        self.wire = probe.wire
        self._kernel_labels = [label for _, label in probe.entries()]
        self.stages, self.reads = _fuse_filters(stages, probe.reads)

    def describe(self):
        """Kernel stage labels in pipeline order (for EXPLAIN output)."""
        labels = [
            label for stage in self.stages for label in stage.labels()
        ]
        labels.append(f"columnar_sort[{self.late_policy.name}]")
        return labels + self._kernel_labels

    def open(self, memory_budget=None):
        """A fresh executor for one stream (see :class:`_Execution`);
        ``memory_budget`` (bytes) spills the sorter's cold runs."""
        return _Execution(self, memory_budget)


class _Execution:
    """The push executor of a compiled plan (:meth:`CompiledPlan.open`).

    Ingress chunks run through the pre-sort stages into the sorter,
    which carries the post-stage sync plus exactly the columns the
    terminal kernel ``reads`` (the full ``(sync, other, key, payload…)``
    row for ``None``); each punctuation or the flush releases one
    sorted round into the kernel, as the sorter's stream of steps, and
    returns what it emitted.
    A windowed aggregate's sorter carries the kernel's partial rows,
    each chunk folded in the presort's place where it pays; ``_held``
    counts the events they stand for.
    """

    def __init__(self, compiled, memory_budget=None):
        self.compiled = compiled
        self.memory_budget = memory_budget
        self.kernel = kernel = compiled.kernel_factory()
        reads = kernel.reads
        self._full = reads is None
        self._keyed = not self._full and "key" in reads
        self._slots = [] if self._full else sorted(
            i for i in reads if i != "key"
        )
        self._partial = isinstance(kernel, WindowAggregateKernel)
        self._held = self._held_peak = 0
        ingress = compiled.reads
        self._ingress_keys = ingress is None or "key" in ingress
        self._ingress_payload = ingress is None or ingress - {"key"}
        # A full row's width is the payload arity, known at the first
        # chunk (``_widen``); until then the row has no payload.
        self.sorter = self._make_sorter(
            3 if self._full else kernel.width if self._partial
            else 1 + self._keyed + len(self._slots)
        )
        self.ingress = _KernelMetrics("ingress")
        # One snapshot entry per row operator: a fused where run gets
        # one per predicate, the aggregate + top-k chain one per kernel.
        self.stage_metrics = [
            [_KernelMetrics(stage.name) for _ in stage.labels()]
            for stage in compiled.stages
        ]
        self.sort_metrics = _KernelMetrics("sort")
        self.kernel_metrics = [
            _KernelMetrics(name) for name, _ in kernel.entries()
        ]

    def _make_sorter(self, columns):
        return ColumnarImpatienceSorter(
            late_policy=self.compiled.late_policy, columns=columns,
            memory_budget=self.memory_budget,
        )

    def _widen(self, width):
        """Rebuild the still-empty sorter ``width`` columns wide, keeping
        the watermark of every punctuation it has seen."""
        old, self.sorter = self.sorter, self._make_sorter(width)
        if old.watermark != _NEG_INF:
            self.sorter.on_punctuation(old.watermark)
        old.close()
        return self.sorter

    # -- dataflow ---------------------------------------------------------

    def _columns(self, events):
        """A non-empty event list as ingress columns: only those the
        stages and the kernel read."""
        n = len(events)
        sync = np.fromiter((event.sync_time for event in events), np.int64, n)
        other = keys = None
        if self._full:
            other = np.fromiter(
                (event.other_time for event in events), np.int64, n
            )
        if self._ingress_keys:
            keys = np.fromiter((event.key for event in events), np.int64, n)
        cols = list(np.asarray(
            [event.payload for event in events], np.int64
        ).T) if self._ingress_payload else []
        return sync, other, keys, cols

    def feed_events(self, events):
        """:meth:`feed` a list of events (validated by
        :func:`ingest_reason`)."""
        if events:
            t0 = perf_counter()
            columns = self._columns(events)
            self.ingress.busy_s += perf_counter() - t0
            self.feed(*columns)

    def feed(self, sync, other, keys, cols):
        """Push one arrival-order chunk of int64 ingress columns;
        ``other`` ``None`` means point events ``[t, t + 1)``."""
        self.ingress.note_batch(sync.size, sync.size, 0.0)
        if not self._full:
            other = None
        elif other is None:
            other = sync + 1
        for stage, metrics in zip(
            self.compiled.stages, self.stage_metrics
        ):
            if stage.name == "where":
                sync, other, keys, cols = stage.apply(
                    sync, other, keys, cols, metrics
                )
                continue
            t0 = perf_counter()
            n_in = sync.size
            sync, other, keys, cols = stage.apply(sync, other, keys, cols)
            metrics[0].note_batch(n_in, sync.size, perf_counter() - t0)
        t0 = perf_counter()
        combine = None
        if self._partial:
            columns = self.kernel.partials(sync, keys, cols)
            combine = self.kernel.combine
        elif self._full:
            columns = (sync, other, keys, *cols)
        else:
            columns = (sync, *((keys,) if self._keyed else ()),
                       *(cols[i] for i in self._slots))
        sorter = self.sorter
        if sorter.columns != len(columns) and not sorter.stats.inserted:
            sorter = self._widen(len(columns))
        rows = sorter.stats.inserted
        admitted = sorter.insert_batch(sync, columns, combine=combine)
        rows = sorter.stats.inserted - rows
        self._held += admitted
        self._held_peak = max(self._held_peak, self._held)
        # The sort stage counts rows: a folded chunk's partial rows.
        self.sort_metrics.note_batch(
            sync.size - admitted + rows, 0, perf_counter() - t0
        )
        self.sort_metrics.peak = sorter.stats.max_buffered

    def punctuate(self, timestamp):
        """Advance to punctuation ``timestamp``; returns the round's
        ``(events, punctuations)``."""
        for stage, metrics in zip(
            self.compiled.stages, self.stage_metrics
        ):
            timestamp = stage.transform_punct(timestamp)
            for metric in metrics:
                metric.note_punct(True)
        return self._downstream(timestamp)

    def flush(self):
        """End of stream: the last round's ``(events, punctuations)``;
        spill files are released."""
        out = self._downstream(None)
        self.close()
        return out

    def _downstream(self, timestamp):
        """Release the round of punctuation ``timestamp`` (``None``: the
        flush) and feed it to the terminal kernel a sorter step at a
        time, then punctuate (or flush) the kernel once; every terminal
        takes this one path.  Pulling a step is the sort stage's time."""
        kernel, sort = self.kernel, self.sort_metrics
        n_in, kernel_s, out = 0, 0.0, []
        t0 = perf_counter()
        for step in self.sorter.release(timestamp):
            t1 = perf_counter()
            sort.busy_s += t1 - t0
            columns = step[1]
            n_in += int(columns[0].size)
            if self._partial:
                self._held -= int(columns[kernel.weight_at].sum())
            out += kernel.ingest(*self._unpack(columns))
            # Drop the step before the sorter reads and merges the next.
            del step, columns
            t0 = perf_counter()
            kernel_s += t0 - t1
        t1 = perf_counter()
        sort.busy_s += t1 - t0
        sort.events_out += n_in
        if timestamp is not None:
            sort.note_punct(True)
        sort.peak = self.sorter.stats.max_buffered
        if timestamp is None:
            closed, puncts = kernel.flush()
        else:
            closed, puncts = kernel.punctuate(timestamp)
        kernel_s += perf_counter() - t1
        # Lazily returned events (window aggregates, sessions, coalesce)
        # box here, outside the kernel's time.
        out.extend(closed)
        kernel.note(
            self.kernel_metrics, n_in, len(out), timestamp is not None,
            bool(puncts), kernel_s,
        )
        return out, puncts

    def _unpack(self, columns):
        """A released round's sorter columns as ``ingest`` arguments:
        unread columns are ``None``, payload columns keep their index."""
        if self._full:
            return columns[0], columns[1], columns[2], list(columns[3:])
        if self._partial:
            keys = columns[1] if self._keyed else None
            return columns[0], None, keys, columns[1 + self._keyed:]
        slots = self._slots
        cols = [None] * (slots[-1] + 1 if slots else 0)
        for slot, column in zip(slots, columns[1 + self._keyed:]):
            cols[slot] = column
        return columns[0], None, columns[1] if self._keyed else None, cols

    def buffered(self) -> int:
        """Events held in the sorter plus the kernel's open state."""
        held = self._held if self._partial else self.sorter.buffered
        return held + self.kernel.buffered()

    def stats(self) -> dict:
        """The sorter's high-water marks and late-event accounting."""
        sorter = self.sorter
        history = sorter.stats.run_count_history
        return {
            "buffered_peak": self._held_peak if self._partial
            else sorter.stats.max_buffered,
            "runs_peak": max((runs for _, runs in history), default=0),
            "late_dropped": sorter.late.dropped,
            "late_adjusted": sorter.late.adjusted,
        }

    # -- result -----------------------------------------------------------

    def result(self, events, punctuations, reason):
        """A flushed run's collected rounds as a :class:`PlanResult`."""
        sorter_doc = self.sort_metrics.doc()
        sorter_doc["sorter"] = self.sorter.stats.as_dict()
        late = self.sorter.late
        sorter_doc["late"] = {
            "policy": late.policy.name,
            "dropped": late.dropped,
            "adjusted": late.adjusted,
        }
        if late.dropped:
            sorter_doc["dropped"] = late.dropped
        spill = None
        if self.memory_budget is not None:
            spill = self.sorter.spill_doc()
            sorter_doc["spill"] = spill
        docs = [self.ingress.doc()]
        docs.extend(
            metric.doc() for metrics in self.stage_metrics
            for metric in metrics
        )
        docs.append(sorter_doc)
        docs.extend(metric.doc() for metric in self.kernel_metrics)
        meta = {
            "engine": "columnar",
            "kernels": self.compiled.describe(),
        }
        if self.memory_budget is not None:
            meta["memory_budget"] = self.memory_budget
        return PlanResult(
            events, punctuations, True, "columnar",
            reason=reason, operator_docs=docs, meta=meta, spill=spill,
        )

    def close(self):
        """Release spill files (idempotent)."""
        self.sorter.close()


class RowExecution:
    """The row engine's push executor, with the face of
    :meth:`CompiledPlan.open`.

    ``bind(disordered, memory_budget)`` maps an empty
    ``DisorderedStreamable`` to the query's ordered ``Streamable``
    (``QueryPlan._bind`` is one); ``metrics`` (a ``MetricsRegistry``)
    is attached before any element flows.  Ingress boxes into
    :class:`~repro.engine.event.Event`\\ s at the pipeline's source; a
    ``Collector`` sink holds what a punctuation or the flush releases
    until the call returns it.
    """

    def __init__(self, bind, memory_budget=None, metrics=None):
        from repro.engine.disordered import DisorderedStreamable

        stream = bind(DisorderedStreamable.from_elements([]), memory_budget)
        node = QueryNode(Collector, ((stream.node, None),), name="collect")
        self.pipeline = Pipeline([node])
        if metrics is not None:
            metrics.attach(self.pipeline)
        self.memory_budget = memory_budget
        self.metrics = metrics
        self._source = self.pipeline.sources[0]
        self._sink = self.pipeline.operator_for(node)
        self.sorter = next(
            op.sorter for op in self.pipeline.operators if isinstance(op, Sort)
        )

    def feed(self, sync, other, keys, cols):
        """Push one chunk of int64 ingress columns as events; ``other``
        ``None`` means point events ``[t, t + 1)``."""
        syncs = sync.tolist()
        others = repeat(None) if other is None else other.tolist()
        payloads = zip(*(col.tolist() for col in cols)) if cols \
            else repeat(())
        self.feed_events(map(Event, syncs, others, keys.tolist(), payloads))

    def feed_events(self, events):
        """Push events in arrival order."""
        on_event = self._source.on_event
        for event in events:
            on_event(event)

    def punctuate(self, timestamp):
        """Advance to punctuation ``timestamp``; returns the round's
        ``(events, punctuations)``."""
        self._source.on_punctuation(Punctuation(timestamp))
        return self._take()

    def flush(self):
        """End of stream: the last round's ``(events, punctuations)``;
        spill files are released."""
        self._source.on_flush()
        out = self._take()
        self.close()
        return out

    def _take(self):
        sink = self._sink
        out = sink.events, sink.punctuations
        sink.events, sink.punctuations = [], []
        return out

    def buffered(self) -> int:
        """Events held by every operator."""
        return self.pipeline.buffered_events()

    def stats(self) -> dict:
        """The sorter's high-water marks and late-event accounting (zero
        where a custom sorter keeps none)."""
        stats = getattr(self.sorter, "stats", None)
        late = getattr(self.sorter, "late", None)
        history = getattr(stats, "run_count_history", ())
        return {
            "buffered_peak": getattr(stats, "max_buffered", 0),
            "runs_peak": max((runs for _, runs in history), default=0),
            "late_dropped": getattr(late, "dropped", 0),
            "late_adjusted": getattr(late, "adjusted", 0),
        }

    def result(self, events, punctuations, reason):
        """A flushed run's collected rounds as a :class:`PlanResult`."""
        meta = {"engine": "row"}
        spill = None
        if self.memory_budget is not None:
            meta["memory_budget"] = self.memory_budget
            spill = self.sorter.spill_doc()
        return PlanResult(
            events, punctuations, True, "row", reason=reason,
            registry=self.metrics, meta=meta, spill=spill,
        )

    def close(self):
        """Release spill files (idempotent)."""
        close = getattr(self.sorter, "close", None)
        if close is not None:
            close()


# ---------------------------------------------------------------------------
# Engine selection: QueryPlan.run's backend.
# ---------------------------------------------------------------------------


def _integral(value):
    """An integer the int64 columns carry as such: ``bool`` is not one
    (the row engine keeps ``True``, a column would give back ``1``)."""
    return isinstance(value, (int, np.integer)) \
        and not isinstance(value, (bool, np.bool_))


def ingest_reason(events):
    """Why a raw event list cannot be columnarized (``None`` if it can):
    every time, key and payload field must be a non-bool integer in
    int64."""
    if not events:
        return None
    first = events[0]
    if not hasattr(first, "sync_time"):
        return "source elements are not events"
    arity = len(first.payload) if isinstance(first.payload, tuple) else -1
    if arity < 0:
        return "event payloads are not tuples"
    for event in events:
        if not hasattr(event, "sync_time"):
            return "source elements are not events"
        payload = event.payload
        if not isinstance(payload, tuple) or len(payload) != arity:
            return "event payload arity is not uniform"
        fields = (("sync_time", event.sync_time),
                  ("other_time", event.other_time), ("key", event.key))
        if not all(_integral(value) for _, value in fields):
            return "event times/keys are not integers"
        if not all(_integral(value) for value in payload):
            return "event payloads are not integer columns"
        for name, value in (*fields, *(("payload field", v) for v in payload)):
            if not -_INT64 <= value < _INT64:
                return f"event {name} {value} does not fit int64"
    return None


def _normalize_source(source, punctuation_frequency, reorder_latency):
    """Classify the source: ``(kind, payload, frequency, latency)``.

    ``kind`` is ``"dataset"``, ``"events"``, or ``"stream"`` (a
    ``DisorderedStreamable`` carrying its own punctuations, which must
    run on the row path).
    """
    from repro.engine.disordered import DisorderedStreamable
    from repro.workloads.base import Dataset

    if isinstance(source, DisorderedStreamable):
        if source._ingress is None:
            return "stream", source, None, None
        return source._ingress
    if isinstance(source, Dataset):
        return "dataset", source, punctuation_frequency, reorder_latency
    events = source if isinstance(source, list) else list(source)
    return "events", events, punctuation_frequency, reorder_latency


def execute_plan(plan, source, punctuation_frequency=None, reorder_latency=0,
                 engine="auto", batch_size=8192, metrics=None,
                 memory_budget=None) -> PlanResult:
    """Run ``plan`` over ``source`` on the requested engine.

    ``engine="auto"`` compiles when possible and falls back to the row
    engine silently (the result's ``reason`` says why);
    ``engine="columnar"`` raises :class:`QueryBuildError` when the plan
    cannot be compiled; ``engine="row"`` always uses the row operators.
    ``memory_budget`` (bytes) bounds the sorter's resident buffer; cold
    sorted runs spill to disk with byte-identical output.  Either
    engine's executor runs under the one driver, :func:`_drive`.
    """
    if engine not in ("auto", "columnar", "row"):
        raise QueryBuildError(
            f"engine must be 'auto', 'columnar', or 'row', not {engine!r}"
        )
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    kind, payload, frequency, latency = _normalize_source(
        source, punctuation_frequency, reorder_latency
    )
    policy = None if kind == "stream" \
        else PunctuationPolicy(frequency, latency)
    compiled = None
    if engine == "row":
        reason = "engine='row' requested"
    elif kind == "stream":
        reason = ("source stream does not expose columnar ingress "
                  "(derived or from_elements)")
    else:
        try:
            compiled = compile_plan(plan)
            # A Dataset's columns were validated when it was built.
            reason = ingest_reason(payload) if kind == "events" else None
        except UnsupportedPlanError as exc:
            reason = exc.reason
        if reason is not None:
            compiled = None
    if compiled is None and engine == "columnar":
        raise QueryBuildError(
            f"engine='columnar' requested but the plan cannot be "
            f"compiled: {reason}"
        )
    if compiled is not None:
        executor = compiled.open(memory_budget)
    elif kind == "stream":
        executor = RowExecution(
            lambda _, budget: plan._bind(payload, budget),
            memory_budget, metrics,
        )
        payload = payload.source.elements()
    else:
        executor = RowExecution(plan._bind, memory_budget, metrics)
    try:
        events, punctuations = _drive(
            executor, kind, payload, policy, batch_size
        )
    finally:
        executor.close()
    return executor.result(events, punctuations, reason)


def _drive(executor, kind, source, policy, batch_size):
    """Push ``source`` through either engine's ``executor`` and flush;
    returns every round's ``(events, punctuations)``, concatenated.

    A ``"stream"`` source carries its own punctuations.  A
    ``"dataset"`` or ``"events"`` source is fed in chunks of at most
    ``batch_size`` rows that end where ``policy`` puts a punctuation,
    and ends with the policy's end-of-data punctuation.
    """
    events, punctuations = [], []

    def collect(round_):
        events.extend(round_[0])
        punctuations.extend(round_[1])
    if kind == "stream":
        run = []
        for element in source:
            if is_punctuation(element):
                executor.feed_events(run)
                run = []
                collect(executor.punctuate(element.timestamp))
            else:
                run.append(element)
        executor.feed_events(run)
    else:
        n = len(source)
        position = 0
        while position < n:
            stop = min(position + batch_size, n)
            room = policy.room()
            if room is not None:
                stop = min(stop, position + room)
            if kind == "dataset":
                sync, keys, cols = source.columns(position, stop)
                high = int(sync.max())
                executor.feed(sync, None, keys, cols)
            else:
                chunk = source[position:stop]
                high = max(event.sync_time for event in chunk)
                executor.feed_events(chunk)
            timestamp = policy.observe_chunk(stop - position, high)
            position = stop
            if timestamp is not None:
                collect(executor.punctuate(timestamp))
        end = policy.final()
        if end is not None:
            collect(executor.punctuate(end))
    collect(executor.flush())
    return events, punctuations
