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
* the columnar sorter itself, carrying the post-stage sync time, the
  grouping key, and the aggregated value as parallel ``int64`` columns
  (the original window start rides as column 0 so the ADJUST late
  policy keeps row-engine semantics: adjusted sort position, original
  window);
* post-sort: either the grouped/ungrouped windowed-aggregate kernel
  (``count``/``sum``/``avg``/``min``/``max``) with an optional chained
  ``top_k`` kernel, or one of the pass-through terminal kernels —
  ``distinct``, ``session_window``, ``coalesce``, ``self_join``,
  ``pattern_match``, ``group_apply`` (over a traceable straight-line
  body), and raw ``top_k`` — consuming full ``(sync, other, key,
  payload…)`` rows in the sorter's deterministic emission order.

Anything else — duration rewrites, opaque Python lambdas, custom
sorters — raises :class:`UnsupportedPlanError` with a human-readable
reason, and :func:`execute_plan` (the engine behind
``QueryPlan.run(engine="auto")``) falls back to the row engine
silently.  Equivalence is byte-for-byte: the compiled path replicates
ingress punctuation policy, window close rules, clamped forwarded
punctuations, emission order, and late-policy behavior exactly
(differentially fuzzed in ``tests/test_fuzz_queries.py``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.columnar import ColumnarImpatienceSorter
from repro.sorting.external import ExternalColumnarSorter
from repro.core.errors import QueryBuildError
from repro.core.late import LatePolicy
from repro.engine.kernels import (
    AGGREGATE_SPECS,
    CoalesceKernel,
    DistinctKernel,
    GroupApplyKernel,
    GroupedWindowKernel,
    PatternKernel,
    Predicate,
    RawTopKKernel,
    SelfJoinKernel,
    SessionKernel,
    WindowTopKKernel,
    _BinOp,
    _BoolOp,
    _Compare,
    _Const,
    _KeyField,
    _Not,
    _PayloadField,
    _SyncField,
    _window_events,
)
from repro.engine.operators.aggregates import Avg, Count, Max, Min, Sum
from repro.observability.snapshot import PipelineSnapshot

__all__ = [
    "UnsupportedPlanError",
    "CompiledPlan",
    "PlanResult",
    "analyze_plan",
    "compile_plan",
    "execute_plan",
]

_NEG_INF = float("-inf")


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
    between two ``where``s splits the run.
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
        elif isinstance(stage, _ProjectStage) and reads is not None:
            columns = stage.columns
            if any(i != "key" and i >= len(columns) for i in reads):
                reads = None    # the projection raises at run time
            else:
                reads = {
                    "key" if i == "key" else columns[i] for i in reads
                }
        fused.append(stage)
    fused.reverse()
    return fused


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
    stages = _fuse_filters(probe.stages, None)
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
    window_size = None
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
            if method == "tumbling_window":
                values = _resolve(step, ("size",))
                size = values.get("size")
                hop = size
            else:
                values = _resolve(step, ("size", "hop"))
                size = values.get("size")
                hop = values.get("hop", size)
            if not isinstance(size, int) or not isinstance(hop, int) \
                    or size < 1 or hop < 1:
                raise UnsupportedPlanError(
                    "window size/hop must be positive ints"
                )
            stages.append(_WindowStage(size, hop))
            window_size = size
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
    grouped = False
    spec = None
    value_index = None
    kernel_factory = None
    method = terminal.method
    if method == "count":
        spec, value_index = AGGREGATE_SPECS["count"], None
    elif method == "aggregate":
        values = _resolve(terminal, ("aggregate",))
        spec, value_index = _lower_aggregate(values.get("aggregate"))
    elif method == "group_aggregate":
        values = _resolve(terminal, ("aggregate", "key_fn"))
        _require_key_field(values.get("key_fn"), "group_aggregate")
        spec, value_index = _lower_aggregate(values.get("aggregate"))
        grouped = True
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
        values = _resolve(terminal, ("k", "score_fn"))
        if values.get("score_fn") is not None:
            raise UnsupportedPlanError(
                "top_k() score_fn is an opaque Python callable"
            )
        raw_k = values.get("k")
        if not isinstance(raw_k, int) or raw_k < 1:
            raise UnsupportedPlanError("top_k() k must be a positive int")
        kernel_factory = lambda: RawTopKKernel(raw_k)  # noqa: E731
    else:
        raise UnsupportedPlanError(f"{method}() is not vectorized")

    if kernel_factory is not None:
        if rest:
            raise UnsupportedPlanError(
                f"{rest[0].method}() after {method}() is not vectorized"
            )
        return CompiledPlan(
            _fuse_filters(stages, None), late_policy, window_size, None,
            None, False, None, method, kernel_factory=kernel_factory,
        )

    top_k = None
    if rest and rest[0].method == "top_k":
        values = _resolve(rest[0], ("k", "score_fn"))
        if values.get("score_fn") is not None:
            raise UnsupportedPlanError(
                "top_k() score_fn is an opaque Python callable"
            )
        k = values.get("k")
        if not isinstance(k, int) or k < 1:
            raise UnsupportedPlanError("top_k() k must be a positive int")
        top_k = k
        rest = rest[1:]
    if rest:
        raise UnsupportedPlanError(
            f"{rest[0].method}() after the aggregate is not vectorized"
        )
    if window_size is None:
        raise UnsupportedPlanError(
            "windowed aggregates need a tumbling/hopping window ahead of "
            "the sort"
        )
    reads = {"key"} if grouped else set()
    if spec.needs_value:
        reads.add(value_index)
    return CompiledPlan(
        _fuse_filters(stages, reads), late_policy, window_size, spec,
        value_index, grouped, top_k, terminal.method,
    )


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
    """An executable fused pipeline produced by :func:`compile_plan`."""

    def __init__(self, stages, late_policy, window_size, spec, value_index,
                 grouped, top_k, terminal, kernel_factory=None):
        self.stages = stages
        self.late_policy = late_policy
        self.window_size = window_size
        self.spec = spec
        self.value_index = value_index
        self.grouped = grouped
        self.top_k = top_k
        self.terminal = terminal
        # Pass-through terminals consume full rows, so the sorter carries
        # (sync, other, key, *payload) — column count known only once the
        # post-stage payload arity is (at the first chunk).  The aggregate
        # path carries exactly the columns its fold needs.
        self.kernel_factory = kernel_factory
        self.pass_through = kernel_factory is not None
        if self.pass_through:
            self.columns = None
            self.terminal_label = kernel_factory().describe()
        else:
            self.terminal_label = None
            self.columns = 1 + (1 if grouped else 0) + (
                1 if spec.needs_value else 0
            )

    def describe(self):
        """Kernel stage labels in pipeline order (for EXPLAIN output)."""
        labels = [
            label for stage in self.stages for label in stage.labels()
        ]
        labels.append(f"columnar_sort[{self.late_policy.name}]")
        if self.pass_through:
            labels.append(self.terminal_label)
            return labels
        kind = "group_aggregate" if self.grouped else "aggregate"
        labels.append(f"{kind}[{self.spec.name}]")
        if self.top_k is not None:
            labels.append(f"top_k[{self.top_k}]")
        return labels

    def run(self, kind, source, punctuation_frequency=None,
            reorder_latency=0, batch_size=8192, reason=None,
            memory_budget=None):
        """Execute over a ``("dataset", Dataset)`` or ``("events", list)``
        source, replicating the row ingress punctuation policy."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        execution = _Execution(self, memory_budget=memory_budget)
        try:
            return self._drive(
                execution, kind, source, punctuation_frequency,
                reorder_latency, batch_size, reason,
            )
        finally:
            execution.close()

    def _drive(self, execution, kind, source, punctuation_frequency,
               reorder_latency, batch_size, reason):
        n = len(source)
        need_other = self.pass_through
        if kind == "dataset":
            def chunk(start, stop):
                sync, keys, cols = source.columns(start, stop)
                # Dataset ingress events carry the point interval
                # [t, t + 1).
                return sync, (sync + 1 if need_other else None), keys, cols
        else:
            arity = len(source[0].payload) if n else 0

            def chunk(start, stop):
                return _events_chunk(source, start, stop, arity, need_other)
        high_watermark = None
        last_punctuation = _NEG_INF
        position = 0
        frequency = punctuation_frequency
        while position < n:
            if frequency:
                room = frequency - (position % frequency)
            else:
                room = n - position
            stop = min(position + batch_size, position + room, n)
            t0 = perf_counter()
            sync, other, keys, cols = chunk(position, stop)
            execution.ingress.note_batch(
                stop - position, stop - position, perf_counter() - t0
            )
            chunk_max = int(sync.max())
            if high_watermark is None or chunk_max > high_watermark:
                high_watermark = chunk_max
            execution.process_chunk(sync, other, keys, cols)
            position = stop
            if frequency and position % frequency == 0:
                candidate = high_watermark - reorder_latency
                if candidate > last_punctuation:
                    last_punctuation = candidate
                    execution.punctuate(candidate)
        if high_watermark is not None:
            # Ingress appends a final end-of-data punctuation at the high
            # watermark unconditionally (ingress_events).
            execution.punctuate(high_watermark)
        execution.flush()
        return execution.result(reason)


def _events_chunk(events, start, stop, arity, need_other=False,
                  need_keys=True):
    count = stop - start
    chunk = events[start:stop]
    sync = np.fromiter(
        (event.sync_time for event in chunk), np.int64, count
    )
    other = (
        np.fromiter((event.other_time for event in chunk), np.int64, count)
        if need_other else None
    )
    # A caller whose plan never reads the key skips its column.
    keys = (
        np.fromiter((event.key for event in chunk), np.int64, count)
        if need_keys else None
    )
    if arity:
        matrix = np.asarray(
            [event.payload for event in chunk], dtype=np.int64
        )
        cols = [matrix[:, c] for c in range(arity)]
    else:
        cols = []
    return sync, other, keys, cols


class _Execution:
    """One run's mutable state: sorter, kernels, sinks, metrics."""

    def __init__(self, compiled, memory_budget=None):
        self.compiled = compiled
        self.memory_budget = memory_budget
        self.pass_through = compiled.pass_through
        if self.pass_through:
            # Sorter columns = 3 + post-stage payload arity, known only
            # at the first chunk (select_columns changes the arity).
            self.sorter = None
            self.terminal = compiled.kernel_factory()
            self.aggregate = None
            self.topk = None
        else:
            self.sorter = self._make_sorter(compiled.columns)
            self.terminal = None
            self.aggregate = GroupedWindowKernel(
                compiled.window_size, compiled.spec, grouped=compiled.grouped
            )
            self.topk = (
                WindowTopKKernel(compiled.window_size, compiled.top_k)
                if compiled.top_k is not None else None
            )
        self.events = []
        self.punctuations = []
        self.ingress = _KernelMetrics("ingress")
        # One snapshot entry per row operator: a fused where run gets
        # one per predicate.
        self.stage_metrics = [
            [_KernelMetrics(stage.name) for _ in stage.labels()]
            for stage in compiled.stages
        ]
        self.sort_metrics = _KernelMetrics("sort")
        kind = "group_aggregate" if compiled.grouped else compiled.terminal
        self.agg_metrics = _KernelMetrics(kind)
        self.topk_metrics = (
            _KernelMetrics("top_k") if self.topk is not None else None
        )

    def _make_sorter(self, columns):
        if self.memory_budget is None:
            return ColumnarImpatienceSorter(
                late_policy=self.compiled.late_policy, columns=columns
            )
        # Bounded-memory path: byte-identical output, cold runs
        # spill to disk (repro.sorting.external).
        return ExternalColumnarSorter(
            self.memory_budget, late_policy=self.compiled.late_policy,
            columns=columns,
        )

    # -- dataflow ---------------------------------------------------------

    def process_chunk(self, sync, other, keys, cols):
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
        if self.pass_through:
            columns = [sync, other, keys, *cols]
        else:
            columns = [sync]
            if self.compiled.grouped:
                columns.append(keys)
            if self.compiled.spec.needs_value:
                columns.append(cols[self.compiled.value_index])
        if self.sorter is None:
            self.sorter = self._make_sorter(len(columns))
        self.sorter.insert_batch(sync, tuple(columns))
        self.sort_metrics.note_batch(sync.size, 0, perf_counter() - t0)
        self.sort_metrics.peak = self.sorter.stats.max_buffered

    def punctuate(self, raw_timestamp):
        timestamp = raw_timestamp
        for stage, metrics in zip(
            self.compiled.stages, self.stage_metrics
        ):
            timestamp = stage.transform_punct(timestamp)
            for metric in metrics:
                metric.note_punct(True)
        t0 = perf_counter()
        released = (
            self.sorter.on_punctuation(timestamp)
            if self.sorter is not None else None
        )
        self.sort_metrics.note_punct(True, perf_counter() - t0)
        if released is not None:
            self.sort_metrics.events_out += int(released[0].size)
            self.sort_metrics.peak = self.sorter.stats.max_buffered
        if self.pass_through:
            self._downstream_pass(released, timestamp)
        else:
            self._downstream(released, timestamp)

    def flush(self):
        t0 = perf_counter()
        released = self.sorter.flush() if self.sorter is not None else None
        self.sort_metrics.busy_s += perf_counter() - t0
        if released is not None:
            self.sort_metrics.events_out += int(released[0].size)
        if self.pass_through:
            self._downstream_pass(released, None)
        else:
            self._downstream(released, None)

    def _downstream_pass(self, released, timestamp):
        """Feed one sorter round to the pass-through terminal kernel."""
        terminal = self.terminal
        t0 = perf_counter()
        out = []
        n_in = 0
        if released is not None:
            _, columns = released
            n_in = int(columns[0].size)
            if n_in:
                out.extend(terminal.ingest(
                    columns[0], columns[1], columns[2], list(columns[3:])
                ))
        if timestamp is not None:
            closed, puncts = terminal.punctuate(timestamp)
        else:
            closed, puncts = terminal.flush()
        out.extend(closed)
        self.agg_metrics.note_batch(n_in, len(out), perf_counter() - t0)
        if timestamp is not None:
            self.agg_metrics.note_punct(bool(puncts))
        self.agg_metrics.peak = max(
            self.agg_metrics.peak, terminal.buffered() + len(out)
        )
        self.events.extend(out)
        self.punctuations.extend(puncts)

    def _downstream(self, released, timestamp):
        compiled = self.compiled
        _, columns = released
        starts = columns[0]
        keys = columns[1] if compiled.grouped else None
        values = columns[-1] if compiled.spec.needs_value else None
        t0 = perf_counter()
        self.aggregate.accumulate(starts, keys, values)
        rows = self.aggregate.close(timestamp)
        bound = (
            self.aggregate.forward(timestamp)
            if timestamp is not None else None
        )
        n_rows = len(rows[2])
        self.agg_metrics.note_batch(starts.size, n_rows, perf_counter() - t0)
        if timestamp is not None:
            self.agg_metrics.note_punct(bound is not None)
        self.agg_metrics.peak = max(
            self.agg_metrics.peak, self.aggregate.buffered() + n_rows
        )
        if self.topk is None:
            if n_rows:
                self._emit(*rows)
            if bound is not None:
                self.punctuations.append(bound)
            return
        t0 = perf_counter()
        self.topk.extend(*rows)
        forwarded = None
        if timestamp is None:
            out = self.topk.close(None)
        elif bound is not None:
            out = self.topk.close(bound)
            forwarded = self.topk.forward(bound)
        else:
            out = None
        n_out = len(out[2]) if out is not None else 0
        self.topk_metrics.note_batch(n_rows, n_out, perf_counter() - t0)
        if bound is not None:
            self.topk_metrics.note_punct(forwarded is not None)
        self.topk_metrics.peak = max(
            self.topk_metrics.peak, self.topk.buffered() + n_out
        )
        if n_out:
            self._emit(*out)
        if forwarded is not None:
            self.punctuations.append(forwarded)

    def _emit(self, starts, keys, values):
        # One boxing pass per round; the list stays complete when the
        # run returns (callers time and check it as a list).
        self.events.extend(_window_events(
            starts, keys, values, self.compiled.window_size
        ))

    # -- result -----------------------------------------------------------

    def result(self, reason):
        if self.sorter is None:
            # Empty pass-through run: no chunk ever fixed the arity.
            self.sorter = self._make_sorter(3)
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
        docs.append(self.agg_metrics.doc())
        if self.topk_metrics is not None:
            docs.append(self.topk_metrics.doc())
        meta = {
            "engine": "columnar",
            "kernels": self.compiled.describe(),
        }
        if self.memory_budget is not None:
            meta["memory_budget"] = self.memory_budget
        return PlanResult(
            self.events, self.punctuations, True, "columnar",
            reason=reason, operator_docs=docs, meta=meta, spill=spill,
        )

    def close(self):
        if self.memory_budget is not None and self.sorter is not None:
            self.sorter.close()


# ---------------------------------------------------------------------------
# Engine selection: QueryPlan.run's backend.
# ---------------------------------------------------------------------------


def _ingest_reason(events):
    """Why a raw event list cannot be columnarized (``None`` if it can)."""
    if not events:
        return None
    first = events[0]
    if not hasattr(first, "sync_time"):
        return "source elements are not events"
    arity = len(first.payload) if isinstance(first.payload, tuple) else -1
    if arity < 0:
        return "event payloads are not tuples"
    integral = (int, np.integer)
    for event in events:
        if not hasattr(event, "sync_time"):
            return "source elements are not events"
        payload = event.payload
        if not isinstance(payload, tuple) or len(payload) != arity:
            return "event payload arity is not uniform"
        if not isinstance(event.sync_time, integral) \
                or not isinstance(event.other_time, integral) \
                or not isinstance(event.key, integral):
            return "event times/keys are not integers"
        for value in payload:
            if not isinstance(value, integral):
                return "event payloads are not integer columns"
    return None


def _normalize_source(source, punctuation_frequency, reorder_latency):
    """Classify the source: ``(kind, payload, frequency, latency, reason)``.

    ``kind`` is ``"dataset"``, ``"events"``, or ``"stream"`` (a
    ``DisorderedStreamable`` that must run on the row path); ``reason``
    forces the row path when not ``None``.
    """
    from repro.engine.disordered import DisorderedStreamable
    from repro.workloads.base import Dataset

    if isinstance(source, DisorderedStreamable):
        spec = getattr(source, "_ingress", None)
        if spec is None:
            return (
                "stream", source, None, None,
                "source stream does not expose columnar ingress "
                "(derived or from_elements)",
            )
        kind, payload, frequency, latency = spec
        return kind, payload, frequency, latency, None
    if isinstance(source, Dataset):
        return (
            "dataset", source, punctuation_frequency, reorder_latency, None
        )
    events = source if isinstance(source, list) else list(source)
    return "events", events, punctuation_frequency, reorder_latency, None


def execute_plan(plan, source, punctuation_frequency=None, reorder_latency=0,
                 engine="auto", batch_size=8192, metrics=None,
                 memory_budget=None) -> PlanResult:
    """Run ``plan`` over ``source`` on the requested engine.

    ``engine="auto"`` compiles when possible and falls back to the row
    engine silently (the result's ``reason`` says why);
    ``engine="columnar"`` raises :class:`QueryBuildError` when the plan
    cannot be compiled; ``engine="row"`` always uses the row operators.
    ``memory_budget`` (bytes) bounds the sorter's resident buffer; cold
    sorted runs spill to disk with byte-identical output.
    """
    if engine not in ("auto", "columnar", "row"):
        raise QueryBuildError(
            f"engine must be 'auto', 'columnar', or 'row', not {engine!r}"
        )
    kind, payload, frequency, latency, forced_reason = _normalize_source(
        source, punctuation_frequency, reorder_latency
    )
    reason = None
    compiled = None
    if engine != "row":
        if forced_reason is not None:
            reason = forced_reason
        else:
            try:
                compiled = compile_plan(plan)
            except UnsupportedPlanError as exc:
                reason = exc.reason
            if compiled is not None and kind == "events":
                # A Dataset's columns were validated when it was built.
                ingest = _ingest_reason(payload)
                if ingest is not None:
                    compiled = None
                    reason = ingest
        if compiled is None and engine == "columnar":
            raise QueryBuildError(
                f"engine='columnar' requested but the plan cannot be "
                f"compiled: {reason}"
            )
    else:
        reason = "engine='row' requested"
    if compiled is not None:
        return compiled.run(
            kind, payload, punctuation_frequency=frequency,
            reorder_latency=latency, batch_size=batch_size,
            memory_budget=memory_budget,
        )
    return _run_row(plan, kind, payload, frequency, latency, metrics,
                    reason, memory_budget)


def _budgeted_row_plan(plan, memory_budget, created):
    """Rebuild ``plan`` with its sort step bound to an external sorter.

    ``created`` collects every sorter the factory builds so the caller
    can close them (releasing spill files) on every exit path.
    """
    from repro.engine.planner import QueryPlan, _Step, _sync_time_key
    from repro.sorting.external import ExternalImpatienceSorter

    steps = []
    for step in plan.steps:
        if step.method != "sort":
            steps.append(step)
            continue
        kwargs = dict(step.kwargs)
        if kwargs.get("sorter") is not None:
            raise QueryBuildError(
                "memory_budget requires the default sorter; the plan "
                "carries a custom sorter factory"
            )
        late_policy = kwargs.get("late_policy")

        def factory(_policy=late_policy):
            sorter = ExternalImpatienceSorter(
                memory_budget, key=_sync_time_key,
                late_policy=_policy if _policy is not None
                else LatePolicy.DROP,
            )
            created.append(sorter)
            return sorter

        steps.append(_Step("sort", (), (("sorter", factory),)))
    return QueryPlan(steps)


def _run_row(plan, kind, payload, frequency, latency, metrics, reason,
             memory_budget=None):
    from repro.engine.disordered import DisorderedStreamable

    if kind == "stream":
        stream = payload
    elif kind == "dataset":
        stream = DisorderedStreamable.from_dataset(payload, frequency, latency)
    else:
        stream = DisorderedStreamable.from_events(payload, frequency, latency)
    created = []
    spill = None
    meta = {"engine": "row"}
    if memory_budget is not None:
        plan = _budgeted_row_plan(plan, memory_budget, created)
        meta["memory_budget"] = memory_budget
    try:
        collector = plan.bind(stream).collect(metrics=metrics)
        if created:
            spill = created[0].spill_doc()
    finally:
        for sorter in created:
            sorter.close()
    return PlanResult(
        collector.events, collector.punctuations, collector.completed,
        "row", reason=reason, registry=metrics,
        meta=meta, spill=spill,
    )
