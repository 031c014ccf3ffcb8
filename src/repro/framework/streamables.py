"""The ``Streamables`` abstraction (Section V-C).

``DisorderedStreamable.to_streamables(...)`` returns one of these: a
sequence of ordered output streams, one per reorder latency, sharing a
single source and a single materialized pipeline.  ``run()`` executes the
whole DAG in one pass, collecting every output and exposing the partition
operator's completeness ledger plus a memory meter.
"""

from __future__ import annotations

from repro.engine.graph import Pipeline, QueryNode
from repro.engine.operators.sink import Collector
from repro.framework.memory import MemoryMeter

__all__ = [
    "Streamables", "StreamablesResult", "LatencyCollector", "lag_stats",
]


def lag_stats(lags) -> dict:
    """Mean / p95 / max summary over a sequence of delivery lags.

    The shared quantile helper behind :class:`LatencyCollector` and the
    serve layer's per-tenant delivery-lag export — one definition, so
    Table II's latency column and the live ``serve`` snapshot section
    report the same statistic.
    """
    if not lags:
        return {"mean": 0.0, "p95": 0, "max": 0, "samples": 0}
    ordered = sorted(lags)
    return {
        "mean": sum(ordered) / len(ordered),
        "p95": ordered[min(int(0.95 * len(ordered)), len(ordered) - 1)],
        "max": ordered[-1],
        "samples": len(ordered),
    }


class LatencyCollector(Collector):
    """A collector that also measures *delivery lag* per event.

    Lag is defined against the ingress clock (the partition's event-time
    high watermark at the moment of emission): for a result event with
    interval ``[sync, other)``, the earliest instant it could have been
    delivered is when its interval closed (``other - 1``), so

        ``lag = ingress_high_watermark - (other_time - 1)``

    clamped at zero.  For output ``i`` of the framework the mean lag
    converges to the configured reorder latency ``L_i`` — Table II's
    latency column, measured instead of asserted.
    """

    def __init__(self, clock):
        super().__init__()
        self._clock = clock  # dict filled in after materialization
        self.lags = []

    def on_event(self, event):
        super().on_event(event)
        partition = self._clock.get("partition")
        if partition is not None:
            watermark = partition.high_watermark
            if watermark != float("-inf"):
                self.lags.append(
                    max(watermark - (event.other_time - 1), 0)
                )

    def latency_stats(self) -> dict:
        """Mean / p95 / max delivery lag over this output's events."""
        return lag_stats(self.lags)


class Streamables:
    """A sequence of ordered streams with increasing reorder latencies."""

    def __init__(self, outputs, latencies, partition_node, source,
                 runtime=None):
        self._outputs = list(outputs)
        self.latencies = list(latencies)
        self._partition_node = partition_node
        self._source = source
        # Execution knobs shared with the builder's sorter factories
        # (``build_streamables``): filled in by ``run(memory_budget=...)``
        # before the pipeline materializes.  ``None`` for hand-assembled
        # Streamables, which then reject a memory budget.
        self._runtime = runtime

    def __len__(self) -> int:
        return len(self._outputs)

    def __iter__(self):
        return iter(self._outputs)

    def streamable(self, index):
        """The output stream for the index-th reorder latency."""
        return self._outputs[index]

    def apply(self, query_fn) -> "Streamables":
        """Apply one query function to every output (basic-framework use)."""
        return Streamables(
            [stream.apply(query_fn) for stream in self._outputs],
            self.latencies,
            self._partition_node,
            self._source,
            runtime=self._runtime,
        )

    def subscribe(self, callbacks):
        """Attach one event callback per output; returns the pipeline.

        The streaming (non-materializing) counterpart of :meth:`run` —
        the paper's ``ss.Streamable(i).Subscribe(...)`` pattern over every
        output at once.  The caller drives the returned pipeline with
        ``pipeline.run(elements)`` (e.g. ``self.source.elements()``).
        """
        from repro.engine.operators.sink import CallbackSink

        callbacks = list(callbacks)
        if len(callbacks) != len(self._outputs):
            raise ValueError(
                f"expected {len(self._outputs)} callbacks, "
                f"got {len(callbacks)}"
            )
        sink_nodes = [
            QueryNode(
                lambda cb=cb: CallbackSink(cb),
                ((stream.node, None),),
                name=f"subscribe[{i}]",
            )
            for i, (stream, cb) in enumerate(zip(self._outputs, callbacks))
        ]
        return Pipeline(sink_nodes)

    def run(self, memory_meter=None, metrics=None, supervised=None,
            engine="auto", memory_budget=None) -> "StreamablesResult":
        """Materialize all outputs into one pipeline and drive the source.

        Returns a :class:`StreamablesResult` with per-output collectors,
        the completeness ledger, and the (optionally supplied) memory
        meter after sampling at every punctuation.  ``metrics`` is an
        optional :class:`~repro.observability.MetricsRegistry` attached
        before the source is driven; it is also stored on the result so
        ``result.metrics.snapshot(memory=result.memory)`` exports the
        whole framework execution.

        ``supervised`` turns on fault-tolerant execution: ``True`` for
        defaults, or a dict of
        :class:`~repro.resilience.supervisor.PipelineSupervisor` options
        (``chaos``, ``quarantine``, ``guard``, ``checkpoint_every``,
        ``max_restarts``, ...).  The pipeline is then rebuilt and
        replayed across crashes with exactly-once output delivery; the
        supervised outcome rides on ``result.supervised``.

        ``memory_budget`` (bytes, or a string like ``"64MB"``) bounds
        every per-path sorter's resident buffer: cold sorted runs spill
        to disk and merge back at punctuation time, and the outputs stay
        byte-identical to the unbudgeted run.  Requires the default
        sorter and is mutually exclusive with ``supervised``; per-path
        spill metrics ride on ``result.spill``.

        ``engine`` mirrors ``QueryPlan.run``'s engine selector for API
        uniformity.  A framework run is a multi-output partition network
        of already-composed operators — there is no ``QueryPlan`` left
        to compile — so ``"auto"`` and ``"row"`` both execute the row
        pipeline (``result.engine``/``result.engine_reason`` record the
        choice) and ``"columnar"`` raises
        :class:`~repro.core.errors.QueryBuildError`.
        """
        from repro.core.errors import QueryBuildError

        if engine not in ("auto", "columnar", "row"):
            raise QueryBuildError(
                f"engine must be 'auto', 'columnar', or 'row', not "
                f"{engine!r}"
            )
        if engine == "columnar":
            raise QueryBuildError(
                "engine='columnar' requested but a Streamables run cannot "
                "be compiled: the multi-latency partition network is an "
                "opaque operator DAG (use QueryPlan.run for the fused "
                "columnar path)"
            )
        reason = (
            "engine='row' requested" if engine == "row"
            else "framework runs are an opaque operator DAG"
        )
        budget = None
        if memory_budget is not None:
            from repro.sorting.external import parse_memory_budget

            budget = parse_memory_budget(memory_budget)
            if self._runtime is None or self._runtime["custom_sorter"]:
                raise QueryBuildError(
                    "memory_budget requires the default sorter; this "
                    "Streamables carries a custom sorter factory"
                )
            if supervised:
                raise QueryBuildError(
                    "memory_budget cannot be combined with supervised "
                    "execution; checkpoint budgeted runs through "
                    "resilience.SorterSupervisor instead"
                )
        meter = MemoryMeter() if memory_meter is None else memory_meter
        clock = {}
        sink_nodes = [
            QueryNode(
                lambda: LatencyCollector(clock),
                ((stream.node, None),),
                name=f"out[{i}]",
            )
            for i, stream in enumerate(self._outputs)
        ]
        if supervised:
            result = self._run_supervised(
                sink_nodes, clock, meter, metrics,
                {} if supervised is True else dict(supervised),
            )
            result.engine_reason = reason
            return result
        spill = None
        if budget is not None:
            self._runtime["memory_budget"] = budget
            spill_start = len(self._runtime["spill_sorters"])
        try:
            pipeline = Pipeline(sink_nodes)
            # Late-bound: the partition instance exists only after the
            # graph materializes; events flow strictly afterwards.
            clock["partition"] = pipeline.operator_for(self._partition_node)
            if metrics is not None:
                metrics.attach(pipeline)
            pipeline.run(
                self._source.elements(), on_punctuation=meter.sample
            )
            if budget is not None:
                spill = {
                    "memory_budget": budget,
                    "paths": [
                        sorter.spill_doc()
                        for sorter in
                        self._runtime["spill_sorters"][spill_start:]
                    ],
                }
        finally:
            if budget is not None:
                self._runtime["memory_budget"] = None
                created = self._runtime["spill_sorters"][spill_start:]
                del self._runtime["spill_sorters"][spill_start:]
                for sorter in created:
                    sorter.close()
        collectors = [pipeline.operator_for(node) for node in sink_nodes]
        partition = pipeline.operator_for(self._partition_node)
        result = StreamablesResult(
            collectors, partition, meter, self.latencies
        )
        result.metrics = metrics
        result.engine_reason = reason
        result.spill = spill
        return result

    def _run_supervised(self, sink_nodes, clock, meter, metrics, options):
        from repro.resilience.supervisor import PipelineSupervisor

        def build():
            pipeline = Pipeline(sink_nodes)
            clock["partition"] = pipeline.operator_for(self._partition_node)
            return pipeline, [
                pipeline.operator_for(node) for node in sink_nodes
            ]

        supervisor = PipelineSupervisor(
            build, self._source.elements(),
            metrics=metrics, memory=meter, **options,
        )
        outcome = supervisor.run()
        # The last attempt is fully caught up, so its collectors hold the
        # same (verified) events as the exactly-once channels, plus the
        # per-output latency samples.
        result = StreamablesResult(
            outcome.collectors,
            outcome.pipeline.operator_for(self._partition_node),
            meter, self.latencies,
        )
        result.metrics = metrics
        result.supervised = outcome
        return result


class StreamablesResult:
    """Everything one framework execution produced."""

    def __init__(self, collectors, partition, memory, latencies):
        #: per-output :class:`~repro.engine.operators.sink.Collector`.
        self.collectors = collectors
        #: the live :class:`~repro.framework.partition.LatenessPartition`.
        self.partition = partition
        #: the :class:`~repro.framework.memory.MemoryMeter` (peak sampled).
        self.memory = memory
        self.latencies = latencies
        #: the :class:`~repro.observability.MetricsRegistry` attached to
        #: the run, or ``None`` when observability was off.
        self.metrics = None
        #: the :class:`~repro.resilience.supervisor.SupervisedResult` when
        #: the run was supervised, else ``None``.
        self.supervised = None
        #: per-path spill metrics (``{"memory_budget": ..., "paths":
        #: [...]}``) when ``run(memory_budget=...)``, else ``None``.
        self.spill = None
        #: execution path — framework runs always execute the row
        #: operator pipeline (``engine_reason`` says why); mirrors
        #: ``PlanResult.engine`` / ``PlanResult.reason``.
        self.engine = "row"
        self.engine_reason = None

    def output_events(self, index):
        """Events emitted on the index-th output, in emission order."""
        return self.collectors[index].events

    def completeness(self, index) -> float:
        """Fraction of input events reflected in output ``index``."""
        return self.partition.completeness(index)

    def measured_latency(self, index) -> dict:
        """Observed delivery-lag statistics for output ``index``.

        Available when the run used :class:`LatencyCollector` sinks (the
        default); see its docstring for the lag definition.
        """
        collector = self.collectors[index]
        if not isinstance(collector, LatencyCollector):
            raise TypeError("this run did not measure latency")
        return collector.latency_stats()

    def summary(self) -> dict:
        """Compact record for EXPERIMENTS.md tables."""
        return {
            "latencies": list(self.latencies),
            "outputs": [len(c) for c in self.collectors],
            "routed": list(self.partition.routed),
            "dropped": self.partition.dropped,
            "completeness": [
                self.completeness(i) for i in range(len(self.collectors))
            ],
            "peak_memory_mb": self.memory.peak_mb,
        }
