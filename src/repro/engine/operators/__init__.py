"""The engine's operator library (all in-order except Sort)."""

from repro.engine.operators.aggregates import (
    Aggregate,
    Avg,
    Count,
    GroupedWindowAggregate,
    Max,
    Min,
    Sum,
    WindowAggregate,
    WindowTopK,
)
from repro.engine.operators.base import InputPort, Operator, PassThrough
from repro.engine.operators.coalesce import Coalesce
from repro.engine.operators.distinct import CountDistinct, DistinctWindow
from repro.engine.operators.session import SessionWindow
from repro.engine.operators.duration import AlterEventDuration, ClipEventDuration
from repro.engine.operators.groupapply import GroupApply
from repro.engine.operators.join import TemporalJoin
from repro.engine.operators.monitor import ContractViolation, OrderingMonitor
from repro.engine.operators.pattern import PatternMatch
from repro.engine.operators.select import Select, SelectColumns, SelectEvent
from repro.engine.operators.sink import CallbackSink, Collector
from repro.engine.operators.snapshot import (
    SnapshotAggregate,
    SnapshotCount,
    SnapshotSum,
)
from repro.engine.operators.sort import Sort
from repro.engine.operators.statistics import Median, Quantile, StdDev, Variance
from repro.engine.operators.union import Union
from repro.engine.operators.where import Where
from repro.engine.operators.window import HoppingWindow, TumblingWindow

__all__ = [
    "Aggregate",
    "AlterEventDuration",
    "ClipEventDuration",
    "Coalesce",
    "CountDistinct",
    "DistinctWindow",
    "SessionWindow",
    "GroupApply",
    "TemporalJoin",
    "Avg",
    "CallbackSink",
    "Collector",
    "Count",
    "GroupedWindowAggregate",
    "HoppingWindow",
    "InputPort",
    "Max",
    "Min",
    "ContractViolation",
    "Operator",
    "OrderingMonitor",
    "PassThrough",
    "PatternMatch",
    "Select",
    "SelectColumns",
    "SelectEvent",
    "Median",
    "Quantile",
    "SnapshotAggregate",
    "SnapshotCount",
    "SnapshotSum",
    "Sort",
    "StdDev",
    "Variance",
    "Sum",
    "TumblingWindow",
    "Union",
    "Where",
    "WindowAggregate",
    "WindowTopK",
]
