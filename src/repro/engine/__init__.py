"""Mini-Trill: the in-order streaming-engine substrate (DESIGN.md §1.2)."""

from repro.engine.batch import EventBatch, iter_batches
from repro.engine.checkpoint import checkpoint_sorter, restore_sorter
from repro.engine.compiler import (
    CompiledPlan,
    PlanResult,
    UnsupportedPlanError,
    analyze_plan,
    compile_plan,
)
from repro.engine.disordered import DisorderedStreamable
from repro.engine.kernels import (
    AGGREGATE_SPECS,
    GroupedWindowKernel,
    WindowTopKKernel,
    field,
    key_field,
    sync_field,
)
from repro.engine.event import EVENT_BYTES, Event, Punctuation, is_punctuation
from repro.engine.graph import Pipeline, QueryNode, source_node
from repro.engine.ingress import (
    ingress_dataset,
    ingress_events,
    ingress_timestamps,
)
from repro.engine.planner import QueryPlan
from repro.engine.punctuation import PunctuationPolicy
from repro.engine.sharded import ShardedQuery, shard_streamable
from repro.engine.stream import Streamable

__all__ = [
    "AGGREGATE_SPECS",
    "CompiledPlan",
    "DisorderedStreamable",
    "GroupedWindowKernel",
    "PlanResult",
    "UnsupportedPlanError",
    "WindowTopKKernel",
    "EVENT_BYTES",
    "Event",
    "EventBatch",
    "Pipeline",
    "Punctuation",
    "QueryPlan",
    "ShardedQuery",
    "PunctuationPolicy",
    "QueryNode",
    "Streamable",
    "analyze_plan",
    "checkpoint_sorter",
    "compile_plan",
    "field",
    "key_field",
    "sync_field",
    "ingress_dataset",
    "iter_batches",
    "ingress_events",
    "ingress_timestamps",
    "is_punctuation",
    "restore_sorter",
    "shard_streamable",
    "source_node",
]
