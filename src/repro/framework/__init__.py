"""The Impatience framework (Section V of the paper)."""

from repro.framework.adaptive_latency import AdaptiveLatencyPolicy
from repro.framework.advanced import build_streamables
from repro.framework.audit import (
    METHODS,
    MethodResult,
    run_method,
    table2_rows,
)
from repro.framework.memory import MemoryMeter
from repro.framework.multiquery import MultiQueryRun, build_multi_query
from repro.framework.partition import LatenessPartition
from repro.framework.queries import (
    DEFAULT_WINDOW,
    PAPER_QUERIES,
    PaperQuery,
    make_query,
)
from repro.framework.speculation import (
    SpeculativeWindowAggregate,
    apply_revisions,
)
from repro.framework.streamables import Streamables, StreamablesResult

__all__ = [
    "AdaptiveLatencyPolicy",
    "DEFAULT_WINDOW",
    "LatenessPartition",
    "METHODS",
    "MemoryMeter",
    "MethodResult",
    "MultiQueryRun",
    "PAPER_QUERIES",
    "PaperQuery",
    "SpeculativeWindowAggregate",
    "Streamables",
    "StreamablesResult",
    "apply_revisions",
    "build_multi_query",
    "build_streamables",
    "make_query",
    "run_method",
    "table2_rows",
]
