"""Multi-process shard runtime with shared-memory columnar exchange.

Trill's Map/Reduce scale-out (§I-A/§V), made real: the single-process
sharded plan in :mod:`repro.engine.sharded` becomes a coordinator that
hash-routes disordered ingress to a fixed pool of ``N`` forked shard
workers over shared-memory ring buffers, each worker runs the per-shard
``sort → query`` pipeline (row operators or the compiled columnar
kernels), and the coordinator k-way merges the shard outputs back into
one ordered stream that is byte-identical to the single-process result.

Public surface:

- :func:`run_parallel` / :class:`ParallelResult` — the runtime.
- :class:`CompiledShardPlan` / :class:`RowPlan` — per-shard plans; the
  first lowers any compilable :class:`~repro.engine.planner.QueryPlan`
  onto the fused columnar kernels and runs them inside every worker,
  the second runs opaque row-operator closures (everything the
  compiler rejects, e.g. a window above the sort).
- :func:`crash_once` — one-shot fault injection for crash tests.
- :class:`ShmRing` — the SPSC shared-memory ring (exchange transport).

See ``docs/parallelism.md`` for the architecture walk-through.
"""

from __future__ import annotations

from multiprocessing import get_context

from repro.parallel.plans import (
    CompiledShardPlan,
    RowPlan,
)
from repro.parallel.runtime import ParallelResult, run_parallel
from repro.parallel.shm import ShmRing

__all__ = [
    "run_parallel",
    "ParallelResult",
    "RowPlan",
    "CompiledShardPlan",
    "ShmRing",
    "crash_once",
]


def crash_once(shard, after_rounds=1):
    """Build a ``fault`` spec for :func:`run_parallel`: the worker for
    ``shard`` dies abruptly after ``after_rounds`` punctuation rounds —
    once.  The armed flag lives in shared memory, so a supervised rerun
    (which forks fresh workers) does not crash again; tests use this to
    prove byte-identical recovery."""
    flag = get_context("fork").Value("i", 1)
    return (shard, after_rounds, flag)
