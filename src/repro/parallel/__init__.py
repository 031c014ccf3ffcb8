"""Multi-process shard runtime with shared-memory columnar exchange.

Trill's Map/Reduce scale-out (§I-A/§V), made real: the single-process
sharded plan in :mod:`repro.engine.sharded` becomes a coordinator that
hash-routes disordered ingress to a fixed pool of ``N`` forked shard
workers over shared-memory ring buffers, each worker runs the per-shard
``sort → query`` pipeline as compiled columnar kernels, and the
coordinator k-way merges the shard outputs back into one ordered stream
that is byte-identical to the single-process result.

Public surface:

- :func:`run_parallel` / :class:`ParallelResult` — the runtime.
- :class:`CompiledShardPlan` — the per-shard plan: it lowers any
  compilable :class:`~repro.engine.planner.QueryPlan` onto the fused
  columnar kernels and runs them inside every worker.
- :class:`ShmRing` — the SPSC shared-memory ring (exchange transport).

See ``docs/parallelism.md`` for the architecture walk-through.
"""

from __future__ import annotations

from repro.parallel.plans import CompiledShardPlan
from repro.parallel.runtime import ParallelResult, run_parallel
from repro.parallel.shm import ShmRing

__all__ = [
    "run_parallel",
    "ParallelResult",
    "CompiledShardPlan",
    "ShmRing",
]
