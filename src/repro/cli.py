"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``       Table I disorder measures for a dataset (built-in or CSV).
``latency``     Suggest reorder latencies for target completeness levels.
``profile``     Per-region disorder profile (the Figure 2 zoom).
``sort``        Sort a dataset with a chosen algorithm; report throughput.
``generate``    Write a simulated workload to CSV.
``demo``        Run the windowed-count quickstart end to end.
``run``         Run an example query fully instrumented; ``--engine``
                picks the execution path (``auto`` compiles to the fused
                columnar pipeline when possible); ``--metrics-out``
                exports the observability JSON document.  ``--chaos`` /
                ``--supervised`` run it under the fault-tolerant
                supervisor with seeded fault injection;
                ``--memory-budget`` bounds the sorter's resident buffer
                by spilling cold sorted runs to disk.

Errors from unreadable or malformed inputs exit with status 2 and a
one-line ``error: <kind>: <detail>`` on stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.reporting import format_table
from repro.core.errors import ReproError
from repro.metrics import measure_disorder
from repro.metrics.profile import lateness_quantiles, suggest_reorder_latency
from repro.sorting.registry import OFFLINE_SORTS, offline_sort
from repro.workloads import DATASET_NAMES, load_dataset
from repro.workloads.io import load_dataset_csv, save_dataset_csv

__all__ = ["main"]


def _load(args):
    if args.csv:
        return load_dataset_csv(args.csv)
    return load_dataset(args.dataset, args.n)


def _add_source(parser):
    parser.add_argument("--dataset", default="cloudlog",
                        choices=list(DATASET_NAMES))
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--csv", default=None,
                        help="read events from a CSV instead of simulating")


def _cmd_stats(args):
    dataset = _load(args)
    stats = measure_disorder(dataset.timestamps)
    print(format_table(
        ["measure", "value"],
        [
            ["events", stats.n],
            ["inversions", stats.inversions],
            ["distance", stats.distance],
            ["runs", stats.runs],
            ["interleaved", stats.interleaved],
            ["mean run length", round(stats.mean_run_length, 2)],
        ],
        title=f"Disorder statistics ({dataset.name})",
    ))
    return 0


def _cmd_latency(args):
    dataset = _load(args)
    quantiles = lateness_quantiles(
        dataset.timestamps, (0.5, 0.9, 0.95, 0.99, 1.0)
    )
    rows = [
        [f"{q:.0%}", lateness, suggest_reorder_latency(dataset.timestamps, q)]
        for q, lateness in sorted(quantiles.items())
    ]
    print(format_table(
        ["completeness", "lateness quantile", "suggested latency"],
        rows,
        title=f"Reorder-latency suggestions ({dataset.name})",
    ))
    return 0


def _cmd_profile(args):
    from repro.metrics.profile import disorder_profile

    dataset = _load(args)
    region = max(len(dataset) // args.regions, 2)
    rows = [
        [
            row["offset"], row["n"], row["inversions"], row["runs"],
            row["interleaved"], round(row["mean_run_length"], 2),
        ]
        for row in disorder_profile(dataset.timestamps, region_size=region)
    ]
    print(format_table(
        ["offset", "n", "inversions", "runs", "interleaved", "mean run"],
        rows,
        title=f"Regional disorder profile ({dataset.name}, "
              f"{args.regions} regions)",
    ))
    return 0


def _cmd_sort(args):
    dataset = _load(args)
    start = time.perf_counter()
    result = offline_sort(args.algorithm, dataset.timestamps)
    elapsed = time.perf_counter() - start
    assert result == sorted(dataset.timestamps)
    print(
        f"{args.algorithm}: {len(result):,} events in {elapsed:.3f}s "
        f"({len(result) / elapsed / 1e6:.3f} M events/s)"
    )
    return 0


def _cmd_generate(args):
    dataset = load_dataset(args.dataset, args.n, seed=args.seed)
    save_dataset_csv(dataset, args.out)
    print(f"wrote {len(dataset):,} events to {args.out}")
    return 0


def _cmd_demo(args):
    from repro.engine import DisorderedStreamable

    dataset = _load(args)
    latency = suggest_reorder_latency(dataset.timestamps, 0.99)
    result = (
        DisorderedStreamable.from_dataset(
            dataset, punctuation_frequency=1_000, reorder_latency=latency
        )
        .tumbling_window(max(args.n // 100, 1))
        .to_streamable()
        .count()
        .collect()
    )
    print(f"reorder latency (99% coverage): {latency}")
    print(f"windows: {len(result.events)}, "
          f"events counted: {sum(result.payloads):,}")
    for event in result.events[:5]:
        print(f"  window [{event.sync_time} .. {event.other_time}) "
              f"-> {event.payload}")
    return 0


def _single_plan(query, window):
    """Single-process :class:`QueryPlan` for a ``run`` query.

    All three plans window *before* the sort (the §IV push-down), so the
    compiler can fuse them; ``top-k`` over raw events is tie-order
    sensitive and legitimately falls back to the row engine under
    ``--engine auto``.
    """
    from repro.engine import QueryPlan
    from repro.engine.operators.aggregates import Count

    plan = QueryPlan().tumbling_window(window).sort()
    if query == "grouped-count":
        return plan.group_aggregate(Count())
    if query == "top-k":
        return plan.top_k(3)
    return plan.count()


def _parallel_plan(query, window, engine="auto"):
    """Per-shard plan + coordinator finalize for a ``run`` query.

    Under ``--engine auto`` (default) and ``--engine columnar`` every
    shard worker runs the fused compiled kernel pipeline
    (:class:`~repro.parallel.CompiledShardPlan`); ``--engine row``
    forces the row-operator shard plans.  ``grouped-count`` is
    key-local, so the whole query runs inside the shard workers.  The
    other two decompose: each shard computes its partial per-window
    answer and a coordinator ``finalize`` query combines the partials —
    summed counts for the global ``windowed-count``,
    top-k-of-shard-top-ks for ``top-k``.  All plans keep the windowing
    stage *before* the per-shard sort (the §IV push-down), matching the
    single-process plans byte-for-byte — including which events count
    as late.

    Returns ``(plan, engine_name, engine_reason)``; ``engine_reason``
    is the compiler's fallback reason when ``auto`` lands on the row
    path.  Raises
    :class:`~repro.engine.compiler.UnsupportedPlanError` when
    ``columnar`` is forced on a shape the compiler cannot lower.
    """
    from repro.engine import QueryPlan
    from repro.engine.compiler import UnsupportedPlanError
    from repro.engine.operators.aggregates import Count, Sum
    from repro.parallel import CompiledShardPlan, RowPlan

    if query == "grouped-count":
        qplan = (QueryPlan().tumbling_window(window).sort()
                 .group_aggregate(Count()))
        finalize = None
    elif query == "windowed-count":
        qplan = QueryPlan().tumbling_window(window).sort().count()
        finalize = (
            lambda s: s.tumbling_window(window).aggregate(Sum())
        )
    else:
        qplan = QueryPlan().tumbling_window(window).sort().top_k(3)
        finalize = lambda s: s.top_k(3)

    reason = None
    if engine in ("auto", "columnar"):
        try:
            plan = CompiledShardPlan(qplan, finalize=finalize)
            return plan, "columnar", None
        except UnsupportedPlanError as exc:
            if engine == "columnar":
                raise
            reason = exc.reason

    if query == "grouped-count":
        plan = RowPlan(
            lambda s: s.group_aggregate(Count()),
            pre=lambda d: d.tumbling_window(window),
        )
    elif query == "windowed-count":
        plan = RowPlan(
            lambda s: s.count(),
            pre=lambda d: d.tumbling_window(window),
            finalize=finalize,
        )
    else:
        plan = RowPlan(
            lambda s: s.top_k(3),
            pre=lambda d: d.tumbling_window(window),
            finalize=finalize,
        )
    return plan, "row", reason


def _cmd_run(args):
    from repro.engine import DisorderedStreamable
    from repro.framework.memory import MemoryMeter
    from repro.observability import MetricsRegistry
    from repro.bench.reporting import format_metrics_summary

    memory_budget = None
    if args.memory_budget is not None:
        from repro.sorting.external import parse_memory_budget

        if args.supervised or args.chaos:
            print("error: QueryBuildError: --memory-budget runs the "
                  "bounded-memory engine path; it cannot be combined with "
                  "--supervised/--chaos (checkpoint budgeted sorters via "
                  "resilience.SorterSupervisor)", file=sys.stderr)
            return 2
        if args.parallel is not None:
            print("error: QueryBuildError: --memory-budget bounds the "
                  "single-process sorter; with --parallel each shard "
                  "buffers independently", file=sys.stderr)
            return 2
        try:
            memory_budget = parse_memory_budget(args.memory_budget)
        except ValueError as exc:
            print(f"error: ValueError: {exc}", file=sys.stderr)
            return 2
    dataset = _load(args)
    latency = (
        args.latency if args.latency is not None
        else suggest_reorder_latency(dataset.timestamps, 0.99)
    )
    window = args.window or max(len(dataset) // 100, 1)
    if args.parallel is not None:
        return _parallel_cli(args, dataset, latency, window)
    disordered = DisorderedStreamable.from_dataset(
        dataset, args.punctuation_frequency, latency
    )
    registry = MetricsRegistry()
    meter = MemoryMeter()
    resilience = None
    engine_line = None
    plan = _single_plan(args.query, window)
    start = time.perf_counter()
    if args.supervised or args.chaos:
        if args.engine != "auto":
            print("error: QueryBuildError: --supervised/--chaos run on the "
                  "row operator runtime; drop --engine", file=sys.stderr)
            return 2
        from repro.resilience import run_supervised

        outcome = run_supervised(
            plan.bind(disordered), chaos=args.chaos,
            seed=args.seed, quarantine=True,
            metrics=registry, memory=meter,
        )
        elapsed = time.perf_counter() - start
        n_results = len(outcome.events)
        resilience = outcome.resilience_doc()
        snapshot = None
    else:
        result = plan.run(disordered, engine=args.engine, metrics=registry,
                          memory_budget=memory_budget)
        elapsed = time.perf_counter() - start
        n_results = len(result)
        if result.engine == "columnar":
            engine_line = "engine: columnar (fused kernel pipeline)"
        else:
            engine_line = f"engine: row ({result.reason})"
        if result.spill is not None:
            spill = result.spill
            engine_line += (
                f"\nspill: budget {spill['budget_bytes']:,} B, "
                f"{spill['runs_spilled']} runs spilled "
                f"({spill['bytes_written']:,} B written / "
                f"{spill['bytes_read']:,} B read), "
                f"merge fan-in <= {spill['max_merge_fan_in']}, "
                f"peak buffered {spill['peak_buffered_bytes']:,} B"
            )
        snapshot = result.snapshot(meta={
            "query": args.query,
            "dataset": dataset.name,
            "n": len(dataset),
            "window": window,
            "punctuation_frequency": args.punctuation_frequency,
            "reorder_latency": latency,
            "elapsed_s": elapsed,
            "throughput_meps": len(dataset) / elapsed / 1e6,
        })
    if snapshot is None:
        snapshot = registry.snapshot(
            memory=meter, resilience=resilience, meta={
                "query": args.query,
                "dataset": dataset.name,
                "n": len(dataset),
                "window": window,
                "punctuation_frequency": args.punctuation_frequency,
                "reorder_latency": latency,
                "elapsed_s": elapsed,
                "throughput_meps": len(dataset) / elapsed / 1e6,
            },
        )

    print(
        f"{args.query} over {dataset.name} (n={len(dataset):,}, "
        f"reorder latency {latency}): {n_results} result events "
        f"in {elapsed:.3f}s"
    )
    if engine_line:
        print(engine_line)
    print()
    print(format_metrics_summary(snapshot))
    if resilience is not None:
        quarantined = (resilience["quarantine"] or {}).get("total", 0)
        print()
        print(
            f"supervised: restarts={resilience['restarts']} "
            f"retries={resilience['retries']} "
            f"checkpoints={resilience['checkpoints']} "
            f"deduplicated={resilience['outputs_deduplicated']} "
            f"quarantined={quarantined}"
        )
        if args.chaos:
            fired = resilience.get("chaos", {}).get("fired", {})
            print(f"chaos (seed {args.seed}): fired={fired or 'none'}")
    if args.metrics_out:
        try:
            snapshot.save(args.metrics_out)
        except OSError as exc:
            print(f"error: cannot write {args.metrics_out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"\nwrote {args.metrics_out}")
    return 0


def _parallel_cli(args, dataset, latency, window):
    """The ``run --parallel N`` path: shard workers + columnar exchange."""
    from repro.engine.ingress import ingress_dataset
    from repro.engine.stream import Streamable
    from repro.observability import MetricsRegistry

    if args.chaos:
        print("error: QueryBuildError: --chaos is single-process fault "
              "injection; with --parallel use --supervised (worker-crash "
              "recovery)", file=sys.stderr)
        return 2
    workers = args.parallel
    if workers < 1:
        print("error: QueryBuildError: workers must be >= 1",
              file=sys.stderr)
        return 2

    from repro.engine.compiler import UnsupportedPlanError

    try:
        plan, engine_name, engine_reason = _parallel_plan(
            args.query, window, args.engine
        )
    except UnsupportedPlanError as exc:
        print("error: QueryBuildError: --engine columnar forced, but the "
              f"'{args.query}' shard plan cannot be compiled: {exc.reason}",
              file=sys.stderr)
        return 2
    ingress = ingress_dataset(dataset, args.punctuation_frequency, latency)
    resilience = None
    start = time.perf_counter()
    if args.supervised:
        from repro.resilience.parallel import run_parallel_supervised

        outcome = run_parallel_supervised(ingress, plan, workers)
        parallel_doc = outcome.parallel
        resilience = outcome.resilience_doc()
        if plan.finalize is not None:
            finalized = plan.finalize(
                Streamable.from_elements(outcome.elements)
            ).collect()
            n_results = len(finalized.events)
        else:
            n_results = len(outcome.events)
    else:
        from repro.parallel import run_parallel

        result = run_parallel(ingress, plan, workers)
        parallel_doc = result.parallel
        n_results = len(result.events)
    elapsed = time.perf_counter() - start

    snapshot = MetricsRegistry(trace=False).snapshot(
        resilience=resilience, parallel=parallel_doc, meta={
            "query": args.query,
            "dataset": dataset.name,
            "n": len(dataset),
            "window": window,
            "punctuation_frequency": args.punctuation_frequency,
            "reorder_latency": latency,
            "workers": workers,
            "engine": engine_name,
            "engine_reason": engine_reason,
            "elapsed_s": elapsed,
            "throughput_meps": len(dataset) / elapsed / 1e6,
        },
    )

    print(
        f"{args.query} over {dataset.name} (n={len(dataset):,}, "
        f"reorder latency {latency}, {workers} workers): "
        f"{n_results} result events in {elapsed:.3f}s "
        f"({len(dataset) / elapsed / 1e6:.3f} M events/s)"
    )
    if engine_name == "columnar":
        print("engine: columnar (compiled shard kernels)")
    elif engine_reason is not None:
        print(f"engine: row ({engine_reason})")
    else:
        print("engine: row (forced)")
    print()
    print(format_parallel_summary(parallel_doc))
    if resilience is not None:
        print()
        print(
            f"supervised: restarts={resilience['restarts']} "
            f"deduplicated={resilience['duplicates_suppressed']} "
            f"crashes={len(resilience['crashes'])}"
        )
    if args.metrics_out:
        try:
            snapshot.save(args.metrics_out)
        except OSError as exc:
            print(f"error: cannot write {args.metrics_out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"\nwrote {args.metrics_out}")
    return 0


def _cmd_serve(args):
    import asyncio

    from repro.serve.server import ReproServer

    async def _run():
        server = ReproServer(
            args.data_dir, host=args.host, port=args.port,
            http_port=args.http_port, quota=args.quota,
            tenant_slots=args.tenant_slots,
            queue_capacity=args.queue, read_deadline=args.deadline,
        )
        await server.start()
        # Parseable readiness line: harnesses scrape the bound ports.
        print(
            f"serving on {server.host}:{server.port} "
            f"http={server.host}:{server.http_port}",
            flush=True,
        )
        await server.wait_stopped()

    asyncio.run(_run())
    return 0


def format_parallel_summary(doc) -> str:
    """Console table for a parallel run's coordinator accounting."""
    lines = [
        f"parallel: {doc['workers']} workers, batch {doc['batch_size']}, "
        f"{doc['rounds']} rounds ({doc['fast_merge_rounds']} huffman / "
        f"{doc['tree_merge_rounds']} tree merges), "
        f"{doc['frames_sent']} frames out / {doc['frames_received']} in",
    ]
    rows = []
    for shard, stats in enumerate(doc["shards"]):
        stats = stats or {}
        rows.append([
            shard,
            stats.get("plan", "?"),
            stats.get("engine", "row"),
            stats.get("events_in", 0),
            stats.get("buffered_peak", 0),
            stats.get("runs_peak", "-"),
            stats.get("late_dropped", 0),
            stats.get("late_adjusted", 0),
        ])
    lines.append(format_table(
        ["shard", "plan", "engine", "ev in", "peak buf", "peak runs",
         "late drop", "late adj"],
        rows, title="Per-shard workers",
    ))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Impatience sort & framework reproduction toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="Table I disorder measures")
    _add_source(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("latency", help="suggest reorder latencies")
    _add_source(p)
    p.set_defaults(fn=_cmd_latency)

    p = sub.add_parser("profile", help="regional disorder profile")
    _add_source(p)
    p.add_argument("--regions", type=int, default=10)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("sort", help="offline-sort a dataset")
    _add_source(p)
    p.add_argument("--algorithm", default="impatience",
                   choices=sorted(OFFLINE_SORTS))
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser("generate", help="write a simulated workload CSV")
    p.add_argument("--dataset", default="cloudlog",
                   choices=list(DATASET_NAMES))
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("demo", help="windowed-count quickstart")
    _add_source(p)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser(
        "run", help="run an instrumented example query (observability demo)"
    )
    _add_source(p)
    p.add_argument("--query", default="windowed-count",
                   choices=["windowed-count", "grouped-count", "top-k"])
    p.add_argument("--window", type=int, default=None,
                   help="window size (default: n/100)")
    p.add_argument("--punctuation-frequency", type=int, default=1_000)
    p.add_argument("--latency", type=int, default=None,
                   help="reorder latency (default: 99%% coverage)")
    p.add_argument("--engine", default="auto",
                   choices=["auto", "columnar", "row"],
                   help="execution engine: 'auto' compiles to the fused "
                        "columnar pipeline when possible (default), "
                        "'columnar' fails if the plan cannot compile, "
                        "'row' forces the operator DAG")
    p.add_argument("--memory-budget", default=None, metavar="BYTES",
                   help="bound the sorter's resident buffer (bytes, or "
                        "'64MB'); cold sorted runs spill to disk and the "
                        "output stays byte-identical")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the metrics JSON export here")
    p.add_argument("--parallel", type=int, default=None, metavar="N",
                   help="execute on N shard worker processes with "
                        "shared-memory columnar exchange (output stays "
                        "byte-identical)")
    p.add_argument("--supervised", action="store_true",
                   help="run under the fault-tolerant supervisor")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="fault-injection spec, e.g. "
                        "'io:p=0.01;crash:punct=5' (implies --supervised)")
    p.add_argument("--seed", type=int, default=0,
                   help="chaos RNG seed (default 0)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "serve",
        help="always-on multi-tenant standing-query service",
    )
    p.add_argument("--data-dir", required=True, metavar="DIR",
                   help="journal + state directory (survives restarts)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP line-protocol port (0 = ephemeral)")
    p.add_argument("--http-port", type=int, default=0,
                   help="HTTP/JSON-log port (0 = ephemeral)")
    p.add_argument("--quota", type=int, default=None, metavar="EVENTS",
                   help="per-tenant buffered-event quota; breaches force "
                        "an early punctuation (load shedding)")
    p.add_argument("--tenant-slots", type=int, default=1, metavar="N",
                   help="elastic quota slots per tenant: a quota breach "
                        "grows the tenant's budget (up to N x quota) "
                        "before any shedding; slots retire as buffers "
                        "drain (default 1 = shed immediately)")
    p.add_argument("--queue", type=int, default=256, metavar="READS",
                   help="per-tenant bounded ingress queue capacity; an "
                        "item is one socket read's lines (at most 4 KiB) "
                        "or one HTTP body, so TCP ingress buffers at most "
                        "READS x 4 KiB per tenant")
    p.add_argument("--deadline", type=float, default=2.0, metavar="SECONDS",
                   help="read/drain deadline before evicting a stalled "
                        "peer (slowloris defense)")
    p.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
