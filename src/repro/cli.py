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


def _cmd_serve(args):
    import asyncio

    from repro.serve.server import ReproServer

    try:
        server = ReproServer(
            args.data_dir, host=args.host, port=args.port,
            http_port=args.http_port, quota=args.quota,
            queue_capacity=args.queue, read_deadline=args.deadline,
        )
    except ValueError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 2

    async def _run():
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
                   help="per-query buffered-event quota (>= 1); a breach "
                        "forces an early punctuation for the tenant "
                        "(load shedding)")
    p.add_argument("--queue", type=int, default=16, metavar="READS",
                   help="per-tenant bounded ingress queue capacity; an "
                        "item is one socket read's lines (at most 64 KiB) "
                        "or one HTTP body, so TCP ingress buffers at most "
                        "READS x 64 KiB per tenant (1 MiB by default)")
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
