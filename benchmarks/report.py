"""Regenerate every paper table/figure analogue in one run.

    python -m benchmarks.report [--n 100000] [--json results.json]

Prints the Table I, Figure 5, Figure 7, Figure 8, Figure 9, Figure 10 and
Table II analogues plus the ablations; EXPERIMENTS.md records a captured
run.  ``--json`` additionally archives each section's output and timing
in machine-readable form.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time

from benchmarks import (
    bench_ablation_adaptive,
    bench_ablation_ingress,
    bench_ablation_multiquery,
    bench_operator_micro,
    bench_ablation_baselines,
    bench_ablation_columnar,
    bench_ablation_merge,
    bench_fig5_run_counts,
    bench_fig7_offline_sorting,
    bench_fig8_online_sorting,
    bench_columnar_compiler,
    bench_external_sort,
    bench_fig9_sort_as_needed,
    bench_fig10_framework,
    bench_table1_disorder,
    bench_table2_latency_completeness,
)

SECTIONS = (
    ("Table I — disorder statistics", bench_table1_disorder.report),
    ("Figure 5 — run counts over time", bench_fig5_run_counts.report),
    ("Figure 7 — offline sorting throughput",
     bench_fig7_offline_sorting.report),
    ("Figure 8 — online sorting throughput",
     bench_fig8_online_sorting.report),
    ("Figure 9 — sort-as-needed speedups", bench_fig9_sort_as_needed.report),
    ("Figure 10 — framework throughput & memory",
     bench_fig10_framework.report),
    ("Table II — latency & completeness",
     bench_table2_latency_completeness.report),
    ("Ablation — merge schedules & SRS", bench_ablation_merge.report),
    ("Ablation — k-slack & speculation baselines",
     bench_ablation_baselines.report),
    ("Ablation — columnar vs row push-down",
     bench_ablation_columnar.report),
    ("Ablation — adaptive reorder latency",
     bench_ablation_adaptive.report),
    ("Ablation — multi-query shared fan-out",
     bench_ablation_multiquery.report),
    ("Ablation — sorter ingress batching", bench_ablation_ingress.report),
    ("Fused columnar compiler vs row engine",
     bench_columnar_compiler.report),
    ("Bounded-memory external sort", bench_external_sort.report),
    ("Operator microbenchmarks", bench_operator_micro.report),
)


def _metrics_section(n=None):
    """The report's ``--metrics`` mode: one fully instrumented run of the
    paper's windowed-count query, summarized with the ascii-chart
    latency/occupancy rendering."""
    from repro.bench import pipeline_metrics, format_metrics_summary, \
        stream_length
    from repro.metrics.profile import suggest_reorder_latency
    from repro.workloads import load_dataset

    n = n or stream_length()
    dataset = load_dataset("cloudlog", n)
    snapshot = pipeline_metrics(
        lambda d: d.tumbling_window(max(n // 100, 1))
        .to_streamable().count(),
        dataset,
        punctuation_frequency=max(n // 20, 1),
        reorder_latency=suggest_reorder_latency(dataset.timestamps, 0.99),
    )
    print(format_metrics_summary(snapshot))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=None,
                        help="stream length (default REPRO_BENCH_N or 100k)")
    parser.add_argument("--skip", nargs="*", default=["Figure 5"],
                        help="section prefixes to skip (Figure 5's full "
                             "dump is long; see its module for the series)")
    parser.add_argument("--json", default=None,
                        help="also archive section outputs to this path")
    parser.add_argument("--metrics", action="store_true",
                        help="append an instrumented pipeline-observability "
                             "section (per-operator metrics, punctuation "
                             "latency, occupancy chart)")
    args = parser.parse_args(argv)

    sections = SECTIONS
    if args.metrics:
        sections = SECTIONS + (
            ("Pipeline observability summary", _metrics_section),
        )

    archive = {"n": args.n, "sections": {}}
    for title, report in sections:
        if any(title.startswith(prefix) for prefix in args.skip or ()):
            continue
        print("=" * 72)
        print(title)
        print("=" * 72)
        start = time.perf_counter()
        if args.json:
            capture = io.StringIO()
            with contextlib.redirect_stdout(capture):
                report(args.n)
            text = capture.getvalue()
            print(text, end="")
            archive["sections"][title] = {
                "seconds": round(time.perf_counter() - start, 2),
                "output": text,
            }
        else:
            report(args.n)
        print(f"[section took {time.perf_counter() - start:.1f}s]")
        print()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(archive, fh, indent=2)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
