"""Bounded-memory external sorting — throughput and run lengths under
a hard budget.

The headline measurement behind the out-of-core run pool (see
``docs/external_sort.md``): the 10M-event cloudlog stream — ~240 MB of
columnar state at 24 B/event — sorted to completion under a **64 MB**
memory budget by :class:`~repro.core.columnar.ColumnarImpatienceSorter`
with ``memory_budget`` set, against the same sorter unbudgeted, whose
output it must match byte-for-byte.  Every timed budgeted run is equivalence-
checked against the in-memory output, so a speedup (or a survived
budget) obtained by dropping or reordering events can never be recorded.

Two invariants are *asserted*, not just reported:

* ``peak_buffered_bytes <= budget`` — the budget is a hard cap on the
  resting buffer, enforced by the spill metrics the sorter itself
  publishes;
* ``avg_run_bytes >= 2 * budget`` — on the nearly-sorted cloudlog
  arrival order, batched replacement selection must produce on-disk
  runs at least twice the memory budget (the classic expected run
  length, unbounded for sorted input).

``python -m benchmarks.bench_external_sort`` writes the machine-readable
results to ``BENCH_external.json`` (schema per entry: ``name``,
``config``, ``events_per_sec``, ``spill``) so future PRs can track
regressions; the file is only refreshed at the canonical ``n`` so a
quick ``--n`` pass can't replace the baseline with a toy trajectory.
``--smoke`` runs a seconds-scale subset (200k events, 512 KB budget)
for CI and skips the JSON write.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.bench.reporting import format_table
from repro.core.columnar import ColumnarImpatienceSorter
from repro.workloads.cloudlog import cloudlog_arrays

DEFAULT_N = 10_000_000
DEFAULT_BUDGET = 64 * 1024 ** 2
RESULTS_PATH = "BENCH_external.json"

SMOKE_N = 200_000
SMOKE_BUDGET = 512 * 1024

BATCH = 65_536
PUNCTUATIONS = 3  # mid-stream cuts; the deep lag keeps runs alive
COLUMNS = 2       # grouping key + one payload column = 24 B/event


def _workload(n):
    """Cloudlog arrival-order timestamps plus two payload columns."""
    ts, keys, _rng = cloudlog_arrays(n)
    payload = (ts * np.int64(2654435761)) & np.int64(0x7FFFFFFF)
    return ts, (keys, payload)


def _drive(sorter, ts, cols, lag):
    """Feed the stream in ingress batches with ``PUNCTUATIONS`` deep
    mid-stream cuts; returns the list of emitted (keys, cols) cuts."""
    n = len(ts)
    marks = {(n * (i + 1)) // (PUNCTUATIONS + 1)
             for i in range(PUNCTUATIONS)}
    outputs = []
    high = None
    for start in range(0, n, BATCH):
        stop = min(start + BATCH, n)
        sorter.insert_batch(
            ts[start:stop], tuple(col[start:stop] for col in cols)
        )
        top = int(ts[start:stop].max())
        high = top if high is None else max(high, top)
        if any(start < mark <= stop for mark in marks):
            outputs.append(sorter.on_punctuation(high - lag))
    outputs.append(sorter.flush())
    return outputs


def _assert_identical(got, want, budget):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        gk, gc = g
        wk, wc = w
        if not np.array_equal(gk, wk) or any(
            not np.array_equal(a, b) for a, b in zip(gc, wc)
        ):
            raise AssertionError(
                f"budgeted run (budget={budget}) diverged from the "
                "in-memory sorter"
            )


def run_bench(n=DEFAULT_N, budget=DEFAULT_BUDGET):
    """Time the in-memory baseline and the budgeted external sorter on
    the same stream; returns the ``BENCH_external.json`` entry list."""
    ts, cols = _workload(n)
    lag = max((int(ts.max()) - int(ts.min())) // 6, 1)
    bytes_per_row = 8 * (1 + COLUMNS)

    start = time.perf_counter()
    baseline = _drive(
        ColumnarImpatienceSorter(columns=COLUMNS), ts, cols, lag
    )
    memory_eps = n / (time.perf_counter() - start)

    external = ColumnarImpatienceSorter(
        memory_budget=budget, columns=COLUMNS
    )
    try:
        start = time.perf_counter()
        got = _drive(external, ts, cols, lag)
        external_eps = n / (time.perf_counter() - start)
        _assert_identical(got, baseline, budget)
        spill = external.spill_doc()
    finally:
        external.close()

    assert spill["peak_buffered_bytes"] <= budget, (
        f"budget violated: peak {spill['peak_buffered_bytes']} "
        f"> {budget}"
    )
    assert spill["avg_run_bytes"] >= 2 * budget, (
        f"replacement selection underperformed on nearly-sorted input: "
        f"avg run {spill['avg_run_bytes']:.0f} B < 2x budget {budget} B"
    )

    config = {
        "n": n, "dataset": "cloudlog", "columns": COLUMNS,
        "bytes_per_event": bytes_per_row, "batch": BATCH,
        "punctuations": PUNCTUATIONS,
    }
    return [
        {
            "name": "in-memory-columnar",
            "config": config,
            "events_per_sec": round(memory_eps, 1),
            "spill": None,
            "slowdown_vs_memory": 1.0,
        },
        {
            "name": f"external-{budget // (1024 ** 2) or budget}",
            "config": {**config, "budget_bytes": budget},
            "events_per_sec": round(external_eps, 1),
            "spill": spill,
            "slowdown_vs_memory": round(memory_eps / external_eps, 2),
            "avg_run_to_budget": round(spill["avg_run_bytes"] / budget, 2),
        },
    ]


def write_results(entries, path=RESULTS_PATH):
    with open(path, "w") as fh:
        json.dump({"benchmark": "external_sort", "results": entries},
                  fh, indent=2)
        fh.write("\n")


def _print_table(entries, n, budget):
    rows = []
    for entry in entries:
        spill = entry["spill"]
        rows.append([
            entry["name"],
            round(entry["events_per_sec"] / 1e6, 3),
            entry["slowdown_vs_memory"],
            spill["runs_spilled"] if spill else "-",
            round(spill["bytes_written"] / 1e6, 1) if spill else "-",
            round(spill["peak_buffered_bytes"] / 1e6, 2) if spill else "-",
            entry.get("avg_run_to_budget", "-"),
        ])
    print(format_table(
        ["run", "M events/s", "slowdown", "runs",
         "MB written", "peak MB", "run/budget"],
        rows,
        title=(
            f"External sort (cloudlog {n}, budget "
            f"{budget // 1024} KB, byte-identity checked)"
        ),
    ))


def report(n=None):
    """Report-section entry point; refreshes BENCH_external.json only
    at the canonical DEFAULT_N."""
    n = n or DEFAULT_N
    budget = DEFAULT_BUDGET if n == DEFAULT_N else \
        max(n * 24 // 4, 4096)
    entries = run_bench(n, budget)
    _print_table(entries, n, budget)
    if n == DEFAULT_N:
        write_results(entries)
        print(f"wrote {RESULTS_PATH}")
    else:
        print(f"n={n} != default {DEFAULT_N}; skipping {RESULTS_PATH} write")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=None,
                        help=f"stream length (default {DEFAULT_N})")
    parser.add_argument("--budget", type=int, default=None,
                        help=f"memory budget in bytes "
                             f"(default {DEFAULT_BUDGET})")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: 200k events under 512 KB, no "
                             "JSON write — exercises spill + merge and "
                             "the byte-identity and run-length asserts")
    parser.add_argument("--json", default=None,
                        help="results path (default BENCH_external.json; "
                             "ignored with --smoke unless given)")
    args = parser.parse_args(argv)

    if args.smoke:
        n = args.n or SMOKE_N
        budget = args.budget or SMOKE_BUDGET
        entries = run_bench(n, budget)
        _print_table(entries, n, budget)
        if args.json:
            write_results(entries, args.json)
            print(f"wrote {args.json}")
        print("smoke OK")
        return
    n = args.n or DEFAULT_N
    budget = args.budget or DEFAULT_BUDGET
    entries = run_bench(n, budget)
    _print_table(entries, n, budget)
    if args.json is None and (n != DEFAULT_N or budget != DEFAULT_BUDGET):
        print(f"non-canonical run (n={n}, budget={budget}); skipping "
              f"{RESULTS_PATH} write (pass --json PATH to record it)")
        return
    path = args.json or RESULTS_PATH
    write_results(entries, path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
