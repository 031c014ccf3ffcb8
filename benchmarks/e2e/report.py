"""Printed reports: one run's metrics by name, and the two-set table
``repeat`` and ``compare`` share."""

from __future__ import annotations

from benchmarks.e2e.measure import median, quartiles

COVERAGE_RANGE = (0.85, 1.15)


def _runs(doc, workload, trace):
    return [
        run for run in doc["runs"]
        if run["workload"] == workload and run["trace"] == trace
        and "error" not in run
    ]


def _values(runs, metric):
    return [run["metrics"][metric]["value"] for run in runs]


def _workloads(doc):
    seen = []
    for run in doc["runs"]:
        if run["workload"] not in seen:
            seen.append(run["workload"])
    return seen


# -- one run --------------------------------------------------------------------

def print_run(declaration, doc):
    """Every metric by name with its unit, per workload; a per-layer
    metric of a layer the workload does not run is left out."""
    env = doc["env"]
    print(f"# nproc={env['nproc']} load={env['loadavg_1m']:.2f} "
          f"python={env['python']} numpy={env['numpy']} "
          f"git={env['git_sha'][:12]} seed={doc['seed']} "
          f"seconds={doc['seconds']} smoke={doc['smoke']}")
    for run in doc["runs"]:
        if "error" in run:
            print(f"\n{run['workload']} seed={run['seed']} "
                  f"trace={run['trace']}: ERROR {run['error']}")
    for workload in _workloads(doc):
        untraced = _runs(doc, workload, 0)
        if untraced:
            info = untraced[0].get("info", {})
            failed = sum(run["failed"] for run in untraced)
            attempted = sum(run["attempted"] for run in untraced)
            print(f"\n{workload}  end to end  ({len(untraced)} run(s), "
                  f"n={info.get('n')}, {info.get('reps')} repetitions, "
                  f"{info.get('latency_samples')} latency samples, "
                  f"checks failed {failed}/{attempted})")
            for metric in declaration["end_to_end"]:
                name = metric["name"]
                value = median(_values(untraced, name))
                print(f"  {name:<34} {value:>16.6g} {metric['unit']}")
            for failure in info.get("failures", []):
                print(f"  FAILED: {failure}")
        for run in _runs(doc, workload, 1):
            print(f"{workload}  per layer  (checks failed "
                  f"{run['failed']}/{run['attempted']})")
            for metric in declaration["per_layer"]:
                name = metric["name"]
                if name in run["metrics"]:
                    value = run["metrics"][name]["value"]
                    print(f"  {name:<34} {value:>16.6g} {metric['unit']}")


def check(doc):
    """``--check``: 0 only when nothing failed, every result carries
    exactly the declared metrics, and every replay covered its
    untraced wall."""
    problems = []
    low, high = COVERAGE_RANGE
    for run in doc["runs"]:
        tag = f"{run['workload']} seed={run['seed']} trace={run['trace']}"
        if "error" in run:
            problems.append(f"{tag}: {run['error']}")
            continue
        if run["failed"] or not run["correct"]:
            problems.append(
                f"{tag}: {run['failed']}/{run['attempted']} checks failed"
            )
        if run["missing"] or run["undeclared"]:
            problems.append(
                f"{tag}: missing {run['missing']}, undeclared "
                f"{run['undeclared']}"
            )
        if run["trace"]:
            coverage = run["metrics"]["trace.coverage"]["value"]
            if not low <= coverage <= high:
                problems.append(
                    f"{tag}: trace.coverage {coverage:.3f} outside "
                    f"{low}-{high}"
                )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print("check: ok")
    return 1 if problems else 0


# -- two sets -------------------------------------------------------------------

def compare_metric(metric, first, second):
    """One row of the two-set table.

    ``worse_by`` is how far the second median is on the wrong side of
    the first, as a share of the first (negative: it is better).  A pair
    is a *violation* when that exceeds the bound, *unresolved* when
    either set's own quartile spread exceeds the bound — the sets cannot
    tell a regression of that size from noise — and *ok* otherwise.
    """
    q1a, a, q3a = quartiles(first)
    q1b, b, q3b = quartiles(second)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b - a) / a
    spreads = ((q3a - q1a) / a, (q3b - q1b) / b)
    if worse_by > metric["bound"]:
        verdict = "VIOLATION"
    elif max(spreads) > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "first": (q1a, a, q3a), "second": (q1b, b, q3b),
        "spreads": spreads, "worse_by": worse_by, "verdict": verdict,
    }


def print_comparison(declaration, sets, labels, same_seeds=False):
    """Per workload × end-to-end metric: both medians with quartiles,
    each set's spread, the relative difference with its base, the bound
    and a verdict.  Returns 1 on any violation, else 0."""
    base, base_label = sets[0], labels[0]
    violations = unresolved = 0
    header = (f"{'workload':<14}{'metric':<22}{'unit':<10}"
              f"{'median [q1, q3] of ' + base_label:<40}"
              f"{'median [q1, q3] of other':<40}"
              f"{'spreads':<16}{'worse by':<11}{'bound':<7}verdict")
    for other, label in zip(sets[1:], labels[1:]):
        print(f"\n== {label} against {base_label} "
              f"(every ratio has {base_label}'s median as its base) ==")
        print(header)
        for workload in _workloads(base):
            first, second = _runs(base, workload, 0), _runs(other, workload, 0)
            if not first or not second:
                print(f"{workload:<14}no successful runs in one set")
                violations += 1
                continue
            for metric in declaration["end_to_end"]:
                row = compare_metric(
                    metric, _values(first, metric["name"]),
                    _values(second, metric["name"]),
                )
                violations += row["verdict"] == "VIOLATION"
                unresolved += row["verdict"] == "unresolved"
                print(
                    f"{workload:<14}{metric['name']:<22}{metric['unit']:<10}"
                    f"{_spread(row['first']):<40}{_spread(row['second']):<40}"
                    f"{row['spreads'][0]:.3f}/{row['spreads'][1]:.3f}     "
                    f"{row['worse_by']:+.3f}     {metric['bound']:<7}"
                    f"{row['verdict']}"
                )
            if same_seeds:
                violations += _exact_repeats(workload, first, second)
            failed = sum(run["failed"] for run in first + second)
            if failed:
                violations += 1
                print(f"{workload:<14}{failed} checks FAILED")
    errors = [r for s in sets for r in s["runs"] if "error" in r]
    for run in errors:
        print(f"ERROR {run['workload']} seed={run['seed']}: {run['error']}")
    print(f"\n{violations + len(errors)} violation(s), "
          f"{unresolved} unresolved")
    return 1 if violations or errors else 0


def _spread(triple):
    q1, mid, q3 = triple
    return f"{mid:.6g} [{q1:.6g}, {q3:.6g}]"


def _exact_repeats(workload, first, second):
    """``completeness`` is a count ratio: the same seed repeats it
    exactly, or the benchmark's inputs are not what the seed says."""
    by_seed = {
        run["seed"]: run["metrics"]["completeness"]["value"] for run in first
    }
    bad = [
        run["seed"] for run in second
        if run["seed"] in by_seed
        and run["metrics"]["completeness"]["value"] != by_seed[run["seed"]]
    ]
    if bad:
        print(f"{workload:<14}completeness did not repeat exactly on "
              f"seeds {bad}")
    return len(bad)
