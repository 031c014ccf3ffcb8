"""Command line: the driver's single run, and ``run`` / ``repeat`` /
``compare`` on top of it.

Every measurement ``run`` and ``repeat`` report comes from the same
single-run command the driver invokes, in a subprocess of its own, so a
number printed here is a number the driver would see.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

from benchmarks.e2e import report, spec

TOOLS = ("run", "repeat", "compare")
#: A single run answers within this, set-up included.
RUN_TIMEOUT = 180


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in TOOLS:
        return _tool(argv)
    return _single(argv)


# -- the driver's contract: one workload, one result line ---------------------------

def _single(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="one run of one workload; last stdout line is the "
                    "result JSON",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    from benchmarks.e2e import runner

    if args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(runner.WORKLOADS)}")
    # SIGTERM unwinds like SIGINT does, so the clean-up below runs.
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        result, info = runner.run_once(
            args.workload, args.seed, args.seconds, bool(args.trace),
            smoke=args.smoke,
        )
    except runner.UndeclaredMetrics as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        # Also on an exception, SIGINT or SIGTERM: no process this run
        # started is alive, or unreaped, when it returns.
        runner.stop_children()
    print("INFO " + json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


# -- tools ------------------------------------------------------------------------

def _tool(argv):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="tool", required=True)

    def common(p):
        p.add_argument("--workload", action="append",
                       help="run only this workload (repeatable)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=None,
                       help="per-run measuring time (default: "
                            "BENCHMARK.json run_seconds)")
        p.add_argument("--smoke", action="store_true",
                       help="sizes / 20, 2 repetitions, 3 s open loop")
        p.add_argument("--out", metavar="FILE")

    run = sub.add_parser("run", help="every workload, untraced then traced")
    common(run)
    run.add_argument("--runs", type=int, default=1,
                     help="untraced runs per workload, seeds S..S+runs-1")
    run.add_argument("--check", action="store_true",
                     help="exit non-zero on a failed check, trace.coverage "
                          "outside 0.85-1.15, or an undeclared/missing "
                          "metric")
    rep = sub.add_parser("repeat", help="the same code twice; agree "
                                        "within the bounds?")
    common(rep)
    rep.add_argument("--sets", type=int, default=2)
    rep.add_argument("--runs", type=int, default=10,
                     help="runs per set and workload, seeds S..S+runs-1")
    cmp_ = sub.add_parser("compare", help="parent-vs-change table from two "
                                          "--out files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)

    declaration = spec.load_declaration()
    if args.tool == "compare":
        with open(args.a) as fa, open(args.b) as fb:
            sets = [json.load(fa), json.load(fb)]
        return report.print_comparison(declaration, sets, (args.a, args.b))

    names = args.workload or declaration["workload_names"]
    seconds = args.seconds or declaration["run_seconds"]
    env = environment()
    if env["loadavg_1m"] > 0.5:
        print(f"warning: 1-minute load average is {env['loadavg_1m']:.2f} "
              "(> 0.5); timings will be noisy", file=sys.stderr)
    if args.tool == "run":
        doc = collect(names, args.seed, args.runs, seconds, args.smoke,
                      traced=True, env=env)
        report.print_run(declaration, doc)
        _save(args.out, doc)
        return report.check(doc) if args.check else 0
    sets = [
        collect(names, args.seed, args.runs, seconds, args.smoke,
                traced=False, env=env, label=f"set {index + 1}")
        for index in range(args.sets)
    ]
    _save(args.out, {"sets": sets})
    labels = [f"set {i + 1}" for i in range(len(sets))]
    return report.print_comparison(
        declaration, sets, labels, same_seeds=True
    )


def _save(path, doc):
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def environment():
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, text=True,
            capture_output=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def collect(names, seed, runs, seconds, smoke, traced, env, label="run"):
    """``runs`` untraced runs per workload on seeds ``seed..``, then (with
    ``traced``) one traced run on ``seed``; each in its own process."""
    out = []
    for name in names:
        plan = [(seed + i, 0) for i in range(runs)]
        if traced:
            plan.append((seed, 1))
        for run_seed, trace in plan:
            print(f"[{label}] {name} seed={run_seed} trace={trace} ...",
                  file=sys.stderr, flush=True)
            out.append(single_run(name, run_seed, seconds, trace, smoke))
    return {"env": env, "seed": seed, "seconds": seconds, "smoke": smoke,
            "runs": out}


def single_run(name, seed, seconds, trace, smoke):
    """The driver's command in a subprocess; its two last lines parsed."""
    command = [
        sys.executable, os.path.join(spec.HERE, "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    doc = {"workload": name, "seed": seed, "trace": trace}
    # A session of its own, so a run that hangs is killed with every
    # process it started, not orphaned from them.
    proc = subprocess.Popen(
        command, cwd=spec.ROOT, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {**doc, "error": f"no result within {RUN_TIMEOUT} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**doc, "error": f"exit {proc.returncode}: "
                                f"{stderr.strip()[-400:]}"}
    doc.update(json.loads(lines[-1]))
    for line in lines[:-1]:
        if line.startswith("INFO "):
            doc["info"] = json.loads(line[5:])
    # The result line carries every declared name (0 where a layer does
    # not apply); records and reports keep only what applies.
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"] for m in spec.load_declaration()[kind]}
    doc["missing"] = sorted(declared - set(doc["metrics"]))
    doc["undeclared"] = sorted(set(doc["metrics"]) - declared)
    applicable = doc.get("info", {}).pop("applicable", declared)
    doc["metrics"] = {
        name: value for name, value in doc["metrics"].items()
        if name in applicable
    }
    return doc
