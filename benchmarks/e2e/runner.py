"""One run of one workload: the unit the driver invokes.

``--trace 0`` sets up (several times, for a steady ``setup_s``), probes
peak resident memory on the warm-up call, then times repetitions with
tracing off and reports the end-to-end metrics.  ``--trace 1`` sets up
once, replays the workload under spans and reports the per-layer
metrics.  Either way every output is checked against its reference, and
everything the run creates on disk lives under one temp root that is
removed on the way out.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, replace

from benchmarks.e2e import spec
from benchmarks.e2e.batch import AndroidSpill, CloudPar2, CloudQuery
from benchmarks.e2e.checks import Checks
from benchmarks.e2e.measure import Tracer, median, peak_rss_during
from benchmarks.e2e.online import SortOnline
from benchmarks.e2e.serve import ServeStream

WORKLOADS = {
    w.name: w for w in (
        CloudQuery(), SortOnline(), AndroidSpill(), CloudPar2(),
        ServeStream(),
    )
}


class UndeclaredMetrics(Exception):
    """The run produced a metric set other than the declared one."""


@contextmanager
def temp_root():
    """One directory for spill files, serve data dirs and journals,
    removed on exit — also on an exception, SIGINT or SIGTERM."""
    os.makedirs(spec.OUT_DIR, exist_ok=True)
    root = tempfile.mkdtemp(prefix="tmp-", dir=spec.OUT_DIR)
    saved = tempfile.tempdir, os.environ.get("TMPDIR")

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, terminate)
    tempfile.tempdir = root
    os.environ["TMPDIR"] = root
    try:
        yield root
    finally:
        signal.signal(signal.SIGTERM, previous)
        tempfile.tempdir = saved[0]
        if saved[1] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[1]
        shutil.rmtree(root, ignore_errors=True)


def child_pids():
    """Every direct child of this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                after_name = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue                    # gone between listdir and open
        if int(after_name[1]) == me:    # state, then ppid
            found.append(int(entry))
    return found


def _reap(pids, grace):
    """SIGTERM, wait up to ``grace`` seconds in all, SIGKILL, wait."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass                        # reaped by whoever started it


def stop_children(grace=5.0):
    """Stop every process this one started and wait until each has ended.

    The workloads stop their own (shard workers are joined, the server
    is terminated and waited for); what is left on a clean way out is
    ``multiprocessing``'s resource tracker, which ``run_parallel``'s
    shared-memory rings start and which otherwise outlives this process
    by the moment it takes to notice its pipe closed.  On an exception
    or a signal it is also whatever the workload could not stop.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    # Strays first: they hold the tracker's pipe open, and the tracker
    # ends only when the last writer is gone.
    _reap([pid for pid in child_pids() if pid != tracker_pid], grace)
    if tracker_pid is not None and hasattr(tracker, "_stop"):
        tracker._stop()                 # closes the pipe, waits for the exit
    _reap(child_pids(), grace)


def run_once(name, seed, seconds, trace, smoke=False):
    """Run workload ``name``; returns ``(result line doc, info doc)``."""
    declaration = spec.load_declaration()
    workload = WORKLOADS[name]
    sizes = spec.smoke() if smoke else spec.FULL
    if sizes.open_seconds is None:
        sizes = replace(sizes, open_seconds=seconds * sizes.open_share)
    if sizes.rep_seconds_cap is not None:
        seconds = min(seconds, sizes.rep_seconds_cap)
    checks = Checks()
    with temp_root():
        if trace:
            metrics, info = _traced(workload, seed, seconds, sizes, checks)
            declared = [m["name"] for m in declaration["per_layer"]]
            expected = [m for m in declared if spec.applies(name, m)]
        else:
            metrics, info = _untraced(workload, seed, seconds, sizes, checks)
            declared = [m["name"] for m in declaration["end_to_end"]]
            expected = declared
    if sorted(metrics) != sorted(expected):
        raise UndeclaredMetrics(
            f"{name}: missing {sorted(set(expected) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(expected))}"
        )
    info.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        smoke=smoke, sizes=asdict(sizes), failures=checks.failures,
        applicable=expected,
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            metric: {
                "value": float(metrics.get(metric, 0.0)),
                "unit": declaration["units"][metric],
            }
            for metric in declared
        },
    }
    return result, info


def _set_up(workload, seed, sizes, probe=False):
    """One full set-up; ``(state, seconds, peak MiB of the probe)``.

    With ``probe`` the entry point runs once between the inputs and the
    reference, under a reset resident-memory high-water mark: the
    process then holds the inputs and nothing else, which is what a
    user running the query would hold.
    """
    t0 = time.perf_counter()
    state = workload.make_inputs(seed, sizes)
    spent = time.perf_counter() - t0
    peak = None
    if probe and hasattr(workload, "entry"):
        _, peak = peak_rss_during(lambda: workload.entry(state))
    t0 = time.perf_counter()
    try:
        workload.add_reference(state)
    except BaseException:
        workload.teardown(state)
        raise
    return state, spent + time.perf_counter() - t0, peak


def _untraced(workload, seed, seconds, sizes, checks):
    setups, peak, state = [], None, None
    for index in range(sizes.setups):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        state, spent, probed = _set_up(workload, seed, sizes, probe=index == 0)
        setups.append(spent)
        peak = probed if index == 0 else peak
    try:
        gc.collect()
        gc.freeze()     # keep per-repetition collections off the inputs
        metrics, info, _ = workload.untraced(state, seconds, checks)
    finally:
        workload.teardown(state)
    metrics["setup_s"] = median(setups)
    if peak is not None:
        metrics["peak_rss_mb"] = peak
    info["setups"] = len(setups)
    info["setup_parts_s"] = state.parts
    return metrics, info


def _traced(workload, seed, seconds, sizes, checks):
    state, _, _ = _set_up(workload, seed, sizes)
    tracer = Tracer(workload.name)
    try:
        gc.collect()
        gc.freeze()
        metrics, _ = workload.traced(state, seconds, tracer, checks)
    finally:
        workload.teardown(state)
    for part in ("cloudlog_gen_s", "androidlog_gen_s", "profile_s",
                 "reference_s"):
        if part in state.parts:
            metrics[f"workloads.{part}"] = state.parts[part]
    path = os.path.join(spec.OUT_DIR, f"trace-{workload.name}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "spans": tracer.spans}, fh)
    info = {"spans": len(tracer.spans), "trace_file": path,
            "setup_parts_s": state.parts}
    return metrics, info
