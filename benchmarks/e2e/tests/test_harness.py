"""The harness's own tests (``python -m pytest benchmarks/e2e/tests``;
tier-1 does not collect this directory).

They cover what a later PR relies on without reading the harness: that
each workload reports exactly the declared metrics, that the order
statistics and span arithmetic are right, that the open loop times from
the due time, and — the negative controls — that every reference check
can fail.
"""

import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from benchmarks.e2e.run import bootstrap

bootstrap()

from repro.engine.event import Event  # noqa: E402

from benchmarks.e2e import cli, measure, report, runner, serve, spec  # noqa: E402
from benchmarks.e2e.checks import Checks  # noqa: E402

DECLARATION = spec.load_declaration()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SMALL = spec.smoke()


# -- the declaration ----------------------------------------------------------------

def test_declaration_meets_the_contract():
    doc = DECLARATION
    assert set(doc) - {"workload_names", "units"} == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += doc["workload_names"]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("lower", "higher")
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * 30 <= 3420, "30 s a run, set-up included, is the budget"
    assert set(spec.LAYERS) == set(doc["workload_names"])
    layers = {name.split(".", 1)[0] for name in
              (m["name"] for m in doc["per_layer"])}
    assert layers == {layer for ls in spec.LAYERS.values() for layer in ls}


@pytest.mark.parametrize("workload", DECLARATION["workload_names"])
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_emits_exactly_the_declared_metrics(workload, trace):
    run = cli.single_run(workload, seed=3, seconds=1, trace=trace, smoke=True)
    assert "error" not in run, run
    assert run["missing"] == [] and run["undeclared"] == []
    kind = "per_layer" if trace else "end_to_end"
    declared = [m["name"] for m in DECLARATION[kind]]
    assert sorted(run["metrics"]) == sorted(
        m for m in declared if not trace or spec.applies(workload, m)
    )
    assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
    for name, metric in run["metrics"].items():
        assert metric["unit"] == DECLARATION["units"][name]
    if not trace:
        assert all(run["metrics"][m]["value"] > 0 for m in declared)


def test_result_line_carries_every_declared_name():
    result, _ = runner.run_once("sort_online", 3, 1, trace=True, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in DECLARATION["per_layer"]
    )
    assert result["metrics"]["runtime.rounds"]["value"] == 0.0
    assert result["metrics"]["columnar.binary_searches"]["value"] > 0


# -- order statistics and spans -------------------------------------------------------

def test_supported_percentile_leaves_ten_samples_beyond():
    assert measure.supported_percentile(1000) == 99
    assert measure.supported_percentile(999) == 95
    assert measure.supported_percentile(200) == 95
    assert measure.supported_percentile(199) == 90
    assert measure.supported_percentile(40) == 75
    assert measure.supported_percentile(19) is None
    for count in range(20, 1200, 7):
        p = measure.supported_percentile(count)
        assert count - count * p / 100.0 >= 10


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert measure.percentile(samples, 50) == 100
    assert measure.percentile(samples, 95) == 190
    assert measure.percentile([7.0], 95) == 7.0


def test_self_time_is_duration_minus_direct_children():
    tracer = measure.Tracer("w")
    root = tracer.add("root", 0.0, 10.0)
    tracer._stack.append(root["id"])
    child = tracer.add("child", 1.0, 5.0)
    tracer._stack.append(child["id"])
    tracer.add("leaf", 2.0, 3.0)
    tracer._stack.pop()
    tracer.add("child", 6.0, 8.0)
    tracer._stack.pop()
    own = measure.self_times(tracer.spans)
    assert own == {"root": 4.0, "child": 5.0, "leaf": 1.0}
    assert sum(own.values()) == 10.0


def test_span_context_nests_and_times():
    tracer = measure.Tracer("w")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_two_set_table_verdicts():
    lower = {"name": "m", "unit": "s", "better": "lower", "bound": 0.10}
    higher = dict(lower, better="higher")
    steady = [1.0, 1.01, 0.99, 1.0, 1.0, 1.01, 0.99, 1.0, 1.0, 1.0]
    assert report.compare_metric(lower, steady, steady)["verdict"] == "ok"
    slower = [v * 1.2 for v in steady]
    assert report.compare_metric(lower, steady, slower)["verdict"] == "VIOLATION"
    assert report.compare_metric(higher, steady, slower)["verdict"] == "ok"
    assert report.compare_metric(higher, slower, steady)["verdict"] == "VIOLATION"
    noisy = [0.8, 1.2, 0.7, 1.3, 1.0, 0.9, 1.1, 0.75, 1.25, 1.0]
    assert report.compare_metric(lower, noisy, noisy)["verdict"] == "unresolved"


# -- the open loop ------------------------------------------------------------------

def _toy_stream():
    """Four events, a PUNCT after the 2nd and 4th, then END."""
    frames = [b"EVENT 0", b"EVENT 1", b"PUNCT 2", b"EVENT 3", b"EVENT 4",
              b"PUNCT 5", b"END 6"]
    return SimpleNamespace(
        frames=frames, punct_frames=[2, 5], covered=[2, 4], every=2,
        releases={999: 0},      # only the first PUNCT closes a window
        events_before=np.cumsum([f.startswith(b"EVENT") for f in frames]),
    )


def test_open_loop_times_from_the_due_time_not_the_send_time():
    stream = _toy_stream()
    due = serve.open_loop_due(stream, rate=2)       # events due 0, .5, 1, 1.5
    assert due == [0.0, 0.5, 0.5, 1.0, 1.5, 1.5, 1.5]
    # The generator stalled: everything left 2 s late in one batch.
    obs = SimpleNamespace(
        log=[(3.5, 7)], ioff=[(3, 3.6), (6, 3.7)], rpunct=[(999, 3.65)],
        errors=[],
    )
    checks = Checks()
    out = serve.open_loop_metrics("toy", stream, due, obs, checks)
    # PUNCT 0: due 0.5, answered when both IOFF (3.6) and RPUNCT (3.65)
    # are in hand; PUNCT 1 closes no window, so its IOFF (3.7) answers it.
    assert out.waits_ms == pytest.approx([3150.0, 2200.0])
    assert out.ack_ms == pytest.approx([100.0, 200.0])
    assert out.gen_late_ms_p95 == pytest.approx(3500.0)
    assert checks.failed == 0 and checks.attempted == 3


def test_open_loop_counts_a_missing_answer_and_a_late_one_as_failed():
    stream = _toy_stream()
    due = serve.open_loop_due(stream, rate=2)
    obs = SimpleNamespace(
        log=[(0.0, 7)], ioff=[(3, 0.6 + serve.ANSWER_DEADLINE)],
        rpunct=[(999, 0.6)], errors=[],
    )
    checks = Checks()
    serve.open_loop_metrics("toy", stream, due, obs, checks)
    assert checks.failed == 2        # PUNCT 0 too late, PUNCT 1 never


# -- negative controls: every reference check can fail ----------------------------------

@pytest.fixture(scope="module")
def cloud():
    workload = runner.WORKLOADS["cloud_query"]
    state = workload.make_inputs(5, SMALL)
    workload.add_reference(state)
    return workload, state


def _failed(workload, state, result):
    checks = Checks()
    workload.check(state, result, checks)
    return checks.failed


def test_clean_output_passes(cloud):
    workload, state = cloud
    assert _failed(workload, state, workload.entry(state)) == 0


def test_one_corrupt_event_fails(cloud):
    workload, state = cloud
    result = workload.entry(state)
    first = result.events[0]
    result.events[0] = Event(
        first.sync_time, first.other_time, first.key, first.payload + 1
    )
    assert _failed(workload, state, result) > 0


def test_one_dropped_punctuation_fails(cloud):
    workload, state = cloud
    result = workload.entry(state)
    del result.punctuations[0]
    assert _failed(workload, state, result) > 0


def test_parallel_check_ignores_order_but_not_content(cloud):
    _, state = cloud
    workload = runner.WORKLOADS["cloud_par2"]
    result = runner.WORKLOADS["cloud_query"].entry(state)
    result.events.reverse()
    assert _failed(workload, state, result) == 0
    result.events.pop()
    assert _failed(workload, state, result) > 0


def test_exceeding_the_budget_fails():
    workload = runner.WORKLOADS["android_spill"]
    state = workload.make_inputs(5, SMALL)
    workload.add_reference(state)
    result = workload.entry(state)
    assert result.spill["spills"] > 0, "the budget must force spilling"
    assert _failed(workload, state, result) == 0
    result.spill["peak_buffered_bytes"] = state.budget + 1
    assert _failed(workload, state, result) > 0


def test_sorter_check_catches_a_wrong_value_and_a_lost_one():
    workload = runner.WORKLOADS["sort_online"]
    state = workload.make_inputs(5, SMALL)
    result = workload.entry(state)
    assert _failed(workload, state, result) == 0
    ts, cols = result.tail
    result.tail = (ts[:-1], (cols[0][:-1],))
    assert _failed(workload, state, result) > 0
    result = workload.entry(state)
    result.tail[1][0][0] += 1            # one key changed
    assert _failed(workload, state, result) > 0


def test_serve_check_catches_a_dropped_result_line():
    stream = serve.encode_stream(
        runner.WORKLOADS["cloud_query"].make_inputs(5, SMALL).dataset,
        SMALL.serve_punct_every, {},
    )
    reference = serve.batch_reference(stream.elements)
    lines = [
        serve.result_line(serve.QID, i, e).encode()
        for i, e in enumerate(reference.events)
    ]
    counters = {"shed": 0, "quarantined": 0}

    def failed(lines, counters):
        obs = SimpleNamespace(lines=lines, errors=[])
        checks = Checks()
        serve.check_run("t", reference, obs, counters, checks)
        return checks.failed

    # The reference's punctuations are missing from these lines too.
    assert failed(lines, counters) == (1 if reference.punctuations else 0)
    puncts = [
        f"RPUNCT {serve.QID} 0 {ts}".encode() for ts in reference.punctuations
    ]
    assert failed(lines + puncts, counters) == 0
    assert failed(lines[1:] + puncts, counters) == 1
    assert failed(lines + puncts, {"shed": 1, "quarantined": 0}) == 1


# -- nothing outlives a run ----------------------------------------------------------

_LEAKY = """
import subprocess, sys
from multiprocessing import shared_memory
sys.path[:0] = {paths!r}
from benchmarks.e2e import runner
segment = shared_memory.SharedMemory(create=True, size=64)   # starts the tracker
segment.close(); segment.unlink()
subprocess.Popen(["sleep", "60"])                            # a stray
assert len(runner.child_pids()) == 2, runner.child_pids()
runner.stop_children(grace=2.0)
print(runner.child_pids())
"""


def test_stop_children_leaves_no_child_alive_or_unreaped():
    paths = [os.path.join(spec.ROOT, "src"), spec.ROOT]
    done = subprocess.run(
        [sys.executable, "-c", _LEAKY.format(paths=paths)],
        text=True, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
