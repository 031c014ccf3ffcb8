"""Workload sizes and the declared metric set.

``BENCHMARK.json`` at the repository root is the one declaration of
workload names, metric names, units and bounds; this module only reads
it.  Sizes live here because they are the harness's choice, not part of
the declaration — ``README.md`` records what was measured when each was
chosen.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: Ingress batch size and punctuation frequency of every columnar
#: workload (``QueryPlan.run``'s default batch; the old ``BENCH_*``
#: files disagree on it, which is why they cannot be compared).
BATCH = 8192

#: Tumbling window of the CloudLog grouped sum and the serve query.
WINDOW = 1000

#: Session gap of the AndroidLog session fold.
SESSION_GAP = 150

#: Coverage the reorder latency is profiled for (p99 completeness).
COVERAGE = 0.99

#: Layers (per-layer metric name prefixes) each workload exercises.  A
#: per-layer metric of any other layer does not apply to the workload:
#: the human report leaves it out, and the driver's result line — which
#: must carry every declared name — carries 0 for it.
LAYERS = {
    "cloud_query": ("workloads", "ingress", "compiler", "kernels", "trace"),
    "sort_online": ("workloads", "columnar", "trace"),
    "android_spill": (
        "workloads", "ingress", "compiler", "kernels", "external", "trace",
    ),
    "cloud_par2": (
        "workloads", "ingress", "runtime", "shm", "worker", "trace",
    ),
    "serve_stream": (
        "workloads", "protocol", "journal", "standing", "tenant", "server",
        "trace",
    ),
}


def applies(workload, metric):
    """Whether a per-layer metric belongs to a layer ``workload`` runs
    (of the two generation times, only its own dataset's)."""
    layer, _, rest = metric.partition(".")
    if rest.endswith("log_gen_s"):
        own = "androidlog" if workload == "android_spill" else "cloudlog"
        return rest.startswith(own)
    return layer in LAYERS[workload]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run; ``--smoke`` shrinks them (``smoke()``)."""

    #: CloudLog events behind ``cloud_query``, ``cloud_par2`` and (as a
    #: prefix) ``sort_online``.
    cloud_n: int = 300_000
    #: Prefix of that stream ``sort_online`` feeds the sorter.
    sort_n: int = 150_000
    #: AndroidLog events behind ``android_spill``.
    android_n: int = 250_000
    #: Sorter memory budget of ``android_spill``, bytes: one byte per
    #: 8.4 events of input keeps the issue's 1M-events-under-8-MB ratio.
    android_budget: int = 2 * 1024 * 1024
    #: Shard workers of ``cloud_par2``.
    workers: int = 2
    #: Shared-memory ring bytes per direction per worker.
    ring_capacity: int = 1 << 23
    #: CloudLog events generated for ``serve_stream``; both phases feed a
    #: prefix of it.
    serve_n: int = 100_000
    #: Closed-loop (phase A) prefix per repetition.
    serve_closed_n: int = 40_000
    #: Open-loop (phase B) schedule, events per second.
    serve_rate: int = 15_000
    #: One ``PUNCT`` line after this many ``EVENT`` lines.
    serve_punct_every: int = 400
    #: Least timed repetitions, whatever ``--seconds`` says.
    min_reps: int = 3
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int = 3
    #: Share of ``--seconds`` the open-loop phase takes on the serve
    #: run; the closed-loop repetitions take the rest.
    open_share: float = 0.6
    #: Smoke only: cap on the repetition loops and a fixed open-loop
    #: length, so the whole matrix stays under a minute.
    rep_seconds_cap: float | None = None
    open_seconds: float | None = None


FULL = Sizes()


def smoke():
    """Every columnar count divided by 20 — but never under four
    batches, since a stream shorter than one batch has no punctuation to
    time — the serve streams by 2 and 4 (a 2 000-event closed loop is
    40 ms, all noise), two repetitions, one set-up, 3 s open loop."""
    def shrink(n):
        return max(n // 20, 4 * BATCH)

    sizes = FULL
    android_n = shrink(sizes.android_n)
    return replace(
        sizes,
        cloud_n=shrink(sizes.cloud_n),
        sort_n=shrink(sizes.sort_n),
        android_n=android_n,
        android_budget=sizes.android_budget * android_n // sizes.android_n,
        serve_n=sizes.serve_n // 2,
        serve_closed_n=sizes.serve_closed_n // 4,
        min_reps=2,
        setups=1,
        rep_seconds_cap=1.5,
        open_seconds=3.0,
    )


def load_declaration():
    """``BENCHMARK.json`` parsed, plus lookup tables by metric name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    doc["workload_names"] = [w["name"] for w in doc["workloads"]]
    doc["units"] = {
        m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]
    }
    return doc
