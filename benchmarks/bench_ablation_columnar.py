"""Ablation — columnar versus row-at-a-time pre-sort processing.

Trill's order-of-magnitude advantage over first-generation SPEs comes
from columnar batching (§I-A); this ablation shows the same lever inside
our substrate: applying the order-insensitive push-down operators
(selection + windowing) on a numpy ``EventBatch``, then feeding only the
surviving timestamps to Impatience sort, versus running the identical
logic through the row-oriented operator pipeline.

Also validates equivalence: both paths must deliver identical sorted
timestamp sequences.

A second sweep compares the vectorized
:class:`~repro.core.columnar.ColumnarImpatienceSorter` (one stable sort
per numpy batch, kept as one sorted chunk; one stable merge per cut)
against the scalar sorter across disorder levels.  Expected: the
columnar sorter wins at every level — its Python-level work is per
batch, not per descent — at a throughput about flat in disorder: the
per-batch sort is one packed-key sort
(:func:`~repro.core.columnar.stable_order`), whose cost does not
depend on how much disorder it undoes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import stream_length
from repro.bench.reporting import format_table
from repro.core.columnar import ColumnarImpatienceSorter
from repro.core.impatience import ImpatienceSorter
from repro.workloads import load_dataset
from repro.engine.batch import EventBatch
from repro.engine.disordered import DisorderedStreamable

DATASETS = ("cloudlog", "androidlog")
SELECT_BOUND = 50   # keep events with key < 50 (≈50% selectivity)
WINDOW = 1_000
DISORDER_SWEEP = (1, 3, 10, 30)
BATCH = 8_192
SORT_LATENCY = 5_000


def columnar_path(dataset):
    """Batch filter + window + sort; returns (elapsed, sorted_times)."""
    start = time.perf_counter()
    batch = EventBatch.from_dataset(dataset)
    batch = batch.filter(batch.keys < SELECT_BOUND)
    batch = batch.compact().tumbling_window(WINDOW)
    sorter = ImpatienceSorter()
    sorter.extend(batch.timestamps())
    out = sorter.flush()
    return time.perf_counter() - start, out


def row_path(dataset):
    """Row operators + sort; returns (elapsed, sorted_times)."""
    start = time.perf_counter()
    result = (
        DisorderedStreamable.from_dataset(dataset)
        .where(lambda e: e.key < SELECT_BOUND)
        .tumbling_window(WINDOW)
        .to_streamable()
        .collect()
    )
    return time.perf_counter() - start, result.sync_times


@pytest.mark.parametrize("name", DATASETS)
def bench_columnar_pushdown(benchmark, datasets, name):
    dataset = datasets[name]
    elapsed, out = benchmark.pedantic(
        lambda: columnar_path(dataset), rounds=1, iterations=1
    )
    benchmark.extra_info["throughput_meps"] = len(dataset) / elapsed / 1e6
    benchmark.extra_info["survivors"] = len(out)


@pytest.mark.parametrize("name", DATASETS)
def bench_row_pushdown(benchmark, datasets, name):
    dataset = datasets[name]
    elapsed, out = benchmark.pedantic(
        lambda: row_path(dataset), rounds=1, iterations=1
    )
    benchmark.extra_info["throughput_meps"] = len(dataset) / elapsed / 1e6
    benchmark.extra_info["survivors"] = len(out)


def columnar_sorter_throughput(timestamps):
    """Batched ColumnarImpatienceSorter run; returns M events/s."""
    times = np.asarray(timestamps, dtype=np.int64)
    sorter = ColumnarImpatienceSorter()
    start = time.perf_counter()
    for i in range(0, len(times), BATCH):
        chunk = times[i:i + BATCH]
        sorter.insert_batch(chunk)
        ts = int(chunk.max()) - SORT_LATENCY
        if sorter.watermark == float("-inf") or ts > sorter.watermark:
            sorter.on_punctuation(ts)
    sorter.flush()
    return len(times) / (time.perf_counter() - start) / 1e6


def scalar_sorter_throughput(timestamps):
    """Batched scalar ImpatienceSorter run; returns M events/s."""
    sorter = ImpatienceSorter()
    start = time.perf_counter()
    for i in range(0, len(timestamps), BATCH):
        chunk = timestamps[i:i + BATCH]
        sorter.extend(chunk)
        ts = max(chunk) - SORT_LATENCY
        if sorter.watermark == float("-inf") or ts > sorter.watermark:
            sorter.on_punctuation(ts)
    sorter.flush()
    return len(timestamps) / (time.perf_counter() - start) / 1e6


@pytest.mark.parametrize("percent", DISORDER_SWEEP)
def bench_columnar_sorter_sweep(benchmark, N, percent):
    dataset = load_dataset(
        "synthetic", min(N, 100_000), percent_disorder=percent,
        amount_disorder=64,
    )
    columnar = benchmark.pedantic(
        lambda: columnar_sorter_throughput(dataset.timestamps),
        rounds=1, iterations=1,
    )
    scalar = scalar_sorter_throughput(dataset.timestamps)
    benchmark.extra_info["columnar_meps"] = columnar
    benchmark.extra_info["scalar_meps"] = scalar
    benchmark.extra_info["speedup"] = columnar / scalar


def bench_paths_equivalent(benchmark, datasets):
    """Both paths deliver the same sorted stream (correctness gate)."""
    def check():
        for name in DATASETS:
            _, columnar = columnar_path(datasets[name])
            _, row = row_path(datasets[name])
            assert columnar == row, name
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)


def report(n=None):
    n = n or stream_length()
    rows = []
    for name in DATASETS:
        dataset = load_dataset(name, n)
        col_elapsed, col_out = columnar_path(dataset)
        row_elapsed, row_out = row_path(dataset)
        assert col_out == row_out
        rows.append([
            name,
            round(len(dataset) / col_elapsed / 1e6, 3),
            round(len(dataset) / row_elapsed / 1e6, 3),
            round(row_elapsed / col_elapsed, 1),
        ])
    print(format_table(
        ["dataset", "columnar M/s", "row M/s", "columnar speedup"],
        rows,
        title=(
            "Ablation: columnar vs row pre-sort push-down "
            f"(selectivity ≈{SELECT_BOUND}%, window {WINDOW})"
        ),
    ))
    print()
    rows = []
    for percent in DISORDER_SWEEP:
        dataset = load_dataset(
            "synthetic", n, percent_disorder=percent, amount_disorder=64
        )
        columnar = columnar_sorter_throughput(dataset.timestamps)
        scalar = scalar_sorter_throughput(dataset.timestamps)
        rows.append([
            percent, round(columnar, 2), round(scalar, 2),
            round(columnar / scalar, 1),
        ])
    print(format_table(
        ["% disorder", "columnar sorter M/s", "scalar sorter M/s",
         "speedup"],
        rows,
        title="Ablation: ColumnarImpatienceSorter (per-batch sort + merge)",
    ))


if __name__ == "__main__":
    report()
