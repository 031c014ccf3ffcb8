"""Merge strategies for sets of sorted runs.

The merge phase of (Im)Patience sort combines k sorted runs into one.  The
paper discusses three schedules:

* **Huffman merge** (Section III-E1): repeatedly merge the two *smallest*
  runs.  Because run sizes on nearly-sorted data are highly skewed, this
  minimizes the total number of element moves — it is exactly the Huffman
  coding construction with run length as symbol weight.
* **Pairwise merge in creation order** — the non-optimized baseline used for
  the "Impt w/o HM" ablation rows in Figure 7.
* **k-way heap merge** — the schedule classic Patience sort used; prior work
  (Chandramouli & Goldstein, SIGMOD 2014) found binary merges faster on
  modern hardware, so it is provided for comparison only.

All three compare keys with ``<=``, so string keys (``bytes``/``str``)
merge under every schedule; the columnar paths sort strings by
order-preserving dictionary codes instead (:mod:`repro.core.strings`).

All functions take runs as ``(keys, items)`` pairs of parallel ascending
lists and return one merged ``(keys, items)`` pair.  Merges are stable with
respect to run order for equal keys wherever the schedule allows.
"""

from __future__ import annotations

import heapq

__all__ = [
    "merge_two",
    "huffman_merge",
    "pairwise_merge",
    "kway_heap_merge",
    "merge_runs",
    "MERGE_STRATEGIES",
]


def merge_two(left, right, stats=None):
    """Standard two-way merge of ``(keys, items)`` runs; ties favor left.

    Runs in *keyless* form — where the items list is the keys list itself
    (``items is keys``), the representation every sorter uses when sorting
    bare timestamps — are merged in a single pass over one array, and the
    result is returned in the same shared form.
    """
    lkeys, litems = left
    rkeys, ritems = right
    if not lkeys:
        return right
    if not rkeys:
        return left
    i = j = 0
    nl, nr = len(lkeys), len(rkeys)
    if litems is lkeys and ritems is rkeys:
        out = []
        append = out.append
        while i < nl and j < nr:
            if rkeys[j] < lkeys[i]:
                append(rkeys[j])
                j += 1
            else:
                append(lkeys[i])
                i += 1
        out.extend(lkeys[i:] if i < nl else rkeys[j:])
        if stats is not None:
            stats.merges += 1
            stats.merge_events += len(out)
        return out, out
    out_keys = []
    out_items = []
    while i < nl and j < nr:
        if rkeys[j] < lkeys[i]:
            out_keys.append(rkeys[j])
            out_items.append(ritems[j])
            j += 1
        else:
            out_keys.append(lkeys[i])
            out_items.append(litems[i])
            i += 1
    if i < nl:
        out_keys.extend(lkeys[i:])
        out_items.extend(litems[i:])
    else:
        out_keys.extend(rkeys[j:])
        out_items.extend(ritems[j:])
    if stats is not None:
        stats.merges += 1
        stats.merge_events += len(out_keys)
    return out_keys, out_items


def huffman_merge(runs, stats=None):
    """Merge runs smallest-two-first (optimal total element movement).

    A heap of ``(length, sequence_number, run)`` entries drives the Huffman
    schedule; the sequence number breaks length ties deterministically and
    keeps runs themselves out of the comparison.
    """
    runs = [run for run in runs if run[0]]
    if not runs:
        return [], []
    if len(runs) == 1:
        return runs[0]
    heap = [(len(keys), seq, (keys, items)) for seq, (keys, items) in enumerate(runs)]
    heapq.heapify(heap)
    seq = len(heap)
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        merged = merge_two(a, b, stats)
        heapq.heappush(heap, (len(merged[0]), seq, merged))
        seq += 1
    return heap[0][2]


def pairwise_merge(runs, stats=None):
    """Merge adjacent runs two-at-a-time in rounds (the no-HM baseline).

    Balanced binary merging in creation order — the schedule of the
    original Patience sort work the paper builds on (binary merges, but
    oblivious to the skewed run-size distribution that Huffman exploits).
    O(n log k) total movement versus Huffman's weight-optimal schedule.
    """
    runs = [run for run in runs if run[0]]
    if not runs:
        return [], []
    while len(runs) > 1:
        merged = [
            merge_two(runs[i], runs[i + 1], stats)
            for i in range(0, len(runs) - 1, 2)
        ]
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0]


def kway_heap_merge(runs, stats=None):
    """Merge all runs at once through a k-entry min-heap.

    The classic Patience-sort merge; each output element costs a heap
    sift, which is why the paper's predecessor work abandoned it in favor
    of binary merges.
    """
    runs = [run for run in runs if run[0]]
    if not runs:
        return [], []
    if len(runs) == 1:
        return runs[0]
    heap = [(keys[0], seq, 0, keys, items) for seq, (keys, items) in enumerate(runs)]
    heapq.heapify(heap)
    out_keys = []
    out_items = []
    while heap:
        key, seq, idx, keys, items = heapq.heappop(heap)
        out_keys.append(key)
        out_items.append(items[idx])
        idx += 1
        if idx < len(keys):
            heapq.heappush(heap, (keys[idx], seq, idx, keys, items))
    if stats is not None:
        stats.merges += 1
        stats.merge_events += len(out_keys)
    return out_keys, out_items


MERGE_STRATEGIES = {
    "huffman": huffman_merge,
    "pairwise": pairwise_merge,
    "kway": kway_heap_merge,
}


def merge_runs(runs, strategy="huffman", stats=None):
    """Merge runs with a named strategy from :data:`MERGE_STRATEGIES`."""
    try:
        fn = MERGE_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown merge strategy {strategy!r}; "
            f"expected one of {sorted(MERGE_STRATEGIES)}"
        ) from None
    return fn(runs, stats)
