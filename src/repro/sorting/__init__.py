"""Baseline sorting algorithms and the generic incremental adapter."""

from repro.sorting.external import (
    ExternalImpatienceSorter,
    ExternalRunPool,
    SpillDirectory,
    SpillMetrics,
    parse_memory_budget,
)
from repro.sorting.heapsort import IncrementalHeapSorter, heapsort
from repro.sorting.incremental import BufferedIncrementalSorter
from repro.sorting.insertion import binary_insertion_sort
from repro.sorting.kslack import KSlackTime, KSlackTuples
from repro.sorting.natural_merge import natural_merge_sort
from repro.sorting.quicksort import quicksort
from repro.sorting.registry import (
    OFFLINE_SORTS,
    ONLINE_SORTERS,
    make_online_sorter,
    offline_sort,
)
from repro.sorting.timsort import timsort

__all__ = [
    "BufferedIncrementalSorter",
    "ExternalImpatienceSorter",
    "ExternalRunPool",
    "IncrementalHeapSorter",
    "KSlackTime",
    "KSlackTuples",
    "OFFLINE_SORTS",
    "ONLINE_SORTERS",
    "SpillDirectory",
    "SpillMetrics",
    "binary_insertion_sort",
    "heapsort",
    "make_online_sorter",
    "natural_merge_sort",
    "offline_sort",
    "parse_memory_budget",
    "quicksort",
    "timsort",
]
