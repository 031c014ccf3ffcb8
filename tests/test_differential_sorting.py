"""Differential fuzzing: ImpatienceSorter vs a reference model.

The reference model is the specification in miniature: buffer
everything, apply the late policy at insert time against the current
watermark, and answer each punctuation with ``sorted()`` of the ready
prefix.  ImpatienceSorter must match it *per punctuation batch* — not
just in aggregate — across disorder fractions, duplicate densities, all
three late policies, and all three merge strategies, while keeping its
``SorterStats`` counters consistent with what the model observed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import LateEventError
from repro.core.impatience import ImpatienceSorter
from repro.core.late import LatePolicy
from repro.core.merge import MERGE_STRATEGIES


class ReferenceSorter:
    """Obviously-correct model: a flat buffer plus ``sorted()``."""

    def __init__(self, policy):
        self.policy = policy
        self.pending = []
        self.watermark = None
        self.dropped = 0
        self.adjusted = 0

    def insert(self, value):
        if self.watermark is not None and value <= self.watermark:
            if self.policy is LatePolicy.RAISE:
                raise LateEventError(value, self.watermark)
            if self.policy is LatePolicy.DROP:
                self.dropped += 1
                return
            self.adjusted += 1
            value = self.watermark
        self.pending.append(value)

    def on_punctuation(self, timestamp):
        self.watermark = timestamp
        ready = sorted(v for v in self.pending if v <= timestamp)
        self.pending = [v for v in self.pending if v > timestamp]
        return ready

    def flush(self):
        ready = sorted(self.pending)
        self.pending = []
        return ready


def make_stream(seed, n, disorder_fraction, duplicate_density,
                punctuation_every=37, reorder_latency=25,
                max_displacement=60):
    """A seeded ``("event", v) / ("punct", t)`` element sequence.

    Disorder is injected by displacing a fraction of values backwards
    (bounded by ``max_displacement``); punctuations trail the running
    maximum by ``reorder_latency``, so displacements beyond the latency
    produce genuinely late events — the policy-divergence cases the
    differential test exists to cover.
    """
    rng = random.Random(seed)
    values = []
    for i in range(n):
        values.append(i)
        if rng.random() < duplicate_density:
            values.append(i)
    for _ in range(int(disorder_fraction * len(values))):
        i = rng.randrange(len(values))
        j = max(0, i - rng.randint(1, max_displacement))
        values[i], values[j] = values[j], values[i]

    elements = []
    high, last_punct = None, None
    for count, value in enumerate(values, start=1):
        elements.append(("event", value))
        high = value if high is None else max(high, value)
        if count % punctuation_every == 0:
            timestamp = high - reorder_latency
            if last_punct is None or timestamp > last_punct:
                last_punct = timestamp
                elements.append(("punct", timestamp))
    return elements


def run_differential(elements, policy, merge, use_extend=False):
    """Drive both sorters through the same element sequence.

    Asserts batch-by-batch output equality and returns
    ``(sorter, reference)`` for counter checks.  With ``use_extend`` the
    events between punctuations go in as one batch (the columnar ingress
    path) instead of item-by-item.
    """
    sorter = ImpatienceSorter(late_policy=policy, merge=merge)
    reference = ReferenceSorter(policy)
    batch = []
    for kind, value in elements:
        if kind == "event":
            if use_extend:
                batch.append(value)
            else:
                sorter.insert(value)
                reference.insert(value)
            continue
        if use_extend and batch:
            sorter.extend(batch)
            for item in batch:
                reference.insert(item)
            batch = []
        assert sorter.on_punctuation(value) == \
            reference.on_punctuation(value), \
            f"divergence at punctuation {value}"
    if use_extend and batch:
        sorter.extend(batch)
        for item in batch:
            reference.insert(item)
    assert sorter.flush() == reference.flush()
    return sorter, reference


def assert_stats_consistent(sorter, reference, attempted):
    """SorterStats / LateEventTracker invariants after a full run."""
    assert sorter.late.dropped == reference.dropped
    assert sorter.late.adjusted == reference.adjusted
    # inserted counts only admitted events; dropped ones never enter.
    assert sorter.stats.inserted == attempted - reference.dropped
    # after flush everything admitted has been emitted and nothing is left
    assert sorter.stats.emitted == sorter.stats.inserted
    assert sorter.buffered == 0
    assert sorter.stats.buffered == 0
    assert sorter.stats.max_buffered <= sorter.stats.inserted


MERGES = sorted(MERGE_STRATEGIES)
KEPT_POLICIES = (LatePolicy.DROP, LatePolicy.ADJUST)


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("policy", KEPT_POLICIES)
@pytest.mark.parametrize("disorder", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("duplicates", [0.0, 0.25])
def test_matches_reference(merge, policy, disorder, duplicates):
    seed = len(repr((merge, policy.value, disorder, duplicates)))
    elements = make_stream(
        seed=seed,
        n=400, disorder_fraction=disorder, duplicate_density=duplicates,
    )
    attempted = sum(1 for kind, _ in elements if kind == "event")
    sorter, reference = run_differential(elements, policy, merge)
    assert_stats_consistent(sorter, reference, attempted)


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("policy", KEPT_POLICIES)
def test_matches_reference_batched_ingress(merge, policy):
    elements = make_stream(seed=7, n=400, disorder_fraction=0.2,
                           duplicate_density=0.1)
    attempted = sum(1 for kind, _ in elements if kind == "event")
    sorter, reference = run_differential(elements, policy, merge,
                                         use_extend=True)
    assert_stats_consistent(sorter, reference, attempted)


@pytest.mark.parametrize("merge", MERGES)
def test_raise_policy_matches_reference(merge):
    elements = make_stream(seed=11, n=300, disorder_fraction=0.3,
                           duplicate_density=0.1)
    # The DROP model tells us whether this stream has any late event.
    _, probe = run_differential(elements, LatePolicy.DROP, merge)
    assert probe.dropped > 0, "stream must exercise the late path"
    with pytest.raises(LateEventError):
        run_differential(elements, LatePolicy.RAISE, merge)


@pytest.mark.parametrize("merge", MERGES)
def test_raise_policy_silent_on_ordered_stream(merge):
    elements = make_stream(seed=3, n=300, disorder_fraction=0.0,
                           duplicate_density=0.2)
    sorter, reference = run_differential(elements, LatePolicy.RAISE, merge)
    attempted = sum(1 for kind, _ in elements if kind == "event")
    assert_stats_consistent(sorter, reference, attempted)


def test_unknown_merge_strategy_rejected():
    with pytest.raises(ValueError, match="unknown merge strategy"):
        ImpatienceSorter(merge="bogus")



# -- bounded-memory external sorter ----------------------------------------

#: 1 byte is the pathological floor: every insert overflows the buffer,
#: degenerating to (at worst) one run per spill — the spill machinery's
#: equivalent of a fully disordered stream.
BUDGETS = [1, 64, 512, 8192]


def run_external_differential(elements, policy, budget, use_extend=False):
    """Drive the spilling sorter and the reference model together.

    The external sorter has no merge-strategy knob (one stable-argsort
    merge over the concatenated pieces is the only schedule), so the
    differential axis here is the memory budget instead.
    """
    from repro.sorting.external import ExternalImpatienceSorter

    sorter = ExternalImpatienceSorter(budget, late_policy=policy)
    reference = ReferenceSorter(policy)
    try:
        batch = []
        for kind, value in elements:
            if kind == "event":
                if use_extend:
                    batch.append(value)
                else:
                    sorter.insert(value)
                    reference.insert(value)
                continue
            if use_extend and batch:
                sorter.extend(batch)
                for item in batch:
                    reference.insert(item)
                batch = []
            assert sorter.on_punctuation(value) == \
                reference.on_punctuation(value), \
                f"divergence at punctuation {value} (budget {budget})"
        if use_extend and batch:
            sorter.extend(batch)
            for item in batch:
                reference.insert(item)
        assert sorter.flush() == reference.flush()
        assert sorter.spill_doc()["peak_buffered_bytes"] <= budget
    finally:
        sorter.close()
    return sorter, reference


class TestExternalDifferential:
    """The spilling sorter against the same reference model: identical
    per-punctuation batches at every budget, including budgets so small
    that nearly the whole stream lives on disk."""

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("policy", KEPT_POLICIES)
    @pytest.mark.parametrize("disorder", [0.0, 0.05, 0.3])
    def test_matches_reference(self, budget, policy, disorder):
        seed = len(repr((budget, policy.value, disorder)))
        elements = make_stream(
            seed=seed, n=400, disorder_fraction=disorder,
            duplicate_density=0.25,
        )
        attempted = sum(1 for kind, _ in elements if kind == "event")
        sorter, reference = run_external_differential(
            elements, policy, budget
        )
        assert_stats_consistent(sorter, reference, attempted)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("policy", KEPT_POLICIES)
    def test_matches_reference_batched_ingress(self, budget, policy):
        elements = make_stream(seed=7, n=400, disorder_fraction=0.2,
                               duplicate_density=0.1)
        attempted = sum(1 for kind, _ in elements if kind == "event")
        sorter, reference = run_external_differential(
            elements, policy, budget, use_extend=True
        )
        assert_stats_consistent(sorter, reference, attempted)

    @pytest.mark.parametrize("merge", MERGES)
    def test_matches_every_in_memory_merge_strategy(self, merge):
        """Budgeted output equals the in-memory sorter under each merge
        strategy (keyless values make every schedule value-identical)."""
        from repro.sorting.external import ExternalImpatienceSorter

        elements = make_stream(seed=13, n=400, disorder_fraction=0.25,
                               duplicate_density=0.2)
        in_memory = ImpatienceSorter(merge=merge)
        external = ExternalImpatienceSorter(96)
        try:
            for kind, value in elements:
                if kind == "event":
                    in_memory.insert(value)
                    external.insert(value)
                else:
                    assert external.on_punctuation(value) == \
                        in_memory.on_punctuation(value)
            assert external.flush() == in_memory.flush()
            assert external.spill_doc()["runs_spilled"] > 0
        finally:
            external.close()

    def test_raise_policy_matches_reference(self):
        elements = make_stream(seed=11, n=300, disorder_fraction=0.3,
                               duplicate_density=0.1)
        _, probe = run_external_differential(
            elements, LatePolicy.DROP, 64
        )
        assert probe.dropped > 0, "stream must exercise the late path"
        with pytest.raises(LateEventError):
            run_external_differential(elements, LatePolicy.RAISE, 64)

    @given(
        values=st.lists(st.integers(0, 120), min_size=1, max_size=120),
        punct_mask=st.lists(st.booleans(), min_size=1, max_size=120),
        latency=st.integers(0, 40),
        policy=st.sampled_from(KEPT_POLICIES),
        budget=st.integers(1, 2048),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_interleavings_and_budgets(self, values, punct_mask,
                                                 latency, policy, budget):
        elements = []
        high, last_punct = None, None
        for i, value in enumerate(values):
            elements.append(("event", value))
            high = value if high is None else max(high, value)
            if punct_mask[i % len(punct_mask)]:
                timestamp = high - latency
                if last_punct is None or timestamp > last_punct:
                    last_punct = timestamp
                    elements.append(("punct", timestamp))
        sorter, reference = run_external_differential(
            elements, policy, budget
        )
        assert_stats_consistent(sorter, reference, len(values))


class TestStringKeyDifferential:
    """String keys through the same differential harness: the integer
    streams are mapped through an order-preserving ``int -> bytes``
    rendering (fixed-width service names), so the reference model's
    arithmetic-free clauses — buffering, late policies, ``sorted()`` —
    apply verbatim to bytes and every merge strategy in
    ``MERGE_STRATEGIES`` must match it batch by batch, late path
    included."""

    @staticmethod
    def _render(value):
        # Fixed-width digits keep bytes order == int order, and the
        # long shared prefix makes every comparison walk ~20 bytes.
        return b"prod.svc.zone-0.host-%06d" % value

    def _string_elements(self, elements):
        return [
            (kind, self._render(value)) for kind, value in elements
        ]

    @pytest.mark.parametrize("merge", MERGES)
    @pytest.mark.parametrize("policy", KEPT_POLICIES)
    @pytest.mark.parametrize("disorder", [0.0, 0.3])
    def test_matches_reference(self, merge, policy, disorder):
        seed = len(repr((merge, policy.value, disorder)))
        elements = self._string_elements(make_stream(
            seed=seed, n=400, disorder_fraction=disorder,
            duplicate_density=0.25,
        ))
        attempted = sum(1 for kind, _ in elements if kind == "event")
        sorter, reference = run_differential(elements, policy, merge)
        assert_stats_consistent(sorter, reference, attempted)

    @pytest.mark.parametrize("merge", MERGES)
    def test_matches_reference_batched_ingress(self, merge):
        elements = self._string_elements(make_stream(
            seed=7, n=400, disorder_fraction=0.2, duplicate_density=0.1,
        ))
        attempted = sum(1 for kind, _ in elements if kind == "event")
        sorter, reference = run_differential(
            elements, LatePolicy.DROP, merge, use_extend=True
        )
        assert_stats_consistent(sorter, reference, attempted)

    def test_dictionary_codes_reproduce_byte_order(self):
        """Sorting dictionary codes (the engine's int path) and decoding
        equals sorting the raw bytes: the order-preserving contract the
        whole string-key design rests on."""
        from repro.core.strings import StringDictionary

        elements = make_stream(seed=19, n=400, disorder_fraction=0.3,
                               duplicate_density=0.3)
        values = [self._render(v) for kind, v in elements
                  if kind == "event"]
        d = StringDictionary(values)
        by_code = [d.decode(c) for c in sorted(d.encode(values))]
        assert by_code == sorted(values)

    @pytest.mark.parametrize("budget", [256, 16 * 1024])
    def test_budgeted_string_columns_byte_identical(self, budget):
        """The columnar sorter carrying a string column under a hard
        budget (spilled CRC-framed string blocks) reproduces the
        unbudgeted output byte for byte."""
        import numpy as np

        from repro.core.columnar import ColumnarImpatienceSorter
        from repro.core.strings import StringColumn

        elements = make_stream(seed=23, n=600, disorder_fraction=0.3,
                               duplicate_density=0.2)
        times = np.asarray(
            [v for kind, v in elements if kind == "event"],
            dtype=np.int64,
        )
        column = StringColumn.from_values(
            [self._render(int(v)) for v in times]
        )
        puncts = sorted({v for kind, v in elements if kind == "punct"})

        def drive(sorter):
            outputs = []
            step = max(len(times) // (len(puncts) + 1), 1)
            cursor = 0
            for i, start in enumerate(range(0, len(times), step)):
                stop = min(start + step, len(times))
                sorter.insert_batch(
                    times[start:stop],
                    string_columns=(column.slice(start, stop),),
                )
                if cursor < len(puncts):
                    outputs.append(sorter.on_punctuation(puncts[cursor]))
                    cursor += 1
            outputs.append(sorter.flush())
            return outputs

        baseline = drive(ColumnarImpatienceSorter(string_columns=1))
        external = ColumnarImpatienceSorter(
            memory_budget=budget, string_columns=1
        )
        try:
            got = drive(external)
            spill = external.spill_doc()
        finally:
            external.close()
        assert len(got) == len(baseline)
        for g, w in zip(got, baseline):
            assert np.array_equal(g[0], w[0])
            for gc, wc in zip(g[2], w[2]):
                assert gc.arena == wc.arena
                assert np.array_equal(gc.offsets, wc.offsets)
        assert spill["peak_buffered_bytes"] <= budget
        if budget <= 256:
            assert spill["runs_spilled"] > 0


class TestPropertyDifferential:
    """Hypothesis-driven version: arbitrary interleavings, not just the
    generator's punctuate-every-k schedule."""

    @given(
        values=st.lists(st.integers(0, 120), min_size=1, max_size=120),
        punct_mask=st.lists(st.booleans(), min_size=1, max_size=120),
        latency=st.integers(0, 40),
        policy=st.sampled_from(KEPT_POLICIES),
        merge=st.sampled_from(MERGES),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_interleavings(self, values, punct_mask, latency,
                                     policy, merge):
        elements = []
        high, last_punct = None, None
        for i, value in enumerate(values):
            elements.append(("event", value))
            high = value if high is None else max(high, value)
            if punct_mask[i % len(punct_mask)]:
                timestamp = high - latency
                if last_punct is None or timestamp > last_punct:
                    last_punct = timestamp
                    elements.append(("punct", timestamp))
        sorter, reference = run_differential(elements, policy, merge)
        assert_stats_consistent(sorter, reference, len(values))
