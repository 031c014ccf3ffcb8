"""String keys end-to-end: arena columns, dictionary codes, OVC merges.

Covers the string stack layer by layer — :class:`StringColumn` /
:class:`StringDictionary` foundations, offset-value-coded merge
correctness against ``sorted()``, the ``"ovc"`` merge strategy inside
the row sorter, the SDATA wire frame and the multi-worker parallel
round-trip, budgeted spilling with byte-identity and corruption
detection, the string-keyed workload generators, and the dictionary-
coded string predicates on both the row and compiled engines.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarImpatienceSorter
from repro.core.errors import SpillCorruptionError
from repro.core.impatience import ImpatienceSorter
from repro.core.strings import (
    OVC_K,
    OvcCounters,
    StringColumn,
    StringDictionary,
    full_code,
    naive_index_merge,
    ovc_annotate,
    ovc_annotate_indices,
    ovc_index_merge,
    ovc_merge_runs,
)
from repro.engine.batch import EventBatch
from repro.engine.event import Event
from repro.sorting.external import ExternalColumnarSorter
from repro.workloads.strings import (
    LOG_LEVELS,
    generate_androidlog_strings,
    generate_cloudlog_strings,
)

KEYS = st.lists(st.binary(min_size=0, max_size=12), min_size=0,
                max_size=80)


# -- StringColumn -----------------------------------------------------------


class TestStringColumn:
    def test_from_values_and_getitem(self):
        col = StringColumn.from_values([b"abc", b"", "dä"])
        assert len(col) == 3
        assert col[0] == b"abc"
        assert col[1] == b""
        assert col[2] == "dä".encode("utf-8")
        assert col[-1] == col[2]

    def test_slice_take_filter_concat(self):
        values = [b"aa", b"bb", b"cc", b"dd", b"ee"]
        col = StringColumn.from_values(values)
        assert col.slice(1, 4).tolist() == values[1:4]
        assert col.take([4, 0, 2]).tolist() == [b"ee", b"aa", b"cc"]
        assert col.filter([1, 0, 1, 0, 1]).tolist() == \
            [b"aa", b"cc", b"ee"]
        both = StringColumn.concat([col.slice(0, 2), col.slice(3, 5)])
        assert both.tolist() == [b"aa", b"bb", b"dd", b"ee"]

    def test_slice_is_standalone(self):
        """A slice trims its arena: it serializes without the parent."""
        col = StringColumn.from_values([b"xxxx", b"mid", b"yyyy"])
        part = col.slice(1, 2)
        assert part.arena == b"mid"
        assert int(part.offsets[0]) == 0

    def test_pack_unpack_roundtrip(self):
        col = StringColumn.from_values([b"", b"abc", b"\x00\xff", b"zz"])
        buf = bytearray(col.packed_size())
        end = col.pack_into(buf)
        assert end == len(buf)
        clone, consumed = StringColumn.unpack_from(bytes(buf), len(col))
        assert consumed == len(buf)
        assert clone == col
        assert clone.tolist() == col.tolist()

    def test_empty(self):
        empty = StringColumn.empty()
        assert len(empty) == 0
        assert StringColumn.concat([]).tolist() == []


# -- StringDictionary -------------------------------------------------------


class TestStringDictionary:
    def test_codes_are_order_preserving_and_dense(self):
        values = [b"svc.b", b"svc.a", b"svc.c", b"svc.a"]
        d = StringDictionary(values)
        assert len(d) == 3
        assert [d.decode(i) for i in range(3)] == \
            [b"svc.a", b"svc.b", b"svc.c"]
        for a in d.values:
            for b in d.values:
                assert (d.code(a) < d.code(b)) == (a < b)

    def test_encode_decode_roundtrip(self):
        values = [b"w", b"q", b"w", b"a"]
        d = StringDictionary(values)
        codes = d.encode(values)
        assert codes.dtype == np.int64
        assert d.decode_column(codes).tolist() == values

    def test_missing_value_matches_nothing(self):
        d = StringDictionary([b"a", b"b"])
        assert d.code(b"zz") == -1

    @given(st.lists(st.binary(max_size=6), min_size=1, max_size=40),
           st.binary(max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_prefix_range_matches_startswith(self, values, prefix):
        d = StringDictionary(values)
        lo, hi = d.prefix_range(prefix)
        expected = {v for v in values if v.startswith(prefix)}
        got = {d.decode(c) for c in range(lo, hi)}
        assert got == expected


# -- OVC codes and merges ---------------------------------------------------


class TestOvcMerge:
    def test_annotate_invariants(self):
        keys = [b"aa", b"aa", b"ab", b"b"]
        codes = ovc_annotate(keys)
        assert codes[0] == full_code(b"aa") == ((OVC_K - 0) << 8) | ord("a")
        assert codes[1] == 0                      # duplicate
        assert codes[2] == ((OVC_K - 1) << 8) | ord("b")
        assert codes[3] == ((OVC_K - 0) << 8) | ord("b")

    @given(KEYS, st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_merge_runs_matches_sorted(self, values, n_runs):
        runs = []
        for r in range(n_runs):
            chunk = sorted(values[r::n_runs])
            runs.append((chunk, chunk))
        merged, items = ovc_merge_runs(runs)
        assert merged == sorted(values)
        assert items == merged

    @given(KEYS, st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_index_merge_matches_naive_and_sorted(self, values, n_runs):
        column = StringColumn.from_values(values)
        runs = []
        for r in range(n_runs):
            idx = sorted(range(r, len(values), n_runs),
                         key=values.__getitem__)
            runs.append(idx)
        counters = OvcCounters()
        ovc = ovc_index_merge(
            [(run, ovc_annotate_indices(run, column)) for run in runs],
            column, counters=counters,
        )
        naive = naive_index_merge([list(r) for r in runs], column)
        assert [values[i] for i in ovc] == sorted(values)
        assert [values[i] for i in naive] == sorted(values)

    def test_duplicate_streaks_bulk_copy_without_ties(self):
        """Low-cardinality runs (the cloudlog service-key regime) merge
        with almost no byte-walk ties: duplicates carry code 0."""
        names = [b"svc.alpha", b"svc.beta", b"svc.gamma"]
        values = [names[i % 3] for i in range(600)]
        column = StringColumn.from_values(values)
        runs = [
            sorted(range(r, 600, 4), key=values.__getitem__)
            for r in range(4)
        ]
        counters = OvcCounters()
        merged = ovc_index_merge(
            [(run, ovc_annotate_indices(run, column)) for run in runs],
            column, counters=counters,
        )
        assert [values[i] for i in merged] == sorted(values)
        # 3 distinct keys x 3 two-way merges: ties are O(distinct), not
        # O(n).
        assert counters.ties < 60


class TestOvcSorterStrategy:
    """The ``"ovc"`` merge strategy inside the row ImpatienceSorter."""

    def _stream(self, seed, n=500):
        rng = random.Random(seed)
        names = [
            f"svc.zone-{i % 5}.host-{i:04d}".encode() for i in range(40)
        ]
        return [names[rng.randrange(len(names))] for _ in range(n)]

    def test_string_keys_match_sorted_per_punctuation(self):
        """Reference model (buffer + ``sorted()`` + DROP-late) on bytes
        keys, punctuating at a trailing quantile so both emission and
        the late path are exercised."""
        values = self._stream(3)
        sorter = ImpatienceSorter(merge="ovc")
        pending = []
        watermark = None
        dropped = 0
        for i, value in enumerate(values):
            if watermark is not None and value <= watermark:
                dropped += 1
                sorter.insert(value)
                continue
            sorter.insert(value)
            pending.append(value)
            if i % 97 == 96:
                mark = sorted(pending)[len(pending) // 2]
                if watermark is not None and mark <= watermark:
                    continue
                watermark = mark
                got = sorter.on_punctuation(mark)
                want = sorted(v for v in pending if v <= mark)
                assert got == want, f"divergence at punctuation {mark!r}"
                pending = [v for v in pending if v > mark]
        assert sorter.flush() == sorted(pending)
        assert dropped > 0, "stream must exercise the late path"
        assert sorter.late.dropped == dropped

    def test_matches_huffman_strategy(self):
        values = self._stream(11)
        ovc = ImpatienceSorter(merge="ovc")
        huffman = ImpatienceSorter(merge="huffman")
        for value in values:
            ovc.insert(value)
            huffman.insert(value)
        assert ovc.flush() == huffman.flush()

    def test_int_keys_still_work(self):
        sorter = ImpatienceSorter(merge="ovc")
        for v in [5, 3, 9, 1, 3]:
            sorter.insert(v)
        assert sorter.flush() == [1, 3, 3, 5, 9]


# -- SDATA wire frames and the parallel runtime -----------------------------


def _string_batch(n, seed=0):
    rng = random.Random(seed)
    names = [f"svc-{i:03d}".encode() for i in range(17)]
    return EventBatch(
        sync_times=[rng.randrange(1000) for _ in range(n)],
        other_times=[rng.randrange(1000) + 1000 for _ in range(n)],
        keys=[rng.randrange(8) for _ in range(n)],
        payload_columns=[[rng.randrange(50) for _ in range(n)]],
        string_columns=[
            [names[rng.randrange(len(names))] for _ in range(n)],
            [LOG_LEVELS[rng.randrange(len(LOG_LEVELS))]
             for _ in range(n)],
        ],
    )


class _FakeRing:
    """Captures the reserve-and-fill write exactly as a ring slot would."""

    def write(self, kind, reserve=None, pump=None, alive=None):
        size, fill = reserve
        buffer = bytearray(size)
        fill(buffer)
        self.kind = kind
        self.payload = bytes(buffer)


class TestSdataWire:
    def test_roundtrip(self):
        from repro.parallel import exchange

        batch = _string_batch(200, seed=5)
        ring = _FakeRing()
        exchange.write_string_batch(ring, batch)
        assert ring.kind == exchange.SDATA
        clone = exchange.read_string_batch(ring.payload, copy=True)
        assert np.array_equal(clone.sync_times, batch.sync_times)
        assert np.array_equal(clone.keys, batch.keys)
        for got, want in zip(clone.string_columns, batch.string_columns):
            assert got.tolist() == want.tolist()
        assert list(clone.events()) == list(batch.events())

    def test_sdata_kind_is_named(self):
        from repro.parallel import exchange

        assert exchange.KIND_NAMES[exchange.SDATA] == "SDATA"

    def test_events_append_string_fields(self):
        batch = _string_batch(4, seed=9)
        for i, event in enumerate(batch.events()):
            assert event.payload[-2] == batch.string_columns[0][i]
            assert event.payload[-1] == batch.string_columns[1][i]


class TestParallelStrings:
    """String columns ship to shard workers as SDATA (no pickling) and
    come back identical to the single-worker run."""

    def _blocks(self, n=900, seed=2):
        from repro.engine.event import Punctuation

        blocks = []
        high = 0
        for start in range(0, n, 150):
            batch = _string_batch(150, seed=seed + start)
            high = max(high, int(batch.sync_times.max()))
            blocks.append(batch)
            blocks.append(Punctuation(high))
        return blocks

    def test_row_plan_multi_worker_matches_single(self):
        from repro.parallel import RowPlan, run_parallel

        blocks = self._blocks()
        single = run_parallel(list(blocks), RowPlan(lambda s: s), 1)
        multi = run_parallel(list(blocks), RowPlan(lambda s: s), 3)
        key = lambda e: (e.sync_time, e.key, e.payload)
        assert sorted(map(key, multi.events)) == \
            sorted(map(key, single.events))
        assert any(
            isinstance(p[-1], bytes) and p[-1] in LOG_LEVELS
            for p in (e.payload for e in multi.events)
        )

    def test_grouped_plan_decodes_string_keys(self):
        """Shards aggregate dictionary codes; the caller decodes the
        merged output's keys with the dataset's dictionary."""
        from repro.engine import QueryPlan
        from repro.engine.event import Punctuation
        from repro.engine.operators.aggregates import Count
        from repro.parallel import CompiledShardPlan, run_parallel

        names = [f"svc.zone-{i}".encode() for i in range(6)]
        d = StringDictionary(names)
        rng = random.Random(7)
        elements = []
        raw = []
        for t in range(600):
            name = names[rng.randrange(len(names))]
            raw.append((t // 10, name))
            elements.append(Event(t, t + 1, int(d.code(name)), (1, 1)))
            if t % 50 == 49:
                elements.append(Punctuation(t))
        plan = CompiledShardPlan(
            QueryPlan().tumbling_window(10).sort().group_aggregate(Count())
        )
        result = run_parallel(elements, plan, 3, batch_size=64)
        got = {(e.sync_time // 10, d.decode(e.key)): e.payload
               for e in result.events}
        assert got == dict(Counter(raw))


# -- budgeted spilling ------------------------------------------------------


def _drive_columnar(sorter, ts, column, batch=512, punctuate_every=4):
    outputs = []
    high = None
    n = len(ts)
    for i, start in enumerate(range(0, n, batch)):
        stop = min(start + batch, n)
        sorter.insert_batch(
            ts[start:stop], string_columns=(column.slice(start, stop),)
        )
        top = int(ts[start:stop].max())
        high = top if high is None else max(high, top)
        if i % punctuate_every == punctuate_every - 1:
            outputs.append(sorter.on_punctuation(high - 50))
    outputs.append(sorter.flush())
    return outputs


def _disordered_strings(n, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.arange(n, dtype=np.int64) + rng.integers(0, 40, size=n)
    names = [f"svc.zone-{i % 3}.host-{i:04d}".encode() for i in range(25)]
    column = StringColumn.from_values(
        [names[i] for i in rng.integers(0, len(names), size=n)]
    )
    return ts, column


class TestExternalStringSpill:
    @pytest.mark.parametrize("budget", [1024, 16 * 1024, 64 * 1024 ** 2])
    def test_byte_identity_at_any_budget(self, budget):
        ts, column = _disordered_strings(6000, seed=4)
        baseline = _drive_columnar(
            ColumnarImpatienceSorter(string_columns=1), ts, column
        )
        external = ExternalColumnarSorter(budget, string_columns=1)
        try:
            got = _drive_columnar(external, ts, column)
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
        if budget <= 16 * 1024:
            assert spill["runs_spilled"] > 0

    def test_string_bytes_count_against_the_budget(self):
        """Arena bytes drive spilling: a tiny budget spills even when
        the row-count footprint alone would fit."""
        ts, column = _disordered_strings(3000, seed=9)
        external = ExternalColumnarSorter(2048, string_columns=1)
        try:
            _drive_columnar(external, ts, column)
            assert external.spill_doc()["runs_spilled"] > 0
        finally:
            external.close()

    def test_corrupted_string_block_is_detected(self):
        ts, column = _disordered_strings(4000, seed=2)
        external = ExternalColumnarSorter(2048, string_columns=1)
        try:
            n = len(ts)
            for start in range(0, n, 512):
                stop = min(start + 512, n)
                external.insert_batch(
                    ts[start:stop],
                    string_columns=(column.slice(start, stop),),
                )
            runs = external.pool.runs
            assert runs, "expected at least one spilled run"
            run = runs[0]
            with open(run.path, "r+b") as fh:
                fh.seek(run.length - 9)
                byte = fh.read(1)
                fh.seek(run.length - 9)
                fh.write(bytes([byte[0] ^ 0xFF]))
            with pytest.raises(SpillCorruptionError):
                external.flush()
        finally:
            external.close()


# -- workload generators ----------------------------------------------------


class TestStringWorkloads:
    @pytest.mark.parametrize("generate", [
        generate_cloudlog_strings, generate_androidlog_strings,
    ])
    def test_keys_are_dictionary_codes_of_the_name_column(self, generate):
        ds = generate(1500, seed=5)
        d = ds.key_dictionary
        names, levels = ds.string_payloads
        assert len(names) == len(ds) == len(levels)
        for i in range(0, len(ds), 113):
            assert d.decode(ds.keys[i]) == names[i]
            assert levels[i] in LOG_LEVELS

    def test_batch_carries_the_string_payloads(self):
        ds = generate_cloudlog_strings(400, seed=1)
        batch = EventBatch.from_dataset(ds)
        assert len(batch.string_columns) == 2
        event = next(batch.events())
        assert event.payload[-2] == ds.string_payloads[0][0]

    def test_deterministic(self):
        a = generate_cloudlog_strings(300, seed=8)
        b = generate_cloudlog_strings(300, seed=8)
        assert a.keys == b.keys
        assert a.string_payloads[0] == b.string_payloads[0]


# -- string predicates on the row and compiled engines ----------------------


class TestStringPredicates:
    def _events(self, d, names, n=400, seed=6):
        rng = random.Random(seed)
        events = []
        for t in range(n):
            name = names[rng.randrange(len(names))]
            events.append(
                Event(t, t + 1, int(d.code(name)),
                      (rng.randrange(50), int(d.code(name))))
            )
        return events

    @pytest.mark.parametrize("predicate", ["key-eq", "key-prefix",
                                           "field-eq", "field-prefix"])
    def test_row_vs_compiled_identical_and_no_fallback(self, predicate):
        from repro.engine import QueryPlan
        from repro.engine.compiler import analyze_plan
        from repro.engine.kernels import (
            field_str_eq,
            field_str_prefix,
            key_str_eq,
            key_str_prefix,
        )

        names = [b"auth.api", b"auth.web", b"billing.core", b"cart.svc"]
        d = StringDictionary(names)
        where = {
            "key-eq": key_str_eq(d, b"auth.web"),
            "key-prefix": key_str_prefix(d, b"auth."),
            "field-eq": field_str_eq(1, d, b"cart.svc"),
            "field-prefix": field_str_prefix(1, d, b"b"),
        }[predicate]
        plan = (QueryPlan().where(where).tumbling_window(8).sort()
                .group_aggregate(Count_()))
        path, reason = analyze_plan(plan)
        assert path == "columnar", reason
        events = self._events(d, names)
        row = plan.run(list(events), 32, 20, engine="row")
        auto = plan.run(list(events), 32, 20, engine="auto")
        assert auto.engine == "columnar"
        assert row.events == auto.events
        assert row.punctuations == auto.punctuations
        assert row.events, "predicate must select something"

    def test_prefix_miss_selects_nothing(self):
        from repro.engine import QueryPlan
        from repro.engine.kernels import key_str_prefix

        d = StringDictionary([b"aa", b"ab"])
        plan = (QueryPlan().where(key_str_prefix(d, b"zz"))
                .tumbling_window(8).sort().count())
        result = plan.run([Event(1, 2, 0, (1, 1))], 4, 0, engine="auto")
        assert result.events == []

    def test_raw_string_constant_points_at_dictionary_helpers(self):
        from repro.engine.kernels import key_field

        with pytest.raises(TypeError, match="dictionary"):
            key_field() == b"svc.a"


def Count_():
    from repro.engine.operators.aggregates import Count

    return Count()
