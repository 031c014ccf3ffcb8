"""String keys end-to-end: arena columns and dictionary codes.

Covers the string stack layer by layer — :class:`StringColumn` /
:class:`StringDictionary` foundations, the column decoder on damaged
bytes (directly and through the spill block), the parallel runtime's
refusal of string columns and its dictionary-coded keys, budgeted
spilling with byte-identity and corruption detection, the string-keyed
workload generators, and the dictionary-coded string predicates on both
the row and compiled engines.
"""

from __future__ import annotations

import random
import struct
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarImpatienceSorter
from repro.core.errors import SpillCorruptionError
from repro.core.strings import StringColumn, StringDictionary
from repro.engine.batch import EventBatch
from repro.engine.event import Event
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


# -- the column decoder on damaged bytes ------------------------------------


def _packed(values):
    col = StringColumn.from_values(values)
    buf = bytearray(col.packed_size())
    col.pack_into(buf)
    return col, buf


def _damage(buf, base, n, kind):
    """``buf`` with the packed ``n``-row column at ``base`` damaged the
    way ``kind`` names; each yields bytes no writer produces."""
    buf = bytearray(buf)
    if kind == "truncate":          # the column must end the buffer
        del buf[-2:]
    elif kind == "length-lie":
        struct.pack_into("<Q", buf, base, 99)
    elif kind == "first-offset":
        struct.pack_into("<I", buf, base + 8, 4)
    elif kind == "bit-flip":        # top bit of the last offset
        buf[base + 8 + 4 * n + 3] ^= 0x80
    else:
        raise AssertionError(kind)
    return bytes(buf)


DAMAGE = ["truncate", "length-lie", "first-offset", "bit-flip"]

# A cut, a flipped bit, a lying arena length or a lying row count.
CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(1, 200)),
    st.tuples(st.just("bit-flip"), st.integers(0, 1 << 16)),
    st.tuples(st.just("length-lie"), st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("row-lie"), st.integers(-2, 3)),
)


class TestStringColumnDecoder:
    VALUES = [b"ab", b"", b"cde"]    # packs to 29 bytes

    def test_truncated_buffer_is_refused(self):
        _, buf = _packed(self.VALUES)
        assert len(buf) == 29
        with pytest.raises(ValueError, match="overruns"):
            StringColumn.unpack_from(bytes(buf[:-2]), 3)

    def test_arena_length_past_the_buffer_is_refused(self):
        _, buf = _packed(self.VALUES)
        struct.pack_into("<Q", buf, 0, 99)
        with pytest.raises(ValueError, match="overruns"):
            StringColumn.unpack_from(bytes(buf), 3)

    def test_offsets_that_do_not_start_at_zero_are_refused(self):
        _, buf = _packed(self.VALUES)
        struct.pack_into("<I", buf, 8, 4)
        with pytest.raises(ValueError, match="offsets"):
            StringColumn.unpack_from(bytes(buf), 3)

    @given(KEYS, CORRUPTIONS)
    @settings(max_examples=300, deadline=None)
    def test_damage_fails_typed_or_decodes_a_consistent_column(
        self, values, corruption
    ):
        col, buf = _packed(values)
        n = len(col)
        kind, arg = corruption
        if kind == "truncate":
            del buf[max(len(buf) - arg, 0):]
        elif kind == "bit-flip":
            bit = arg % (8 * len(buf))
            buf[bit // 8] ^= 1 << (bit % 8)
        elif kind == "length-lie":
            struct.pack_into("<Q", buf, 0, arg)
        else:
            n += arg
        try:
            got, end = StringColumn.unpack_from(bytes(buf), n)
        except ValueError:
            return
        offsets = got.offsets.astype(np.int64)
        assert offsets[0] == 0
        assert bool(np.all(offsets[1:] >= offsets[:-1]))
        assert offsets[-1] == len(got.arena)
        assert end <= len(buf)

    @pytest.mark.parametrize("kind", DAMAGE)
    def test_damaged_spill_block_fails_typed(self, kind):
        from repro.sorting import external as ext

        ts, column = _disordered_strings(3000, seed=5)
        sorter = ColumnarImpatienceSorter(
            memory_budget=2048, string_columns=1
        )
        try:
            for start in range(0, len(ts), 512):
                stop = min(start + 512, len(ts))
                sorter.insert_batch(
                    ts[start:stop],
                    string_columns=(column.slice(start, stop),),
                )
            run = sorter.pool.runs[0]
            # Re-frame the run's first block around the damaged payload
            # with a matching CRC, so only the column decoder can object.
            with open(run.path, "r+b") as fh:
                fh.seek(ext._FILE_HEADER.size)
                magic, nrows, first, last, size, _ = \
                    ext._BLOCK_HEADER.unpack(
                        fh.read(ext._BLOCK_HEADER.size)
                    )
                payload = _damage(
                    fh.read(size), 8 * nrows * (1 + run.ncols), nrows, kind
                )
                fh.seek(ext._FILE_HEADER.size)
                fh.write(ext._BLOCK_HEADER.pack(
                    magic, nrows, first, last, len(payload),
                    zlib.crc32(payload),
                ))
                fh.write(payload)
                fh.truncate()
                run.length = fh.tell()
            with pytest.raises(SpillCorruptionError, match="string column"):
                sorter.flush()
        finally:
            sorter.close()


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

    def test_encode_takes_any_iterable(self):
        d = StringDictionary([b"a", b"b"])
        codes = d.encode(v for v in [b"b", "a", b"b"])
        assert codes.dtype == np.int64
        assert codes.tolist() == [1, 0, 1]
        assert d.encode(iter([])).tolist() == []
        with pytest.raises(KeyError, match="not in dictionary"):
            d.encode(iter([b"a", b"zz"]))

    @given(st.lists(st.binary(max_size=6), min_size=1, max_size=40),
           st.binary(max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_prefix_range_matches_startswith(self, values, prefix):
        d = StringDictionary(values)
        lo, hi = d.prefix_range(prefix)
        expected = {v for v in values if v.startswith(prefix)}
        got = {d.decode(c) for c in range(lo, hi)}
        assert got == expected


# -- string columns and the parallel runtime --------------------------------


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


class TestParallelStrings:
    def test_events_append_string_fields(self):
        batch = _string_batch(4, seed=9)
        for i, event in enumerate(batch.events()):
            assert event.payload[-2] == batch.string_columns[0][i]
            assert event.payload[-1] == batch.string_columns[1][i]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compiled_shards_refuse_string_columns(self, workers):
        """The int64 shard columns cannot carry string columns, which
        the row engine sees as trailing payload fields: a batch with
        them is refused like the single-process compiler's non-int
        ingress, never answered without them."""
        from repro.engine import DisorderedStreamable, QueryPlan
        from repro.engine.compiler import UnsupportedPlanError
        from repro.engine.event import Punctuation
        from repro.parallel import CompiledShardPlan, run_parallel

        plan = QueryPlan().sort().distinct()
        batch = EventBatch(
            [5, 5], [6, 6], [1, 1], [[7, 7]],
            string_columns=[[b"a", b"b"]],
        )
        row = plan.bind(DisorderedStreamable.from_elements(
            [*batch.events(), Punctuation(10)]
        )).collect()
        assert [e.payload for e in row.events] == [(7, b"a"), (7, b"b")]
        reason = "event payloads are not integer columns"
        with pytest.raises(UnsupportedPlanError) as err:
            run_parallel(
                [batch, Punctuation(10)], CompiledShardPlan(plan), workers
            )
        assert err.value.reason == reason
        executor = CompiledShardPlan(plan).build_executor(0)
        with pytest.raises(UnsupportedPlanError) as err:
            executor.feed_batch(batch)
        assert err.value.reason == reason

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


def _reference_cuts(ts, column, batch=512, punctuate_every=4):
    """What :func:`_drive_columnar` must return at every budget: each
    cut is the stable sort by timestamp of the rows it releases."""
    values = column.tolist()
    outputs, pending, high = [], [], None

    def cut(bound):
        nonlocal pending
        due = sorted(
            (row for row in pending if bound is None or row[0] <= bound),
            key=lambda row: row[0],
        )
        pending = [row for row in pending if bound is not None
                   and row[0] > bound]
        return (
            np.asarray([t for t, _ in due], dtype=np.int64),
            (),
            (StringColumn.from_values([v for _, v in due]),),
        )

    for i, start in enumerate(range(0, len(ts), batch)):
        stop = min(start + batch, len(ts))
        pending.extend(zip(ts[start:stop].tolist(), values[start:stop]))
        top = int(ts[start:stop].max())
        high = top if high is None else max(high, top)
        if i % punctuate_every == punctuate_every - 1:
            outputs.append(cut(high - 50))
    outputs.append(cut(None))
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
    @pytest.mark.parametrize(
        "budget", [None, 1024, 16 * 1024, 64 * 1024 ** 2]
    )
    def test_byte_identity_at_any_budget(self, budget):
        ts, column = _disordered_strings(6000, seed=4)
        baseline = _reference_cuts(ts, column)
        external = ColumnarImpatienceSorter(
            memory_budget=budget, string_columns=1
        )
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
        if budget is None:
            assert spill["runs_spilled"] == 0
        else:
            assert spill["peak_buffered_bytes"] <= budget
            if budget <= 16 * 1024:
                assert spill["runs_spilled"] > 0

    def test_string_bytes_count_against_the_budget(self):
        """Arena bytes drive spilling: a tiny budget spills even when
        the row-count footprint alone would fit."""
        ts, column = _disordered_strings(3000, seed=9)
        external = ColumnarImpatienceSorter(
            memory_budget=2048, string_columns=1
        )
        try:
            _drive_columnar(external, ts, column)
            assert external.spill_doc()["runs_spilled"] > 0
        finally:
            external.close()

    def test_corrupted_string_block_is_detected(self):
        ts, column = _disordered_strings(4000, seed=2)
        external = ColumnarImpatienceSorter(
            memory_budget=2048, string_columns=1
        )
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
