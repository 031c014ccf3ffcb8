"""Out-of-core run pool acceptance: spilling must be invisible.

The bounded-memory sorters (:mod:`repro.sorting.external`) promise that
for any budget — down to one row per spill — every output batch is
byte-identical to the in-memory sorter's, the resting buffer never
exceeds the budget, spilled run files never outlive the sorter, and a
corrupt/truncated/unreadable run file surfaces as a typed
:class:`SpillCorruptionError` (recovered cleanly under supervision),
never as a silently wrong answer.  This module proves each clause;
``test_differential_sorting.py`` and ``test_fuzz_queries.py`` carry the
randomized differential halves.
"""

from __future__ import annotations

import glob
import heapq
import os
import pickle
import random
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarImpatienceSorter, merge_sorted_parts
from repro.core.errors import (
    CheckpointError,
    LateEventError,
    QueryBuildError,
    SpillCorruptionError,
    SupervisionExhaustedError,
)
from repro.core.impatience import ImpatienceSorter
from repro.core.late import LatePolicy
from repro.core.strings import StringColumn
from repro.engine.checkpoint import (
    checkpoint_sorter,
    release_checkpoint,
    restore_sorter,
)
from repro.resilience import FaultInjector, SorterSupervisor
from repro.sorting import external as ext
from repro.sorting.external import (
    ExternalImpatienceSorter,
    ExternalRunPool,
    SpillDirectory,
    SpillMetrics,
    _is_ascending,
    parse_memory_budget,
)


def spill_dirs():
    """Live spill directories, for before/after orphan accounting."""
    return set(glob.glob(
        os.path.join(tempfile.gettempdir(), "repro-spill-*")
    ))


@pytest.fixture(autouse=True)
def no_orphan_spill_dirs():
    before = spill_dirs()
    yield
    assert spill_dirs() <= before, "test leaked spill directories"


# -- budget parsing ---------------------------------------------------------


class TestParseMemoryBudget:
    @pytest.mark.parametrize("value,expected", [
        (1, 1),
        (65536, 65536),
        ("512", 512),
        ("4kb", 4096),
        ("64MB", 64 * 1024 * 1024),
        ("2 GiB", 2 * 1024 ** 3),
    ])
    def test_accepted(self, value, expected):
        assert parse_memory_budget(value) == expected

    @pytest.mark.parametrize("value", [
        "banana", "12XB", "", "-5", "0", 0, -1, True, 1.5, None,
    ])
    def test_rejected(self, value):
        with pytest.raises((ValueError, TypeError)):
            parse_memory_budget(value)


# -- merge-back -------------------------------------------------------------


class TestMergeBack:
    """The one merge every cut and spill goes through, against a
    reference that shares none of it: ``heapq.merge`` over
    ``(key, part_index, row)`` triples, whose tuple order *is* the
    contract (key, then earlier part, then row)."""

    @given(st.lists(
        st.lists(st.integers(0, 5), max_size=9).map(sorted),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=150, deadline=None)
    def test_matches_heapq_reference(self, part_keys):
        parts = []
        for index, keys in enumerate(part_keys):
            rows = range(len(keys))
            parts.append((
                np.asarray(keys, dtype=np.int64),
                (np.asarray([index * 100 + r for r in rows],
                            dtype=np.int64),),
                [(index, r) for r in rows],
                (StringColumn.from_values(
                    [b"p%d" % index + b"r" * r for r in rows]
                ),),
            ))
        reference = list(heapq.merge(*(
            [(key, index, r) for r, key in enumerate(keys)]
            for index, keys in enumerate(part_keys)
        )))
        keys, cols, objs, scols = merge_sorted_parts(parts, 1, 1, True)
        assert keys.tolist() == [key for key, _, _ in reference]
        assert cols[0].tolist() == [i * 100 + r for _, i, r in reference]
        assert objs == [(i, r) for _, i, r in reference]
        assert scols[0].tolist() == [
            b"p%d" % i + b"r" * r for _, i, r in reference
        ]

    def test_no_parts_is_the_typed_empty_cut(self):
        keys, cols, objs, scols = merge_sorted_parts([], 2, 1, True)
        assert keys.size == 0 and keys.dtype == np.int64
        assert [col.size for col in cols] == [0, 0]
        assert objs == [] and [len(col) for col in scols] == [0]

    def test_cut_merges_blocks_straddle_and_resident_rows(self):
        """Two runs and the resident buffer meet in one cut: run 0
        contributes the kept suffix of a straddled block
        (``row_skip > 0``), whole blocks and a new straddling prefix;
        the resident rows sit inside the runs' key range and tie with
        them.  The serial column proves the tie order."""
        budget = 1024                       # 64 rows of 16 bytes, 16 a block
        arrivals = [
            (np.arange(100) // 2, None),    # spills: run 0, keys 0..49
            (np.arange(70) // 2, 20),       # below run 0's tail: run 1
            (np.arange(21, 41), None),      # 20 rows, stays resident
        ]
        external = ColumnarImpatienceSorter(memory_budget=budget, columns=1)
        reference = ColumnarImpatienceSorter(columns=1)
        serial = 0
        try:
            assert external.pool.block_rows == 16
            for keys, punct in arrivals:
                col = np.arange(serial, serial + keys.size)
                serial += keys.size
                for sorter in (external, reference):
                    sorter.insert_batch(keys, (col,))
                if punct is not None:
                    assert_columnar_equal(
                        [external.on_punctuation(punct)],
                        [reference.on_punctuation(punct)], 1,
                    )
            run0, run1 = external.pool.runs
            assert run0.row_skip > 0 and external.buffered == 20
            blocks_before = external.spill_doc()["blocks_read"]
            assert_columnar_equal(
                [external.on_punctuation(38)],
                [reference.on_punctuation(38)], 1,
            )
            doc = external.spill_doc()
            # Each run: a whole block and the next one; the straddled
            # block stayed decoded, so it is not read again.
            assert doc["blocks_read"] - blocks_before == 4
            assert run0.row_skip > 0 and external.buffered == 2
            assert external.run_count == 1          # run 1 is exhausted
            assert doc["max_merge_fan_in"] == 3   # run 0, run 1, resident
            assert_columnar_equal(
                [external.flush()], [reference.flush()], 1,
            )
        finally:
            external.close()

    @given(
        rounds=st.lists(st.tuples(
            st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=9)
                     .map(sorted), max_size=4),
            st.integers(0, 4),
        ), min_size=1, max_size=8),
        layout=st.sampled_from(["columns", "objects"]),
        block_rows=st.integers(1, 4),
        budget_rows=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_pool_steps_match_heapq_reference(self, rounds, layout,
                                              block_rows, budget_rows):
        """Every cut streamed through :meth:`ExternalRunPool.steps`, at
        tiny blocks and budgets over heavily tied keys, against
        ``heapq.merge`` over ``(key, chunk, row)``: the steps
        concatenate to the reference, each is ascending, each lies
        wholly above the one before (so no run of equal keys is split),
        and a drained pool has read each block it wrote once.  The
        ``objects`` layout is the keyed scalar sorter's pool."""
        objects = layout == "objects"
        pool = ExternalRunPool(
            1, columns=0 if objects else 1, objects=objects,
            string_columns=0 if objects else 1,
        )
        pool.budget = budget_rows * pool.bytes_per_row
        pool.block_rows = block_rows
        pending, floor = [], -1
        try:
            for index, (chunks, advance) in enumerate(rounds):
                for offsets in chunks:
                    source = len(pending)
                    keys = [floor + 1 + offset for offset in offsets]
                    pending.append([
                        (key, source, row) for row, key in enumerate(keys)
                    ])
                    tags = [(source, row) for row in range(len(keys))]
                    pool.insert_sorted(
                        np.asarray(keys, dtype=np.int64),
                        () if objects else (np.asarray(
                            [s * 100 + r for s, r in tags], dtype=np.int64
                        ),),
                        tags if objects else None,
                        () if objects else (StringColumn.from_values(
                            [b"%d.%d" % tag for tag in tags]
                        ),),
                    )
                last = index == len(rounds) - 1
                ts = None if last else floor + advance
                due = list(heapq.merge(*(
                    [t for t in chunk if ts is None or t[0] <= ts]
                    for chunk in pending
                )))
                pending = [
                    [t for t in chunk if ts is not None and t[0] > ts]
                    for chunk in pending
                ]
                steps = list(pool.steps(ts))
                for step in steps:
                    assert _is_ascending(step[0])
                for before, after in zip(steps, steps[1:]):
                    assert int(before[0][-1]) < int(after[0][0])
                keys = [k for step in steps for k in step[0].tolist()]
                assert keys == [key for key, _, _ in due]
                tags = [(s, r) for _, s, r in due]
                if objects:
                    assert [o for step in steps for o in step[2]] == tags
                else:
                    assert [v for step in steps
                            for v in step[1][0].tolist()] == \
                        [s * 100 + r for s, r in tags]
                    assert [v for step in steps
                            for v in step[3][0].tolist()] == \
                        [b"%d.%d" % tag for tag in tags]
                floor = ts
            doc = pool.metrics.as_dict()
            assert pool.run_count == 0 and pool.buffered_rows == 0
            assert doc["blocks_read"] == doc["blocks_written"]
        finally:
            pool.close()


# -- columnar differential --------------------------------------------------


def columnar_stream(rng, n, columns, punct_every, displacement):
    """Presorted-chunk batches + trailing punctuations, like the
    compiled ingress path feeds the sorter."""
    times = []
    for i in range(n):
        times.append(i + rng.randrange(-displacement, displacement + 1))
    batches = []
    high = None
    for start in range(0, n, punct_every):
        chunk = np.asarray(times[start:start + punct_every], dtype=np.int64)
        cols = tuple(
            np.asarray([(t * (c + 3)) % 101 for t in chunk], dtype=np.int64)
            for c in range(columns)
        )
        order = np.argsort(chunk, kind="stable")
        high = int(chunk.max()) if high is None \
            else max(high, int(chunk.max()))
        batches.append((
            chunk[order], tuple(col[order] for col in cols),
            high - displacement,
        ))
    return batches


def reference_columnar(batches, columns, policy=LatePolicy.DROP):
    """The cuts :func:`drive_columnar` must return at every budget: each
    is the stable sort by key of the admitted arrivals it releases."""
    pending, out, watermark = [], [], None

    def cut(bound):
        nonlocal pending
        due = sorted(
            (row for row in pending if bound is None or row[0] <= bound),
            key=lambda row: row[0],
        )
        pending = [row for row in pending if bound is not None
                   and row[0] > bound]
        keys = np.asarray([row[0] for row in due], dtype=np.int64)
        if not columns:
            return keys
        return keys, tuple(
            np.asarray([row[1 + c] for row in due], dtype=np.int64)
            for c in range(columns)
        )

    for chunk, cols, punct in batches:
        for i, key in enumerate(chunk.tolist()):
            if watermark is not None and key <= watermark:
                if policy is LatePolicy.DROP:
                    continue
                key = watermark
            pending.append((key, *(int(col[i]) for col in cols)))
        out.append(cut(punct))
        watermark = punct
    out.append(cut(None))
    return out


def drive_columnar(sorter, batches, columns):
    out = []
    for chunk, cols, punct in batches:
        sorter.insert_batch(chunk, cols)
        out.append(sorter.on_punctuation(punct))
    out.append(sorter.flush())
    return out


def assert_columnar_equal(got, want, columns):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if columns:
            gk, gc = g
            wk, wc = w
            np.testing.assert_array_equal(gk, wk)
            for a, b in zip(gc, wc):
                np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_array_equal(g, w)


class TestColumnarDifferential:
    @pytest.mark.parametrize("policy", [LatePolicy.DROP, LatePolicy.ADJUST])
    @pytest.mark.parametrize("columns", [0, 1, 2])
    @pytest.mark.parametrize("budget", [None, 1, 24, 256, 8192, 1 << 20])
    def test_byte_identical_to_in_memory(self, policy, columns, budget):
        rng = random.Random(hash((policy.value, columns, budget)) & 0xFFFF)
        batches = columnar_stream(rng, 600, columns, 47, 30)
        reference = reference_columnar(batches, columns, policy)
        external = ColumnarImpatienceSorter(
            late_policy=policy, columns=columns, memory_budget=budget,
        )
        try:
            got = drive_columnar(external, batches, columns)
            assert_columnar_equal(got, reference, columns)
            doc = external.spill_doc()
            if budget is None:
                # Never spills, so never makes a spill directory.
                assert doc["runs_spilled"] == 0
                assert external.pool._directory is None
            else:
                assert doc["peak_buffered_bytes"] <= budget
                if budget < 256:
                    assert doc["runs_spilled"] > 0
        finally:
            external.close()

    def test_pathological_one_row_per_spill(self):
        """budget=1 byte: every chunk overflows, block_rows=1 — the
        1-run-per-event worst case stays byte-identical."""
        rng = random.Random(5)
        batches = columnar_stream(rng, 250, 1, 13, 40)
        reference = reference_columnar(batches, 1)
        external = ColumnarImpatienceSorter(memory_budget=1, columns=1)
        try:
            got = drive_columnar(external, batches, 1)
            assert_columnar_equal(got, reference, 1)
            assert external.spill_doc()["runs_spilled"] > 0
        finally:
            external.close()

    def test_mirrors_validation_errors(self):
        external = ColumnarImpatienceSorter(memory_budget=64, columns=1)
        try:
            with pytest.raises(ValueError, match="1-D"):
                external.insert_batch(np.zeros((2, 2), dtype=np.int64), ())
            with pytest.raises(ValueError, match="payload columns"):
                external.insert_batch(np.arange(3), ())
        finally:
            external.close()


# -- scalar differential ----------------------------------------------------


def scalar_stream(seed, n=1500, punct_every=90, displacement=50,
                  latency=35):
    rng = random.Random(seed)
    elements, high = [], None
    for i in range(n):
        v = i + rng.randrange(-displacement, displacement + 1)
        elements.append(("event", v))
        high = v if high is None else max(high, v)
        if (i + 1) % punct_every == 0:
            elements.append(("punct", high - latency))
    return elements


def drive_scalar(sorter, elements, wrap=None):
    out = []
    for kind, value in elements:
        item = wrap(value) if wrap else value
        if kind == "event":
            sorter.insert(item)
        else:
            out.append(list(sorter.on_punctuation(value)))
    out.append(list(sorter.flush()))
    return out


class TestScalarDifferential:
    @pytest.mark.parametrize("policy", [LatePolicy.DROP, LatePolicy.ADJUST])
    @pytest.mark.parametrize("budget", [1, 64, 1024, 65536])
    def test_keyless_matches_in_memory(self, policy, budget):
        elements = scalar_stream(seed=budget % 97)
        reference = drive_scalar(
            ImpatienceSorter(late_policy=policy), elements
        )
        external = ExternalImpatienceSorter(budget, late_policy=policy)
        try:
            got = drive_scalar(external, elements)
            assert got == reference
            assert external.late.dropped >= 0
            doc = external.spill_doc()
            assert doc["peak_buffered_bytes"] <= budget
        finally:
            external.close()

    @pytest.mark.parametrize("budget", [1, 512, 16384])
    def test_keyed_matches_in_memory_kway(self, budget):
        # Items are pure functions of the key, so arrival tie order
        # cannot distinguish equal items and the comparison is exact.
        def key(item):
            return item[1]

        elements = scalar_stream(seed=3, n=1200)
        reference = drive_scalar(
            ImpatienceSorter(key=key, merge="kway"), elements,
            wrap=lambda v: ("ev", v),
        )
        external = ExternalImpatienceSorter(budget, key=key)
        try:
            got = drive_scalar(external, elements, wrap=lambda v: ("ev", v))
            assert got == reference
        finally:
            external.close()

    def test_raise_policy_raises_like_in_memory(self):
        elements = scalar_stream(seed=11)
        with pytest.raises(LateEventError):
            drive_scalar(
                ImpatienceSorter(late_policy=LatePolicy.RAISE), elements
            )
        external = ExternalImpatienceSorter(
            128, late_policy=LatePolicy.RAISE
        )
        try:
            with pytest.raises(LateEventError):
                drive_scalar(external, elements)
        finally:
            external.close()

    def test_rejects_non_integer_keys(self):
        external = ExternalImpatienceSorter(128)
        try:
            with pytest.raises(TypeError, match="integer sync keys"):
                external.insert("three")
            with pytest.raises(TypeError, match="integer sync keys"):
                external.insert(True)
        finally:
            external.close()


# -- replacement selection --------------------------------------------------


class TestReplacementSelection:
    def test_nearly_sorted_runs_exceed_twice_the_budget(self):
        """On nearly-sorted input, replacement selection keeps one run
        open across spills, so on-disk runs average >= 2x the budget."""
        budget = 2048
        rng = random.Random(1)
        external = ExternalImpatienceSorter(budget)
        try:
            for i in range(60_000):
                external.insert(i + rng.randrange(0, 8))
            external.flush()
            doc = external.spill_doc()
            assert doc["runs_spilled"] >= 1
            assert doc["avg_run_bytes"] >= 2 * budget
        finally:
            external.close()

    def test_reversed_input_degrades_to_one_run_per_spill(self):
        budget = 2048
        external = ExternalImpatienceSorter(budget)
        try:
            for i in range(20_000, 0, -1):
                external.insert(i)
            external.flush()
            doc = external.spill_doc()
            # Anti-sorted input defeats replacement selection — many
            # short runs — but correctness never depends on run length.
            assert doc["runs_spilled"] > 10
        finally:
            external.close()


# -- temp-file hygiene ------------------------------------------------------


class TestTempFileHygiene:
    def fill(self, sorter, n=4000):
        for i in range(n):
            sorter.insert(i % 997)

    def test_close_removes_directory_and_runs(self):
        external = ExternalImpatienceSorter(256)
        self.fill(external)
        path = external.pool.directory.path
        assert os.path.isdir(path)
        assert external.run_count > 0
        external.close()
        assert not os.path.exists(path)

    def test_close_after_exception_removes_directory(self):
        external = ExternalImpatienceSorter(256)
        path = external.pool.directory.path
        try:
            self.fill(external)
            raise RuntimeError("mid-stream failure")
        except RuntimeError:
            pass
        finally:
            external.close()
        assert not os.path.exists(path)

    def test_finalizer_backstop_cleans_unclosed_sorter(self):
        import gc

        external = ExternalImpatienceSorter(256)
        self.fill(external)
        path = external.pool.directory.path
        del external
        gc.collect()
        assert not os.path.exists(path)

    def test_spill_directory_context_manager(self):
        with SpillDirectory() as directory:
            path = directory.path
            open(directory.file_path("x.spill"), "wb").close()
        assert not os.path.exists(path)

    def test_run_files_deleted_as_cuts_exhaust_them(self):
        external = ExternalImpatienceSorter(256)
        try:
            self.fill(external, 3000)
            directory = external.pool.directory.path
            assert len(os.listdir(directory)) > 0
            external.flush()
            assert os.listdir(directory) == []
        finally:
            external.close()


# -- disk-fault injection ---------------------------------------------------


class TestBlockFormat:
    @pytest.mark.parametrize("ncols, nscols, objects", [
        (0, 0, False), (2, 1, True),
    ])
    def test_blocks_are_the_concatenated_encoding(self, tmp_path, ncols,
                                                  nscols, objects):
        """A block is built in one buffer; its bytes are still the
        header, the keys, each int column, each framed string column
        and the pickled objects, one after the other."""
        keys = np.array([3, 3, 5, 9, 12], dtype=np.int64)
        cols = (np.array([1, -2, 3, 4, 5]), np.array([7, 7, 7, 7, 2**40]))
        scols = (StringColumn.from_values([b"a", b"", b"ccc", b"dd", b"e"]),)
        objs = [("x", 1), None, 3.5, "s", b"b"]
        cols, scols = cols[:ncols], scols[:nscols]
        objs = objs if objects else None
        path = str(tmp_path / "run.spill")
        run = ext._RunFile.create(
            path, ncols, objects, SpillMetrics(None), nscols=nscols
        )
        run.append(keys, cols, objs, 2, None, scols)
        run.close_handle()
        flags = (ext._FLAG_OBJECTS if objects else 0) | (
            nscols << ext._FLAG_NSCOLS_SHIFT
        )
        expected = ext._FILE_HEADER.pack(ext._FILE_MAGIC, ncols, flags)
        for start in range(0, keys.size, 2):
            stop = min(start + 2, keys.size)
            payload = keys[start:stop].tobytes() + b"".join(
                col[start:stop].astype(np.int64).tobytes() for col in cols
            )
            for col in scols:
                piece = col.slice(start, stop)
                framed = bytearray(piece.packed_size())
                piece.pack_into(framed)
                payload += bytes(framed)
            if objects:
                payload += pickle.dumps(
                    objs[start:stop], protocol=pickle.HIGHEST_PROTOCOL
                )
            expected += ext._BLOCK_HEADER.pack(
                ext._BLOCK_MAGIC, stop - start, int(keys[start]),
                int(keys[stop - 1]), len(payload), zlib.crc32(payload),
            ) + payload
        with open(path, "rb") as fh:
            assert fh.read() == expected


class TestSpillFaultInjection:
    def stream_through(self, injector):
        external = ExternalImpatienceSorter(256, injector=injector)
        try:
            rng = random.Random(0)
            for _ in range(3000):
                external.insert(rng.randrange(10_000))
            external.flush()
        finally:
            external.close()

    @pytest.mark.parametrize("mode", ["corrupt", "truncate"])
    @pytest.mark.parametrize("side", ["read", "write"])
    def test_corruption_is_detected_never_silent(self, mode, side):
        injector = FaultInjector(
            f"spill:p=1.0,mode={mode},on={side},limit=1", seed=1
        )
        with pytest.raises(SpillCorruptionError) as info:
            self.stream_through(injector)
        err = info.value
        assert err.path and os.path.basename(err.path).endswith(".spill")
        assert err.offset >= 0
        assert injector.fired["spill"] == 1

    @pytest.mark.parametrize("side", ["read", "write"])
    def test_oserror_mode_raises_oserror(self, side):
        injector = FaultInjector(
            f"spill:p=1.0,mode=oserror,on={side},limit=1", seed=1
        )
        with pytest.raises(OSError) as info:
            self.stream_through(injector)
        assert not isinstance(info.value, SpillCorruptionError)
        assert "injected spill" in str(info.value)

    def test_spill_corruption_error_pickles(self):
        err = SpillCorruptionError("/tmp/x.spill", 128, "checksum mismatch")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.path == err.path
        assert clone.offset == 128
        assert "checksum mismatch" in str(clone)

    def test_truncated_file_on_disk_is_detected(self):
        """A genuinely torn file (no injector) trips the framing check."""
        external = ExternalImpatienceSorter(256)
        try:
            for i in range(3000):
                external.insert(i % 719)
            runs = external.pool.runs
            assert runs, "expected at least one spilled run"
            run = runs[0]
            with open(run.path, "r+b") as fh:
                fh.truncate(run.length - 7)
            with pytest.raises(SpillCorruptionError, match="truncated"):
                external.flush()
        finally:
            external.close()


# -- checkpoint / restore ---------------------------------------------------


def _blocks_left(run):
    """Blocks of ``run``'s file from its read position to its end."""
    count, offset = 0, run.read_offset
    with open(run.path, "rb") as fh:
        while offset < run.length:
            fh.seek(offset)
            header = ext._BLOCK_HEADER.unpack(
                fh.read(ext._BLOCK_HEADER.size)
            )
            offset += ext._BLOCK_HEADER.size + header[4]
            count += 1
    return count


class TestExternalCheckpoint:
    def split_stream(self, seed=9):
        # A punctuation lag deeper than the spill cadence keeps sorted
        # runs alive on disk across cuts — the checkpoint must capture
        # and pin them, which is the point of these tests.
        elements = scalar_stream(
            seed=seed, n=2400, punct_every=120, latency=300,
        )
        cut = (len(elements) * 2) // 3
        return elements[:cut], elements[cut:]

    def reference(self, head, tail):
        return drive_scalar(ImpatienceSorter(), head + tail)

    def run_prefix(self, sorter, head):
        out = []
        for kind, value in head:
            if kind == "event":
                sorter.insert(value)
            else:
                out.append(list(sorter.on_punctuation(value)))
        return out

    def finish(self, sorter, prefix_out, tail):
        out = list(prefix_out)
        for kind, value in tail:
            if kind == "event":
                sorter.insert(value)
            else:
                out.append(list(sorter.on_punctuation(value)))
        out.append(list(sorter.flush()))
        return out

    def test_round_trip_with_runs_on_disk(self):
        head, tail = self.split_stream()
        expected = self.reference(head, tail)
        original = ExternalImpatienceSorter(512)
        prefix_out = self.run_prefix(original, head)
        assert original.run_count > 0, "checkpoint must capture disk runs"
        state = checkpoint_sorter(original)
        assert state["format"] == 3
        assert len(state["external"]["runs"]) == original.run_count
        # The original dying — its files deleted — must not invalidate
        # the checkpoint: restore twice, close the original in between.
        twin1 = restore_sorter(state)
        original.close()
        twin2 = restore_sorter(state)
        got1 = self.finish(twin1, prefix_out, tail)
        twin1.close()
        got2 = self.finish(twin2, prefix_out, tail)
        twin2.close()
        release_checkpoint(state)
        assert got1 == expected
        assert got2 == expected

    def test_restore_after_a_straddling_cut_reads_that_block_once(self):
        """The checkpoint falls right after a cut that straddled a block,
        so that block is decoded and half taken.  The restored twin
        finishes byte-identical and reads every block left on disk —
        the straddled one included — once, as it does each block it
        writes itself."""
        head, tail = self.split_stream()
        cut = max(i for i, (kind, _) in enumerate(head) if kind == "punct")
        head, tail = head[:cut + 1], head[cut + 1:] + tail
        expected = self.reference(head, tail)
        original = ExternalImpatienceSorter(512)
        try:
            prefix_out = self.run_prefix(original, head)
            assert any(run.row_skip for run in original.pool.runs)
            state = checkpoint_sorter(original)
        finally:
            original.close()
        twin = restore_sorter(state)
        try:
            assert any(run.row_skip for run in twin.pool.runs)
            on_disk = sum(_blocks_left(run) for run in twin.pool.runs)
            got = self.finish(twin, prefix_out, tail)
            doc = twin.spill_doc()
        finally:
            twin.close()
            release_checkpoint(state)
        assert got == expected
        assert doc["blocks_read"] == on_disk + doc["blocks_written"]

    def test_release_checkpoint_removes_pinned_files(self):
        head, _ = self.split_stream()
        original = ExternalImpatienceSorter(512)
        self.run_prefix(original, head)
        state = checkpoint_sorter(original)
        pinned = state["external"]["directory"].path
        assert os.path.isdir(pinned)
        release_checkpoint(state)
        assert not os.path.exists(pinned)
        with pytest.raises(CheckpointError, match="already released"):
            restore_sorter(state)
        original.close()

    def test_keyed_external_not_checkpointable(self):
        external = ExternalImpatienceSorter(512, key=lambda item: item[0])
        try:
            with pytest.raises(CheckpointError, match="only keyless"):
                checkpoint_sorter(external)
        finally:
            external.close()

    @pytest.mark.parametrize("checkpoint_every", [1, 3])
    def test_supervised_crash_recovery_exactly_once(self, checkpoint_every):
        """Crash mid-stream with runs on disk; the restart restores from
        the journal+checkpoint and delivery is exactly-once identical."""
        elements = scalar_stream(seed=21, n=2400, punct_every=120)
        expected = [
            v for batch in drive_scalar(ImpatienceSorter(), elements)
            for v in batch
        ]
        supervisor = SorterSupervisor(
            lambda: ExternalImpatienceSorter(512),
            checkpoint_every=checkpoint_every,
            chaos="crash:punct=4+9", seed=0,
            sleep=lambda s: None,
        )
        result = supervisor.run(elements)
        assert result.output == expected
        assert result.restarts == 2
        assert all(r["from_checkpoint"] for r in result.restores)
        result.sorter.close()


# -- supervised spill chaos -------------------------------------------------


class TestSupervisedSpillChaos:
    def expected(self, elements):
        return [
            v for batch in drive_scalar(ImpatienceSorter(), elements)
            for v in batch
        ]

    @pytest.mark.parametrize("mode", ["oserror", "corrupt", "truncate"])
    def test_recovers_byte_identical(self, mode):
        elements = scalar_stream(seed=2, n=2400, punct_every=120)
        supervisor = SorterSupervisor(
            lambda: ExternalImpatienceSorter(512),
            checkpoint_every=2, quarantine=True,
            chaos=f"spill:p=0.03,mode={mode},on=both,limit=2", seed=7,
            sleep=lambda s: None,
        )
        result = supervisor.run(elements)
        assert result.output == self.expected(elements)
        assert result.injector.fired.get("spill", 0) >= 1
        assert result.restarts >= 1
        result.sorter.close()

    def test_corruption_is_quarantined_visibly(self):
        elements = scalar_stream(seed=2, n=2400, punct_every=120)
        supervisor = SorterSupervisor(
            lambda: ExternalImpatienceSorter(512),
            checkpoint_every=2, quarantine=True,
            chaos="spill:p=0.05,mode=corrupt,on=read,limit=1", seed=3,
            sleep=lambda s: None,
        )
        result = supervisor.run(elements)
        assert result.output == self.expected(elements)
        spills = [
            entry for entry in result.ledger.entries
            if str(entry.element).startswith("spill:")
        ]
        assert len(spills) == result.restarts >= 1
        result.sorter.close()

    def test_persistent_corruption_exhausts_never_lies(self):
        elements = scalar_stream(seed=2, n=1200, punct_every=120)
        supervisor = SorterSupervisor(
            lambda: ExternalImpatienceSorter(256),
            checkpoint_every=2, max_restarts=2,
            chaos="spill:p=1.0,mode=corrupt,on=write", seed=0,
            sleep=lambda s: None,
        )
        with pytest.raises(SupervisionExhaustedError):
            supervisor.run(elements)


# -- engine / framework wiring ----------------------------------------------


class TestEngineWiring:
    def events(self):
        from repro.engine.event import Event

        rng = random.Random(13)
        return [
            Event(rng.randrange(500), key=rng.randrange(5),
                  payload=(rng.randrange(50), rng.randrange(9)))
            for _ in range(1500)
        ]

    def plan(self):
        from repro.engine import QueryPlan
        from repro.engine.operators.aggregates import Count

        return (QueryPlan().tumbling_window(16).sort()
                .group_aggregate(Count()))

    @pytest.mark.parametrize("engine", ["auto", "row"])
    def test_budgeted_plan_identical_with_spill_metrics(self, engine):
        events = self.events()
        plain = self.plan().run(list(events), 64, 30, engine=engine)
        budgeted = self.plan().run(
            list(events), 64, 30, engine=engine, memory_budget=256,
        )
        assert budgeted.events == plain.events
        assert budgeted.punctuations == plain.punctuations
        doc = budgeted.spill
        assert doc is not None
        assert doc["peak_buffered_bytes"] <= 256
        assert doc["runs_spilled"] > 0
        assert plain.spill is None
        if engine == "auto":  # row runs carry no snapshot sans registry
            snapshot = budgeted.snapshot()
            assert snapshot.spill == doc
            assert snapshot.as_dict()["meta"]["memory_budget"] == 256

    def test_string_budget_and_custom_sorter_rejection(self):
        events = self.events()[:200]
        result = self.plan().run(list(events), 64, 30,
                                 memory_budget="4KB")
        assert result.spill["budget_bytes"] == 4096
        from repro.engine import QueryPlan

        custom = (QueryPlan().tumbling_window(16)
                  .sort(sorter=lambda: ImpatienceSorter())
                  .count())
        with pytest.raises(QueryBuildError, match="default sorter"):
            custom.run(list(events), 64, 30, memory_budget=1024)

    def test_streamables_budgeted_run_identical(self):
        from repro.engine import DisorderedStreamable
        from repro.workloads import load_dataset

        dataset = load_dataset("cloudlog", 1500)

        def build():
            return DisorderedStreamable.from_dataset(
                dataset, punctuation_frequency=100, reorder_latency=500,
            ).to_streamables([0, 500])

        plain = build().run()
        budgeted = build().run(memory_budget=2048)
        for i in range(2):
            assert budgeted.output_events(i) == plain.output_events(i)
        assert len(budgeted.spill["paths"]) == 2
        for doc in budgeted.spill["paths"]:
            assert doc["peak_buffered_bytes"] <= 2048
        with pytest.raises(QueryBuildError, match="supervised"):
            build().run(memory_budget=1024, supervised=True)

    def test_cli_memory_budget(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--query", "grouped-count", "--n", "4000",
            "--memory-budget", "16KB",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "spill: budget 16,384 B" in out

    def test_cli_memory_budget_rejections(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--n", "500", "--memory-budget", "1KB", "--supervised",
        ])
        assert code == 2
        assert "error: QueryBuildError" in capsys.readouterr().err
        code = main(["run", "--n", "500", "--memory-budget", "nope"])
        assert code == 2
        assert "error: ValueError" in capsys.readouterr().err


class TestCallMemory:
    def test_spilling_call_streams_its_cuts(self):
        """A session fold over 60k AndroidLog events at a 256 KiB
        budget: the call's traced peak above what its result retains
        stays under 1.5 MiB, because each cut reaches the kernel as a
        stream of steps.  Merging each cut whole, and re-reading every
        straddled block, peaked ≈4.9 MiB above it."""
        import gc
        import tracemalloc

        from repro.engine import QueryPlan, field
        from repro.engine.operators.aggregates import Sum
        from repro.metrics.profile import suggest_reorder_latency
        from repro.workloads import generate_androidlog

        dataset = generate_androidlog(60_000, seed=31)
        latency = suggest_reorder_latency(dataset.timestamps, 0.99)
        plan = QueryPlan().sort().session_window(150, Sum(field(0)))

        def call():
            return plan.run(
                dataset, punctuation_frequency=8192,
                reorder_latency=latency, engine="columnar",
                memory_budget=256 * 1024,
            )

        call()      # first-call imports and caches stay out of the peak
        gc.collect()
        tracemalloc.start()
        try:
            result = call()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.spill["spills"] > 0
        assert result.spill["blocks_read"] == result.spill["blocks_written"]
        assert peak - retained <= 1.5 * 2 ** 20
