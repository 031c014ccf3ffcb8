"""Out-of-core run pool: bounded-memory spill-to-disk Impatience sorting.

The in-memory sorters cap stream size at machine RAM.  This module adds
a memory-budgeted run pool in the spirit of TPIE-style external-memory
pipelining: buffered bytes are tracked against a configurable budget,
cold sorted runs spill to disk as compact framed columnar blocks, and a
punctuation cut streams back as *steps*: each reads on, sequentially,
only as far as the smallest last key among the runs' current blocks,
and merges those rows with the resident ones in one concatenate +
stable argsort — :func:`~repro.core.columnar.merge_sorted_parts`.  So a
cut holds at most one decoded block per run plus one step, and every
block is read once.  The pool is the
buffer of :class:`~repro.core.columnar.ColumnarImpatienceSorter`; with
no budget it never spills and makes no spill directory.

Run generation is *replacement selection* in batched form: when the
buffer overflows, every buffered element whose key is at or above the
open run's tail is appended to that run (keeping it sorted), and only
the colder residue stays in memory.  On the nearly-sorted log streams
the paper targets, almost everything is eligible, so on-disk runs grow
far longer than the memory budget — the classic ~2x-of-memory expected
run length, unbounded for sorted input.

Correctness contract: output is **byte-identical** at any budget, no
budget included — every cut is the stable sort by key of the admitted
arrivals.  That holds because every stage is arrival-stable for equal
keys — chunks are stable-argsorted, a run's equal keys are appended in
arrival order (an eligible key equal to the tail arrived after the
spill that set that tail), later runs receive equal keys later than
earlier runs did, and the in-memory residue loses ties to every spilled
run.  The merge is a stable sort, so it breaks key ties by position in
the concatenation (runs in creation order, each run's blocks in file
order, then the resident chunks in arrival order), which therefore
reproduces arrival order.

Every spilled block carries a CRC32; damage on the way back in raises a
typed :class:`~repro.core.errors.SpillCorruptionError` with file and
byte offset — never a silent wrong answer.  The spill directory is a
context-managed resource with a ``weakref.finalize`` backstop, so run
files do not outlive the pool even on the exception path.
"""

from __future__ import annotations

import os
import pickle
import re
import shutil
import struct
import tempfile
import uuid
import weakref
import zlib

import numpy as np

from repro.core.columnar import merge_sorted_parts, stable_order
from repro.core.errors import PunctuationOrderError, SpillCorruptionError
from repro.core.late import LateEventTracker, LatePolicy
from repro.core.stats import SorterStats
from repro.core.strings import StringColumn

__all__ = [
    "ExternalImpatienceSorter",
    "ExternalRunPool",
    "SpillDirectory",
    "SpillMetrics",
    "parse_memory_budget",
]

_NEG_INF = float("-inf")

# File layout: one header, then a sequence of framed blocks.  Each block
# holds ``nrows`` int64 keys, the parallel int64 payload columns, then —
# for string-carrying sorters — each string column as
# ``u64 arena_len | offsets u32[nrows+1] | arena`` (the
# :class:`~repro.core.strings.StringColumn` wire format), and — for
# keyed scalar sorters — a pickled list of the original items.  All of
# it sits inside the block's CRC frame, so damaged string arenas raise
# ``SpillCorruptionError`` exactly like damaged int columns.
_FILE_MAGIC = b"RSPILL01"
_FILE_HEADER = struct.Struct("<8sII")  # magic, ncols, flags
_FLAG_OBJECTS = 1
# The string-column count rides the upper flag bits; files written
# before strings existed decode with nscols == 0 unchanged.
_FLAG_NSCOLS_SHIFT = 16
_BLOCK_MAGIC = 0x4B4C4252  # "RBLK" little-endian
# magic, nrows, first_key, last_key, payload_nbytes, crc32
_BLOCK_HEADER = struct.Struct("<IIqqQI")

# Nominal accounting charge per pickled payload object (keyed scalar
# path); exact sizes are unknowable without serializing twice.
_OBJECT_NOMINAL_BYTES = 56

_BUDGET_SUFFIXES = {
    "": 1, "b": 1,
    "k": 1024, "kb": 1024, "kib": 1024,
    "m": 1024 ** 2, "mb": 1024 ** 2, "mib": 1024 ** 2,
    "g": 1024 ** 3, "gb": 1024 ** 3, "gib": 1024 ** 3,
}


def parse_memory_budget(value):
    """Parse a memory budget into bytes.

    Accepts plain ints (bytes) or strings with a binary suffix:
    ``"64MB"``, ``"512k"``, ``"1GiB"``, ``"4096"``.
    """
    if isinstance(value, bool):
        raise ValueError(f"invalid memory budget {value!r}")
    if isinstance(value, (int, np.integer)):
        budget = int(value)
    elif isinstance(value, str):
        match = re.fullmatch(
            r"\s*(\d+)\s*([a-z]*)\s*", value.lower().replace("_", "")
        )
        if not match or match.group(2) not in _BUDGET_SUFFIXES:
            raise ValueError(f"invalid memory budget {value!r}")
        budget = int(match.group(1)) * _BUDGET_SUFFIXES[match.group(2)]
    else:
        raise ValueError(f"invalid memory budget {value!r}")
    if budget < 1:
        raise ValueError("memory budget must be at least 1 byte")
    return budget


class SpillMetrics:
    """Counters for the spill subsystem, exposed via snapshots."""

    __slots__ = (
        "budget_bytes", "spills", "runs_spilled", "blocks_written",
        "bytes_written", "blocks_read", "bytes_read", "merges",
        "max_merge_fan_in", "peak_buffered_bytes", "run_bytes",
    )

    def __init__(self, budget_bytes):
        self.budget_bytes = budget_bytes
        self.spills = 0
        self.runs_spilled = 0
        self.blocks_written = 0
        self.bytes_written = 0
        self.blocks_read = 0
        self.bytes_read = 0
        self.merges = 0
        self.max_merge_fan_in = 0
        self.peak_buffered_bytes = 0
        self.run_bytes = {}  # run name -> logical bytes spilled into it

    def note_buffered(self, nbytes):
        if nbytes > self.peak_buffered_bytes:
            self.peak_buffered_bytes = int(nbytes)

    def note_fan_in(self, sources):
        if sources > self.max_merge_fan_in:
            self.max_merge_fan_in = int(sources)

    def as_dict(self):
        lengths = list(self.run_bytes.values())
        return {
            "budget_bytes": self.budget_bytes,
            "spills": self.spills,
            "runs_spilled": self.runs_spilled,
            "blocks_written": self.blocks_written,
            "bytes_written": self.bytes_written,
            "blocks_read": self.blocks_read,
            "bytes_read": self.bytes_read,
            "merges": self.merges,
            "max_merge_fan_in": self.max_merge_fan_in,
            "peak_buffered_bytes": self.peak_buffered_bytes,
            "avg_run_bytes": (sum(lengths) / len(lengths)) if lengths else 0,
            "max_run_bytes": max(lengths, default=0),
        }


class SpillDirectory:
    """A context-managed temporary directory for spilled run files.

    Always owns its directory (a fresh ``mkdtemp`` under ``base``), so
    :meth:`cleanup` may remove it unconditionally.  A
    ``weakref.finalize`` backstop removes it even if nobody calls
    ``cleanup`` — run files never outlive the process.
    """

    def __init__(self, base=None, prefix="repro-spill-"):
        self.path = tempfile.mkdtemp(prefix=prefix, dir=base)
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self.path, True
        )

    @property
    def alive(self):
        return self._finalizer.alive

    def file_path(self, name):
        return os.path.join(self.path, name)

    def files(self):
        """Names of the files currently present (empty once cleaned)."""
        if not self.alive or not os.path.isdir(self.path):
            return []
        return sorted(os.listdir(self.path))

    def cleanup(self):
        self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.cleanup()
        return False

    def __repr__(self):
        state = "live" if self.alive else "cleaned"
        return f"SpillDirectory({self.path!r}, {state})"


def _is_ascending(arr):
    return arr.size < 2 or bool((np.diff(arr) >= 0).all())


class _RunFile:
    """One spilled sorted run: a framed sequence of columnar blocks.

    A single read/write handle serves both roles; writes always land at
    ``self.length`` (the logical end), reads stream sequentially from
    ``read_offset`` with ``row_skip`` marking the rows of the current
    block already emitted by an earlier punctuation cut.  Those two are
    the checkpointed read position; the decoded current block is a
    cache of it that a checkpoint never carries.
    """

    __slots__ = (
        "path", "name", "ncols", "nscols", "objects", "metrics", "length",
        "read_offset", "row_skip", "tail_key", "closed", "rows",
        "string_bytes", "_fh", "_block", "_block_end",
    )

    def __init__(self, path, ncols, objects, metrics, nscols=0):
        self.path = path
        self.name = os.path.basename(path)
        self.ncols = int(ncols)
        self.nscols = int(nscols)
        self.objects = bool(objects)
        self.metrics = metrics
        self.length = _FILE_HEADER.size
        self.read_offset = _FILE_HEADER.size
        self.row_skip = 0
        self.tail_key = None
        self.closed = False
        self.rows = 0
        self.string_bytes = 0
        self._fh = None
        self._block = None      # the block at read_offset, once decoded
        self._block_end = None  # and the file offset after it

    @classmethod
    def create(cls, path, ncols, objects, metrics, nscols=0):
        run = cls(path, ncols, objects, metrics, nscols=nscols)
        run._fh = open(path, "w+b")
        flags = (_FLAG_OBJECTS if objects else 0) | (
            int(nscols) << _FLAG_NSCOLS_SHIFT
        )
        header = _FILE_HEADER.pack(_FILE_MAGIC, ncols, flags)
        run._fh.write(header)
        run._fh.flush()
        metrics.bytes_written += len(header)
        return run

    @classmethod
    def reopen(cls, path, metrics):
        """Re-open an existing run file (checkpoint restore path)."""
        run = cls(path, 0, False, metrics)
        run._fh = open(path, "r+b")
        header = run._fh.read(_FILE_HEADER.size)
        if len(header) < _FILE_HEADER.size:
            raise SpillCorruptionError(path, 0, "truncated file header")
        magic, ncols, flags = _FILE_HEADER.unpack(header)
        if magic != _FILE_MAGIC:
            raise SpillCorruptionError(path, 0, "bad file magic")
        run.ncols = int(ncols)
        run.objects = bool(flags & _FLAG_OBJECTS)
        run.nscols = int(flags >> _FLAG_NSCOLS_SHIFT)
        return run

    @property
    def exhausted(self):
        return self.read_offset >= self.length

    def append(self, keys, cols, objs, block_rows, injector, scols=()):
        """Append an ascending slice (first key >= tail) as blocks."""
        for start in range(0, int(keys.size), block_rows):
            stop = min(start + block_rows, int(keys.size))
            self._write_block(
                keys[start:stop],
                tuple(col[start:stop] for col in cols),
                objs[start:stop] if objs is not None else None,
                injector,
                tuple(col.slice(start, stop) for col in scols),
            )
        self.tail_key = int(keys[-1])
        self.rows += int(keys.size)

    def _write_block(self, keys, cols, objs, injector, scols=()):
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        nrows = int(keys.size)
        pickled = b""
        if self.objects:
            pickled = pickle.dumps(
                list(objs), protocol=pickle.HIGHEST_PROTOCOL
            )
        sizes = [col.packed_size() for col in scols]
        payload_n = 8 * nrows * (1 + len(cols)) + sum(sizes) + len(pickled)
        # One buffer, header first: every column is copied into it once.
        head = _BLOCK_HEADER.size
        block = bytearray(head + payload_n)
        for index, col in enumerate((keys, *cols)):
            np.frombuffer(
                block, dtype=np.int64, count=nrows,
                offset=head + 8 * nrows * index,
            )[:] = col
        cursor = head + 8 * nrows * (1 + len(cols))
        for col, size in zip(scols, sizes):
            cursor = col.pack_into(block, cursor)
            self.string_bytes += size
        block[cursor:] = pickled
        payload = memoryview(block)[head:]
        _BLOCK_HEADER.pack_into(
            block, 0, _BLOCK_MAGIC, nrows, int(keys[0]), int(keys[-1]),
            payload_n, zlib.crc32(payload),
        )
        payload.release()
        mode = None
        if injector is not None:
            mode = injector.spill_write_fault(self.path)  # may raise
        if mode == "corrupt":
            block[head + payload_n // 2] ^= 0xFF
        elif mode == "truncate":
            del block[head + payload_n // 2:]
        fh = self._fh
        fh.seek(self.length)
        fh.write(block)
        fh.flush()
        # Logical framing always advances by the declared size, so a
        # torn (injected-truncate) write is caught by the CRC on read.
        self.length += head + payload_n
        self.metrics.blocks_written += 1
        self.metrics.bytes_written += len(block)

    def front(self, bound, injector):
        """The current block ``(keys, cols, objs, scols)`` while its
        first untaken row (``row_skip``) is ``<= bound`` (``None``: any
        row), else ``None``.  A block is read, checked and decoded once,
        and stays decoded until :meth:`take` has taken its last row."""
        if self.read_offset >= self.length:
            return None
        block = self._block
        if block is None:
            offset = self.read_offset
            header = self._read_bytes(offset, _BLOCK_HEADER.size, None)
            if len(header) < _BLOCK_HEADER.size:
                raise SpillCorruptionError(
                    self.path, offset, "truncated block header"
                )
            magic, nrows, first_key, _, payload_n, crc = \
                _BLOCK_HEADER.unpack(header)
            if magic != _BLOCK_MAGIC:
                raise SpillCorruptionError(
                    self.path, offset, "bad block magic"
                )
            if bound is not None and first_key > bound:
                return None
            payload = self._read_bytes(
                offset + _BLOCK_HEADER.size, payload_n, injector
            )
            if len(payload) != payload_n:
                raise SpillCorruptionError(
                    self.path, offset,
                    f"truncated block payload "
                    f"({len(payload)} of {payload_n} bytes)",
                )
            if zlib.crc32(payload) != crc:
                raise SpillCorruptionError(
                    self.path, offset, "block checksum mismatch"
                )
            block = self._block = self._decode(payload, nrows, offset)
            self._block_end = offset + _BLOCK_HEADER.size + payload_n
            self.metrics.blocks_read += 1
            self.metrics.bytes_read += _BLOCK_HEADER.size + payload_n
        if bound is not None and int(block[0][self.row_skip]) > bound:
            return None
        return block

    def take(self, bound, parts, injector):
        """Append to ``parts`` every untaken row ``<= bound`` (``None``:
        all), reading on while the next block starts at or below it."""
        while (block := self.front(bound, injector)) is not None:
            keys, cols, objs, scols = block
            skip, nrows = self.row_skip, int(keys.size)
            stop = nrows if bound is None or int(keys[-1]) <= bound \
                else int(np.searchsorted(keys, bound, side="right"))
            parts.append((
                keys[skip:stop],
                tuple(col[skip:stop] for col in cols),
                objs[skip:stop] if objs is not None else None,
                tuple(col.slice(skip, stop) for col in scols),
            ))
            if stop < nrows:
                self.row_skip = stop
                return
            self.read_offset, self.row_skip = self._block_end, 0
            self._block = None

    def _read_bytes(self, offset, nbytes, injector):
        fh = self._fh
        fh.seek(offset)
        data = fh.read(nbytes)
        if injector is not None:
            data = injector.spill_read_fault(self.path, offset, data)
        return data

    def _decode(self, payload, nrows, offset):
        fixed = 8 * nrows * (1 + self.ncols)
        if len(payload) < fixed or (
            not self.objects and not self.nscols and len(payload) != fixed
        ):
            raise SpillCorruptionError(
                self.path, offset, "block payload size mismatch"
            )
        keys = np.frombuffer(payload, dtype=np.int64, count=nrows)
        cols = tuple(
            np.frombuffer(
                payload, dtype=np.int64, count=nrows,
                offset=8 * nrows * (1 + c),
            )
            for c in range(self.ncols)
        )
        scols = []
        cursor = fixed
        for _ in range(self.nscols):
            try:
                col, cursor = StringColumn.unpack_from(
                    payload, nrows, cursor
                )
            except ValueError as exc:
                raise SpillCorruptionError(
                    self.path, offset, f"bad string column: {exc}"
                ) from exc
            scols.append(col)
        if self.nscols and not self.objects and cursor != len(payload):
            raise SpillCorruptionError(
                self.path, offset, "block payload size mismatch"
            )
        objs = None
        if self.objects:
            try:
                objs = pickle.loads(payload[cursor:])
            except Exception as exc:
                raise SpillCorruptionError(
                    self.path, offset, f"bad object payload: {exc}"
                ) from exc
            if not isinstance(objs, list) or len(objs) != nrows:
                raise SpillCorruptionError(
                    self.path, offset, "object payload length mismatch"
                )
        return keys, cols, objs, tuple(scols)

    def close_handle(self):
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def delete(self):
        self.close_handle()
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass


class ExternalRunPool:
    """Budget-tracked run pool with batched replacement selection.

    Holds arrival-ordered sorted chunks in memory; once buffered bytes
    exceed the budget, the buffer is stable-merged and every element
    eligible for the open run (key >= its tail) is appended to it on
    disk.  If the cold residue still overflows, the run is closed and a
    fresh run absorbs everything — so the resting in-memory footprint
    never exceeds the budget.  ``budget_bytes=None`` never spills: the
    pool is then a plain in-memory buffer of sorted chunks.
    """

    def __init__(self, budget_bytes=None, columns=0, objects=False,
                 spill_dir=None, injector=None, metrics=None,
                 string_columns=0):
        budget = None if budget_bytes is None else int(budget_bytes)
        if budget is not None and budget < 1:
            raise ValueError("memory budget must be at least 1 byte")
        if columns < 0:
            raise ValueError("columns must be >= 0")
        if string_columns < 0:
            raise ValueError("string_columns must be >= 0")
        self.budget = budget
        self.columns = int(columns)
        self.string_columns = int(string_columns)
        self.objects = bool(objects)
        self.bytes_per_row = 8 * (1 + self.columns) + (
            _OBJECT_NOMINAL_BYTES if objects else 0
        )
        self.block_rows = None if budget is None else max(
            1, min(65536, budget // (4 * self.bytes_per_row))
        )
        # A caller's SpillDirectory, or the base path of our own, which
        # is made at the first spill.
        self._owns_dir = not isinstance(spill_dir, SpillDirectory)
        self._directory = None if self._owns_dir else spill_dir
        self._spill_base = spill_dir
        self.tag = uuid.uuid4().hex[:12]
        self.injector = injector
        self.metrics = metrics if metrics is not None else \
            SpillMetrics(budget)
        self._chunks = []  # arrival-ordered (keys, cols, objs, scols)
        self._rows = 0
        self._sbytes = 0   # buffered string bytes (arenas + offsets)
        self._runs = []    # _RunFile in creation order; last may be open
        self._run_seq = 0
        self.splits = 0    # resident chunks a cut split by binary search

    @property
    def directory(self):
        """The :class:`SpillDirectory`, created on first use."""
        if self._directory is None:
            self._directory = SpillDirectory(base=self._spill_base)
        return self._directory

    @property
    def buffered_rows(self):
        return self._rows

    @property
    def buffered_bytes(self):
        # String arenas count against the budget at their true size —
        # that is what makes byte-identity hold at ANY budget: spilling
        # is triggered by real memory pressure, not a row-count proxy.
        return self._rows * self.bytes_per_row + self._sbytes

    @property
    def run_count(self):
        return len(self._runs)

    @property
    def runs(self):
        return tuple(self._runs)

    def insert_sorted(self, keys, cols=(), objs=None, scols=()):
        """Ingest one ascending chunk (keys int64, parallel columns)."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        scols = tuple(scols)
        self._chunks.append((keys, tuple(cols), objs, scols))
        self._rows += int(keys.size)
        self._sbytes += sum(col.nbytes for col in scols)
        if self.budget is not None and self.buffered_bytes > self.budget:
            self._spill()
        self.metrics.note_buffered(self.buffered_bytes)

    def _spill(self):
        keys, cols, objs, scols = merge_sorted_parts(
            self._chunks, self.columns, self.string_columns, self.objects
        )
        self._chunks, self._rows, self._sbytes = [], 0, 0
        run = None
        if self._runs and not self._runs[-1].closed:
            run = self._runs[-1]
        self.metrics.spills += 1
        while True:
            if run is None:
                run = self._new_run()
            tail = run.tail_key
            split = 0 if tail is None else int(
                np.searchsorted(keys, tail, side="left")
            )
            if split < keys.size:
                run.append(
                    keys[split:],
                    tuple(col[split:] for col in cols),
                    objs[split:] if objs is not None else None,
                    self.block_rows,
                    self.injector,
                    tuple(
                        col.slice(split, len(col)) for col in scols
                    ),
                )
                self.metrics.run_bytes[run.name] = (
                    run.rows * self.bytes_per_row + run.string_bytes
                )
            if split == 0:
                break
            keys = keys[:split]
            cols = tuple(col[:split] for col in cols)
            objs = objs[:split] if objs is not None else None
            scols = tuple(col.slice(0, split) for col in scols)
            residue_bytes = keys.size * self.bytes_per_row + sum(
                col.nbytes for col in scols
            )
            if residue_bytes <= self.budget:
                self._chunks = [(keys, cols, objs, scols)]
                self._rows = int(keys.size)
                self._sbytes = sum(col.nbytes for col in scols)
                break
            # Residue alone overflows: retire the run; a fresh one
            # (empty tail) absorbs everything on the next pass.
            run.closed = True
            run = None

    def _new_run(self):
        name = f"{self.tag}-run{self._run_seq:06d}.spill"
        self._run_seq += 1
        run = _RunFile.create(
            self.directory.file_path(name), self.columns, self.objects,
            self.metrics, nscols=self.string_columns,
        )
        self._runs.append(run)
        self.metrics.runs_spilled += 1
        return run

    def cut(self, ts):
        """Emit everything with key <= ``ts`` (None = everything), sorted:
        the :meth:`steps` of ``ts``, concatenated, as one
        ``(keys, cols, objs, scols)``."""
        return self.concat(self.steps(ts))

    def steps(self, ts):
        """Stream everything with key <= ``ts`` (None = everything) as
        merged *steps*: ascending, disjoint ``(keys, cols, objs, scols)``
        parts whose concatenation is the sorted cut.

        Each step takes, from every source in source order (runs in
        creation order, then the resident chunks in arrival order),
        every row at or below the *frontier*: the smallest last key
        among the current blocks of the runs that still hold rows
        ``<= ts`` (``ts`` itself once none does).  Rows equal to the
        frontier all land in one step, so its stable merge breaks their
        ties by (source, row) as one merge of the whole cut would.  A
        run holds at most its current block decoded; run files the cut
        exhausts are deleted at its end.
        """
        runs = [run for run in self._runs
                if run.front(ts, self.injector) is not None]
        # Fan-in counts sources: the resident buffer is one.
        sources = len(runs) + any(
            ts is None or int(chunk[0][0]) <= ts for chunk in self._chunks
        )
        if sources:
            self.metrics.merges += 1
            self.metrics.note_fan_in(sources)
        return self._stream(ts, runs, self.injector, True)

    def _stream(self, ts, runs, injector, consume):
        while True:
            runs = [run for run in runs
                    if run.front(ts, injector) is not None]
            frontier = ts
            for run in runs:
                last = int(run.front(ts, injector)[0][-1])
                if frontier is None or last < frontier:
                    frontier = last
            step = self._step(runs, frontier, injector)
            if step is not None:
                yield step
                # Drop the step before the next one is read and merged.
                del step
            if not runs:    # that step took every resident row <= ts
                break
        if consume:
            for run in self._runs:
                if run.exhausted:
                    run.delete()
            self._runs = [run for run in self._runs if not run.exhausted]

    def _step(self, runs, frontier, injector):
        """One merged step of every row ``<= frontier`` (None: all), or
        ``None`` when no source holds one."""
        parts = []
        for run in runs:
            run.take(frontier, parts, injector)
        self._cut_resident(frontier, parts)
        if not parts:
            return None
        return merge_sorted_parts(
            parts, self.columns, self.string_columns, self.objects
        )

    def concat(self, steps):
        """:meth:`steps` as one ``(keys, cols, objs, scols)``: they are
        ascending and disjoint, so their stable merge is their
        concatenation (one step comes back as is)."""
        return merge_sorted_parts(
            list(steps), self.columns, self.string_columns, self.objects
        )

    def _cut_resident(self, ts, parts):
        """Move the resident rows with key <= ``ts`` (None: all) into
        ``parts``.

        A chunk wholly at or below ``ts`` is taken whole and one wholly
        above it is kept whole; only a straddling chunk is split.
        """
        if ts is None:
            parts.extend(self._chunks)
            self._chunks, self._rows, self._sbytes = [], 0, 0
            return
        kept = []
        for chunk in self._chunks:
            keys, cols, objs, scols = chunk
            if int(keys[0]) > ts:
                kept.append(chunk)
                continue
            if int(keys[-1]) <= ts:
                parts.append(chunk)
                self._rows -= int(keys.size)
                self._sbytes -= sum(col.nbytes for col in scols)
                continue
            split = int(np.searchsorted(keys, ts, side="right"))
            self.splits += 1
            parts.append((
                keys[:split],
                tuple(col[:split] for col in cols),
                objs[:split] if objs is not None else None,
                tuple(col.slice(0, split) for col in scols),
            ))
            rest = tuple(col.slice(split, len(col)) for col in scols)
            kept.append((
                keys[split:],
                tuple(col[split:] for col in cols),
                objs[split:] if objs is not None else None,
                rest,
            ))
            self._rows -= split
            self._sbytes -= sum(col.nbytes for col in scols) - sum(
                col.nbytes for col in rest
            )
        self._chunks = kept

    def peek(self):
        """Everything buffered, sorted as ``cut(None)`` would return it,
        leaving the pool, its run files and its metrics untouched: the
        same stream, run without fault injection, then rewound."""
        marks = [
            (run.read_offset, run.row_skip, run._block, run._block_end)
            for run in self._runs
        ]
        resident = self._chunks, self._rows, self._sbytes, self.splits
        read = self.metrics.blocks_read, self.metrics.bytes_read
        try:
            return self.concat(
                self._stream(None, list(self._runs), None, False)
            )
        finally:
            for run, mark in zip(self._runs, marks):
                (run.read_offset, run.row_skip, run._block,
                 run._block_end) = mark
            self._chunks, self._rows, self._sbytes, self.splits = resident
            self.metrics.blocks_read, self.metrics.bytes_read = read

    def close(self):
        """Delete every remaining run file and release the directory."""
        for run in self._runs:
            run.delete()
        self._runs = []
        self._chunks = []
        self._rows = 0
        self._sbytes = 0
        if self._owns_dir and self._directory is not None:
            self._directory.cleanup()


class ExternalImpatienceSorter:
    """Scalar bounded-memory sorter with the ``ImpatienceSorter`` API.

    Keys must be integers (they are stored as packed int64 columns on
    disk).  Keyless sorters round-trip bare values; keyed sorters carry
    the original items in a pickled object column alongside the keys.
    Only the keyless form is checkpointable, mirroring the in-memory
    sorter's contract.
    """

    def __init__(self, budget_bytes, key=None, late_policy=LatePolicy.DROP,
                 spill_dir=None, quarantine=None, injector=None):
        self.stats = SorterStats()
        self.late = LateEventTracker(late_policy, quarantine=quarantine)
        self._key = key
        self.pool = ExternalRunPool(
            budget_bytes, columns=0, objects=key is not None,
            spill_dir=spill_dir, injector=injector,
        )
        self._pending_keys = []
        self._pending_items = [] if key is not None else None
        self._watermark = _NEG_INF
        self._has_watermark = False

    @property
    def keyed(self):
        return self._key is not None

    @property
    def buffered(self):
        return self.pool.buffered_rows + len(self._pending_keys)

    @property
    def run_count(self):
        return self.pool.run_count

    @property
    def watermark(self):
        return self._watermark

    @property
    def memory_budget(self):
        return self.pool.budget

    def attach_injector(self, injector):
        self.pool.injector = injector

    def spill_doc(self):
        return self.pool.metrics.as_dict()

    def insert(self, item):
        key = self._key(item) if self._key is not None else item
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)):
            raise TypeError(
                f"external sorter requires integer sync keys, "
                f"got {key!r}"
            )
        key = int(key)
        if self._has_watermark and key <= self._watermark:
            admitted = self.late.admit(key, self._watermark)
            if admitted is None:
                return False
            key = int(admitted)
            if self._key is None:
                item = key
        self._pending_keys.append(key)
        if self._pending_items is not None:
            self._pending_items.append(item)
        self.stats.inserted += 1
        self.stats.note_buffered()
        pending_bytes = len(self._pending_keys) * self.pool.bytes_per_row
        if pending_bytes + self.pool.buffered_bytes >= self.pool.budget:
            self._flush_pending()
        return True

    def extend(self, values):
        for value in values:
            self.insert(value)

    def _flush_pending(self):
        if not self._pending_keys:
            return
        keys = np.asarray(self._pending_keys, dtype=np.int64)
        objs = None
        if self._pending_items is not None:
            objs = list(self._pending_items)
            self._pending_items.clear()
        self._pending_keys.clear()
        if not _is_ascending(keys):
            order, keys = stable_order(keys)
            if objs is not None:
                objs = [objs[i] for i in order.tolist()]
        self.pool.insert_sorted(keys, (), objs)
        self.stats.runs_created = self.pool.metrics.runs_spilled

    def on_punctuation(self, timestamp):
        if self._has_watermark and timestamp < self._watermark:
            raise PunctuationOrderError(timestamp, self._watermark)
        self._flush_pending()
        self._watermark = timestamp
        self._has_watermark = True
        return self._emit(self.pool.cut(timestamp))

    def flush(self):
        self._flush_pending()
        return self._emit(self.pool.cut(None))

    def _emit(self, cut):
        keys, _, objs, _ = cut
        if keys.size:
            self.stats.merges += 1
            self.stats.merge_events += int(keys.size)
        self.stats.emitted += int(keys.size)
        self.stats.runs_removed = (
            self.pool.metrics.runs_spilled - self.pool.run_count
        )
        self.stats.sample_runs(self.pool.run_count)
        if self._key is not None:
            return objs
        return keys.tolist()

    def close(self):
        self.pool.close()
