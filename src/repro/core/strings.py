"""String columns and order-preserving dictionaries.

Log analytics sorts and groups by strings — service names, trace ids,
log levels — yet the columnar fast path of this repo was numeric-only.
This module supplies the two pieces that make string keys first-class
without giving up the columnar memory model:

* :class:`StringColumn` — a byte **arena** plus ``uint32`` offsets, the
  standard columnar variable-length layout.  Row ``i`` is
  ``arena[offsets[i]:offsets[i+1]]``.  Gather (``take``), slice, concat,
  and a compact wire/spill format are all O(data), allocation-light, and
  never materialize per-row Python objects unless a row is asked for.

* :class:`StringDictionary` — **order-preserving** dictionary encoding
  for low-cardinality keys: the sorted distinct values get dense int64
  codes, so comparing/sorting/grouping codes is exactly
  comparing/sorting/grouping the strings.  Equality predicates lower to
  one code, prefix predicates to a code *range*, and every existing
  int64 engine (row, columnar, parallel, budgeted) runs unchanged.
"""

from __future__ import annotations

import struct
from bisect import bisect_left

import numpy as np

__all__ = [
    "StringColumn",
    "StringDictionary",
    "as_bytes",
]

_EMPTY_OFFSETS = np.zeros(1, dtype=np.uint32)
_ARENA_HEAD = struct.Struct("<Q")


def as_bytes(key) -> bytes:
    """Normalize a string key to bytes (UTF-8, which preserves str order)."""
    if type(key) is bytes:
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    return bytes(key)


class StringColumn:
    """Immutable variable-length byte-string column: arena + offsets.

    ``offsets`` has ``n + 1`` entries (``uint32``); row ``i`` spans
    ``arena[offsets[i]:offsets[i+1]]``.  The arena is capped at 4 GiB
    per column, which bounds a single batch/run — streams are unbounded
    because columns are chunked upstream.
    """

    __slots__ = ("arena", "offsets")

    def __init__(self, arena: bytes, offsets):
        offsets = np.asarray(offsets, dtype=np.uint32)
        if offsets.ndim != 1 or offsets.size == 0:
            raise ValueError("offsets must be a 1-D array with >= 1 entry")
        self.arena = arena
        self.offsets = offsets

    @classmethod
    def from_values(cls, values) -> "StringColumn":
        """Build a column from an iterable of ``str``/``bytes`` values."""
        parts = [as_bytes(v) for v in values]
        offsets = np.zeros(len(parts) + 1, dtype=np.uint64)
        if parts:
            np.cumsum([len(p) for p in parts], out=offsets[1:])
        if int(offsets[-1]) > 0xFFFFFFFF:
            raise ValueError("string column arena exceeds 4 GiB")
        return cls(b"".join(parts), offsets.astype(np.uint32))

    @classmethod
    def empty(cls) -> "StringColumn":
        return cls(b"", _EMPTY_OFFSETS)

    @classmethod
    def concat(cls, columns) -> "StringColumn":
        """Concatenate columns row-wise (rebases offsets)."""
        columns = list(columns)
        if not columns:
            return cls.empty()
        if len(columns) == 1:
            return columns[0]
        arenas = []
        parts = [np.zeros(1, dtype=np.uint64)]
        base = 0
        for col in columns:
            arenas.append(col.arena)
            if len(col):
                parts.append(col.offsets[1:].astype(np.uint64) + base)
            base += len(col.arena)
        if base > 0xFFFFFFFF:
            raise ValueError("concatenated string arena exceeds 4 GiB")
        offsets = np.concatenate(parts).astype(np.uint32)
        return cls(b"".join(arenas), offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, StringColumn):
            return NotImplemented
        return (
            len(self) == len(other)
            and bool(np.array_equal(self.offsets, other.offsets))
            and self.arena == other.arena
        )

    def __hash__(self):
        return hash((self.arena, self.offsets.tobytes()))

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step != 1:
                raise ValueError("string column slices must be contiguous")
            return self.slice(start, stop)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("string column index out of range")
        return self.arena[int(self.offsets[i]):int(self.offsets[i + 1])]

    def slice(self, start: int, stop: int) -> "StringColumn":
        """Contiguous row range ``[start, stop)`` as a new column."""
        if stop < start:
            raise ValueError("slice stop must be >= start")
        o = self.offsets[start:stop + 1]
        base = int(o[0])
        return StringColumn(
            self.arena[base:int(o[-1])], (o - np.uint32(base))
        )

    def take(self, indices) -> "StringColumn":
        """Gather rows by index (vectorized; the sort permutation path)."""
        idx = np.asarray(indices, dtype=np.int64)
        offs = self.offsets.astype(np.int64)
        starts = offs[idx]
        lens = offs[idx + 1] - starts
        new_offs = np.zeros(idx.size + 1, dtype=np.int64)
        if idx.size:
            np.cumsum(lens, out=new_offs[1:])
        total = int(new_offs[-1])
        if total == 0:
            return StringColumn(b"", new_offs.astype(np.uint32))
        flat = np.repeat(starts - new_offs[:-1], lens)
        flat += np.arange(total, dtype=np.int64)
        arena = np.frombuffer(self.arena, dtype=np.uint8)[flat].tobytes()
        return StringColumn(arena, new_offs.astype(np.uint32))

    def filter(self, mask) -> "StringColumn":
        """Keep rows where ``mask`` is true."""
        return self.take(np.flatnonzero(mask))

    def tolist(self) -> list:
        """Materialize every row as ``bytes``."""
        arena, offs = self.arena, self.offsets
        return [
            arena[int(offs[i]):int(offs[i + 1])] for i in range(len(self))
        ]

    def to_text_list(self) -> list:
        """Materialize every row as ``str`` (UTF-8)."""
        return [row.decode("utf-8") for row in self.tolist()]

    @property
    def nbytes(self) -> int:
        """In-memory footprint: arena bytes plus offset storage."""
        return len(self.arena) + self.offsets.nbytes

    # ---- wire / spill format: <u64 arena_len> offsets[u32 * (n+1)] arena

    def packed_size(self) -> int:
        return _ARENA_HEAD.size + self.offsets.nbytes + len(self.arena)

    def pack_into(self, buffer, offset: int = 0) -> int:
        """Serialize into ``buffer`` at ``offset``; returns the end offset."""
        _ARENA_HEAD.pack_into(buffer, offset, len(self.arena))
        offset += _ARENA_HEAD.size
        end = offset + self.offsets.nbytes
        buffer[offset:end] = self.offsets.tobytes()
        offset = end
        end = offset + len(self.arena)
        buffer[offset:end] = self.arena
        return end

    @classmethod
    def unpack_from(cls, buffer, n: int, offset: int = 0):
        """Deserialize an ``n``-row column; returns ``(column, end)``.

        The arena is copied out of ``buffer`` (wire buffers are reused
        ring segments, so zero-copy would alias live transport memory).
        Raises :class:`ValueError` on bytes :meth:`pack_into` cannot have
        written: ``buffer`` must hold the header, the ``n + 1`` offsets
        and the arena, and the offsets must start at 0, never decrease
        and end at the arena length.
        """
        start = offset + _ARENA_HEAD.size
        stop = start + 4 * (n + 1)
        if n < 0 or offset < 0 or stop > len(buffer):
            raise ValueError(
                f"string column of {n} rows overruns its "
                f"{len(buffer) - offset}-byte buffer"
            )
        (arena_len,) = _ARENA_HEAD.unpack_from(buffer, offset)
        end = stop + arena_len
        if end > len(buffer):
            raise ValueError(
                f"string column arena of {arena_len} bytes overruns its "
                f"{len(buffer) - stop}-byte buffer"
            )
        offsets = np.frombuffer(bytes(buffer[start:stop]), dtype=np.uint32)
        if (
            offsets[0] != 0
            or offsets[-1] != arena_len
            or bool(np.any(offsets[1:] < offsets[:-1]))
        ):
            raise ValueError(
                f"string column offsets must rise from 0 to the arena "
                f"length {arena_len}"
            )
        return cls(bytes(buffer[stop:end]), offsets), end

    def __repr__(self):
        return f"StringColumn(n={len(self)}, arena={len(self.arena)}B)"


class StringDictionary:
    """Order-preserving dictionary: sorted distinct values -> dense codes.

    ``code(a) < code(b)``  iff  ``a < b`` (bytewise), so every integer
    engine in the repo sorts/groups dictionary codes exactly as it would
    the strings themselves — that equivalence is what lets string plans
    ride the columnar, parallel, and budgeted paths byte-identically.
    """

    __slots__ = ("values", "_index")

    def __init__(self, values):
        vals = sorted({as_bytes(v) for v in values})
        self.values = vals
        self._index = {v: i for i, v in enumerate(vals)}

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value) -> bool:
        return as_bytes(value) in self._index

    def code(self, value) -> int:
        """Code of ``value``, or ``-1`` when absent (matches nothing:
        valid codes are dense non-negatives)."""
        return self._index.get(as_bytes(value), -1)

    def encode(self, values):
        """Encode an iterable of values to an ``int64`` code array."""
        index = self._index
        codes = []
        for v in values:
            try:
                codes.append(index[as_bytes(v)])
            except KeyError:
                raise KeyError(
                    f"value {v!r} not in dictionary ({len(index)} entries)"
                ) from None
        return np.array(codes, dtype=np.int64)

    def decode(self, code: int) -> bytes:
        return self.values[code]

    def decode_text(self, code: int) -> str:
        return self.values[code].decode("utf-8")

    def decode_column(self, codes) -> StringColumn:
        """Decode a code array back to a :class:`StringColumn`."""
        return self.column().take(np.asarray(codes, dtype=np.int64))

    def column(self) -> StringColumn:
        """The sorted distinct values as a column (row ``i`` = code ``i``)."""
        return StringColumn.from_values(self.values)

    def prefix_range(self, prefix):
        """Half-open code range ``[lo, hi)`` of values starting with
        ``prefix``; empty range when no value matches."""
        p = as_bytes(prefix)
        lo = bisect_left(self.values, p)
        trimmed = p.rstrip(b"\xff")
        if not trimmed:
            hi = len(self.values)
        else:
            successor = trimmed[:-1] + bytes([trimmed[-1] + 1])
            hi = bisect_left(self.values, successor)
        return lo, hi

    def __repr__(self):
        return f"StringDictionary(n={len(self.values)})"
