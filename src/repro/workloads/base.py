"""Shared dataset container for workload simulators.

A :class:`Dataset` is a stream materialized in *processing-time order*: the
i-th entry is the i-th event to reach the engine, carrying its (possibly
much earlier) event time plus the four-integer payload the paper's
evaluation uses.  It is stored once, as ``int64`` columns: columnar
consumers slice them through :meth:`Dataset.columns`; row consumers read
:meth:`Dataset.events` or the ``timestamps`` / ``keys`` / ``payloads``
sequences, which are converted to Python ints from the columns on demand.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.engine.event import Event

__all__ = ["Dataset"]

#: Rows converted to Python objects at a time by the row readers.
_ROW_CHUNK = 8192


def _int64(values, what, ndim):
    """``values`` as a read-only int64 array, or raise ``ValueError``."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nested sequences
        raise ValueError(f"{what} are ragged: {exc}") from exc
    if arr.size:
        if arr.dtype.kind not in "iu":
            raise ValueError(
                f"{what} must be integers, got dtype {arr.dtype}"
            )
    elif arr.ndim < ndim:  # an empty list carries no arity
        arr = arr.reshape((0,) * ndim)
    if arr.ndim != ndim:
        raise ValueError(
            f"{what} must be {ndim}-dimensional, got shape {arr.shape}"
        )
    arr = arr.astype(np.int64, copy=False).view()
    arr.flags.writeable = False
    return arr


def _row_objects(block):
    """A column as Python ints, or a payload block as tuples of them."""
    if block.ndim == 1:
        return block.tolist()
    if not len(block):
        return [()] * block.shape[1]
    return list(zip(*block.tolist()))


class _Rows(Sequence):
    """Python-object view of dataset columns: ints, or tuples of ints.

    ``block`` is one column (1-D) or the payload block (2-D, one row per
    payload column).  Elements are produced from the columns when read —
    nothing per event is stored.  Compares equal to any sequence with
    the same elements; ``np.asarray`` gets the column (or the
    ``(n, arity)`` payload matrix) without a per-element loop.
    """

    __slots__ = ("_block",)

    def __init__(self, block):
        self._block = block

    def __len__(self):
        return self._block.shape[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _row_objects(self._block[..., index])
        item = self._block[..., index].tolist()
        return item if self._block.ndim == 1 else tuple(item)

    def __iter__(self):
        for start in range(0, len(self), _ROW_CHUNK):
            yield from _row_objects(
                self._block[..., start:start + _ROW_CHUNK]
            )

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and self[:] == list(other)

    __hash__ = None

    def __array__(self, dtype=None, copy=None):
        arr = self._block.T
        if dtype is not None and arr.dtype != dtype:
            return arr.astype(dtype)
        return arr.copy() if copy else arr

    def __repr__(self):
        return f"<{len(self)} rows of {self._block.dtype} columns>"


class Dataset:
    """An out-of-order stream in arrival order, stored as int64 columns.

    Parameters
    ----------
    name:
        Workload name (``"synthetic"``, ``"cloudlog"``, ``"androidlog"``).
    timestamps:
        Event times, indexed by arrival position.
    payloads:
        Parallel payload rows — a sequence of equal-length int tuples or
        an ``(n, arity)`` integer array; four cheap deterministic fields
        derived from the arrival index when omitted.
    keys:
        Parallel 32-bit grouping keys (e.g. user or ad ids); arrival
        index modulo 100 when omitted.
    params:
        The generator parameters, for provenance in reports.

    Input is validated once, here: non-integer, ragged or non-parallel
    input raises ``ValueError``, so every reader can trust the columns.
    ``string_payloads`` and ``key_dictionary`` are set by the
    string-keyed workload variants (:mod:`repro.workloads.strings`).
    """

    def __init__(self, name, timestamps, payloads=None, keys=None,
                 params=None):
        self.name = name
        self.params = {} if params is None else params
        self.string_payloads = None
        self.key_dictionary = None
        self._ts = _int64(timestamps, "timestamps", 1)
        n = self._ts.size
        if payloads is None or keys is None:
            # Deterministic cheap defaults: derived from arrival index.
            index = np.arange(n, dtype=np.int64)
            if keys is None:
                keys = index % 100
            if payloads is None:
                payloads = np.stack(
                    [index & 0xFFFF, (index * 31) & 0xFFFF,
                     (index * 17) & 0xFF, index & 0xFF]
                ).T
        self._keys = _int64(keys, "keys", 1)
        rows = _int64(payloads, "payloads", 2)
        if len(rows) != n or self._keys.size != n:
            raise ValueError("timestamps, payloads and keys must be parallel")
        # One contiguous array per payload column; a block handed over in
        # that layout already (head(), the row views) is kept as is.
        cols = rows.T
        if n > 1 and cols.strides[1] != cols.itemsize:
            cols = np.ascontiguousarray(cols)
            cols.flags.writeable = False
        self._cols = cols

    def __len__(self) -> int:
        return len(self._ts)

    def __repr__(self):
        return (
            f"Dataset(name={self.name!r}, n={len(self)}, "
            f"params={self.params!r})"
        )

    def columns(self, start, stop):
        """Rows ``start:stop`` as ``(sync, keys, payload_columns)``.

        Read-only int64 views of the stored columns — no copy and no
        Python object per event; every columnar reader goes through here.
        """
        return (
            self._ts[start:stop],
            self._keys[start:stop],
            list(self._cols[:, start:stop]),
        )

    @property
    def timestamps(self):
        """Event times as a sequence of Python ints."""
        return _Rows(self._ts)

    @property
    def keys(self):
        """Grouping keys as a sequence of Python ints."""
        return _Rows(self._keys)

    @property
    def payloads(self):
        """Payload rows as a sequence of tuples of Python ints."""
        return _Rows(self._cols)

    def events(self):
        """Yield :class:`repro.engine.event.Event` in arrival order."""
        for ts, key, payload in zip(
            self.timestamps, self.keys, self.payloads
        ):
            yield Event(ts, ts + 1, key, payload)

    def head(self, n: int) -> "Dataset":
        """A prefix of the stream (same arrival order), for scaled runs.

        Shares the parent's columns.
        """
        return Dataset(
            name=self.name,
            timestamps=self._ts[:n],
            payloads=self._cols[:, :n].T,
            keys=self._keys[:n],
            params={**self.params, "head": n},
        )

    @property
    def span(self):
        """(min, max) event time of the stream."""
        return int(self._ts.min()), int(self._ts.max())
