"""Columnar event batches (Trill's columnar batching, Section I-A).

Trill's order-of-magnitude throughput comes from processing events in
columnar batches with bitmap filtering.  This module provides the
numpy-backed equivalent: a :class:`EventBatch` holds parallel arrays for
sync/other times, keys, and payload columns, plus a validity bitmap —
selection marks bits instead of moving data (which is why Figure 9(a)'s
speedup is sub-linear in selectivity: the sorter still scans the bitmap).

Batches are used by the batch ingress path and by the columnar variants of
the order-insensitive operators; the row-oriented operator pipeline remains
the reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.strings import StringColumn
from repro.engine.event import Event

__all__ = ["EventBatch", "iter_batches"]


class EventBatch:
    """A fixed set of events in columnar layout with a validity bitmap.

    Besides the three fixed ``int64`` columns and the ``int64`` payload
    columns, a batch may carry *string* payload columns
    (:class:`~repro.core.strings.StringColumn`, arena + offsets).  They
    ride through bitmap selection for free, are gathered on
    :meth:`compact`, and spill inside the external sorter's blocks —
    never pickled.  The parallel shard workers carry only int64
    columns and refuse a batch with string columns.  Sort/group
    semantics on strings lower to int64 dictionary codes (see
    :mod:`repro.core.strings`), so string columns here are payload
    data, not a fourth key column.
    """

    __slots__ = ("sync_times", "other_times", "keys", "payload_columns",
                 "valid", "string_columns")

    def __init__(self, sync_times, other_times, keys, payload_columns,
                 valid=None, string_columns=()):
        self.sync_times = np.asarray(sync_times, dtype=np.int64)
        n = len(self.sync_times)
        self.other_times = np.asarray(other_times, dtype=np.int64)
        self.keys = np.asarray(keys, dtype=np.int64)
        self.payload_columns = [
            np.asarray(col, dtype=np.int64) for col in payload_columns
        ]
        self.valid = (
            np.ones(n, dtype=bool) if valid is None
            else np.asarray(valid, dtype=bool)
        )
        self.string_columns = [
            col if isinstance(col, StringColumn)
            else StringColumn.from_values(col)
            for col in string_columns
        ]
        for name, length in (
            ("other_times", len(self.other_times)),
            ("keys", len(self.keys)),
            *(
                (f"payload_columns[{c}]", len(col))
                for c, col in enumerate(self.payload_columns)
            ),
            *(
                (f"string_columns[{c}]", len(col))
                for c, col in enumerate(self.string_columns)
            ),
            ("valid", len(self.valid)),
        ):
            if length != n:
                raise ValueError(
                    f"batch column {name!r} has length {length}, expected "
                    f"{n} (the length of 'sync_times')"
                )

    @classmethod
    def from_dataset(cls, dataset) -> "EventBatch":
        """A workload dataset as one batch (arrival order preserved).

        The batch's columns are views of the dataset's own.  Datasets
        with ``string_payloads`` (string-keyed workload variants) get
        matching :class:`StringColumn` payloads.
        """
        sync, keys, columns = dataset.columns(0, len(dataset))
        return cls(
            sync, sync + 1, keys, columns,
            string_columns=dataset.string_payloads or (),
        )

    def __len__(self) -> int:
        return len(self.sync_times)

    @property
    def valid_count(self) -> int:
        """Number of events whose bitmap bit is still set."""
        return int(self.valid.sum())

    # -- order-insensitive columnar operators -----------------------------

    def filter(self, mask) -> "EventBatch":
        """Selection: clear bitmap bits; no data movement (Trill-style)."""
        mask = np.asarray(mask, dtype=bool)
        return EventBatch(
            self.sync_times, self.other_times, self.keys,
            self.payload_columns, self.valid & mask, self.string_columns,
        )

    def filter_payload(self, column, predicate) -> "EventBatch":
        """Selection on one payload column via a vectorized predicate."""
        return self.filter(predicate(self.payload_columns[column]))

    def project(self, columns) -> "EventBatch":
        """Projection: keep only the given payload columns (string
        columns pass through untouched)."""
        return EventBatch(
            self.sync_times, self.other_times, self.keys,
            [self.payload_columns[c] for c in columns], self.valid,
            self.string_columns,
        )

    def tumbling_window(self, size) -> "EventBatch":
        """Vectorized window alignment of both timestamps."""
        if size < 1:
            raise ValueError("window size must be >= 1")
        start = self.sync_times - self.sync_times % size
        return EventBatch(
            start, start + size, self.keys, self.payload_columns, self.valid,
            self.string_columns,
        )

    def compact(self) -> "EventBatch":
        """Physically drop invalidated rows (done before expensive ops)."""
        if self.valid.all():
            return self
        idx = np.flatnonzero(self.valid)
        return EventBatch(
            self.sync_times[idx], self.other_times[idx], self.keys[idx],
            [col[idx] for col in self.payload_columns],
            string_columns=[col.take(idx) for col in self.string_columns],
        )

    # -- shared-memory wire format -----------------------------------------

    @staticmethod
    def packed_size(n, n_payload_columns) -> int:
        """Bytes :meth:`pack_into` writes for ``n`` rows: three fixed
        int64 columns, the payload columns, and one validity byte/row."""
        return 8 * n * (3 + n_payload_columns) + n

    def pack_into(self, buffer, offset=0) -> int:
        """Write the batch's columns contiguously into ``buffer``.

        Layout is column-major — ``sync | other | keys | payloads… |
        valid`` — so :meth:`unpack_from` can re-attach numpy views with
        no per-element work.  Returns the number of bytes written.  The
        row count and payload arity travel out of band (the exchange
        frame header carries them).
        """
        n = len(self.sync_times)
        view = memoryview(buffer)
        for col in (self.sync_times, self.other_times, self.keys,
                    *self.payload_columns):
            view[offset:offset + 8 * n] = np.ascontiguousarray(col).view(
                np.uint8
            ).reshape(-1)
            offset += 8 * n
        view[offset:offset + n] = self.valid.view(np.uint8).reshape(-1)
        return 8 * n * (3 + len(self.payload_columns)) + n

    @classmethod
    def unpack_from(cls, buffer, n, n_payload_columns, offset=0,
                    copy=False) -> "EventBatch":
        """Attach an :class:`EventBatch` over packed bytes.

        With ``copy=False`` the columns are zero-copy views into
        ``buffer`` — valid only while the underlying shared-memory
        segment stays mapped and the producer has not recycled the ring
        slot; pass ``copy=True`` to detach.
        """
        def column(i):
            arr = np.frombuffer(
                buffer, dtype=np.int64, count=n, offset=offset + 8 * n * i
            )
            return arr.copy() if copy else arr

        payloads = [column(3 + c) for c in range(n_payload_columns)]
        valid = np.frombuffer(
            buffer, dtype=np.uint8, count=n,
            offset=offset + 8 * n * (3 + n_payload_columns),
        ).view(np.bool_)
        return cls(
            column(0), column(1), column(2), payloads,
            valid.copy() if copy else valid,
        )

    # -- bridges to the row world -----------------------------------------

    def timestamps(self) -> list:
        """Valid sync_times as a Python list (sorter benchmark input)."""
        return self.sync_times[self.valid].tolist()

    def events(self):
        """Yield valid rows as :class:`Event` objects, arrival order.

        String payload columns materialize as ``bytes`` fields appended
        after the int payload fields, so the row engine sees every
        column the batch carries.
        """
        n_cols = len(self.payload_columns)
        s_cols = self.string_columns
        for i in np.flatnonzero(self.valid):
            payload = tuple(
                int(self.payload_columns[c][i]) for c in range(n_cols)
            ) + tuple(col[i] for col in s_cols)
            yield Event(
                int(self.sync_times[i]), int(self.other_times[i]),
                int(self.keys[i]), payload,
            )


def iter_batches(dataset, batch_size):
    """Yield a dataset as arrival-order :class:`EventBatch` slices.

    A :class:`~repro.workloads.base.Dataset` already stores int64
    columns, so each batch is ``batch_size``-row views of them plus a
    fresh ``other_times`` column (dataset events carry the point
    interval ``[t, t + 1)``): nothing is re-encoded and no Python object
    is built per event.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for start in range(0, len(dataset), batch_size):
        sync, keys, columns = dataset.columns(start, start + batch_size)
        yield EventBatch(sync, sync + 1, keys, columns)
