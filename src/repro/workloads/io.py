"""Dataset persistence: CSV export/import.

Lets a generated workload be inspected with external tools, pinned for
regression runs, or replaced by a real log exported from another system
(the adoption path: drop in your own ``event_time,key,p0..p3`` rows and
every benchmark and example runs against your data).

Malformed files raise :class:`~repro.core.errors.DatasetFormatError`
carrying the path and 1-based row number; ``lenient=True`` skips (and
counts) bad rows instead, for hostile production feeds.
"""

from __future__ import annotations

import csv

import numpy as np

from repro.core.errors import DatasetFormatError
from repro.workloads.base import Dataset

__all__ = ["save_dataset_csv", "load_dataset_csv"]

_HEADER_PREFIX = ["event_time", "key"]
_INT64 = np.iinfo(np.int64)
#: Rows converted to Python ints and written at a time.
_WRITE_CHUNK = 8192


def save_dataset_csv(dataset, path):
    """Write a dataset in arrival order as CSV with a header row."""
    _, _, columns = dataset.columns(0, 0)
    header = _HEADER_PREFIX + [f"p{i}" for i in range(len(columns))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(dataset), _WRITE_CHUNK):
            sync, keys, columns = dataset.columns(
                start, start + _WRITE_CHUNK
            )
            writer.writerows(zip(
                sync.tolist(), keys.tolist(),
                *(column.tolist() for column in columns),
            ))
    return path


def load_dataset_csv(path, name=None, lenient=False):
    """Read a dataset written by :func:`save_dataset_csv` (or hand-made).

    The file must carry an ``event_time`` column; ``key`` and any number
    of payload columns are optional (missing ones are defaulted the same
    way :class:`~repro.workloads.base.Dataset` defaults them).  The
    header fixes the column count: every row must have one 64-bit
    integer per header field.

    A row that fails to parse raises
    :class:`~repro.core.errors.DatasetFormatError` with the path and
    1-based row number (the header is row 1).  With ``lenient=True``
    bad rows are skipped instead and counted into the returned dataset's
    ``params["skipped_rows"]``.
    """
    skipped = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "event_time":
            raise DatasetFormatError(
                path,
                f"expected a header starting with 'event_time', "
                f"got {header!r}",
                row=1,
            )
        has_key = len(header) > 1 and header[1] == "key"
        columns = [[] for _ in header]
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(
                        f"expected {len(header)} fields, got {len(row)}"
                    )
                values = [int(v) for v in row]
                if min(values) < _INT64.min or max(values) > _INT64.max:
                    raise ValueError("value does not fit in 64 bits")
            except ValueError as exc:
                if lenient:
                    skipped += 1
                    continue
                raise DatasetFormatError(
                    path, f"cannot parse row {row!r}: {exc}", row=row_number
                ) from exc
            for column, value in zip(columns, values):
                column.append(value)
    params = {"source": str(path)}
    if lenient:
        params["skipped_rows"] = skipped
    payload_columns = columns[2 if has_key else 1:]
    return Dataset(
        name=name or "csv",
        timestamps=columns[0],
        # One int64 block, a row per payload column: the layout Dataset
        # keeps, so it is adopted without a copy.
        payloads=(
            np.array(payload_columns, dtype=np.int64).T
            if payload_columns else None
        ),
        keys=columns[1] if has_key else None,
        params=params,
    )
