"""Frame vocabulary of the coordinator <-> worker exchange.

Everything crossing a :class:`~repro.parallel.shm.ShmRing` is one of the
frame kinds below.  Data-plane frames (``DATA``) carry
:class:`~repro.engine.batch.EventBatch` columns packed column-major so
the receiver re-attaches numpy views without touching individual events;
control-plane frames (punctuations, acks, flush/done markers) are small
fixed structs; the escape hatches (``PICKLE``, ``STATS``, ``ERROR``)
carry pickled python objects for row-shaped outputs, metrics
dictionaries, and forwarded exceptions.

Coordinator -> worker:   (DATA | PICKLE)* PUNCT  …  FLUSH
Worker -> coordinator:   (DATA | FDATA | PICKLE | OUTPUNCT)* ACK  …
                         FLUSH STATS DONE
                         ERROR at any point (fatal, pickled exception)

The ``ACK`` after each input punctuation round carries the ingress
journal offset the round closed at, which a
:class:`~repro.core.errors.WorkerCrashError` reports for a dead worker.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

from repro.engine.batch import EventBatch

__all__ = [
    "DATA", "PUNCT", "OUTPUNCT", "ACK", "FLUSH", "PICKLE", "STATS",
    "DONE", "ERROR", "FDATA", "KIND_NAMES",
    "write_batch", "read_batch", "write_pickled", "read_pickled",
    "write_float_batch", "read_float_batch",
]

DATA = 1        # packed EventBatch:  u32 n | u32 n_payload_cols | columns
PUNCT = 2       # ingress punctuation: i64 ts | i64 round | i64 journal_off
OUTPUNCT = 3    # worker-emitted punctuation: i64 ts
ACK = 4         # round processed:    i64 round | i64 journal_off
FLUSH = 5       # end of ingress stream (no payload)
PICKLE = 6      # pickled list of output elements (row-shaped plans)
STATS = 7       # pickled worker metrics dict
DONE = 8        # clean worker shutdown (no payload)
ERROR = 9       # pickled exception (fatal)
FDATA = 10      # float-valued rows: u32 n | sync i64[n] | other i64[n]
                #                    | key i64[n] | value f64[n]

KIND_NAMES = {
    DATA: "DATA", PUNCT: "PUNCT", OUTPUNCT: "OUTPUNCT", ACK: "ACK",
    FLUSH: "FLUSH", PICKLE: "PICKLE", STATS: "STATS", DONE: "DONE",
    ERROR: "ERROR", FDATA: "FDATA",
}

_BATCH_HEAD = struct.Struct("<II")
_FBATCH_HEAD = struct.Struct("<I")
PUNCT_STRUCT = struct.Struct("<qqq")
ACK_STRUCT = struct.Struct("<qq")
OUTPUNCT_STRUCT = struct.Struct("<q")


def write_batch(ring, batch, pump=None, alive=None) -> None:
    """Enqueue an :class:`EventBatch` as one DATA frame, packing the
    columns straight into the ring's mapped memory (single copy)."""
    n = len(batch)
    n_cols = len(batch.payload_columns)
    size = _BATCH_HEAD.size + EventBatch.packed_size(n, n_cols)

    def fill(view):
        _BATCH_HEAD.pack_into(view, 0, n, n_cols)
        batch.pack_into(view, _BATCH_HEAD.size)

    ring.write(DATA, reserve=(size, fill), pump=pump, alive=alive)


def read_batch(payload, copy=False) -> EventBatch:
    """Attach an :class:`EventBatch` over a DATA frame's payload view."""
    n, n_cols = _BATCH_HEAD.unpack_from(payload, 0)
    return EventBatch.unpack_from(
        payload, n, n_cols, offset=_BATCH_HEAD.size, copy=copy
    )


def write_float_batch(ring, sync, other, keys, values, pump=None,
                      alive=None) -> None:
    """Enqueue float-valued output rows as one FDATA frame.

    Native float64 columns over the wire: the exact avg-aggregate hot
    path that used to ride pickled element lists.  ``values`` round-trip
    bit-exactly (IEEE doubles both sides)."""
    n = int(sync.size)
    size = _FBATCH_HEAD.size + 8 * 4 * n

    def fill(view):
        _FBATCH_HEAD.pack_into(view, 0, n)
        offset = _FBATCH_HEAD.size
        for column, dtype in (
            (sync, np.int64), (other, np.int64),
            (keys, np.int64), (values, np.float64),
        ):
            out = np.frombuffer(view, dtype=dtype, count=n, offset=offset)
            out[:] = column
            offset += 8 * n

    ring.write(FDATA, reserve=(size, fill), pump=pump, alive=alive)


def read_float_batch(payload):
    """Decode an FDATA frame into ``(sync, other, keys, values)`` arrays
    (copied out of the ring slot)."""
    (n,) = _FBATCH_HEAD.unpack_from(payload, 0)
    offset = _FBATCH_HEAD.size
    columns = []
    for dtype in (np.int64, np.int64, np.int64, np.float64):
        columns.append(
            np.frombuffer(payload, dtype=dtype, count=n, offset=offset)
            .copy()
        )
        offset += 8 * n
    return tuple(columns)


def write_pickled(ring, kind, obj, pump=None, alive=None) -> None:
    """Enqueue a pickled object frame (PICKLE / STATS / ERROR)."""
    ring.write(kind, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
               pump=pump, alive=alive)


def read_pickled(payload):
    """Decode a pickled frame payload (copies out of the ring first)."""
    return pickle.loads(bytes(payload))
