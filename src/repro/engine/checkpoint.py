"""Checkpoint / restore for the sorting operator's state.

Streaming deployments restart; a sorter holding minutes of buffered
events must survive the restart or the reorder buffer's worth of data is
lost.  Because Impatience sort's entire state is "a set of sorted runs
plus a watermark", its checkpoint is compact and structural — this module
serializes it to a plain dict (JSON-compatible for integer timestamps)
and restores a behaviourally identical sorter.

Only the scalar :class:`~repro.core.impatience.ImpatienceSorter` in
keyless mode (or with reconstructible items) is supported: items must be
representable in the checkpoint.  For keyed sorters over rich events,
checkpoint at ingress (store raw events) instead — that is what
:mod:`repro.resilience.supervisor` does for full pipelines.

Checkpointing is side-effect-free: the staged ingress batch is captured
as-is (format 2's ``pending`` field) rather than being force-partitioned
into the run pool, so taking a checkpoint never changes the live
sorter's subsequent behaviour or its run statistics.

The columnar sorter (:class:`~repro.core.columnar.ColumnarImpatienceSorter`,
at any memory budget) checkpoints as **format 4**: the buffered rows
are captured as one sorted columnar batch (timestamps + payload columns
+ string columns) plus the watermark.  Capture reads every buffered
row, spilled ones included, without consuming it, so the live sorter's
later cuts and spill metrics are unchanged.  Restore inserts the batch
*before* re-arming the watermark, so rows ADJUSTed onto the watermark
itself survive the round trip.  Older format-4 docs also carry a ``shard``
field; restore ignores it.

Bounded-memory sorters
(:class:`~repro.sorting.external.ExternalImpatienceSorter`, keyless)
checkpoint as **format 3**: the in-memory chunks and pending batch are
captured by value, while spilled runs are captured *by reference* — each
run file is hard-linked (copied when linking fails) into a
checkpoint-owned spill directory, pinning the immutable byte prefix
``[0, length)`` the run had at capture time.  Restore copies that prefix
into the restored sorter's own directory, so any number of restores from
one checkpoint are independent and the original sorter's cleanup cannot
invalidate the checkpoint.  Format-3 checkpoints therefore hold a live
directory handle and are in-process objects, not JSON documents; call
:func:`release_checkpoint` (or drop the last reference) when done.
"""

from __future__ import annotations

import numbers
import os
import shutil

import numpy as np

from repro.core.errors import CheckpointError
from repro.core.impatience import ImpatienceSorter
from repro.core.late import LatePolicy
from repro.core.merge import MERGE_STRATEGIES
from repro.core.runs import SortedRun
from repro.core.strings import StringColumn

__all__ = ["checkpoint_sorter", "release_checkpoint", "restore_sorter"]

#: Checkpoint formats: 2 the in-memory sorter's, 3 the bounded-memory
#: external sorter's spill-referencing one, 4 the columnar sorter's.
_FORMAT = 2
_FORMAT_EXTERNAL = 3
_FORMAT_COLUMNAR = 4
_ACCEPTED_FORMATS = (2, 3, 4)

_KEYED_MESSAGE = (
    "only keyless sorters are checkpointable; checkpoint raw "
    "events at ingress for keyed sorters"
)


def _field(state, name):
    """``state[name]``, or :class:`CheckpointError` naming the field."""
    try:
        return state[name]
    except KeyError:
        raise CheckpointError(
            f"checkpoint lacks the {name!r} field"
        ) from None


def _late_policy(state):
    value = _field(state, "late_policy")
    try:
        return LatePolicy(value)
    except ValueError:
        raise CheckpointError(
            f"checkpoint field 'late_policy' is no late policy: {value!r}"
        ) from None


def _watermark(state, kind=numbers.Real):
    """The ``watermark`` field: ``None`` or a non-bool ``kind`` number."""
    value = _field(state, "watermark")
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, kind)
    ):
        raise CheckpointError(
            f"checkpoint field 'watermark' is no "
            f"{'integer' if kind is numbers.Integral else 'number'}: "
            f"{value!r}"
        )
    return value


def checkpoint_sorter(sorter) -> dict:
    """Snapshot a sorter's durable state as a plain dict.

    Captures the live runs (head-compacted), the pending ingress batch,
    the watermark, and the late-policy configuration.  Statistics are
    intentionally excluded — they are observability, not state.  The
    live sorter's later output is unchanged.  An
    :class:`~repro.sorting.external.ExternalImpatienceSorter` produces
    a format-3 checkpoint referencing its spilled run files; columnar
    sorters produce format 4.
    """
    from repro.core.columnar import ColumnarImpatienceSorter
    from repro.sorting.external import ExternalImpatienceSorter

    if isinstance(sorter, ColumnarImpatienceSorter):
        return _checkpoint_columnar(sorter)
    if isinstance(sorter, ExternalImpatienceSorter):
        return _checkpoint_external(sorter)
    if sorter.key is not None:
        raise CheckpointError(_KEYED_MESSAGE)
    runs = [run.live()[0] for run in sorter._pool.runs]
    watermark = sorter.watermark
    return {
        "format": _FORMAT,
        "runs": runs,
        "pending": list(sorter._pending_keys),
        "watermark": None if watermark == float("-inf") else watermark,
        "late_policy": sorter.late.policy.value,
        "merge": sorter.merge,
        "huffman_merge": sorter.merge == "huffman",
        "speculative": sorter._pool.speculative,
    }


def restore_sorter(state: dict, memory_budget=None):
    """Rebuild a sorter from :func:`checkpoint_sorter` output.

    The restored sorter emits exactly what the original would have for
    any subsequent input (behavioural equivalence is property-tested).
    ``memory_budget`` applies to format-4 checkpoints only: the
    restored columnar sorter's resident-buffer budget.
    """
    if state.get("format") not in _ACCEPTED_FORMATS:
        raise CheckpointError(
            f"unsupported checkpoint format {state.get('format')!r}"
        )
    if state["format"] == _FORMAT_COLUMNAR:
        return _restore_columnar(state, memory_budget)
    if state["format"] == _FORMAT_EXTERNAL:
        return _restore_external(state)
    huffman_merge = _field(state, "huffman_merge")
    merge = _field(state, "merge")
    if merge not in MERGE_STRATEGIES:
        raise CheckpointError(
            f"checkpoint field 'merge' names no merge strategy: {merge!r}; "
            f"expected one of {sorted(MERGE_STRATEGIES)}"
        )
    sorter = ImpatienceSorter(
        huffman_merge=huffman_merge,
        merge=merge,
        speculative=_field(state, "speculative"),
        late_policy=_late_policy(state),
    )
    pool = sorter._pool
    try:
        for keys in _field(state, "runs"):
            if not keys:
                raise CheckpointError("checkpoint contains an empty run")
            if any(b < a for a, b in zip(keys, keys[1:])):
                raise CheckpointError("checkpoint run is not ascending")
            run = SortedRun(keyless=True)
            run.keys.extend(keys)
            pool.runs.append(run)
            pool.tails.append(keys[-1])
            sorter.stats.inserted += len(keys)
        if any(
            a <= b for a, b in zip(pool.tails, pool.tails[1:])
        ):
            raise CheckpointError(
                "checkpoint runs violate the tails invariant"
            )
    except TypeError as exc:
        raise CheckpointError(
            f"checkpoint field 'runs' is not lists of comparable keys: "
            f"{exc}"
        ) from None
    if pool.neg_tails is not None:
        # The rebuilt tails bypassed insert(); re-derive the negated
        # mirror (non-negatable keys demote the pool to binary search).
        try:
            pool.neg_tails = [-tail for tail in pool.tails]
        except TypeError:
            pool.neg_tails = None
    watermark = _watermark(state)
    if watermark is not None:
        sorter._watermark = watermark
        sorter._has_watermark = True
    # The staged ingress batch re-enters as a staged batch, preserving
    # the original's partition timing.
    pending = _field(state, "pending")
    if not isinstance(pending, list):
        raise CheckpointError(
            f"checkpoint field 'pending' is not a list of keys: {pending!r}"
        )
    if pending:
        try:
            # min() compares every key with another: mixed types fail.
            min(pending + pool.tails[:1]
                + ([] if watermark is None else [watermark]))
        except TypeError as exc:
            raise CheckpointError(
                f"checkpoint field 'pending' holds keys that do not "
                f"compare with the sorter's: {exc}"
            ) from None
    sorter._pending_keys.extend(pending)
    sorter.stats.inserted += len(pending)
    sorter.stats.note_buffered()
    return sorter


# -- format 4: columnar sorters ------------------------------------------


def _checkpoint_columnar(sorter) -> dict:
    """Format-4 checkpoint: buffered rows as one sorted columnar batch.

    The pool is read whole (spilled runs included) without consuming
    it, so the live sorter and its spill files and metrics are untouched.
    """
    ts, cols, _, scols = sorter.pool.peek()
    watermark = sorter.watermark
    return {
        "format": _FORMAT_COLUMNAR,
        "columns": sorter.columns,
        "string_columns": sorter.string_columns,
        "ts": ts,
        "cols": list(cols),
        "scols": list(scols),
        "watermark": None if watermark == float("-inf") else watermark,
        "late_policy": sorter.late.policy.value,
    }


def _restore_columnar(state, memory_budget=None):
    """Rebuild a columnar sorter from a format-4 checkpoint.

    Rows are inserted *before* the watermark is re-armed: a buffered
    row ADJUSTed onto the watermark itself (``ts == watermark``) must
    not be re-classified as late on restore.
    """
    from repro.core.columnar import ColumnarImpatienceSorter

    late_policy = _late_policy(state)
    ts = _int_column(_field(state, "ts"), "ts")
    if np.any(ts[1:] < ts[:-1]):
        raise CheckpointError("checkpoint batch is not ascending")
    cols = _columns(state, "cols", "columns")
    cols = tuple(_int_column(col, "cols", ts.size) for col in cols)
    scols = _columns(state, "scols", "string_columns")
    if any(
        not isinstance(col, StringColumn) or len(col) != ts.size
        for col in scols
    ):
        raise CheckpointError(
            f"checkpoint field 'scols' is not {ts.size}-row string columns"
        )
    watermark = _watermark(state, numbers.Integral)
    sorter = ColumnarImpatienceSorter(
        late_policy=late_policy, columns=len(cols),
        string_columns=len(scols), memory_budget=memory_budget,
    )
    if ts.size:
        sorter.insert_batch(ts, cols, tuple(scols))
    if watermark is not None:
        sorter._watermark = watermark
        sorter._has_watermark = True
    return sorter


def _int_column(value, name, size=None):
    """``value`` as a 1-D int64 array (of ``size`` rows, if given)."""
    error = CheckpointError(
        f"checkpoint field {name!r} is not "
        f"{'an' if size is None else f'a {size}-row'} integer column"
    )
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise error from None
    if arr.size == 0 and arr.ndim == 1:
        arr = arr.astype(np.int64)
    if arr.ndim != 1 or arr.dtype.kind != "i" or (
        size is not None and arr.size != size
    ):
        raise error
    return arr.astype(np.int64, copy=False)


def _columns(state, name, count_name):
    """``state[name]``: a list of as many columns as ``state[count_name]``."""
    count = _field(state, count_name)
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) \
            or count < 0:
        raise CheckpointError(
            f"checkpoint field {count_name!r} is no column count: "
            f"{count!r}"
        )
    columns = _field(state, name)
    if not isinstance(columns, (list, tuple)) or len(columns) != count:
        raise CheckpointError(
            f"checkpoint field {name!r} does not hold {count} columns"
        )
    return columns


# -- format 3: bounded-memory external sorter ---------------------------


def _checkpoint_external(sorter) -> dict:
    """Format-3 checkpoint: chunks by value, spilled runs by reference."""
    from repro.sorting.external import SpillDirectory

    if sorter.keyed:
        raise CheckpointError(_KEYED_MESSAGE)
    pool = sorter.pool
    directory = SpillDirectory()
    runs = []
    for run in pool.runs:
        pinned = directory.file_path(run.name)
        try:
            # Hard-linking pins the immutable prefix [0, length) for
            # free: later appends grow the shared inode past `length`,
            # which restore never reads.
            os.link(run.path, pinned)
        except OSError:
            shutil.copyfile(run.path, pinned)
        runs.append({
            "name": run.name,
            "length": run.length,
            "read_offset": run.read_offset,
            "row_skip": run.row_skip,
            "tail_key": run.tail_key,
            "closed": run.closed,
            "rows": run.rows,
        })
    watermark = sorter.watermark
    return {
        "format": _FORMAT_EXTERNAL,
        "external": {
            "budget": pool.budget,
            "directory": directory,
            "runs": runs,
            "run_seq": pool._run_seq,
            "chunks": [
                keys.tolist() for keys, *_rest in pool._chunks
            ],
        },
        "pending": list(sorter._pending_keys),
        "watermark": None if watermark == float("-inf") else watermark,
        "late_policy": sorter.late.policy.value,
    }


def _restore_external(state):
    """Rebuild an external sorter from a format-3 checkpoint.

    Every referenced run prefix is *copied* into the restored sorter's
    own spill directory, so twins restored from one checkpoint never
    share writable files and the checkpoint survives them all.
    """
    from repro.sorting.external import ExternalImpatienceSorter, _RunFile

    ext = state["external"]
    directory = ext["directory"]
    if not directory.alive:
        raise CheckpointError(
            "checkpoint spill directory was already released"
        )
    sorter = ExternalImpatienceSorter(
        ext["budget"], late_policy=_late_policy(state),
    )
    try:
        pool = sorter.pool
        for doc in ext["runs"]:
            source = directory.file_path(doc["name"])
            target = pool.directory.file_path(doc["name"])
            _copy_prefix(source, target, doc["length"])
            run = _RunFile.reopen(target, pool.metrics)
            run.length = doc["length"]
            run.read_offset = doc["read_offset"]
            run.row_skip = doc["row_skip"]
            run.tail_key = doc["tail_key"]
            run.closed = doc["closed"]
            run.rows = doc["rows"]
            pool._runs.append(run)
            pool.metrics.runs_spilled += 1
            pool.metrics.run_bytes[run.name] = \
                doc["rows"] * pool.bytes_per_row
            sorter.stats.inserted += doc["rows"]
        pool._run_seq = ext["run_seq"]
        for keys in ext["chunks"]:
            if not keys:
                raise CheckpointError("checkpoint contains an empty run")
            arr = np.asarray(keys, dtype=np.int64)
            if np.any(arr[1:] < arr[:-1]):
                raise CheckpointError("checkpoint run is not ascending")
            pool._chunks.append((arr, (), None, ()))
            pool._rows += int(arr.size)
            sorter.stats.inserted += int(arr.size)
        pool.metrics.note_buffered(pool.buffered_bytes)
        if state["watermark"] is not None:
            sorter._watermark = state["watermark"]
            sorter._has_watermark = True
        pending = state.get("pending") or []
        sorter._pending_keys.extend(pending)
        sorter.stats.inserted += len(pending)
        sorter.stats.note_buffered()
    except BaseException:
        sorter.close()
        raise
    return sorter


def _copy_prefix(source, target, length):
    """Copy exactly the first ``length`` bytes of ``source``."""
    remaining = int(length)
    try:
        with open(source, "rb") as fin, open(target, "wb") as fout:
            while remaining > 0:
                chunk = fin.read(min(1 << 20, remaining))
                if not chunk:
                    break
                fout.write(chunk)
                remaining -= len(chunk)
    except OSError as exc:
        raise CheckpointError(
            f"cannot restore spilled run {source}: {exc}"
        ) from exc
    if remaining:
        raise CheckpointError(
            f"checkpointed run {source} is shorter than its recorded "
            f"length ({remaining} bytes missing)"
        )


def release_checkpoint(state):
    """Free any on-disk resources a checkpoint holds (format 3's pinned
    run files); a no-op for value-only formats and ``None``."""
    if not state:
        return
    external = state.get("external")
    if external:
        external["directory"].cleanup()
