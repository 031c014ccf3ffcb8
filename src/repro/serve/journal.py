"""Durable per-tenant ingress journal and service state for ``repro serve``.

The service's crash-recovery contract is *replay, then verify*: every
accepted ingress element is appended to a per-tenant journal **before**
it is pushed into any standing-query pipeline.  A killed server restarts
by replaying each journal through freshly bound pipelines, each from the
line its query subscribed at, and checks the regenerated result prefix
against the running digest persisted in the state file, so recovery is
*verified* exactly-once rather than assumed.

The journal is the wire: line ``n`` is the protocol line accepted at
offset ``n``::

    EVENT <n> <sync> <other> <key-json> <payload-json>
    PUNCT <n> <ts>      client punctuation
    SHED <n> <ts>       quota-forced punctuation, replayed as a plain one
    END <n>             flush marker

An ``EVENT`` line is written as received when it is ASCII and carries
its journal offset, and is otherwise rendered from the row's values as
a client writes it, non-ASCII escaped: every journal line is ASCII.
:meth:`TenantJournal.load` decodes with the live decoders —
:func:`~repro.serve.protocol.decode_event_run` for runs of ``EVENT``
lines, :func:`~repro.serve.protocol.decode_data_frame` for any other
line — so replay pushes the values, as event runs, that live ingest did.

Appends are group-committed: :meth:`TenantJournal.append_events` and
friends only buffer, and :meth:`TenantJournal.commit` moves every
buffered line into the OS page cache with one ``write()``, which
survives ``kill -9`` of the process (the chaos soak relies on exactly
this) but not power loss.  The server commits at each ``PUNCT``/``END``,
before each result pump, and in each state save; the commit is the only
durability point an ack waits for.  Three invariants keep every promise
made to a client on disk first:

1. ``TenantRuntime.accept_punctuation``/``accept_end`` commit before
   returning, so no ``IOFF`` is acked before its line is durable.
2. The server's result pump commits before any ``RESULT`` leaves, so no
   result is derived from an element a restart could lose.
3. The server's state save, a checkpoint that acks nothing, commits
   every journal before ``state.json`` is written, so a persisted
   journal length or result digest never runs ahead of the journal
   after ``kill -9``.

Anything appended after the last commit was neither acked nor answered,
so losing it to a crash is indistinguishable from losing it on the wire:
the client resumes from the ``HELLO journal=`` length.  A crash
mid-write can leave an unterminated trailing fragment, which the loader
truncates; a complete line that does not decode, or whose offset is not
its position, is damage and raises.

The state file (``state.json``) is written atomically (``fsync``, then
rename) and holds what replay cannot reconstruct: per-tenant counters
and, per standing query, its spec, origin line, delivered-element
count, and running SHA-256 digest over ``repr(element)`` lines.
"""

from __future__ import annotations

import json
import os

from repro.core.errors import ServeProtocolError
from repro.serve.protocol import (
    EventRun,
    _fields,
    decode_data_frame,
    decode_event_run,
)

__all__ = ["TenantJournal", "load_state", "save_state"]

#: Lines per decoded run at most: a long stretch replays in pieces.
_RUN_LINES = 4096


class TenantJournal:
    """Append-only line journal for one tenant's accepted ingress.

    ``length`` is the journal's element count and doubles as the
    tenant's next expected ingress offset — the dedup line for
    exactly-once ingress.  ``commits`` counts the commits that wrote at
    least one line since this object was created; it is not persisted.
    """

    def __init__(self, path):
        self.path = str(path)
        self.length = 0
        self.commits = 0
        self._pending = 0  # lines appended since the last commit
        self._buffer = []  # their text, one item per append
        self._last = None  # the offset of the last append, while buffered
        self._last_size = 0  # its characters, the tail of the buffer
        self._fh = None

    # -- recovery ----------------------------------------------------------

    def load(self, start=0):
        """Replay generator: yields ``(offset, record)`` from line
        ``start`` on, a record being an event run (``offset`` is its
        first line), a punctuation (``PUNCT`` or ``SHED``) or ``None``
        (``END``).  Truncates an unterminated trailing fragment; raises
        :class:`ServeProtocolError` at a complete line that does not
        decode or whose offset is not its position.  Lines before
        ``start`` are skipped undecoded.
        """
        if not os.path.exists(self.path):
            return
        # Bytes, not text: the truncation offset is a byte count, and a
        # torn line may end inside a multi-byte character.
        with open(self.path, "r+b") as fh:
            data = fh.read()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                fh.truncate(end)  # a torn append from a crash
        bad = None  # the first line that is not ASCII
        try:
            text = data[:end].decode("ascii")
        except UnicodeDecodeError as exc:
            text = data[:exc.start].decode("ascii")
            bad = text.count("\n")
        lines = text.split("\n")[:-1]  # each ends in a newline
        index = start
        while index < len(lines):
            record = decode_event_run(lines[index:index + _RUN_LINES])
            good = len(record)
            if not good:
                record, good = self._decode(lines[index], index), 1
            elif record.offsets != list(range(index, index + good)):
                good = next(row for row, offset in enumerate(record.offsets)
                            if offset != index + row)
                if good:
                    self.length = index + good
                    yield index, record[:good]
                raise self._damage(index + good, "its offset is not its line")
            self.length = index + good
            yield index, record
            index += good
        if bad is not None:
            raise self._damage(bad, "not ASCII")

    def _decode(self, line, index):
        """The record of a journal line the run decoder did not take."""
        parts = line.split(" ", 5)
        word = parts[0]
        fields = {"EVENT": 6, "PUNCT": 3, "SHED": 3, "END": 2}.get(word)
        if len(parts) != fields:
            raise self._damage(index, "not a journal line")
        try:
            offset = int(parts[1])
            element = None if word == "END" else decode_data_frame(parts[2:])
        except (ValueError, RecursionError) as exc:
            raise self._damage(index, exc) from None
        if offset != index:
            raise self._damage(index, "its offset is not its line")
        if word == "EVENT":
            return EventRun.of(index, element, line)
        return element

    def _damage(self, index, why):
        return ServeProtocolError(
            f"{self.path}:{index + 1}: corrupt journal line ({why})"
        )

    # -- append ------------------------------------------------------------

    def append_event(self, event, wire=None) -> int:
        """Buffer one event line; returns its offset.  ``wire`` is the
        ``EVENT`` line ``event`` was decoded from, at this offset."""
        return self.append_events(EventRun.of(self.length, event, wire))

    def append_events(self, run) -> int:
        """Buffer the event lines of an
        :class:`~repro.serve.protocol.EventRun` with one write; returns
        the first offset.  A row's ``wire`` line is written as received
        when it is ASCII; any other row is rendered from its values, so
        the bytes are those of one :meth:`append_event` per row."""
        wire = run.wire
        if wire is not None and None not in wire:
            text = "\n".join([*wire, ""])
            if text.isascii():
                return self._append(text, len(run))
        if not set(map(type, run.syncs + run.others)) <= {int}:
            raise ServeProtocolError("journaled times must be ints")
        lines = [
            f"EVENT {o} {s} {t} {_fields(k, p)}\n" for o, s, t, k, p in zip(
                range(self.length, self.length + len(run)), run.syncs,
                run.others, run.keys, run.payloads)
        ]
        if wire is not None:
            lines = [line + "\n" if line is not None and line.isascii()
                     else own for line, own in zip(wire, lines)]
        return self._append("".join(lines), len(run))

    def append_punctuation(self, timestamp, forced=False) -> int:
        word = "SHED" if forced else "PUNCT"
        return self._append(f"{word} {self.length} {timestamp}\n")

    def append_flush(self) -> int:
        return self._append(f"END {self.length}\n")

    def _append(self, text, lines=1) -> int:
        if self._fh is None:
            self._fh = open(self.path, "ab", buffering=0)
        self._buffer.append(text)
        self._pending += lines
        self._last_size = len(text)
        offset = self._last = self.length
        self.length += lines
        return offset

    def retract(self, offset) -> None:
        """Drop the append at ``offset`` when it is the last one and is
        still buffered whole; ``length`` returns to ``offset``."""
        if offset != self._last:
            return
        self._buffer.pop()
        self._pending -= self.length - offset
        self.length = offset
        self._last = None

    def commit(self) -> None:
        """Write every buffered line to the OS page cache."""
        if self._pending:
            self._write()
            self.commits += 1

    def _write(self):
        """Write the buffered lines.  When the write fails, what reached
        the file stays written and the rest stays buffered."""
        data = memoryview("".join(self._buffer).encode("ascii"))
        written = 0
        try:
            while written < len(data):
                written += self._fh.write(data[written:])
        finally:
            if 0 < written < len(data):
                self._keep(data, written)
            elif written:
                self._buffer, self._pending, self._last = [], 0, None

    def _keep(self, data, written):
        """Buffer what a failed write left of ``data`` after ``written``
        bytes.  A part of the last append that reached the file is cut
        off it again, so the append stays whole and can be retracted."""
        start = len(data) - self._last_size  # where the last append starts
        if self._last is not None and written > start:
            try:
                fd = self._fh.fileno()
                os.ftruncate(fd, os.fstat(fd).st_size - (written - start))
                written = start
            except OSError:
                self._last = None
        rest = bytes(data[written:]).decode("ascii")
        self._pending = rest.count("\n")
        cut = len(rest) if self._last is None else start - written
        self._buffer = [part for part in (rest[:cut], rest[cut:]) if part]

    def close(self):
        try:
            if self._pending:
                self._write()  # the lines not yet committed
        finally:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def save_state(data_dir, doc):
    """Atomically persist the service state document."""
    path = os.path.join(data_dir, "state.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # One C-encoded string and one write: ``indent`` would force the
        # pure-Python encoder on every punctuation's save.
        fh.write(json.dumps(doc, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


#: The JSON types ``load_state`` checks, as its errors name them.
_KINDS = {dict: "an object", int: "an integer", str: "a string"}


def load_state(data_dir) -> dict:
    """Load the persisted state document, or ``{}`` on first boot.

    A document that is not JSON, or whose fields replay reads are not of
    the types :func:`save_state` wrote, raises
    :class:`~repro.core.errors.ServeProtocolError` naming the file and
    the field.
    """
    path = os.path.join(data_dir, "state.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ServeProtocolError(f"{path}: not JSON: {exc}") from None

    def typed(field, value, kind):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ServeProtocolError(
                f"{path}: {field} is not {_KINDS[kind]}: {value!r:.60}"
            )
        return value

    def counts(field, value):
        for name, count in typed(field, value, dict).items():
            typed(f"{field}.{name}", count, int)

    typed("the document", doc, dict)
    counts("quarantine", doc.get("quarantine", {}))
    for name, state in typed("tenants", doc.get("tenants", {}),
                             dict).items():
        field = f"tenants.{name}"
        typed(field, state, dict)
        counts(f"{field}.counters", state.get("counters", {}))
        for qid, query in typed(f"{field}.queries",
                                state.get("queries", {}), dict).items():
            at = f"{field}.queries.{qid}"
            typed(at, query, dict)
            typed(f"{at}.spec", query.get("spec"), str)
            typed(f"{at}.origin", query.get("origin", 0), int)
            typed(f"{at}.delivered", query.get("delivered", 0), int)
    return doc
