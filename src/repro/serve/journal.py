"""Durable per-tenant ingress journal and service state for ``repro serve``.

The service's crash-recovery contract is *replay, then verify*: every
accepted ingress element (event, punctuation, or guard-forced
punctuation) is appended to a per-tenant JSONL journal **before** it is
pushed into any standing-query pipeline.  A killed server restarts by
replaying each journal through freshly bound pipelines, which
regenerates every standing query's result stream from offset 0 — and the
regenerated prefix is checked against the running digest persisted in
the state file, so recovery is *verified* exactly-once rather than
assumed.

Journal line grammar (one JSON array per line)::

    ["e", offset, sync, other, key, payload]   accepted event
    ["p", offset, ts]                          client punctuation
    ["g", offset, ts]                          guard-forced punctuation
                                               (load shedding; replayed
                                               as a plain push — the
                                               guard is NOT re-consulted
                                               during replay)
    ["f", offset]                              END flush marker

Lines are written compact (``["e",0,1,2,0,[1]]``); the loader reads any
JSON spacing, so journals written with spaced ``json.dumps`` lines
recover unchanged.  An event line built from a wire frame embeds the
frame's key and payload JSON text as received (it was just validated by
the decoder), so the event is never re-encoded — unless that text is not
ASCII, in which case the fragments are rendered with non-ASCII escaped.
Every journal line is ASCII.  A run of events (one read's consecutive
``EVENT`` frames, see :class:`~repro.serve.protocol.EventRun`) is
buffered by :meth:`TenantJournal.append_events` with one write, in the
bytes one :meth:`TenantJournal.append_event` per row would give.

Appends are group-committed: :meth:`TenantJournal.append_event` and
friends only buffer, and :meth:`TenantJournal.commit` moves every
buffered line into the OS page cache with one ``flush()``, which
survives ``kill -9`` of the process (the chaos soak relies on exactly
this).  The server commits at each ``PUNCT``/``END``, before each result
pump, and in the one state save that ends a socket read holding a
``PUNCT`` or ``END``; three invariants keep every promise made to a
client on disk first:

1. ``TenantRuntime.accept_punctuation``/``accept_end`` commit before
   returning, so no ``IOFF`` is acked before its line is durable.
2. The server's result pump commits before any ``RESULT`` leaves, so no
   result is derived from an element a restart could lose.
3. The server's state save commits every journal before ``state.json``
   is written, so a persisted journal length or result digest never
   runs ahead of the journal.

Anything appended after the last commit was neither acked nor answered,
so losing it to a crash is indistinguishable from losing it on the wire:
the client resumes from the ``HELLO journal=`` length.  A crash
mid-write can leave one torn trailing line; the loader tolerates — and
truncates, at its byte offset — a torn *final* line, but a torn line
mid-file means real corruption and raises.

The state file (``state.json``) is written atomically (tmp + rename) and
holds what replay cannot reconstruct: per-tenant counters and the
standing-query registry with each query's spec, delivered-element count,
and running SHA-256 digest over ``repr(element)`` lines.
"""

from __future__ import annotations

import json
import os

from repro.core.errors import ServeProtocolError
from repro.engine.event import Event, Punctuation
from repro.serve.protocol import _dumps, _jsoned, _tupled

__all__ = ["TenantJournal", "load_state", "save_state"]


class TenantJournal:
    """Append-only JSONL journal for one tenant's accepted ingress.

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
        self._fh = None

    # -- recovery ----------------------------------------------------------

    def load(self, start=0):
        """Replay generator: yields ``(kind, element_or_None)`` tuples.

        ``kind`` is the journal line tag (``e``/``p``/``g``/``f``).  A
        torn final line (the only kind of damage a crashed append can
        cause) is truncated away; earlier damage raises
        :class:`ServeProtocolError`.  Lines before ``start`` are skipped
        undecoded.
        """
        if not os.path.exists(self.path):
            return
        # Bytes, not text: the truncation offset below is a byte count,
        # and a torn line may end inside a multi-byte character.
        with open(self.path, "r+b") as fh:
            lines = fh.read().split(b"\n")
            if lines and lines[-1] == b"":
                lines.pop()
            for index in range(start, len(lines)):
                line = lines[index]
                try:
                    doc = json.loads(line)
                    kind = doc[0]
                    if kind == "e":
                        element = Event(doc[2], doc[3], _tupled(doc[4]),
                                        _tupled(doc[5]))
                    elif kind in ("p", "g"):
                        element = Punctuation(doc[2])
                    elif kind == "f":
                        element = None
                    else:
                        raise ValueError(f"unknown tag {kind!r}")
                except (ValueError, IndexError, json.JSONDecodeError) as exc:
                    if index == len(lines) - 1:
                        # Torn trailing append from the crash: truncate.
                        fh.seek(0)
                        fh.truncate(sum(len(l) + 1 for l in lines[:index]))
                        break
                    raise ServeProtocolError(
                        f"{self.path}:{index + 1}: corrupt journal line "
                        f"({exc})"
                    ) from None
                self.length = doc[1] + 1
                yield kind, element

    # -- append ------------------------------------------------------------

    def append_event(self, event, wire=None) -> int:
        """Buffer one event line; returns its offset.

        ``wire`` is the ``(key_json, payload_json)`` text of the ``EVENT``
        frame ``event`` was decoded from.  Without it the same fragments
        are rendered from the event.
        """
        if wire is None:
            fields = _rendered(event.key, event.payload)
        else:
            fields = _fields(wire[0], wire[1], event.key, event.payload)
        return self._append(
            f'["e",{self.length},{event.sync_time},{event.other_time},'
            f"{fields}]\n"
        )

    def append_events(self, run) -> int:
        """Buffer the event lines of an
        :class:`~repro.serve.protocol.EventRun` with one write; returns
        the first offset.  The bytes are those of one
        :meth:`append_event` per row, given the row's wire text."""
        offsets = range(self.length, self.length + len(run))
        if run.key_texts is not None:
            text = "".join([
                f'["e",{o},{s},{t},{k},{p}]\n' for o, s, t, k, p in zip(
                    offsets, run.syncs, run.others, run.key_texts,
                    run.payload_texts)
            ])
            if text.isascii():
                return self._append(text, len(run))
            fields = map(_fields, run.key_texts, run.payload_texts,
                         run.keys, run.payloads)
        else:
            fields = map(_rendered, run.keys, run.payloads)
        text = "".join([
            f'["e",{o},{s},{t},{f}]\n' for o, s, t, f in zip(
                offsets, run.syncs, run.others, fields)
        ])
        return self._append(text, len(run))

    def append_punctuation(self, timestamp, forced=False) -> int:
        tag = "g" if forced else "p"
        return self._append(f'["{tag}",{self.length},{timestamp}]\n')

    def append_flush(self) -> int:
        return self._append(f'["f",{self.length}]\n')

    def _append(self, text, lines=1) -> int:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(text)
        self._pending += lines
        offset = self.length
        self.length += lines
        return offset

    def commit(self) -> None:
        """Flush every buffered line to the OS page cache."""
        if self._pending:
            self._fh.flush()
            self._pending = 0
            self.commits += 1

    def close(self):
        if self._fh is not None:
            self._fh.close()  # writes any lines not yet committed
            self._fh = None
            self._pending = 0


def _rendered(key, payload) -> str:
    """``<key-json>,<payload-json>`` from one encoder call; it escapes
    non-ASCII, so every journal line is ASCII."""
    return _dumps([_jsoned(key), _jsoned(payload)])[1:-1]


def _fields(key_text, payload_text, key, payload) -> str:
    """The wire text of a row's key and payload, or, when it is not
    ASCII, the same fragments rendered."""
    fields = f"{key_text},{payload_text}"
    return fields if fields.isascii() else _rendered(key, payload)


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


def load_state(data_dir) -> dict:
    """Load the persisted state document, or ``{}`` on first boot."""
    path = os.path.join(data_dir, "state.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
