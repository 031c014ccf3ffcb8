"""Wire protocol and standing-query specs for ``repro serve``.

Two framings share one ingress service:

* **TCP line protocol** — newline-terminated UTF-8 frames, one command
  per line.  Data frames carry an explicit 0-based *element offset* so
  ingress is idempotent: a client that reconnects (or a chaos injector
  that duplicates frames) resends from the server-reported journal
  length, and anything below it is counted as a duplicate and dropped.

  Client -> server::

      HELLO <tenant>                 open / resume a tenant session
      EVENT <off> <sync> <other> <key-json> <payload-json>
      PUNCT <off> <ts>               punctuation (server replies IOFF)
      SUB <qid> <spec> [from=<n>]    register standing query, stream
                                     results from position n
      UNSUB <qid>                    cancel a standing query
      END <off>                      tenant stream complete (flush)
      SNAPSHOT                       one-line JSON snapshot reply
      QUIT                           close (server replies BYE)

  Server -> client::

      OK <detail...>                 command accepted
      IOFF <n>                       journal length after a PUNCT/END
      RESULT <qid> <n> <sync> <other> <key-json> <payload-json>
      RPUNCT <qid> <n> <ts>          result-stream punctuation
      REOF <qid> <n>                 standing query completed (flushed)
      ERR <kind> <detail...>         command rejected
      BYE                            connection closing

* **HTTP/JSON-log framing** — a minimal HTTP/1.1 surface for log
  shippers and dashboards: ``POST /ingest/<tenant>`` with an NDJSON
  body of ``{"sync":..,"other":..,"key":..,"payload":..}`` /
  ``{"punct": ts}`` documents, ``GET /snapshot`` returning the live
  :class:`~repro.observability.PipelineSnapshot` document, and
  ``GET /healthz``.

Standing queries are transported as compact spec strings (``spec`` in
``SUB``) so they survive in checkpoints and journals::

    spec  := step ("|" step)*
    step  := "window=<int>"              tumbling_window
           | "hop=<size>/<stride>"      hopping_window
           | "where=<field><op><int>"   field in {key,sync}, op in {<,>,=}
           | "sort" | "sort=<policy>"   policy in {drop,adjust,raise}
           | "count"                    per-window event count
           | "group-count"              per-(window, key) count
           | "group-sum[=<idx>]"        per-(window, key) payload sum

Example: ``window=10|sort|group-count`` is the paper's running
grouped-count query over tumbling windows of 10 ticks.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import repeat
from operator import indexOf, itemgetter

import numpy as np

from repro.core.errors import ServeProtocolError
from repro.core.late import LatePolicy
from repro.engine.event import Event, Punctuation, is_punctuation
from repro.engine.operators.aggregates import Count, Sum
from repro.engine.planner import QueryPlan

__all__ = [
    "EventRun",
    "decode_payload",
    "decode_data_frame",
    "decode_event_run",
    "parse_query_spec",
    "result_line",
]

_LATE_POLICIES = {
    "drop": LatePolicy.DROP,
    "adjust": LatePolicy.ADJUST,
    "raise": LatePolicy.RAISE,
}


#: One encoder for every call: ``json.dumps`` with non-default arguments
#: builds a new encoder each time.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _dumps(value) -> str:
    """Compact JSON — no spaces, so frames stay space-splittable."""
    return _COMPACT.encode(value)


#: The C scanner ``json.loads`` runs underneath its Python wrapper.
_SCAN = json.JSONDecoder().scan_once


def _loads(text):
    """``json.loads(text)``, through the C scanner when it can.

    The scanner alone handles a value that fills the whole text, which
    is every well-formed frame field.  Anything else — surrounding
    whitespace, trailing data, no value at all — goes to ``json.loads``
    itself, so every value and every error is the one it gives.
    """
    try:
        value, end = _SCAN(text, 0)
    except (StopIteration, ValueError):
        return json.loads(text)
    if end == len(text):
        return value
    return json.loads(text)


def decode_payload(text):
    """JSON payload text -> engine payload value.

    Lists become tuples (recursively) so served events compare equal —
    and ``repr()`` byte-identical — to batch-engine events.
    """
    return _tupled(_loads(text))


def _tupled(value):
    if type(value) is list:
        return tuple([_tupled(v) if type(v) is list else v for v in value])
    return value


def _jsoned(value):
    if isinstance(value, tuple):
        return [_jsoned(v) for v in value]
    return value


def decode_data_frame(parts):
    """Decode the tail of an ``EVENT``/``PUNCT`` line.

    ``parts`` excludes the command word and the offset.  Raises
    :class:`ServeProtocolError` on any shape violation — the caller
    quarantines instead of crashing.
    """
    if len(parts) == 1:  # PUNCT <ts>
        try:
            return Punctuation(int(parts[0]))
        except ValueError:
            raise ServeProtocolError(
                f"punctuation timestamp {parts[0]!r} is not an integer"
            ) from None
    if len(parts) != 4:
        raise ServeProtocolError(
            f"event frame needs sync/other/key/payload, got {len(parts)} "
            "fields"
        )
    try:
        sync, other = int(parts[0]), int(parts[1])
        key = _tupled(_loads(parts[2]))
        payload = decode_payload(parts[3])
    except (ValueError, json.JSONDecodeError) as exc:
        raise ServeProtocolError(f"unparseable event frame: {exc}") from None
    return Event(sync, other, key, payload)


class EventRun:
    """Consecutive ``EVENT`` frames as columns: what serve decodes,
    journals and pushes as one unit.

    Each column holds one value per row.  ``offsets`` are the frames'
    offsets (``-1`` is append) until a tenant accepts the run and
    replaces them with journal offsets.  ``payloads`` are decoded JSON,
    whose lists become tuples only when :meth:`events` boxes the rows
    (no compiled query reads a payload); a run the byte scan decoded
    keeps its lines instead and decodes their payloads the first time
    ``payloads`` is read.  ``wire`` holds each row's received ``EVENT``
    line (``None`` where it lacks the journal offset), or is ``None``
    when the run was not decoded from lines.
    """

    __slots__ = ("offsets", "syncs", "others", "keys", "_payloads",
                 "_lines", "wire", "_events")

    def __init__(self, offsets, syncs, others, keys, payloads, wire=None,
                 lines=None):
        self.offsets = offsets
        self.syncs = syncs
        self.others = others
        self.keys = keys
        self._payloads = payloads  # None: scan them from ``_lines``
        self._lines = lines
        self.wire = wire
        self._events = None

    @classmethod
    def of(cls, offset, event, wire=None):
        """The one-row run of ``event``; ``wire`` is the ``EVENT`` line
        it was decoded from."""
        return cls([offset], [event.sync_time], [event.other_time],
                   [event.key], [event.payload],
                   None if wire is None else [wire])

    @property
    def payloads(self):
        if self._payloads is None:
            # A strict line's payload is its last field, and one value.
            self._payloads = _scan_column([
                line[line.rindex(" ") + 1:] for line in self._lines
            ])
            self._lines = None
        return self._payloads

    def __len__(self):
        return len(self.syncs)

    def _columns(self):
        return (self.offsets, self.syncs, self.others, self.keys,
                self._payloads, self.wire, self._lines)

    def __getitem__(self, rows):
        """The run of the rows in slice ``rows``."""
        return EventRun(*(None if column is None else column[rows]
                          for column in self._columns()))

    def without(self, offsets):
        """This run minus the rows whose offset is in ``offsets``."""
        keep = [i for i, offset in enumerate(self.offsets)
                if offset not in offsets]
        return EventRun(*(None if column is None else
                          [column[i] for i in keep]
                          for column in self._columns()))

    def events(self):
        """The rows boxed as :class:`Event`\\ s (built once)."""
        if self._events is None:
            self._events = list(map(
                Event, self.syncs, self.others, self.keys,
                map(_tupled, self.payloads),
            ))
        return self._events


def decode_event_run(lines, start=0) -> EventRun:
    """Decode the ``EVENT`` lines of ``lines`` from ``start`` on.

    The run ends before the first line that is not a six-field ``EVENT``
    frame whose offset, sync and other ``int()`` accepts and whose key
    and payload the C scanner reads as one value filling the field.
    Every row holds the values the line-at-a-time path
    (``split(" ", 5)``, then :func:`decode_data_frame`) gives its line,
    and every line that path refuses, or parses only through
    ``json.loads``' fallback, ends the run, so it alone answers them.

    The run's lines in the strict shape (:func:`_strict_run`) are
    decoded by one byte scan; from the first line that is not, fields
    are converted a column at a time, and a column that fails is
    decoded again a row at a time to find where the run ends.  The
    run's ``wire`` is its lines.
    """
    # A line splits to "EVENT" and more fields exactly when it starts
    # "EVENT ": find the first that does not.
    lines = lines[start:]
    try:
        lines = lines[:indexOf(map(str.startswith, lines,
                                   repeat("EVENT ")), False)]
    except ValueError:
        pass
    run = _strict_run(lines) if lines else None
    if run is None:
        run = _scan_run(lines)
    elif len(run) < len(lines):
        rest = _scan_run(lines[len(run):])
        if len(rest):
            run = EventRun(
                run.offsets + rest.offsets, run.syncs + rest.syncs,
                run.others + rest.others, run.keys + rest.keys,
                run.payloads + rest.payloads,
            )
    run.wire = lines[:len(run)]
    return run


def _scan_run(lines) -> EventRun:
    """:func:`decode_event_run` over ``lines``, each starting
    ``EVENT ``, through ``split`` and the C scanner."""
    # Split only the lines before the first with under six fields.
    rows = list(map(str.split, lines, repeat(" "), repeat(5)))
    if rows and min(map(len, rows)) < 6:
        del rows[indexOf(map(_SHORT, map(len, rows)), True):]
    if not rows:
        return EventRun([], [], [], [], [])
    _, offsets, syncs, others, key_texts, payload_texts = zip(*rows)
    try:
        offsets, syncs, others = (
            list(map(int, column)) for column in (offsets, syncs, others)
        )
        keys = _scan_column(key_texts)
        payloads = _scan_column(payload_texts)
    except (ValueError, RecursionError, _Misread):
        return _decode_rows(rows)
    if list in set(map(type, keys)):
        keys = [_tupled(key) if type(key) is list else key for key in keys]
    return EventRun(offsets, syncs, others, keys, payloads)


class _Misread(Exception):
    """A field the scanner does not read as one value filling it."""


_VALUE, _END = itemgetter(0), itemgetter(1)
_SHORT = (6).__gt__  # a split line with fewer than six fields


def _scan_column(texts):
    """The values of a column of JSON fields, each read by the C
    scanner; raises when one is not a value that fills its field."""
    # A field with no value ends map() quietly (StopIteration).
    scanned = list(map(_SCAN, texts, repeat(0, len(texts))))
    if list(map(_END, scanned)) != list(map(len, texts)):
        raise _Misread
    return list(map(_VALUE, scanned))


def _decode_rows(rows) -> EventRun:
    """:func:`_scan_run` over split ``rows``, a row at a time."""
    columns = [], [], [], [], []
    for parts in rows:
        try:
            offset, sync, other = int(parts[1]), int(parts[2]), int(parts[3])
            key, payload = _scan_column(parts[4:])
        except (ValueError, RecursionError, _Misread):
            break
        row = (offset, sync, other,
               _tupled(key) if type(key) is list else key, payload)
        for column, value in zip(columns, row):
            column.append(value)
    return EventRun(*columns)


# -- the byte scan -------------------------------------------------------

#: A canonical JSON integer of at most 18 digits: ``int()`` and the JSON
#: scanner read it alike, and an ``int64`` holds it.
_INT = "-?(?:0|[1-9][0-9]{0,17})"
#: The strict shape: four integers and a flat list of integers.
_STRICT = re.compile(f"EVENT (?:{_INT} ){{4}}\\[(?:{_INT}(?:,{_INT})*)?\\]")
_MINUS, _ZERO = ord("-"), ord("0")
#: The low nibbles of the top ``n`` bytes of a word, by ``n``.
_DIGITS = np.array([0x0F0F0F0F0F0F0F0F << (64 - 8 * n) & (2**64 - 1)
                    for n in range(9)], np.uint64)
_WORD = np.dtype("<u8")
#: The place value of each byte of a word of eight digits, the first in
#: the lowest byte.
_PLACES = 10 ** np.arange(7, -1, -1, dtype=np.int64)


def _strict_run(lines):
    """The rows of the longest prefix of ``lines`` (each starting
    ``EVENT ``) in the strict shape, or ``None`` when it is empty.

    A line is strict when it is ASCII, matches :data:`_STRICT` and has
    the first line's payload arity.  Every such line decodes through
    :func:`_scan_run` to the values read here, so the byte scan only
    agrees with it or declines.  The prefix is joined into one byte
    buffer: its delimiters (every byte but a digit or ``-``) must repeat
    the first line's, each number between them must be canonical, and
    the four head numbers are parsed eight digits at a time.  Payloads
    stay in the lines until read.
    """
    first = lines[0]
    if _STRICT.fullmatch(first) is None:
        return None
    text = "\n".join(lines)
    if not text.isascii():  # the first line is ASCII
        lines = lines[:indexOf(map(str.isascii, lines), False)]
        text = "\n".join(lines)
    # A leading newline, so the eight bytes before every number are in
    # the buffer.
    raw = f"\n{text}\n".encode("ascii")
    buf = np.frombuffer(raw, np.uint8)
    arity = first.count(",") + (not first.endswith("[]"))
    pattern = b"EVENT     [" + b"," * (arity - 1) + b"]\n"
    width = len(pattern)
    delimits = (buf - _ZERO) > 9
    signed = b"-" in raw
    if signed:
        minus = buf == _MINUS
        delimits &= ~minus
    cuts = np.flatnonzero(delimits)[1:]
    rows = min(len(lines), len(cuts) // width)
    marks = buf[cuts[:rows * width]]
    if marks.tobytes() != pattern * rows:
        # The line of the first delimiter out of place.
        rows = int(np.argmax(
            marks != np.frombuffer(pattern * rows, np.uint8))) // width
    # From the space before the offset on, each pair of neighbouring
    # delimiters holds a number, or nothing where the pattern has " [",
    # "[]" or "]\n".
    bounds = cuts[:rows * width].reshape(rows, width)[:, 5:]
    starts = bounds[:, :-1] + 1
    size = bounds[:, 1:] - starts
    least, span = _sizes(arity)
    if signed:
        # Only a number takes a sign: a '-' in an empty slot keeps its
        # size and is refused below.
        negative = (buf[starts] == _MINUS) & least.astype(bool)
        starts += negative
        size -= negative
    wrong = ((size - least).view(np.uint64) > span) | (
        (buf[starts] == _ZERO) & (size > 1))  # a leading zero
    if wrong.any():
        rows = int(np.argmax(wrong.any(axis=1)))
    if signed and rows and (np.count_nonzero(minus[:bounds[rows - 1, -1]])
                            != np.count_nonzero(negative[:rows])):
        # A '-' inside a number: the line of the first.
        inner = np.flatnonzero(minus)
        inner = inner[~np.isin(inner, (starts - 1)[negative])]
        rows = min(rows, int(np.searchsorted(bounds[:, -1], inner[0])))
    if not rows:
        return None
    heads = _parse_heads(raw, bounds[:rows, 1:5], size[:rows, :4])
    if signed:
        heads[negative[:rows, :4]] *= -1
    offsets, syncs, others, keys = heads.T.tolist()
    return EventRun(offsets, syncs, others, keys, None, lines=lines[:rows])


@lru_cache(maxsize=16)
def _sizes(arity):
    """``(least, span)``: a number has 1 to 18 digits, and the " [",
    "[]" and "]\\n" delimiter pairs have none between them."""
    numbers = [True] * 4 + [False] + [True] * arity + [False] * (
        1 if arity else 2)
    least = np.array(numbers, np.int64)
    return least, np.array([17 if n else 0 for n in numbers], np.uint64)


def _parse_heads(raw, ends, size):
    """The unsigned values of the canonical numbers of at most 18 digits
    in ``raw`` that end before ``ends``, with ``size`` digits each."""
    # Every byte offset as the start of a little-endian eight-byte word.
    words = np.ndarray((len(raw) - 7,), _WORD, raw, strides=(1,))
    value = _eight(words[ends - 8], np.minimum(size, 8))
    for chunk in range(8, int(size.max()), 8):  # digits before the last 8
        value += _eight(words[np.maximum(ends - chunk - 8, 0)],
                        np.clip(size - chunk, 0, 8)) * 10**chunk
    return value


def _eight(words, count):
    """The numbers of the last ``count`` bytes of each of ``words``,
    which are digits: keep their low nibbles, zero the bytes below them,
    and weigh each byte by its place."""
    words = words & _DIGITS[count]
    return words.view(np.uint8).reshape(*words.shape, 8) @ _PLACES


def _fields(key, payload) -> str:
    """``<key-json> <payload-json>`` as frames carry them, in ASCII.

    An ``int`` key or payload (not a ``bool``) is written with ``str()``,
    the text its JSON is; anything else goes through the JSON encoder,
    and a space inside a key's string is written ``\\u0020``, so the key
    never splits the line.
    """
    if type(key) is not int:
        key = _dumps(_jsoned(key)).replace(" ", "\\u0020")
    if type(payload) is not int:
        payload = _dumps(_jsoned(payload))
    return f"{key} {payload}"


def result_line(qid, position, element) -> str:
    """Server->client line for one delivered result element."""
    if is_punctuation(element):
        return f"RPUNCT {qid} {position} {element.timestamp}"
    return (
        f"RESULT {qid} {position} {element.sync_time} "
        f"{element.other_time} {_fields(element.key, element.payload)}"
    )


def parse_result_line(line):
    """Client-side inverse of :func:`result_line`.

    Returns ``(qid, position, element)`` where ``element`` is an
    :class:`Event`, a :class:`Punctuation`, or ``None`` for ``REOF``.
    Raises :class:`ServeProtocolError` on any other line.
    """
    parts = line.split(" ", 6)
    try:
        if parts[0] == "RPUNCT" and len(parts) == 4:
            return parts[1], int(parts[2]), Punctuation(int(parts[3]))
        if parts[0] == "REOF" and len(parts) == 3:
            return parts[1], int(parts[2]), None
        if parts[0] == "RESULT" and len(parts) == 7:
            return parts[1], int(parts[2]), Event(
                int(parts[3]), int(parts[4]),
                _tupled(_loads(parts[5])), _tupled(_loads(parts[6])),
            )
    except (ValueError, RecursionError) as exc:
        raise ServeProtocolError(
            f"unparseable result line: {line!r} ({exc})"
        ) from None
    raise ServeProtocolError(f"unparseable result line: {line!r}")


def parse_query_spec(spec) -> QueryPlan:
    """Compile a standing-query spec string into a :class:`QueryPlan`.

    The grammar is documented in the module docstring.  Specs are the
    durable representation of a standing query — they round-trip through
    ``SUB`` frames and recovery checkpoints — so parsing is strict:
    anything unrecognized raises :class:`ServeProtocolError`.
    """
    if not spec or not spec.strip():
        raise ServeProtocolError("empty query spec")
    plan = QueryPlan()
    sorted_yet = False
    for raw in spec.split("|"):
        step = raw.strip()
        name, _, arg = step.partition("=")
        if name == "window":
            plan = plan.tumbling_window(_int_arg(step, arg))
        elif name == "hop":
            size, _, stride = arg.partition("/")
            plan = plan.hopping_window(
                _int_arg(step, size), _int_arg(step, stride)
            )
        elif name == "where":
            plan = plan.where(_parse_predicate(step, arg))
        elif name == "sort":
            policy = None
            if arg:
                policy = _LATE_POLICIES.get(arg.strip())
                if policy is None:
                    raise ServeProtocolError(
                        f"{step!r}: late policy must be one of "
                        f"{sorted(_LATE_POLICIES)}"
                    )
            plan = plan.sort(late_policy=policy)
            sorted_yet = True
        elif step == "count":
            plan = plan.count()
        elif step == "group-count":
            plan = plan.group_aggregate(Count())
        elif name == "group-sum":
            selector = None
            if arg:
                index = _int_arg(step, arg, minimum=0)
                selector = _field_selector(index)
            plan = plan.group_aggregate(Sum(selector))
        else:
            raise ServeProtocolError(f"unknown query step {step!r}")
    if not sorted_yet:
        raise ServeProtocolError(
            "query spec needs an explicit 'sort' step (disordered "
            "ingress must be ordered before aggregation)"
        )
    return plan


def _int_arg(step, arg, minimum=1):
    try:
        value = int(arg)
    except ValueError:
        raise ServeProtocolError(
            f"{step!r}: expected an integer argument"
        ) from None
    if value < minimum:
        raise ServeProtocolError(f"{step!r}: argument must be >= {minimum}")
    return value


def _field_selector(index):
    def select(payload):
        return payload[index]

    return select


def _parse_predicate(step, arg):
    for op in ("<", ">", "="):
        field, found, value = arg.partition(op)
        if found:
            break
    else:
        raise ServeProtocolError(
            f"{step!r}: predicate must be <field><op><int> with op in "
            "< > ="
        )
    field = field.strip()
    if field not in ("key", "sync"):
        raise ServeProtocolError(
            f"{step!r}: predicate field must be 'key' or 'sync'"
        )
    try:
        bound = int(value)
    except ValueError:
        raise ServeProtocolError(
            f"{step!r}: predicate bound must be an integer"
        ) from None

    def attr(event):
        return event.key if field == "key" else event.sync_time

    if op == "<":
        return lambda e: attr(e) < bound
    if op == ">":
        return lambda e: attr(e) > bound
    return lambda e: attr(e) == bound
