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

from repro.core.errors import ServeProtocolError
from repro.core.late import LatePolicy
from repro.engine.event import Event, Punctuation, is_punctuation
from repro.engine.operators.aggregates import Count, Sum
from repro.engine.planner import QueryPlan

__all__ = [
    "decode_payload",
    "encode_element",
    "decode_data_frame",
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


def encode_element(element) -> str:
    """One journal/wire text fragment for an event or punctuation."""
    if is_punctuation(element):
        return _dumps(["p", element.timestamp])
    return _dumps([
        "e", element.sync_time, element.other_time, _jsoned(element.key),
        _jsoned(element.payload),
    ])


def decode_element(text):
    """Inverse of :func:`encode_element`."""
    doc = json.loads(text)
    if doc[0] == "p":
        return Punctuation(doc[1])
    if doc[0] == "e":
        return Event(doc[1], doc[2], _tupled(doc[3]), _tupled(doc[4]))
    raise ServeProtocolError(f"unknown journal element kind {doc[0]!r}")


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


def result_line(qid, position, element) -> str:
    """Server->client line for one delivered result element."""
    if is_punctuation(element):
        return f"RPUNCT {qid} {position} {element.timestamp}"
    return (
        f"RESULT {qid} {position} {element.sync_time} "
        f"{element.other_time} {_dumps(_jsoned(element.key))} "
        f"{_dumps(_jsoned(element.payload))}"
    )


def parse_result_line(line):
    """Client-side inverse of :func:`result_line`.

    Returns ``(qid, position, element)`` where ``element`` is an
    :class:`Event`, a :class:`Punctuation`, or ``None`` for ``REOF``.
    """
    parts = line.split(" ", 6)
    if parts[0] == "RPUNCT" and len(parts) == 4:
        return parts[1], int(parts[2]), Punctuation(int(parts[3]))
    if parts[0] == "REOF" and len(parts) == 3:
        return parts[1], int(parts[2]), None
    if parts[0] == "RESULT" and len(parts) == 7:
        return parts[1], int(parts[2]), Event(
            int(parts[3]), int(parts[4]),
            _tupled(_loads(parts[5])), _tupled(_loads(parts[6])),
        )
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
