"""Tests for the always-on serve layer (repro.serve).

Covers the wire protocol and standing-query spec grammar (with a
decode + journal differential against the line-at-a-time decoder), a
run-vs-line differential of the server applying whole ``EVENT`` runs
against the line-at-a-time server it replaced, the
durable ingress journal (torn-tail tolerance, group commit, spaced
legacy lines), refused elements (a regressing punctuation, a late event
under ``sort=raise``) contained per query, standing-query /
batch-run byte-identity, compiled standing queries against the row
pipeline (element-by-element differential, demotion on values the
compiled columns cannot carry, quota decisions), the tenant state
machine (dedup, quarantine, quota shedding, journal-replay recovery),
the live server end to end
(TCP + HTTP framings, snapshot ``serve`` section, SIGTERM drain), and —
the acceptance centerpiece — a chaos soak: three tenants under seeded
net faults (disconnect, slowloris, malform, dup, split) with the server
``kill -9``-ed mid-stream and restarted, asserting results byte-identical
to the uninterrupted batch run and fault counters reconciling exactly
with the injector.

Extra soak seeds can be exercised from CI via ``REPRO_CHAOS_SEED=<n>``.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    PunctuationOrderError,
    ReplayDivergenceError,
    ServeProtocolError,
)
from repro.engine import DisorderedStreamable, Event, Punctuation
from repro.engine.compiler import UnsupportedPlanError, _Execution
from repro.engine.graph import Pipeline, QueryNode
from repro.engine.operators.sink import CallbackSink
from repro.resilience.chaos import FaultInjector
from repro.resilience.quarantine import QuarantineLedger
from repro.serve import (
    ReproServer,
    ServeClient,
    StandingQuery,
    TenantJournal,
    TenantRuntime,
    load_state,
    parse_query_spec,
    save_state,
)
from repro.serve import journal as journal_module
from repro.serve import standing
from repro.serve.protocol import (
    EventRun,
    _dumps,
    _jsoned,
    _scan_run,
    _strict_run,
    decode_data_frame,
    decode_event_run,
    parse_result_line,
    result_line,
)
from repro.serve.server import _Subscriber

SEEDS = [17]
_env_seed = os.environ.get("REPRO_CHAOS_SEED")
if _env_seed is not None and int(_env_seed) not in SEEDS:
    SEEDS.append(int(_env_seed))


def make_stream(n=60, punct_every=10, key_mod=3, payload=None):
    """A deterministic in-order element stream with punctuations."""
    elements = []
    for i in range(n):
        elements.append(Event(i, i + 1, i % key_mod,
                              payload(i) if payload else (i,)))
        if i % punct_every == punct_every - 1:
            elements.append(Punctuation(i))
    return elements


def batch_reference(spec, elements):
    """The uninterrupted batch run of ``spec`` over ``elements``."""
    plan = parse_query_spec(spec)
    return plan.bind(DisorderedStreamable.from_elements(elements)).collect()


def drive(query, elements, flush=True):
    for element in elements:
        if isinstance(element, Punctuation):
            query.push_punctuation(element.timestamp)
        else:
            query.push_event(element)
    if flush:
        query.flush()


class TestQuerySpec:
    def test_compiles_the_paper_grouped_count(self):
        plan = parse_query_spec("window=10|sort|group-count")
        described = plan.describe()
        assert "tumbling_window" in described
        assert "sort" in described

    def test_all_steps_compile(self):
        parse_query_spec(
            "where=key<2|window=5|hop=10/5|sort=adjust|group-sum=0"
        )
        parse_query_spec("window=4|sort|count")
        parse_query_spec("where=sync>3|sort=drop|group-sum")

    @pytest.mark.parametrize("spec", [
        "",
        "window=10",                 # no sort step
        "window=0|sort",
        "window=x|sort",
        "hop=5/0|sort",
        "sort=sideways",
        "bogus|sort",
        "where=flavor<3|sort",
        "where=key~3|sort",
        "where=key<abc|sort",
        "group-sum=-1|sort",
    ])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ServeProtocolError):
            parse_query_spec(spec)


#: Result keys and payloads: ints past int64, bools, None, spaced or
#: non-ASCII strings and nested tuples of them.
_RESULT_VALUES = st.recursive(
    st.one_of(
        st.integers(), st.integers(-2 ** 200, 2 ** 200),
        st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1]),
        st.booleans(), st.none(),
        st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
        st.sampled_from(["a b", " ", "\u00e9 x", "\u6f22"]),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


class TestProtocol:
    def test_result_line_round_trips_nested_payloads(self):
        event = Event(3, 7, (1, 2), ("a", (4, 5)))
        qid, pos, back = parse_result_line(result_line("q1", 9, event))
        assert (qid, pos) == ("q1", 9)
        assert repr(back) == repr(event)

    def test_result_line_round_trips_punctuation(self):
        qid, pos, back = parse_result_line(
            result_line("q2", 0, Punctuation(42))
        )
        assert (qid, pos, back.timestamp) == ("q2", 0, 42)

    def test_reof_round_trip(self):
        assert parse_result_line("REOF q3 12") == ("q3", 12, None)

    @pytest.mark.parametrize("parts", [
        ["not-an-int"],
        ["1", "2", "3"],
        ["x", "2", "0", "[1]"],
        ["1", "2", "{bad", "[1]"],
    ])
    def test_decode_rejects_malformed_frames(self, parts):
        with pytest.raises(ServeProtocolError):
            decode_data_frame(parts)

    @pytest.mark.parametrize("key", ["a b", " ", "a\tb c", ("x y", 1)])
    def test_a_key_with_a_space_round_trips(self, key):
        event = Event(0, 10, key, 2)
        line = result_line("q1", 3, event)
        assert len(line.split(" ")) == 7  # the key is one field
        assert repr(parse_result_line(line)[2]) == repr(event)

    def test_int_keys_are_unchanged_on_the_wire(self):
        assert result_line("q1", 3, Event(0, 10, -7, (2, 3))) == \
            "RESULT q1 3 0 10 -7 [2,3]"

    @settings(max_examples=300, deadline=None)
    @given(key=_RESULT_VALUES, payload=_RESULT_VALUES)
    def test_result_line_renders_as_json_did(self, key, payload):
        """``str()`` for an int key or payload gives the bytes the JSON
        path gave, and every other value still takes that path."""
        event = Event(3, 7, key, payload)
        line = result_line("q1", 9, event)
        key_json = _dumps(_jsoned(key)).replace(" ", "\\u0020")
        assert line == (f"RESULT q1 9 3 7 {key_json} "
                        f"{_dumps(_jsoned(payload))}")
        assert repr(parse_result_line(line)) == repr(("q1", 9, event))

    @pytest.mark.parametrize("line", [
        'RESULT q1 3 0 10 "a b" 2',     # an unescaped space in the key
        "RESULT q1 x 0 10 0 2",
        "RESULT q1 3 0 10 {bad 2",
        "RESULT q1 3 0 10 0 [2",
        "RPUNCT q1 3 x",
        "REOF q1 y",
        "RESULT q1 3",
        "HELLO",
    ])
    def test_a_malformed_result_line_fails_typed(self, line):
        with pytest.raises(ServeProtocolError):
            parse_result_line(line)


# -- decode + journal differential --------------------------------------------

def _oracle_tupled(value):
    if isinstance(value, list):
        return tuple(_oracle_tupled(v) for v in value)
    return value


def _oracle_decode(parts):
    """The line-at-a-time ``decode_data_frame``, kept verbatim as the
    reference the decoder must agree with."""
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
        key = _oracle_tupled(json.loads(parts[2]))
        payload = _oracle_tupled(json.loads(parts[3]))
    except (ValueError, json.JSONDecodeError) as exc:
        raise ServeProtocolError(f"unparseable event frame: {exc}") from None
    return Event(sync, other, key, payload)


def _outcome(decode, parts):
    """``(repr, None)`` for an accepted tail, ``(None, message)`` for a
    rejected one."""
    try:
        return repr(decode(list(parts))), None
    except ServeProtocolError as exc:
        return None, str(exc)


_WS = st.sampled_from(["", " ", "\t", "\r", " \t "])
_INT_TEXT = st.one_of(
    st.integers(-10**12, 10**12).map(str),
    st.sampled_from([
        "007", "+5", "1_0", " 5", "\t5", "5\t", "-0", "1.5", "1e3", "0x10",
        "NaN", "x", "", "\u0663", "\u00b2",
    ]),
)
# No lone surrogates: the server decodes wire bytes with "replace".
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)
_JSON_VALUE = st.recursive(
    st.one_of(
        st.integers(-10**9, 10**9),
        st.none(), st.booleans(), st.floats(), _TEXT,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=2),
    ),
    max_leaves=8,
)


@st.composite
def _json_text(draw):
    """JSON text as a shipper might write it — spaced, tabbed, CR-laden,
    torn, or not JSON at all."""
    value = draw(_JSON_VALUE)
    sep = draw(st.sampled_from([(",", ":"), (", ", ": "), (",\t", ":")]))
    body = json.dumps(value, separators=sep, ensure_ascii=draw(st.booleans()))
    text = draw(_WS) + body + draw(_WS)
    mutation = draw(st.sampled_from(["none"] * 6 + ["torn", "swap"]))
    if mutation == "torn":
        text = text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    elif mutation == "swap":
        text = draw(st.sampled_from([
            "NaN", "Infinity", "-Infinity", "01", "+5", "1_0", "[1,]",
            "[1] x", "[1]]", "\ufeff1", "'a'", "[NaN, 1]",
        ]))
    return text


_TAILS = st.one_of(
    st.tuples(_INT_TEXT),                                      # PUNCT
    st.tuples(_INT_TEXT, _INT_TEXT, _json_text(), _json_text()),  # EVENT
    st.lists(st.one_of(_INT_TEXT, _json_text()), max_size=6),  # any arity
)


@st.composite
def _read_line(draw):
    """One line of a read: an ``EVENT`` tail, a hostile tail, or another
    command (a payload with spaces among them)."""
    kind = draw(st.sampled_from(["event", "event", "hostile", "other"]))
    if kind == "other":
        return draw(st.sampled_from([
            "PUNCT 3 4", "END x", "EVENT", "EVENTX 1", "EVENT 1 2",
            "EVENT 0 1 2 0 [1, 2]", "EVENT 0 1 2 0 [1, 2] ",
            "EVENT 0 1 2 0 {\"a\": [1, \"b c\"]}", " EVENT 0 1 2 0 1",
        ]))
    tail = draw(st.tuples(_INT_TEXT, _INT_TEXT, _json_text(), _json_text())
                if kind == "event" else _TAILS)
    return " ".join(["EVENT", draw(_INT_TEXT), *tail])


def _loaded(journal):
    """What ``journal.load()`` yields, one ``(offset, repr)`` per line:
    ``None`` stands for ``END``."""
    out = []
    for offset, record in journal.load():
        if isinstance(record, EventRun):
            assert record.offsets == list(
                range(offset, offset + len(record)))
            out += zip(record.offsets, map(repr, record.events()))
        else:
            out.append((offset, None if record is None else repr(record)))
    return out


def _journal_bytes(journal):
    """What ``journal`` wrote; a journal that wrote nothing may have no
    file."""
    if not os.path.exists(journal.path):
        return b""
    with open(journal.path, "rb") as fh:
        return fh.read()


def _oracle_run_row(split):
    """The event the line-at-a-time path decodes from ``split`` (a line's
    ``split(" ", 5)``), or ``None`` when a run must not take the line:
    that path refuses it, or reads a JSON field only past surrounding
    whitespace, which the C scanner does not skip."""
    if len(split) != 6 or split[0] != "EVENT":
        return None
    try:
        int(split[1])
        event = _oracle_decode(split[2:])
    except (ValueError, ServeProtocolError):
        return None
    if any(text != text.strip(" \t\n\r") for text in split[4:]):
        return None
    return event


#: Number texts the byte scan must decline or read as the scanner does.
_NUMBER_MUTATIONS = [
    "007", "00", "-0", "+1", "1_0", "9" * 18, "-" + "9" * 18,
    "1" + "0" * 18, "1" + "0" * 19, str(2**63), str(-2**63),
    str(2**63 - 1), "1.0", "1e3", "\u0663", '"k"', "-", "--1", "1-2", "",
    " 1", "1\t", "1\r",
]
_PAYLOAD_MUTATIONS = ["[]", "[1, 2]", "[1,2,3]", "[1,,2]", "[,1]", "[1,]",
                      "[1,02]", "[1.0]", "[\t1]", "[1]\r", "[[1]]", "1",
                      "[-]", "-[]", "-[1]", "[1]-", "[1,-]"]
_CANONICAL = st.one_of(
    st.integers(-10, 10**6), st.integers(-10**18 + 1, 10**18 - 1))


@st.composite
def _integer_run(draw):
    """Lines of the byte scan's strict shape, one payload arity, each
    carrying at most one mutated field or one character inserted after
    ``EVENT ``."""
    arity = draw(st.integers(0, 3))
    lines = []
    for offset in range(draw(st.integers(1, 10))):
        fields = ["EVENT", str(offset)] + [
            str(draw(_CANONICAL)) for _ in range(3)]
        payload = [str(draw(_CANONICAL)) for _ in range(arity)]
        fields.append("[" + ",".join(payload) + "]")
        kind = draw(st.sampled_from(["none"] * 4 + ["head", "payload",
                                                    "char"]))
        if kind == "head":
            fields[draw(st.integers(1, 4))] = draw(
                st.sampled_from(_NUMBER_MUTATIONS))
        elif kind == "payload" and arity and draw(st.booleans()):
            payload[draw(st.integers(0, arity - 1))] = draw(
                st.sampled_from(_NUMBER_MUTATIONS))
            fields[5] = "[" + ",".join(payload) + "]"
        elif kind == "payload":
            fields[5] = draw(st.sampled_from(_PAYLOAD_MUTATIONS))
        line = " ".join(fields)
        if kind == "char":
            at = draw(st.integers(6, len(line)))
            line = line[:at] + draw(st.sampled_from("-0 ,[]")) + line[at:]
        lines.append(line)
    return lines


def _assert_scans_alike(lines, start):
    """``decode_event_run(lines, start)`` against the scanner path."""
    run = decode_event_run(lines, start)
    want = _scan_run(lines[start:])
    want.wire = lines[start:start + len(want)]
    assert run.wire == want.wire
    assert run.offsets == want.offsets
    assert [repr(e) for e in run.events()] == \
        [repr(e) for e in want.events()]
    fresh = decode_event_run(lines, start)  # payloads not yet read
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for name, got in (("want", want), ("run", run), ("fresh", fresh)):
            for kind, wire in (("wire", got.wire), ("values", None)):
                journal = TenantJournal(os.path.join(tmp, name + kind))
                got.wire = wire
                journal.append_events(got)
                journal.close()
                written.append(_journal_bytes(journal))
        assert written[2:] == written[:2] * 2


class TestDecodeJournalDifferential:
    @settings(max_examples=400, deadline=None)
    @given(parts=_TAILS)
    def test_decode_and_journal_agree_with_the_oracle(self, parts):
        want = _outcome(_oracle_decode, parts)
        assert _outcome(decode_data_frame, parts) == want
        if want[0] is None:
            return
        element = decode_data_frame(list(parts))
        with tempfile.TemporaryDirectory() as tmp:
            journal = TenantJournal(os.path.join(tmp, "journal-t.jsonl"))
            if isinstance(element, Punctuation):
                journal.append_punctuation(element.timestamp)
            else:
                line = " ".join(["EVENT", "0", *parts])
                if line.split(" ", 5)[2:] == list(parts):  # a line's fields
                    journal.append_event(element, line)    # as received
                journal.append_event(element)              # rendered
            journal.commit()
            loaded = _loaded(TenantJournal(journal.path))
            journal.close()
            with open(journal.path, "rb") as fh:
                assert fh.read().isascii()
        assert loaded and loaded == list(enumerate([want[0]] * len(loaded)))

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(_read_line(), min_size=1, max_size=8),
           data=st.data())
    def test_the_run_decoder_takes_only_what_lines_take(self, lines, data):
        """The run from ``start`` is the longest stretch of lines the
        line-at-a-time path decodes, each line alone and with its JSON
        fields filling them; a row holds what that path decodes from its
        line and journals the same bytes, and a line that path refuses
        is never a row."""
        start = data.draw(st.integers(0, len(lines)))
        run = decode_event_run(lines, start)
        want = []
        for line in lines[start:]:
            split = line.split(" ", 5)
            event = _oracle_run_row(split)
            if event is None:
                break
            want.append((int(split[1]), event, line))
        assert run.offsets == [offset for offset, _, _ in want]
        assert [repr(e) for e in run.events()] == \
            [repr(event) for _, event, _ in want]
        with tempfile.TemporaryDirectory() as tmp:
            runs = TenantJournal(os.path.join(tmp, "journal-r.jsonl"))
            one = TenantJournal(os.path.join(tmp, "journal-l.jsonl"))
            assert runs.append_events(run) == 0
            for _, event, line in want:
                one.append_event(event, line)
            for journal in (runs, one):
                journal.close()
            assert _journal_bytes(runs) == _journal_bytes(one)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_byte_scan_agrees_with_the_scanner_path(self, data):
        """Runs of canonical integer lines, each with at most one field
        mutated, decode as the scanner path decodes them: same rows,
        events, wire lines, and journal bytes as received and as
        rendered from the values (which reads the payloads)."""
        lines = data.draw(_integer_run())
        start = data.draw(st.integers(0, len(lines) - 1))
        _assert_scans_alike(lines, start)

    @pytest.mark.parametrize("field,text,strict,payload", [
        (*case, "[{o},5]") for case in [
        (1, "007", 1), (2, "-0", 3), (2, "+1", 1), (3, "1_0", 1),
        (2, "9" * 18, 3), (2, "-" + "9" * 18, 3), (2, "1" + "0" * 18, 1),
        (4, "1" + "0" * 19, 1), (2, str(2**63), 1), (2, str(-2**63), 1),
        (5, "[]", 1), (5, "[1, 2]", 1), (5, "[1,2,3]", 1), (5, "[7]", 1),
        (3, "1\t", 1), (5, "[1,2]\r", 1), (2, "1.0", 1), (4, "1e3", 1),
        (2, "\u0663", 1), (4, '"k"', 1), (4, "-", 1), (4, "--1", 1),
        (4, "1-2", 1), (5, "[1,,2]", 1), (5, "[1,02]", 1), (4, "", 1),
        (5, "-[1,5]", 1), (5, "[1,5]-", 1), (5, "[-,5]", 1),
    ]] + [
        (5, "[-]", 1, "[]"), (5, "-[]", 1, "[]"), (5, "[]-", 1, "[]"),
        (5, "-[5]", 1, "[{o}]"), (5, "[5]-", 1, "[{o}]"),
    ])
    def test_each_mutation_is_taken_or_declined(self, field, text, strict,
                                                payload):
        """One line of three carries the mutation: the byte scan takes
        the rows before it, or all three when the line is still in the
        strict shape, and the run decodes as the scanner path does.
        ``payload`` is the lines' payload, as a format of ``o``."""
        lines = [f"EVENT {o} {o} {o + 1} {o} " + payload.format(o=o)
                 for o in range(3)]
        fields = lines[1].split(" ")
        fields[field] = text
        lines[1] = " ".join(fields)
        assert len(_strict_run(lines)) == strict
        _assert_scans_alike(lines, 0)

    def test_a_json_array_journal_is_refused(self, tmp_path):
        """A journal in the JSON-array grammar of earlier releases, even
        of one line, is refused at line 1 rather than truncated."""
        path = tmp_path / "journal-t1.jsonl"
        path.write_text('["e",0,1,2,0,[1]]\n')
        runtime = TenantRuntime("t1", str(tmp_path), QuarantineLedger())
        with pytest.raises(ServeProtocolError, match=f"{path}:1: "):
            runtime.recover({})
        assert path.read_text() == '["e",0,1,2,0,[1]]\n'


# -- run vs line differential ------------------------------------------------

class _Wire:
    """A stand-in ``StreamWriter`` that keeps the lines written to it."""

    def __init__(self):
        self.lines = []

    def write(self, data):
        self.lines.extend(data.decode().splitlines())

    async def drain(self):
        pass

    def close(self):
        pass


def _line_accept_event(runtime, offset, event, wire=None):
    """``TenantRuntime.accept_event`` as it was before runs, kept as the
    reference :meth:`TenantRuntime.accept_events` must agree with;
    ``wire`` is the received line."""
    if runtime._dedup(offset):
        return False
    runtime.journal.append_event(event, wire)
    if event.sync_time > runtime._high:
        runtime._high = event.sync_time
    for query in runtime.queries.values():
        query.push_event(event)
    runtime._check_quota()
    return True


class _LineServer(ReproServer):
    """The server applying a read one line at a time, with the ``EVENT``
    branch of ``_process`` kept from before runs."""

    async def _apply(self, name, lines, writer):
        pending = False  # events accepted since the last pump
        for line in lines:
            if pending and not line.startswith("EVENT "):
                pending = False
                await self._pump_guarded(name)
            try:
                if await self._process(name, line, writer):
                    pending = True
            except Exception:
                pass

        if pending:
            await self._pump_guarded(name)

    async def _process(self, name, line, writer):
        parts = line.split(" ", 5)
        if parts[0] != "EVENT":
            return await super()._process(name, line, writer)
        runtime = self.tenants[name]
        try:
            offset = self._offset(runtime, parts[1])
            event = _oracle_decode(parts[2:])
            if isinstance(event, Punctuation):
                raise ServeProtocolError(
                    "EVENT frame has the wrong number of fields")
        except (ServeProtocolError, IndexError) as exc:
            runtime.quarantine(runtime.journal.length, line, str(exc))
            return False
        wire = line if offset == int(parts[1]) else None  # not an append
        try:
            return _line_accept_event(runtime, offset, event, wire)
        except ServeProtocolError as exc:
            await self._pump_guarded(name)
            self._reply(writer, f"ERR gap {exc}")
            return False


def _observed(server, wire):
    """Everything a read can change, as comparable values."""
    runtime = server.tenants["t"]
    runtime.journal.commit()
    return {
        "journal": _journal_bytes(runtime.journal),
        "length": runtime.journal.length,
        "counters": dict(runtime.counters),
        "watermark": runtime.watermark,
        "ledger": [(e.reason, repr(e.element), e.context)
                   for e in server.ledger.entries],
        "replies": list(wire.lines),
        "queries": {
            qid: ([repr(e) for e in query.results], query.digest(),
                  query.lags, query.completed, query.engine,
                  query.row_reason)
            for qid, query in runtime.queries.items()
        },
    }


#: Values at and past the int64 edges the compiled columns guard.
_EDGES = st.sampled_from([
    2 ** 63 - 1, 2 ** 63, -2 ** 63 + 1, -2 ** 63, -2 ** 63 - 1, 2 ** 64,
])
_SYNCS = st.one_of(st.integers(0, 60), st.integers(0, 60), _EDGES)
_KEYS = st.one_of(
    st.integers(0, 3), st.integers(0, 3), _EDGES,
    st.sampled_from(["a", "a b", "\u00e9", True, None, [1, "x y"]]),
)
#: Lowered (compiled) specs and one the row engine runs.
_RUN_SPECS = [
    "window=4|sort=drop|group-count",
    "hop=6/2|sort=adjust|count",
    "where=sync>3|window=8|sort|count",
]


@st.composite
def _read(draw, base, high):
    """One socket read's lines, offsets guessed from journal length
    ``base``; returns ``(lines, high)``, ``high`` the last sync seen."""
    lines = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(
            ["event"] * 8 + ["hostile", "punct", "other"]))
        offset = draw(st.sampled_from(
            [base] * 6 + [-1, -1, base - 1, base - 3, base + 1, base + 2]))
        if kind == "punct":
            lines.append(f"PUNCT {offset} {high + draw(st.integers(-3, 8))}")
        elif kind == "hostile":
            tail = draw(_TAILS)
            lines.append(" ".join(["EVENT", str(offset), *tail]))
        elif kind == "other":
            lines.append(draw(st.sampled_from(
                ["FOO 1", "UNSUB nope", "END x", "EVENT"])))
            continue
        else:
            sync = draw(_SYNCS)
            key = json.dumps(draw(_KEYS), separators=(",", ":"))
            key = key.replace(" ", "\\u0020")
            payload = draw(st.one_of(
                st.just(f"[{sync}]"), st.just("[1, [2, 3]]"), _json_text()))
            lines.append(f"EVENT {offset} {sync} {sync + 1} {key} {payload}")
            if 0 <= sync <= 60:
                high = max(high, sync)
        base += 1
    return lines, high


class TestRunLineDifferential:
    """The server applying a read's ``EVENT`` runs as units, and saving
    once per read, against the line-at-a-time server it replaced, which
    saves and acks at every ``PUNCT``: same journal bytes, ledger,
    counters, replies and per-query results, engines and demotions.
    With ``subscribed`` the ingest connection also takes ``q0``'s
    results, so they interleave with its ``IOFF`` lines."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           specs=st.lists(st.sampled_from(_RUN_SPECS), min_size=1,
                          max_size=3, unique=True),
           quota=st.sampled_from([None, 6, 12]),
           trial=st.sampled_from([None, (3, 3)]),
           subscribed=st.booleans())
    def test_runs_apply_as_lines_do(self, data, specs, quota, trial,
                                    subscribed):
        rounds, min_chunk = trial or (standing._TRIAL_ROUNDS, 0)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
                standing, _TRIAL_ROUNDS=rounds, _MIN_CHUNK=min_chunk):
            asyncio.run(self._differential(data, tmp, specs, quota,
                                           subscribed))

    async def _differential(self, data, tmp, specs, quota, subscribed):
        servers = []
        for kind in (_LineServer, ReproServer):
            server = kind(os.path.join(tmp, kind.__name__), quota=quota)
            runtime = server._tenant("t")
            server._consumers["t"].cancel()
            for index, spec in enumerate(specs):
                runtime.subscribe(f"q{index}", spec)
            wire = _Wire()
            if subscribed:
                server.subs["t"].append(_Subscriber(wire, "q0", 0))
            servers.append((server, runtime, wire))
        high = 0
        for _ in range(data.draw(st.integers(1, 6))):
            lines, high = data.draw(_read(servers[0][1].journal.length, high))
            for server, _, wire in servers:
                await server._apply("t", lines, wire)
            want, got = (_observed(server, wire)
                         for server, _, wire in servers)
            assert got == want
        for server, runtime, wire in servers:
            await server._apply("t", [f"END {runtime.journal.length}"], wire)
            runtime.close()
        want, got = (_observed(server, wire) for server, _, wire in servers)
        assert got == want


def _bare_server(data_dir):
    """A server with tenant ``t`` whose queue nobody consumes: the test
    calls ``_apply`` itself.  Needs a running event loop."""
    server = ReproServer(data_dir)
    server._tenant("t")
    server._consumers["t"].cancel()
    return server


def _events(first, k):
    """``k`` in-order ``EVENT`` lines from offset ``first``."""
    return [f"EVENT {o} {o} {o + 1} 0 [{o}]" for o in range(first, first + k)]


class _FillingFile:
    """A file whose first write takes ``room`` bytes and whose next one
    raises, as a disk that fills mid-write."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        if self.room is None:
            raise OSError("disk full")
        room, self.room = self.room, None
        return self.fh.write(data[:room])

    def fileno(self):
        return self.fh.fileno()


def _killed(server):
    """What ``kill -9`` leaves of ``server``: its committed journal
    lines.  Nothing is buffered, so closing the file writes nothing."""
    journal = server.tenants["t"].journal
    assert journal._pending == 0
    journal.close()


def _served(query):
    """What a standing query delivered, as comparable values."""
    return [repr(e) for e in query.results], query.delivered, query.digest()


class TestDurabilityPoint:
    """Each ``PUNCT``/``END`` is acked at its own line, once its journal
    commit and pump are done; a queue item then saves state once, after
    its last line, if it applied any line other than an accepted event.
    The journal, not ``state.json``, holds what an ``IOFF`` promises."""

    def _apply(self, tmp_path, *items, failing=0):
        """``(saves, accepts, replies)`` after each of ``items`` (lists
        of lines) in turn: the replies written before each save, those
        written when each ``PUNCT``/``END`` was accepted, and every
        reply.  The first ``failing`` saves raise."""
        saves, accepts = [], []
        wire = _Wire()

        def record(data_dir, doc):
            saves.append(list(wire.lines))
            if len(saves) <= failing:
                raise OSError("disk full")
            save_state(data_dir, doc)

        def spy(accept):
            def spied(runtime, *args):
                accepts.append(list(wire.lines))
                return accept(runtime, *args)
            return spied

        async def go():
            server = _bare_server(tmp_path)
            runtime = server.tenants["t"]
            runtime.subscribe("q", "window=4|sort|count")
            with mock.patch("repro.serve.server.save_state", record), \
                    mock.patch.multiple(
                        TenantRuntime,
                        accept_punctuation=spy(
                            TenantRuntime.accept_punctuation),
                        accept_end=spy(TenantRuntime.accept_end)):
                for lines in items:
                    await server._apply("t", lines, wire)
            runtime.close()

        asyncio.run(go())
        return saves, accepts, wire.lines

    def test_each_ioff_leaves_at_its_line_before_the_one_save(
            self, tmp_path):
        k = 5
        lines = [*_events(0, k), f"PUNCT {k} {k}",
                 *_events(k + 1, k), f"PUNCT {2 * k + 1} {2 * k + 1}",
                 f"END {2 * k + 2}"]
        saves, accepts, replies = self._apply(tmp_path, lines)
        acks = [f"IOFF {k + 1}", f"IOFF {2 * k + 2}", f"IOFF {2 * k + 3}"]
        assert accepts == [[], acks[:1], acks[:2]]
        assert saves == [acks]
        assert replies == acks
        state = load_state(tmp_path)["tenants"]["t"]
        assert state["journal"] == 2 * k + 3

    def test_an_ioff_goes_out_before_a_later_err_gap(self, tmp_path):
        saves, _, replies = self._apply(
            tmp_path, ["PUNCT 0 5", "EVENT 7 6 7 0 [1]"])
        assert replies[0] == "IOFF 1"
        assert replies[1].startswith("ERR gap ")
        assert len(replies) == 2
        assert saves == [replies]

    def test_an_ioff_goes_out_before_a_later_ok_sub(self, tmp_path):
        saves, _, replies = self._apply(
            tmp_path, ["PUNCT 0 5", "SUB q2 window=4|sort|count"])
        assert replies == ["IOFF 1", "OK sub q2"]
        assert saves == [replies]

    def test_a_failed_save_still_acks_and_the_next_item_runs(
            self, tmp_path):
        saves, _, replies = self._apply(
            tmp_path, ["PUNCT 0 5", "EVENT 1 6 7 0 [1]"], ["PUNCT 2 7"],
            failing=1)
        assert saves == [["IOFF 1"], ["IOFF 1", "IOFF 3"]]
        assert replies == ["IOFF 1", "IOFF 3"]
        assert load_state(tmp_path)["tenants"]["t"]["journal"] == 3

    def test_a_failed_journal_commit_acks_nothing(self, tmp_path):
        def commit(journal):
            raise OSError("disk full")

        with mock.patch.object(TenantJournal, "commit", commit):
            saves, accepts, replies = self._apply(tmp_path, ["PUNCT 0 5"])
        assert accepts == [[]]
        assert replies == []
        assert saves == []  # the save commits the journals first

    def test_ok_sub_is_durable_before_any_punct(self, tmp_path):
        """A ``SUB`` item saves state, so a crash after it and three
        events, before any ``PUNCT``, recovers the query at origin 0,
        and its results equal a no-crash run's."""
        sub = ["SUB q window=4|sort|count"]
        tail = ["PUNCT 3 3", "END 4"]

        async def go(data_dir, crash):
            server = _bare_server(data_dir)
            for lines in (sub, _events(0, 3)):
                await server._apply("t", lines, _Wire())
            if crash:
                _killed(server)
                server = ReproServer(data_dir)
                server._recover()
                server._consumers["t"].cancel()
                query = server.tenants["t"].queries.get("q")
                assert query is not None, "the subscription was lost"
                assert query._origin == 0
            await server._apply("t", tail, _Wire())
            server.tenants["t"].close()
            return _served(server.tenants["t"].queries["q"])

        crashed = asyncio.run(go(tmp_path / "crashed", True))
        assert crashed == asyncio.run(go(tmp_path / "clean", False))

    def test_a_crash_between_an_ioff_and_the_next_save(self, tmp_path):
        """The item that acks ``PUNCT`` 11 and 15 fails its save and the
        server dies: a fresh one resumes at the last ``IOFF``, verifies
        the replay against the earlier save, and finishes with the
        results and digest of a run that never crashed."""
        items = [
            ["SUB q window=4|sort|count"],
            [*_events(0, 5), "PUNCT 5 5"],
            [*_events(6, 5), "PUNCT 11 11", *_events(12, 3), "PUNCT 15 14"],
        ]
        rest = [*_events(16, 4), "PUNCT 20 19", "END 21"]

        def failing(data_dir, doc):
            raise OSError("disk full")

        async def go(data_dir, crash):
            server, wire = _bare_server(data_dir), _Wire()
            for lines in items[:-1]:
                await server._apply("t", lines, wire)
            with mock.patch("repro.serve.server.save_state",
                            failing if crash else save_state):
                await server._apply("t", items[-1], wire)
            if crash:
                assert [line for line in wire.lines
                        if line.startswith("IOFF ")] == [
                    "IOFF 6", "IOFF 12", "IOFF 16"]
                saved = load_state(data_dir)["tenants"]["t"]
                assert saved["journal"] == 6
                assert saved["queries"]["q"]["delivered"] > 0
                _killed(server)
                server = ReproServer(data_dir)
                server._recover()  # raises if the replay diverges
                server._consumers["t"].cancel()
                hello = _Wire()
                await server._hello(["HELLO", "t"], hello)
                assert hello.lines == ["OK tenant=t journal=16"]
            await server._apply("t", rest, _Wire())
            server.tenants["t"].close()
            return _served(server.tenants["t"].queries["q"])

        crashed = asyncio.run(go(tmp_path / "crashed", True))
        assert crashed == asyncio.run(go(tmp_path / "clean", False))

    def test_an_events_only_item_that_sheds_saves_its_counters(
            self, tmp_path):
        """A ``quota=5`` tenant takes 20 append-offset events in one
        item and sheds: the item saves, so a server started after
        ``kill -9`` recovers the ``shed`` count with the journal."""
        async def go():
            server = ReproServer(tmp_path, quota=5)
            server._tenant("t")
            server._consumers["t"].cancel()
            server.tenants["t"].subscribe("q", "window=4|sort|count")
            await server._apply("t", [f"EVENT -1 {o} {o + 1} 0 [{o}]"
                                      for o in range(20)], _Wire())
            counters = dict(server.tenants["t"].counters)
            _killed(server)
            fresh = ReproServer(tmp_path, quota=5)
            fresh._recover()
            fresh._consumers["t"].cancel()
            return counters, fresh.tenants["t"]

        counters, recovered = asyncio.run(go())
        assert counters["shed"] > 0
        assert recovered.counters == counters
        assert recovered.journal.length == 20 + counters["shed"]
        recovered.close()

    @pytest.mark.parametrize("written", [0, 10, 50, 95])
    def test_a_punct_whose_commit_raises_leaves_no_line(self, tmp_path,
                                                        written):
        """``PUNCT 5 5`` fails its commit after ``written`` bytes reached
        the file (a disk filling mid-write; when some do, the pump before
        it failed too, so they are bytes of the five events' 90, or of
        the ``PUNCT`` line, which is cut off the file again): no
        ``IOFF``, the query never sees it, and the journal is back at 5.
        The resend is accepted, and a server started after ``kill -9``
        verifies the replay and ends as a clean run does."""
        sub = ["SUB q window=4|sort|count"]
        rest = ["PUNCT 5 5", "PUNCT 6 9", "END 7"]
        commit = TenantJournal.commit
        failures = []

        def failing_once(journal):
            if journal.length == 5 and written and not failures:
                failures.append(5)  # the pump's, before any byte
                raise OSError("disk full")
            if journal.length == 6 and 6 not in failures:  # PUNCT 5 is in
                failures.append(6)
                fh = journal._fh
                journal._fh = _FillingFile(fh, written)
                try:
                    commit(journal)
                finally:
                    journal._fh = fh
            commit(journal)

        async def go(data_dir, fail):
            server, wire = _bare_server(data_dir), _Wire()
            await server._apply("t", sub, wire)
            runtime = server.tenants["t"]
            if fail:
                with mock.patch.object(TenantJournal, "commit",
                                       failing_once):
                    await server._apply("t", [*_events(0, 5), "PUNCT 5 5"],
                                        wire)
                assert failures == [5, 6] if written else [6]
                assert not any(line.startswith("IOFF") for line in wire.lines)
                assert runtime.journal.length == 5
                assert runtime.watermark is None
                assert runtime.queries["q"]._watermark is None
                assert runtime.journal._pending == 0  # the save wrote them
                with open(runtime.journal.path) as fh:
                    assert fh.read() == "".join(
                        line + "\n" for line in _events(0, 5))
            else:
                await server._apply("t", _events(0, 5), wire)
            await server._apply("t", rest, wire)
            assert [line for line in wire.lines if line.startswith("IOFF")] \
                == ["IOFF 6", "IOFF 7", "IOFF 8"]
            _killed(server)
            fresh = ReproServer(data_dir)
            fresh._recover()  # raises if the replay diverges
            fresh._consumers["t"].cancel()
            fresh.tenants["t"].close()
            return _served(fresh.tenants["t"].queries["q"])

        failed = asyncio.run(go(tmp_path / "failed", True))
        assert failed == asyncio.run(go(tmp_path / "clean", False))


#: Journaled keys and payloads: ints, spaced and non-ASCII strings, and
#: lists of them.
_J_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=3)
_J_VALUE = st.one_of(
    st.integers(-3, 3), st.integers(), st.booleans(), st.none(), _J_TEXT,
    st.sampled_from(["a b", "\u00e9", "\u6f22 x"]),
    st.lists(st.one_of(st.integers(0, 9), _J_TEXT), max_size=3),
)


def _wire_line(offset, sync, key, payload, ascii_only, spaced):
    """An ``EVENT`` line as a client might write it."""
    key_text = json.dumps(key, separators=(",", ":"),
                          ensure_ascii=ascii_only).replace(" ", "\\u0020")
    separators = (", ", ": ") if spaced else (",", ":")
    payload_text = json.dumps(payload, ensure_ascii=ascii_only,
                              separators=separators)
    return f"EVENT {offset} {sync} {sync + 1} {key_text} {payload_text}"


@st.composite
def _journal_writes(draw):
    """Appends through the public journal API: ``[(kind, args)]``."""
    writes = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(
            ["run", "run", "wired run", "event", "wired event", "punct",
             "shed", "end"]))
        if kind.endswith("run") or kind.endswith("event"):
            rows = draw(st.lists(st.tuples(st.integers(-50, 50), _J_VALUE,
                                           _J_VALUE),
                                 min_size=1,
                                 max_size=1 if "event" in kind else 5))
            writes.append((kind, rows, draw(st.booleans()),
                           draw(st.booleans())))
        else:
            writes.append((kind, draw(st.integers(-50, 50))))
    return writes


def _write_journal(path, writes):
    """Apply ``writes``; returns each line's ``(offset, repr)``."""
    journal = TenantJournal(path)
    expected = []
    for kind, *args in writes:
        offset = journal.length
        if kind in ("punct", "shed"):
            journal.append_punctuation(args[0], forced=kind == "shed")
            expected.append((offset, repr(Punctuation(args[0]))))
            continue
        if kind == "end":
            journal.append_flush()
            expected.append((offset, None))
            continue
        rows, ascii_only, spaced = args
        events = [Event(sync, sync + 1, _oracle_tupled(key),
                        _oracle_tupled(payload))
                  for sync, key, payload in rows]
        expected += enumerate(map(repr, events), offset)
        lines = [_wire_line(offset + row, sync, key, payload, ascii_only,
                            spaced)
                 for row, (sync, key, payload) in enumerate(rows)]
        if kind == "wired event":
            journal.append_event(events[0], lines[0])
        elif kind == "event":
            journal.append_event(events[0])
        elif kind == "wired run":
            run = decode_event_run(lines)
            assert len(run) == len(rows)
            journal.append_events(run)
        else:
            journal.append_events(EventRun(
                list(range(offset, offset + len(rows))),
                *map(list, zip(*[(e.sync_time, e.other_time, e.key, e.payload)
                                 for e in events]))))
    journal.close()
    return expected


def _load_outcome(path):
    """``(records, error)``: what ``load()`` yields of the journal at
    ``path``, one ``(offset, repr)`` per line, and the message of the
    :class:`ServeProtocolError` it raised, or ``None``."""
    journal, records = TenantJournal(path), []
    try:
        for offset, record in journal.load():
            if isinstance(record, EventRun):
                assert record.offsets == list(
                    range(offset, offset + len(record)))
                records += zip(record.offsets, map(repr, record.events()))
            else:
                records.append(
                    (offset, None if record is None else repr(record)))
    except ServeProtocolError as exc:
        return records, str(exc)
    return records, None


def _line_reference(data):
    """``(records, bad line)`` a line-at-a-time reading of journal bytes
    gives: each complete line decoded alone by the live line decoder,
    up to the first that is not ASCII, not a journal line, or not at
    its own offset."""
    records = []
    lines = data[:data.rfind(b"\n") + 1].split(b"\n")[:-1]
    for index, raw in enumerate(lines):
        try:
            parts = raw.decode("ascii").split(" ", 5)
            word = parts[0]
            if (len(parts) != {"EVENT": 6, "PUNCT": 3, "SHED": 3,
                               "END": 2}.get(word)
                    or int(parts[1]) != index):
                return records, index + 1
            element = None if word == "END" else decode_data_frame(parts[2:])
        except (ValueError, RecursionError):
            return records, index + 1
        records.append((index, None if element is None else repr(element)))
    return records, None


class TestJournal:
    def test_append_and_load_round_trip(self, tmp_path):
        journal = TenantJournal(tmp_path / "journal-t.jsonl")
        journal.append_event(Event(1, 2, 0, (5,)))
        journal.append_punctuation(1)
        journal.append_punctuation(3, forced=True)
        journal.append_flush()
        journal.close()
        assert (tmp_path / "journal-t.jsonl").read_text() == (
            "EVENT 0 1 2 0 [5]\nPUNCT 1 1\nSHED 2 3\nEND 3\n")

        fresh = TenantJournal(tmp_path / "journal-t.jsonl")
        assert _loaded(fresh) == [
            (0, repr(Event(1, 2, 0, (5,)))), (1, repr(Punctuation(1))),
            (2, repr(Punctuation(3))), (3, None),
        ]
        assert fresh.length == 4

    def test_load_from_a_start_line_skips_earlier_lines_undecoded(
            self, tmp_path):
        path = tmp_path / "journal-t.jsonl"
        path.write_text("not a line\nPUNCT 1 5\nEND 2\n")
        journal = TenantJournal(path)
        assert [(offset, repr(record)) for offset, record in
                journal.load(start=1)] == [(1, "Punctuation(5)"), (2, "None")]
        assert journal.length == 3

    def test_torn_trailing_line_is_truncated(self, tmp_path):
        path = tmp_path / "journal-t.jsonl"
        journal = TenantJournal(path)
        journal.append_event(Event(1, 2, 0, (1,)))
        journal.append_punctuation(1)
        journal.close()
        with open(path, "a") as fh:
            fh.write("EVENT 2 9 10 0 [9")  # torn mid-append by the crash

        fresh = TenantJournal(path)
        assert [offset for offset, _ in _loaded(fresh)] == [0, 1]
        assert fresh.length == 2
        # The torn bytes are gone: appends continue from a clean tail.
        fresh.append_event(Event(9, 10, 0, (9,)))
        fresh.close()
        assert _loaded(TenantJournal(path))[-1] == \
            (2, repr(Event(9, 10, 0, (9,))))

    @pytest.mark.parametrize("torn", [
        b"EVENT 2 9 10",
        'EVENT 2 9 10 "\u00e9'.encode()[:-1],  # cut inside the character
    ], ids=["ascii", "mid-character"])
    def test_non_ascii_wire_text_and_a_torn_tail(self, tmp_path, torn):
        """A received line carrying raw UTF-8 is journaled as ASCII, and
        a torn tail — even one cut inside a UTF-8 sequence — is truncated
        at its byte offset, leaving every committed line intact."""
        path = tmp_path / "journal-t.jsonl"
        journal = TenantJournal(path)
        journal.append_event(Event(1, 2, "\u00e9", ("\u00e8",)),
                             'EVENT 0 1 2 "\u00e9" ["\u00e8"]')
        journal.append_punctuation(1)
        journal.close()
        with open(path, "rb") as fh:
            assert fh.read().isascii()
        with open(path, "ab") as fh:
            fh.write(torn)

        fresh = TenantJournal(path)
        assert [offset for offset, _ in _loaded(fresh)] == [0, 1]
        fresh.append_event(Event(9, 10, "\u00e9", (9,)),
                           'EVENT 2 9 10 "\u00e9" [9]')
        fresh.close()
        assert _loaded(TenantJournal(path)) == [
            (0, repr(Event(1, 2, "\u00e9", ("\u00e8",)))),
            (1, repr(Punctuation(1))),
            (2, repr(Event(9, 10, "\u00e9", (9,)))),
        ]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal-t.jsonl"
        path.write_text("EVENT 0 1 2 0 [1]\ngarbage\nPUNCT 2 5\n")
        with pytest.raises(ServeProtocolError, match=f"{path}:2: "):
            list(TenantJournal(path).load())

    def test_a_damaged_complete_last_line_raises(self, tmp_path):
        """Only an unterminated fragment is a torn append: a complete
        last line that does not decode is damage, not truncated."""
        path = tmp_path / "journal-t.jsonl"
        journal = TenantJournal(path)
        journal.append_event(Event(1, 2, 0, (1,)))
        journal.append_punctuation(1)
        journal.append_punctuation(2)
        journal.close()
        data = path.read_bytes()
        third = data.rindex(b"\n", 0, len(data) - 1) + 1
        damaged = data[:third] + b"#" + data[third + 1:]
        path.write_bytes(damaged)
        with pytest.raises(ServeProtocolError, match=f"{path}:3: "):
            list(TenantJournal(path).load())
        assert path.read_bytes() == damaged

    @settings(max_examples=300, deadline=None)
    @given(writes=_journal_writes(), data=st.data())
    def test_a_damaged_journal_loads_its_prefix_or_raises(self, writes,
                                                          data):
        """Written through the public appends and then truncated at any
        byte, a byte flipped, or a line dropped or duplicated, a journal
        loads exactly its complete lines up to the damage — what the
        line decoder gives each one alone — truncating an unterminated
        tail, or raises :class:`ServeProtocolError` naming the damaged
        line; and a second load agrees."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "journal-t.jsonl")
            expected = _write_journal(path, writes)
            with open(path, "rb") as fh:
                original = fh.read()
            assert original.isascii()
            lines = original.split(b"\n")[:-1]
            assert len(lines) == len(expected)
            mode = data.draw(st.sampled_from(
                ["none", "truncate", "flip", "drop", "dup"]))
            damaged = original
            if mode == "truncate":
                damaged = original[:data.draw(st.integers(0, len(original)))]
            elif mode == "flip":
                at = data.draw(st.integers(0, len(original) - 1))
                damaged = bytearray(original)
                damaged[at] ^= data.draw(st.integers(1, 255))
                damaged = bytes(damaged)
            elif mode in ("drop", "dup"):
                at = data.draw(st.integers(0, len(lines) - 1))
                copies = [lines[at]] * (0 if mode == "drop" else 2)
                damaged = b"".join(
                    line + b"\n" for line in lines[:at] + copies
                    + lines[at + 1:])
            with open(path, "wb") as fh:
                fh.write(damaged)

            # Runs decode in pieces of at most _RUN_LINES lines.
            with mock.patch.object(journal_module, "_RUN_LINES",
                                   data.draw(st.sampled_from([2, 4096]))):
                records, error = _load_outcome(path)
            want, bad = _line_reference(damaged)
            assert records == want
            if bad is None:
                assert error is None
            else:
                assert error.startswith(f"{path}:{bad}: ")
            # Every line still as written loads as written.
            same = 0
            while (same < min(len(lines), len(want))
                   and damaged.split(b"\n")[same] == lines[same]):
                same += 1
            assert want[:same] == expected[:same]
            if mode == "truncate":
                complete = damaged.count(b"\n")
                assert (records, error) == (expected[:complete], None)
            elif mode == "drop":
                assert records == expected[:at]
                assert (error is None) == (at == len(lines) - 1)
            elif mode == "dup":
                assert records == expected[:at + 1]
                assert error.startswith(f"{path}:{at + 2}: ")
            elif mode == "none":
                assert (records, error) == (expected, None)
            # The unterminated tail is gone, and nothing else.
            with open(path, "rb") as fh:
                assert fh.read() == damaged[:damaged.rfind(b"\n") + 1]
            assert _load_outcome(path) == (records, error)

    def test_state_round_trip_and_first_boot(self, tmp_path):
        assert load_state(tmp_path) == {}
        save_state(tmp_path, {"tenants": {"a": {"journal": 3}}})
        assert load_state(tmp_path)["tenants"]["a"]["journal"] == 3

    @pytest.mark.parametrize("text, field", [
        ('{"tenants": {"a": {"jour', "not JSON"),
        ("[1]", "the document"),
        ('{"quarantine": 5}', "quarantine"),
        ('{"tenants": {"a": {"queries": 7}}}', "tenants.a.queries"),
        ('{"tenants": {"a": {"queries": {"q": {"spec": 3}}}}}',
         "tenants.a.queries.q.spec"),
    ], ids=["truncated", "list", "quarantine-int", "queries-int",
            "spec-int"])
    def test_a_mistyped_state_file_is_refused(self, tmp_path, text, field):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(ServeProtocolError) as raised:
            load_state(tmp_path)
        assert str(raised.value).startswith(f"{path}: {field}")

    def test_a_state_file_with_quota_slots_recovers(self, tmp_path):
        """A state file written when quotas had elastic slots carries
        ``slots`` and two slot counters; recovery reads past them."""
        runtime = TenantRuntime("t", str(tmp_path), QuarantineLedger())
        runtime.subscribe("q", "window=10|sort|count")
        _feed(runtime, make_stream(n=20))
        state = runtime.as_state()
        runtime.close()
        state["slots"] = 2
        state["counters"].update(shed=3, scale_ups=4, scale_downs=2)
        save_state(tmp_path, {"tenants": {"t": state}})

        recovered = TenantRuntime("t", str(tmp_path), QuarantineLedger())
        recovered.recover(load_state(tmp_path)["tenants"]["t"])
        assert recovered.counters == {
            "quarantined": 0, "duplicates": 0, "reconnects": 0,
            "evictions": 0, "shed": 3,
        }
        assert "slots" not in recovered.as_state()
        recovered.close()


class TestStandingQuery:
    @pytest.mark.parametrize("spec", [
        "window=10|sort|group-count",
        "window=10|sort|count",
        "where=key<2|window=5|sort|group-sum=0",
    ])
    def test_byte_identical_to_batch_run(self, spec):
        elements = make_stream()
        query = StandingQuery("q", spec)
        drive(query, elements)
        reference = batch_reference(spec, elements)
        served_events = [e for e in query.results
                         if not isinstance(e, Punctuation)]
        served_puncts = [e.timestamp for e in query.results
                         if isinstance(e, Punctuation)]
        assert [repr(e) for e in served_events] == \
            [repr(e) for e in reference.events]
        assert served_puncts == reference.punctuations
        assert query.completed

    def test_verify_replay_accepts_exact_regeneration(self):
        elements = make_stream(n=30)
        first = StandingQuery("q", "window=10|sort|group-count")
        drive(first, elements)
        expected = first.as_state()

        replayed = StandingQuery("q", "window=10|sort|group-count")
        drive(replayed, elements)
        replayed.verify_replay(expected)  # must not raise

    def test_verify_replay_rejects_divergence(self):
        elements = make_stream(n=30)
        first = StandingQuery("q", "window=10|sort|group-sum=0")
        drive(first, elements)
        expected = first.as_state()

        # Forked history: every payload differs, so the sums diverge.
        forked = [Event(e.sync_time, e.other_time, e.key, (999,))
                  if not isinstance(e, Punctuation) else e
                  for e in elements]
        replayed = StandingQuery("q", "window=10|sort|group-sum=0")
        drive(replayed, forked)
        with pytest.raises(ReplayDivergenceError):
            replayed.verify_replay(expected)

    def test_verify_replay_rejects_short_replay(self):
        elements = make_stream(n=30)
        first = StandingQuery("q", "window=10|sort|group-count")
        drive(first, elements)
        expected = first.as_state()

        replayed = StandingQuery("q", "window=10|sort|group-count")
        drive(replayed, elements[: len(elements) // 3], flush=False)
        with pytest.raises(ReplayDivergenceError):
            replayed.verify_replay(expected)

    def test_delivery_lag_samples_accumulate(self):
        query = StandingQuery("q", "window=5|sort|count")
        drive(query, make_stream(n=20, punct_every=5))
        assert query.lags
        assert all(lag >= 0 for lag in query.lags)


class TestTenantRuntime:
    def _runtime(self, tmp_path, quota=None):
        ledger = QuarantineLedger(
            sidecar=os.path.join(tmp_path, "quarantine.jsonl")
        )
        return TenantRuntime("t1", str(tmp_path), ledger, quota=quota)

    def test_a_quota_below_one_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="quota must be >= 1"):
            ReproServer(tmp_path / "data", quota=0)
        assert not (tmp_path / "data").exists()

    def test_duplicate_offsets_are_dropped_and_counted(self, tmp_path):
        runtime = self._runtime(tmp_path)
        runtime.subscribe("q", "window=10|sort|count")
        event = Event(0, 1, 0, (0,))
        assert runtime.accept_event(0, event)
        assert not runtime.accept_event(0, event)
        assert runtime.counters["duplicates"] == 1
        assert runtime.journal.length == 1

    def test_events_are_group_committed_by_the_punctuation(self, tmp_path):
        runtime = self._runtime(tmp_path)
        runtime.subscribe("q", "window=10|sort|count")
        n = 25
        for i in range(n):
            assert runtime.accept_event(i, Event(i, i + 1, 0, (i,)))

        def on_disk():  # a second handle: what a kill -9 would leave
            with open(runtime.journal.path, encoding="utf-8") as fh:
                return fh.read().splitlines()

        assert on_disk() == []
        assert runtime.accept_punctuation(n, n - 1)
        assert len(on_disk()) == n + 1
        assert runtime.journal.commits == 1
        runtime.close()

    def test_offset_gap_raises(self, tmp_path):
        runtime = self._runtime(tmp_path)
        with pytest.raises(ServeProtocolError):
            runtime.accept_event(5, Event(0, 1, 0, (0,)))

    def test_quarantine_records_net_source(self, tmp_path):
        runtime = self._runtime(tmp_path)
        runtime.quarantine(7, "EVENT 7 garbage", "unparseable")
        assert runtime.counters["quarantined"] == 1
        entry = runtime.ledger.entries[-1]
        assert entry.context["source"] == "net:t1@7"

    def test_quota_breach_sheds_via_forced_punctuation(self, tmp_path):
        runtime = self._runtime(tmp_path, quota=8)
        runtime.subscribe("q", "window=100|sort|count")
        offset = 0
        for i in range(40):
            runtime.accept_event(offset, Event(i, i + 1, 0, (i,)))
            offset += 1
        assert runtime.counters["shed"] > 0
        # Forced punctuations are journaled as SHED lines...
        runtime.journal.close()
        words = [line.split(" ")[0] for line in open(runtime.journal.path)]
        assert "SHED" in words
        # ...and the shed produced early results.
        assert runtime.queries["q"].results

    def test_recovery_replays_and_verifies(self, tmp_path):
        runtime = self._runtime(tmp_path, quota=8)
        runtime.subscribe("q", "window=100|sort|count")
        offset = 0
        for i in range(40):
            runtime.accept_event(offset, Event(i, i + 1, 0, (i,)))
            offset += 1
        state = runtime.as_state()
        before = [repr(e) for e in runtime.queries["q"].results]
        runtime.close()

        # Fresh runtime, same dir: journal replay must regenerate the
        # exact result prefix — guard decisions included, replayed from
        # SHED lines rather than re-decided.
        recovered = TenantRuntime(
            "t1", str(tmp_path), QuarantineLedger(), quota=8
        )
        recovered.recover(state)
        after = [repr(e) for e in recovered.queries["q"].results]
        assert after == before
        assert recovered.journal.length == runtime.journal.length

    def test_a_query_subscribed_mid_stream_recovers(self, tmp_path):
        """A restart replays a query from the line it subscribed at, not
        from the journal's first line."""
        runtime = self._runtime(tmp_path)
        for i in range(50):
            assert runtime.accept_event(i, Event(i, i + 1, i % 3, (i,)))
        assert runtime.accept_punctuation(50, 49)
        query = runtime.subscribe("q", "window=100|sort|group-count")
        for i in range(50, 120):
            assert runtime.accept_event(i + 1, Event(i, i + 1, i % 3, (i,)))
        assert runtime.accept_punctuation(121, 119)
        state = runtime.as_state()
        live = [repr(e) for e in query.results]
        runtime.close()
        assert live

        recovered = self._runtime(tmp_path)
        recovered.recover(state)
        assert [repr(e) for e in recovered.queries["q"].results] == live

    def test_recovery_detects_forked_journal(self, tmp_path):
        runtime = self._runtime(tmp_path)
        runtime.subscribe("q", "window=10|sort|group-sum=0")
        offset = 0
        for element in make_stream(n=20, punct_every=5):
            if isinstance(element, Punctuation):
                runtime.accept_punctuation(offset, element.timestamp)
            else:
                runtime.accept_event(offset, element)
            offset += 1
        state = runtime.as_state()
        runtime.close()

        # Tamper with a journaled payload: replay must refuse to serve
        # the forked result stream.
        lines = open(runtime.journal.path).read().splitlines()
        assert lines[3].startswith("EVENT 3 ")
        lines[3] = lines[3].rpartition(" ")[0] + " [12345]"
        with open(runtime.journal.path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        recovered = TenantRuntime("t1", str(tmp_path), QuarantineLedger())
        with pytest.raises(ReplayDivergenceError):
            recovered.recover(state)


class TestRefusals:
    """A query that refuses an element — a regressing punctuation, a late
    event under ``sort=raise`` — is left as it was; the other queries
    take the element, the ``PUNCT`` is acked, and a restart replays the
    journal without raising."""

    #: ``(specs, elements, refusing queries)``; the refused element is
    #: line 2.  Case 1: every query refuses the regressing punctuation.
    REGRESSING = (
        ["window=10|sort|count", "sort=raise|count",
         "window=10|sort|group-count"],
        [Event(110, 111, 0, (1,)), Punctuation(150), Punctuation(100)],
        {"q0", "q1", "q2"},
    )
    #: Case 2: only ``sort=raise`` refuses the late event 120; the
    #: window count (subscribed after it) still counts it.
    LATE = (
        ["sort=raise|count", "window=100|sort|count"],
        [Event(110, 111, 0, (1,)), Punctuation(150),
         Event(120, 121, 0, (1,))],
        {"q0"},
    )

    @staticmethod
    def _results(runtime):
        return {qid: ([repr(e) for e in query.results], query.digest())
                for qid, query in runtime.queries.items()}

    @pytest.mark.parametrize("case", ["REGRESSING", "LATE"])
    def test_live_and_through_recovery(self, tmp_path, case):
        specs, elements, refusing = getattr(self, case)
        runtime = TenantRuntime("t1", str(tmp_path), QuarantineLedger())
        for index, spec in enumerate(specs):
            runtime.subscribe(f"q{index}", spec)
        for offset, element in enumerate(elements):
            if isinstance(element, Punctuation):
                assert runtime.accept_punctuation(offset, element.timestamp)
            else:
                assert runtime.accept_event(offset, element)
        assert runtime.accept_end(len(elements))
        live = self._results(runtime)

        reason = ("late-event" if case == "LATE"
                  else "punctuation-regression")
        assert [
            (entry.reason, entry.context["source"],
             entry.context["detail"].partition(":")[0])
            for entry in runtime.ledger.entries
        ] == [(reason, "net:t1@2", f"query {qid}")
              for qid in sorted(refusing)]
        for qid, spec in zip(live, specs):
            # A refusing query equals one that never saw the element.
            twin = StandingQuery("q", spec)
            drive(twin, [element for line, element in enumerate(elements)
                         if line != 2 or qid not in refusing])
            assert live[qid] == ([repr(e) for e in twin.results],
                                 twin.digest())
        if case == "LATE":
            assert "Event(sync=100, other=200, key=0, payload=2)" in \
                live["q1"][0]

        state = runtime.as_state()
        runtime.close()
        recovered = TenantRuntime("t1", str(tmp_path), QuarantineLedger())
        recovered.recover(state)
        assert self._results(recovered) == live
        assert not recovered.ledger.entries  # recorded once, live

    def test_the_server_acks_a_refused_punctuation_and_restarts(
            self, tmp_path):
        wire = _Wire()

        async def live():
            server = _bare_server(tmp_path)
            runtime = server.tenants["t"]
            for index, spec in enumerate(self.REGRESSING[0]):
                runtime.subscribe(f"q{index}", spec)
            await server._apply("t", [
                "EVENT 0 110 111 0 [1]", "PUNCT 1 150", "PUNCT 2 100",
                "END 3",
            ], wire)
            runtime.close()
            return self._results(runtime), server.ledger.counts

        results, counts = asyncio.run(live())
        assert wire.lines == ["IOFF 2", "IOFF 3", "IOFF 4"]
        assert counts == {"punctuation-regression": 3}

        async def restart():
            server = ReproServer(tmp_path)
            server._recover()
            for task in server._consumers.values():
                task.cancel()
            server.tenants["t"].close()
            return self._results(server.tenants["t"]), server.ledger.counts

        assert asyncio.run(restart()) == (results, counts)


# -- compiled standing queries ------------------------------------------------

#: Every shape the compiler lowers from a serve spec, under both
#: non-raising late policies.
LOWERED = [
    f"{window}|sort={policy}|{terminal}"
    for window in ("window=4", "hop=6/2")
    for policy in ("drop", "adjust")
    for terminal in ("count", "group-count")
]


class RowOracle:
    """The row pipeline every standing query ran on before specs could
    lower, with the query's delivery bookkeeping, built here from the
    engine's public pieces."""

    def __init__(self, spec):
        self.results, self.lags = [], []
        self.watermark = None
        self.completed = False
        self.digest = hashlib.sha256()
        stream = parse_query_spec(spec).bind(
            DisorderedStreamable.from_elements([])
        )
        sink = CallbackSink(
            self._on_event, lambda ts: self._record(Punctuation(ts)),
            lambda: setattr(self, "completed", True),
        )
        self.pipeline = Pipeline(
            [QueryNode(lambda: sink, ((stream.node, None),))]
        )

    def _record(self, element):
        self.results.append(element)
        self.digest.update(repr(element).encode() + b"\n")

    def _on_event(self, event):
        self._record(event)
        if self.watermark is not None:
            self.lags.append(max(0, self.watermark - (event.other_time - 1)))

    def push_event(self, event):
        self.pipeline.push_event(event)

    def push_punctuation(self, timestamp):
        self.watermark = timestamp
        self.pipeline.push_punctuation(timestamp)

    def flush(self):
        self.pipeline.flush()


def _raised(push, *args):
    """The exception type ``push(*args)`` raised, or ``None``."""
    try:
        push(*args)
    except PunctuationOrderError as exc:
        return type(exc)
    return None


# A disordered stream: events with clustered (often equal) timestamps and
# small keys; punctuations relative to the highest one so far, so they
# advance, repeat, or regress (which both engines must refuse alike).
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("e"), st.integers(0, 40), st.integers(0, 3)),
        st.tuples(st.just("p"), st.integers(-3, 8)),
    ),
    max_size=60,
)


class TestCompiledDifferential:
    """Compiled standing queries against the row pipeline, element by
    element."""

    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from(LOWERED), steps=_STEPS, flush=st.booleans(),
           trial=st.sampled_from([None, (3, 3)]))
    def test_compiled_equals_row_after_every_element(self, spec, steps,
                                                     flush, trial):
        # ``None`` turns the density trial off; ``(3, 3)`` demotes a
        # query whose first 3 punctuations followed fewer than 9 events.
        rounds, min_chunk = trial or (standing._TRIAL_ROUNDS, 0)
        with mock.patch.multiple(standing, _TRIAL_ROUNDS=rounds,
                                 _MIN_CHUNK=min_chunk):
            self._differential(spec, steps, flush, trial is None)

    def _differential(self, spec, steps, flush, stays_compiled):
        oracle = RowOracle(spec)
        census = StandingQuery("q", spec)    # exact census every element
        chunked = StandingQuery("q", spec)   # one chunk per punctuation
        queries = (oracle, census, chunked)
        high = 0

        def check():
            want = [repr(e) for e in oracle.results]
            for query in (census, chunked):
                assert [repr(e) for e in query.results] == want
                assert query.digest() == oracle.digest.hexdigest()
                assert query.lags == oracle.lags
                assert query.completed == oracle.completed

        for step in steps:
            if step[0] == "e":
                event = Event(step[1], step[1] + 1, step[2], (step[1],))
                for query in queries:
                    query.push_event(event)
            else:
                timestamp = high + step[1]
                high = max(high, timestamp)
                outcomes = {
                    _raised(query.push_punctuation, timestamp)
                    for query in queries
                }
                assert len(outcomes) == 1
            check()
            exact = oracle.pipeline.buffered_events()
            assert census.buffered_events() == exact
            assert chunked.buffered_bound() >= exact  # without a drain
        if flush:
            for query in queries:
                query.flush()
            check()
        assert chunked.buffered_events() == oracle.pipeline.buffered_events()
        assert census.engine == chunked.engine
        assert census.row_reason == chunked.row_reason
        if stays_compiled:
            assert chunked.engine == "compiled"

    @pytest.mark.parametrize("spec", LOWERED)
    def test_lowered_specs_run_compiled(self, spec):
        query = StandingQuery("q", spec)
        assert (query.engine, query.row_reason) == ("compiled", None)

    @pytest.mark.parametrize("spec, reason", [
        ("window=4|sort=raise|count", "sort=raise"),
        ("where=key<2|window=4|sort|count", "where() predicate"),
        ("window=4|sort|group-sum=0", "Sum selector"),
        ("window=4|sort|group-sum", "Sum selector"),
    ])
    def test_opaque_and_raising_specs_stay_on_the_row_engine(self, spec,
                                                             reason):
        query = StandingQuery("q", spec)
        assert query.engine == "row"
        assert reason in query.row_reason


def _feed(runtime, elements, start=0):
    """Accept ``elements`` at journal offsets ``start``, ``start + 1``…"""
    for offset, element in enumerate(elements, start):
        if isinstance(element, Punctuation):
            runtime.accept_punctuation(offset, element.timestamp)
        else:
            runtime.accept_event(offset, element)


#: Elements compiled columns cannot carry; the str and 2**63 syncs sit
#: in windows of their own (a str key beside int keys fails the row
#: engine's sorted() close), the bool key shares key 1's group.  The
#: last sync fits int64, but its window floor, -2**63 - 2 on a window of
#: 10, does not: int64 arithmetic would wrap it to a far-future window,
#: where the row engine drops it as late.
MISFITS = {
    "str key": Event(1005, 1006, "x", (0,)),
    "bool key": Event(34, 35, True, (0,)),
    "key 2**63": Event(33, 34, 2 ** 63, (0,)),
    "sync 2**63": Event(2 ** 63, 2 ** 63 + 1, 0, (0,)),
    "sync -2**63+1": Event(-2 ** 63 + 1, -2 ** 63 + 2, 0, (0,)),
}


class TestDemotion:
    SPEC = "window=10|sort|group-count"

    def _runtime(self, path):
        return TenantRuntime("t1", str(path), QuarantineLedger())

    @pytest.mark.parametrize("misfit", sorted(MISFITS))
    def test_demotes_mid_stream_and_recovers(self, tmp_path, misfit):
        elements = make_stream()
        elements.insert(40, MISFITS[misfit])
        runtime = self._runtime(tmp_path)
        query = runtime.subscribe("q", self.SPEC)
        _feed(runtime, elements[:50])
        assert query.engine == "row"
        assert query.row_reason.startswith("offset 40: ")
        runtime.journal.commit()
        state = runtime.as_state()
        runtime.close()

        # A restart after the demotion (the journal and state a kill -9
        # leaves): replay demotes at the same element and verifies.
        recovered = self._runtime(tmp_path)
        recovered.recover(state)
        again = recovered.queries["q"]
        assert (again.engine, again.row_reason) == ("row", query.row_reason)
        _feed(recovered, elements[50:], 50)
        recovered.accept_end(len(elements))
        recovered.close()
        assert_byte_identical(self.SPEC, elements, again.results)

    @pytest.mark.parametrize("misfit", sorted(MISFITS))
    def test_a_run_demotes_at_its_misfit_row(self, tmp_path, misfit):
        """Fed as runs, the query demotes at the misfit's own offset,
        mid-run, and ends as one fed an element at a time does."""
        elements = make_stream()
        elements.insert(40, MISFITS[misfit])
        for path in ("runs", "lines"):
            os.makedirs(tmp_path / path)
        runs = self._runtime(tmp_path / "runs")
        lines = self._runtime(tmp_path / "lines")
        queries = [runtime.subscribe("q", self.SPEC)
                   for runtime in (runs, lines)]
        _feed(lines, elements)
        start = 0
        for offset, element in enumerate(elements + [None]):
            if isinstance(element, Event):
                continue
            if start < offset:
                run = EventRun(
                    list(range(start, offset)),
                    *map(list, zip(*[
                        (e.sync_time, e.other_time, e.key, e.payload)
                        for e in elements[start:offset]
                    ])),
                )
                assert runs.accept_events(run) == offset - start
            if element is not None:
                runs.accept_punctuation(offset, element.timestamp)
            start = offset + 1
        assert queries[0].row_reason.startswith("offset 40: ")
        assert queries[0].row_reason == queries[1].row_reason
        assert [repr(e) for e in queries[0].results] == \
            [repr(e) for e in queries[1].results]
        for runtime in (runs, lines):
            runtime.close()
        with open(runs.journal.path, "rb") as a, \
                open(lines.journal.path, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("misfit", sorted(MISFITS))
    def test_a_query_without_a_tenant_demotes_from_its_own_log(self,
                                                               misfit):
        elements = make_stream()
        elements.insert(40, MISFITS[misfit])
        query = StandingQuery("q", self.SPEC)
        drive(query, elements)
        assert query.row_reason.startswith("offset 40: ")
        assert_byte_identical(self.SPEC, elements, query.results)

    def test_an_ungrouped_count_ignores_the_key(self):
        query = StandingQuery("q", "window=10|sort|count")
        drive(query, [MISFITS["str key"], Punctuation(2000)])
        assert query.engine == "compiled"

    @pytest.mark.parametrize("timestamp, at", [
        (2 ** 63, 22),
        # The window's promise for it, -2**63 - 3, is below int64.
        (-2 ** 63 + 1, 0),
    ])
    def test_an_out_of_range_punctuation_demotes(self, timestamp, at):
        elements = make_stream(n=20)
        elements.insert(at, Punctuation(timestamp))
        query = StandingQuery("q", self.SPEC)
        drive(query, elements)
        assert query.row_reason.startswith(f"offset {at}: punctuation ")
        assert_byte_identical(self.SPEC, elements, query.results)

    def test_a_late_subscriber_replays_only_its_own_lines(self, tmp_path):
        elements = make_stream()
        elements.insert(40, MISFITS["str key"])
        runtime = self._runtime(tmp_path)
        _feed(runtime, elements[:22])
        query = runtime.subscribe("q", self.SPEC)
        _feed(runtime, elements[22:], 22)
        runtime.accept_end(len(elements))
        runtime.close()
        assert query.row_reason.startswith("offset 40: ")
        assert_byte_identical(self.SPEC, elements[22:], query.results)


class TestDensityTrial:
    SPEC = "window=10|sort|group-count"

    def test_dense_punctuations_demote_at_the_trial_end(self, tmp_path):
        elements = make_stream(n=60, punct_every=1)
        runtime = TenantRuntime("t1", str(tmp_path), QuarantineLedger())
        query = runtime.subscribe("q", self.SPEC)
        _feed(runtime, elements[:40])
        # Event, punctuation, event…: the 16th punctuation is line 31.
        assert (query.engine, query.row_reason) == (
            "row", "offset 31: 16 events in the first 16 punctuations, "
                   "fewer than 48 per punctuation")
        runtime.journal.commit()
        state = runtime.as_state()
        runtime.close()

        recovered = TenantRuntime("t1", str(tmp_path), QuarantineLedger())
        recovered.recover(state)
        again = recovered.queries["q"]
        assert (again.engine, again.row_reason) == ("row", query.row_reason)
        _feed(recovered, elements[40:], 40)
        recovered.accept_end(len(elements))
        recovered.close()
        assert_byte_identical(self.SPEC, elements, again.results)

    def test_sparse_punctuations_stay_compiled(self):
        rounds, chunk = standing._TRIAL_ROUNDS, standing._MIN_CHUNK
        elements = make_stream(n=rounds * chunk * 2, punct_every=chunk)
        query = StandingQuery("q", self.SPEC)
        drive(query, elements)
        assert query.engine == "compiled"
        assert_byte_identical(self.SPEC, elements, query.results)


class TestCompiledQuota:
    SPEC = "window=100|sort|count"

    def _run(self, path, quota, n):
        """The quota flood, then a draining punctuation."""
        os.makedirs(path)
        runtime = TenantRuntime("t1", str(path), QuarantineLedger(),
                                quota=quota)
        query = runtime.subscribe("q", self.SPEC)
        for i in range(n):
            runtime.accept_event(runtime.journal.length,
                                 Event(i, i + 1, 0, (i,)))
        runtime.accept_punctuation(runtime.journal.length, 500)
        runtime.accept_end(runtime.journal.length)
        runtime.close()
        with open(runtime.journal.path) as fh:
            journal = fh.read()
        return query.engine, (journal, runtime.counters,
                              [repr(e) for e in query.results])

    @pytest.mark.parametrize("quota, n", [(8, 40), (24, 60), (24, 200)])
    def test_sheds_exactly_as_the_row_engine(
            self, tmp_path, monkeypatch, quota, n):
        # The floods shed at nearly every event; the density trial is off
        # so that every decision is the compiled query's.
        monkeypatch.setattr(standing, "_MIN_CHUNK", 0)
        engine, compiled = self._run(tmp_path / "c", quota, n)
        assert engine == "compiled"

        def no_lowering(plan):
            raise UnsupportedPlanError("row engine forced")

        monkeypatch.setattr(standing, "compile_plan", no_lowering)
        engine, row = self._run(tmp_path / "r", quota, n)
        assert engine == "row"
        assert compiled == row
        assert row[1]["shed"] > 0

    def test_no_drain_between_punctuations_under_the_bound(
            self, tmp_path, monkeypatch):
        runtime = TenantRuntime("t1", str(tmp_path), QuarantineLedger(),
                                quota=1000)
        drains = []
        feed = _Execution.feed

        def spy(execution, *chunk):
            drains.append(runtime.journal.length)
            return feed(execution, *chunk)

        monkeypatch.setattr(_Execution, "feed", spy)
        runtime.subscribe("q", "window=10|sort|group-count")
        elements = make_stream()
        _feed(runtime, elements)
        runtime.close()
        # One drain per punctuation, made by the punctuation itself.
        assert drains == [
            offset + 1 for offset, element in enumerate(elements)
            if isinstance(element, Punctuation)
        ]


# -- live-server helpers ----------------------------------------------------

_READY = re.compile(r"serving on ([\d.]+):(\d+) http=[\d.]+:(\d+)")


def start_server(data_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + (os.pathsep + env["PYTHONPATH"]
                 if env.get("PYTHONPATH") else "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--data-dir", str(data_dir), "--deadline", "0.4", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    line = proc.stdout.readline()
    match = _READY.match(line)
    if not match:
        proc.kill()
        raise AssertionError(
            f"server failed to start: {line!r}\n{proc.stderr.read()}"
        )
    return proc, match.group(1), int(match.group(2)), int(match.group(3))


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - safety
            proc.kill()
            proc.wait()
    return proc.returncode


def assert_byte_identical(spec, elements, served):
    reference = batch_reference(spec, elements)
    served_events = [e for e in served if not isinstance(e, Punctuation)]
    served_puncts = [e.timestamp for e in served
                     if isinstance(e, Punctuation)]
    assert [repr(e) for e in served_events] == \
        [repr(e) for e in reference.events]
    assert served_puncts == reference.punctuations


class TestServeEndToEnd:
    def test_standing_query_over_tcp_matches_batch(self, tmp_path):
        proc, host, port, _ = start_server(tmp_path)
        try:
            spec = "window=10|sort|group-count"
            elements = make_stream()
            client = ServeClient(host, port, "tenant-a")
            client.subscribe("q1", spec)
            client.feed(elements)
            client.finish()
            served = client.await_complete("q1", deadline=30)
            assert_byte_identical(spec, elements, served)
            client.close()
        finally:
            assert stop_server(proc) == 0

    def test_snapshot_serve_section_shape(self, tmp_path):
        proc, host, port, _ = start_server(tmp_path)
        try:
            spec = "window=10|sort|count"
            client = ServeClient(host, port, "tenant-a")
            client.subscribe("q1", spec)
            client.feed(make_stream(n=30))
            client.finish()
            client.await_complete("q1", deadline=30)
            snap = client.snapshot()
            serve = snap["serve"]
            assert serve["draining"] is False
            tenant = serve["tenants"]["tenant-a"]
            assert tenant["queue_capacity"] == 16
            # PUNCT and END each commit; events ride on some commit.
            assert 4 <= tenant["journal_commits"] <= tenant["journal"] == 34
            assert set(tenant["counters"]) == {
                "quarantined", "duplicates", "reconnects", "evictions",
                "shed",
            }
            query = tenant["queries"]["q1"]
            assert query["spec"] == spec
            assert (query["engine"], query["row_reason"]) == \
                ("compiled", None)
            assert query["completed"] is True
            assert set(query["lag"]) == {"mean", "p95", "max", "samples"}
            client.close()
        finally:
            assert stop_server(proc) == 0

    def test_http_ingest_snapshot_and_healthz(self, tmp_path):
        proc, host, port, http_port = start_server(tmp_path)
        try:
            spec = "window=5|sort|count"
            client = ServeClient(host, port, "web")
            client.subscribe("q1", spec)

            body = "\n".join(
                [json.dumps({"sync": i, "other": i + 1, "key": 0,
                             "payload": [i]}) for i in range(10)]
                + [json.dumps({"punct": 9})]
            )
            conn = http.client.HTTPConnection(host, http_port, timeout=10)
            conn.request("POST", "/ingest/web", body=body)
            reply = json.loads(conn.getresponse().read())
            assert reply["accepted"] == 11
            assert reply["journal"] == 11
            conn.close()

            conn = http.client.HTTPConnection(host, http_port, timeout=10)
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
            assert health == {"ok": True, "draining": False}
            conn.close()

            conn = http.client.HTTPConnection(host, http_port, timeout=10)
            conn.request("GET", "/snapshot")
            snap = json.loads(conn.getresponse().read())
            assert snap["serve"]["tenants"]["web"]["journal"] == 11
            conn.close()

            # End the stream over HTTP too; the TCP subscriber must see
            # results byte-identical to the batch run of the same feed.
            conn = http.client.HTTPConnection(host, http_port, timeout=10)
            conn.request("POST", "/ingest/web",
                         body=json.dumps({"end": True}))
            assert json.loads(conn.getresponse().read())["journal"] == 12
            conn.close()

            served = client.await_complete("q1", deadline=30)
            elements = [Event(i, i + 1, 0, (i,)) for i in range(10)]
            elements.append(Punctuation(9))
            assert_byte_identical(spec, elements, served)
            client.close()
        finally:
            assert stop_server(proc) == 0

    def test_http_malformed_ndjson_is_quarantined(self, tmp_path):
        proc, host, port, http_port = start_server(tmp_path)
        try:
            conn = http.client.HTTPConnection(host, http_port, timeout=10)
            conn.request("POST", "/ingest/web", body="{not json at all")
            reply = json.loads(conn.getresponse().read())
            assert reply["counters"]["quarantined"] == 1
            conn.close()
        finally:
            assert stop_server(proc) == 0

    @pytest.mark.parametrize(
        "doc", [{"sync": "x"}, {"sync": None, "other": 5}]
    )
    def test_http_frame_passes_non_integer_sync_through(self, doc):
        raw = json.dumps(doc)
        assert ReproServer._http_frame(raw) == raw

    @pytest.mark.parametrize("key", ["a b", ["a b", 1], 4])
    def test_http_frame_keeps_a_spaced_key_one_field(self, key):
        line = ReproServer._http_frame(json.dumps({"sync": 5, "key": key}))
        event = decode_data_frame(line.split(" ", 5)[2:])
        assert repr(event) == repr(Event(5, 6, _oracle_tupled(key), None))
        if key == 4:
            assert line == "EVENT -1 5 6 4 null"

    @pytest.mark.parametrize("key", ["a b", ("a b", 1), 4])
    def test_client_frame_keeps_a_spaced_key_one_field(self, key):
        client = ServeClient("127.0.0.1", 0, "t")
        client.feed([Event(5, 6, key, (1, "x y"))])
        line = client._frame_for(0)
        event = decode_data_frame(line.split(" ", 5)[2:])
        assert repr(event) == repr(Event(5, 6, key, (1, "x y")))

    def test_http_non_integer_sync_is_quarantined(self, tmp_path):
        proc, host, port, http_port = start_server(tmp_path)
        try:
            body = "\n".join([
                json.dumps({"sync": 1, "other": 2, "key": 0, "payload": [1]}),
                json.dumps({"sync": "x"}),
                json.dumps({"sync": 2, "other": 3, "key": 0, "payload": [2]}),
            ])
            conn = http.client.HTTPConnection(host, http_port, timeout=10)
            conn.request("POST", "/ingest/web", body=body)
            response = conn.getresponse()
            assert response.status == 200
            reply = json.loads(response.read())
            conn.close()
            assert reply["accepted"] == 3
            assert reply["journal"] == 2
            assert reply["counters"]["quarantined"] == 1
        finally:
            assert stop_server(proc) == 0

    def test_one_read_with_a_malformed_line_and_a_gap(self, tmp_path):
        """Every other line of the read still applies, in order."""
        proc, host, port, _ = start_server(tmp_path)
        try:
            spec = "window=10|sort|count"
            events = [Event(i, i + 1, i % 3, (i,)) for i in range(10)]
            client = ServeClient(host, port, "t")
            client.subscribe("q1", spec)

            def frame(offset, event):
                return (f"EVENT {offset} {event.sync_time} "
                        f"{event.other_time} {event.key} [{event.payload[0]}]")

            frames = [frame(i, e) for i, e in enumerate(events[:5])]
            frames.append("EVENT 5 not-a-sync-time !! {")
            frames.append(frame(9, events[9]))                    # a gap
            frames += [frame(i, e) for i, e in enumerate(events[5:], 5)]
            frames += ["PUNCT 10 9", "END 11"]
            with socket.create_connection((host, port), timeout=10) as sock:
                replies = sock.makefile("rb")
                sock.sendall(b"HELLO t\n")
                assert replies.readline() == b"OK tenant=t journal=0\n"
                sock.sendall("".join(f"{f}\n" for f in frames).encode())
                assert [replies.readline() for _ in range(3)] == [
                    b"ERR gap ingress gap: got offset 9, expected 5\n",
                    b"IOFF 11\n",
                    b"IOFF 12\n",
                ]
            served = client.await_complete("q1", deadline=30)
            assert_byte_identical(spec, events + [Punctuation(9)], served)
            counters = client.snapshot()["serve"]["tenants"]["t"]["counters"]
            assert counters["quarantined"] == 1
            assert counters["duplicates"] == 0
            client.close()
        finally:
            assert stop_server(proc) == 0

    def test_a_failed_pump_does_not_drop_the_next_line(self, tmp_path):
        """A pump owed by earlier events that raises (say, an OSError
        while saving state) is contained: the line after it applies."""
        pumps = []

        async def failing_pump(name):
            pumps.append(name)
            raise OSError("no space left on device")

        async def scenario():
            server = _bare_server(tmp_path)
            runtime = server.tenants["t"]
            server._pump = failing_pump
            await server._apply("t", [
                "EVENT 0 1 2 0 [1]", "EVENT 1 2 3 0 [2]", "PUNCT 2 2",
                "EVENT 3 3 4 0 [3]",
            ], None)
            runtime.close()
            return runtime

        runtime = asyncio.run(scenario())
        assert runtime.journal.length == 4
        assert runtime.watermark == 2
        # Owed before PUNCT, PUNCT's own, owed at the end of the item.
        assert len(pumps) == 3

    def test_a_three_field_event_line_is_quarantined(self, tmp_path):
        """``EVENT 0 5`` decodes as a punctuation's tail; it is refused
        as an event and quarantined, and the line after it applies."""
        async def scenario():
            server, wire = _bare_server(tmp_path), _Wire()
            await server._apply("t", ["EVENT 0 5", "PUNCT 0 3"], wire)
            server.tenants["t"].close()
            return server, wire.lines

        server, replies = asyncio.run(scenario())
        assert server.tenants["t"].counters["quarantined"] == 1
        assert server.ledger.counts == {"malformed": 1}
        assert [(entry.element, entry.context["source"])
                for entry in server.ledger.entries] == [("EVENT 0 5",
                                                         "net:t@0")]
        assert replies == ["IOFF 1"]

    @pytest.mark.parametrize("payload, bad", [
        ("[5]", "-[5]"), ("[5]", "[5]-"), ("[]", "[-]"), ("[]", "-[]"),
    ])
    def test_a_minus_outside_a_number_is_quarantined(self, tmp_path,
                                                     payload, bad):
        """A '-' where the strict shape has no number ends the byte
        scan's prefix: the tenant's consumer quarantines the line, keeps
        running, and its compiled and row queries serve what they serve
        without the line, through a later string-key line too."""
        async def scenario(data_dir, lines):
            server = ReproServer(data_dir)
            runtime = server._tenant("t")
            runtime.subscribe("c", "window=4|sort|count")
            runtime.subscribe("r", "window=4|sort=raise|count")
            wire = _Wire()
            for item in (lines, ["PUNCT 2 9", "END 3"]):
                await server.queues["t"].put((item, wire))
            consumer = server._consumers["t"]
            await asyncio.wait_for(asyncio.wait(
                [consumer, asyncio.ensure_future(server.queues["t"].join())],
                return_when=asyncio.FIRST_COMPLETED), 30)
            assert not consumer.done(), consumer.exception()
            consumer.cancel()
            runtime.close()
            return runtime, wire.lines, {
                qid: _served(query) for qid, query in runtime.queries.items()
            }

        good = [f"EVENT 0 1 2 3 {payload}", f'EVENT 1 1 2 "k" {payload}']
        runtime, replies, served = asyncio.run(scenario(
            tmp_path / "bad",
            [good[0], f"EVENT 1 1 2 3 {bad}", good[1]]))
        assert runtime.counters["quarantined"] == 1
        assert replies == ["IOFF 3", "IOFF 4"]
        assert runtime.queries["r"].engine == "row"
        _, _, clean = asyncio.run(scenario(tmp_path / "good", good))
        assert served == clean

    def test_kill9_after_an_event_burst_resumes_at_the_hello_offset(
            self, tmp_path):
        spec = "window=10|sort|group-count"
        elements = make_stream()
        burst = 16  # ten events, PUNCT, then five events with no PUNCT
        assert not isinstance(elements[burst - 1], Punctuation)
        client = ServeClient("127.0.0.1", 0, "t")
        proc, client.host, client.port, _ = start_server(tmp_path)
        try:
            client.subscribe("q1", spec)
            client.feed(elements)
            client.send_until(burst)
            deadline = time.monotonic() + 20
            while client.snapshot()["serve"]["tenants"]["t"]["journal"] \
                    < burst:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        client._drop_connections()

        proc, client.host, client.port, _ = start_server(tmp_path)
        try:
            with socket.create_connection(
                    (client.host, client.port), timeout=10) as sock:
                sock.sendall(b"HELLO t sub\n")
                hello = sock.makefile("rb").readline().decode()
            with open(tmp_path / "journal-t.jsonl", encoding="utf-8") as fh:
                on_disk = len(fh.read().splitlines())
            assert hello == f"OK tenant=t journal={burst}\n"
            assert on_disk == burst
            client.finish()
            served = client.await_complete("q1", deadline=30)
            assert_byte_identical(spec, elements, served)
            client.close()
        finally:
            assert stop_server(proc) == 0

    def test_live_demotion_survives_kill9(self, tmp_path):
        """Two compiled queries demote mid-stream at different elements,
        the server is killed after both, and the restart replays into
        the same demotions with results byte-identical to the batch."""
        specs = {"grouped": "window=10|sort|group-count",
                 "counted": "window=10|sort|count"}
        elements = make_stream()
        elements.insert(20, MISFITS["str key"])       # demotes "grouped"
        elements.insert(35, MISFITS["sync 2**63"])    # demotes "counted"
        burst = 50
        client = ServeClient("127.0.0.1", 0, "t")
        proc, client.host, client.port, _ = start_server(tmp_path)
        try:
            for qid, spec in specs.items():
                client.subscribe(qid, spec)
            client.feed(elements)
            client.send_until(burst)
            deadline = time.monotonic() + 20
            while client.snapshot()["serve"]["tenants"]["t"]["journal"] \
                    < burst:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        client._drop_connections()

        proc, client.host, client.port, _ = start_server(tmp_path)
        try:
            client.finish()
            for qid, spec in specs.items():
                served = client.await_complete(qid, deadline=30)
                assert_byte_identical(spec, elements, served)
            queries = client.snapshot()["serve"]["tenants"]["t"]["queries"]
            assert queries["grouped"]["engine"] == "row"
            assert queries["grouped"]["row_reason"].startswith("offset 20: ")
            assert queries["counted"]["row_reason"].startswith("offset 35: ")
            client.close()
        finally:
            assert stop_server(proc) == 0

    def test_quota_breach_sheds_and_counts(self, tmp_path):
        proc, host, port, _ = start_server(tmp_path, "--quota", "8")
        try:
            client = ServeClient(host, port, "greedy")
            client.subscribe("q1", "window=1000|sort|count")
            client.feed([Event(i, i + 1, 0, (i,)) for i in range(64)]
                        + [Punctuation(63)])
            client.finish()
            client.await_complete("q1", deadline=30)
            snap = client.snapshot()
            assert snap["serve"]["tenants"]["greedy"]["counters"]["shed"] > 0
            client.close()
        finally:
            assert stop_server(proc) == 0

    def test_a_quota_below_one_exits_2(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--data-dir", str(tmp_path), "--quota", "0"],
            capture_output=True, text=True, env=env, timeout=30,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert done.returncode == 2
        assert done.stderr == ("error: ValueError: quota must be >= 1 "
                               "event, got 0\n")

    def test_quota_sheds_survive_kill9(self, tmp_path):
        """A ``--quota 8`` tenant flooded past its quota, killed and
        restarted, recovers the sheds from its journal: the query's
        digest and ``shed`` are those of the same flood in-process."""
        spec, n = "window=1000|sort|count", 40
        events = [Event(i, i + 1, 0, (i,)) for i in range(n)]
        reference = TenantRuntime("t", str(tmp_path), QuarantineLedger(),
                                  quota=8)
        query = reference.subscribe("q1", spec)
        for event in events:
            reference.accept_event(reference.journal.length, event)
        reference.close()
        want = (query.digest(), reference.counters["shed"])
        assert want[1] > 0

        data = tmp_path / "data"

        def saved():
            if not (data / "state.json").exists():
                return None
            with open(data / "state.json", encoding="utf-8") as fh:
                state = json.load(fh)["tenants"]["t"]
            return state["queries"]["q1"]["digest"], state["counters"]["shed"]

        proc, host, port, _ = start_server(data, "--quota", "8")
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                replies = sock.makefile("rb")
                sock.sendall(f"HELLO t\nSUB q1 {spec}\n".encode())
                assert replies.readline().startswith(b"OK tenant=t")
                assert replies.readline().startswith(b"OK sub")
                # Appends (offset -1): the SHED lines take journal
                # offsets a client counting its own events would reuse.
                sock.sendall("".join(
                    f"EVENT -1 {e.sync_time} {e.other_time} 0 [{i}]\n"
                    for i, e in enumerate(events)).encode())
                client = ServeClient(host, port, "t")
                deadline = time.monotonic() + 20
                while True:
                    tenant = client.snapshot()["serve"]["tenants"]["t"]
                    shed = tenant["counters"]["shed"]
                    if (tenant["journal"] == n + shed
                            and saved() == (want[0], shed)):
                        break
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                assert shed == want[1]
        finally:
            proc.kill()
            proc.wait()

        proc, client.host, client.port, _ = start_server(
            data, "--quota", "8")
        try:
            tenant = client.snapshot()["serve"]["tenants"]["t"]
            assert tenant["counters"]["shed"] == want[1]
            assert tenant["journal"] == n + want[1]
        finally:
            assert stop_server(proc) == 0
        assert saved() == want

    def test_sigterm_drains_and_restart_resumes(self, tmp_path):
        spec = "window=10|sort|group-count"
        elements = make_stream()
        proc, host, port, _ = start_server(tmp_path)
        client = ServeClient(host, port, "tenant-a")
        client.subscribe("q1", spec)
        client.feed(elements)
        client.send_until(len(elements) // 2)
        # Graceful stop mid-stream: drain must exit 0, not crash.
        assert stop_server(proc) == 0
        client._drop_connections()

        proc2, host, port, _ = start_server(tmp_path)
        try:
            client.host, client.port = host, port
            client.finish()
            served = client.await_complete("q1", deadline=30)
            assert_byte_identical(spec, elements, served)
            client.close()
        finally:
            assert stop_server(proc2) == 0


TENANTS = [
    ("alpha", "window=10|sort|group-count", 3),
    ("bravo", "window=10|sort|count", 4),
    ("charlie", "where=key<3|window=10|sort|group-sum=0", 5),
]

_CHAOS = (
    "net:p=0.2,mode=malform;net:p=0.15,mode=dup;net:p=0.1,mode=disconnect;"
    "net:p=0.06,mode=slowloris;net:p=0.15,mode=split"
)


def wait_for_evictions(snapshot_client, expected, deadline=20.0):
    """Poll until every tenant's eviction counter reaches ``expected``.

    Slowloris connections are evicted on the server's read deadline, a
    beat after the fault fires, so reconciliation has to wait for the
    counter to catch up.  Returns the last snapshot seen.
    """
    snap = None
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        snap = snapshot_client.snapshot()
        if all(
            snap["serve"]["tenants"].get(name, {"counters": {
                "evictions": 0}})["counters"]["evictions"] >= want
            for name, want in expected.items()
        ):
            break
        time.sleep(0.2)
    return snap


class TestChaosSoak:
    """Three tenants, hostile traffic, ``kill -9`` mid-stream."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_soak_survives_hostile_traffic_and_hard_kill(self, tmp_path,
                                                         seed):
        streams = {
            name: make_stream(n=60, punct_every=10, key_mod=mod)
            for name, _, mod in TENANTS
        }
        proc, host, port, _ = start_server(tmp_path)
        clients = {}
        try:
            for index, (name, spec, _) in enumerate(TENANTS):
                injector = FaultInjector(_CHAOS, seed=seed + index)
                client = ServeClient(host, port, name, injector=injector)
                client.subscribe(f"q-{name}", spec)
                client.feed(streams[name])
                clients[name] = client

            # Phase 1: half of every stream under fault injection.
            for name, _, _ in TENANTS:
                clients[name].send_until(len(streams[name]) // 2)

            # Let the server evict every phase-1 slowloris connection
            # before the kill — a stalled connection destroyed by
            # SIGKILL before its read deadline would never be counted.
            wait_for_evictions(clients["alpha"], {
                name: clients[name].injector.fired.get("net:slowloris", 0)
                for name, _, _ in TENANTS
            })

            # Hard kill, mid-stream, no warning.
            proc.kill()
            proc.wait()
            assert proc.returncode == -signal.SIGKILL

            # Phase 2: restart on the same data dir; clients resume.
            proc, host, port, _ = start_server(tmp_path)
            for name, spec, _ in TENANTS:
                client = clients[name]
                client.host, client.port = host, port
                client._drop_connections()
                client.finish()

            for name, spec, _ in TENANTS:
                served = clients[name].await_complete(f"q-{name}",
                                                      deadline=60)
                assert_byte_identical(spec, streams[name], served)

            # Reconciliation: snapshot counters must sum exactly to the
            # injected fault counts (slowloris evictions land on the
            # server's read deadline, so poll briefly).
            expected_evictions = {
                name: clients[name].injector.fired.get("net:slowloris", 0)
                for name, _, _ in TENANTS
            }
            snap = wait_for_evictions(clients["alpha"], expected_evictions)

            total_malformed = 0
            for name, _, _ in TENANTS:
                fired = clients[name].injector.fired
                counters = snap["serve"]["tenants"][name]["counters"]
                assert counters["quarantined"] == \
                    fired.get("net:malform", 0)
                assert counters["duplicates"] == fired.get("net:dup", 0)
                assert counters["evictions"] == expected_evictions[name]
                # disconnect + slowloris reconnects + 1 post-kill resume
                assert counters["reconnects"] == (
                    fired.get("net:disconnect", 0)
                    + expected_evictions[name] + 1
                )
                total_malformed += fired.get("net:malform", 0)

            # The shared quarantine ledger carries every tenant's
            # malformed frames across the restart.
            assert snap["serve"]["quarantine"]["by_reason"].get(
                "malformed", 0) == total_malformed
        finally:
            for client in clients.values():
                client.close()
            assert stop_server(proc) == 0
