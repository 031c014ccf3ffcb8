"""``serve_stream``: ``repro serve`` as a subprocess on loopback.

The harness speaks the TCP line protocol itself: one sender thread
writes pre-encoded ``EVENT``/``PUNCT`` lines, the calling thread reads
both sockets (``IOFF`` acks on the ingest connection, ``RESULT``/
``RPUNCT``/``REOF`` on the subscriber connection) and stamps every
line with its arrival time.  Phase A is a closed loop (send as fast as
TCP backpressure allows, clock stops at ``REOF``); phase B is an open
loop at a fixed rate, timed from when each line was *due*.

The traced pass adds in-process replays of the same elements through
``repro.serve.protocol``, ``TenantJournal``, ``StandingQuery`` and
``TenantRuntime`` — each layer alone, from outside.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from types import SimpleNamespace

import numpy as np

from repro.engine import DisorderedStreamable
from repro.engine.event import Event, Punctuation, is_punctuation
from repro.resilience.quarantine import QuarantineLedger
from repro.serve import StandingQuery, TenantJournal, TenantRuntime
from repro.serve.protocol import (
    decode_data_frame,
    parse_query_spec,
    parse_result_line,
    result_line,
)

from benchmarks.e2e import inputs
from benchmarks.e2e.measure import (
    coverage_metrics,
    durations,
    median,
    peak_rss_mib,
    percentile,
    process_cpu_seconds,
    self_times,
    supported_percentile,
)
from benchmarks.e2e.spec import ROOT, WINDOW

SPEC = f"window={WINDOW}|sort=drop|group-count"
QID = "q1"

#: The open-loop sender wakes this often; lines that fell due since the
#: last wake leave in one ``sendall``.
TICK = 0.001
#: A ``PUNCT`` whose answer is not in hand this long after it was due
#: counts as failed.
ANSWER_DEADLINE = 5.0
#: Deadline on every blocking wait (connect, reply, ``REOF``, join).
WAIT = 60.0

_READY = re.compile(r"serving on ([\d.]+):(\d+) ")


# -- the server process -----------------------------------------------------------

def start_server(data_dir):
    """``python -m repro.cli serve`` on an ephemeral loopback port."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--data-dir", data_dir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd=ROOT,
    )
    ready = []
    reader = threading.Thread(
        target=lambda: ready.append(proc.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(timeout=WAIT)
    match = _READY.match(ready[0]) if ready else None
    if not match:
        stop_server(proc)
        raise RuntimeError(f"repro serve did not come up: {ready!r}")
    return proc, match.group(1), int(match.group(2))


def stop_server(proc):
    """SIGTERM drain, then SIGKILL; always waits for the exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()


# -- the tenant stream ------------------------------------------------------------

def encode_stream(dataset, every, parts):
    """One tenant's stream: wire lines, the elements they carry, and for
    each ``PUNCT`` how many events precede it."""
    ts, _, schedule = inputs.profile(dataset.timestamps, every, parts)

    def work():
        punct_at = dict(schedule)
        frames, elements, punct_frames, covered = [], [], [], []
        offset = 0
        rows = zip(dataset.timestamps, dataset.keys, dataset.payloads)
        for count, (sync, key, payload) in enumerate(rows, 1):
            body = json.dumps(list(payload), separators=(",", ":"))
            frames.append(
                f"EVENT {offset} {sync} {sync + 1} {key} {body}\n".encode()
            )
            elements.append(Event(sync, sync + 1, key, payload))
            offset += 1
            timestamp = punct_at.get(count)
            if timestamp is not None:
                punct_frames.append(len(frames))
                covered.append(count)
                frames.append(f"PUNCT {offset} {timestamp}\n".encode())
                elements.append(Punctuation(timestamp))
                offset += 1
        frames.append(f"END {offset}\n".encode())
        return frames, elements, punct_frames, covered

    frames, elements, punct_frames, covered = inputs.timed(
        parts, "encode_s", work
    )
    # A tumbling window turns punctuation t into floor(t/W)*W - 1 and
    # forwards it only when that advances: the first PUNCT reaching a
    # boundary is the one whose RPUNCT the subscriber sees.
    releases = {}
    for index, (_, timestamp) in enumerate(schedule):
        releases.setdefault(timestamp // WINDOW * WINDOW - 1, index)
    events_before = np.cumsum(
        [frame.startswith(b"EVENT") for frame in frames]
    )
    return SimpleNamespace(
        frames=frames, elements=elements, n=int(ts.size), every=every,
        punct_frames=punct_frames, covered=covered, releases=releases,
        events_before=events_before,
    )


def batch_reference(elements):
    """The uninterrupted batch run of the served query."""
    return parse_query_spec(SPEC).bind(
        DisorderedStreamable.from_elements(elements)
    ).collect()


def open_loop_due(stream, rate):
    """Seconds after the start at which each line is due: event ``i`` at
    ``i / rate``, a ``PUNCT``/``END`` line with the event before it."""
    return (np.maximum(stream.events_before - 1, 0) / rate).tolist()


# -- one live run -----------------------------------------------------------------

def _connect(host, port, *lines):
    """A connection on which each of ``lines`` was answered ``OK``."""
    sock = socket.create_connection((host, port), timeout=WAIT)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for line in lines:
            sock.sendall(line.encode() + b"\n")
            reply = b""
            while not reply.endswith(b"\n"):
                byte = sock.recv(1)
                if not byte:
                    break
                reply += byte
            if not reply.startswith(b"OK"):
                raise RuntimeError(f"{line!r} answered {reply!r}")
    except BaseException:
        sock.close()
        raise
    return sock


def _send_all(sock, frames, due, t0, log, errors):
    """Sender thread.  ``due is None``: one ``sendall`` of everything.
    Otherwise send each line when it falls due, regardless of what the
    server has answered; ``log`` gets ``(seconds, lines sent so far)``."""
    try:
        if due is None:
            sock.sendall(b"".join(frames))
            log.append((time.perf_counter() - t0, len(frames)))
            return
        sent = 0
        while sent < len(frames):
            now = time.perf_counter() - t0
            upto = bisect.bisect_right(due, now, sent)
            if upto > sent:
                sock.sendall(b"".join(frames[sent:upto]))
                log.append((time.perf_counter() - t0, upto))
                sent = upto
            time.sleep(TICK)
    except OSError as exc:
        errors.append(exc)


def live_run(host, port, tenant, stream, due=None):
    """Feed ``stream`` to a fresh tenant and read until ``REOF``.

    Returns arrival times (seconds after the first send) of every
    ``IOFF`` and ``RPUNCT``, the raw result lines, the sender's log and
    the wall from first send to ``REOF``.
    """
    sub = _connect(host, port, f"HELLO {tenant} sub", f"SUB {QID} {SPEC}")
    ingest = _connect(host, port, f"HELLO {tenant}")
    obs = SimpleNamespace(
        lines=[], rpunct=[], ioff=[], log=[], errors=[], wall=None, t0=None,
    )
    selector = selectors.DefaultSelector()
    buffers = {sub: bytearray(), ingest: bytearray()}
    for sock in buffers:
        selector.register(sock, selectors.EVENT_READ)
    t0 = obs.t0 = time.perf_counter()
    sender = threading.Thread(
        target=_send_all,
        args=(ingest, stream.frames, due, t0, obs.log, obs.errors),
        daemon=True,
    )
    sender.start()
    deadline = t0 + WAIT + (due[-1] if due else 0.0)
    acks = len(stream.punct_frames) + 1         # every PUNCT, and END
    try:
        while time.perf_counter() < deadline:
            if obs.wall is not None:
                # REOF is in; acks travel on the other socket, so give
                # the last of them a moment before calling it missing.
                if len(obs.ioff) >= acks:
                    break
                deadline = min(deadline, t0 + obs.wall + 1.0)
            for key, _ in selector.select(timeout=0.5):
                sock = key.fileobj
                try:
                    data = sock.recv(1 << 16, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    continue
                now = time.perf_counter() - t0
                if not data:
                    obs.errors.append(ConnectionError("server closed"))
                    obs.wall, acks = now, 0
                    break
                buffer = buffers[sock]
                buffer += data
                *lines, rest = bytes(buffer).split(b"\n")
                buffer[:] = rest
                if sock is ingest:
                    _note_acks(obs, lines, now)
                elif _note_results(obs, lines, now) and obs.wall is None:
                    obs.wall = now
        sender.join(timeout=WAIT)
        if sender.is_alive() or obs.wall is None:
            obs.errors.append(TimeoutError("no REOF before the deadline"))
            obs.wall = time.perf_counter() - t0
    finally:
        selector.close()
        sub.close()
        ingest.close()
    return obs


def _note_acks(obs, lines, now):
    for line in lines:
        if line.startswith(b"IOFF "):
            obs.ioff.append((int(line[5:]), now))
        elif line.startswith(b"ERR"):
            obs.errors.append(RuntimeError(line.decode()))


def _note_results(obs, lines, now):
    """True once ``REOF`` has arrived."""
    done = False
    for line in lines:
        obs.lines.append(line)
        if line.startswith(b"RPUNCT "):
            obs.rpunct.append((int(line.rsplit(b" ", 1)[1]), now))
        elif line.startswith(b"REOF "):
            done = True
    return done


def snapshot_counters(host, port, tenant):
    """The tenant's hostile-traffic counters from a ``SNAPSHOT`` reply."""
    with socket.create_connection((host, port), timeout=WAIT) as sock:
        sock.sendall(b"SNAPSHOT\n")
        with sock.makefile("rb") as reader:
            doc = json.loads(reader.readline())
    return doc["serve"]["tenants"][tenant]["counters"]


# -- reading a live run -------------------------------------------------------------

def served_output(obs):
    """``(events, punctuation timestamps)`` parsed from the result lines."""
    events, punctuations = [], []
    for line in obs.lines:
        _, _, element = parse_result_line(line.decode())
        if element is None:
            continue
        if is_punctuation(element):
            punctuations.append(element.timestamp)
        else:
            events.append(element)
    return events, punctuations


def check_run(name, reference, obs, counters, checks):
    """Byte-identity to the batch run, a clean transport, no element
    shed or quarantined."""
    events, punctuations = served_output(obs)
    checks.record(
        f"{name}: results byte-identical to the batch run",
        [repr(e) for e in events] == [repr(e) for e in reference.events]
        and punctuations == list(reference.punctuations),
    )
    checks.record(f"{name}: transport clean ({obs.errors[:1]})",
                  not obs.errors)
    checks.record(
        f"{name}: nothing shed or quarantined",
        counters["shed"] == 0 and counters["quarantined"] == 0,
    )
    return events


def answer_times(stream, obs):
    """Per ``PUNCT``, when the harness held what it releases: its
    ``IOFF``, and its ``RPUNCT`` too when it closes a window.  ``None``
    where an answer never came."""
    acked = dict(obs.ioff)          # journal length after the PUNCT -> time
    released = {}
    for timestamp, when in obs.rpunct:
        index = stream.releases.get(timestamp)
        if index is not None:
            released.setdefault(index, when)
    closing = set(stream.releases.values())
    out = []
    for index, frame in enumerate(stream.punct_frames):
        ack = acked.get(frame + 1)
        result = released.get(index) if index in closing else 0.0
        out.append(
            None if ack is None or result is None else max(ack, result)
        )
    return out


def open_loop_metrics(name, stream, due, obs, checks):
    """Latency from the due time, backlog, generator lateness; one check
    per ``PUNCT`` plus one for a backlog that is still growing."""
    answers = answer_times(stream, obs)
    sent_at = np.array([when for when, _ in obs.log])
    sent_upto = np.array([upto for _, upto in obs.log])
    waits_ms, ack_ms, backlog = [], [], []
    acked = dict(obs.ioff)
    for index, (frame, answer) in enumerate(zip(stream.punct_frames, answers)):
        wait = None if answer is None else answer - due[frame]
        checks.record(
            f"{name}: PUNCT {index} answered within {ANSWER_DEADLINE} s",
            wait is not None and wait <= ANSWER_DEADLINE,
        )
        if wait is None:
            continue
        waits_ms.append(wait * 1e3)
        batch = int(np.searchsorted(sent_upto, frame, side="right"))
        ack_ms.append((acked[frame + 1] - sent_at[batch]) * 1e3)
        lines_out = sent_upto[
            max(int(np.searchsorted(sent_at, answer, side="right")) - 1, 0)
        ]
        backlog.append(
            int(stream.events_before[lines_out - 1]) - stream.covered[index]
        )
    quarter = max(len(backlog) // 4, 1)
    growing = (
        len(backlog) >= 8
        and median(backlog[-quarter:]) - median(backlog[-2 * quarter:-quarter])
        > stream.every
    )
    checks.record(f"{name}: backlog not growing at the end", not growing)
    line_due = np.asarray(due)
    first = np.concatenate(([0], sent_upto[:-1]))
    late_ms = np.concatenate([
        (when - line_due[a:b]) * 1e3
        for when, a, b in zip(sent_at, first, sent_upto)
    ])
    return SimpleNamespace(
        waits_ms=waits_ms, ack_ms=ack_ms, backlog=backlog,
        gen_late_ms_p95=percentile(late_ms.tolist(), 95),
    )


# -- the workload -------------------------------------------------------------------

class ServeStream:
    name = "serve_stream"

    # -- set-up -----------------------------------------------------------------

    def make_inputs(self, seed, sizes):
        parts = {}
        dataset = inputs.generate("cloudlog", sizes.serve_n, seed, parts)
        open_n = min(int(sizes.serve_rate * sizes.open_seconds), len(dataset))
        every = sizes.serve_punct_every
        return SimpleNamespace(
            parts=parts, sizes=sizes, server=None, tenants=0,
            closed=encode_stream(
                dataset.head(sizes.serve_closed_n), every, parts),
            opened=encode_stream(dataset.head(open_n), every, parts),
        )

    def add_reference(self, state):
        """Batch references for both phases, then the server."""
        def work():
            state.closed.reference = batch_reference(state.closed.elements)
            state.opened.reference = batch_reference(state.opened.elements)

        inputs.timed(state.parts, "reference_s", work)
        data_dir = tempfile.mkdtemp(prefix="serve-")
        state.server = inputs.timed(
            state.parts, "server_start_s", lambda: start_server(data_dir)
        )

    def teardown(self, state):
        if state.server is not None:
            stop_server(state.server[0])
            state.server = None

    # -- phases -----------------------------------------------------------------

    def run_phase(self, state, stream, checks, due=None):
        """One live run on a fresh tenant, checked; ``(obs, events,
        server CPU seconds)``."""
        proc, host, port = state.server
        state.tenants += 1
        tenant = f"t{state.tenants}"
        cpu0 = process_cpu_seconds(proc.pid)
        obs = live_run(host, port, tenant, stream, due)
        cpu = process_cpu_seconds(proc.pid) - cpu0
        counters = snapshot_counters(host, port, tenant)
        events = check_run(
            f"{self.name}/{tenant}", stream.reference, obs, counters, checks
        )
        obs.counters = counters
        return obs, events, cpu

    def closed_loop(self, state, seconds, checks):
        """Warm-up, then repetitions for ``seconds``; the server's peak
        resident set is read after the warm-up, a fixed amount of work."""
        self.run_phase(state, state.closed, checks)
        peak = peak_rss_mib(state.server[0].pid)
        walls, cpus = [], []
        events = None
        deadline = time.perf_counter() + seconds
        while (len(walls) < state.sizes.min_reps
               or time.perf_counter() < deadline):
            obs, events, cpu = self.run_phase(state, state.closed, checks)
            walls.append(obs.wall)
            cpus.append(cpu)
        return SimpleNamespace(
            walls=walls, cpus=cpus, peak_rss_mib=peak, events=events,
        )

    def open_loop(self, state, checks):
        stream = state.opened
        due = open_loop_due(stream, state.sizes.serve_rate)
        obs, _, _ = self.run_phase(state, stream, checks, due)
        out = open_loop_metrics(self.name, stream, due, obs, checks)
        out.counters = obs.counters
        return out

    # -- untraced pass ------------------------------------------------------------

    def untraced(self, state, seconds, checks):
        sizes = state.sizes
        closed = self.closed_loop(
            state, seconds - sizes.open_seconds, checks
        )
        opened = self.open_loop(state, checks)
        n = state.closed.n
        wall = median(closed.walls)
        counted = sum(event.payload for event in closed.events)
        metrics = {
            "events_per_s": n / wall,
            "cpu_s_per_mevent": median(closed.cpus) / n * 1e6,
            "peak_rss_mb": closed.peak_rss_mib,
            "punct_latency_p50_ms": percentile(opened.waits_ms, 50),
            "completeness": counted / n,
        }
        info = {
            "n": n, "reps": len(closed.walls), "open_n": state.opened.n,
            "rate": sizes.serve_rate,
            "latency_samples": len(opened.waits_ms),
            "supported_percentile":
                supported_percentile(len(opened.waits_ms)),
        }
        return metrics, info, opened

    # -- traced pass --------------------------------------------------------------

    def replays(self, state, tracer, checks):
        """Each serve layer alone over the phase-A elements."""
        span = tracer.span
        stream = state.closed
        lines = [
            frame.decode().rstrip("\n") for frame in stream.frames
            if frame.startswith(b"EVENT")
        ]
        events = [e for e in stream.elements if not is_punctuation(e)]
        with span("protocol.decode"):
            for line in lines:
                decode_data_frame(line.split(" ", 5)[2:])

        data_dir = tempfile.mkdtemp(prefix="replay-")
        journal = TenantJournal(os.path.join(data_dir, "journal.jsonl"))
        try:
            with span("journal.append"):
                for event in events:
                    journal.append_event(event)
        finally:
            journal.close()
        journal_bytes = os.path.getsize(journal.path)

        query = StandingQuery(QID, SPEC)
        with span("standing.push"):
            for element in stream.elements:
                if is_punctuation(element):
                    with span("standing.punct"):
                        query.push_punctuation(element.timestamp)
                else:
                    query.push_event(element)
            query.flush()

        tenant = TenantRuntime("replay", data_dir, QuarantineLedger())
        served = tenant.subscribe(QID, SPEC)
        try:
            with span("tenant.accept"):
                for offset, element in enumerate(stream.elements):
                    if is_punctuation(element):
                        tenant.accept_punctuation(offset, element.timestamp)
                    else:
                        tenant.accept_event(offset, element)
                tenant.accept_end(len(stream.elements))
        finally:
            tenant.close()
        with span("protocol.encode"):
            for position, element in enumerate(served.results):
                result_line(QID, position, element)

        reference = stream.reference
        replayed = [e for e in served.results if not is_punctuation(e)]
        checks.record(
            f"{self.name}: in-process tenant replay equals the batch run",
            [repr(e) for e in replayed] == [repr(e) for e in reference.events],
        )
        return SimpleNamespace(
            journal_bytes=journal_bytes, results=len(served.results),
        )

    def traced(self, state, seconds, tracer, checks):
        self.run_phase(state, state.closed, checks)            # warm-up
        plain, spanned, cpus = [], [], []
        for _ in range(state.sizes.min_reps):
            obs, _, cpu = self.run_phase(state, state.closed, checks)
            plain.append(obs.wall)
            cpus.append(cpu)
            obs, _, _ = self.run_phase(state, state.closed, checks)
            tracer.rep += 1
            tracer.add("server.phase_a", obs.t0, obs.t0 + obs.wall)
            spanned.append(obs.wall)
        base_wall = median(plain)
        live = coverage_metrics(tracer.spans, spanned, base_wall)
        tracer.rep = 0                  # the in-process replays
        opened = self.open_loop(state, checks)
        counts = self.replays(state, tracer, checks)
        own = self_times(tracer.spans)
        n = state.closed.n
        puncts_ms = [
            d * 1e3 for d in durations(tracer.spans, "standing.punct")
        ]
        tenant_wall = own["tenant.accept"]
        metrics = {
            "protocol.decode_us_per_event": own["protocol.decode"] / n * 1e6,
            "protocol.encode_us_per_result":
                own["protocol.encode"] / counts.results * 1e6,
            "journal.append_us_per_event": own["journal.append"] / n * 1e6,
            "journal.bytes_per_event": counts.journal_bytes / n,
            "standing.push_us_per_event": own["standing.push"] / n * 1e6,
            "standing.punct_ms_p50": percentile(puncts_ms, 50),
            "standing.punct_ms_p95": percentile(puncts_ms, 95),
            "tenant.accept_us_per_event": tenant_wall / n * 1e6,
            "server.transport_share": 1.0 - tenant_wall / base_wall,
            "server.cpu_s": median(cpus),
            "server.punct_latency_p95_ms": percentile(opened.waits_ms, 95),
            "server.ack_wait_ms_p50": percentile(opened.ack_ms, 50),
            "server.backlog_max_events": max(opened.backlog),
            "server.gen_late_ms_p95": opened.gen_late_ms_p95,
            "server.shed": opened.counters["shed"],
            "server.quarantined": opened.counters["quarantined"],
        }
        # The live run has no spans inside it, so the span over it is
        # the whole traced wall: coverage and overhead read the same
        # ratio, spanned repetitions over the plain ones between them.
        metrics.update(live)
        return metrics, opened
