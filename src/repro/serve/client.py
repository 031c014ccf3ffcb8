"""Synchronous tenant client for ``repro serve`` — and its chaos twin.

:class:`ServeClient` drives one tenant over two TCP connections — an
*ingest* connection for data frames and a *subscriber* connection for
standing-query results — because a single connection would deadlock: a
client blocked writing a large ingress burst cannot simultaneously drain
the results that burst produces.

The client is exactly-once by construction: it keeps the tenant's full
element list (offset = list index) and, after any disconnect — whether a
chaos fault, an eviction, or the server being ``kill -9``-ed — it
reconnects under its :class:`~repro.resilience.supervisor.RetryPolicy`
(seeded backoff, per-operation socket deadlines) and resumes from the
journal offset the server reports in its ``HELLO`` reply.  Results are
collected into a position-keyed map, so redelivery after a subscriber
reconnect deduplicates naturally.

When constructed with a :class:`~repro.resilience.chaos.FaultInjector`,
the client *is* the hostile traffic: before each first-time send of an
element it draws ``injector.net_fault(tenant)`` and applies the drawn
mode (``disconnect``/``slowloris``/``malform``/``dup``/``split``).
Each offset draws at most once, so the injector's ``fired`` counts
reconcile exactly with the server's per-tenant counters at the end of a
soak.
"""

from __future__ import annotations

import json
import socket
import time

from repro.engine.event import is_punctuation
from repro.resilience.supervisor import RetryPolicy
from repro.serve.protocol import (
    ServeProtocolError,
    _fields,
    parse_result_line,
)

__all__ = ["ServeClient"]


class ServeClient:
    """Exactly-once tenant driver with optional net-fault injection."""

    def __init__(self, host, port, tenant, injector=None, retry=None,
                 io_timeout=10.0):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.injector = injector
        self.retry = retry or RetryPolicy(max_retries=40, base_delay=0.05,
                                          max_delay=1.0, seed=7)
        self.io_timeout = io_timeout
        self.outbox = []       # offset -> Event | Punctuation
        self.next = 0          # next offset to send
        self.specs = {}        # qid -> spec
        self.results = {}      # qid -> {pos: element}
        self.eof = {}          # qid -> final result count
        self.last_ioff = 0
        self._drawn = set()    # offsets that already drew a chaos fault
        self._ingest = None    # (socket, file)
        self._sub = None
        self._sub_active = set()
        self._loris = []       # deliberately stalled connections
        self._last_event_line = None
        self._server_journal = 0

    # -- public API --------------------------------------------------------

    def feed(self, elements) -> None:
        """Append elements to the tenant's canonical stream."""
        self.outbox.extend(elements)

    def subscribe(self, qid, spec) -> None:
        self.specs[qid] = spec
        self.results.setdefault(qid, {})
        self._with_retry(self._ensure_sub)

    def send_until(self, n) -> int:
        """Send every element below offset ``n``; returns the last
        ``IOFF``-acknowledged journal length (durability horizon)."""
        self._with_retry(self._send_step, min(n, len(self.outbox)))
        return self.last_ioff

    def finish(self) -> int:
        """Send the remainder plus the ``END`` marker; returns the final
        journal length (all elements + the flush marker)."""
        self._with_retry(self._send_step, len(self.outbox))
        self._with_retry(self._end_step)
        return self.last_ioff

    def await_complete(self, qid, deadline=60.0):
        """Block until ``qid`` has delivered its full result stream
        (``REOF`` seen and every position filled); returns the ordered
        element list."""
        end = time.monotonic() + deadline
        self._with_retry(self._collect_step, qid, end)
        return self.ordered_results(qid)

    def ordered_results(self, qid):
        got = self.results.get(qid, {})
        return [got[pos] for pos in sorted(got)]

    def snapshot(self) -> dict:
        """One-shot ``SNAPSHOT`` request on a fresh connection."""

        def step():
            sock, fh = self._connect()
            try:
                fh.write(b"SNAPSHOT\n")
                fh.flush()
                return json.loads(self._readline(fh))
            finally:
                sock.close()

        return self._with_retry(step)

    def close(self) -> None:
        for conn in (self._ingest, self._sub):
            if conn is not None:
                try:
                    conn[0].close()
                except OSError:
                    pass
        for sock in self._loris:
            try:
                sock.close()
            except OSError:
                pass
        self._ingest = self._sub = None
        self._loris.clear()

    # -- retry scaffolding -------------------------------------------------

    def _with_retry(self, fn, *args):
        attempt = 0
        while True:
            try:
                return fn(*args)
            except Exception as exc:
                if not self.retry.handles(exc):
                    raise
                if attempt >= self.retry.max_retries:
                    raise
                self._drop_connections()
                time.sleep(self.retry.delay(attempt))
                attempt += 1

    def _drop_connections(self):
        for conn in (self._ingest, self._sub):
            if conn is not None:
                try:
                    conn[0].close()
                except OSError:
                    pass
        self._ingest = self._sub = None
        self._sub_active = set()

    # -- transport ---------------------------------------------------------

    def _connect(self):
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.io_timeout
        )
        return sock, sock.makefile("rwb")

    def _readline(self, fh) -> str:
        line = fh.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return line.decode().rstrip("\n")

    def _hello(self, fh, role=None) -> int:
        suffix = f" {role}" if role else ""
        fh.write(f"HELLO {self.tenant}{suffix}\n".encode())
        fh.flush()
        reply = self._readline(fh)
        if not reply.startswith("OK "):
            raise ConnectionResetError(f"HELLO rejected: {reply}")
        for word in reply.split(" "):
            if word.startswith("journal="):
                return int(word[len("journal="):])
        raise ServeProtocolError(f"HELLO reply without journal=: {reply}")

    def _ensure_ingest(self):
        if self._ingest is None:
            sock, fh = self._connect()
            journal = self._hello(fh)
            self._ingest = (sock, fh)
            # Resume: everything below the journal horizon is durable.
            self._server_journal = journal
            self.next = min(journal, len(self.outbox))
            # Everything the server journaled is durable, END included.
            self.last_ioff = max(self.last_ioff, journal)
        return self._ingest[1]

    def _ensure_sub(self):
        if self._sub is None:
            sock, fh = self._connect()
            self._hello(fh, role="sub")
            self._sub = (sock, fh)
            self._sub_active = set()
        fh = self._sub[1]
        for qid, spec in self.specs.items():
            if qid in self._sub_active:
                continue
            fh.write(
                f"SUB {qid} {spec} from={self._resume_pos(qid)}\n".encode()
            )
            fh.flush()
            self._wait_sub_ok(fh)
            self._sub_active.add(qid)
        return fh

    def _wait_sub_ok(self, fh):
        """Read until the SUB ack, absorbing any interleaved results."""
        while True:
            line = self._readline(fh)
            if line.startswith("OK sub"):
                return
            if line.startswith("ERR"):
                raise ServeProtocolError(line)
            self._absorb(line)

    def _absorb(self, line):
        rqid, pos, element = parse_result_line(line)
        if element is None:
            self.eof[rqid] = pos
        else:
            self.results.setdefault(rqid, {})[pos] = element

    def _resume_pos(self, qid) -> int:
        """First missing result position (contiguous prefix length)."""
        got = self.results.get(qid, {})
        pos = 0
        while pos in got:
            pos += 1
        return pos

    # -- ingest steps ------------------------------------------------------

    def _frame_for(self, offset) -> str:
        element = self.outbox[offset]
        if is_punctuation(element):
            return f"PUNCT {offset} {element.timestamp}"
        return (
            f"EVENT {offset} {element.sync_time} {element.other_time} "
            f"{_fields(element.key, element.payload)}"
        )

    def _send_step(self, n):
        while self.next < n:
            self._ensure_ingest()
            offset = self.next
            if offset >= n:
                break  # a resume rewound/advanced past the target
            line = self._frame_for(offset)
            already_sent = self._maybe_chaos(offset, line)
            if self._ingest is None:
                continue  # disconnect fault: reconnect + resume
            fh = self._ingest[1]
            if not already_sent:
                self._send_line(fh, line)
            if line.startswith("EVENT"):
                self._last_event_line = line
            self.next = offset + 1
            if line.startswith("PUNCT"):
                self._await_ioff(fh)

    def _end_step(self):
        fh = self._ensure_ingest()
        total = len(self.outbox)
        if self._server_journal > total or self.last_ioff > total:
            return  # END already journaled before a reconnect
        self._send_line(fh, f"END {total}")
        self._await_ioff(fh)

    def _send_line(self, fh, line, split_at=None):
        data = (line + "\n").encode()
        if split_at is None:
            fh.write(data)
            fh.flush()
            return
        fh.write(data[:split_at])
        fh.flush()
        time.sleep(0.02)  # two packets, well under the server deadline
        fh.write(data[split_at:])
        fh.flush()

    def _await_ioff(self, fh):
        while True:
            reply = self._readline(fh)
            if reply.startswith("IOFF "):
                self.last_ioff = max(self.last_ioff, int(reply[5:]))
                return
            if reply == "BYE":
                raise ConnectionResetError("server draining")
            if reply.startswith("ERR"):
                raise ServeProtocolError(reply)

    # -- chaos -------------------------------------------------------------

    def _maybe_chaos(self, offset, line) -> bool:
        """Draw and apply at most one net fault per element offset.

        Returns ``True`` when the fault path already put the real frame
        on the wire (``split``); the caller then skips the normal send.
        """
        if self.injector is None or offset in self._drawn:
            return False
        self._drawn.add(offset)
        mode = self.injector.net_fault(self.tenant)
        if mode is None:
            return False
        fh = self._ingest[1]
        if mode == "disconnect":
            # Drop mid-stream and resume on a fresh connection.  Half-
            # close first so the server drains every in-flight frame —
            # otherwise frames racing the drop get resent after resume
            # and the duplicate counter stops reconciling with the
            # injector's dup count.
            sock = self._ingest[0]
            try:
                sock.shutdown(socket.SHUT_WR)
                while fh.readline():
                    pass
            except OSError:
                pass
            self._drop_connections()
        elif mode == "slowloris":
            # A throwaway connection stalls mid-frame until evicted.
            sock, loris = self._connect()
            self._hello(loris)
            loris.write(b"EVENT 999")  # half a frame, then silence
            loris.flush()
            self._loris.append(sock)
        elif mode == "malform":
            self._send_line(fh, f"EVENT {offset} not-a-sync-time !! {{")
        elif mode == "dup":
            # Resend an already-journaled event frame (or pre-send the
            # current one, whose normal send then becomes the duplicate)
            # — either way the server counts exactly one duplicate.
            # PUNCT frames are never duplicated: the extra IOFF ack
            # would desync the punctuation conversation.
            dup = self._last_event_line
            if dup is None and line.startswith("EVENT"):
                dup = line
            if dup is not None:
                self._send_line(fh, dup)
        elif mode == "split":
            self._send_line(fh, line, split_at=max(1, len(line) // 2))
            return True
        return False

    # -- subscriber steps --------------------------------------------------

    def _collect_step(self, qid, end):
        fh = self._ensure_sub()
        while True:
            done = self.eof.get(qid)
            if done is not None and len(self.results[qid]) >= done:
                return
            if time.monotonic() > end:
                # Deliberately NOT a TimeoutError: the retry policy
                # must not swallow the overall collection deadline.
                raise ServeProtocolError(
                    f"standing query {qid!r} incomplete after deadline"
                )
            line = self._readline(fh)
            if line == "BYE":
                raise ConnectionResetError("server draining")
            if line.startswith(("OK", "ERR")):
                continue
            self._absorb(line)
