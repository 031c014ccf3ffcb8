"""The always-on ingress server behind ``repro serve``.

One asyncio event loop hosts two listeners — the TCP line protocol and
the HTTP/JSON-log surface — over a shared set of
:class:`~repro.serve.tenant.TenantRuntime` state machines.  The design
goal is *robustness by construction*: every hostile-traffic behaviour
has a bounded, counted, observable response rather than an exception
path.

* **Bounded ingress queues** — each tenant owns one
  ``asyncio.Queue(maxsize=queue_capacity)``.  A queue item is one socket
  read's tenant-scoped lines (a read is at most 64 KiB, so the queue
  holds at most ``queue_capacity × 64 KiB`` of TCP frames, 1 MiB at the
  default 16) or one HTTP body.  Connection readers block in ``put()``
  when it fills, which propagates as TCP backpressure to the producer.
  A single consumer task per tenant serializes frame processing across
  every connection (TCP and HTTP) touching that tenant; it applies an
  item's lines in order — each run of ``EVENT`` lines as one decode,
  one journal write and one push per standing query — group-commits the
  journal and pumps results once per item, and saves state once, after
  its last line, when it applied any line but an accepted ``EVENT``.
* **Slow-writer eviction** — reads are chunked through a per-connection
  buffer with a deadline; a peer that stalls mid-frame (slowloris) is
  evicted and counted, while an idle connection with *no* partial frame
  is left alone indefinitely.
* **Slow-consumer eviction** — result delivery drains with the same
  deadline; a subscriber that stops reading is evicted rather than
  allowed to wedge the tenant.
* **Load shedding** — with a ``quota``, a tenant whose standing query
  buffers more than ``quota`` events forces one journaled early
  punctuation (:meth:`~repro.serve.tenant.TenantRuntime._check_quota`).
* **Quarantine, not crash** — malformed frames are dead-lettered through
  the shared :class:`~repro.resilience.quarantine.QuarantineLedger`
  (``net:<tenant>@<offset>`` source records) and ingress continues.
* **Graceful drain** — SIGTERM stops the listeners, drains every tenant
  queue (any queued punctuation still produces its results), delivers
  outstanding results, persists state, and exits 0.
* **Crash recovery** — ``kill -9`` loses nothing accepted: boot replays
  per-tenant journals through freshly bound standing pipelines and
  verifies the regenerated result prefix against the persisted digests
  (:class:`~repro.core.errors.ReplayDivergenceError` on divergence).

Each ``PUNCT``/``END`` is applied, committed to the journal and pumped
at its own position in the item, and its ``IOFF`` is written there: the
journal commit is the only durability point an ack waits for.  State is
saved once per queue item that applied a ``PUNCT``, ``END``, ``SUB``,
``UNSUB``, duplicate, gap or quarantined line, after its last line, and
on evictions and drain; it is a checkpoint of what replay cannot
rebuild, not an ack.  The journal commit invariants are listed in
:mod:`repro.serve.journal`.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import signal
from itertools import repeat

from repro.core.errors import ServeProtocolError
from repro.framework.streamables import lag_stats
from repro.observability.snapshot import PipelineSnapshot
from repro.resilience.quarantine import QuarantineLedger
from repro.serve.journal import load_state, save_state
from repro.serve.protocol import (
    _fields,
    decode_data_frame,
    decode_event_run,
    result_line,
)
from repro.serve.tenant import TenantRuntime

__all__ = ["ReproServer"]

#: Line prefixes of tenant commands: never blank, never answered inline.
_QUEUED = ("EVENT ", "PUNCT ", "END ", "SUB ", "UNSUB ")


class _SlowWriter(Exception):
    """A peer stalled mid-frame past the read deadline."""


class _Subscriber:
    """One connection's registration on one standing query."""

    __slots__ = ("writer", "qid", "pos", "eof_sent")

    def __init__(self, writer, qid, pos):
        self.writer = writer
        self.qid = qid
        self.pos = pos
        self.eof_sent = False


class ReproServer:
    """Multi-tenant standing-query service over TCP + HTTP listeners."""

    def __init__(self, data_dir, host="127.0.0.1", port=0, http_port=0,
                 quota=None, queue_capacity=16,
                 read_deadline=2.0, ledger_max_entries=1_000):
        if quota is not None and quota < 1:
            raise ValueError(f"quota must be >= 1 event, got {quota}")
        self.data_dir = str(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.host = host
        self.port = port
        self.http_port = http_port
        self.quota = quota
        self.queue_capacity = queue_capacity
        self.read_deadline = read_deadline
        self.ledger = QuarantineLedger(
            max_entries=ledger_max_entries,
            sidecar=os.path.join(self.data_dir, "quarantine.jsonl"),
        )
        self.tenants = {}      # name -> TenantRuntime
        self.queues = {}       # name -> asyncio.Queue of ([line], writer)
        self.subs = {}         # name -> [_Subscriber]
        self._consumers = {}   # name -> Task
        self._writers = set()  # every open StreamWriter (for drain BYE)
        self._servers = []
        self._stopped = None
        self.draining = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Recover persisted state, bind listeners, install signals."""
        self._stopped = asyncio.Event()
        self._recover()
        tcp = await asyncio.start_server(
            self._handle_tcp, self.host, self.port
        )
        self.port = tcp.sockets[0].getsockname()[1]
        http = await asyncio.start_server(
            self._handle_http, self.host, self.http_port
        )
        self.http_port = http.sockets[0].getsockname()[1]
        self._servers = [tcp, http]
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platform without signal support

    async def wait_stopped(self):
        await self._stopped.wait()

    def _recover(self):
        """Rebuild every tenant found in the state file or on disk.

        A crash can race the first state save, so journals on disk are
        authoritative for tenant existence; the state file contributes
        counters and the standing-query registry + digests.
        """
        doc = load_state(self.data_dir)
        # Quarantine-by-reason totals survive restarts with the state
        # file; entry bodies live in the JSONL sidecar.
        self.ledger.counts.update(doc.get("quarantine", {}))
        state = doc.get("tenants", {})
        on_disk = {
            os.path.basename(path)[len("journal-"):-len(".jsonl")]
            for path in glob.glob(
                os.path.join(self.data_dir, "journal-*.jsonl")
            )
        }
        for name in sorted(on_disk | set(state)):
            runtime = self._tenant(name)
            runtime.recover(state.get(name, {}))

    def _tenant(self, name) -> TenantRuntime:
        runtime = self.tenants.get(name)
        if runtime is None:
            runtime = TenantRuntime(
                name, self.data_dir, self.ledger, quota=self.quota
            )
            self.tenants[name] = runtime
            self.queues[name] = asyncio.Queue(maxsize=self.queue_capacity)
            self.subs[name] = []
            self._consumers[name] = asyncio.ensure_future(
                self._consume(name)
            )
        return runtime

    # -- graceful drain ----------------------------------------------------

    def request_drain(self):
        """SIGTERM/SIGINT entry point: finish what's queued, then stop."""
        if not self.draining:
            self.draining = True
            asyncio.ensure_future(self._drain())

    async def _drain(self):
        for server in self._servers:
            server.close()
        for queue in self.queues.values():
            await queue.join()
        for name in self.tenants:
            await self._pump(name)
        self._save()
        for writer in list(self._writers):
            try:
                writer.write(b"BYE\n")
                await writer.drain()
                writer.close()
            except (ConnectionError, RuntimeError):
                pass
        for task in self._consumers.values():
            task.cancel()
        for runtime in self.tenants.values():
            runtime.close()
        self._stopped.set()

    def _save(self):
        """Persist every tenant's state."""
        for runtime in self.tenants.values():
            runtime.journal.commit()
        save_state(self.data_dir, {
            "tenants": {
                name: runtime.as_state()
                for name, runtime in self.tenants.items()
            },
            "quarantine": dict(self.ledger.counts),
        })

    def _settle(self):
        """:meth:`_save` at the end of a queue item.  The journal holds
        every line acked so far, so a failed save loses no ack, and the
        tenant runs on."""
        try:
            self._save()
        except Exception:
            pass

    # -- observability -----------------------------------------------------

    def serve_doc(self) -> dict:
        """The ``serve`` section of the live pipeline snapshot."""
        tenants = {}
        for name, runtime in self.tenants.items():
            tenants[name] = {
                "queue_depth": self.queues[name].qsize(),
                "queue_capacity": self.queue_capacity,
                "journal": runtime.journal.length,
                "journal_commits": runtime.journal.commits,
                "watermark": runtime.watermark,
                "counters": dict(runtime.counters),
                "subscribers": len(self.subs[name]),
                "queries": {
                    qid: {
                        "spec": query.spec,
                        "engine": query.engine,
                        "row_reason": query.row_reason,
                        "delivered": query.delivered,
                        "completed": query.completed,
                        "buffered": query.buffered_events(),
                        "lag": lag_stats(query.lags),
                    }
                    for qid, query in runtime.queries.items()
                },
            }
        return {
            "draining": self.draining,
            "quota": self.quota,
            "quarantine": self.ledger.as_dict(),
            "tenants": tenants,
        }

    def snapshot(self) -> PipelineSnapshot:
        return PipelineSnapshot(
            [], meta={"service": "repro-serve"}, serve=self.serve_doc()
        )

    # -- shared read path --------------------------------------------------

    async def _read_lines(self, reader, buf):
        """Deadline-guarded read through a connection-owned buffer.

        Returns every complete line the next read(s) brought in, or
        ``None`` on EOF.  Raises :class:`_SlowWriter` when the peer
        stalls *mid-frame*; a peer that is merely idle between frames
        waits forever.
        """
        while True:
            try:
                chunk = await asyncio.wait_for(
                    reader.read(1 << 16), self.read_deadline
                )
            except asyncio.TimeoutError:
                if buf:
                    raise _SlowWriter from None
                continue
            if not chunk:
                return None
            buf.extend(chunk)
            end = buf.rfind(b"\n")
            if end >= 0:
                text = buf[:end].decode("utf-8", "replace")
                del buf[:end + 1]
                lines = text.split("\n")
                if "\r" in text:
                    lines = [line.rstrip("\r") for line in lines]
                return lines

    # -- TCP protocol ------------------------------------------------------

    async def _handle_tcp(self, reader, writer):
        self._writers.add(writer)
        buf = bytearray()
        tenant = None
        try:
            closing = False
            while not closing:
                try:
                    lines = await self._read_lines(reader, buf)
                except _SlowWriter:
                    self._evict(tenant, "stalled mid-frame")
                    break
                if lines is None:
                    break
                # Tenant-scoped lines flow through the bounded queue, one
                # item per run between connection-scoped commands:
                # backpressure + serialized processing.  A read of
                # tenant commands only, the common case, is one item.
                if (tenant is not None and not self.draining
                        and all(map(str.startswith, lines,
                                    repeat(_QUEUED)))):
                    await self.queues[tenant].put((lines, writer))
                    continue
                run = []
                for line in lines:
                    if not line.strip():
                        continue
                    cmd = line.partition(" ")[0]
                    inline = cmd in ("SNAPSHOT", "QUIT") or (
                        cmd == "HELLO" and " " in line
                    )
                    if inline and run:
                        await self.queues[tenant].put((run, writer))
                        run = []
                    if self.draining:
                        closing = True
                        break
                    if not inline:
                        if tenant is not None:
                            run.append(line)
                        else:
                            self._reply(
                                writer, "ERR no-tenant say HELLO first"
                            )
                    elif cmd == "HELLO":
                        tenant = await self._hello(line.split(" "), writer)
                    elif cmd == "SNAPSHOT":
                        snap = self.snapshot().to_json(indent=None)
                        self._reply(writer, snap)
                    else:  # QUIT
                        self._reply(writer, "BYE")
                        closing = True
                        break
                if run:
                    await self.queues[tenant].put((run, writer))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            if tenant is not None:
                self.subs[tenant] = [
                    s for s in self.subs[tenant] if s.writer is not writer
                ]
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _hello(self, parts, writer):
        """Bind the connection to tenant ``parts[1]``; returns its name."""
        name = parts[1]
        role = parts[2] if len(parts) > 2 else "ingest"
        existed = name in self.tenants
        runtime = self._tenant(name)
        if existed:
            # Quiesce: frames queued by previous connections must land
            # before we report the resume offset, or the reconnecting
            # client would resend them.
            await self.queues[name].join()
        if role == "ingest":
            if runtime.had_ingest:
                runtime.counters["reconnects"] += 1
            runtime.had_ingest = True
        self._reply(
            writer, f"OK tenant={name} journal={runtime.journal.length}"
        )
        return name

    def _evict(self, tenant, why) -> None:
        if tenant is not None:
            self.tenants[tenant].counters["evictions"] += 1
            self._save()

    def _reply(self, writer, line) -> None:
        if writer is None:  # HTTP-originated frames have no line channel
            return
        try:
            writer.write((line + "\n").encode())
        except (ConnectionError, RuntimeError):
            pass

    # -- tenant consumers --------------------------------------------------

    async def _consume(self, name):
        queue = self.queues[name]
        while True:
            lines, writer = await queue.get()
            try:
                await self._apply(name, lines, writer)
            finally:
                queue.task_done()

    async def _apply(self, name, lines, writer):
        """Apply one queue item's lines in order, then pump once.

        Each maximal run of well-formed ``EVENT`` lines is decoded,
        journaled and pushed as one
        :class:`~repro.serve.protocol.EventRun`; a line the run
        decoder refuses, and a duplicate or gap that ends what the
        tenant takes of a run, go through :meth:`_process` alone.
        Results of the events accepted so far are pumped before any
        other command runs, so every connection sees its lines in the
        same order as a pump after every event would give.  State is
        saved once at the end if any line was not an accepted event, or
        if a tenant counter or the ledger moved.
        """
        runtime = self.tenants[name]
        pending = False  # events accepted since the last pump
        dirty = False    # a line other than an accepted event applied
        moved = sum(runtime.counters.values()), self.ledger.total
        index = 0
        while index < len(lines):
            run = decode_event_run(lines, index)
            while len(run):
                try:
                    taken = runtime.accept_events(run)
                except Exception:
                    taken = len(run)  # survive anything, as a line does
                pending = pending or taken > 0
                if taken < len(run):  # a duplicate, a gap or a shed
                    line = lines[index + taken]
                    if not await self._apply_line(name, line, writer):
                        dirty = True
                    taken += 1
                run = run[taken:]
                index += taken
            if index == len(lines):
                break
            line = lines[index]
            if pending and not line.startswith("EVENT "):
                pending = False
                await self._pump_guarded(name)
            if await self._apply_line(name, line, writer):
                pending = True
            else:
                dirty = True
            index += 1
        if pending:
            await self._pump_guarded(name)
        # Counters only grow: a shed or a refusal moves one.
        if dirty or moved != (sum(runtime.counters.values()),
                              self.ledger.total):
            self._settle()

    async def _apply_line(self, name, line, writer):
        """:meth:`_process`, surviving anything one frame can do."""
        try:
            return await self._process(name, line, writer)
        except Exception:
            return False

    async def _pump_guarded(self, name):
        """:meth:`_pump` for pumps owed by earlier lines: a failed one
        must not drop the line that follows it."""
        try:
            await self._pump(name)
        except Exception:
            pass

    async def _process(self, name, line, writer):
        """Apply one tenant-scoped line; True when it accepted an event
        whose results the caller still has to pump.  A ``PUNCT``/``END``
        is acked once its journal commit and pump are done."""
        runtime = self.tenants[name]
        parts = line.split(" ", 5)
        cmd = parts[0]
        if cmd in ("EVENT", "PUNCT", "END"):
            try:
                offset = self._offset(runtime, parts[1])
                element = (None if cmd == "END"
                           else decode_data_frame(parts[2:]))
                if (cmd == "PUNCT") != hasattr(element, "timestamp"):
                    raise ServeProtocolError(
                        f"{cmd} frame has the wrong number of fields")
            except (ServeProtocolError, IndexError) as exc:
                runtime.quarantine(runtime.journal.length, line, str(exc))
                return False
            try:
                if cmd == "EVENT":
                    # An append frame's line does not carry the offset it gets.
                    wire = None if offset != int(parts[1]) else line
                    return runtime.accept_event(offset, element, wire)
                accepted = (runtime.accept_end(offset) if element is None
                            else runtime.accept_punctuation(
                                offset, element.timestamp))
            except ServeProtocolError as exc:
                await self._pump_guarded(name)
                self._reply(writer, f"ERR gap {exc}")
                return False
            # A duplicate gets no ack, or IOFFs would desync.
            if accepted:
                await self._pump(name)
                self._reply(writer, f"IOFF {runtime.journal.length}")
        elif cmd == "SUB":
            await self._subscribe(runtime, line, writer)
        elif cmd == "UNSUB" and len(parts) >= 2:
            try:
                runtime.unsubscribe(parts[1])
            except ServeProtocolError as exc:
                self._reply(writer, f"ERR unsub {exc}")
                return
            self.subs[name] = [
                s for s in self.subs[name] if s.qid != parts[1]
            ]
            self._reply(writer, f"OK unsub {parts[1]}")
        else:
            runtime.quarantine(
                runtime.journal.length, line, f"unknown command {cmd!r}"
            )

    @staticmethod
    def _offset(runtime, text) -> int:
        try:
            offset = int(text)
        except ValueError:
            raise ServeProtocolError(
                f"offset {text!r} is not an integer"
            ) from None
        # -1 is the HTTP "append" sentinel: no client-side offsets.
        return runtime.journal.length if offset == -1 else offset

    async def _subscribe(self, runtime, line, writer):
        parts = line.split(" ")
        if len(parts) < 3:
            self._reply(writer, "ERR sub SUB <qid> <spec> [from=<n>]")
            return
        qid, spec = parts[1], parts[2]
        pos = 0
        for extra in parts[3:]:
            if extra.startswith("from="):
                try:
                    pos = int(extra[len("from="):])
                except ValueError:
                    self._reply(writer, "ERR sub bad from= position")
                    return
        try:
            runtime.subscribe(qid, spec)
        except ServeProtocolError as exc:
            self._reply(writer, f"ERR sub {exc}")
            return
        self.subs[runtime.name].append(_Subscriber(writer, qid, pos))
        self._reply(writer, f"OK sub {qid}")
        await self._pump(runtime.name)

    async def _pump(self, name):
        """Deliver newly materialized results to every subscriber.

        A subscriber whose transport cannot drain within the deadline is
        evicted — one wedged consumer must not hold a tenant's results
        hostage.  The journal is committed first: no result leaves
        before the ingress it was derived from is durable.
        """
        runtime = self.tenants[name]
        runtime.journal.commit()
        for sub in list(self.subs[name]):
            query = runtime.queries.get(sub.qid)
            if query is None:
                continue
            lines = [
                result_line(sub.qid, pos, query.results[pos])
                for pos in range(sub.pos, len(query.results))
            ]
            sub.pos += len(lines)
            if query.completed and not sub.eof_sent:
                lines.append(f"REOF {sub.qid} {sub.pos}")
                sub.eof_sent = True
            if not lines:
                continue
            # One write: a transport sends each write it can at once.
            self._reply(sub.writer, "\n".join(lines))
            try:
                await asyncio.wait_for(
                    sub.writer.drain(), self.read_deadline
                )
            except (asyncio.TimeoutError, ConnectionError):
                self.subs[name].remove(sub)
                self._evict(name, "subscriber failed to drain")
                try:
                    sub.writer.close()
                except RuntimeError:
                    pass

    # -- HTTP/JSON-log framing ---------------------------------------------

    async def _handle_http(self, reader, writer):
        self._writers.add(writer)
        try:
            request = await asyncio.wait_for(
                reader.readline(), self.read_deadline
            )
            words = request.decode("utf-8", "replace").split(" ")
            if len(words) < 2:
                return
            method, target = words[0], words[1]
            length = 0
            while True:
                header = await asyncio.wait_for(
                    reader.readline(), self.read_deadline
                )
                text = header.decode("utf-8", "replace").strip()
                if not text:
                    break
                key, _, value = text.partition(":")
                if key.lower() == "content-length":
                    length = int(value.strip() or 0)
            body = b""
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self.read_deadline * 4
                )
            status, doc = await self._route_http(method, target, body)
            payload = json.dumps(doc).encode() + b"\n"
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n".encode() + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, ValueError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _route_http(self, method, target, body):
        if method == "GET" and target == "/healthz":
            return "200 OK", {"ok": True, "draining": self.draining}
        if method == "GET" and target == "/snapshot":
            return "200 OK", self.snapshot().as_dict()
        if method == "POST" and target.startswith("/ingest/"):
            name = target[len("/ingest/"):]
            if not name or "/" in name:
                return "404 Not Found", {"error": "bad tenant"}
            if self.draining:
                return "503 Service Unavailable", {"error": "draining"}
            runtime = self._tenant(name)
            queue = self.queues[name]
            frames = [
                self._http_frame(raw)
                for raw in body.decode("utf-8", "replace").splitlines()
                if raw.strip()
            ]
            if frames:
                await queue.put((frames, None))
            await queue.join()
            runtime.journal.commit()  # a 200 promises what an IOFF does
            return "200 OK", {
                "accepted": len(frames),
                "journal": runtime.journal.length,
                "counters": dict(runtime.counters),
            }
        return "404 Not Found", {"error": f"no route {method} {target}"}

    @staticmethod
    def _http_frame(raw) -> str:
        """One NDJSON ingest document -> an equivalent protocol line.

        Unparseable documents, and event documents whose ``sync`` is not
        an integer, pass through verbatim so the consumer quarantines
        them with the same machinery as TCP frames.
        """
        try:
            doc = json.loads(raw)
            if not isinstance(doc, dict):
                return raw
        except json.JSONDecodeError:
            return raw
        offset = doc.get("offset", -1)
        if doc.get("end"):
            return f"END {offset}"
        if "punct" in doc:
            return f"PUNCT {offset} {doc['punct']}"
        sync = doc.get("sync")
        if not isinstance(sync, int):
            return raw
        return (
            f"EVENT {offset} {sync} {doc.get('other', sync + 1)} "
            f"{_fields(doc.get('key', 0), doc.get('payload'))}"
        )

    def __repr__(self):
        return (
            f"ReproServer(port={self.port}, http_port={self.http_port}, "
            f"tenants={len(self.tenants)}, draining={self.draining})"
        )
