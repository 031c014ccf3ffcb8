"""Read-to-``IOFF`` delay of ``repro serve`` under the ``serve_stream``
closed loop.

The server runs in this process, so one clock stamps both ends of each
ack: the socket read that carries a ``PUNCT`` and the write of its
``IOFF``.  The client is a subprocess (this module with ``--client``)
that drives the closed loop through ``benchmarks.e2e.serve``'s
``encode_stream`` and ``live_run``: the benchmark's stream (seeded
CloudLog, 40k events, a ``PUNCT`` every 400), one warm-up run, then
``--reps`` timed runs, each on a fresh tenant.  The probe also counts
``state.json`` saves per run, those of the item holding the ``SUB``
apart from those of the stream's items.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.serve_ack_probe --reps 5

It prints one JSON line: the delay's p50/p95 in ms over the timed
runs' ``PUNCT`` acks, how many acks that is, and saves per run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from collections import Counter

import numpy as np

from repro.serve import ReproServer
from repro.serve import server as server_module


class _StampedServer(ReproServer):
    """A server that stamps ``PUNCT`` reads and ``IOFF`` writes, and
    counts the state saves each queue item makes."""

    def __init__(self, data_dir):
        super().__init__(data_dir)
        self.reads = {}         # (writer, IOFF value) -> read time
        self.delays = {}        # ingest writer -> [ms], in run order
        self.saves = Counter()  # "sub" / "stream" -> saves
        self.saved = 0          # every save_state call
        self._writer_of = {}    # reader -> writer

    async def _handle_tcp(self, reader, writer):
        self._writer_of[reader] = writer
        await super()._handle_tcp(reader, writer)

    async def _read_lines(self, reader, buf):
        lines = await super()._read_lines(reader, buf)
        now = time.perf_counter()
        writer = self._writer_of.get(reader)
        for line in lines or ():
            if line.startswith("PUNCT "):
                self.reads[writer, int(line.split(" ")[1]) + 1] = now
        return lines

    def _reply(self, writer, line):
        super()._reply(writer, line)
        if line.startswith("IOFF "):
            now = time.perf_counter()
            for ack in line.split("\n"):  # acks may leave in one write
                read = self.reads.pop((writer, int(ack[5:])), None)
                if read is not None:
                    self.delays.setdefault(writer, []).append(
                        (now - read) * 1e3)

    async def _apply(self, name, lines, writer):
        before = self.saved
        await super()._apply(name, lines, writer)
        kind = ("sub" if any(line.startswith("SUB ") for line in lines)
                else "stream")
        self.saves[kind] += self.saved - before


async def _probe(reps, seed):
    with tempfile.TemporaryDirectory(prefix="serve-ack-") as data_dir:
        server = _StampedServer(data_dir)
        save_state = server_module.save_state

        def counted(*args):
            server.saved += 1
            return save_state(*args)

        server_module.save_state = counted
        try:
            await server.start()
            client = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "benchmarks.serve_ack_probe",
                "--client", str(server.port), "--reps", str(reps),
                "--seed", str(seed),
            )
            status = await client.wait()
            server.request_drain()
            await server.wait_stopped()
        finally:
            server_module.save_state = save_state
    if status:
        raise SystemExit(f"client exited {status}")
    timed = list(server.delays.values())[1:]  # the warm-up run goes
    delays = np.concatenate(timed)
    runs = reps + 1
    return {
        "runs": len(timed),
        "punct_acks": int(delays.size),
        "ack_ms_p50": round(float(np.percentile(delays, 50)), 3),
        "ack_ms_p95": round(float(np.percentile(delays, 95)), 3),
        "saves_per_run": {kind: server.saves[kind] / runs
                          for kind in ("stream", "sub")},
    }


def _client(port, reps, seed):
    """The warm-up run, then ``reps`` closed-loop runs."""
    from benchmarks.e2e import inputs
    from benchmarks.e2e.serve import encode_stream, live_run
    from benchmarks.e2e.spec import FULL

    parts = {}
    dataset = inputs.generate("cloudlog", FULL.serve_n, seed, parts)
    stream = encode_stream(dataset.head(FULL.serve_closed_n),
                           FULL.serve_punct_every, parts)
    for run in range(reps + 1):
        obs = live_run("127.0.0.1", port, f"t{run}", stream)
        if obs.errors:
            raise SystemExit(f"run {run}: {obs.errors[0]!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5,
                        help="timed closed-loop runs after one warm-up")
    parser.add_argument("--seed", type=int, default=0,
                        help="CloudLog seed, as the benchmark's --seed")
    parser.add_argument("--client", type=int, metavar="PORT",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.client is not None:
        _client(args.client, args.reps, args.seed)
        return
    print(json.dumps(asyncio.run(_probe(args.reps, args.seed))))


if __name__ == "__main__":
    main()
