"""Server time of the ``serve_stream`` phases, replayed in-process.

The benchmark's closed loop (``benchmarks.e2e.serve``'s
``encode_stream``: seeded CloudLog, 40k events, a ``PUNCT`` every 400,
then ``END``) is cut into the 64 KiB items ``ReproServer._read_lines``
cuts from a socket.  With ``--phase open``, the open loop of a
``--seconds 10`` benchmark run (90k events due at 15k/s) is cut into
one item per 1 ms sender tick, the lines that fell due in it.  Each item
goes through ``ReproServer._apply`` as the tenant's consumer applies it:
no socket, no client, no event loop wakeups.  The
benchmark's query is subscribed on a writer that only counts bytes, so
its results are encoded as the benchmark's subscriber gets them; the
acks go to another such writer.  Loopback runs spread too widely to
show a change of server time; this replay keeps only the server's own
work.

Each run is a fresh tenant.  After one warm-up run, ``--reps`` timed
runs give wall and CPU seconds per run, and CPU microseconds per event.
One more run, with the layers wrapped in timers, gives the split between
decode (``decode_event_run``), ``accept_events``,
``accept_punctuation``, ``_pump`` and the state save (``_save``), and
the percentiles of the lines per decoded run; the wrappers' own cost
makes its total exceed an untimed run's.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.serve_apply_probe --reps 5
    PYTHONPATH=src python -m benchmarks.serve_apply_probe --phase open

It prints one JSON line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import tempfile
import time
from collections import Counter

from repro.serve import ReproServer, TenantRuntime
from repro.serve import server as server_module

#: What one ``StreamReader.read`` hands ``_read_lines`` at most.
READ = 1 << 16
#: The open loop's length in a ``--seconds 10`` benchmark run.
OPEN_SECONDS = 6.0


class _Sink:
    """A ``StreamWriter`` that keeps only a byte count."""

    def __init__(self):
        self.bytes = 0

    def write(self, data):
        self.bytes += len(data)

    async def drain(self):
        pass

    def close(self):
        pass


def stream_items(seed, phase="closed"):
    """The phase's lines, cut into items: for the closed loop as
    ``_read_lines`` cuts 64 KiB reads (each item ends at the last newline
    of its read), for the open loop one item per sender tick."""
    from benchmarks.e2e import inputs
    from benchmarks.e2e.serve import SPEC, TICK, encode_stream, open_loop_due
    from benchmarks.e2e.spec import FULL

    parts = {}
    dataset = inputs.generate("cloudlog", FULL.serve_n, seed, parts)
    if phase == "open":
        n = min(int(FULL.serve_rate * OPEN_SECONDS), len(dataset))
        stream = encode_stream(dataset.head(n), FULL.serve_punct_every,
                               parts)
        items = {}
        for frame, due in zip(stream.frames,
                              open_loop_due(stream, FULL.serve_rate)):
            items.setdefault(int(due / TICK), []).append(
                frame.decode()[:-1])
        return SPEC, list(items.values()), stream.n
    stream = encode_stream(dataset.head(FULL.serve_closed_n),
                           FULL.serve_punct_every, parts)
    data = b"".join(stream.frames)
    items, start = [], 0
    while start < len(data):
        end = data.rfind(b"\n", start, start + READ)
        items.append(data[start:end].decode().split("\n"))
        start = end + 1
    return SPEC, items, stream.n


async def _run(server, tenant, spec, items):
    """One run of ``items`` on a fresh tenant; returns the bytes the
    subscriber got."""
    server._tenant(tenant)
    server._consumers[tenant].cancel()
    sink, acks = _Sink(), _Sink()  # the subscriber's and the ingest's
    await server._apply(tenant, [f"SUB q1 {spec}"], sink)
    for lines in items:
        await server._apply(tenant, lines, acks)
    server.tenants[tenant].close()
    return sink.bytes


def _timed(split, name, function, wrap_async=False):
    """``function`` charging its wall time to ``split[name]``."""
    if wrap_async:
        async def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                split[name] += time.perf_counter() - start
    else:
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                split[name] += time.perf_counter() - start
    return timed


def _counted(lengths, decode):
    """``decode`` counting the lines of each run it returns."""
    def counted(*args):
        run = decode(*args)
        lengths.append(len(run))
        return run
    return counted


async def _probe(reps, seed, phase):
    spec, items, n = stream_items(seed, phase)
    walls, cpus, split = [], [], Counter()
    with tempfile.TemporaryDirectory(prefix="serve-apply-") as data_dir:
        server = ReproServer(data_dir)
        results = await _run(server, "warm", spec, items)
        for rep in range(reps):
            wall, cpu = time.perf_counter(), time.process_time()
            await _run(server, f"t{rep}", spec, items)
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
        wrapped = [
            (server_module, "decode_event_run", "decode", False),
            (TenantRuntime, "accept_events", "accept_events", False),
            (TenantRuntime, "accept_punctuation", "accept_punctuation",
             False),
            (ReproServer, "_pump", "pump", True),
            (ReproServer, "_save", "save", False),
        ]
        originals = [getattr(owner, attr) for owner, attr, _, _ in wrapped]
        try:
            for (owner, attr, name, is_async), original in zip(
                    wrapped, originals):
                setattr(owner, attr, _timed(split, name, original, is_async))
            wall = time.perf_counter()
            await _run(server, "split", spec, items)
            split["run"] = time.perf_counter() - wall
        finally:
            for (owner, attr, _, _), original in zip(wrapped, originals):
                setattr(owner, attr, original)
        lengths = []
        server_module.decode_event_run = _counted(lengths, originals[0])
        try:
            await _run(server, "lengths", spec, items)
        finally:
            server_module.decode_event_run = originals[0]
    lengths = [length for length in lengths if length]  # at PUNCT/END
    cuts = statistics.quantiles(lengths, n=10)
    return {
        "phase": phase,
        "seed": seed,
        "events": n,
        "items": len(items),
        "result_bytes": results,
        "runs": reps,
        "wall_s_median": round(statistics.median(walls), 4),
        "wall_s_min": round(min(walls), 4),
        "cpu_s_median": round(statistics.median(cpus), 4),
        "cpu_us_per_event": round(statistics.median(cpus) / n * 1e6, 2),
        "run_lines": {"runs": len(lengths), "p10": cuts[0],
                      "p50": statistics.median(lengths), "p90": cuts[-1]},
        "split_ms": {name: round(seconds * 1e3, 1)
                     for name, seconds in split.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5,
                        help="timed runs after one warm-up")
    parser.add_argument("--seed", type=int, default=1,
                        help="CloudLog seed, as the benchmark's --seed")
    parser.add_argument("--phase", choices=("closed", "open"),
                        default="closed", help="which loop to replay")
    args = parser.parse_args(argv)
    print(json.dumps(asyncio.run(_probe(args.reps, args.seed, args.phase))))


if __name__ == "__main__":
    main()
