"""Shard worker process: drain the input ring, run the plan, ship output.

The worker is a frame-driven loop around the compiled shard executor
(:mod:`repro.parallel.plans`).  DATA frames buffer routed ingress
columns (PICKLE frames, per-event rows) into the per-shard sorter; each
PUNCT frame advances the shard pipeline one round and the round's
emissions go back out as columnar batches, followed by an ACK echoing
the round number and the ingress-journal offset the coordinator
stamped on the punctuation.  Any exception is pickled into an ERROR
frame so the coordinator can re-raise it with full fidelity (semantic
errors like ``LateEventError`` must surface identically to the
single-process path).

Workers are forked, so the plan object arrives by inheritance, not
pickling.  The coordinator ends a worker that is still running when
the run stops early (an error elsewhere) with ``terminate()``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.parallel import exchange
from repro.parallel.shm import RingClosedError

__all__ = ["worker_main"]


def _parent_alive():
    parent = multiprocessing.parent_process()
    return parent is None or parent.is_alive()


def _ship(out_ring, items):
    for kind, value in items:
        if kind == "batch":
            exchange.write_batch(out_ring, value, alive=_parent_alive)
        elif kind == "fbatch":
            sync, other, keys, values = value
            exchange.write_float_batch(
                out_ring, sync, other, keys, values, alive=_parent_alive
            )
        elif kind == "elements":
            exchange.write_pickled(
                out_ring, exchange.PICKLE, value, alive=_parent_alive
            )
        elif kind == "punct":
            out_ring.write(
                exchange.OUTPUNCT,
                exchange.OUTPUNCT_STRUCT.pack(int(value)),
                alive=_parent_alive,
            )
        else:  # pragma: no cover - executor contract violation
            raise RuntimeError(f"unknown output item kind {kind!r}")


def _worker_stats(executor, in_ring, out_ring, t0, cpu0) -> dict:
    """The executor's stats dict enriched with process-level signals.

    Ring wait counters (both directions, this process's side only — the
    counters are process-local after fork), CPU seconds, and wall
    seconds: the numbers the idle-spin fix is measured by.
    """
    stats = executor.stats()
    stats["ring_wait"] = {
        "spins": in_ring.spins + out_ring.spins,
        "parks": in_ring.parks + out_ring.parks,
        "stall_s": round(in_ring.stall_s + out_ring.stall_s, 6),
        "park_s": round(in_ring.park_s + out_ring.park_s, 6),
    }
    stats["cpu_s"] = round(time.process_time() - cpu0, 6)
    stats["wall_s"] = round(time.monotonic() - t0, 6)
    return stats


def worker_main(shard, plan, in_ring, out_ring) -> None:
    """Process entry point; returns (exits) after DONE or a fatal error."""
    executor = plan.build_executor(shard)
    t0, cpu0 = time.monotonic(), time.process_time()
    try:
        while True:
            kind, payload = in_ring.read(alive=_parent_alive)
            if kind == exchange.DATA:
                # Copy out of the ring: the sorter retains the columns
                # past this frame's slot lifetime.
                executor.feed_batch(exchange.read_batch(payload, copy=True))
            elif kind == exchange.PICKLE:
                executor.feed_elements(exchange.read_pickled(payload))
            elif kind == exchange.PUNCT:
                ts, round_no, offset = exchange.PUNCT_STRUCT.unpack(
                    payload[:exchange.PUNCT_STRUCT.size]
                )
                _ship(out_ring, executor.feed_punctuation(ts))
                out_ring.write(
                    exchange.ACK,
                    exchange.ACK_STRUCT.pack(round_no, offset),
                    alive=_parent_alive,
                )
            elif kind == exchange.FLUSH:
                _ship(out_ring, executor.feed_flush())
                out_ring.write(exchange.FLUSH, alive=_parent_alive)
                exchange.write_pickled(
                    out_ring, exchange.STATS,
                    _worker_stats(executor, in_ring, out_ring, t0, cpu0),
                    alive=_parent_alive,
                )
                out_ring.write(exchange.DONE, alive=_parent_alive)
                return
            else:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unexpected input frame kind {kind}")
    except RingClosedError:
        # Coordinator died; nothing to report to.
        return
    except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
        try:
            exchange.write_pickled(
                out_ring, exchange.ERROR, exc, alive=_parent_alive,
            )
        except Exception:
            pass
        os._exit(1)
    finally:
        in_ring.close()
        out_ring.close()
