"""Shard worker process: drain the input ring, run the plan, ship output.

The worker is a frame-driven loop around a plan executor
(:mod:`repro.parallel.plans`).  DATA frames buffer routed ingress rows
into the per-shard sorter; each PUNCT frame advances the shard pipeline
one round and the round's emissions go back out — columnar batches for
kernel plans, pickled element runs for row plans — followed by an ACK
echoing the round number and the ingress-journal offset the coordinator
stamped on the punctuation.  Any exception is pickled into an ERROR
frame so the coordinator can re-raise it with full fidelity (semantic
errors like ``LateEventError`` must surface identically to the
single-process path).

Workers are forked, so the plan object (including arbitrary query
closures) arrives by inheritance, not pickling.

``SIGTERM`` is a *drain* request, not a kill: the coordinator's
``shutdown()`` (and any orchestrator supervising a ``repro serve``
deployment) terminates workers with SIGTERM, and a worker that dies
mid-frame would surface as a :class:`~repro.core.errors.WorkerCrashError`
on the next supervised run.  Instead the handler finishes the frame in
flight, flushes the executor (shipping its final emissions and
punctuation), writes the FLUSH/STATS/DONE epilogue, and exits 0 — the
same wire epilogue as stream completion, so the coordinator cannot tell
a drained worker from a finished one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.parallel import exchange
from repro.parallel.shm import RingClosedError

__all__ = ["worker_main"]


class _DrainRequested(BaseException):
    """Raised by the SIGTERM handler to pop a blocking ring read.

    A ``BaseException`` so no intervening ``except Exception`` can
    swallow the drain request; it is only ever raised while the worker
    is parked between frames (``_interruptible``), never mid-write.
    """


def _parent_alive():
    parent = multiprocessing.parent_process()
    return parent is None or parent.is_alive()


def _ship(out_ring, items):
    for kind, value in items:
        if kind == "batch":
            if value.string_columns:
                exchange.write_string_batch(
                    out_ring, value, alive=_parent_alive
                )
            else:
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


def _drain(executor, out_ring, stats) -> None:
    """Graceful-shutdown epilogue: flush and emit the completion frames.

    Best-effort by design — the coordinator that sent SIGTERM may have
    already stopped pumping our output ring, so a full ring or a closed
    peer must not turn a clean drain into a non-zero exit.
    """
    try:
        _ship(out_ring, executor.feed_flush())
        out_ring.write(exchange.FLUSH, alive=_parent_alive, timeout=5.0)
        exchange.write_pickled(
            out_ring, exchange.STATS, stats(), alive=_parent_alive,
        )
        out_ring.write(exchange.DONE, alive=_parent_alive, timeout=5.0)
    except (RingClosedError, TimeoutError, OSError):
        pass


def worker_main(shard, plan, in_ring, out_ring, fault=None) -> None:
    """Process entry point; returns (exits) after DONE or a fatal error.

    ``fault`` is a test-only ``(crash_flag, after_rounds)`` pair: when
    the shared flag is still set after processing ``after_rounds``
    punctuation rounds, the worker clears it and dies abruptly via
    ``os._exit`` — simulating a hard crash exactly once across restarts.
    """
    state = {"drain": False, "interruptible": False}

    def _on_sigterm(signum, frame):
        state["drain"] = True
        if state["interruptible"]:
            raise _DrainRequested

    # Installed before the executor builds: a terminate() racing worker
    # startup must still drain, not die with the default action.  The
    # coordinator forks with SIGTERM blocked, so one sent before this
    # point waits and is delivered to the handler on unblocking.
    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    executor = plan.build_executor(shard)
    t0, cpu0 = time.monotonic(), time.process_time()

    def stats():
        return _worker_stats(executor, in_ring, out_ring, t0, cpu0)

    rounds = 0
    try:
        while True:
            try:
                state["interruptible"] = True
                if state["drain"]:
                    raise _DrainRequested
                kind, payload = in_ring.read(alive=_parent_alive)
            finally:
                state["interruptible"] = False
            if kind == exchange.DATA:
                # Copy out of the ring: the sorter retains the columns
                # past this frame's slot lifetime.
                executor.feed_batch(exchange.read_batch(payload, copy=True))
            elif kind == exchange.SDATA:
                executor.feed_batch(
                    exchange.read_string_batch(payload, copy=True)
                )
            elif kind == exchange.PICKLE:
                executor.feed_elements(exchange.read_pickled(payload))
            elif kind == exchange.PUNCT:
                ts, round_no, offset = exchange.PUNCT_STRUCT.unpack(
                    payload[:exchange.PUNCT_STRUCT.size]
                )
                _ship(out_ring, executor.feed_punctuation(ts))
                rounds += 1
                if fault is not None:
                    flag, after_rounds = fault
                    if rounds >= after_rounds and flag.value:
                        with flag.get_lock():
                            if flag.value:
                                flag.value = 0
                                os._exit(43)
                out_ring.write(
                    exchange.ACK,
                    exchange.ACK_STRUCT.pack(round_no, offset),
                    alive=_parent_alive,
                )
            elif kind == exchange.FLUSH:
                _ship(out_ring, executor.feed_flush())
                out_ring.write(exchange.FLUSH, alive=_parent_alive)
                exchange.write_pickled(
                    out_ring, exchange.STATS, stats(),
                    alive=_parent_alive,
                )
                out_ring.write(exchange.DONE, alive=_parent_alive)
                return
            elif kind == exchange.DONE:
                # Coordinator-initiated early shutdown (error elsewhere).
                return
            else:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unexpected input frame kind {kind}")
    except _DrainRequested:
        # Graceful SIGTERM: finish as if the stream ended here.
        _drain(executor, out_ring, stats)
        return
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
