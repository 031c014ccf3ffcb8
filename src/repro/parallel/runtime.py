"""The parallel coordinator: route, exchange, and k-way ordered merge.

``run_parallel`` executes a key-local query over a disordered ingress
stream on ``workers`` forked shard processes:

    ingress ──route by stable_key_hash──► per-shard column buffers
            ──DATA/PUNCT frames over ShmRings──► workers (sort + query)
            ◄──output batches / punctuations / ACKs──
            ──balanced merge tree──► one ordered output stream

The merge stage replays the exact single-process semantics of
:func:`repro.engine.sharded.shard_disordered`: shard outputs are pushed,
in shard order per punctuation round, through a balanced tree of *real*
:class:`~repro.engine.operators.union.Union` operators (built with the
same :func:`~repro.engine.sharded.balanced_merge` shape), so the merged
events **and** the punctuation sequence are byte-identical to the
single-process plan.  When a round is *symmetric* — every shard emitted
the same punctuation and the tree holds no buffered events — the
coordinator takes a fast path instead: the shards' round outputs are
k-way merged in one vectorized stable sort keyed on
``(sync_time, shard)`` so ties resolve exactly as the union tree's
favor-left rule does.
Asymmetric rounds (skewed clamped watermarks, late-policy effects) fall
back to the operator tree, whose state the fast path keeps in sync.

Crash handling: every blocking ring operation watches the peer process;
a dead worker surfaces as :class:`~repro.core.errors.WorkerCrashError`
carrying the shard and the last *acknowledged* ingress-journal offset.
The run is not restarted: whatever ends it, every worker still running
is terminated and joined before ``run_parallel`` returns or raises.
"""

from __future__ import annotations

import time
from multiprocessing import get_context

import numpy as np

from repro.core.errors import (
    LateEventError,
    QueryBuildError,
    WorkerCrashError,
)
from repro.core.late import LatePolicy
from repro.engine.batch import EventBatch
from repro.engine.event import Event, Punctuation, is_punctuation
from repro.engine.operators.base import PassThrough
from repro.engine.operators.union import Union
from repro.engine.sharded import (
    balanced_merge,
    stable_key_hash,
    stable_key_hash_array,
)
from repro.parallel import exchange, shm
from repro.parallel.plans import refuse_string_columns
from repro.parallel.shm import RingClosedError, ShmRing
from repro.parallel.worker import worker_main

__all__ = ["run_parallel", "ParallelResult"]

_NEG_INF = float("-inf")

#: Columnar frames carry ints of magnitude below this (int64).
_INT64 = 2 ** 63


class ParallelResult:
    """Merged output stream plus runtime accounting.

    Mirrors the :class:`~repro.engine.operators.sink.Collector` surface
    (``events``, ``punctuations``, ``completed``, ``sync_times``,
    ``payloads``) so equivalence tests compare it directly against
    ``.collect()`` results, and adds the ``parallel`` accounting dict
    the observability snapshot embeds.
    """

    def __init__(self, events, punctuations, completed, parallel):
        self.events = events
        self.punctuations = punctuations
        self.completed = completed
        self.parallel = parallel

    @property
    def sync_times(self):
        return [event.sync_time for event in self.events]

    @property
    def payloads(self):
        return [event.payload for event in self.events]

    def __len__(self) -> int:
        return len(self.events)


class _OutputSink:
    """Terminal sink: splits the merged stream into ``events`` /
    ``punctuations`` (Collector-compatible)."""

    def __init__(self):
        self.events = []
        self.punctuations = []
        self.completed = False

    def on_event(self, event):
        self.events.append(event)

    def on_punctuation(self, punctuation):
        self.punctuations.append(punctuation.timestamp)

    def on_flush(self):
        self.completed = True


class _MergeTree:
    """Balanced tree of live Union operators + symmetric-round fast path."""

    def __init__(self, shards):
        self.shards = shards
        self.leaves = [PassThrough() for _ in range(shards)]
        self.sink = _OutputSink()
        self.unions = []
        if shards == 1:
            self.leaves[0].add_downstream(self.sink)
        else:
            def combine(left, right):
                union = Union()
                left.add_downstream(union.ports[0])
                right.add_downstream(union.ports[1])
                self.unions.append(union)
                return union

            root = balanced_merge(self.leaves, combine)
            root.add_downstream(self.sink)
        self._watermark = _NEG_INF

    def symmetric(self) -> bool:
        """True when the tree state is fully described by one watermark:
        no buffered events anywhere and all node watermarks equal."""
        w = self._watermark
        return all(
            union.buffered_count() == 0
            and union._watermarks[0] == union._watermarks[1] == w
            and union._emitted_watermark == w
            for union in self.unions
        )

    def _sync_state(self, watermark) -> None:
        """Record the fast path's effect on the live operator tree."""
        self._watermark = watermark
        for union in self.unions:
            union._watermarks = [watermark, watermark]
            union._emitted_watermark = watermark

    def push_round(self, shard_chunks, allow_fast=True) -> bool:
        """Feed one punctuation round (``shard_chunks[i]`` = shard *i*'s
        output elements, events then an optional trailing punctuation).
        Returns ``True`` when the Huffman fast path handled the round."""
        puncts = set()
        uniform = True
        for chunk in shard_chunks:
            if chunk and is_punctuation(chunk[-1]):
                puncts.add(chunk[-1].timestamp)
            else:
                uniform = False
        if (
            allow_fast and uniform and len(puncts) == 1 and self.unions
            and self.symmetric()
        ):
            watermark = puncts.pop()
            merged = self._fast_merge(shard_chunks, watermark)
            if merged is not None:
                sink = self.sink
                for event in merged:
                    sink.on_event(event)
                if watermark > self._watermark:
                    sink.on_punctuation(Punctuation(watermark))
                    self._sync_state(watermark)
                return True
        self._push_tree(shard_chunks)
        if self.unions:
            self._watermark = max(
                self._watermark, self.unions[-1]._emitted_watermark
            )
        return False

    def _fast_merge(self, shard_chunks, watermark):
        """The round's events in ``(sync, shard)`` order, or ``None`` if
        the round is not fast-mergeable after all.

        The vetting enforces what makes ``(sync, shard)`` order provably
        equal to the union tree's output: every event strictly above the
        previous uniform watermark (an ADJUST-policy re-opened window
        can emit below it, and the tree interleaves such an event with
        *buffer-arrival* order, not shard order), none above the new
        watermark (it would stay buffered in the tree), and each chunk
        ascending (the merge's run contract).  Both the vetting and the
        merge are vectorized: concatenating the chunks in shard order
        and stable-sorting by sync *is* the keyed merge, because events
        from different shards never compare equal on ``(sync, shard)``
        and within-shard order is preserved by stability."""
        previous = self._watermark
        events = []
        syncs = []
        for chunk in shard_chunks:
            body = chunk[:-1]
            s = np.fromiter(
                (event.sync_time for event in body), np.int64, len(body)
            )
            if len(s) and (
                int(s[0]) <= previous or int(s[-1]) > watermark
                or not (s[1:] >= s[:-1]).all()
                or (s <= previous).any() or (s > watermark).any()
            ):
                return None
            events.extend(body)
            syncs.append(s)
        if not events:
            return events
        order = np.argsort(np.concatenate(syncs), kind="stable")
        return [events[i] for i in order]

    def _push_tree(self, shard_chunks) -> None:
        for shard, chunk in enumerate(shard_chunks):
            leaf = self.leaves[shard]
            for element in chunk:
                if is_punctuation(element):
                    leaf.on_punctuation(element)
                else:
                    leaf.on_event(element)

    def flush(self, shard_tails) -> None:
        self._push_tree(shard_tails)
        for leaf in self.leaves:
            leaf.on_flush()


class _WorkerHandle:
    def __init__(self, ctx, shard, plan, ring_capacity):
        self.shard = shard
        self.in_ring = ShmRing(ring_capacity)
        self.out_ring = ShmRing(ring_capacity)
        self.process = ctx.Process(
            target=worker_main,
            args=(shard, plan, self.in_ring, self.out_ring),
            daemon=True,
        )
        self.acked_offset = -1
        self.acked_rounds = 0
        self.pending = []       # frames since the last ACK
        self.rounds = []        # per-round element lists, ACK-delimited
        self.tail = None        # post-FLUSH elements
        self.stats = None
        self.done = False

    def crash_error(self) -> WorkerCrashError:
        return WorkerCrashError(
            self.shard, self.acked_offset, self.process.exitcode
        )


class _Coordinator:
    def __init__(self, plan, workers, batch_size, ring_capacity, merge):
        if workers < 1:
            raise QueryBuildError("workers must be >= 1")
        if merge not in ("auto", "tree"):
            raise QueryBuildError("merge must be 'auto' or 'tree'")
        self.plan = plan
        self.workers = workers
        self.batch_size = batch_size
        self.allow_fast = merge == "auto"
        ctx = get_context("fork")
        self.handles = [
            _WorkerHandle(ctx, shard, plan, ring_capacity)
            for shard in range(workers)
        ]
        self.tree = _MergeTree(workers)
        self.rounds_sent = 0
        self.offset = 0          # ingress journal offset (elements seen)
        self._buffers = [[] for _ in range(workers)]
        self._scalar_payload = plan.scalar_output
        # RAISE determinism: which worker's LateEventError reaches the
        # coordinator first is a scheduling race, but lateness itself is
        # a global property of the journal order plus the broadcast
        # punctuations — so the coordinator detects the *first* late
        # element at route time, before any worker sees it, and raises
        # exactly what the single-process path would.
        self._guard = (
            plan.late_policy is LatePolicy.RAISE
            and isinstance(plan.window, int)
        )
        self._guard_pre = plan.align == "pre"
        self._guard_window = plan.window
        self._guard_wm = None
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_sent_by_kind = {}
        self.frames_received_by_kind = {}
        self.merged_rounds = 0
        self.fast_rounds = 0

    def _note_sent(self, kind) -> None:
        name = exchange.KIND_NAMES.get(kind, str(kind))
        self.frames_sent_by_kind[name] = (
            self.frames_sent_by_kind.get(name, 0) + 1
        )
        self.frames_sent += 1

    # -- output-side pumping ----------------------------------------------

    def _pump_one(self, handle) -> bool:
        """Drain at most one frame from a worker's output ring."""
        frame = handle.out_ring.try_read()
        if frame is None:
            return False
        kind, payload = frame
        self.frames_received += 1
        name = exchange.KIND_NAMES.get(kind, str(kind))
        self.frames_received_by_kind[name] = (
            self.frames_received_by_kind.get(name, 0) + 1
        )
        if kind == exchange.DATA:
            batch = exchange.read_batch(payload, copy=True)
            sync = batch.sync_times.tolist()
            if self._scalar_payload:
                payloads = batch.payload_columns[0].tolist()
            else:
                cols = [col.tolist() for col in batch.payload_columns]
                payloads = (
                    list(zip(*cols)) if cols else [()] * len(sync)
                )
            handle.pending.extend(map(
                Event, sync, batch.other_times.tolist(),
                batch.keys.tolist(), payloads,
            ))
        elif kind == exchange.FDATA:
            sync, other, keys, values = exchange.read_float_batch(payload)
            handle.pending.extend(map(
                Event, sync.tolist(), other.tolist(), keys.tolist(),
                values.tolist(),
            ))
        elif kind == exchange.PICKLE:
            handle.pending.extend(exchange.read_pickled(payload))
        elif kind == exchange.OUTPUNCT:
            (ts,) = exchange.OUTPUNCT_STRUCT.unpack(
                payload[: exchange.OUTPUNCT_STRUCT.size]
            )
            handle.pending.append(Punctuation(ts))
        elif kind == exchange.ACK:
            round_no, offset = exchange.ACK_STRUCT.unpack(
                payload[: exchange.ACK_STRUCT.size]
            )
            if round_no != handle.acked_rounds:  # pragma: no cover
                raise RuntimeError(
                    f"shard {handle.shard} acked round {round_no}, "
                    f"expected {handle.acked_rounds}"
                )
            handle.acked_rounds += 1
            handle.acked_offset = offset
            handle.rounds.append(handle.pending)
            handle.pending = []
        elif kind == exchange.FLUSH:
            handle.tail = handle.pending
            handle.pending = []
        elif kind == exchange.STATS:
            handle.stats = exchange.read_pickled(payload)
        elif kind == exchange.DONE:
            handle.done = True
        elif kind == exchange.ERROR:
            raise exchange.read_pickled(payload)
        return True

    def pump(self) -> bool:
        """Drain every worker output ring; ``True`` if anything arrived."""
        crashed = None
        drained = False
        for handle in self.handles:
            while self._pump_one(handle):
                drained = True
            if not handle.done and not handle.process.is_alive():
                # Drain what the worker managed to write before dying.
                while self._pump_one(handle):
                    drained = True
                if not handle.done and crashed is None:
                    crashed = handle
        if crashed is not None:
            raise crashed.crash_error()
        return drained

    # -- input-side routing ------------------------------------------------

    def _send_batch(self, shard, batch) -> None:
        handle = self.handles[shard]
        exchange.write_batch(
            handle.in_ring, batch, pump=self.pump,
            alive=handle.process.is_alive,
        )
        self._note_sent(exchange.DATA)

    def _flush_buffer(self, shard) -> None:
        rows = self._buffers[shard]
        if not rows:
            return
        self._buffers[shard] = []
        first = rows[0][3]
        arity = len(first) if isinstance(first, tuple) else -1
        # Rows whose ints do not fit int64 columns ride pickled.
        uniform = arity >= 0 and all(
            type(payload) is tuple and len(payload) == arity
            and all(type(v) is int and -_INT64 <= v < _INT64
                    for v in payload)
            and all(type(v) is not int or -_INT64 <= v < _INT64
                    for v in (sync, other, key))
            for sync, other, key, payload in rows
        )
        if uniform:
            self._send_batch(shard, EventBatch(
                [r[0] for r in rows], [r[1] for r in rows],
                [r[2] for r in rows],
                [[r[3][c] for r in rows] for c in range(arity)],
            ))
        else:
            handle = self.handles[shard]
            exchange.write_pickled(
                handle.in_ring, exchange.PICKLE,
                [Event(s, o, k, p) for s, o, k, p in rows],
                pump=self.pump, alive=handle.process.is_alive,
            )
            self._note_sent(exchange.PICKLE)

    # -- RAISE-policy late guard -------------------------------------------

    def _guard_scalar(self, sync) -> None:
        wm = self._guard_wm
        if wm is None:
            return
        if self._guard_pre:
            sync -= sync % self._guard_window
        if sync <= wm:
            raise LateEventError(sync, wm)

    def _guard_batch(self, sync_times) -> None:
        wm = self._guard_wm
        if wm is None:
            return
        if self._guard_pre:
            sync_times = sync_times - sync_times % self._guard_window
        mask = sync_times <= wm
        if mask.any():
            raise LateEventError(int(sync_times[np.argmax(mask)]), wm)

    def route_event(self, event) -> None:
        if self._guard:
            self._guard_scalar(event.sync_time)
        shard = (
            stable_key_hash(event.key) % self.workers
            if self.workers > 1 else 0
        )
        buffer = self._buffers[shard]
        buffer.append(
            (event.sync_time, event.other_time, event.key, event.payload)
        )
        self.offset += 1
        if len(buffer) >= self.batch_size:
            self._flush_buffer(shard)

    def route_batch(self, batch) -> None:
        """Vectorized routing of a whole columnar ingress block."""
        refuse_string_columns(batch)
        batch = batch.compact()
        n = len(batch)
        if n == 0:
            return
        if self._guard:
            self._guard_batch(batch.sync_times)
        if self.workers == 1:
            self._flush_buffer(0)
            self._send_batch(0, batch)
        else:
            shards = stable_key_hash_array(batch.keys) % np.uint64(
                self.workers
            )
            # One stable partition sort instead of a boolean mask (and a
            # fancy-indexed copy per column) per shard: each column is
            # gathered exactly once and every shard's slice is a
            # contiguous view, which write_batch packs without another
            # copy.  Stability preserves within-shard arrival order;
            # shard ids fit uint16, where numpy's stable sort is a
            # linear-time radix pass.
            shards = shards.astype(np.uint16)
            order = np.argsort(shards, kind="stable")
            bounds = np.searchsorted(
                shards[order],
                np.arange(self.workers + 1, dtype=np.uint16),
            )
            sync = batch.sync_times[order]
            other = batch.other_times[order]
            keys = batch.keys[order]
            cols = [col[order] for col in batch.payload_columns]
            for shard in range(self.workers):
                lo, hi = int(bounds[shard]), int(bounds[shard + 1])
                if lo == hi:
                    continue
                self._flush_buffer(shard)
                self._send_batch(shard, EventBatch(
                    sync[lo:hi], other[lo:hi], keys[lo:hi],
                    [col[lo:hi] for col in cols],
                ))
        self.offset += n

    def broadcast_punctuation(self, timestamp) -> None:
        if self._guard:
            wm = int(timestamp)
            if self._guard_pre:
                wm = (wm + 1) - (wm + 1) % self._guard_window - 1
            if self._guard_wm is None or wm > self._guard_wm:
                self._guard_wm = wm
        self.offset += 1
        payload = exchange.PUNCT_STRUCT.pack(
            int(timestamp), self.rounds_sent, self.offset
        )
        for shard, handle in enumerate(self.handles):
            self._flush_buffer(shard)
            handle.in_ring.write(
                exchange.PUNCT, payload, pump=self.pump,
                alive=handle.process.is_alive,
            )
        self.rounds_sent += 1
        self.pump()

    def broadcast_flush(self) -> None:
        for shard, handle in enumerate(self.handles):
            self._flush_buffer(shard)
            handle.in_ring.write(
                exchange.FLUSH, pump=self.pump,
                alive=handle.process.is_alive,
            )

    # -- merge -------------------------------------------------------------

    def merge_ready_rounds(self) -> None:
        while all(
            len(handle.rounds) > self.merged_rounds
            for handle in self.handles
        ):
            chunks = [
                handle.rounds[self.merged_rounds]
                for handle in self.handles
            ]
            if self.tree.push_round(chunks, allow_fast=self.allow_fast):
                self.fast_rounds += 1
            for handle in self.handles:
                handle.rounds[self.merged_rounds] = None  # free memory
            self.merged_rounds += 1

    def finish(self):
        # Same hot-then-backoff cadence as the ring poll loops: during
        # the final drain the workers are still computing, and a
        # coordinator spinning at full tilt steals their CPU on
        # oversubscribed hosts.
        spins = 0
        delay = shm._SPIN_SLEEP
        while not all(handle.done for handle in self.handles):
            drained = self.pump()
            self.merge_ready_rounds()
            if drained:
                spins = 0
                delay = shm._SPIN_SLEEP
                continue
            spins += 1
            if spins >= shm._SPIN_FAST:
                time.sleep(delay)
                delay = min(delay * 2, shm._SPIN_SLEEP_MAX)
        self.merge_ready_rounds()
        if any(handle.tail is None for handle in self.handles):
            raise RuntimeError(  # pragma: no cover - protocol violation
                "worker completed without a FLUSH frame"
            )
        self.tree.flush([handle.tail for handle in self.handles])
        return self.tree.sink

    def shutdown(self) -> None:
        for handle in self.handles:
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=5)
            handle.in_ring.unlink()
            handle.out_ring.unlink()

    def accounting(self) -> dict:
        return {
            "workers": self.workers,
            "batch_size": self.batch_size,
            "plan": self.plan.describe(),
            "rounds": self.rounds_sent,
            "fast_merge_rounds": self.fast_rounds,
            "tree_merge_rounds": self.merged_rounds - self.fast_rounds,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "frames_sent_by_kind": dict(
                sorted(self.frames_sent_by_kind.items())
            ),
            "frames_received_by_kind": dict(
                sorted(self.frames_received_by_kind.items())
            ),
            "journal_elements": self.offset,
            "shards": [handle.stats for handle in self.handles],
        }


def run_parallel(ingress, plan, workers, *, batch_size=8192,
                 ring_capacity=1 << 20, merge="auto") -> ParallelResult:
    """Execute ``plan`` over ``ingress`` on ``workers`` shard processes.

    ``plan`` is a :class:`~repro.parallel.plans.CompiledShardPlan`.
    ``ingress`` yields :class:`Event` / :class:`Punctuation` elements
    and/or whole :class:`EventBatch` blocks (columnar ingress routes
    vectorized).  Returns a :class:`ParallelResult` whose output stream
    is byte-identical to the single-process
    ``shard_disordered(stream, query, workers)`` plan over the same
    elements.  ``merge="tree"`` disables the symmetric-round Huffman
    fast path (differential-testing hook).
    """
    coordinator = _Coordinator(
        plan, workers, batch_size, ring_capacity, merge,
    )
    try:
        for handle in coordinator.handles:
            handle.process.start()
        for element in ingress:
            if isinstance(element, EventBatch):
                coordinator.route_batch(element)
            elif is_punctuation(element):
                coordinator.broadcast_punctuation(element.timestamp)
                coordinator.merge_ready_rounds()
            else:
                coordinator.route_event(element)
        coordinator.broadcast_flush()
        sink = coordinator.finish()
    except RingClosedError as exc:
        dead = next(
            (h for h in coordinator.handles
             if not h.process.is_alive() and not h.done), None
        )
        if dead is not None:
            raise dead.crash_error() from exc
        raise
    finally:
        coordinator.shutdown()
    return ParallelResult(
        sink.events, sink.punctuations, sink.completed,
        coordinator.accounting(),
    )
