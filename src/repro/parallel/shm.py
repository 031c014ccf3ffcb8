"""Single-producer/single-consumer ring buffers over shared memory.

The parallel runtime moves columnar blocks between the coordinator and
its shard workers through ``multiprocessing.shared_memory`` segments —
one ring per direction per worker — instead of pickled per-event
messages.  Each ring is a byte slab:

    [ head : u64 | tail : u64 | data region … ]

``head`` and ``tail`` are monotonically increasing byte counters (the
physical position is ``counter % size``).  Exactly one process writes
``tail`` (the producer) and exactly one writes ``head`` (the consumer),
and both are aligned 8-byte stores, so no lock is needed: a stale read
only makes a peer momentarily conservative, never incorrect.

Frames are contiguous: a ``[len : u32 | kind : u32]`` header followed by
``len`` payload bytes, padded to 8-byte alignment.  A producer that
cannot fit a frame before the physical end of the region writes a
*wrap* marker (``len == 0xFFFFFFFF``) and continues at offset zero, so
consumers never reassemble split frames and numpy can attach views
directly over a frame's payload (see
:meth:`~repro.engine.batch.EventBatch.unpack_from`).

Backpressure is explicit: :meth:`ShmRing.write` spins (with a tiny
sleep) while the ring is full, invoking an optional ``pump`` callback
each iteration — the coordinator passes a closure that drains worker
output rings, which is what makes the full-duplex exchange
deadlock-free.

Waiting has three tiers: a short hot spin, an exponentially backed-off
micro-sleep, and — once the backoff ceiling has been hit a few times —
a *parked* wait (a 10 ms sleep, the closest thing to an event wait an
SPSC shared-memory ring without futexes can offer).  An idle worker
therefore wakes ~100 times a second instead of ~500+, which is what
keeps a drained shard from burning a core while the coordinator routes
other shards' traffic.  Every ring counts its waits (``spins``,
``parks``, ``stall_s``, ``park_s``; process-local after fork) — workers
report them in their STATS frames.
"""

from __future__ import annotations

import os
import struct
import time
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmRing", "RingClosedError", "WRAP_MARK"]

_CURSORS = struct.Struct("<QQ")     # head, tail
_HEADER = struct.Struct("<II")      # frame length, frame kind
HEADER_BYTES = _HEADER.size
WRAP_MARK = 0xFFFFFFFF
# Poll loops retry hot a few times, then sleep with exponential backoff.
# The backoff matters on oversubscribed hosts: a peer blocked for a
# while must not keep waking every 200µs and stealing scheduler slices
# from the process that is actually producing.
_SPIN_FAST = 32
_SPIN_SLEEP = 0.0002
_SPIN_SLEEP_MAX = 0.002
# After this many consecutive ceiling-rate sleeps the waiter parks.
_PARK_AFTER = 8
_PARK_SLEEP = 0.01
#: Kill switch for the park tier (``REPRO_RING_PARK=0``), so benchmarks
#: can measure the idle-CPU difference; forked workers inherit the flag.
PARK_ENABLED = os.environ.get("REPRO_RING_PARK", "1") != "0"
_PINNED = []  # segments that could not unmap because views outlive them


class RingClosedError(RuntimeError):
    """The shared-memory segment backing a ring has gone away."""


def _align(n: int) -> int:
    return (n + 7) & ~7


class _RingWait:
    """One blocking operation's spin → backoff → park ladder.

    Created lazily on the first failed attempt, so the uncontended fast
    path costs nothing; counters accumulate on the ring instance
    (process-local after fork — each side counts its own waits).
    """

    __slots__ = ("ring", "spins", "delay", "ceiling", "t0")

    def __init__(self, ring):
        self.ring = ring
        self.spins = 0
        self.delay = _SPIN_SLEEP
        self.ceiling = 0
        self.t0 = time.monotonic()

    def wait(self) -> None:
        ring = self.ring
        self.spins += 1
        ring.spins += 1
        if self.spins < _SPIN_FAST:
            return
        if PARK_ENABLED and self.ceiling >= _PARK_AFTER:
            # Parkable tier: the peer has been quiet long past the
            # backoff ceiling; stop draining its scheduler slices.
            parked = time.monotonic()
            time.sleep(_PARK_SLEEP)
            ring.parks += 1
            ring.park_s += time.monotonic() - parked
            return
        time.sleep(self.delay)
        if self.delay >= _SPIN_SLEEP_MAX:
            self.ceiling += 1
        self.delay = min(self.delay * 2, _SPIN_SLEEP_MAX)

    def done(self) -> None:
        self.ring.stall_s += time.monotonic() - self.t0


class ShmRing:
    """One direction of a coordinator <-> worker exchange channel.

    Create with ``ShmRing(capacity)`` in the owning process; a forked
    child inherits the object and the mapping directly.  ``attach`` by
    name is available for spawn-style contexts.
    """

    def __init__(self, capacity=1 << 20, name=None):
        if name is None:
            size = 1 << max(12, (capacity - 1).bit_length())
            self._shm = shared_memory.SharedMemory(
                create=True, size=_CURSORS.size + size
            )
            self.size = size
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self.size = self._shm.size - _CURSORS.size
        # Aligned u64 loads/stores (single instructions, atomic on every
        # platform we run on).  struct with an explicit byte order packs
        # byte-by-byte, so a peer could observe a *torn* cursor — a
        # momentarily huge tail shows the consumer phantom frames, a
        # momentarily huge head shows the producer phantom free space.
        self._cursors = np.frombuffer(
            self._shm.buf, dtype=np.uint64, count=2
        )
        if name is None:
            self._cursors[:] = 0
        self.name = self._shm.name
        self._data_off = _CURSORS.size
        self._owner = name is None
        # Consumer-local: head value to publish on the *next* read, so
        # the payload view returned by the previous read stays valid
        # (the producer only reuses a frame's bytes once head moves).
        self._release = None
        # Wait accounting (see _RingWait; process-local after fork).
        self.spins = 0
        self.parks = 0
        self.stall_s = 0.0
        self.park_s = 0.0

    @classmethod
    def attach(cls, name) -> "ShmRing":
        """Map an existing ring by segment name (spawn contexts)."""
        return cls(name=name)

    # -- cursors -----------------------------------------------------------

    @property
    def _head(self) -> int:
        return int(self._cursors[0])

    @_head.setter
    def _head(self, value) -> None:
        self._cursors[0] = value

    @property
    def _tail(self) -> int:
        return int(self._cursors[1])

    @_tail.setter
    def _tail(self, value) -> None:
        self._cursors[1] = value

    def occupancy(self) -> int:
        """Bytes currently enqueued (approximate across processes)."""
        return self._tail - self._head

    # -- producer ----------------------------------------------------------

    def frame_bytes(self, payload_len: int) -> int:
        """Ring bytes one frame of ``payload_len`` consumes."""
        return _align(HEADER_BYTES + payload_len)

    def try_write(self, kind, payload=b"", reserve=None) -> bool:
        """Enqueue one frame; ``False`` if the ring is too full.

        ``reserve`` (a ``(size, fill)`` pair) supports in-place payload
        construction: ``fill(view)`` writes directly into the ring's
        mapped memory — how :class:`~repro.engine.batch.EventBatch`
        columns are packed with a single copy.
        """
        if reserve is not None:
            payload_len, fill = reserve
        else:
            payload_len, fill = len(payload), None
        needed = self.frame_bytes(payload_len)
        if needed + HEADER_BYTES > self.size:
            raise ValueError(
                f"frame of {payload_len} bytes exceeds ring size {self.size}"
            )
        tail = self._tail
        head = self._head
        pos = tail % self.size
        until_end = self.size - pos
        wrap = until_end < needed
        # A wrap consumes the dead space at the end plus the frame at 0;
        # the wrap marker itself needs a visible header slot.
        total = (until_end + needed) if wrap else needed
        if self.size - (tail - head) < total:
            return False
        buf = self._shm.buf
        base = self._data_off
        if wrap:
            if until_end >= HEADER_BYTES:
                _HEADER.pack_into(buf, base + pos, WRAP_MARK, 0)
            pos = 0
            tail += until_end
        _HEADER.pack_into(buf, base + pos, payload_len, kind)
        start = base + pos + HEADER_BYTES
        if fill is not None:
            fill(buf[start:start + payload_len])
        elif payload_len:
            buf[start:start + payload_len] = payload
        self._tail = tail + needed
        return True

    def write(self, kind, payload=b"", reserve=None, pump=None,
              timeout=30.0, alive=None) -> None:
        """Blocking :meth:`try_write` with backpressure.

        Spins until space frees up, calling ``pump()`` each iteration
        (drain the opposite direction!) and ``alive()`` to detect a dead
        peer.  Raises :class:`RingClosedError` on peer death and
        :class:`TimeoutError` if the ring stays full for ``timeout``
        seconds.
        """
        if self.try_write(kind, payload, reserve):
            return
        deadline = time.monotonic() + timeout
        waiter = _RingWait(self)
        while not self.try_write(kind, payload, reserve):
            if pump is not None:
                pump()
            if alive is not None and not alive():
                raise RingClosedError("peer died with the ring full")
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"ring {self.name} full for {timeout:.0f}s "
                    "(consumer stalled?)"
                )
            waiter.wait()
        waiter.done()

    # -- consumer ----------------------------------------------------------

    def try_read(self):
        """Dequeue one frame as ``(kind, payload_view)``; ``None`` if empty.

        The returned memoryview aliases ring memory that is released for
        reuse as soon as this method is called again — callers keeping
        data across reads must copy (or finish attaching/compacting
        numpy views) first.  The release really is deferred: head is
        published on the *next* call, never while the caller may still
        be decoding the view (a producer blocked on a full ring reuses
        freed bytes immediately, so an eager advance would let it
        overwrite a frame mid-read).
        """
        if self._release is not None:
            self._head = self._release
            self._release = None
        head = self._head
        if self._tail - head == 0:
            return None
        pos = head % self.size
        base = self._data_off
        until_end = self.size - pos
        if until_end >= HEADER_BYTES:
            length, kind = _HEADER.unpack_from(self._shm.buf, base + pos)
        else:
            length = WRAP_MARK
        if length == WRAP_MARK:
            head += until_end
            pos = 0
            length, kind = _HEADER.unpack_from(self._shm.buf, base)
        start = base + pos + HEADER_BYTES
        payload = self._shm.buf[start:start + length]
        self._release = head + _align(HEADER_BYTES + length)
        return kind, payload

    def read(self, timeout=30.0, alive=None):
        """Blocking :meth:`try_read`; raises on timeout or dead peer."""
        frame = self.try_read()
        if frame is not None:
            return frame
        deadline = time.monotonic() + timeout
        waiter = _RingWait(self)
        while True:
            frame = self.try_read()
            if frame is not None:
                waiter.done()
                return frame
            if alive is not None and not alive():
                # One more look: the peer may have written, then exited.
                frame = self.try_read()
                if frame is not None:
                    waiter.done()
                    return frame
                raise RingClosedError("peer died with the ring empty")
            if time.monotonic() > deadline:
                raise TimeoutError(f"ring {self.name} empty for {timeout:.0f}s")
            waiter.wait()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unmap the segment (workers call this on exit)."""
        self._cursors = None
        try:
            self._shm.close()
        except BufferError:
            # A live view (a decoded payload, or the locals of an
            # in-flight exception traceback) still aliases the mapping.
            # Pin the segment so those views stay valid and its __del__
            # never runs against exported pointers; the mapping is
            # reclaimed at process exit either way.
            _PINNED.append(self._shm)

    def unlink(self) -> None:
        """Destroy the segment (owner only, after all peers closed)."""
        if self._owner:
            self.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
