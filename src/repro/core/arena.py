"""Host buffer arena: anonymous shared mappings, leased per call.

The pipelined executor (:mod:`repro.core.pipeline`) runs extra device
shards in forked worker processes.  A child prepares, runs and scores its
lanes in place, so every buffer it writes (the operands the kernels
write, the call's pristine snapshot, layout working copies, per-lane
scores and masks; :class:`repro.core.stack.Staging`) must live in memory
the parent sees too: an anonymous ``MAP_SHARED`` mapping.  This arena
hands such buffers out and reuses them across calls, so a steady stream
of calls maps (and page-faults) its working set once.

* A call takes its buffers as exclusive leases (:class:`Leases`, one per
  call on ``Operands.call``) and returns them explicitly when it ends
  (:meth:`Leases.release`, from :func:`repro.core.stack.run`), never
  through garbage collection: a buffer is not handed out again while the
  call that holds it runs, whatever views of it are still alive.
* The arena maps at most :data:`ARENA_BYTES` (1 GiB), idle and leased
  buffers together.  A request past the bound gets ``None``: the call
  then makes that buffer in private memory, and the pipeline runs its
  shards in turn.
* A request no idle buffer fits drops every idle buffer before mapping a
  new one, so idle memory never exceeds the last calls' working set.  A
  dropped mapping is unmapped once the last view of it dies.
"""

from __future__ import annotations

import mmap
import threading

import numpy as np

from ..gpusim.memory import _byte_span

__all__ = ["ARENA_BYTES", "HostArena", "Leases", "HOST_ARENA"]

#: Upper bound on the bytes the arena keeps mapped (idle plus leased).
ARENA_BYTES = 1 << 30


class HostArena:
    """Reusable anonymous shared mappings, at most ``limit`` bytes."""

    def __init__(self, limit: int = ARENA_BYTES):
        self.limit = int(limit)
        #: Bytes mapped now, idle and leased.
        self.mapped = 0
        self._idle: list[mmap.mmap] = []
        self._lock = threading.Lock()

    @property
    def leased(self) -> int:
        """Bytes leased to calls now (mapped and not idle)."""
        with self._lock:
            return self.mapped - sum(len(buf) for buf in self._idle)

    def take(self, nbytes: int) -> mmap.mmap | None:
        """The smallest idle buffer of at least ``nbytes`` bytes, else a
        new mapping; ``None`` when that would pass the bound."""
        with self._lock:
            fits = [buf for buf in self._idle if len(buf) >= nbytes]
            if fits:
                buf = min(fits, key=len)
                self._idle.remove(buf)
                return buf
            self.mapped -= sum(len(buf) for buf in self._idle)
            self._idle.clear()
            size = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
            if self.mapped + size > self.limit:
                return None
            self.mapped += size
        return mmap.mmap(-1, size)      # anonymous; MAP_SHARED on Unix

    def give(self, buf: mmap.mmap) -> None:
        """Return a buffer :meth:`take` handed out."""
        with self._lock:
            self._idle.append(buf)


#: The process-wide arena every call leases from.
HOST_ARENA = HostArena()


class Leases:
    """One call's exclusive arena buffers, returned together by
    :meth:`release`."""

    __slots__ = ("_arena", "_held")

    def __init__(self, arena: HostArena | None = None):
        self._arena = HOST_ARENA if arena is None else arena
        self._held: list = []       # (buffer, first address, size)

    def _raw(self, nbytes: int) -> np.ndarray | None:
        """``nbytes`` leased bytes, as a ``uint8`` array over the buffer."""
        buf = self._arena.take(max(int(nbytes), 1))
        if buf is None:
            return None
        raw = np.frombuffer(buf, dtype=np.uint8)
        self._held.append((buf, raw.ctypes.data, len(buf)))
        return raw

    def empty(self, shape, dtype) -> np.ndarray | None:
        """An uninitialised C-ordered array in a leased buffer (``None``
        past the arena's bound)."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        raw = self._raw(nbytes)
        if raw is None:
            return None
        return raw[:nbytes].view(dtype).reshape(shape)

    def like(self, arr: np.ndarray) -> np.ndarray | None:
        """An uninitialised array in a leased buffer, with ``arr``'s
        shape, dtype, strides and address modulo the page size.

        Every property the launcher reads off an operand (its strides,
        the step between lanes, the byte span, alignment) is the
        original's, so a copy of ``arr`` made in it takes the same launch
        rung.
        """
        lo, hi = _byte_span(arr)
        pad = lo % mmap.PAGESIZE
        raw = self._raw(pad + hi - lo)
        if raw is None:
            return None
        return np.ndarray(arr.shape, arr.dtype, buffer=raw,
                          offset=pad + arr.ctypes.data - lo,
                          strides=arr.strides)

    def holds(self, arr: np.ndarray) -> bool:
        """Does ``arr`` lie inside one of this call's leased buffers?"""
        lo, hi = _byte_span(arr)
        return any(start <= lo and hi <= start + size
                   for _, start, size in self._held)

    def release(self) -> None:
        """Return every buffer to the arena (the call is over)."""
        held, self._held = self._held, []
        for buf, _, _ in held:
            self._arena.give(buf)
