"""Simulated device memory: buffers, pointer arrays, pools, traffic accounting.

The paper's batched interface (paper Section 4) passes arrays of device pointers
(``double** A_array``).  :class:`PointerArray` reproduces that shape: a
sequence of numpy views, one per problem, possibly all slicing one backing
allocation (the common "strided batch" usage) or each pointing at unrelated
memory (true pointer-array usage).

Global-memory *capacity* is modeled by :class:`MemoryPool`, a per-device
tracking allocator: :class:`DeviceBuffer` and :class:`PointerArray` uploads
charge against it, an over-capacity request raises
:class:`~repro.errors.DeviceMemoryError` (carrying requested/in-use/capacity
bytes plus the device name, mirroring the shared-memory errors), and an
armed :class:`~repro.gpusim.faults.FaultInjector` can fail allocations or
transiently squeeze the capacity.  The memory-governed batch drivers
(:mod:`repro.core.memory_plan`) lease their chunk buffers from the pool.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..errors import DeviceError, DeviceMemoryError

__all__ = ["TrafficCounter", "MemoryPool", "DeviceBuffer", "PointerArray",
           "memory_pool", "reset_memory_pools"]


def _byte_span(a: np.ndarray) -> tuple[int, int]:
    """Inclusive-exclusive byte interval ``[lo, hi)`` touched by ``a``.

    Conservative: the bounds cover every addressable element, so two arrays
    whose spans do not intersect certainly do not share memory (the converse
    does not hold for interleaved strided views, which is the safe
    direction for the disjoint-lanes tests).
    """
    ptr = a.__array_interface__["data"][0]
    lo = hi = 0
    for dim, st in zip(a.shape, a.strides):
        if dim == 0:
            return ptr, ptr
        step = (dim - 1) * st
        if step >= 0:
            hi += step
        else:
            lo += step
    return ptr + lo, ptr + hi + a.itemsize


@dataclass
class TrafficCounter:
    """Accumulates global-memory traffic attributed to kernel execution."""

    bytes_read: int = 0
    bytes_written: int = 0

    def read(self, nbytes: int) -> None:
        self.bytes_read += int(nbytes)

    def write(self, nbytes: int) -> None:
        self.bytes_written += int(nbytes)

    @property
    def total(self) -> int:
        return self.bytes_read + self.bytes_written

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0


class MemoryPool:
    """Tracking allocator for one device's global memory.

    The pool does not hand out storage (numpy owns the bytes in this
    simulator); it *accounts* for residency so that capacity can run out.
    ``alloc`` charges bytes, ``free`` releases them, and a request that
    would exceed the capacity raises
    :class:`~repro.errors.DeviceMemoryError`.  When a fault plan with
    allocation faults is armed on the pool's device
    (:mod:`repro.gpusim.faults`), every ``alloc`` consults it first —
    injected failures and transient capacity squeezes surface here.

    :attr:`traffic` is the device-level interconnect/global-traffic
    counter; host<->device copies (:func:`repro.gpusim.transfer.memcpy_h2d`
    / ``memcpy_d2h``) and the chunk streaming of the memory-governed
    drivers charge it.
    """

    def __init__(self, capacity: int, *, device=None):
        self.capacity = int(capacity)
        self.device = device                    # DeviceSpec or None
        self.in_use = 0
        self.peak = 0
        self.alloc_count = 0
        self.traffic = TrafficCounter()
        #: Live charge per allocation label — the per-stream lease ledger
        #: the pipelined executor audits (a drained pipeline must leave
        #: every one of its labels at zero, even after a mid-run OOM).
        self.in_use_by_label: dict[str, int] = {}

    @property
    def device_name(self) -> str:
        return self.device.name if self.device is not None else ""

    @property
    def available(self) -> int:
        """Bytes still allocatable (capacity minus in-use)."""
        return max(0, self.capacity - self.in_use)

    def alloc(self, nbytes: int, *, label: str = "") -> int:
        """Charge ``nbytes`` of device memory; returns the charged amount.

        Raises :class:`~repro.errors.DeviceMemoryError` when the request
        does not fit (or an armed fault plan rejects/squeezes it).
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise DeviceError(f"negative allocation of {nbytes} bytes",
                              device=self.device_name)
        capacity = self.capacity
        if self.device is not None:
            from .faults import active_injector
            injector = active_injector(self.device)
            if injector is not None:
                # May raise an injected DeviceMemoryError, or return a
                # transiently squeezed capacity for this one request.
                capacity = injector.on_alloc(self, nbytes, label)
        if self.in_use + nbytes > capacity:
            raise DeviceMemoryError(
                nbytes, self.in_use, capacity, device=self.device_name,
                injected=capacity < self.capacity
                and self.in_use + nbytes <= self.capacity)
        self.in_use += nbytes
        self.alloc_count += 1
        self.peak = max(self.peak, self.in_use)
        if label:
            self.in_use_by_label[label] = (
                self.in_use_by_label.get(label, 0) + nbytes)
        return nbytes

    def free(self, nbytes: int, *, label: str = "") -> None:
        """Release ``nbytes`` previously charged with :meth:`alloc`.

        Pass the same ``label`` the charge was taken under to keep the
        per-label ledger balanced (labels whose charge reaches zero are
        dropped from :attr:`in_use_by_label`).
        """
        self.in_use = max(0, self.in_use - int(nbytes))
        if label:
            left = self.in_use_by_label.get(label, 0) - int(nbytes)
            if left > 0:
                self.in_use_by_label[label] = left
            else:
                self.in_use_by_label.pop(label, None)

    @contextmanager
    def lease(self, nbytes: int, *, label: str = ""):
        """Context manager: charge ``nbytes`` on entry, release on exit."""
        charged = self.alloc(nbytes, label=label)
        try:
            yield charged
        finally:
            self.free(charged, label=label)

    def take_state(self, other: "MemoryPool") -> None:
        """Continue from ``other``, a copy of this pool that was charged
        elsewhere (a forked pipeline shard); references to this pool, its
        device and its traffic counter stay valid."""
        traffic = self.traffic
        vars(traffic).update(vars(other.traffic))
        vars(self).update(vars(other), traffic=traffic, device=self.device)

    def reset(self) -> None:
        """Forget all charges and statistics (fresh accounting region)."""
        self.in_use = 0
        self.peak = 0
        self.alloc_count = 0
        self.in_use_by_label.clear()
        self.traffic.reset()

    def __repr__(self) -> str:
        return (f"MemoryPool({self.device_name or 'unattached'}: "
                f"{self.in_use}/{self.capacity} bytes in use, "
                f"peak {self.peak})")


#: Environment knob: cap every device pool's capacity at this many bytes
#: (the CI ``memory-pressure`` job uses it to force chunking everywhere).
_CAPACITY_ENV = "REPRO_GLOBAL_MEM_BYTES"

_POOLS: dict[str, MemoryPool] = {}


def memory_pool(device) -> MemoryPool:
    """The (lazily created) global-memory pool of ``device``.

    Capacity comes from ``device.global_mem_bytes``, capped by the
    ``REPRO_GLOBAL_MEM_BYTES`` environment variable when set — the hook the
    memory-pressure CI job uses to run the whole suite under a tiny device
    memory.
    """
    pool = _POOLS.get(device.name)
    if pool is None:
        capacity = int(device.global_mem_bytes)
        env = os.environ.get(_CAPACITY_ENV)
        if env:
            capacity = min(capacity, int(env))
        pool = MemoryPool(capacity, device=device)
        _POOLS[device.name] = pool
    return pool


def reset_memory_pools() -> None:
    """Drop every device pool (tests; re-reads the capacity environment)."""
    _POOLS.clear()


class DeviceBuffer:
    """A chunk of simulated device memory backed by a numpy array.

    Host/device transfers are explicit (:meth:`upload`, :meth:`download`) so
    examples read like real GPU host code; kernels access :attr:`array`
    directly (device-side access).  Transfers are charged to
    :attr:`traffic` — the buffer's own :class:`TrafficCounter` unless one
    is supplied — so traffic is never under-reported when a buffer is
    driven directly rather than through
    :func:`repro.gpusim.transfer.memcpy_h2d`.

    Passing ``device=`` charges the allocation against that device's
    :class:`MemoryPool` (raising
    :class:`~repro.errors.DeviceMemoryError` when it does not fit) until
    :meth:`free` is called.
    """

    def __init__(self, shape, dtype=np.float64, *, device=None,
                 traffic: TrafficCounter | None = None):
        self.array = np.zeros(shape, dtype=dtype)
        self.traffic = traffic if traffic is not None else TrafficCounter()
        self._pool = memory_pool(device) if device is not None else None
        self._charged = 0
        if self._pool is not None:
            self._charged = self._pool.alloc(self.array.nbytes,
                                             label="DeviceBuffer")

    @classmethod
    def from_host(cls, host: np.ndarray, *, device=None,
                  traffic: TrafficCounter | None = None) -> "DeviceBuffer":
        host = np.asarray(host)
        buf = cls(host.shape, host.dtype, device=device, traffic=traffic)
        buf.upload(host)
        return buf

    def upload(self, host: np.ndarray) -> None:
        """Host-to-device copy (charged as device-memory writes)."""
        host = np.asarray(host)
        if host.shape != self.array.shape:
            raise DeviceError(
                f"upload shape mismatch: buffer {self.array.shape}, "
                f"host {host.shape}")
        self.array[...] = host
        self.traffic.write(self.array.nbytes)

    def download(self) -> np.ndarray:
        """Device-to-host copy (returns a fresh host array; charged as
        device-memory reads)."""
        self.traffic.read(self.array.nbytes)
        return self.array.copy()

    def free(self) -> None:
        """Release the pool charge taken at construction (idempotent)."""
        if self._pool is not None and self._charged:
            self._pool.free(self._charged)
            self._charged = 0

    @property
    def nbytes(self) -> int:
        return self.array.nbytes


class PointerArray(Sequence[np.ndarray]):
    """Array-of-pointers batch argument (``double**`` in the paper's API).

    Each element is a numpy array (or view) for one problem in the batch.
    All elements must share a dtype; shapes may differ (that is the point of
    a pointer array — it also carries non-uniform batches, the paper's
    future-work extension).

    Passing ``device=`` models the upload: the payload plus the pointer
    table (8 bytes per entry) is charged against the device's
    :class:`MemoryPool` — raising
    :class:`~repro.errors.DeviceMemoryError` when it does not fit — and
    the staged bytes are counted on the pool's traffic counter.
    :meth:`free` releases the charge.
    """

    #: Modeled size of one device pointer in the pointer table.
    POINTER_BYTES = 8

    def __init__(self, arrays: Sequence[np.ndarray], *, device=None):
        arrays = [np.asarray(a) for a in arrays]
        if arrays:
            dtype = arrays[0].dtype
            for k, a in enumerate(arrays):
                if a.dtype != dtype:
                    raise DeviceError(
                        f"pointer array mixes dtypes: entry 0 is {dtype}, "
                        f"entry {k} is {a.dtype}")
        self._arrays = arrays
        self._pool = memory_pool(device) if device is not None else None
        self._charged = 0
        if self._pool is not None:
            self._charged = self._pool.alloc(self.nbytes,
                                             label="PointerArray")
            self._pool.traffic.write(self.nbytes)

    @classmethod
    def from_stack(cls, stack: np.ndarray, *, device=None) -> "PointerArray":
        """Build from a contiguous ``(batch, ...)`` stack (strided batch)."""
        return cls(list(stack), device=device)

    @property
    def nbytes(self) -> int:
        """Payload plus pointer-table bytes (the modeled device footprint)."""
        return (sum(a.nbytes for a in self._arrays)
                + self.POINTER_BYTES * len(self._arrays))

    def free(self) -> None:
        """Release the pool charge taken at construction (idempotent)."""
        if self._pool is not None and self._charged:
            self._pool.free(self._charged)
            self._charged = 0

    def __len__(self) -> int:
        return len(self._arrays)

    def __getitem__(self, i):
        return self._arrays[i]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._arrays)

    @property
    def dtype(self):
        if not self._arrays:
            raise DeviceError("empty pointer array has no dtype")
        return self._arrays[0].dtype

    def uniform_shape(self) -> tuple | None:
        """The common shape if the batch is uniform, else ``None``."""
        if not self._arrays:
            return None
        shape = self._arrays[0].shape
        return shape if all(a.shape == shape for a in self._arrays) else None
