"""The host buffer arena (``core/arena.py``): bounded, reused across
calls, leased exclusively, and mirrors keep an operand's launch rung."""

import mmap

import numpy as np

from repro.core.arena import HostArena, Leases
from repro.core.batch_args import stack_rung

PAGE = mmap.PAGESIZE


def test_requests_past_the_bound_get_none():
    arena = HostArena(limit=2 * PAGE)
    leases = Leases(arena)
    assert leases.empty((PAGE,), np.uint8) is not None
    assert leases.empty((2 * PAGE,), np.uint8) is None
    assert arena.mapped <= arena.limit
    leases.release()
    assert arena.leased == 0


def test_buffers_are_exclusive_until_released_then_reused():
    arena = HostArena(limit=1 << 20)
    first, second = Leases(arena), Leases(arena)
    addr = first.empty((100,), np.float64).ctypes.data
    assert second.empty((100,), np.float64).ctypes.data != addr
    first.release()
    assert Leases(arena).empty((100,), np.float64).ctypes.data == addr
    assert arena.mapped == 2 * PAGE


def test_mirror_keeps_strides_alignment_and_rung():
    stack = np.arange(4 * 6 * 5, dtype=float).reshape(4, 6, 5)
    interleaved = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)),
                              -1, 0)
    for arr in (stack, stack[:, :4], interleaved, stack[1:3]):
        leases = Leases(HostArena())
        mirror = leases.like(arr)
        mirror[...] = arr
        assert mirror.strides == arr.strides
        assert np.array_equal(mirror, arr)
        assert mirror.ctypes.data % PAGE == arr.ctypes.data % PAGE
        assert stack_rung(mirror) == stack_rung(arr)
        assert leases.holds(mirror) and not leases.holds(arr)
        leases.release()
