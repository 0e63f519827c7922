"""Column-interleaved storage: the window runs in place, and the default
layout converts window factorizations once at the boundary.

The contracts under test (docs/LAYOUTS.md):

* interleaved stacks are column-major per lane, lanes fastest: the
  Fortran order of the logical ``(batch, ldab, n)`` stack;
* on such a stack the sliding window runs its column steps on the stack
  itself (no window store is allocated) and the host net factors it in
  place; both write the bytes of the staged window and of per-lane
  ``gbtf2``, on any lane range;
* ``layout=None`` converts a lane-major batch to that storage exactly
  when the call's factorization runs the window and executes now, and
  charges the conversion as ``layout='soa'`` does.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.band.generate import random_band_batch, random_rhs
from repro.band.layout import (
    alloc_band_interleaved,
    is_column_interleaved,
    is_interleaved,
    to_interleaved,
)
from repro.core import gbsv_batch, gbtrf_batch, gbtrs_batch
from repro.core.gbtf2 import gbtf2, is_narrow_factor
from repro.core.gbtrf import GBTRF
from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
from repro.core.stack import Operands
from repro.gpusim import H100_PCIE, Stream, capture_graph
from repro.gpusim.kernel import SharedMemory

# ``repro.core.gbtrf`` is also the name of a function in ``repro.core``.
gbtrf_mod = importlib.import_module("repro.core.gbtrf")
stack_mod = importlib.import_module("repro.core.stack")

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
DTYPE_IDS = [np.dtype(d).name for d in DTYPES]
SINGULAR, NAN = 2, 5


def _bytes_equal(*pairs):
    for got, ref in pairs:
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _batch(batch, m, n, kl, ku, dtype, *, extra_rows=0, seed=3):
    """A lane-major factor-layout batch with a singular and a NaN lane."""
    a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=seed)
    if extra_rows:
        a = np.concatenate([a, np.full((batch, extra_rows, n), 7.0,
                                       dtype=dtype)], axis=1)
    kv = kl + ku
    a[SINGULAR, :, n // 3] = 0                       # an exact zero pivot
    a[NAN, kv, min(m, n) // 2] = np.nan
    return a


def _legacy_interleaved(a):
    """The earlier interleaved storage: a C-ordered ``(ldab, n, batch)``
    buffer (interleaved, but each lane row-major)."""
    buf = np.empty(a.shape[1:] + a.shape[:1], dtype=a.dtype)
    out = np.moveaxis(buf, -1, 0)
    out[...] = a
    return out


STORAGES = {"lane-major": np.array, "legacy": _legacy_interleaved,
            "column": to_interleaved}


def _reference(a, m, n, kl, ku):
    """Per-lane :func:`gbtf2` on a copy of ``a``."""
    ref = np.array(a)
    piv = np.zeros((len(ref), min(m, n)), dtype=np.int64)
    info = np.zeros(len(ref), dtype=np.int64)
    for k in range(len(ref)):
        piv[k], info[k] = gbtf2(m, n, kl, ku, ref[k])
    return ref, piv, info


@pytest.fixture
def window_stores(monkeypatch):
    """Shapes of every shared-memory allocation a kernel body makes."""
    shapes = []
    alloc = SharedMemory.alloc

    def spy(self, shape, dtype=np.float64):
        shapes.append(tuple(shape))
        return alloc(self, shape, dtype)

    monkeypatch.setattr(SharedMemory, "alloc", spy)
    return shapes


class TestStorage:
    def test_interleaved_is_fortran_order(self):
        a = random_band_batch(5, 12, 2, 3, seed=1)
        for soa in (to_interleaved(a), alloc_band_interleaved(12, 2, 3, 5)):
            assert soa.flags.f_contiguous and is_column_interleaved(soa)
            assert soa.strides == (8, 5 * 8, 5 * soa.shape[1] * 8)
        assert is_column_interleaved(to_interleaved(a)[1:4, :6])
        legacy = _legacy_interleaved(a)
        assert is_interleaved(legacy) and not is_column_interleaved(legacy)
        assert not is_column_interleaved(a)


CASES = [  # (m, n, kl, ku, nb, extra_rows)
    (40, 40, 3, 2, 8, 0),
    (32, 40, 3, 2, 4, 0),           # m < n: trailing columns flushed
    (48, 40, 3, 2, 4, 1),           # m > n, with caller padding rows
    (40, 40, 3, 3, 1, 0),
    (40, 40, 0, 3, 8, 0),
]


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("m,n,kl,ku,nb,extra", CASES)
def test_window_in_place_matches_staged_and_gbtf2(dtype, m, n, kl, ku, nb,
                                                  extra, window_stores):
    """The window on a column-interleaved stack (in place), on a
    lane-major and on a legacy interleaved stack (staged) and per-lane
    ``gbtf2`` write the same factors, pivots and ``info``, whole or run
    as lane ranges (chunks); only the staged runs allocate a window."""
    batch = 9
    a = _batch(batch, m, n, kl, ku, dtype, extra_rows=extra)
    ref, piv_ref, info_ref = _reference(a, m, n, kl, ku)
    assert info_ref[SINGULAR] > 0 and np.isnan(ref[NAN]).any()
    wcols = nb + kl + ku + 1
    for name, make in STORAGES.items():
        for ranges in ([(0, batch)], [(0, 4), (4, 7), (7, batch)]):
            stack = make(a)
            piv = np.full((batch, min(m, n)), -1, dtype=np.int64)
            info = np.full(batch, -1, dtype=np.int64)
            kernel = SlidingWindowGbtrfKernel(m, n, kl, ku, stack, piv, info,
                                              nb=nb, threads=kl + 1)
            window_stores.clear()
            for lo, hi in ranges:
                kernel.run_batch_vectorized(hi, SharedMemory(1 << 40),
                                            lo=lo)
            _bytes_equal((np.ascontiguousarray(stack), ref), (piv, piv_ref),
                         (info, info_ref))
            if name == "column":
                assert window_stores == []
            else:
                assert [s[:2] for s in window_stores] == \
                    [(wcols, 2 * kl + ku + 1)] * len(ranges)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_host_net_in_place(dtype, monkeypatch):
    """The host net factors a column-interleaved stack itself and any
    other stack through a staged tile, with the same bytes."""
    m = n = 40
    kl, ku, batch = 3, 2, 24
    a = _batch(batch, m, n, kl, ku, dtype)
    assert not is_narrow_factor(kl, ku, a)     # the numpy blocks run
    ref, piv_ref, info_ref = _reference(a, m, n, kl, ku)
    ran_on = []
    inner = gbtrf_mod.gbtf2_batched

    def spy(m, n, kl, ku, abst, *args):
        ran_on.append(abst)
        return inner(m, n, kl, ku, abst, *args)

    monkeypatch.setattr(gbtrf_mod, "gbtf2_batched", spy)
    for name, make in STORAGES.items():
        stack = make(a)
        ops = Operands(m, n, kl, ku, stack,
                       np.zeros((batch, n), dtype=np.int64),
                       np.zeros(batch, dtype=np.int64))
        ran_on.clear()
        GBTRF.host(ops)
        _bytes_equal((np.ascontiguousarray(stack), ref),
                     (ops.pivots, piv_ref), (ops.info, info_ref))
        assert np.shares_memory(ran_on[0], stack) == (name == "column")


# ---------------------------------------------------------------------------
# The layout=None rule
# ---------------------------------------------------------------------------

N, KL, KU, NRHS, BATCH = 72, 3, 2, 2, 6        # n=72: the window design

CONFIGS = {
    "plain": {},
    "resilient": dict(resilient=True),
    "verify": dict(verify="cheap"),
    "chunked": dict(chunk_hint=2),
    "devices": dict(devices=2),
}


def _launches(stream):
    return [r for r in stream.records if hasattr(r, "display_name")]


def _problem(n=N, seed=20):
    a = random_band_batch(BATCH, n, KL, KU, seed=seed)
    a[SINGULAR, :, n // 2] = 0
    b = random_rhs(n, NRHS, batch=BATCH, seed=seed + 1)
    return a, b


def _call(driver, layout, stream=None, **kw):
    a, b = _problem()
    if driver == "gbtrf":
        out = gbtrf_batch(N, N, KL, KU, a, layout=layout, stream=stream,
                          **kw)
    else:
        out = gbsv_batch(N, KL, KU, NRHS, a, None, b, layout=layout,
                         stream=stream, **kw)
    return a, b, out


def _recorded(driver, config):
    """The launches a call of ``_call`` records, by display name.  The
    window factorization and the blocked solves of the regular lanes
    (a gathered sub-batch of an interleaved stack is interleaved too)
    run ``[vec+soa]``.  A resilient call re-runs the singular lane through
    the fork-join design, and the two-lane chunk holding it solves its one
    regular lane: one-lane launches, so per block."""
    names = ["gbtrf_window"]
    if driver == "gbsv":
        names += ["gbtrs_fwd_blocked", "gbtrs_bwd_blocked"]
    soa = [name + "[vec+soa]" for name in names]
    if config == "chunked":                 # SINGULAR is in the 2nd chunk
        return soa + soa[:1] + names[1:] + soa
    if config == "resilient":
        return soa + ["gbtrf_ref_init"] + ["gbtrf_ref_pivot",
                                           "gbtrf_ref_update"] * N
    return soa


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("driver", ["gbtrf", "gbsv"])
def test_default_converts_window_calls_once(driver, config):
    """A window factorization of a lane-major batch runs ``[vec+soa]``
    under ``layout=None``, with one charged record holding the bytes a
    ``layout='soa'`` call charges, and writes the lane-major bytes."""
    kw = CONFIGS[config]
    charged = {}
    for layout in (None, "soa"):
        stream = Stream(H100_PCIE)
        a, b, out = _call(driver, layout, stream, **kw)
        recs = _launches(stream)
        a_aos, b_aos, out_aos = _call(driver, "aos", **kw)
        _bytes_equal((a, a_aos), (b, b_aos), (out[0], out_aos[0]),
                     (out[1], out_aos[1]))
        if config == "devices":     # each device records on its own stream
            continue
        assert [r.display_name for r in recs] == _recorded(driver, config)
        charged[layout] = [r.soa_bytes for r in recs if r.soa_bytes]
    if config != "devices":
        assert len(charged[None]) == 1
        assert charged[None] == charged["soa"]


def _no_conversion(monkeypatch):
    """The target layouts of the working copies calls make."""
    seen = []
    inner = stack_mod.convert_batch_layout

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        if out is not None:
            seen.append(args[0])
        return out

    monkeypatch.setattr(stack_mod, "convert_batch_layout", spy)
    return seen


@pytest.mark.parametrize("case", ["fused-gbtrf", "fused-gbsv", "reference",
                                  "gbtrs", "aos", "execute=False",
                                  "interleaved"])
def test_default_keeps_layout_elsewhere(case, monkeypatch):
    """No conversion for fused and fork-join designs, solve-only calls,
    ``layout='aos'``, timing-only calls or input already interleaved."""
    converted = _no_conversion(monkeypatch)
    stream = Stream(H100_PCIE)
    a, b = _problem()
    if case == "fused-gbtrf":
        a, b = _problem(n=24)
        gbtrf_batch(24, 24, KL, KU, a, stream=stream)
    elif case == "fused-gbsv":
        a, b = _problem(n=24)
        gbsv_batch(24, KL, KU, 1, a, None, b[:, :, :1].copy(),
                   stream=stream)
    elif case == "reference":
        gbtrf_batch(N, N, KL, KU, a, method="reference", stream=stream)
    elif case == "gbtrs":
        a = np.delete(a, SINGULAR, axis=0)
        b = np.delete(b, SINGULAR, axis=0)
        piv, _ = gbtrf_batch(N, N, KL, KU, a)
        converted.clear()
        gbtrs_batch("N", N, KL, KU, NRHS, a, piv, b, stream=stream)
    elif case == "aos":
        gbsv_batch(N, KL, KU, NRHS, a, None, b, stream=stream, layout="aos")
    elif case == "execute=False":
        gbsv_batch(N, KL, KU, NRHS, a, None, b, stream=stream,
                   execute=False)
    else:
        gbsv_batch(N, KL, KU, NRHS, to_interleaved(a), None,
                   to_interleaved(b), stream=stream)
    recs = _launches(stream)
    assert recs and all(r.soa_bytes == 0 for r in recs)
    assert converted == []


def test_default_keeps_captured_calls_in_place(monkeypatch):
    """A call captured into a graph is replayed on the caller's arrays, so
    it is never converted."""
    converted = _no_conversion(monkeypatch)
    a, _ = _problem()
    a_ref = a.copy()
    piv_ref, info_ref = gbtrf_batch(N, N, KL, KU, a_ref)
    assert converted == ["interleaved"]
    converted.clear()
    with capture_graph(H100_PCIE) as g:
        piv, info = gbtrf_batch(N, N, KL, KU, a, stream=g.stream)
    g.graph.launch()
    assert converted == []
    _bytes_equal((a, a_ref), (piv, piv_ref), (info, info_ref))
