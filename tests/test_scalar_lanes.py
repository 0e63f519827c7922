"""The scalar engine of narrow kernel bodies.

A kernel body over a few float64 lanes runs each lane on Python floats
(``gbtf2.gbtf2_lanes``, ``solve_blocks.gbtrs_lanes``) instead of the
batched numpy blocks, whose fixed cost per column dominates there.  The
contracts under test:

* the scalar factor and solve write the bytes of ``gbtf2`` and
  ``gbtrs_unblocked`` on every lane: the hard cases of
  ``test_vectorized`` (``multinan`` up to NaN payload), non-square and
  one-sided bands, ``n == 1``, several right-hand sides, and a zero
  ``U`` diagonal dividing ``0/0`` and ``x/±0``;
* ``is_narrow_factor`` and ``is_narrow_solve`` pick the scalar engine
  exactly when every operand is native float64 and ``lanes`` times the
  per-lane cost of a column is at most ``FACTOR_SCALAR_WORK`` or
  ``SOLVE_SCALAR_WORK``; each body follows them through
  ``factor_if_narrow`` (the fused ``gbsv`` with its right-hand sides)
  or ``solve_if_narrow``; float32, complex, byte-swapped and transposed
  solves never take the scalar engine;
* a lone lane the scalar engine does not take runs ``gbtf2`` itself in
  the factor bodies while its band is narrow, with its bytes.
"""

from __future__ import annotations

import importlib
import warnings

import numpy as np
import pytest

from repro.band.layout import to_interleaved
from repro.core.gbsv_fused import FusedGbsvKernel
from repro.core.gbtf2 import (
    FACTOR_SCALAR_WORK,
    FACTOR_STEP_WORK,
    gbtf2,
    gbtf2_lanes,
    is_narrow_factor,
)
from repro.core.gbtrf import GBTRF
from repro.core.gbtrf_fused import FusedGbtrfKernel
from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
from repro.core.gbtrs import GBTRS
from repro.core.gbtrs_blocked import (
    BlockedBackwardKernel,
    BlockedForwardKernel,
    BlockedTransLKernel,
    BlockedTransUKernel,
)
from repro.core.solve_blocks import (
    SOLVE_SCALAR_WORK,
    gbtrs_lanes,
    gbtrs_unblocked,
    is_narrow_solve,
    solve_cost,
)
from repro.core.stack import Operands
from repro.gpusim import H100_PCIE
from repro.gpusim.kernel import launch
from repro.types import Trans

from test_vectorized import HARD, _check_hard, _compare, _harden

BATCH = 6

# (m, n, kl, ku): square, m<n, m>n, no sub- or super-diagonals, n=1.
SHAPES = [(20, 20, 3, 3), (14, 20, 3, 2), (26, 20, 3, 2), (16, 16, 0, 2),
          (16, 16, 2, 0), (1, 1, 2, 1), (1, 1, 0, 0)]
# Every shape plain and, past n=1, under each hard case.
CASES = [s + (case,) for s in SHAPES for case in (None,) + HARD
         if case is None or s[1] > 1]


def _ids(cases):
    return ["-".join(str(v) for v in c if v is not None) for c in cases]


def _random_batch(m, n, kl, ku, seed, dtype=np.float64):
    """Random values in every stored row, fill-in rows included."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((BATCH, 2 * kl + ku + 1, n)).astype(dtype)


def _reference(a, m, n, kl, ku):
    """Per-lane :func:`gbtf2` on a copy of ``a``."""
    ref = a.copy()
    piv = np.zeros((len(ref), min(m, n)), dtype=np.int64)
    info = np.zeros(len(ref), dtype=np.int64)
    for k in range(len(ref)):
        piv[k], info[k] = gbtf2(m, n, kl, ku, ref[k])
    return ref, piv, info


def _strict(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run()


# ---------------------------------------------------------------------------
# Bytes of the scalar references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,kl,ku,case", CASES, ids=_ids(CASES))
def test_factor_matches_gbtf2(m, n, kl, ku, case):
    a = _harden(_random_batch(m, n, kl, ku, seed=51), case, m, kl, ku)
    ref, piv_ref, info_ref = _reference(a, m, n, kl, ku)
    _check_hard(case, piv_ref, kl)
    if case == "zerocols":
        assert info_ref[1] and info_ref[3]
    for storage in (np.copy, to_interleaved):
        stack = storage(a)
        piv = np.full_like(piv_ref, -1)
        info = np.full_like(info_ref, -1)
        _strict(lambda: gbtf2_lanes(m, n, kl, ku, stack, piv, info))
        _compare(case, (np.ascontiguousarray(stack), ref), (piv, piv_ref),
                 (info, info_ref))


def _solve_reference(n, kl, ku, fac, piv, b):
    x = b.copy()
    with np.errstate(all="ignore"):
        for k in range(len(x)):
            gbtrs_unblocked("N", n, kl, ku, fac[k], piv[k], x[k])
    return x


SQUARE = [c for c in CASES if c[0] == c[1]]


@pytest.mark.parametrize("nrhs", [1, 3])
@pytest.mark.parametrize("m,n,kl,ku,case", SQUARE, ids=_ids(SQUARE))
def test_solve_matches_gbtrs_unblocked(m, n, kl, ku, case, nrhs):
    a = _harden(_random_batch(n, n, kl, ku, seed=52), case, n, kl, ku)
    fac, piv, _ = _reference(a, n, n, kl, ku)
    b = np.random.default_rng(53).standard_normal((BATCH, n, nrhs))
    want = _solve_reference(n, kl, ku, fac, piv, b)
    for storage in (np.copy, to_interleaved):
        x = storage(b)
        _strict(lambda: gbtrs_lanes(n, kl, ku, storage(fac), piv, x))
        _compare(case, (np.ascontiguousarray(x), want))
        # The halves the blocked kernels run, one after the other.
        x = storage(b)
        gbtrs_lanes(n, kl, ku, fac, piv, x, backward=False)
        gbtrs_lanes(n, kl, ku, fac, None, x, forward=False)
        _compare(case, (np.ascontiguousarray(x), want))


def test_zero_diagonal_divides_like_numpy():
    """A zero ``U`` diagonal gives numpy's quotients: ``0/0`` the default
    NaN, ``x/+0`` and ``x/-0`` signed infinities, which then propagate,
    with no warning and no ``ZeroDivisionError``."""
    n, kl, ku = 12, 2, 1
    kv = kl + ku
    fac = _random_batch(n, n, kl, ku, seed=54)
    piv = np.tile(np.arange(n), (BATCH, 1))
    b = np.random.default_rng(55).standard_normal((BATCH, n, 2))
    fac[:2, kv + 1:, :] = 0.0           # L = I: b reaches U unchanged
    fac[0, kv, n - 1] = 0.0
    b[0, n - 1] = (0.0, 3.0)            # 0/0 and 3/+0
    fac[1, kv, n - 1] = -0.0
    b[1, n - 1] = (-2.0, 0.0)           # -2/-0 and 0/-0
    fac[2, kv, n // 2] = 0.0            # x/0 in mid-sweep
    fac[3, kv, :] = 0.0                 # every diagonal zero
    want = _solve_reference(n, kl, ku, fac, piv, b)
    assert np.isnan(want[0, n - 1, 0]) and want[0, n - 1, 1] == np.inf
    assert want[1, n - 1, 0] == np.inf and np.isnan(want[1, n - 1, 1])
    assert np.isinf(want[2]).any() and np.isnan(want[3]).any()
    x = b.copy()
    _strict(lambda: gbtrs_lanes(n, kl, ku, fac, piv, x))
    assert x.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The engine choice
# ---------------------------------------------------------------------------

def _stack(lanes, dtype=np.float64, cols=8):
    return np.zeros((lanes, 4, cols), dtype=dtype)


def _factor_cost(kl, ku):
    return kl * (kl + ku + 1) + FACTOR_STEP_WORK


OTHER_DTYPES = (np.float32, np.complex64, np.complex128, ">f8")


@pytest.mark.parametrize("kl,ku", [(3, 3), (8, 8), (2, 3), (0, 2), (16, 16)])
def test_factor_boundary(kl, ku):
    """Each engine on its side of ``FACTOR_SCALAR_WORK``, alone and with
    a fused ``gbsv``'s right-hand sides; only native float64 operands
    take the scalar one."""
    lanes = FACTOR_SCALAR_WORK // _factor_cost(kl, ku)
    assert lanes >= 1
    assert is_narrow_factor(kl, ku, _stack(lanes))
    assert not is_narrow_factor(kl, ku, _stack(lanes + 1))
    for dtype in OTHER_DTYPES:
        assert not is_narrow_factor(kl, ku, _stack(1, dtype))
    for nrhs in (1, 3):
        lanes = FACTOR_SCALAR_WORK // (_factor_cost(kl, ku)
                                       + solve_cost(kl, ku, nrhs))
        rhs = np.zeros((lanes, 8, nrhs))
        assert lanes >= 1
        assert is_narrow_factor(kl, ku, _stack(lanes), rhs)
        assert not is_narrow_factor(kl, ku, _stack(lanes + 1),
                                    np.zeros((lanes + 1, 8, nrhs)))
        for dtype in OTHER_DTYPES:
            assert not is_narrow_factor(kl, ku, _stack(lanes),
                                        rhs.astype(dtype))


@pytest.mark.parametrize("kl,ku,nrhs", [(3, 3, 1), (3, 3, 4), (8, 8, 1),
                                        (1, 1, 1), (0, 2, 2)])
def test_solve_boundary(kl, ku, nrhs):
    """Each engine on its side of ``SOLVE_SCALAR_WORK``; each right-hand
    side counts, and only native float64 operands take the scalar
    engine."""
    lanes = SOLVE_SCALAR_WORK // solve_cost(kl, ku, nrhs)
    assert lanes >= 1
    mats = _stack(lanes + 1)

    def rhs(k, dtype=np.float64):
        return np.zeros((k, 8, nrhs), dtype=dtype)

    assert is_narrow_solve(kl, ku, mats[:lanes], rhs(lanes))
    assert not is_narrow_solve(kl, ku, mats, rhs(lanes + 1))
    for dtype in OTHER_DTYPES:
        assert not is_narrow_solve(kl, ku, mats[:1], rhs(1, dtype))
        assert not is_narrow_solve(kl, ku, mats[:1].astype(dtype), rhs(1))


def test_wide_bodies_stay_batched():
    """A very wide band stays on the numpy blocks even on one lane, and
    the batch bodies of the stack benchmark (1,000 lanes, 500 per
    shard) are wide."""
    assert not is_narrow_factor(32, 32, _stack(1))
    for lanes in (500, 1000):
        for kl, ku in ((8, 8), (2, 3)):
            assert not is_narrow_factor(kl, ku, _stack(lanes))
            assert not is_narrow_factor(kl, ku, _stack(lanes),
                                        np.zeros((lanes, 8, 1)))
            assert not is_narrow_solve(kl, ku, _stack(lanes),
                                       np.zeros((lanes, 8, 1)))


N, KL, KU, NRHS = 16, 3, 2, 1
FACTOR_LANES = FACTOR_SCALAR_WORK // _factor_cost(KL, KU)
SOLVE_LANES = SOLVE_SCALAR_WORK // solve_cost(KL, KU, NRHS)
GBSV_LANES = FACTOR_SCALAR_WORK // (_factor_cost(KL, KU)
                                    + solve_cost(KL, KU, NRHS))


@pytest.fixture
def engines(monkeypatch):
    """Count the calls each kernel module makes to either engine."""
    calls = []
    spies = {"gbtf2": ("gbtf2_lanes", "gbtf2"),
             "solve_blocks": ("gbtrs_lanes",),
             "gbtrf_fused": ("gbtf2_batched",),
             "gbsv_fused": ("gbtf2_step_batched",),
             "gbtrf_window": ("gbtf2_batched",),
             "gbtrf": ("gbtf2_batched",),
             "gbtrs_blocked": ("forward_update_batched",
                               "backward_step_batched",
                               "transU_step_batched",
                               "transL_step_batched"),
             "gbtrs": ("gbtrs_batched",)}
    for mod, names in spies.items():
        mod = importlib.import_module(f"repro.core.{mod}")
        for name in names:
            def spy(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, spy)
    return calls


def _engine(calls):
    """The one engine ``calls`` reached: ``scalar`` (Python floats),
    ``lone`` (``gbtf2`` on a lone lane) or ``batched``."""
    kinds = {"scalar" if c.endswith("_lanes") else
             "lone" if c == "gbtf2" else "batched" for c in calls}
    assert len(kinds) == 1, calls
    return kinds.pop()


def _factor_run(body, lanes, dtype):
    a = _random_batch(N, N, KL, KU, seed=56, dtype=dtype)
    a = np.concatenate([a] * (lanes // BATCH + 1))[:lanes]
    piv = np.zeros((lanes, N), dtype=np.int64)
    info = np.zeros(lanes, dtype=np.int64)
    if body == "fused":
        launch(H100_PCIE, FusedGbtrfKernel(N, N, KL, KU, a, piv, info))
    elif body == "window":
        launch(H100_PCIE, SlidingWindowGbtrfKernel(
            N, N, KL, KU, to_interleaved(a), piv, info, nb=4,
            threads=KL + 1))
    elif body == "host":
        GBTRF.host(Operands(N, N, KL, KU, a, piv, info))
    else:
        b = np.ones((lanes, N, NRHS), dtype=dtype)
        launch(H100_PCIE, FusedGbsvKernel(N, KL, KU, NRHS, a, piv, b, info))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128],
                         ids=["float64", "float32", "complex128"])
@pytest.mark.parametrize("body,lanes", [
    ("fused", FACTOR_LANES), ("window", FACTOR_LANES),
    ("host", FACTOR_LANES), ("gbsv", GBSV_LANES)])
def test_factor_bodies_follow_the_choice(body, lanes, dtype, engines):
    """Float64 lanes up to the constant take the scalar engine; a lone
    lane of another dtype takes ``gbtf2`` except in the fused ``gbsv``."""
    for count, scalar in ((1, True), (lanes, True), (lanes + 1, False)):
        engines.clear()
        _factor_run(body, count, dtype)
        want = ("scalar" if scalar and dtype == np.float64 else
                "lone" if count == 1 and body != "gbsv" else "batched")
        assert _engine(engines) == want, (body, count)


@pytest.mark.parametrize("body", ["fused", "window", "host"])
@pytest.mark.parametrize("dtype,kl,ku", [
    (np.float32, KL, KU), (np.complex128, KL, KU), (np.float64, 21, 22),
    (np.float32, 21, 21)])
@pytest.mark.parametrize("case", (None,) + HARD)
def test_lone_lane_runs_gbtf2(case, dtype, kl, ku, body, engines):
    """Each lane of a batch factored as a one-lane launch on ``gbtf2``
    writes the reference's bytes; float64 gets there only with a band
    too wide for the scalar engine."""
    n = 32 if kl > KL else N
    a = _harden(_random_batch(n, n, kl, ku, seed=60, dtype=dtype), case,
                n, kl, ku)
    ref, piv_ref, info_ref = _reference(a, n, n, kl, ku)
    assert not is_narrow_factor(kl, ku, a[:1])
    for k in range(BATCH):
        engines.clear()
        stack = to_interleaved(a[k:k + 1]) if body == "window" \
            else a[k:k + 1].copy()
        piv = np.full_like(piv_ref[:1], -1)
        info = np.full_like(info_ref[:1], -1)
        if body == "fused":
            run = lambda: launch(H100_PCIE, FusedGbtrfKernel(  # noqa: E731
                n, n, kl, ku, stack, piv, info))
        elif body == "window":
            run = lambda: launch(H100_PCIE, SlidingWindowGbtrfKernel(  # noqa
                n, n, kl, ku, stack, piv, info, nb=4, threads=kl + 1))
        else:
            run = lambda: GBTRF.host(Operands(  # noqa: E731
                n, n, kl, ku, stack, piv, info))
        _strict(run)
        assert _engine(engines) == "lone", (body, k)
        _compare(case, (np.ascontiguousarray(stack), ref[k:k + 1]),
                 (piv, piv_ref[k:k + 1]), (info, info_ref[k:k + 1]))


def test_lone_lane_of_a_very_wide_band_stays_batched(engines):
    """Past ``kl * (kl + ku + 1) == FACTOR_SCALAR_WORK`` the batched
    blocks are the faster on one lane too."""
    kl = ku = 24
    assert kl * (kl + ku + 1) > FACTOR_SCALAR_WORK
    for dtype in (np.float64, np.float32):
        engines.clear()
        a = np.random.default_rng(61).standard_normal(
            (1, 2 * kl + ku + 1, 48)).astype(dtype)
        piv = np.zeros((1, 48), dtype=np.int64)
        info = np.zeros(1, dtype=np.int64)
        launch(H100_PCIE, FusedGbtrfKernel(48, 48, kl, ku, a, piv, info))
        assert _engine(engines) == "batched"


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128],
                         ids=["float64", "float32", "complex128"])
@pytest.mark.parametrize("body", ["blocked", "host"])
@pytest.mark.parametrize("trans", ["N", "T", "C"])
def test_solve_bodies_follow_the_choice(trans, body, dtype, engines):
    a = _random_batch(N, N, KL, KU, seed=57, dtype=dtype)
    fac, piv, _ = _reference(a, N, N, KL, KU)
    for count, scalar in ((1, True), (SOLVE_LANES, True),
                          (SOLVE_LANES + 1, False)):
        reps = count // BATCH + 1
        f = np.concatenate([fac] * reps)[:count]
        p = np.concatenate([piv] * reps)[:count]
        b = np.ones((count, N, NRHS), dtype=dtype)
        engines.clear()
        if body == "host":
            GBTRS.host(Operands(N, N, KL, KU, f, p,
                                np.zeros(count, dtype=np.int64), nrhs=NRHS,
                                rhs=b, trans=Trans.from_any(trans)))
        else:
            kernels = ((BlockedForwardKernel, BlockedBackwardKernel)
                       if trans == "N" else
                       (BlockedTransUKernel, BlockedTransLKernel))
            extra = {} if trans == "N" else {"conj": trans == "C"}
            for cls in kernels:
                launch(H100_PCIE, cls(N, KL, KU, NRHS, f, p, b, **extra))
        want = ("scalar" if scalar and dtype == np.float64 and trans == "N"
                else "batched")
        assert _engine(engines) == want, (count, trans)


# ---------------------------------------------------------------------------
# Either engine through the kernel bodies
# ---------------------------------------------------------------------------

@pytest.fixture(params=["scalar", "numpy"])
def engine(request, monkeypatch):
    """The bodies' own choice (``scalar``: ``BATCH`` lanes are narrow), or
    the numpy blocks forced however few the lanes."""
    if request.param == "numpy":
        for mod, name in (("gbtf2", "is_narrow_factor"),
                          ("solve_blocks", "is_narrow_solve")):
            monkeypatch.setattr(importlib.import_module(f"repro.core.{mod}"),
                                name, lambda *args: False)
    return request.param


@pytest.mark.parametrize("case", (None,) + HARD)
def test_float64_bodies_match_on_either_engine(case, engine, engines):
    """Fused ``gbtrf``, the in-place window, fused ``gbsv`` and the
    blocked ``'N'`` solves on a few float64 lanes write the references'
    bytes on the engine they pick and on the numpy blocks."""
    a = _harden(_random_batch(N, N, KL, KU, seed=58), case, N, KL, KU)
    assert is_narrow_factor(KL, KU, a)
    ref, piv_ref, info_ref = _reference(a, N, N, KL, KU)
    b = np.random.default_rng(59).standard_normal((BATCH, N, NRHS))
    assert is_narrow_solve(KL, KU, ref, b)
    x_ref = b.copy()
    ok = info_ref == 0
    x_ref[ok] = _solve_reference(N, KL, KU, ref[ok], piv_ref[ok], b[ok])
    want = "scalar" if engine == "scalar" else "batched"
    for body in ("fused", "window", "gbsv"):
        engines.clear()
        stack = to_interleaved(a) if body == "window" else a.copy()
        piv = np.full_like(piv_ref, -1)
        info = np.full_like(info_ref, -1)
        x = b.copy()
        if body == "fused":
            kernel = FusedGbtrfKernel(N, N, KL, KU, stack, piv, info)
        elif body == "window":
            kernel = SlidingWindowGbtrfKernel(N, N, KL, KU, stack, piv, info,
                                              nb=4, threads=KL + 1)
        else:
            kernel = FusedGbsvKernel(N, KL, KU, NRHS, stack, piv, x, info)
        _strict(lambda: launch(H100_PCIE, kernel))
        _compare(case, (np.ascontiguousarray(stack), ref), (piv, piv_ref),
                 (info, info_ref), (x, x_ref if body == "gbsv" else b))
        assert _engine(engines) == want, body
    engines.clear()
    x = b.copy()
    for cls in (BlockedForwardKernel, BlockedBackwardKernel):
        _strict(lambda: launch(H100_PCIE, cls(N, KL, KU, NRHS, ref.copy(),
                                              piv_ref, x)))
    assert _engine(engines) == want
    _compare(case, (x, _solve_reference(N, KL, KU, ref, piv_ref, b)))
