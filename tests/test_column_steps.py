"""The lean column steps: the swap's unmasked index plane and the warnings
contract of every kernel body.

* The batched swap exchanges dense rows ``j`` and ``j + jp`` out to the
  step's widest bound on every lane, with no per-lane mask.  Past a
  lane's own bound both rows hold fill-in that SET_FILLIN zeroed and no
  swap or update has reached since, so the exchange moves ``+0.0`` onto
  ``+0.0``.  Stepping ``gbtf2_step_batched`` column by column, every
  swap is checked against that invariant and against the masked swap,
  recomputed here lane by lane, byte for byte.
* The column steps enter no ``np.errstate`` of their own: the launcher
  enters it once per body, and so do the public host entries.  Every
  body runs here on non-finite lanes with warnings as errors and writes
  the bytes of the per-lane scalar reference.
"""

from __future__ import annotations

import importlib
import warnings

import numpy as np
import pytest

from repro.band.layout import to_interleaved
from repro.core.gbsv import GBSV
from repro.core.gbsv_fused import FusedGbsvKernel
from repro.core.gbtf2 import gbtf2, gbtf2_batched
from repro.core.gbtrf import GBTRF
from repro.core.gbtrf_fused import FusedGbtrfKernel
from repro.core.gbtrf_reference import gbtrf_reference_batch
from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
from repro.core.gbtrs import GBTRS
from repro.core.gbtrs_blocked import (
    BlockedBackwardKernel,
    BlockedForwardKernel,
    BlockedTransLKernel,
    BlockedTransUKernel,
)
from repro.core.gbtrs_reference import gbtrs_reference_batch
from repro.core.solve_blocks import gbtrs_batched, gbtrs_unblocked
from repro.core.stack import Operands
from repro.gpusim import H100_PCIE, Stream
from repro.gpusim.kernel import SharedMemory, launch
from repro.types import Trans

from test_vectorized import HARD, _check_hard, _compare, _harden

gbtf2_mod = importlib.import_module("repro.core.gbtf2")

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
DTYPE_IDS = [np.dtype(d).name for d in DTYPES]
BATCH = 6


def _random_batch(m, n, kl, ku, dtype, seed):
    """Random values in every stored row, fill-in rows included, so a
    fill-in entry reads ``+0.0`` only where the factorization zeroed it."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((BATCH, 2 * kl + ku + 1, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal(a.shape)
    return a.astype(dtype)


def _reference(a, m, n, kl, ku):
    """Per-lane :func:`gbtf2` on a copy of ``a``."""
    ref = a.copy()
    piv = np.zeros((len(ref), min(m, n)), dtype=np.int64)
    info = np.zeros(len(ref), dtype=np.int64)
    for k in range(len(ref)):
        piv[k], info[k] = gbtf2(m, n, kl, ku, ref[k])
    return ref, piv, info


# ---------------------------------------------------------------------------
# The swap invariant
# ---------------------------------------------------------------------------

def _masked_swap(a, kl, ku, j, jp, bound, col0):
    """The swap with a per-lane mask: lane ``k`` exchanges dense rows
    ``j`` and ``j + jp[k]`` over columns ``[j, bound[k]]`` only."""
    for k in range(len(a)):
        cols = np.arange(j, bound[k] + 1)
        r1 = kl + ku + j - cols
        r2 = r1 + jp[k]
        a[k, r1, cols - col0], a[k, r2, cols - col0] = \
            a[k, r2, cols - col0], a[k, r1, cols - col0]


@pytest.fixture
def checked_swaps(monkeypatch):
    """Spy on every batched swap: check the invariant on its input,
    then compare the swap with the masked one.  Returns the tally."""
    inner = gbtf2_mod.swap_right_batched
    seen = {"swaps": 0, "zeros": 0, "col0": set()}

    def spy(abst, kl, ku, j, jp, ju, *, col0=0, work=None, span=None):
        kv = kl + ku
        hi = int(ju.max())
        for k in range(len(abst)):
            if ju[k] < j:               # zero pivot: swaps row j with itself
                assert jp[k] == 0
                continue
            for c in range(int(ju[k]) + 1, hi + 1):
                for r in (kv + j - c, kv + j + int(jp[k]) - c):
                    entry = np.array(abst[k, r, c - col0])
                    assert entry.tobytes() == bytes(entry.nbytes), (
                        f"lane {k}, step {j}: dense ({r - kv + c}, {c}) "
                        f"past the bound {ju[k]} is not +0.0")
                    seen["zeros"] += 1
        want = np.array(abst)
        _masked_swap(want, kl, ku, j, jp, ju, col0)
        inner(abst, kl, ku, j, jp, ju, col0=col0, work=work, span=span)
        assert np.array(abst).tobytes() == want.tobytes(), (
            f"step {j}: the unmasked swap differs from the masked one")
        seen["swaps"] += 1
        seen["col0"].add(col0)

    monkeypatch.setattr(gbtf2_mod, "swap_right_batched", spy)
    return seen


SWAP_SHAPES = [  # (m, n, kl, ku)
    (24, 24, 3, 2),
    (18, 24, 3, 2),                 # m < n
    (30, 24, 3, 2),                 # m > n
    (24, 24, 0, 3),                 # kl = 0: the pivot is the diagonal
    (24, 24, 3, 0),                 # ku = 0
]
STORAGES = ["lane-major", "interleaved", "lane-ranges", "staged-window"]


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("case", HARD)
@pytest.mark.parametrize("m,n,kl,ku", SWAP_SHAPES,
                         ids=["-".join(map(str, s)) for s in SWAP_SHAPES])
@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_swap_moves_zeros_past_each_bound(dtype, m, n, kl, ku, case,
                                          storage, checked_swaps):
    """Every swap of the factorization finds ``+0.0`` in rows ``j`` and
    ``j + jp`` between each lane's bound and the step's widest one, and
    writes the masked swap's bytes; the factors are per-lane ``gbtf2``'s."""
    a = _harden(_random_batch(m, n, kl, ku, dtype, seed=31), case, m, kl, ku)
    ref, piv_ref, info_ref = _reference(a, m, n, kl, ku)
    _check_hard(case, piv_ref, kl)
    piv = np.zeros_like(piv_ref)
    info = np.zeros_like(info_ref)
    if storage == "staged-window":
        stack = a.copy()
        kernel = SlidingWindowGbtrfKernel(m, n, kl, ku, stack, piv, info,
                                          nb=4, threads=kl + 1)
        kernel.run_batch_vectorized(BATCH, SharedMemory(1 << 40))
    else:
        stack = a.copy() if storage == "lane-major" else to_interleaved(a)
        ranges = ([(0, 2), (2, 5), (5, BATCH)] if storage == "lane-ranges"
                  else [(0, BATCH)])
        for lo, hi in ranges:
            gbtf2_batched(m, n, kl, ku, stack[lo:hi], piv[lo:hi],
                          info[lo:hi])
    _compare(case, (np.ascontiguousarray(stack), ref), (piv, piv_ref),
             (info, info_ref))
    assert checked_swaps["swaps"] > 0
    if case == "jusplit" and kl:    # the lanes' bounds differ: zeros checked
        assert checked_swaps["zeros"] > 0
    if storage == "staged-window":
        assert max(checked_swaps["col0"]) > 0


# ---------------------------------------------------------------------------
# The warnings contract, body by body
# ---------------------------------------------------------------------------

N, KL, KU, NRHS = 20, 3, 2, 2


def _problem(case, dtype):
    """A hard-case square batch, its right-hand sides and the per-lane
    scalar references: factors, pivots, info, and the solutions of
    ``A x = b`` and ``A^T x = b``."""
    a = _harden(_random_batch(N, N, KL, KU, dtype, seed=41), case, N, KL, KU)
    rng = np.random.default_rng(42)
    b = rng.standard_normal((BATCH, N, NRHS)).astype(dtype)
    with np.errstate(all="ignore"):
        fac, piv, info = _reference(a, N, N, KL, KU)
        x = {}
        for trans in ("N", "T"):
            x[trans] = b.copy()
            for k in range(BATCH):
                gbtrs_unblocked(trans, N, KL, KU, fac[k], piv[k], x[trans][k])
    return a, b, fac, piv, info, x


def _strict(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run()


def _factor_bodies():
    """name -> body(stack, piv, info) factoring a stack in place."""
    def window(stack, piv, info):
        launch(H100_PCIE, SlidingWindowGbtrfKernel(
            N, N, KL, KU, stack, piv, info, nb=4, threads=KL + 1))

    def fused(stack, piv, info):
        launch(H100_PCIE, FusedGbtrfKernel(N, N, KL, KU, stack, piv, info))

    def reference(stack, piv, info):
        gbtrf_reference_batch(N, N, KL, KU, stack, piv, info, H100_PCIE,
                              Stream(H100_PCIE))

    def batched(stack, piv, info):
        gbtf2_batched(N, N, KL, KU, stack, piv, info)

    def host_net(stack, piv, info):
        GBTRF.host(Operands(N, N, KL, KU, stack, piv, info))

    return {"window-in-place": (window, to_interleaved),
            "window-staged": (window, np.copy),
            "fused-gbtrf": (fused, np.copy),
            "reference-gbtrf": (reference, np.copy),
            "gbtf2_batched": (batched, to_interleaved),
            "host-gbtrf": (host_net, np.copy)}


@pytest.mark.parametrize("body", list(_factor_bodies()))
@pytest.mark.parametrize("case", ["nonfinite", "multinan"])
@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_factor_bodies_raise_no_warnings(dtype, case, body):
    a, _, fac, piv_ref, info_ref, _ = _problem(case, dtype)
    run, make = _factor_bodies()[body]
    stack = make(a)
    piv = np.zeros_like(piv_ref)
    info = np.full_like(info_ref, -1)
    _strict(lambda: run(stack, piv, info))
    _compare(case, (np.ascontiguousarray(stack), fac), (piv, piv_ref),
             (info, info_ref))


def _solve_bodies():
    """name -> (trans, body(fac, piv, b) solving ``b`` in place)."""
    def blocked(*kernels):
        def run(fac, piv, b):
            for cls in kernels:
                launch(H100_PCIE, cls(N, KL, KU, NRHS, fac, piv, b, nb=8))
        return run

    def reference(trans):
        def run(fac, piv, b):
            gbtrs_reference_batch(trans, N, KL, KU, NRHS, fac, piv, b,
                                  H100_PCIE, Stream(H100_PCIE))
        return run

    def batched(trans):
        def run(fac, piv, b):
            gbtrs_batched(trans, N, KL, KU, fac, piv, b)
        return run

    def host_net(trans):
        def run(fac, piv, b):
            GBTRS.host(Operands(N, N, KL, KU, fac, piv,
                                np.zeros(BATCH, dtype=np.int64), nrhs=NRHS,
                                rhs=b, trans=Trans.from_any(trans)))
        return run

    return {
        "blocked-forward-backward": ("N", blocked(BlockedForwardKernel,
                                                  BlockedBackwardKernel)),
        "blocked-transU-transL": ("T", blocked(BlockedTransUKernel,
                                               BlockedTransLKernel)),
        "reference-gbtrs": ("N", reference("N")),
        "reference-gbtrs-trans": ("T", reference("T")),
        "gbtrs_batched": ("N", batched("N")),
        "gbtrs_batched-trans": ("T", batched("T")),
        "host-gbtrs": ("N", host_net("N")),
    }


@pytest.mark.parametrize("body", list(_solve_bodies()))
@pytest.mark.parametrize("case", ["nonfinite", "multinan"])
@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_solve_bodies_raise_no_warnings(dtype, case, body):
    _, b0, fac, piv, _, x = _problem(case, dtype)
    trans, run = _solve_bodies()[body]
    for storage in (np.copy, to_interleaved):
        b = storage(b0)
        _strict(lambda: run(storage(fac), piv, b))
        _compare(case, (np.ascontiguousarray(b), x[trans]))


@pytest.mark.parametrize("body", ["fused-gbsv", "host-gbsv"])
@pytest.mark.parametrize("case", ["nonfinite", "multinan"])
@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_gbsv_bodies_raise_no_warnings(dtype, case, body):
    """Factor and solve in one body; singular lanes keep ``b``."""
    a, b0, fac, piv_ref, info_ref, x = _problem(case, dtype)
    want = np.where((info_ref == 0)[:, None, None], x["N"], b0)
    stack, b = a.copy(), b0.copy()
    piv = np.zeros_like(piv_ref)
    info = np.full_like(info_ref, -1)
    if body == "fused-gbsv":
        run = lambda: launch(H100_PCIE, FusedGbsvKernel(
            N, KL, KU, NRHS, stack, piv, b, info))
    else:
        run = lambda: GBSV.host(Operands(N, N, KL, KU, stack, piv, info,
                                         nrhs=NRHS, rhs=b))
    _strict(run)
    _compare(case, (stack, fac), (piv, piv_ref), (info, info_ref), (b, want))
