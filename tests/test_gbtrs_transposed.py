"""Blocked transposed band solves (LAPACK GBTRS trans='T'/'C' kernels)."""

import numpy as np
import pytest

from repro.band.convert import band_to_dense
from repro.band.generate import random_band_batch, random_rhs
from repro.core.gbtrf import gbtrf_batch
from repro.core.gbtrs import gbtrs_batch
from repro.core.solve_blocks import gbtrs_unblocked
from repro.gpusim import H100_PCIE, Stream

from conftest import BAND_CONFIGS


def _factored(n, kl, ku, nrhs, batch=2, dtype=np.float64, seed=0):
    a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=seed)
    orig = a.copy()
    b = random_rhs(n, nrhs, batch=batch, dtype=dtype, seed=seed + 1)
    piv, info = gbtrf_batch(n, n, kl, ku, a)
    return orig, a, piv, b


@pytest.mark.parametrize("n,kl,ku", BAND_CONFIGS)
def test_trans_blocked_equals_unblocked(n, kl, ku):
    orig, a, piv, b = _factored(n, kl, ku, 2, seed=n)
    expect = [gbtrs_unblocked("T", n, kl, ku, a[k], piv[k], b[k].copy())
              for k in range(2)]
    x = b.copy()
    gbtrs_batch("T", n, kl, ku, 2, a, piv, x, method="blocked")
    for k in range(2):
        np.testing.assert_allclose(x[k], expect[k], atol=0)


@pytest.mark.parametrize("nb", [1, 3, 8, 64])
def test_trans_any_blocking(nb):
    n, kl, ku = 29, 3, 2
    orig, a, piv, b = _factored(n, kl, ku, 2, seed=nb)
    expect = [gbtrs_unblocked("T", n, kl, ku, a[k], piv[k], b[k].copy())
              for k in range(2)]
    x = b.copy()
    gbtrs_batch("T", n, kl, ku, 2, a, piv, x, method="blocked", nb=nb)
    np.testing.assert_allclose(x[0], expect[0], atol=0)


def test_conj_trans_blocked_complex():
    n, kl, ku = 20, 2, 3
    orig, a, piv, b = _factored(n, kl, ku, 2, dtype=np.complex128, seed=5)
    x = b.copy()
    gbtrs_batch("C", n, kl, ku, 2, a, piv, x, method="blocked")
    dense = band_to_dense(orig[0], n, kl, ku)
    np.testing.assert_allclose(dense.conj().T @ x[0], b[0], atol=1e-10)


def test_trans_solves_the_transposed_system():
    n, kl, ku = 24, 2, 3
    orig, a, piv, b = _factored(n, kl, ku, 1, seed=7)
    x = b.copy()
    gbtrs_batch("T", n, kl, ku, 1, a, piv, x)
    dense = band_to_dense(orig[0], n, kl, ku)
    np.testing.assert_allclose(dense.T @ x[0], b[0], atol=1e-11)


def test_auto_dispatch_uses_blocked_kernels_for_trans():
    n, kl, ku = 32, 2, 3
    orig, a, piv, b = _factored(n, kl, ku, 1, seed=9)
    stream = Stream(H100_PCIE)
    gbtrs_batch("T", n, kl, ku, 1, a, piv, b.copy(), stream=stream)
    names = [r.kernel_name for r in stream.records]
    assert names == ["gbtrs_transU_blocked", "gbtrs_transL_blocked"]


def test_trans_swaps_touch_finalised_rows_correctly():
    """Regression: L^T swaps reach kl rows past the current block, into
    rows a later block already wrote back — the overlap re-write path."""
    n, kl, ku, nb = 40, 4, 1, 5      # many swaps crossing block edges
    orig, a, piv, b = _factored(n, kl, ku, 1, seed=11)
    # Ensure some pivots actually cross block boundaries.
    crossing = any(int(piv[0][j]) // nb != j // nb for j in range(n))
    assert crossing, "test setup should produce boundary-crossing pivots"
    expect = gbtrs_unblocked("T", n, kl, ku, a[0], piv[0], b[0].copy())
    x = b.copy()
    gbtrs_batch("T", n, kl, ku, 1, a, piv, x, method="blocked", nb=nb)
    np.testing.assert_allclose(x[0], expect, atol=0)


def test_smem_budgets():
    from repro.core.gbtrs_blocked import BlockedTransLKernel, BlockedTransUKernel
    n, kl, ku, nrhs, nb = 64, 2, 3, 2, 16
    a = random_band_batch(1, n, kl, ku, seed=13)
    piv = [np.zeros(n, dtype=np.int64)]
    b = [np.zeros((n, nrhs))]
    u = BlockedTransUKernel(n, kl, ku, nrhs, list(a), piv, b, nb=nb)
    l = BlockedTransLKernel(n, kl, ku, nrhs, list(a), piv, b, nb=nb)
    assert u.smem_bytes() == (nb + kl + ku) * nrhs * 8
    assert l.smem_bytes() == (nb + kl) * nrhs * 8


@pytest.mark.parametrize("trans", ["T", "C"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n,kl,ku", [(17, 5, 2), (12, 0, 3), (9, 2, 0)])
def test_trans_reference_launches_per_column(trans, dtype, n, kl, ku):
    """The transposed reference solve records its per-column launches,
    charges modeled time and matches the blocked kernels bit for bit."""
    orig, a, piv, b = _factored(n, kl, ku, 2, batch=3, dtype=dtype, seed=n)
    blocked, ref = b.copy(), b.copy()
    gbtrs_batch(trans, n, kl, ku, 2, a, piv, blocked, method="blocked")
    stream = Stream(H100_PCIE)
    gbtrs_batch(trans, n, kl, ku, 2, a, piv, ref, method="reference",
                stream=stream)
    assert ref.tobytes() == blocked.tobytes()
    names = [r.kernel_name for r in stream.records]
    assert names.count("gbtrs_ref_trans_u") == n
    assert names.count("gbtrs_ref_trans_l") == (n - 1 if kl else 0)
    assert stream.elapsed > 0.0


def test_trans_reference_is_struck_by_launch_faults():
    """Every launch fails: the transposed solve falls past the blocked and
    reference designs to the host net."""
    from repro.gpusim import FaultPlan, fault_injection
    n, kl, ku = 17, 3, 2
    orig, a, piv, b = _factored(n, kl, ku, 2, seed=7)
    expect = b.copy()
    gbtrs_batch("T", n, kl, ku, 2, a, piv, expect)
    x = b.copy()
    with fault_injection(H100_PCIE, FaultPlan(seed=3,
                                              launch_failure_rate=1.0)):
        _, report = gbtrs_batch("T", n, kl, ku, 2, a, piv, x,
                                resilient=True)
    assert report.methods == {"gbtrs": "host"}
    assert x.tobytes() == expect.tobytes()
