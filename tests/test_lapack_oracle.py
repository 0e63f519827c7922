"""The batched drivers against an external oracle: scipy's LAPACK.

Hypothesis draws a configuration ``(m, n, kl, ku)``, a batch of at most
six lanes and a set of singular lanes (a whole lane zeroed, or one of
its columns).  ``gbtrf_batch`` must reproduce ``dgbtrf``'s pivots and
``info`` exactly, lane by lane.  For square draws, ``gbsv_batch`` — with
default knobs and with the full stack of knobs (layout, verify,
resilience, chunking and two devices) — must reproduce ``dgbsv``'s
pivots and ``info`` exactly, leave a singular lane's right-hand side
untouched, and solve every regular lane to a scaled backward error of
at most ``64 * n * eps``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import gbsv_batch, gbtrf_batch
from repro.band.generate import random_band_batch, random_rhs

from conftest import dense_of, scipy_gbtrf

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: The knobs of the benchmark's ``full_stack`` workload.
FULL_STACK = dict(layout="soa", verify="cheap", resilient=True,
                  chunk_hint=2, devices=2)


@st.composite
def problems(draw, square=False):
    """``(m, n, kl, ku, a)``: a ``(batch, 2*kl + ku + 1, n)`` stack in
    factor layout with some lanes, or one column of them, zeroed."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = n if square else draw(st.integers(min_value=1, max_value=40))
    kl = draw(st.integers(min_value=0, max_value=6))
    ku = draw(st.integers(min_value=0, max_value=6))
    batch = draw(st.integers(min_value=1, max_value=6))
    a = random_band_batch(batch, n, kl, ku, m=m,
                          seed=draw(st.integers(0, 2 ** 31 - 1)))
    for lane in range(batch):
        zero = draw(st.sampled_from(["none", "lane", "column"]))
        if zero == "lane":
            a[lane] = 0.0
        elif zero == "column":
            a[lane, :, draw(st.integers(0, n - 1))] = 0.0
    return m, n, kl, ku, a


def _dgbsv(kl, ku, ab, b):
    from scipy.linalg import lapack
    _, piv, x, info = lapack.dgbsv(kl, ku, np.asfortranarray(ab),
                                   np.asfortranarray(b))
    return np.asarray(piv, dtype=np.int64), int(info), x


@given(problems())
@settings(**SETTINGS)
def test_gbtrf_matches_dgbtrf(problem):
    m, n, kl, ku, a = problem
    ref = [scipy_gbtrf(ab.copy(), kl, ku, m, n) for ab in a]
    piv, info = gbtrf_batch(m, n, kl, ku, a)
    assert [int(x) for x in info] == [r[2] for r in ref]
    for k, (_, ipiv, _) in enumerate(ref):
        assert np.array_equal(piv[k], ipiv), k


@given(problems(square=True), st.booleans())
@settings(**SETTINGS)
def test_gbsv_matches_dgbsv(problem, full_stack):
    _, n, kl, ku, a = problem
    b = random_rhs(n, 1, batch=len(a), seed=n)
    ref = [_dgbsv(kl, ku, ab, rhs) for ab, rhs in zip(a, b)]
    x = b.copy()
    out = gbsv_batch(n, kl, ku, 1, a.copy(), None, x,
                     **(FULL_STACK if full_stack else {}))
    piv, info = out[0], out[1]
    assert [int(i) for i in info] == [r[1] for r in ref]
    bound = 64 * n * np.finfo(np.float64).eps
    for k, (ipiv, lapack_info, _) in enumerate(ref):
        assert np.array_equal(piv[k], ipiv), k
        if lapack_info:
            assert x[k].tobytes() == b[k].tobytes(), k
            continue
        dense = dense_of(a[k], kl, ku)
        residual = np.abs(dense @ x[k] - b[k]).max()
        scale = (np.abs(dense).sum(axis=1).max() * np.abs(x[k]).max()
                 + np.abs(b[k]).max())
        assert residual <= bound * scale, (k, residual / scale)
