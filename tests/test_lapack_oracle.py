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

The same holds in single precision and complex (``sgbtrf``/``cgbtrf``/
``zgbtrf`` and ``?gbsv``), with the operand form drawn too: one stack, a
lane-step view ``buf[::2]`` or a pointer array of separate lanes.
``gbtrs_batch`` with ``trans='T'`` and ``'C'`` is held to ``?gbtrs``
given the same factors and pivots: both report ``info == 0`` and solve
``op(A) x = b`` to the same backward-error bound.

The route is drawn as well: the dispatcher's design, the fork-join
reference design (``gbtrf_batch`` and the transposed solves) or the
host net, reached by a resilient call under a fault plan that fails
every launch (``gbtrf_batch`` and ``gbsv_batch``).
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs

from repro import gbsv_batch, gbtrf_batch, gbtrs_batch
from repro.band.generate import random_band_batch, random_rhs
from repro.gpusim import H100_PCIE, FaultPlan, fault_injection

from conftest import dense_of

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: The knobs of the benchmark's ``full_stack`` workload.
FULL_STACK = dict(layout="soa", verify="cheap", resilient=True,
                  chunk_hint=2, devices=2)


#: Precisions beyond the double-precision tests above.
OTHER_DTYPES = [np.float32, np.complex64, np.complex128]
ALL_DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
FORMS = ["stack", "lane-step", "pointer-array"]
#: Where a call runs: a ``method=`` of the driver, or ``'host'``.
ROUTES = ["auto", "reference", "host"]


def _on_route(route, driver, *args):
    """``driver(*args)`` on ``route``.  The host route runs the call
    resilient under a seeded plan that fails every launch, checks that
    every stage finished on the host net and drops the report."""
    if route != "host":
        return driver(*args, method=route)
    with fault_injection(H100_PCIE,
                         FaultPlan(seed=7, launch_failure_rate=1.0)):
        *out, report = driver(*args, resilient=True)
    assert set(report.methods.values()) == {"host"}, report.methods
    return tuple(out)


@st.composite
def problems(draw, square=False, dtype=np.float64, singular=True):
    """``(m, n, kl, ku, a)``: a ``(batch, 2*kl + ku + 1, n)`` stack in
    factor layout with some lanes, or one column of them, zeroed (none
    when ``singular`` is False)."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = n if square else draw(st.integers(min_value=1, max_value=40))
    kl = draw(st.integers(min_value=0, max_value=6))
    ku = draw(st.integers(min_value=0, max_value=6))
    batch = draw(st.integers(min_value=1, max_value=6))
    a = random_band_batch(batch, n, kl, ku, m=m, dtype=dtype,
                          seed=draw(st.integers(0, 2 ** 31 - 1)))
    for lane in range(batch if singular else 0):
        zero = draw(st.sampled_from(["none", "lane", "column"]))
        if zero == "lane":
            a[lane] = 0.0
        elif zero == "column":
            a[lane, :, draw(st.integers(0, n - 1))] = 0.0
    return m, n, kl, ku, a


def _lapack_gbsv(kl, ku, ab, b):
    gbsv, = get_lapack_funcs(("gbsv",), dtype=ab.dtype)
    _, piv, x, info = gbsv(kl, ku, np.asfortranarray(ab),
                           np.asfortranarray(b))
    return np.asarray(piv, dtype=np.int64), int(info), x


def _lapack_gbtrf(ab, kl, ku, m, n):
    """``?gbtrf`` of one lane: ``(pivots, info)``, pivots 0-based."""
    gbtrf, = get_lapack_funcs(("gbtrf",), dtype=ab.dtype)
    _, ipiv, info = gbtrf(np.asfortranarray(ab), kl, ku, m=m, n=n)
    return np.asarray(ipiv, dtype=np.int64), int(info)


def _in_form(x, form):
    """Stack ``x`` as the drawn operand form, holding ``x``'s values."""
    if form == "stack":
        return x.copy()
    if form == "lane-step":
        buf = np.zeros((2 * len(x),) + x.shape[1:], dtype=x.dtype)
        buf[::2] = x
        return buf[::2]
    return [np.array(lane) for lane in x]


def _bound(dtype, n):
    return 64 * n * np.finfo(dtype).eps


def _backward_error(op_a, x, b):
    """``|op(A) x - b|`` over ``|op(A)| |x| + |b|``, in the inf-norm."""
    residual = np.abs(op_a @ x - b).max()
    scale = (np.abs(op_a).sum(axis=1).max() * np.abs(x).max()
             + np.abs(b).max())
    return residual / scale if scale else residual


def _check_gbtrf(m, n, kl, ku, a, piv, info):
    """Pivots and ``info`` of every lane equal ``?gbtrf``'s."""
    ref = [_lapack_gbtrf(ab.copy(), kl, ku, m, n) for ab in a]
    assert [int(x) for x in info] == [r[1] for r in ref]
    for k, (ipiv, _) in enumerate(ref):
        assert np.array_equal(piv[k], ipiv), k


def _check_gbsv(n, kl, ku, a, b, piv, info, x):
    """Pivots and ``info`` equal ``?gbsv``'s, a singular lane keeps its
    right-hand side, and every other lane meets the backward-error
    bound."""
    ref = [_lapack_gbsv(kl, ku, ab, rhs) for ab, rhs in zip(a, b)]
    assert [int(i) for i in info] == [r[1] for r in ref]
    for k, (ipiv, lapack_info, _) in enumerate(ref):
        assert np.array_equal(piv[k], ipiv), k
        if lapack_info:
            assert x[k].tobytes() == b[k].tobytes(), k
            continue
        err = _backward_error(dense_of(a[k], kl, ku), x[k], b[k])
        assert err <= _bound(a.dtype, n), (k, err)


@given(problems(), st.sampled_from(ROUTES))
@settings(**SETTINGS)
def test_gbtrf_matches_dgbtrf(problem, route):
    m, n, kl, ku, a = problem
    piv, info = _on_route(route, gbtrf_batch, m, n, kl, ku, a.copy())
    _check_gbtrf(m, n, kl, ku, a, piv, info)


@given(problems(square=True), st.booleans())
@settings(**SETTINGS)
def test_gbsv_matches_dgbsv(problem, full_stack):
    _, n, kl, ku, a = problem
    b = random_rhs(n, 1, batch=len(a), seed=n)
    x = b.copy()
    out = gbsv_batch(n, kl, ku, 1, a.copy(), None, x,
                     **(FULL_STACK if full_stack else {}))
    _check_gbsv(n, kl, ku, a, b, out[0], out[1], x)


@given(st.sampled_from(OTHER_DTYPES), st.sampled_from(FORMS),
       st.sampled_from(ROUTES), st.data())
@settings(**SETTINGS)
def test_gbtrf_matches_lapack_gbtrf(dtype, form, route, data):
    """Single precision and complex: pivots and ``info`` exactly, on
    every operand form and route."""
    m, n, kl, ku, a = data.draw(problems(dtype=dtype))
    piv, info = _on_route(route, gbtrf_batch, m, n, kl, ku,
                          _in_form(a, form))
    _check_gbtrf(m, n, kl, ku, a, piv, info)


@given(st.sampled_from(OTHER_DTYPES), st.sampled_from(FORMS),
       st.sampled_from(["auto", "host"]), st.data())
@settings(**SETTINGS)
def test_gbsv_matches_lapack_gbsv(dtype, form, route, data):
    """Single precision and complex ``?gbsv``: pivots and ``info``
    exactly, a singular lane's right-hand side untouched, every regular
    lane solved to the backward-error bound, on every operand form and
    on the host net."""
    _, n, kl, ku, a = data.draw(problems(square=True, dtype=dtype))
    b = random_rhs(n, 2, batch=len(a), dtype=dtype, seed=n)
    x = _in_form(b, form)
    piv, info = _on_route(route, gbsv_batch, n, kl, ku, 2,
                          _in_form(a, form), None, x)
    _check_gbsv(n, kl, ku, a, b, piv, info, np.stack(x))


@given(st.sampled_from(["T", "C"]), st.sampled_from(ALL_DTYPES),
       st.sampled_from(FORMS), st.sampled_from(["auto", "reference"]),
       st.data())
@settings(**SETTINGS)
def test_gbtrs_transposed_matches_lapack_gbtrs(trans, dtype, form, method,
                                               data):
    """``gbtrs_batch`` with ``trans='T'``/``'C'`` and ``?gbtrs`` on the
    same factors and pivots: both report ``info == 0`` and both solve
    ``op(A) x = b`` to the backward-error bound, on the blocked and the
    reference design."""
    _, n, kl, ku, a = data.draw(problems(square=True, dtype=dtype,
                                         singular=False))
    factors = a.copy()
    piv, finfo = gbtrf_batch(n, n, kl, ku, factors)
    assume(not finfo.any())
    b = random_rhs(n, 2, batch=len(a), dtype=dtype, seed=n + 1)
    gbtrs, = get_lapack_funcs(("gbtrs",), dtype=dtype)
    x = _in_form(b, form)
    info = gbtrs_batch(trans, n, kl, ku, 2, _in_form(factors, form), piv, x,
                       method=method)
    x = np.stack(x)
    assert not np.asarray(info).any()
    for k in range(len(a)):
        x_ref, lapack_info = gbtrs(
            np.asfortranarray(factors[k]), kl, ku, np.asfortranarray(b[k]),
            np.asarray(piv[k], dtype=np.int32), trans="NTC".index(trans))
        assert lapack_info == 0
        dense = dense_of(a[k], kl, ku)
        op_a = dense.T if trans == "T" else dense.conj().T
        for got in (x[k], x_ref):
            err = _backward_error(op_a, got, b[k])
            assert err <= _bound(dtype, n), (k, err)
