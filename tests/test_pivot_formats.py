"""Every pivot format runs the same call, as one array, in every layer.

The batched drivers take ``pv_array`` as ``None``, a ``(batch, mn)``
integer stack (any integer dtype) or a pointer array of per-problem
vectors.  Whatever the form, every layer and kernel sees one ``(batch,
mn)`` array (a pointer array is stacked once where the layer stack is
entered), and the call writes the same factors, pivots, ``info`` and
solutions.  The drivers return the caller's stack itself, the caller's
own vectors, or a new array.
"""

import numpy as np
import pytest

from repro.band.generate import random_band_batch, random_rhs
from repro.core import gbsv_batch, gbtrf_batch, gbtrs_batch
from repro.core.gbsv import GBSV
from repro.core.gbtrf import GBTRF
from repro.core.gbtrs import GBTRS
from repro.errors import DeviceError
from repro.gpusim import H100_PCIE, FaultPlan, disarm_faults, fault_injection

N, KL, KU, BATCH, NRHS = 24, 2, 3, 7, 2
SINGULAR = 4        # one singular lane walks the gbsv and quarantine paths

CONFIGS = {
    "plain": {},
    "resilient": dict(resilient=True),
    "verify": dict(verify="cheap"),
    "chunked": dict(chunk_hint=3),
    "devices": dict(devices=2),
}
#: (driver, method): both gbtrf and gbsv designs, and the blocked solve.
CALLS = [("gbtrf", "fused"), ("gbtrf", "window"), ("gbsv", "fused"),
         ("gbsv", "standard"), ("gbtrs", "blocked")]
#: A solve needs its factorization's pivots, and only a solve takes
#: read-only ones.
FORMS = {"gbtrf": ["none", "stack64", "stack32", "list"],
         "gbsv": ["none", "stack64", "stack32", "list"],
         "gbtrs": ["stack64", "stack32", "list", "readonly_list"]}


@pytest.fixture(autouse=True)
def _clean_injectors():
    yield
    disarm_faults()


@pytest.fixture
def dispatched(monkeypatch):
    """Types of ``Operands.pivots`` at every ``OpSpec.dispatch``."""
    seen = []
    for spec in (GBTRF, GBTRS, GBSV):
        def spy(method, cfg, ops, vectorize, _inner=spec.dispatch):
            seen.append(type(ops.pivots))
            return _inner(method, cfg, ops, vectorize)
        monkeypatch.setitem(spec.__dict__, "dispatch", spy)
    return seen


def _operands(driver):
    a = random_band_batch(BATCH, N, KL, KU, seed=31)
    b = random_rhs(N, NRHS, batch=BATCH, seed=32)
    if driver == "gbtrs":
        piv, info = gbtrf_batch(N, N, KL, KU, a)
        assert (info == 0).all()
        return a, piv, b
    a[SINGULAR, :, N // 2] = 0.0
    return a, None, b


def _pivots(form, piv):
    """``pv_array`` of ``form`` holding ``piv`` (zeros when ``None``)."""
    if form == "none":
        return None
    piv = np.zeros((BATCH, N), dtype=np.int64) if piv is None else piv
    if form == "stack64":
        return piv.astype(np.int64)
    if form == "stack32":
        return piv.astype(np.int32)
    vectors = [p.copy() for p in piv]
    for p in vectors:
        p.setflags(write=form != "readonly_list")
    return vectors


def _call(driver, method, form, config):
    """Run one call; returns ``(pv_array, returned pivots, outputs)``."""
    a, piv, b = _operands(driver)
    pv = _pivots(form, piv)
    kw = dict(method=method, **CONFIGS[config])
    if driver == "gbtrf":
        out = gbtrf_batch(N, N, KL, KU, a, pv, **kw)
        ret, info = out[0], out[1]
    elif driver == "gbsv":
        out = gbsv_batch(N, KL, KU, NRHS, a, pv, b, **kw)
        ret, info = out[0], out[1]
    else:
        out = gbtrs_batch("N", N, KL, KU, NRHS, a, pv, b, **kw)
        ret, info = None, out[0] if isinstance(out, tuple) else out
    pivots = piv if ret is None else ret
    return pv, ret, [a, np.asarray(np.stack(list(pivots)), dtype=np.int64),
                     np.asarray(info), b]


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("form,driver,method", [
    (form, driver, method) for driver, method in CALLS
    for form in FORMS[driver]])
def test_pivot_forms_agree(form, driver, method, config, dispatched):
    _, _, want = _call(driver, method, "stack64", config)
    dispatched.clear()
    pv, ret, got = _call(driver, method, form, config)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert dispatched and all(t is np.ndarray for t in dispatched)
    if driver == "gbtrs":
        return
    if form in ("stack64", "stack32"):
        assert ret is pv
    elif form == "list":
        assert len(ret) == BATCH and all(r is p for r, p in zip(ret, pv))
    else:
        assert isinstance(ret, np.ndarray) and ret.shape == (BATCH, N)


def test_pointer_array_pivots_written_back_when_solve_fails():
    """A failed solve stage still leaves the factorization's pivots in the
    caller's vectors, as it leaves the factors in the caller's matrices."""
    a = random_band_batch(BATCH, N, KL, KU, seed=33)
    b = random_rhs(N, NRHS, batch=BATCH, seed=34)
    want, _ = gbtrf_batch(N, N, KL, KU, a.copy(), method="window")
    vectors = [np.full(N, -1, dtype=np.int64) for _ in range(BATCH)]
    plan = FaultPlan(launch_failure_rate=1.0, fail_kernels="gbtrs")
    with fault_injection(H100_PCIE, plan), pytest.raises(DeviceError):
        gbsv_batch(N, KL, KU, NRHS, a, vectors, b, method="standard")
    assert np.array_equal(np.stack(vectors), want)
