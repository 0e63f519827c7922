"""Every operand format runs the same call, as one array, in every layer.

The batched drivers take ``pv_array`` as ``None``, a ``(batch, mn)``
integer stack (any integer dtype) or a pointer array of per-problem
vectors, and the matrices and right-hand sides as a stack or a pointer
array.  Whatever the form, every layer and kernel sees one array per
operand (a pointer array becomes one where the layer stack is entered:
a zero-copy view when its lanes already form one stack, else one
gather that is written back), and the call writes the same factors,
pivots, ``info`` and solutions.  The drivers return the caller's pivot
stack itself, the caller's own vectors, or a new array.  A pointer
array one stack cannot hold (nested sequences, mixed shapes, aliased
lanes the call writes) is rejected at its argument position.
"""

import numpy as np
import pytest

from repro.band.generate import random_band_batch, random_rhs
from repro.band.layout import to_interleaved
from repro.core import gbsv_batch, gbtrf_batch, gbtrs_batch
from repro.core.gbsv import GBSV
from repro.core.gbtrf import GBTRF
from repro.core.gbtrs import GBTRS
from repro.errors import ArgumentError, DeviceError
from repro.gpusim import H100_PCIE, FaultPlan, Stream, disarm_faults, \
    fault_injection

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
        def spy(method, cfg, ops, _inner=spec.dispatch):
            seen.append(type(ops.pivots))
            return _inner(method, cfg, ops)
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


# --- matrix and right-hand-side forms ----------------------------------------

#: Operand forms of ``(a_array, b_array)``: a stack, ``list(stack)``, the
#: lanes of an interleaved stack, scattered copies, and (a solve reads its
#: factors only) read-only and aliased factor lists.
OPERAND_FORMS = {"gbtrf": ["list", "interleaved", "scattered"],
                 "gbsv": ["list", "interleaved", "scattered"],
                 "gbtrs": ["list", "interleaved", "scattered", "readonly",
                           "aliased"]}


@pytest.fixture
def operands_seen(monkeypatch):
    """``(op, mats, rhs, pivots)`` of ``Operands`` at every
    ``OpSpec.dispatch``."""
    seen = []
    for spec in (GBTRF, GBTRS, GBSV):
        def spy(method, cfg, ops, _inner=spec.dispatch,
                _name=spec.name):
            seen.append((_name, ops.mats, ops.rhs, ops.pivots))
            return _inner(method, cfg, ops)
        monkeypatch.setitem(spec.__dict__, "dispatch", spy)
    return seen


def _lanes(form, stack):
    """``stack``'s lanes as pointer array ``form``; the call writes them
    back into the returned lanes."""
    if form == "stack":
        return stack
    if form == "list":
        return list(stack)
    if form == "interleaved":
        return list(to_interleaved(stack))
    lanes = [x.copy() for x in stack]
    for x in lanes:
        x.setflags(write=form != "readonly")
    return lanes


def _form_call(driver, method, form, config):
    """Run one call with matrices and right-hand sides in ``form``;
    returns ``(a_array, b_array, outputs)``."""
    a, piv, b = _operands(driver)
    if form == "aliased":           # every lane solves with lane 0's factors
        a, piv = np.repeat(a[:1], BATCH, axis=0), np.repeat(piv[:1], BATCH, 0)
        a_arg, b_arg = [a[0]] * BATCH, list(b)
    elif form == "aliased-stack":   # the stack call it must match
        a, piv = np.repeat(a[:1], BATCH, axis=0), np.repeat(piv[:1], BATCH, 0)
        a_arg, b_arg = a, b
    else:
        a_arg = _lanes(form, a)
        b_arg = _lanes("scattered" if form == "readonly" else form, b)
    kw = dict(method=method, **CONFIGS[config])
    if form == "list":
        # Run lane-major: a window factorization would convert it.
        kw["layout"] = "aos"
    if driver == "gbtrf":
        out = gbtrf_batch(N, N, KL, KU, a_arg, **kw)
    elif driver == "gbsv":
        out = gbsv_batch(N, KL, KU, NRHS, a_arg, None, b_arg, **kw)
    else:
        out = gbtrs_batch("N", N, KL, KU, NRHS, a_arg, piv, b_arg, **kw)
        out = (piv, out[0] if isinstance(out, tuple) else out)
    outs = [np.stack(list(a_arg)), np.asarray(np.stack(list(out[0])),
                                              dtype=np.int64),
            np.asarray(out[1])]
    if driver != "gbtrf":
        outs.append(np.stack(list(b_arg)))
    return a_arg, b_arg, outs


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("form,driver,method", [
    (form, driver, method) for driver, method in CALLS
    for form in OPERAND_FORMS[driver]])
def test_operand_forms_agree(form, driver, method, config, operands_seen):
    """Every matrix/RHS form writes the stack call's bytes, and every
    layer below the entry holds each operand as one ndarray."""
    base = "aliased-stack" if form == "aliased" else "stack"
    _, _, want = _form_call(driver, method, base, config)
    operands_seen.clear()
    a_arg, b_arg, got = _form_call(driver, method, form, config)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert operands_seen
    for op, mats, rhs, pivots in operands_seen:
        assert type(mats) is type(pivots) is np.ndarray
        # gbtrf's own calls (and the factorization before a solve) have
        # no right-hand side; gbsv's factor stage sees gbsv's.
        assert type(rhs) is np.ndarray or (op == "gbtrf" and rhs is None)
    # ``list(stack)`` needs no gather: the layers run on the caller's own
    # stack (a forked round stages it into shared memory instead).
    if form == "list" and config != "devices":
        # The call's first dispatch covers every lane (a solve's setup
        # factorization, with no right-hand side, is not the call's).
        _, mats, rhs, _ = next(s for s in operands_seen
                               if (s[2] is None) == (driver == "gbtrf"))
        assert np.shares_memory(mats, a_arg[0].base)
        if rhs is not None:
            assert np.shares_memory(rhs, b_arg[0].base)


def test_aliased_output_rejected():
    """Lanes the call writes must be disjoint: aliased matrices or
    right-hand sides are rejected at their position, nothing written."""
    a, _, b = _operands("gbsv")
    a0, b0 = a[0].copy(), b[0].copy()
    with pytest.raises(ArgumentError) as err:
        gbsv_batch(N, KL, KU, NRHS, [a[0]] * BATCH, None, list(b))
    assert err.value.position == 5
    with pytest.raises(ArgumentError) as err:
        gbsv_batch(N, KL, KU, NRHS, list(a), None, [b[0]] * BATCH)
    assert err.value.position == 7
    f, piv, b = _operands("gbtrs")
    with pytest.raises(ArgumentError) as err:
        gbtrs_batch("N", N, KL, KU, NRHS, f, piv, [b[1]] + [b[0]] * 6)
    assert err.value.position == 9
    assert np.array_equal(a[0], a0) and np.array_equal(b[0], b0)


def test_mixed_ldab_rejected():
    """One call takes one ``ldab``: lanes of two shapes are rejected at
    ``ldab``'s position (6 for gbtrf/gbsv, 7 for gbtrs), with or without
    a layout conversion."""
    a, _, b = _operands("gbsv")
    padded = np.zeros((a.shape[1] + 1, N))
    padded[:-1] = a[1]
    mixed = [a[0].copy(), padded] + [x.copy() for x in a[2:]]
    for layout in (None, "soa"):
        with pytest.raises(ArgumentError) as err:
            gbtrf_batch(N, N, KL, KU, mixed, layout=layout)
        assert err.value.position == 6
        with pytest.raises(ArgumentError) as err:
            gbsv_batch(N, KL, KU, NRHS, mixed, None, b, layout=layout)
        assert err.value.position == 6
    _, piv, b = _operands("gbtrs")
    with pytest.raises(ArgumentError) as err:
        gbtrs_batch("N", N, KL, KU, NRHS, mixed, piv, b)
    assert err.value.position == 7


def test_gathered_operands_written_back_when_solve_fails():
    """A failed solve stage still leaves the factorization in the caller's
    scattered matrices (and their right-hand sides as they were): the
    gathered copies go back on the error path too."""
    a = random_band_batch(BATCH, N, KL, KU, seed=33)
    b = random_rhs(N, NRHS, batch=BATCH, seed=34)
    want = a.copy()
    gbtrf_batch(N, N, KL, KU, want, method="window")
    mats, rhs = [x.copy() for x in a], [x.copy() for x in b]
    plan = FaultPlan(launch_failure_rate=1.0, fail_kernels="gbtrs")
    with fault_injection(H100_PCIE, plan), pytest.raises(DeviceError):
        gbsv_batch(N, KL, KU, NRHS, mats, None, rhs, method="standard")
    assert np.stack(mats).tobytes() == want.tobytes()
    assert np.stack(rhs).tobytes() == b.tobytes()


@pytest.mark.parametrize("layout", ["soa", None])
def test_layout_working_copies_written_back_when_solve_fails(layout):
    """The layout layer's working copies go back on the error path too:
    a converted call whose solve stage fails leaves the factorization in
    the caller's stack (and its right-hand sides as they were), as an
    unconverted one does.  At n=72 the factorization runs the window, so
    the default converts too."""
    n = 72
    a = random_band_batch(BATCH, n, KL, KU, seed=33)
    b = random_rhs(n, NRHS, batch=BATCH, seed=34)
    want, b0 = a.copy(), b.copy()
    gbtrf_batch(n, n, KL, KU, want, method="window")
    plan = FaultPlan(launch_failure_rate=1.0, fail_kernels="gbtrs")
    stream = Stream(H100_PCIE)
    with fault_injection(H100_PCIE, plan), pytest.raises(DeviceError):
        gbsv_batch(n, KL, KU, NRHS, a, None, b, method="standard",
                   layout=layout, stream=stream)
    assert stream.records[0].display_name == "gbtrf_window[vec+soa]"
    assert stream.records[0].soa_bytes > 0
    assert a.tobytes() == want.tobytes()
    assert b.tobytes() == b0.tobytes()


# --- entry rejects what one stack cannot hold --------------------------------

def test_gbtrf_nested_sequence_matrices_rejected():
    """A pointer array of nested Python lists has nowhere to put the
    factors: ``gbtrf`` rejects it at A's position instead of factoring a
    temporary copy."""
    a = random_band_batch(BATCH, N, KL, KU, seed=35)
    with pytest.raises(ArgumentError) as err:
        gbtrf_batch(N, N, KL, KU, [lane.tolist() for lane in a])
    assert err.value.position == 5


def test_gbsv_nested_sequence_operands_rejected():
    a = random_band_batch(BATCH, N, KL, KU, seed=36)
    b = random_rhs(N, 1, batch=BATCH, seed=37)
    with pytest.raises(ArgumentError) as err:
        gbsv_batch(N, KL, KU, 1, [lane.tolist() for lane in a], None, b)
    assert err.value.position == 5
    with pytest.raises(ArgumentError) as err:
        gbsv_batch(N, KL, KU, 1, a, None, [[1.0] * N for _ in range(BATCH)])
    assert err.value.position == 7


def test_gbtrs_nested_sequence_rhs_rejected():
    """The solutions go into ``B``: nested lists are rejected at B's
    position.  The read-only factors may still be any array-likes."""
    f, piv, _ = _operands("gbtrs")
    with pytest.raises(ArgumentError) as err:
        gbtrs_batch("N", N, KL, KU, 1, f, piv,
                    [[1.0] * N for _ in range(BATCH)])
    assert err.value.position == 9
    b = np.ones((BATCH, N, 1))
    want = b.copy()
    gbtrs_batch("N", N, KL, KU, 1, f, piv, want)
    gbtrs_batch("N", N, KL, KU, 1, [lane.tolist() for lane in f], piv, b)
    assert b.tobytes() == want.tobytes()


@pytest.mark.parametrize("driver,position", [("gbtrf", 7), ("gbtrs", 8),
                                             ("gbsv", 6)])
def test_nested_sequence_pivots_rejected(driver, position):
    """Pivot vectors must be integer arrays, at the pivots' position."""
    a, piv, b = _operands(driver)
    nested = [[0] * N for _ in range(BATCH)]
    with pytest.raises(ArgumentError) as err:
        if driver == "gbtrf":
            gbtrf_batch(N, N, KL, KU, a, nested)
        elif driver == "gbsv":
            gbsv_batch(N, KL, KU, NRHS, a, nested, b)
        else:
            gbtrs_batch("N", N, KL, KU, NRHS, a, nested, b)
    assert err.value.position == position
