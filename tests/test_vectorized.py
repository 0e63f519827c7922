"""Batch-interleaved execution path: bit-for-bit equivalence and dispatch.

Every rung of every kernel — the per-block path (the same body on one
lane), direct, soa and pack — must reproduce the scalar references
(``gbtf2`` per lane, ``gbtrs_unblocked``) in everything except
wall-clock: identical factor bits, pivots, info and solutions across
dtypes, singular matrices, non-square shapes and pivot-divergent batches.
These tests compare with ``tobytes()`` (atol=0 would still admit -0.0 vs
+0.0 and NaN mismatches); only the ``multinan`` case, whose lane mixes
NaN payloads, is compared up to NaN payload.
Dispatch rules — uniform contiguous stacks vectorize directly, pointer
arrays and scattered views vectorize through the gather/pack stage,
aliased/overlapping batches fall back — are pinned here too (mixed-shape
and vbatch coverage lives in ``tests/test_vbatch_vectorized.py``).
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.band.generate import random_band_batch, random_rhs
from repro.band.layout import to_interleaved
from repro.core import gbsv_batch, gbtrf_batch, gbtrs_batch
from repro.core.batched import gbsv_vbatch, gbtrf_vbatch
from repro.core.gbtrf_vbatch_kernel import gbtrf_vbatch_fused
from repro.core.batch_args import is_uniform_stack
from repro.core.gbtf2 import gbtf2, gbtf2_batched
from repro.core.solve_blocks import gbtrs_unblocked
from repro.errors import ArgumentError
from repro.gpusim import H100_PCIE, PointerArray, Stream, launch, summarize
from repro.gpusim.kernel import SharedMemory
from repro.serve import SolverService

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
DTYPE_IDS = [np.dtype(d).name for d in DTYPES]


def _bytes_equal(*pairs):
    for got, ref in pairs:
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _equal_up_to_nan_payload(*pairs):
    """Bit for bit, except entries (or complex components) where both
    sides are NaN: those may carry different NaN payloads."""
    for got, ref in pairs:
        got, ref = np.ascontiguousarray(got), np.ascontiguousarray(ref)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        if got.dtype.kind == "c":
            got = got.view(got.real.dtype)
            ref = ref.view(ref.real.dtype)
        if got.dtype.kind != "f":
            _bytes_equal((got, ref))
            continue
        differ = ~(np.isnan(got) & np.isnan(ref))
        assert got[differ].tobytes() == ref[differ].tobytes()


def _compare(case, *pairs):
    """The comparison a hard case is held to (see ``_harden``)."""
    if case == "multinan":
        _equal_up_to_nan_payload(*pairs)
    else:
        _bytes_equal(*pairs)


def _band_batch(batch, n, kl, ku, dtype, seed, m=None):
    """Random factor-layout batch; rows sized for the factor layout."""
    a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=seed)
    return a


# Bit patterns written inside the band by the "nonfinite" hard case: quiet
# NaN, signaling NaN, +Inf, -Inf and -0.0 (one lane each).
SPECIALS = {
    4: (0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000, 0x80000000),
    8: (0x7FF8000000000000, 0x7FF0000000000001, 0x7FF0000000000000,
        0xFFF0000000000000, 0x8000000000000000),
}

# Bit patterns written into one lane by the "multinan" hard case: quiet
# NaNs with three different payloads (one negative), a signaling NaN,
# +Inf and -Inf.
MULTINAN = {
    4: (0x7FC00001, 0x7FC00ABC, 0xFFC00002, 0x7F800005, 0x7F800000,
        0xFF800000),
    8: (0x7FF8000000000001, 0x7FF8000000000ABC, 0xFFF8000000000002,
        0x7FF0000000000005, 0x7FF0000000000000, 0xFFF0000000000000),
}
MULTINAN_LANE = 4

# Hard cases shared by the bit-identity tests below.  ``None`` is the plain
# random input; the others add, on top of it:
#   nonfinite  lanes 0-4 hold qNaN / sNaN / +Inf / -Inf / -0.0 in the band
#   zerocols   lanes 1 and 3 hold all-zero columns (exact zero pivots)
#   jusplit    lane k pivots k % (kl + 1) rows down, so ``ju`` spreads from
#              j + ku to j + kv across the lanes
#   multinan   lane 4 holds the MULTINAN patterns at several band entries;
#              results are compared up to NaN payload
HARD = ("nonfinite", "zerocols", "jusplit", "multinan")


def _harden(a, case, m, kl, ku):
    """Apply hard case ``case`` to the factor-layout batch ``a`` in place."""
    kv = kl + ku
    batch, _, n = a.shape
    if case == "nonfinite":
        comp = a.real if np.iscomplexobj(a) else a
        bits = comp.view(f"u{comp.itemsize}")
        for k, pattern in enumerate(SPECIALS[comp.itemsize][:batch]):
            c = (2 + 3 * k) % n
            r = kl + (2 * k + 1) % (kv + 1)         # a stored band row
            bits[k, r, c] = pattern
    elif case == "zerocols":
        a[1, :, min(4, n - 1)] = 0
        a[3, :, 0] = 0
        a[3, :, n // 2] = 0
    elif case == "jusplit":
        for k in range(batch):
            off = k % (kl + 1)
            for c in range(min(m - off, n)):
                a[k, kv + off, c] *= 1e3
    elif case == "multinan":
        comp = a.real if np.iscomplexobj(a) else a
        bits = comp.view(f"u{comp.itemsize}")
        for t, pattern in enumerate(MULTINAN[comp.itemsize]):
            bits[MULTINAN_LANE, kl + (2 * t) % (kv + 1),
                 (3 + 5 * t) % n] = pattern
    return a


def _check_hard(case, piv, kl):
    """Sanity-check that ``case`` exercised what it is meant to."""
    piv = np.stack([np.asarray(p) for p in piv])
    jp = piv - np.arange(piv.shape[1])
    if case == "jusplit" and kl > 0:
        # some column pivots on the diagonal in one lane and kl rows
        # down in another: the lanes' update bounds differ by kl
        assert ((jp.min(axis=0) == 0) & (jp.max(axis=0) == kl)).any()


# ---------------------------------------------------------------------------
# Building-block level: gbtf2_batched vs looped gbtf2
# ---------------------------------------------------------------------------


GBTF2_CASES = [
    (16, 16, 2, 3, None),
    (20, 20, 8, 8, None),    # band wider than the matrix quarter
    (24, 16, 2, 3, None),    # m > n
    (16, 24, 2, 3, None),    # m < n (trailing update columns)
    (12, 12, 0, 2, None),    # no subdiagonals
    (12, 12, 2, 0, None),    # no superdiagonals
    (20, 20, 3, 3, "nonfinite"),
    (20, 20, 3, 3, "zerocols"),
    (20, 20, 3, 4, "jusplit"),
    (16, 16, 0, 2, "nonfinite"),
    (16, 16, 2, 0, "nonfinite"),
    (24, 16, 3, 2, "nonfinite"),
    (16, 24, 3, 2, "jusplit"),
]


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("m,n,kl,ku,case", GBTF2_CASES, ids=[
    "-".join(str(v) for v in c if v is not None) for c in GBTF2_CASES])
def test_gbtf2_batched_bitwise(dtype, m, n, kl, ku, case):
    batch = 7
    ldab = 2 * kl + ku + 1
    rng = np.random.default_rng(11)
    a = rng.standard_normal((batch, ldab, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((batch, ldab, n))
    a = _harden(a.astype(dtype), case, m, kl, ku)

    ref = a.copy()
    piv_ref = np.zeros((batch, min(m, n)), dtype=np.int64)
    info_ref = np.zeros(batch, dtype=np.int64)
    for k in range(batch):
        p, inf = gbtf2(m, n, kl, ku, ref[k])
        piv_ref[k], info_ref[k] = p, inf
    _check_hard(case, piv_ref, kl)
    if case == "zerocols":
        assert info_ref[1] != 0 and info_ref[3] != 0

    # Lane-major and lane-fastest stacks: the column step indexes both
    # through their strides.
    for vec in (a.copy(), to_interleaved(a)):
        piv_v, info_v = gbtf2_batched(m, n, kl, ku, vec)
        _bytes_equal((np.ascontiguousarray(vec), ref), (piv_v, piv_ref),
                     (info_v, info_ref))


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_gbtf2_batched_singular_lanes(dtype):
    n, kl, ku = 14, 3, 2
    batch = 6
    ldab = 2 * kl + ku + 1
    rng = np.random.default_rng(12)
    a = rng.standard_normal((batch, ldab, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((batch, ldab, n))
    a = a.astype(dtype)
    # Zero whole band columns in a subset of lanes -> exact zero pivots.
    a[1, :, 4] = 0
    a[3, :, 0] = 0
    a[3, :, 9] = 0

    ref = a.copy()
    info_ref = np.zeros(batch, dtype=np.int64)
    piv_ref = np.zeros((batch, n), dtype=np.int64)
    for k in range(batch):
        piv_ref[k], info_ref[k] = gbtf2(n, n, kl, ku, ref[k])
    assert info_ref[1] != 0 and info_ref[3] != 0  # test is meaningful

    vec = a.copy()
    piv_v, info_v = gbtf2_batched(n, n, kl, ku, vec)
    _bytes_equal((vec, ref), (piv_v, piv_ref), (info_v, info_ref))


# ---------------------------------------------------------------------------
# Driver level: the launcher's rungs vs the per-block path across methods
# ---------------------------------------------------------------------------


def _lane_step(a):
    """``a`` copied into every other lane of a stack twice as tall: a
    strided ndarray whose lanes are disjoint but not consecutive, which
    the kernels run in place (``[vec]``)."""
    buf = np.zeros((2 * len(a),) + a.shape[1:], dtype=a.dtype)
    buf[::2] = a
    return buf[::2]


def _rungs(a):
    """The operand forms of the rungs, each with the trace label its
    launches must carry: a uniform lane-major stack run per block (the
    ``per_block`` fixture, the bare label) and as the launcher picks
    (``[vec]``),
    a lane-fastest stack (``[vec+soa]``), a lane-step view (``[vec]``,
    in place), and scattered per-lane copies, which the call gathers
    into one stack where it enters the layer stack (``[vec]``)."""
    return [(a.copy(), ""), (a.copy(), "[vec]"),
            (to_interleaved(a), "[vec+soa]"),
            (_lane_step(a), "[vec]"),
            ([np.array(x) for x in a], "[vec]")]


def _path(label, per_block):
    """The context the rung labelled ``label`` runs in: per block for
    the bare label, else the launcher's own choice."""
    return nullcontext() if label else per_block()


def _gbtf2_lanes(m, n, kl, ku, a):
    """Scalar reference: :func:`gbtf2` on each lane of a copy of ``a``."""
    ref = np.array(a)
    piv = np.zeros((len(ref), min(m, n)), dtype=np.int64)
    info = np.zeros(len(ref), dtype=np.int64)
    for k in range(len(ref)):
        piv[k], info[k] = gbtf2(m, n, kl, ku, ref[k])
    return ref, piv, info


def _gbtrs_lanes(trans, n, kl, ku, a, piv, b, lanes=None):
    """Scalar reference: :func:`gbtrs_unblocked` on a copy of ``b``, on
    every lane or only on ``lanes``."""
    ref = np.array(b)
    for k in range(len(ref)) if lanes is None else lanes:
        gbtrs_unblocked(trans, n, kl, ku, a[k], piv[k], ref[k])
    return ref


def _launch_labels(stream):
    return {r.display_name[len(r.kernel_name):] for r in stream.records
            if hasattr(r, "kernel_name")}


GBTRF_CASES = [
    ("fused", 24, 2, 3, None),
    ("window", 48, 3, 2, None),
    ("window", 64, 8, 8, None),
    ("window", 40, 3, 3, "nonfinite"),
    ("fused", 24, 3, 3, "nonfinite"),
    ("window", 40, 3, 3, "zerocols"),
    ("window", 48, 4, 3, "jusplit"),
    ("fused", 24, 3, 2, "jusplit"),
    ("window", 40, 0, 3, "nonfinite"),
    ("window", 40, 3, 0, "nonfinite"),
    ("window", 40, 3, 2, "m<n"),
    ("window", 40, 3, 2, "m>n"),
    ("window", 40, 3, 3, "nb=1"),
    ("window", 40, 3, 3, "multinan"),
]


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("method,n,kl,ku,case", GBTRF_CASES, ids=[
    "-".join(str(v) for v in c if v is not None) for c in GBTRF_CASES])
def test_gbtrf_paths_bitwise(dtype, method, n, kl, ku, case, per_block):
    batch = 9
    m = n + {"m<n": -8, "m>n": 8}.get(case, 0)
    nb = 1 if case == "nb=1" else None
    hard = case if case in HARD else "nonfinite" if case else None
    a = _harden(_band_batch(batch, n, kl, ku, dtype, seed=21), hard, m,
                kl, ku)
    a_ref, piv_ref, info_ref = _gbtf2_lanes(m, n, kl, ku, a)
    _check_hard(hard, piv_ref, kl)
    if kl > 0:
        # Pivot-divergent batch: lanes must not all share one pivot
        # sequence, otherwise the per-lane bounds are untested.
        assert len({tuple(p) for p in piv_ref}) > 1
    if hard == "multinan":
        assert np.isnan(a_ref[MULTINAN_LANE]).any()
    for a_vec, label in _rungs(a):
        stream = Stream(H100_PCIE)
        with _path(label, per_block):
            piv_vec, info_vec = gbtrf_batch(m, n, kl, ku, a_vec,
                                            method=method, nb=nb,
                                            stream=stream)
        assert _launch_labels(stream) == {label}
        _compare(hard, (np.stack(a_vec), a_ref),
                 (np.stack(piv_vec), piv_ref), (info_vec, info_ref))


# (nrhs, trans, n, kl, ku, nb, case).  The first two entries keep their
# original ids ("1", "3").  ``case`` as in HARD: "nonfinite" writes the
# special bit patterns into both the factor and the RHS, "jusplit" makes
# lanes pivot up to kl rows down (pivots at j + kl).
GBTRS_CASES = [
    (1, "N", 40, 3, 2, None, None),
    (3, "N", 40, 3, 2, None, None),
    (1, "T", 40, 3, 2, None, None),
    (3, "C", 40, 3, 2, None, None),
    (2, "N", 37, 4, 3, 5, None),         # n not a multiple of nb
    (1, "N", 40, 3, 2, 1, None),         # nb = 1
    (1, "T", 40, 3, 2, 1, None),
    (1, "N", 40, 0, 3, None, None),      # kl = 0
    (1, "C", 40, 0, 3, None, None),
    (1, "N", 40, 3, 0, None, None),      # ku = 0
    (1, "T", 40, 3, 0, None, None),
    (3, "N", 40, 3, 2, None, "jusplit"),
    (3, "T", 40, 3, 2, None, "jusplit"),
    (3, "N", 40, 3, 2, None, "nonfinite"),
    (3, "T", 40, 3, 2, None, "nonfinite"),
    (3, "C", 40, 3, 2, None, "nonfinite"),
    (3, "N", 40, 3, 2, None, "multinan"),
]


def _gbtrs_id(case):
    nrhs, trans, n, kl, ku, nb, hard = case
    if (trans, n, kl, ku, nb, hard) == ("N", 40, 3, 2, None, None):
        return str(nrhs)
    parts = (trans, n, kl, ku, nb and f"nb={nb}", f"nrhs={nrhs}", hard)
    return "-".join(str(v) for v in parts if v is not None)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("nrhs,trans,n,kl,ku,nb,case", GBTRS_CASES,
                         ids=[_gbtrs_id(c) for c in GBTRS_CASES])
def test_gbtrs_paths_bitwise(dtype, nrhs, trans, n, kl, ku, nb, case,
                             per_block):
    """Every rung against the scalar ``gbtrs_unblocked``, byte for byte."""
    batch = 8
    a = _band_batch(batch, n, kl, ku, dtype, seed=22)
    if case == "jusplit":
        _harden(a, case, n, kl, ku)
    piv, info = gbtrf_batch(n, n, kl, ku, a)
    assert (info == 0).all()
    piv = np.stack(piv)
    _check_hard(case, piv, kl)
    b = random_rhs(n, nrhs, batch=batch, dtype=dtype, seed=23)
    comp = b.real if np.iscomplexobj(b) else b
    bits = comp.view(f"u{comp.itemsize}")
    if case == "nonfinite":
        _harden(a, case, n, kl, ku)
        for k, pattern in enumerate(SPECIALS[comp.itemsize]):
            bits[batch - 1 - k, (5 * k + 1) % n, k % nrhs] = pattern
    elif case == "multinan":
        _harden(a, case, n, kl, ku)
        for t, pattern in enumerate(MULTINAN[comp.itemsize]):
            bits[MULTINAN_LANE, (7 * t + 2) % n, t % nrhs] = pattern
    b_ref = _gbtrs_lanes(trans, n, kl, ku, a, piv, b)
    if case == "multinan":
        assert np.isnan(b_ref[MULTINAN_LANE]).any()
    for (a_vec, label), (b_vec, _) in zip(_rungs(a), _rungs(b)):
        stream = Stream(H100_PCIE)
        with _path(label, per_block):
            gbtrs_batch(trans, n, kl, ku, nrhs, a_vec, piv, b_vec, nb=nb,
                        stream=stream)
        assert _launch_labels(stream) == {label}
        _compare(case, (np.stack(b_vec), b_ref))


GBSV_CASES = [("fused", None), ("standard", None),
              ("fused", "nonfinite"), ("standard", "nonfinite"),
              ("standard", "jusplit"), ("fused", "multinan")]


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("method,case", GBSV_CASES, ids=[
    "-".join(v for v in c if v) for c in GBSV_CASES])
def test_gbsv_singular_paths_bitwise(dtype, method, case, per_block):
    """Singular lanes: factors/pivots written, B untouched, info nonzero —
    identically on every path, and equal to ``gbtf2`` plus
    ``gbtrs_unblocked`` on the ``info == 0`` lanes (the standard method
    exercises the scattered sub-batch fallback)."""
    batch, n, kl, ku = 8, 16, 2, 2
    a = _harden(_band_batch(batch, n, kl, ku, dtype, seed=24), case, n,
                kl, ku)
    a[2, :, 5] = 0
    a[5, :, 0] = 0
    b = random_rhs(n, 1, batch=batch, dtype=dtype, seed=25)
    a_ref, piv_ref, info_ref = _gbtf2_lanes(n, n, kl, ku, a)
    b_ref = _gbtrs_lanes("N", n, kl, ku, a_ref, piv_ref, b,
                         lanes=np.flatnonzero(info_ref == 0))
    assert info_ref[2] != 0 and info_ref[5] != 0
    # Singular problems keep their RHS bits.
    _bytes_equal((b_ref[2], b[2]), (b_ref[5], b[5]))
    if case == "multinan":
        assert np.isnan(b_ref[MULTINAN_LANE]).any()
    for (a_vec, label), (b_vec, _) in zip(_rungs(a), _rungs(b)):
        stream = Stream(H100_PCIE)
        with _path(label, per_block):
            piv_vec, info_vec = gbsv_batch(n, kl, ku, 1, a_vec, None, b_vec,
                                           method=method, stream=stream)
        assert label in _launch_labels(stream)
        _compare(case, (np.stack(a_vec), a_ref), (np.stack(b_vec), b_ref),
                 (np.stack(piv_vec), piv_ref), (info_vec, info_ref))


def test_gbtrf_nonsquare_paths_bitwise(per_block):
    m, n, kl, ku, batch = 24, 32, 2, 3, 6
    ldab = 2 * kl + ku + 1
    rng = np.random.default_rng(26)
    a = rng.standard_normal((batch, ldab, n))
    a_ref, piv_ref, info_ref = _gbtf2_lanes(m, n, kl, ku, a)
    for a_vec, label in _rungs(a)[:2]:
        stream = Stream(H100_PCIE)
        with _path(label, per_block):
            piv_vec, info_vec = gbtrf_batch(m, n, kl, ku, a_vec,
                                            method="window", stream=stream)
        assert _launch_labels(stream) == {label}
        _bytes_equal((a_vec, a_ref), (np.stack(piv_vec), piv_ref),
                     (info_vec, info_ref))


# ---------------------------------------------------------------------------
# Dispatch rules
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_uniform_stack_detection(self):
        stack = np.zeros((4, 7, 9))
        assert is_uniform_stack(list(stack))
        assert is_uniform_stack([stack[0]])          # single view
        assert not is_uniform_stack([])
        assert not is_uniform_stack(list(stack[::2]))          # gaps
        assert not is_uniform_stack([stack[0]] * 4)            # aliased
        assert not is_uniform_stack([np.zeros((7, 9))          # no base
                                     for _ in range(3)])
        assert not is_uniform_stack([stack[0], stack[1][:, :8]])

    def test_stack_auto_vectorizes_and_is_traced(self):
        n, kl, ku, batch = 24, 2, 3, 5
        a = _band_batch(batch, n, kl, ku, np.float64, seed=30)
        stream = Stream(H100_PCIE)
        gbtrf_batch(n, n, kl, ku, a, method="window", stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized
        assert rec.executed_blocks == batch
        assert rec.display_name == "gbtrf_window[vec]"
        assert {s.name for s in summarize([stream])} == {"gbtrf_window[vec]"}

    def test_pointer_array_packs_and_vectorizes(self):
        """A lane-step stack runs ``[vec]`` in place, and a scattered
        pointer array is gathered once at entry and launches ``[vec]``:
        neither launch packs.  Both give the stack path's bits."""
        n, kl, ku, batch = 24, 2, 3, 4
        a = _band_batch(batch, n, kl, ku, np.float64, seed=31)
        stepped = _lane_step(a)
        stream = Stream(H100_PCIE)
        piv, info = gbtrf_batch(n, n, kl, ku, stepped, method="window",
                                stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized and not rec.packed and rec.pack_bytes == 0
        assert rec.display_name == "gbtrf_window[vec]"
        scattered = PointerArray([a[k].copy() for k in range(batch)])
        stream = Stream(H100_PCIE)
        piv_s, info_s = gbtrf_batch(n, n, kl, ku, scattered,
                                    method="window", stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized and not rec.packed and rec.pack_bytes == 0
        assert rec.display_name == "gbtrf_window[vec]"
        # Same bits as the stack path.
        a2 = a.copy()
        piv2, info2 = gbtrf_batch(n, n, kl, ku, a2, method="window")
        _bytes_equal((stepped, a2), (piv, piv2), (info, info2),
                     (np.stack([np.asarray(m) for m in scattered]), a2),
                     (piv_s, piv2), (info_s, info2))

    def test_vectorize_true_rejects_aliased_batch(self):
        """A pointer array the call writes must be one stack's lanes: a
        wholly aliased one is rejected at A's position, before any
        launch."""
        n, kl, ku, batch = 16, 1, 2, 3
        a = _band_batch(batch, n, kl, ku, np.float64, seed=31)
        aliased = [a[0]] * batch          # same storage three times over
        stream = Stream(H100_PCIE)
        with pytest.raises(ArgumentError) as err:
            gbtrf_batch(n, n, kl, ku, aliased, batch=batch,
                        method="window", stream=stream)
        assert err.value.position == 5
        assert stream.records == []

    def test_aliased_batch_auto_falls_back(self, per_block):
        """A partly aliased pointer array is rejected at A's position too,
        on every path, and its lanes are left untouched."""
        n, kl, ku, batch = 16, 1, 2, 3
        a = _band_batch(batch, n, kl, ku, np.float64, seed=32)
        aliased = [a[0].copy()] + [a[1]] * (batch - 1)
        for path in (nullcontext(), per_block()):
            with path, pytest.raises(ArgumentError) as err:
                gbtrf_batch(n, n, kl, ku, aliased, batch=batch,
                            method="window")
            assert err.value.position == 5
        _bytes_equal((aliased[0], a[0]), (aliased[1], a[1]))

    def test_vectorize_false_forces_per_block(self):
        """``launch(vectorize=False)`` is the per-block reference path:
        every block runs alone, even on a stack the launcher would run
        ``[vec]``, with the same bits."""
        from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
        n, kl, ku, batch = 24, 2, 3, 4
        a = _band_batch(batch, n, kl, ku, np.float64, seed=33)
        recs, outs = [], []
        for vectorize in (False, True):
            mats, piv = a.copy(), np.zeros((batch, n), dtype=np.int64)
            info = np.zeros(batch, dtype=np.int64)
            kernel = SlidingWindowGbtrfKernel(n, n, kl, ku, mats, piv, info,
                                              nb=8, threads=kl + 1)
            recs.append(launch(H100_PCIE, kernel, vectorize=vectorize))
            outs.append((mats, piv, info))
        assert [r.display_name for r in recs] == [
            "gbtrf_window", "gbtrf_window[vec]"]
        assert recs[0].executed_blocks == batch
        _bytes_equal(*zip(*outs))

    @pytest.mark.parametrize("driver,args", [
        (gbtrf_batch, (4, 4, 1, 1, np.zeros((1, 4, 4)))),
        (gbsv_batch, (4, 1, 1, 1, np.zeros((1, 4, 4)), None,
                      np.zeros((1, 4, 1)))),
        (gbtrs_batch, ("N", 4, 1, 1, 1, np.zeros((1, 4, 4)),
                       np.zeros((1, 4), dtype=np.int64),
                       np.zeros((1, 4, 1)))),
        (gbtrf_vbatch, ([4], [4], [1], [1], [np.zeros((4, 4))])),
        (gbsv_vbatch, ([4], [1], [1], [1], [np.zeros((4, 4))],
                       [np.zeros(4)])),
        (gbtrf_vbatch_fused, ([4], [4], [1], [1], [np.zeros((4, 4))])),
        (SolverService, ()),
    ], ids=["gbtrf", "gbsv", "gbtrs", "gbtrf_vbatch", "gbsv_vbatch",
            "gbtrf_vbatch_fused", "service"])
    def test_no_execution_path_knob(self, driver, args):
        """The launcher alone picks the rung: no driver (nor the
        service) takes a ``vectorize=`` keyword."""
        with pytest.raises(TypeError, match="vectorize"):
            driver(*args, vectorize=False)

    @pytest.mark.parametrize("trans", ["T", "C"])
    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_transposed_solve_vectorizes_bitwise(self, trans, dtype,
                                                 per_block):
        batch, n, kl, ku = 6, 40, 2, 2
        a = _band_batch(batch, n, kl, ku, dtype, seed=36)
        piv, info = gbtrf_batch(n, n, kl, ku, a)
        assert (info == 0).all()
        b = random_rhs(n, 2, batch=batch, dtype=dtype, seed=37)
        b_ref = _gbtrs_lanes(trans, n, kl, ku, a, piv, b)
        for label in ("[vec]", ""):
            b_vec = b.copy()
            stream = Stream(H100_PCIE)
            with _path(label, per_block):
                gbtrs_batch(trans, n, kl, ku, 2, a, np.stack(piv), b_vec,
                            stream=stream)
            assert all(r.vectorized == bool(label) for r in stream.records)
            assert {r.display_name for r in stream.records} == \
                {"gbtrs_transU_blocked" + label,
                 "gbtrs_transL_blocked" + label}
            _bytes_equal((b_vec, b_ref))

    def test_aggregate_smem_budget(self):
        """The vectorized path is charged the whole grid's footprint."""
        from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
        n, kl, ku, batch = 24, 2, 3, 4
        a = _band_batch(batch, n, kl, ku, np.float64, seed=38)
        pivots = np.zeros((batch, n), dtype=np.int64)
        info = np.zeros(batch, dtype=np.int64)
        kernel = SlidingWindowGbtrfKernel(n, n, kl, ku, a, pivots,
                                          info, nb=8, threads=kl + 1)
        from repro.errors import SharedMemoryError
        with pytest.raises(SharedMemoryError):
            kernel.run_batch_vectorized(
                batch, SharedMemory(kernel.smem_bytes()))  # 1-block budget
        kernel.run_batch_vectorized(
            batch, SharedMemory(kernel.smem_bytes() * batch))
        assert (info == 0).all()


# ---------------------------------------------------------------------------
# Staging: kernels slice the caller's stacks in place; lists are refused
# ---------------------------------------------------------------------------


class _Walked(list):
    """Operand list that counts how many lane views are read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, i):
        out = super().__getitem__(i)
        self.reads += len(out) if isinstance(i, slice) else 1
        return out

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


class TestStaging:
    def test_uniform_stack_stages_in_place(self):
        """The window body slices the caller's stack: the factors land in
        it and the rows below the factor layout stay untouched, on the
        direct rung and per block alike, with the scalar bits."""
        from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
        n, kl, ku, batch = 20, 2, 3, 6
        a = _band_batch(batch, n, kl, ku, np.float64, seed=40)
        ldab = a.shape[1]
        outs = []
        for vectorize in (True, False):
            buf = np.full((batch, ldab + 2, n), 7.0)
            buf[:, :ldab] = a
            piv = np.zeros((batch, n), dtype=np.int64)
            info = np.zeros(batch, dtype=np.int64)
            kernel = SlidingWindowGbtrfKernel(n, n, kl, ku, buf, piv, info,
                                              nb=8, threads=kl + 1)
            rec = launch(H100_PCIE, kernel, vectorize=vectorize)
            assert rec.vectorized == vectorize and rec.pack_bytes == 0
            assert (buf[:, ldab:] == 7.0).all()
            outs.append((buf[:, :ldab], piv, info))
        a_ref, piv_ref, info_ref = _gbtf2_lanes(n, n, kl, ku, a)
        _bytes_equal(*zip(*outs), (outs[0][0], a_ref), (outs[0][1], piv_ref),
                     (outs[0][2], info_ref))

    def test_scattered_batch_still_gathers(self, per_block):
        """A scattered pointer array is gathered once, where the call
        enters the layer stack; a lane-step stack is not gathered at all.
        Both launch ``[vec]`` with no pack traffic and the per-block
        bits."""
        n, kl, ku, batch = 24, 2, 3, 5
        a = _band_batch(batch, n, kl, ku, np.float64, seed=41)
        a_ref = a.copy()
        with per_block():
            piv_ref, _ = gbtrf_batch(n, n, kl, ku, a_ref)
        stepped = _lane_step(a)
        scattered = [np.array(x) for x in a]
        for operand in (stepped, scattered):
            stream = Stream(H100_PCIE)
            piv, _ = gbtrf_batch(n, n, kl, ku, operand, stream=stream)
            rec = stream.records[-1]
            assert rec.display_name.endswith("[vec]")
            assert not rec.packed and rec.pack_bytes == 0
            _bytes_equal((np.stack(operand), a_ref), (piv, piv_ref))

    @pytest.mark.parametrize("fail", ["gbtrf", "gbtrs_fwd", "gbtrs_bwd"])
    def test_resilient_retry_restores_stack(self, fail):
        """A launch failure after earlier launches wrote the caller's stack
        in place: the retry starts from the caller's original bits."""
        from repro.gpusim import FaultPlan, fault_injection
        n, kl, ku, batch = 96, 3, 2, 6
        a = _band_batch(batch, n, kl, ku, np.float64, seed=42)
        b = random_rhs(n, 1, batch=batch, seed=43)
        a_ref, b_ref = a.copy(), b.copy()
        piv_ref, info_ref = gbsv_batch(n, kl, ku, 1, a_ref, None, b_ref,
                                       method="standard")
        plan = FaultPlan(launch_failure_rate=1.0, max_launch_failures=1,
                         fail_kernels=fail)
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbsv_batch(n, kl, ku, 1, a, None, b,
                                           method="standard",
                                           resilient=True)
        assert report.launch_failures == 1 and report.retries >= 1
        _bytes_equal((a, a_ref), (b, b_ref),
                     (np.stack(piv), np.stack(piv_ref)), (info, info_ref))

    @pytest.mark.parametrize("layouts", [
        ("aos", "aos"), ("soa", "soa"), ("aos", "soa"), ("soa", "aos")])
    def test_each_operand_list_walked_once(self, layouts):
        """The launcher reads the rung off the operand stacks, so no lane
        is walked: a list of lanes handed to a kernel is refused with a
        ``TypeError`` naming it before one lane is read or a record is
        made, and the stacks it stands for launch on their rung with the
        per-block bits."""
        from repro.core.gbtrs_blocked import BlockedForwardKernel
        n, kl, ku, batch = 40, 3, 2, 16
        a = _band_batch(batch, n, kl, ku, np.float64, seed=44)
        piv, _ = gbtrf_batch(n, n, kl, ku, a)
        b = random_rhs(n, 1, batch=batch, seed=45)
        ops = [x.copy() if lay == "aos" else to_interleaved(x)
               for x, lay in zip((a, b), layouts)]
        for as_list in ((True, False), (False, True)):
            mats, rhs = (_Walked(x) if lst else x
                         for x, lst in zip(ops, as_list))
            kernel = BlockedForwardKernel(n, kl, ku, 1, mats, piv, rhs)
            lists = [x for x in (mats, rhs) if isinstance(x, _Walked)]
            reads = [x.reads for x in lists]
            stream = Stream(H100_PCIE)
            with pytest.raises(TypeError, match="gbtrs_fwd_blocked"):
                launch(H100_PCIE, kernel, stream=stream)
            assert stream.records == []
            assert [x.reads for x in lists] == reads
        _bytes_equal((ops[1], b))
        rec = launch(H100_PCIE, BlockedForwardKernel(n, kl, ku, 1, ops[0],
                                                     piv, ops[1]))
        assert rec.vectorized and not rec.packed
        assert rec.soa == ("soa" in layouts)
        # The forward solve alone ran; compare with the per-block kernel.
        b_blk = b.copy()
        launch(H100_PCIE, BlockedForwardKernel(n, kl, ku, 1, a, piv, b_blk),
               vectorize=False)
        _bytes_equal((ops[1], b_blk))

    def test_gbsv_call_checks_each_operand_list_once(self, monkeypatch):
        """A window gbsv call is three launches over five operand batches.
        A 3-D stack, lane-major or interleaved, is judged from its first
        two lanes and its length: the call walks no lane list at all."""
        import sys
        from repro.core import batch_args
        walks = []
        for name in ("is_uniform_stack", "is_interleaved_stack",
                     "_lanes_follow"):
            orig = getattr(batch_args, name)

            def counted(seq, *args, _orig=orig, _name=name):
                if not isinstance(seq, np.ndarray):
                    walks.append((_name, len(seq)))
                return _orig(seq, *args)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, name, None) is orig):
                    monkeypatch.setattr(mod, name, counted)
        n, kl, ku, batch = 96, 3, 2, 12
        for layout, label in ((None, "[vec]"), (to_interleaved, "[vec+soa]")):
            a = _band_batch(batch, n, kl, ku, np.float64, seed=46)
            b = random_rhs(n, 1, batch=batch, seed=47)
            if layout is not None:
                a, b = layout(a), layout(b)
            stream = Stream(H100_PCIE)
            gbsv_batch(n, kl, ku, 1, a, None, b, method="standard",
                       stream=stream)
            assert [r.display_name for r in stream.records] == [
                "gbtrf_window" + label, "gbtrs_fwd_blocked" + label,
                "gbtrs_bwd_blocked" + label]
            assert [w for w in walks if w[1] == batch] == []
        # A pointer-array call walks each list once, where it enters the
        # layer stack, and then launches on the stack view.
        a = _band_batch(batch, n, kl, ku, np.float64, seed=46)
        b = random_rhs(n, 1, batch=batch, seed=47)
        gbsv_batch(n, kl, ku, 1, list(a), None, list(b), method="standard")
        assert [w for w in walks if w[1] == batch] == \
            [("_lanes_follow", batch)] * 2
