"""Batch-interleaved (SoA) storage layout: detection, dispatch, bit-identity.

The contracts under test (docs/LAYOUTS.md):

* ``to_interleaved``/``to_lane_major`` round-trip bit-exactly and
  ``alloc_band_interleaved`` produces a stack that ``is_interleaved``
  recognises (lane index fastest-varying in memory);
* ``is_interleaved_stack`` admits exactly the lane lists whose disjointness
  the stride proof can establish — including consecutive chunk sub-slices,
  which is what keeps governance/pipelining/resilience layout-native — and
  rejects lane-major stacks, scattered batches and aliased lanes;
* every driver runs an interleaved batch natively (``[vec+soa]`` in the
  trace, zero conversions) with results bit-identical to the per-block and
  classic ``[vec]`` paths;
* the ``layout=`` knob stages a batch into the requested layout exactly
  once at the batch boundary: a trace carries exactly one record with
  ``soa_bytes > 0`` no matter how many stages or chunks follow;
* the serving layer forwards ``layout`` and stays transparent — cache hit
  == cold at atol=0.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    SolverService,
    alloc_band_interleaved,
    gbcon_batch,
    gbrfs_batch,
    gbsv_batch,
    gbsv_vbatch,
    gbtrf_batch,
    gbtrs_batch,
    is_interleaved,
    to_interleaved,
    to_lane_major,
)
from repro.band.generate import random_band_batch, random_rhs
from repro.band.layout import (
    INTERLEAVED,
    LANE_MAJOR,
    alloc_band,
    normalize_layout,
)
from repro.core.batch_args import (
    is_interleaved_stack,
    is_uniform_stack,
    stack_rung,
    stack_view,
)
from repro.errors import ArgumentError, DeviceMemoryError
from repro.gpusim import H100_PCIE, Stream
from repro.gpusim.faults import FaultPlan, fault_injection

DTYPES = [np.float32, np.float64, np.complex128]
DTYPE_IDS = [np.dtype(d).name for d in DTYPES]


def _bytes_equal(*pairs):
    for got, ref in pairs:
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _launches(stream):
    """Kernel launch records only (chunked runs interleave transfers)."""
    return [r for r in stream.records if hasattr(r, "display_name")]


def _materialize(stack):
    """Lane-major copy of a logical ``(batch, ...)`` stack, any layout."""
    return np.ascontiguousarray(stack)


# ---------------------------------------------------------------------------
# Primitives: aliases, allocation, round-trip
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_normalize_layout(self):
        assert normalize_layout(None) is None
        assert normalize_layout("soa") == INTERLEAVED
        assert normalize_layout("interleaved") == INTERLEAVED
        assert normalize_layout("aos") == LANE_MAJOR
        assert normalize_layout("lane-major") == LANE_MAJOR
        with pytest.raises(ArgumentError):
            normalize_layout("column-major")

    def test_alloc_band_interleaved(self):
        n, kl, ku, batch = 12, 2, 3, 5
        soa = alloc_band_interleaved(n, kl, ku, batch)
        aos = alloc_band(n, kl, ku, batch=batch)
        assert soa.shape == aos.shape
        assert is_interleaved(soa) and not is_interleaved(aos)
        # lane index is the fastest-varying dimension
        assert soa.strides[0] == soa.itemsize
        assert is_interleaved_stack(list(soa))
        assert is_uniform_stack(list(aos))

    @given(batch=st.integers(2, 9), rows=st.integers(1, 7),
           cols=st.integers(1, 7), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bit_exact(self, batch, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((batch, rows, cols))
        soa = to_interleaved(a)
        assert is_interleaved(soa)
        assert np.array_equal(_materialize(soa), a)
        back = to_lane_major(soa)
        assert back.tobytes() == a.tobytes()
        # Back-conversion of a lane-major stack is the identity transform.
        assert to_lane_major(a).tobytes() == a.tobytes()

    @given(batch=st.integers(2, 6), n=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_2d_rhs(self, batch, n, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((batch, n))       # nrhs=1 shorthand
        soa = to_interleaved(b)
        assert soa.strides[0] == soa.itemsize
        assert to_lane_major(soa).tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Detection: which lane lists qualify for the SoA route
# ---------------------------------------------------------------------------


class TestDetection:
    def _soa(self, batch=8, n=10, kl=1, ku=2):
        a = random_band_batch(batch, n, kl, ku, seed=3)
        return to_interleaved(a)

    def test_full_interleaved_stack_detected(self):
        soa = self._soa()
        assert is_interleaved_stack(list(soa))

    def test_chunk_subslices_stay_detectable(self):
        """Consecutive sub-slices (what the chunked executor takes) must
        keep the property — this is what makes chunking conversion-free."""
        lanes = list(self._soa(batch=8))
        for start, stop in [(0, 3), (2, 7), (5, 8)]:
            assert is_interleaved_stack(lanes[start:stop])

    def test_rejections(self):
        aos = random_band_batch(6, 10, 1, 2, seed=4)
        assert not is_interleaved_stack(list(aos))          # lane-major
        scattered = [np.array(m) for m in aos]
        assert not is_interleaved_stack(scattered)          # own buffers
        lanes = list(self._soa(batch=6))
        assert not is_interleaved_stack(lanes[:1])          # single lane
        assert not is_interleaved_stack([lanes[0], lanes[0]])   # aliased
        assert not is_interleaved_stack(lanes[::-1])        # negative delta
        assert not is_interleaved_stack([lanes[0], lanes[2],
                                         lanes[4], lanes[5]])  # uneven

    def test_stack_view_aliases_lanes_writably(self):
        soa = self._soa(batch=5)
        lanes = list(soa)
        view = stack_view(lanes)
        assert view.shape == soa.shape
        view[3, 0, 0] = 123.0
        assert lanes[3][0, 0] == 123.0

    def test_stack_rung_mixes_layouts(self):
        a_soa = self._soa(batch=5)
        b_aos = random_rhs(10, 2, batch=5, seed=5)
        assert stack_rung(a_soa, b_aos) == "soa"   # one interleaved suffices
        assert stack_rung(b_aos) == "direct"       # disjoint lanes: [vec]
        assert stack_rung(b_aos[::-2]) == "direct"
        # Lanes that overlap run per block, whatever the other operand.
        aliased = np.broadcast_to(b_aos[0], b_aos.shape)
        assert stack_rung(a_soa, aliased) is None


# ---------------------------------------------------------------------------
# Bit-identity: SoA vs per-block vs classic [vec]
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("method", ["window", "fused"])
def test_gbtrf_soa_bitwise(dtype, method, per_block):
    batch, n = 9, 40 if method == "window" else 20
    kl, ku = 3, 2
    a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=7)
    a_ref, a_vec = a.copy(), a.copy()
    with per_block():
        piv_ref, info_ref = gbtrf_batch(n, n, kl, ku, a_ref, method=method)
    piv_vec, info_vec = gbtrf_batch(n, n, kl, ku, a_vec, method=method)
    a_soa = to_interleaved(a)
    stream = Stream(H100_PCIE)
    piv_soa, info_soa = gbtrf_batch(n, n, kl, ku, a_soa, method=method,
                                    stream=stream)
    rec = _launches(stream)[-1]
    assert rec.soa and rec.vectorized and not rec.packed
    assert rec.display_name.endswith("[vec+soa]")
    _bytes_equal((_materialize(a_soa), a_ref), (a_vec, a_ref),
                 (np.stack(piv_soa), np.stack(piv_ref)),
                 (info_soa, info_ref), (info_vec, info_ref))


@pytest.mark.parametrize("trans", ["N", "T", "C"])
def test_gbtrs_soa_bitwise(trans, per_block):
    batch, n, kl, ku, nrhs = 9, 40, 2, 3, 2
    dtype = np.complex128 if trans == "C" else np.float64
    a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=8)
    b = random_rhs(n, nrhs, batch=batch, dtype=dtype, seed=9)
    piv, info = gbtrf_batch(n, n, kl, ku, a)
    b_ref = b.copy()
    with per_block():
        gbtrs_batch(trans, n, kl, ku, nrhs, a, piv, b_ref)
    # factors lane-major, RHS interleaved — mixed layouts still take SoA
    b_soa = to_interleaved(b)
    stream = Stream(H100_PCIE)
    gbtrs_batch(trans, n, kl, ku, nrhs, a, piv, b_soa, stream=stream)
    assert all(r.soa for r in _launches(stream))
    _bytes_equal((_materialize(b_soa), b_ref))
    # both operands interleaved
    a_soa, b_soa2 = to_interleaved(a), to_interleaved(b)
    gbtrs_batch(trans, n, kl, ku, nrhs, a_soa, piv, b_soa2)
    _bytes_equal((_materialize(b_soa2), b_ref))


@pytest.mark.parametrize("method", ["standard", "fused"])
def test_gbsv_soa_bitwise(method, per_block):
    batch, kl, ku = 9, 2, 2
    n = 40 if method == "standard" else 20
    a = random_band_batch(batch, n, kl, ku, seed=10)
    b = random_rhs(n, 1, batch=batch, seed=11)
    a_ref, b_ref = a.copy(), b.copy()
    with per_block():
        piv_ref, info_ref = gbsv_batch(n, kl, ku, 1, a_ref, None, b_ref,
                                       method=method)
    a_soa, b_soa = to_interleaved(a), to_interleaved(b)
    piv, info = gbsv_batch(n, kl, ku, 1, a_soa, None, b_soa, method=method)
    _bytes_equal((_materialize(a_soa), a_ref), (_materialize(b_soa), b_ref),
                 (np.stack(piv), np.stack(piv_ref)), (info, info_ref))


def test_gbsv_soa_singular_lanes(per_block):
    """Singular lanes keep their RHS bits; the non-singular subset is a
    scattered selection of interleaved lanes, which correctly falls back
    to per-block execution (byte spans interleave with the skipped lanes,
    so neither the SoA nor the pack gate admits it)."""
    batch, n, kl, ku = 8, 24, 2, 2
    a = random_band_batch(batch, n, kl, ku, seed=12)
    a[2, :, 5] = 0
    a[5, :, 0] = 0
    b = random_rhs(n, 1, batch=batch, seed=13)
    a_ref, b_ref = a.copy(), b.copy()
    with per_block():
        piv_ref, info_ref = gbsv_batch(n, kl, ku, 1, a_ref, None, b_ref,
                                       method="standard")
    assert info_ref[2] != 0 and info_ref[5] != 0
    a_soa, b_soa = to_interleaved(a), to_interleaved(b)
    piv, info = gbsv_batch(n, kl, ku, 1, a_soa, None, b_soa,
                           method="standard")
    _bytes_equal((_materialize(a_soa), a_ref), (_materialize(b_soa), b_ref),
                 (np.stack(piv), np.stack(piv_ref)), (info, info_ref))


def test_vbatch_soa_groups():
    """Uniform groups carved out of interleaved stacks run natively and
    match the lane-major reference bit-for-bit."""
    batch, n, kl, ku = 10, 20, 2, 1
    a = random_band_batch(batch, n, kl, ku, seed=14)
    b = random_rhs(n, 1, batch=batch, seed=15)
    a_ref, b_ref = a.copy(), b.copy()
    dims = [n] * batch, [kl] * batch, [ku] * batch, [1] * batch
    piv_ref, info_ref = gbsv_vbatch(*dims, list(a_ref), list(b_ref))
    a_soa, b_soa = to_interleaved(a), to_interleaved(b)
    piv, info = gbsv_vbatch(*dims, list(a_soa), list(b_soa))
    _bytes_equal((_materialize(a_soa), a_ref), (_materialize(b_soa), b_ref),
                 (np.stack(piv), np.stack(piv_ref)), (info, info_ref))


# ---------------------------------------------------------------------------
# The layout= knob: conversion happens exactly once at the batch boundary
# ---------------------------------------------------------------------------


class TestLayoutKnob:
    BATCH, N, KL, KU, NRHS = 12, 40, 3, 2, 2

    def _problem(self):
        a = random_band_batch(self.BATCH, self.N, self.KL, self.KU, seed=20)
        b = random_rhs(self.N, self.NRHS, batch=self.BATCH, seed=21)
        return a, b

    def _reference(self):
        a, b = self._problem()
        gbsv_batch(self.N, self.KL, self.KU, self.NRHS, a, None, b)
        return a, b

    def test_invalid_layout_rejected(self):
        a, b = self._problem()
        with pytest.raises(ArgumentError, match="layout"):
            gbsv_batch(self.N, self.KL, self.KU, self.NRHS, a, None, b,
                       layout="diagonal")

    def test_soa_knob_converts_exactly_once(self):
        a_ref, b_ref = self._reference()
        a, b = self._problem()
        stream = Stream(H100_PCIE)
        gbsv_batch(self.N, self.KL, self.KU, self.NRHS, a, None, b,
                   stream=stream, layout="soa")
        recs = _launches(stream)
        # every stage ran SoA-native, and the trace attributes exactly one
        # round-trip conversion (2x the gathered operand bytes)
        assert all(r.soa for r in recs)
        charged = [r.soa_bytes for r in recs if r.soa_bytes > 0]
        assert len(charged) == 1
        assert charged[0] == 2 * (a.nbytes + b.nbytes)
        _bytes_equal((a, a_ref), (b, b_ref))      # results written back

    def test_soa_knob_is_noop_on_interleaved_input(self):
        a_ref, b_ref = self._reference()
        a, b = self._problem()
        a_soa, b_soa = to_interleaved(a), to_interleaved(b)
        stream = Stream(H100_PCIE)
        gbsv_batch(self.N, self.KL, self.KU, self.NRHS, a_soa, None, b_soa,
                   stream=stream, layout="interleaved")
        recs = _launches(stream)
        assert all(r.soa for r in recs)
        assert sum(r.soa_bytes for r in recs) == 0
        _bytes_equal((_materialize(a_soa), a_ref),
                     (_materialize(b_soa), b_ref))

    def test_aos_knob_on_interleaved_input(self):
        a_ref, b_ref = self._reference()
        a, b = self._problem()
        a_soa, b_soa = to_interleaved(a), to_interleaved(b)
        stream = Stream(H100_PCIE)
        gbsv_batch(self.N, self.KL, self.KU, self.NRHS, a_soa, None, b_soa,
                   stream=stream, layout="aos")
        recs = _launches(stream)
        assert not any(r.soa for r in recs)       # classic [vec] inside
        assert sum(r.soa_bytes > 0 for r in recs) == 1
        _bytes_equal((_materialize(a_soa), a_ref),
                     (_materialize(b_soa), b_ref))

    def test_exactly_once_under_chunking(self):
        """Conversion precedes governance: a chunked run still charges a
        single conversion, and every chunk runs SoA-native."""
        a_ref, b_ref = self._reference()
        a, b = self._problem()
        stream = Stream(H100_PCIE)
        gbsv_batch(self.N, self.KL, self.KU, self.NRHS, a, None, b,
                   stream=stream, layout="soa", chunk_hint=4)
        recs = _launches(stream)
        assert len(recs) > 3                      # several chunks ran
        assert all(r.soa for r in recs)
        assert sum(r.soa_bytes > 0 for r in recs) == 1
        _bytes_equal((a, a_ref), (b, b_ref))

    def test_native_chunked_run_needs_no_conversion(self):
        a_ref, b_ref = self._reference()
        a, b = self._problem()
        a_soa, b_soa = to_interleaved(a), to_interleaved(b)
        stream = Stream(H100_PCIE)
        gbsv_batch(self.N, self.KL, self.KU, self.NRHS, a_soa, None, b_soa,
                   stream=stream, chunk_hint=4)
        recs = _launches(stream)
        assert len(recs) > 3 and all(r.soa for r in recs)
        assert sum(r.soa_bytes for r in recs) == 0
        _bytes_equal((_materialize(a_soa), a_ref),
                     (_materialize(b_soa), b_ref))

    def test_gbtrf_layout_knob(self):
        a, _ = self._problem()
        a_ref = a.copy()
        piv_ref, info_ref = gbtrf_batch(self.N, self.N, self.KL, self.KU,
                                        a_ref)
        stream = Stream(H100_PCIE)
        piv, info = gbtrf_batch(self.N, self.N, self.KL, self.KU, a,
                                stream=stream, layout="interleaved")
        recs = _launches(stream)
        assert all(r.soa for r in recs)
        assert sum(r.soa_bytes > 0 for r in recs) == 1
        _bytes_equal((a, a_ref), (np.stack(piv), np.stack(piv_ref)),
                     (info, info_ref))

    def test_gbtrs_layout_knob(self, per_block):
        a, b = self._problem()
        piv, _ = gbtrf_batch(self.N, self.N, self.KL, self.KU, a)
        b_ref = b.copy()
        with per_block():
            gbtrs_batch("N", self.N, self.KL, self.KU, self.NRHS, a, piv,
                        b_ref)
        stream = Stream(H100_PCIE)
        gbtrs_batch("N", self.N, self.KL, self.KU, self.NRHS, a, piv, b,
                    stream=stream, layout="soa")
        recs = _launches(stream)
        assert all(r.soa for r in recs)
        assert sum(r.soa_bytes > 0 for r in recs) == 1
        _bytes_equal((b, b_ref))

    def test_vbatch_layout_forwarded_per_group(self):
        a, b = self._problem()
        a_ref, b_ref = a.copy(), b.copy()
        dims = ([self.N] * self.BATCH, [self.KL] * self.BATCH,
                [self.KU] * self.BATCH, [self.NRHS] * self.BATCH)
        gbsv_vbatch(*dims, list(a_ref), list(b_ref))
        stream = Stream(H100_PCIE)
        gbsv_vbatch(*dims, list(a), list(b), stream=stream, layout="soa")
        recs = _launches(stream)
        assert all(r.soa for r in recs)
        _bytes_equal((a, a_ref), (b, b_ref))

    def test_convert_rejects_ragged_operands(self):
        """A pointer array whose lanes differ in shape cannot be one stack:
        the call rejects it at ``ldab``'s position before any layer (the
        layout conversion included) runs."""
        mats = [np.zeros((8, 4)), np.zeros((9, 4))]
        with pytest.raises(ArgumentError) as err:
            gbtrf_batch(4, 4, 2, 3, mats, layout="soa")
        assert err.value.position == 6

    def test_failed_call_leaves_no_conversion_charge_behind(self):
        """The conversion charge belongs to its call: a call that converts
        and then fails before launching (here: admission control rejects
        it) must not charge its bytes to the next call's first launch."""
        a = random_band_batch(32, 32, 2, 3, seed=0)
        with pytest.raises(DeviceMemoryError):
            gbtrf_batch(32, 32, 2, 3, a, layout="soa", max_resident_bytes=1)
        stream = Stream(H100_PCIE)
        gbtrf_batch(32, 32, 2, 3, random_band_batch(32, 32, 2, 3, seed=1),
                    stream=stream)
        recs = _launches(stream)
        assert recs and [r.soa_bytes for r in recs] == [0] * len(recs)

    def test_concurrent_calls_charge_only_their_own_conversion(self):
        """Threads converting at once each see exactly one charge of
        their own size on their own stream (no lost or stolen bytes)."""
        calls, nthreads = 6, 4
        errors = []

        def work(seed):
            try:
                for i in range(calls):
                    a, b = self._problem()
                    if i % 2:          # different sizes per call
                        a, b = a[:3], b[:3]
                    stream = Stream(H100_PCIE)
                    # Small chunks keep the threads' concurrent leases
                    # inside a squeezed device pool.
                    gbsv_batch(self.N, self.KL, self.KU, self.NRHS, a, None,
                               b, stream=stream, layout="soa", chunk_hint=2)
                    charged = [r.soa_bytes for r in _launches(stream)
                               if r.soa_bytes]
                    assert charged == [2 * (a.nbytes + b.nbytes)]
            except Exception as exc:   # re-raised on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,))
                       for k in range(nthreads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert not errors, errors[0]


# ---------------------------------------------------------------------------
# Fault storm: the SoA route under the resilience layer
# ---------------------------------------------------------------------------


class TestSoaUnderStorm:
    BATCH, N, KL, KU = 32, 96, 3, 2
    PLAN = FaultPlan(seed=99, launch_failure_rate=0.10,
                     max_launch_failures=4, smem_rejections=1,
                     smem_kernels="gbtrs", corrupt_lanes=(3, 17),
                     corrupt_after="gbtrf_window")

    def test_healthy_lanes_bit_identical(self):
        a = random_band_batch(self.BATCH, self.N, self.KL, self.KU, seed=30)
        b = random_rhs(self.N, 1, batch=self.BATCH, seed=31)
        base_a, base_b = a.copy(), b.copy()
        piv0, info0 = gbsv_batch(self.N, self.KL, self.KU, 1, base_a, None,
                                 base_b)
        assert (info0 == 0).all()
        a_soa, b_soa = to_interleaved(a), to_interleaved(b)
        with fault_injection(H100_PCIE, self.PLAN):
            piv, info, report = gbsv_batch(self.N, self.KL, self.KU, 1,
                                           a_soa, None, b_soa,
                                           resilient=True)
        assert report.ok and report.faults_tolerated > 0
        got_a, got_b = _materialize(a_soa), _materialize(b_soa)
        for k in range(self.BATCH):
            if k in report.quarantined:
                continue
            _bytes_equal((got_a[k], base_a[k]), (got_b[k], base_b[k]),
                         (piv[k], piv0[k]))


# ---------------------------------------------------------------------------
# Serving layer: layout knob forwarded, cache stays layout-transparent
# ---------------------------------------------------------------------------


class TestServeLayout:
    N, KL, KU = 32, 2, 3

    def _direct(self, ab, b):
        abf, bf = ab.copy(), b.copy()[:, None]
        piv, info = gbtrf_batch(self.N, self.N, self.KL, self.KU, [abf],
                                batch=1)
        assert int(info[0]) == 0
        gbtrs_batch("N", self.N, self.KL, self.KU, 1, [abf], piv, [bf],
                    batch=1)
        return bf[:, 0]

    def test_service_solves_and_caches_under_soa(self):
        rng = np.random.default_rng(40)
        from repro.band.generate import random_band
        ab = random_band(self.N, self.KL, self.KU, seed=rng)
        b1 = rng.standard_normal((self.N,))
        b2 = rng.standard_normal((self.N,))
        with SolverService(layout="interleaved") as svc:
            h1 = svc.submit(self.KL, self.KU, ab, b1)
            x1 = h1.result()
            h2 = svc.submit(self.KL, self.KU, ab, b2)   # cache hit
            x2 = h2.result()
            rep = svc.report()
        assert rep.cache_hits == 1 and rep.factorizations == 1
        _bytes_equal((x1, self._direct(ab, b1)),
                     (x2, self._direct(ab, b2)))


# ---------------------------------------------------------------------------
# Refinement and condition estimation: SoA parity + the layout= knob
# ---------------------------------------------------------------------------


class TestRefineConditionLayout:
    """``gbrfs_batch``/``gbcon_batch`` accept interleaved stacks natively,
    with results bit-identical to lane-major input."""

    BATCH, N, KL, KU, NRHS = 7, 28, 2, 3, 2

    def _problem(self):
        a = random_band_batch(self.BATCH, self.N, self.KL, self.KU, seed=50)
        b = random_rhs(self.N, self.NRHS, batch=self.BATCH, seed=51)
        fact = a.copy()
        piv, info = gbtrf_batch(self.N, self.N, self.KL, self.KU, fact)
        assert (info == 0).all()
        x = b.copy()
        gbtrs_batch("N", self.N, self.KL, self.KU, self.NRHS, fact, piv, x)
        # Knock the solution off by a deterministic perturbation so the
        # refinement loop has real work to do in every lane.
        rng = np.random.default_rng(52)
        x += 1e-3 * rng.standard_normal(x.shape)
        return a, fact, piv, b, x

    def _refine(self, a, fact, piv, b, x):
        return gbrfs_batch(self.N, self.KL, self.KU, self.NRHS, a, fact,
                           piv, b, x)

    def test_gbrfs_soa_parity(self):
        a, fact, piv, b, x = self._problem()
        x_ref = x.copy()
        ref = self._refine(a, fact, piv, b, x_ref)
        a_soa, fact_soa = to_interleaved(a), to_interleaved(fact)
        b_soa, x_soa = to_interleaved(b), to_interleaved(x)
        got = self._refine(a_soa, fact_soa, piv, b_soa, x_soa)
        _bytes_equal((_materialize(x_soa), x_ref))
        for r_ref, r_got in zip(ref, got):
            assert r_got.iterations == r_ref.iterations
            assert r_got.converged == r_ref.converged
            _bytes_equal((r_got.berr, r_ref.berr))

    def test_gbcon_soa_parity(self):
        from repro.band.ops import band_norm_1
        a, fact, piv, _b, _x = self._problem()
        anorms = [band_norm_1(a[k], self.N, self.KL, self.KU)
                  for k in range(self.BATCH)]
        ref = gbcon_batch("1", self.N, self.KL, self.KU, fact, piv, anorms)
        fact_soa = to_interleaved(fact)
        got = gbcon_batch("1", self.N, self.KL, self.KU, fact_soa, piv,
                          anorms)
        _bytes_equal((got, ref))
