"""Bucketed vectorization of non-uniform and pointer-array batches.

``gbtrf_vbatch`` / ``gbsv_vbatch`` (grouped) and ``gbtrf_vbatch_fused``
(single-kernel) bucket lanes by configuration on the launcher's
batch-interleaved rungs, which must be bit-identical to the per-block
loop (the ``per_block`` fixture) — including singular lanes inside a
bucket, ragged bucket sizes and scattered (pointer-array) storage.  Dispatch/attribution rules for the
gather/pack stage are pinned here; uniform-batch coverage lives in
``tests/test_vectorized.py``.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.band.convert import dense_to_band
from repro.band.generate import random_band, random_rhs
from repro.core import gbtrf_batch
from repro.core.batched import gbsv_vbatch, gbtrf_vbatch
from repro.core.gbtrf_vbatch_kernel import gbtrf_vbatch_fused
from repro.errors import ArgumentError
from repro.gpusim import H100_PCIE, PointerArray, Stream

DTYPES = [np.float64, np.complex128]
DTYPE_IDS = [np.dtype(d).name for d in DTYPES]


def _bytes_equal(*pairs):
    for got, ref in pairs:
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _ragged_problems(dtype=np.float64, seed=0):
    """Mixed-shape batch whose buckets have ragged sizes 1, 2 and 5."""
    configs = ([(24, 2, 3)] * 5 + [(16, 1, 1)] * 2 + [(40, 4, 2)])
    rng = np.random.default_rng(seed)
    mats = [random_band(n, kl, ku, dtype=dtype, seed=rng)
            for n, kl, ku in configs]
    return configs, mats


def _run_both(fn, configs, mats, per_block, **kw):
    """Run ``fn`` per block, then as the launcher picks, on fresh copies."""
    out = []
    for path in (per_block(), nullcontext()):
        ms = [np.asarray(a).copy() for a in mats]
        with path:
            piv, info = fn([c[0] for c in configs], [c[0] for c in configs],
                           [c[1] for c in configs], [c[2] for c in configs],
                           ms, **kw)
        out.append((ms, piv, info))
    return out


class TestGbtrfVbatchVectorized:
    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_ragged_buckets_bitwise(self, dtype, per_block):
        configs, mats = _ragged_problems(dtype)
        (m_ref, p_ref, i_ref), (m_vec, p_vec, i_vec) = _run_both(
            gbtrf_vbatch, configs, mats, per_block)
        for k in range(len(configs)):
            _bytes_equal((m_vec[k], m_ref[k]), (p_vec[k], p_ref[k]))
        _bytes_equal((i_vec, i_ref))

    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_fused_ragged_buckets_bitwise(self, dtype, per_block):
        configs, mats = _ragged_problems(dtype, seed=3)
        (m_ref, p_ref, i_ref), (m_vec, p_vec, i_vec) = _run_both(
            gbtrf_vbatch_fused, configs, mats, per_block)
        for k in range(len(configs)):
            _bytes_equal((m_vec[k], m_ref[k]), (p_vec[k], p_ref[k]))
        _bytes_equal((i_vec, i_ref))

    def test_singular_lane_inside_bucket(self, per_block):
        """A singular lane sharing a bucket with healthy lanes must report
        its own info without contaminating bucket-mates."""
        n, kl, ku = 18, 2, 2
        rng = np.random.default_rng(7)
        mats = [random_band(n, kl, ku, seed=rng) for _ in range(4)]
        sing = np.eye(n)
        sing[5, 5] = 0.0            # zero pivot, no fill-in to repair it
        mats[2] = dense_to_band(sing, kl, ku).astype(mats[0].dtype)
        configs = [(n, kl, ku)] * 4
        (m_ref, p_ref, i_ref), (m_vec, p_vec, i_vec) = _run_both(
            gbtrf_vbatch, configs, mats, per_block)
        assert i_ref[2] == 6 and i_vec[2] == 6
        assert all(i_vec[k] == 0 for k in (0, 1, 3))
        for k in range(4):
            _bytes_equal((m_vec[k], m_ref[k]), (p_vec[k], p_ref[k]))

    def test_fused_singleton_bucket_runs_scalar_body(self, per_block):
        """A bucket of one lane has nothing to interleave; the vectorized
        launch must still produce that lane's exact per-block bits."""
        configs = [(12, 1, 1), (20, 2, 3)]    # two singleton buckets
        rng = np.random.default_rng(11)
        mats = [random_band(n, kl, ku, seed=rng) for n, kl, ku in configs]
        (m_ref, p_ref, i_ref), (m_vec, p_vec, i_vec) = _run_both(
            gbtrf_vbatch_fused, configs, mats, per_block)
        for k in range(2):
            _bytes_equal((m_vec[k], m_ref[k]), (p_vec[k], p_ref[k]))
        _bytes_equal((i_vec, i_ref))


class TestGbsvVbatchVectorized:
    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_mixed_shapes_with_singular_lane_bitwise(self, dtype, per_block):
        configs = [(24, 2, 3), (24, 2, 3), (16, 1, 1), (24, 2, 3),
                   (16, 1, 1)]
        rng = np.random.default_rng(5)
        mats = [random_band(n, kl, ku, dtype=dtype, seed=rng)
                for n, kl, ku in configs]
        sing = np.eye(configs[1][0])
        sing[8, 8] = 0.0                    # singular inside the big bucket
        mats[1] = dense_to_band(sing, configs[1][1],
                                configs[1][2]).astype(dtype)
        rhs = [random_rhs(n, 1, dtype=dtype, seed=100 + k)
               for k, (n, _, _) in enumerate(configs)]
        outs = []
        for path in (per_block(), nullcontext()):
            ms = [a.copy() for a in mats]
            bs = [b.copy() for b in rhs]
            with path:
                piv, info = gbsv_vbatch(
                    [c[0] for c in configs], [c[1] for c in configs],
                    [c[2] for c in configs], [1] * len(configs), ms, bs)
            outs.append((ms, bs, piv, info))
        (m_ref, b_ref, p_ref, i_ref), (m_vec, b_vec, p_vec, i_vec) = outs
        assert i_ref[1] == 9 and i_vec[1] == 9
        # LAPACK: B of the singular problem stays untouched.
        _bytes_equal((b_vec[1], rhs[1]), (b_ref[1], rhs[1]))
        for k in range(len(configs)):
            _bytes_equal((m_vec[k], m_ref[k]), (b_vec[k], b_ref[k]),
                         (p_vec[k], p_ref[k]))
        _bytes_equal((i_vec, i_ref))


class TestPointerArrayDispatch:
    def test_noncontiguous_pointer_array_packs(self, per_block):
        """A lane-step stack (every other lane of a larger one) runs
        ``[vec]`` in place, with no pack traffic; separate allocations
        are gathered once at entry and launch ``[vec]`` too.  Both match
        the per-block bits."""
        n, kl, ku, batch = 20, 2, 2, 5
        rng = np.random.default_rng(13)
        blocks = [random_band(n, kl, ku, seed=rng) for _ in range(batch)]
        buf = np.zeros((2 * batch,) + blocks[0].shape)
        buf[::2] = blocks
        stepped = buf[::2]
        stream = Stream(H100_PCIE)
        piv, info = gbtrf_batch(n, n, kl, ku, stepped, method="window",
                                stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized and not rec.packed and rec.pack_bytes == 0
        assert rec.display_name == "gbtrf_window[vec]"
        scattered = PointerArray([b.copy() for b in blocks])
        stream = Stream(H100_PCIE)
        piv_s, info_s = gbtrf_batch(n, n, kl, ku, scattered, method="window",
                                    stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized and not rec.packed and rec.pack_bytes == 0
        assert rec.display_name == "gbtrf_window[vec]"
        ref = [b.copy() for b in blocks]
        with per_block():
            piv2, info2 = gbtrf_batch(n, n, kl, ku, ref, batch=batch,
                                      method="window")
        for k in range(batch):
            _bytes_equal((stepped[k], ref[k]), (piv[k], piv2[k]),
                         (np.asarray(scattered[k]), ref[k]),
                         (piv_s[k], piv2[k]))
        _bytes_equal((info, info2), (info_s, info2))

    def test_interleaved_views_take_soa_route(self, per_block):
        """Lane-interleaved views of one buffer have byte spans that
        interleave but no shared element: since the SoA layout became
        first-class (docs/LAYOUTS.md) auto dispatch runs them natively as
        ``[vec+soa]``, bit-identical to per-block execution."""
        n, kl, ku = 16, 1, 2
        ldab = 2 * kl + ku + 1
        rng = np.random.default_rng(17)
        buf = np.asfortranarray(rng.standard_normal((2 * ldab, n)))
        views = [buf[0::2, :], buf[1::2, :]]   # interleaved rows, one buffer
        ref = [v.copy() for v in views]
        with per_block():
            piv_ref, i_ref = gbtrf_batch(n, n, kl, ku, ref, batch=2,
                                         method="window")
        stream = Stream(H100_PCIE)
        piv, info = gbtrf_batch(n, n, kl, ku, views, batch=2,
                                method="window", stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized and rec.soa and not rec.packed
        assert rec.display_name == "gbtrf_window[vec+soa]"
        for k in range(2):
            _bytes_equal((views[k], ref[k]), (piv[k], piv_ref[k]))
        _bytes_equal((info, i_ref))


class TestVectorizeErrorPaths:
    def test_vbatch_aliased_lane_raises_on_true(self):
        """Aliased lanes in one bucket cannot be one stack: the bucket's
        call rejects them at A's position, before any launch."""
        n, kl, ku = 14, 1, 1
        a = random_band(n, kl, ku, seed=19)
        mats = [a, a]                        # same storage in one bucket
        stream = Stream(H100_PCIE)
        with pytest.raises(ArgumentError) as err:
            gbtrf_vbatch([n, n], [n, n], [kl, kl], [ku, ku], mats,
                         stream=stream)
        assert err.value.position == 5
        assert stream.records == []

    def test_vbatch_fused_aliased_lane_rejected(self, per_block):
        """Aliased lanes in one bucket cannot be gathered and scattered
        back: the single-kernel driver rejects them at A's position, as
        the grouped driver does, on every path and before any launch."""
        n, kl, ku = 14, 1, 1
        a = random_band(n, kl, ku, seed=23)
        got = a.copy()
        for path in (nullcontext(), per_block()):
            stream = Stream(H100_PCIE)
            with path, pytest.raises(ArgumentError) as err:
                gbtrf_vbatch_fused([n, n], [n, n], [kl, kl], [ku, ku],
                                   [got, got], stream=stream)
            assert err.value.position == 5
            assert stream.records == []
        _bytes_equal((got, a))

    def test_vbatch_aliased_auto_falls_back_bitwise(self, per_block):
        """Aliased lanes in one bucket cannot be one stack: the bucket's
        call rejects them at A's position, on every path, before writing
        anything."""
        n, kl, ku = 14, 1, 1
        a0 = random_band(n, kl, ku, seed=29)
        got = a0.copy()
        for path in (nullcontext(), per_block()):
            with path, pytest.raises(ArgumentError) as err:
                gbtrf_vbatch([n, n], [n, n], [kl, kl], [ku, ku], [got, got])
            assert err.value.position == 5
        _bytes_equal((got, a0))

    def test_mixed_shape_uniform_batch_rejected(self):
        """Same configuration, different ldab padding: the uniform driver
        takes one ldab, so it rejects them at ldab's position."""
        n, kl, ku = 12, 1, 1
        a = random_band(n, kl, ku, seed=37)
        b = random_band(n, kl, ku, seed=38, ldab=2 * kl + ku + 3)
        with pytest.raises(ArgumentError) as err:
            gbtrf_batch(n, n, kl, ku, [a, b], batch=2, method="window")
        assert err.value.position == 6

    def test_mixed_ldab_vbatch_buckets_separately(self, per_block):
        """The vbatch group key includes the storage shape, so mixed-ldab
        lanes of one configuration land in different buckets and still
        vectorize bit-identically."""
        n, kl, ku = 12, 1, 1
        rng = np.random.default_rng(41)
        mats = [random_band(n, kl, ku, seed=rng),
                random_band(n, kl, ku, seed=rng, ldab=2 * kl + ku + 3),
                random_band(n, kl, ku, seed=rng),
                random_band(n, kl, ku, seed=rng, ldab=2 * kl + ku + 3)]
        configs = [(n, kl, ku)] * 4
        (m_ref, p_ref, i_ref), (m_vec, p_vec, i_vec) = _run_both(
            gbtrf_vbatch, configs, mats, per_block)
        for k in range(4):
            _bytes_equal((m_vec[k], m_ref[k]), (p_vec[k], p_ref[k]))
        _bytes_equal((i_vec, i_ref))


class TestTraceAttribution:
    def test_vbatch_fused_vectorized_record(self):
        configs, mats = _ragged_problems(seed=43)
        stream = Stream(H100_PCIE)
        ms = [a.copy() for a in mats]
        gbtrf_vbatch_fused([c[0] for c in configs],
                           [c[0] for c in configs],
                           [c[1] for c in configs],
                           [c[2] for c in configs], ms,
                           stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized and rec.packed
        assert rec.display_name == "gbtrf_vbatch[vec+pack]"
        assert rec.pack_bytes == 2 * sum(a.nbytes for a in ms)

    def test_grouped_vbatch_vectorized_records(self, per_block):
        configs, mats = _ragged_problems(seed=47)
        stream = Stream(H100_PCIE)
        ms = [a.copy() for a in mats]
        gbtrf_vbatch([c[0] for c in configs], [c[0] for c in configs],
                     [c[1] for c in configs], [c[2] for c in configs],
                     ms, stream=stream)
        # One launch per distinct configuration: each group's scattered
        # matrix list is gathered once, where its call enters the layer
        # stack, so no launch packs.  The groups of 5 and 2 lanes run
        # [vec]; the 1-lane group has nothing to interleave and runs its
        # one block alone.
        assert len(stream.records) == 3
        assert all(r.pack_bytes == 0 for r in stream.records)
        assert [r.display_name.endswith("[vec]") for r in stream.records] \
            == [r.grid > 1 for r in stream.records] == [True, True, False]
        ref = [a.copy() for a in mats]
        with per_block():
            gbtrf_vbatch([c[0] for c in configs], [c[0] for c in configs],
                         [c[1] for c in configs], [c[2] for c in configs],
                         ref)
        _bytes_equal(*zip(ms, ref))
