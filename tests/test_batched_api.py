"""The paper-signature batched API (Section 4) and argument validation."""

import numpy as np
import pytest

from repro.band.convert import band_to_dense
from repro.band.generate import random_band, random_band_batch, random_rhs
from repro.core.batched import (
    dgbsv_batch,
    dgbtrf_batch,
    dgbtrs_batch,
    sgbtrf_batch,
    zgbsv_batch,
)
from repro.core.gbsv import gbsv_batch
from repro.core.gbtrf import gbtrf_batch
from repro.core.gbtrs import gbtrs_batch
from repro.errors import ArgumentError
from repro.gpusim import H100_PCIE, MI250X_GCD, PointerArray, Stream


@pytest.fixture
def stream():
    return Stream(H100_PCIE)


def _batch(n=16, kl=2, ku=3, batch=4, nrhs=1, dtype=np.float64, seed=0):
    a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=seed)
    b = random_rhs(n, nrhs, batch=batch, dtype=dtype, seed=seed + 1)
    return list(a), [x for x in b]


class TestPaperSignatures:
    def test_dgbtrf_batch(self, stream):
        n, kl, ku, batch = 16, 2, 3, 4
        mats, _ = _batch(n, kl, ku, batch)
        originals = [m.copy() for m in mats]
        pivots, info = dgbtrf_batch(n, n, kl, ku, mats, 2 * kl + ku + 1,
                                    None, None, batch, stream)
        assert (info == 0).all()
        assert len(pivots) == batch
        # Factors written in place through the pointer array.
        assert not any(np.array_equal(m, o)
                       for m, o in zip(mats, originals))

    def test_dgbtrs_batch(self, stream):
        n, kl, ku, batch, nrhs = 16, 2, 3, 4, 2
        mats, rhs = _batch(n, kl, ku, batch, nrhs)
        originals = [m.copy() for m in mats]
        b_orig = [b.copy() for b in rhs]
        pivots, info = dgbtrf_batch(n, n, kl, ku, mats, 8, None, None,
                                    batch, stream)
        info2 = dgbtrs_batch("N", n, kl, ku, nrhs, mats, 8, pivots, rhs,
                             n, None, batch, stream)
        assert (info2 == 0).all()
        for k in range(batch):
            dense = band_to_dense(originals[k], n, kl, ku)
            np.testing.assert_allclose(dense @ rhs[k], b_orig[k],
                                       atol=1e-11)

    def test_dgbsv_batch(self, stream):
        n, kl, ku, batch = 16, 2, 3, 4
        mats, rhs = _batch(n, kl, ku, batch)
        originals = [m.copy() for m in mats]
        b_orig = [b.copy() for b in rhs]
        pivots, info = dgbsv_batch(n, kl, ku, 1, mats, 8, None, rhs, n,
                                   None, batch, stream)
        assert (info == 0).all()
        for k in range(batch):
            dense = band_to_dense(originals[k], n, kl, ku)
            np.testing.assert_allclose(dense @ rhs[k], b_orig[k],
                                       atol=1e-11)

    def test_stream_mandatory(self):
        mats, rhs = _batch()
        with pytest.raises(ArgumentError, match="Stream"):
            dgbtrf_batch(16, 16, 2, 3, mats, 8, None, None, 4, None)

    def test_stream_selects_device(self):
        mats1, _ = _batch(seed=5)
        mats2, _ = _batch(seed=5)
        s1, s2 = Stream(H100_PCIE), Stream(MI250X_GCD)
        dgbtrf_batch(16, 16, 2, 3, mats1, 8, None, None, 4, s1)
        dgbtrf_batch(16, 16, 2, 3, mats2, 8, None, None, 4, s2)
        for m1, m2 in zip(mats1, mats2):
            np.testing.assert_allclose(m1, m2, atol=0)
        assert s1.elapsed != s2.elapsed     # different device models

    def test_lda_validated(self, stream):
        mats, _ = _batch()
        with pytest.raises(ArgumentError, match="lda"):
            dgbtrf_batch(16, 16, 2, 3, mats, 7, None, None, 4, stream)

    def test_ldb_validated(self, stream):
        mats, rhs = _batch()
        piv, _ = dgbtrf_batch(16, 16, 2, 3, mats, 8, None, None, 4, stream)
        with pytest.raises(ArgumentError, match="ldb"):
            dgbtrs_batch("N", 16, 2, 3, 1, mats, 8, piv, rhs, 15, None,
                         4, stream)

    def test_dtype_enforced(self, stream):
        mats, _ = _batch(dtype=np.float32)
        with pytest.raises(ArgumentError, match="dtype"):
            dgbtrf_batch(16, 16, 2, 3, mats, 8, None, None, 4, stream)
        # The s-variant accepts them.
        pivots, info = sgbtrf_batch(16, 16, 2, 3, mats, 8, None, None, 4,
                                    stream)
        assert (info == 0).all()

    def test_complex_variant(self, stream):
        n, kl, ku, batch = 12, 2, 1, 3
        mats, rhs = _batch(n, kl, ku, batch, dtype=np.complex128)
        originals = [m.copy() for m in mats]
        b_orig = [b.copy() for b in rhs]
        pivots, info = zgbsv_batch(n, kl, ku, 1, mats, 6, None, rhs, n,
                                   None, batch, stream)
        assert (info == 0).all()
        for k in range(batch):
            dense = band_to_dense(originals[k], n, kl, ku)
            np.testing.assert_allclose(dense @ rhs[k], b_orig[k],
                                       atol=1e-10)


class TestArgumentValidation:
    def test_negative_dims(self):
        a = random_band_batch(1, 8, 1, 1, seed=0)
        for args in [(-1, 8, 1, 1), (8, -1, 1, 1), (8, 8, -1, 1),
                     (8, 8, 1, -1)]:
            with pytest.raises(ArgumentError):
                gbtrf_batch(*args, a)

    def test_ldab_too_small(self):
        a = [np.zeros((5, 8))]       # needs 2*1+1+1 = 4 rows? no: kl=2 -> 8
        with pytest.raises(ArgumentError):
            gbtrf_batch(8, 8, 2, 3, a, batch=1)

    def test_wrong_n(self):
        a = [np.zeros((8, 9))]
        with pytest.raises(ArgumentError):
            gbtrf_batch(8, 8, 2, 3, a, batch=1)

    def test_batch_mismatch(self):
        a = random_band_batch(3, 8, 1, 1, seed=0)
        with pytest.raises(ArgumentError):
            gbtrf_batch(8, 8, 1, 1, a, batch=4)

    def test_pivot_stack_shape(self):
        a = random_band_batch(2, 8, 1, 1, seed=0)
        with pytest.raises(ArgumentError):
            gbtrf_batch(8, 8, 1, 1, a, pv_array=np.zeros((2, 7), dtype=int))

    def test_pivot_dtype(self):
        a = random_band_batch(2, 8, 1, 1, seed=0)
        with pytest.raises(ArgumentError):
            gbtrf_batch(8, 8, 1, 1, a, pv_array=np.zeros((2, 8)))

    def test_info_shape(self):
        a = random_band_batch(2, 8, 1, 1, seed=0)
        with pytest.raises(ArgumentError):
            gbtrf_batch(8, 8, 1, 1, a, info=np.zeros(3, dtype=int))

    def test_argument_positions_in_errors(self):
        try:
            gbtrf_batch(-1, 8, 1, 1, random_band_batch(1, 8, 1, 1, seed=0))
        except ArgumentError as e:
            assert e.position == 1
            assert e.info == -1

    @pytest.mark.parametrize("dims,position", [
        ((-1, 1, 1), 1), ((8, -1, 1), 2), ((8, 1, -1), 3)])
    def test_gbsv_dimension_positions(self, dims, position):
        """``gbsv_batch(n, kl, ku, ...)`` reports each dimension at its
        own position, not at ``gbtrf``'s."""
        n, kl, ku = dims
        with pytest.raises(ArgumentError) as err:
            gbsv_batch(n, kl, ku, 1, np.zeros((2, 4, 8)), None,
                       np.zeros((2, 8, 1)))
        assert err.value.position == position

    @pytest.mark.parametrize("dims,position", [
        ((-1, 1, 1), 2), ((8, -1, 1), 3), ((8, 1, -1), 4)])
    def test_gbtrs_dimension_positions(self, dims, position):
        """``gbtrs_batch(trans, n, kl, ku, ...)`` reports ``n`` at 2."""
        n, kl, ku = dims
        with pytest.raises(ArgumentError) as err:
            gbtrs_batch("N", n, kl, ku, 1, np.zeros((2, 4, 8)),
                        np.zeros((2, 8), dtype=np.int64),
                        np.zeros((2, 8, 1)))
        assert err.value.position == position


class TestPointerArrays:
    def test_scattered_matrices(self):
        """True pointer-array usage: each matrix in unrelated memory."""
        n, kl, ku = 12, 2, 3
        mats = [random_band(n, kl, ku, seed=s) for s in range(4)]
        originals = [m.copy() for m in mats]
        pa = PointerArray(mats)
        piv, info = gbtrf_batch(n, n, kl, ku, pa, batch=4)
        assert (info == 0).all()
        # Compare against strided-batch execution of the same data.
        stack = np.stack(originals)
        gbtrf_batch(n, n, kl, ku, stack)
        for k in range(4):
            np.testing.assert_allclose(mats[k], stack[k], atol=0)

    def test_outputs_into_user_pivot_arrays(self):
        n = 10
        a = random_band_batch(2, n, 1, 1, seed=1)
        user_piv = np.full((2, n), -1, dtype=np.int64)
        piv, info = gbtrf_batch(n, n, 1, 1, a, pv_array=user_piv)
        assert (user_piv >= 0).all()

    def test_user_info_array_reused(self):
        n = 10
        a = random_band_batch(2, n, 1, 1, seed=2)
        user_info = np.full(2, 99, dtype=np.int64)
        piv, info = gbtrf_batch(n, n, 1, 1, a, info=user_info)
        assert info is user_info
        assert (user_info == 0).all()
