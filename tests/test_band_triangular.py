"""Triangular band solves/products (TBSV/TBMV/TBTRS) and RHS tiling."""

import numpy as np
import pytest

from repro.band.triangular import tbmv, tbsv, tbtrs_batch
from repro.errors import ArgumentError


def _tri_band(uplo, n, k, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((k + 1, n))
    if np.dtype(dtype).kind == "c":
        ab = ab + 1j * rng.standard_normal((k + 1, n))
    ab = ab.astype(dtype)
    drow = k if uplo == "U" else 0
    ab[drow] += 3.0
    return ab


def _dense_of(uplo, n, k, ab, diag="N"):
    a = np.zeros((n, n), dtype=ab.dtype)
    for j in range(n):
        if uplo == "U":
            lo = max(0, j - k)
            a[lo:j + 1, j] = ab[k + lo - j:k + 1, j]
        else:
            hi = min(n, j + k + 1)
            a[j:hi, j] = ab[0:hi - j, j]
        if diag == "U":
            a[j, j] = 1.0
    return a


class TestTbsv:
    @pytest.mark.parametrize("uplo", ["U", "L"])
    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("diag", ["N", "U"])
    @pytest.mark.parametrize("k", [0, 1, 3, 11])
    def test_matches_dense(self, uplo, trans, diag, k):
        n = 12
        ab = _tri_band(uplo, n, k, seed=k + 1)
        t = _dense_of(uplo, n, k, ab, diag)
        b = np.random.default_rng(k).standard_normal(n)
        x = b.copy()
        tbsv(uplo, trans, diag, n, k, ab, x)
        op = t if trans == "N" else t.T
        np.testing.assert_allclose(op @ x, b, atol=1e-10)

    @pytest.mark.parametrize("uplo", ["U", "L"])
    def test_scipy_blas_equivalence(self, uplo):
        from scipy.linalg import blas
        n, k = 15, 2
        ab = _tri_band(uplo, n, k, seed=9)
        b = np.random.default_rng(10).standard_normal(n)
        x = b.copy()
        tbsv(uplo, "N", "N", n, k, ab, x)
        ref = blas.dtbsv(k, ab, b, lower=(uplo == "L"))
        np.testing.assert_allclose(x, ref, atol=1e-13)

    def test_conj_trans_complex(self):
        n, k = 10, 2
        ab = _tri_band("L", n, k, dtype=np.complex128, seed=11)
        t = _dense_of("L", n, k, ab)
        b = (np.random.default_rng(12).standard_normal(n)
             + 1j * np.random.default_rng(13).standard_normal(n))
        x = b.copy()
        tbsv("L", "C", "N", n, k, ab, x)
        np.testing.assert_allclose(t.conj().T @ x, b, atol=1e-10)

    def test_multiple_rhs(self):
        n, k = 9, 2
        ab = _tri_band("U", n, k, seed=14)
        t = _dense_of("U", n, k, ab)
        b = np.random.default_rng(15).standard_normal((n, 3))
        x = b.copy()
        tbsv("U", "N", "N", n, k, ab, x)
        np.testing.assert_allclose(t @ x, b, atol=1e-10)

    def test_validation(self):
        ab = np.ones((3, 5))
        with pytest.raises(ArgumentError):
            tbsv("X", "N", "N", 5, 2, ab, np.ones(5))
        with pytest.raises(ArgumentError):
            tbsv("U", "N", "N", 5, 4, ab, np.ones(5))
        with pytest.raises(ArgumentError):
            tbsv("U", "N", "N", 5, 2, ab, np.ones(4))


class TestTbmv:
    @pytest.mark.parametrize("uplo", ["U", "L"])
    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("diag", ["N", "U"])
    def test_matches_dense_product(self, uplo, trans, diag):
        n, k = 11, 3
        ab = _tri_band(uplo, n, k, seed=16)
        t = _dense_of(uplo, n, k, ab, diag)
        x0 = np.random.default_rng(17).standard_normal(n)
        x = x0.copy()
        tbmv(uplo, trans, diag, n, k, ab, x)
        op = t if trans == "N" else t.T
        np.testing.assert_allclose(x, op @ x0, atol=1e-12)

    def test_roundtrip_with_tbsv(self):
        n, k = 13, 2
        ab = _tri_band("L", n, k, seed=18)
        x0 = np.random.default_rng(19).standard_normal(n)
        x = x0.copy()
        tbsv("L", "N", "N", n, k, ab, x)
        tbmv("L", "N", "N", n, k, ab, x)
        np.testing.assert_allclose(x, x0, atol=1e-10)


class TestTbtrsBatch:
    def test_mixed_singular_batch(self):
        n, k = 8, 2
        ok = _tri_band("L", n, k, seed=20)
        bad = ok.copy()
        bad[0, 3] = 0.0
        rng = np.random.default_rng(21)
        b = [rng.standard_normal((n, 2)) for _ in range(2)]
        b_orig = [x.copy() for x in b]
        info = tbtrs_batch("L", "N", "N", n, k, [ok, bad], b)
        assert info[0] == 0 and info[1] == 4
        t = _dense_of("L", n, k, ok)
        np.testing.assert_allclose(t @ b[0], b_orig[0], atol=1e-10)
        np.testing.assert_array_equal(b[1], b_orig[1])

    def test_unit_diag_ignores_zero_diagonal(self):
        n, k = 6, 1
        ab = _tri_band("L", n, k, seed=22)
        ab[0, 2] = 0.0
        b = [np.random.default_rng(23).standard_normal((n, 1))]
        info = tbtrs_batch("L", "N", "U", n, k, [ab], b)
        assert info[0] == 0
        assert np.isfinite(b[0]).all()

