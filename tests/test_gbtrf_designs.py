"""The three GBTRF kernel designs must agree bit-for-bit with GBTF2.

Covers the fused (Section 5.2), sliding-window (Section 5.3), and reference
fork-join (Section 5.1) designs, across band shapes, window blockings,
thread counts, devices, and rectangular matrices.
"""

import numpy as np
import pytest

from repro.band.generate import random_band, random_band_batch
from repro.core.gbtf2 import gbtf2
from repro.core.gbtrf import gbtrf_batch, select_gbtrf_method
from repro.core.gbtrf_fused import FusedGbtrfKernel, default_fused_threads
from repro.core.gbtrf_window import SlidingWindowGbtrfKernel, window_factor_steps
from repro.errors import SharedMemoryError
from repro.gpusim import H100_PCIE, MI250X_GCD, Stream, launch

from conftest import BAND_CONFIGS


def _truth(m, n, kl, ku, mats):
    outs, pivs, infos = [], [], []
    for a in mats:
        ab = a.copy()
        piv, info = gbtf2(m, n, kl, ku, ab)
        outs.append(ab)
        pivs.append(piv)
        infos.append(info)
    return outs, pivs, infos


@pytest.mark.parametrize("method", ["fused", "window", "reference"])
@pytest.mark.parametrize("n,kl,ku", BAND_CONFIGS)
def test_design_matches_gbtf2(method, n, kl, ku):
    batch = 3
    a = random_band_batch(batch, n, kl, ku, seed=n + kl * 100)
    refs, pivs, infos = _truth(n, n, kl, ku, a)
    piv, info = gbtrf_batch(n, n, kl, ku, a, method=method)
    for k in range(batch):
        np.testing.assert_allclose(a[k], refs[k], atol=0, rtol=0)
        np.testing.assert_array_equal(piv[k], pivs[k])
        assert info[k] == infos[k]


@pytest.mark.parametrize("method", ["fused", "window", "reference"])
def test_zero_pivot_skips_the_update(method):
    """A zero pivot skips its column's rank-one update (LAPACK): with an
    infinite entry in that row of ``U``, running the update anyway would
    write ``0 * inf = NaN`` below it."""
    n, kl, ku = 12, 1, 3
    kv = kl + ku
    a = random_band_batch(3, n, kl, ku, seed=19)
    a[1, kv - 2:kv + kl + 1, 2] = 0.0      # dense column 2 of lane 1
    a[1, kv - 1, 3] = np.inf                # U(2, 3)
    refs, pivs, infos = _truth(n, n, kl, ku, a)
    assert infos[1] == 3
    piv, info = gbtrf_batch(n, n, kl, ku, a, method=method)
    assert np.stack(refs).tobytes() == a.tobytes()
    np.testing.assert_array_equal(piv, np.stack(pivs))
    np.testing.assert_array_equal(info, infos)


@pytest.mark.parametrize("method", ["fused", "window", "reference"])
def test_reversed_lane_stack(method):
    """A stack viewed with its lanes reversed (a negative lane stride)
    factors in place, lane by lane as ``gbtf2`` does."""
    n, kl, ku = 20, 2, 3
    a = random_band_batch(4, n, kl, ku, seed=17)
    a[1] = 0.0
    refs, pivs, infos = _truth(n, n, kl, ku, a[::-1])
    rev = a[::-1]
    piv, info = gbtrf_batch(n, n, kl, ku, rev, method=method)
    assert np.stack(refs).tobytes() == rev.tobytes()
    np.testing.assert_array_equal(piv, np.stack(pivs))
    np.testing.assert_array_equal(info, infos)


@pytest.mark.parametrize("device", [H100_PCIE, MI250X_GCD])
@pytest.mark.parametrize("method", ["fused", "window"])
def test_designs_device_independent(device, method):
    n, kl, ku = 40, 2, 3
    a = random_band_batch(2, n, kl, ku, seed=11)
    refs, pivs, infos = _truth(n, n, kl, ku, a)
    piv, info = gbtrf_batch(n, n, kl, ku, a, device=device, method=method)
    for k in range(2):
        np.testing.assert_allclose(a[k], refs[k], atol=0)
        np.testing.assert_array_equal(piv[k], pivs[k])


class TestSlidingWindow:
    @pytest.mark.parametrize("nb", [1, 2, 3, 5, 8, 16, 64])
    def test_any_blocking_size(self, nb):
        n, kl, ku = 37, 2, 3
        a = random_band_batch(2, n, kl, ku, seed=nb)
        refs, pivs, _ = _truth(n, n, kl, ku, a)
        piv, info = gbtrf_batch(n, n, kl, ku, a, method="window", nb=nb)
        for k in range(2):
            np.testing.assert_allclose(a[k], refs[k], atol=0)
            np.testing.assert_array_equal(piv[k], pivs[k])

    @pytest.mark.parametrize("threads", [3, 7, 32, 128])
    def test_any_thread_count(self, threads):
        n, kl, ku = 24, 2, 3
        a = random_band_batch(2, n, kl, ku, seed=threads)
        refs, _, _ = _truth(n, n, kl, ku, a)
        gbtrf_batch(n, n, kl, ku, a, method="window", threads=threads)
        np.testing.assert_allclose(a[0], refs[0], atol=0)

    def test_threads_below_minimum_rejected(self):
        a = random_band_batch(1, 16, 4, 2, seed=0)
        with pytest.raises(ValueError, match="kl\\+1"):
            gbtrf_batch(16, 16, 4, 2, a, method="window", threads=3)

    def test_bad_nb_rejected(self):
        a = random_band_batch(1, 16, 2, 2, seed=0)
        with pytest.raises(ValueError, match="nb"):
            gbtrf_batch(16, 16, 2, 2, a, method="window", nb=0)

    @pytest.mark.parametrize("m,n", [(20, 30), (30, 20), (5, 40)])
    def test_rectangular(self, m, n):
        kl, ku = 3, 2
        a = [random_band(n, kl, ku, m=m, seed=m * n)]
        refs, pivs, _ = _truth(m, n, kl, ku, a)
        gbtrf_batch(m, n, kl, ku, a, method="window", batch=1, nb=4)
        np.testing.assert_allclose(a[0], refs[0], atol=0)

    def test_window_smem_constant_in_n(self):
        mk = lambda n: SlidingWindowGbtrfKernel(
            n, n, 2, 3, [random_band(n, 2, 3, seed=0)],
            [np.zeros(n, dtype=np.int64)], np.zeros(1, dtype=np.int64),
            nb=16, threads=8)
        assert mk(64).smem_bytes() == mk(2048).smem_bytes()

    def test_step_count(self):
        assert window_factor_steps(100, 16) == 7
        assert window_factor_steps(96, 16) == 6
        assert window_factor_steps(0, 16) == 0

    def test_garbage_beyond_band_untouched(self):
        """Extra ldab rows below the factor layout are never referenced."""
        n, kl, ku = 20, 2, 3
        a = random_band(n, kl, ku, ldab=12, seed=3)
        a[8:, :] = 123.0                   # padding rows
        ref = a.copy()
        gbtf2(n, n, kl, ku, ref)
        got = [a.copy()]
        gbtrf_batch(n, n, kl, ku, got, method="window", batch=1)
        np.testing.assert_allclose(got[0][:8], ref[:8], atol=0)
        assert (got[0][8:] == 123.0).all()


class TestFused:
    def test_smem_grows_with_n(self):
        mk = lambda n: FusedGbtrfKernel(
            n, n, 2, 3, [random_band(n, 2, 3, seed=0)],
            [np.zeros(n, dtype=np.int64)], np.zeros(1, dtype=np.int64))
        assert mk(128).smem_bytes() == 2 * mk(64).smem_bytes()

    def test_fails_to_launch_beyond_lds(self):
        """Paper Fig. 3: the fused kernel fails for large matrices on AMD."""
        n, kl, ku = 1024, 2, 3
        a = random_band_batch(1, n, kl, ku, seed=0)
        with pytest.raises(SharedMemoryError):
            gbtrf_batch(n, n, kl, ku, a, device=MI250X_GCD, method="fused")

    def test_default_threads_respects_minimum(self):
        for kl, ku in [(0, 0), (2, 3), (10, 7), (32, 32)]:
            assert default_fused_threads(kl, ku) >= kl + 1


class TestDispatcher:
    def test_small_sizes_use_fused(self):
        assert select_gbtrf_method(H100_PCIE, 32, 32, 2, 3) == "fused"
        assert select_gbtrf_method(H100_PCIE, 64, 64, 2, 3) == "fused"

    def test_large_sizes_use_window(self):
        assert select_gbtrf_method(H100_PCIE, 65, 65, 2, 3) == "window"
        assert select_gbtrf_method(MI250X_GCD, 1024, 1024, 10, 7) == "window"

    def test_reference_as_safeguard(self):
        """A window too wide for LDS falls back to the reference path."""
        # kl = ku = 60: window rows = 181, cols >= 122 -> ~176 KB > 64 KB.
        assert select_gbtrf_method(MI250X_GCD, 256, 256, 60, 60) == \
            "reference"

    def test_auto_runs_and_matches(self):
        n, kl, ku = 64, 2, 3          # right at the fused cutoff
        a = random_band_batch(2, n, kl, ku, seed=13)
        refs, pivs, _ = _truth(n, n, kl, ku, a)
        piv, info = gbtrf_batch(n, n, kl, ku, a, method="auto")
        np.testing.assert_allclose(a[0], refs[0], atol=0)

    def test_stream_records_the_launch(self):
        stream = Stream(H100_PCIE)
        a = random_band_batch(2, 32, 2, 3, seed=14)
        gbtrf_batch(32, 32, 2, 3, a, stream=stream)
        assert stream.launch_count() == 1
        assert stream.elapsed > 0

    def test_reference_launch_count(self):
        """Two kernel launches per column (Section 5.1's fork-join cost)."""
        stream = Stream(H100_PCIE)
        n = 16
        a = random_band_batch(2, n, 2, 3, seed=15)
        gbtrf_batch(n, n, 2, 3, a, stream=stream, method="reference")
        # One init kernel + a (pivot, update) pair per column.
        assert stream.launch_count() == 1 + 2 * n
