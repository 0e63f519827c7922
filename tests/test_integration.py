"""End-to-end integration tests across packages.

Exercises realistic pipelines: application workload generation -> batched
band solves on both simulated devices -> accuracy checks against dense
linear algebra -> launch traces, plus a size sweep that crosses every
dispatcher boundary.
"""

import numpy as np
import pytest

from repro import (
    H100_PCIE,
    MI250X_GCD,
    Stream,
    band_to_dense,
    gbsv_batch,
    gbtrf_batch,
    gbtrs_batch,
    random_band_batch,
    random_rhs,
    solve_residual,
)
from repro.apps import chain_mechanism, integrate_batch, pele_batch, sinusoidal_states, xgc_batch
from repro.gpusim import summarize

from conftest import scipy_gbtrf, scipy_gbtrs


class TestDispatcherSweep:
    """Sizes crossing every dispatch boundary must agree with LAPACK."""

    @pytest.mark.parametrize("n", [4, 16, 63, 64, 65, 96, 130])
    @pytest.mark.parametrize("kl,ku", [(2, 3), (10, 7)])
    def test_auto_matches_lapack(self, n, kl, ku):
        batch = 2
        a = random_band_batch(batch, n, kl, ku, seed=n * 13 + kl)
        b = random_rhs(n, 1, batch=batch, seed=n * 13 + kl + 1)
        refs = []
        for k in range(batch):
            lu, piv, info = scipy_gbtrf(a[k].copy(), kl, ku, n, n)
            x, _ = scipy_gbtrs(lu, kl, ku, b[k].copy(), piv)
            refs.append(x)
        x = b.copy()
        piv, info = gbsv_batch(n, kl, ku, 1, a, None, x)
        assert (info == 0).all()
        for k in range(batch):
            np.testing.assert_allclose(x[k], refs[k], atol=1e-10,
                                       rtol=1e-8)


class TestPelePipeline:
    def test_full_pipeline_both_devices(self):
        pb = pele_batch(16, n_species=54, coupling=3, h=1e-3, seed=0)
        for device in (H100_PCIE, MI250X_GCD):
            a, x = pb.a_band.copy(), pb.b.copy()
            stream = Stream(device)
            piv, info = gbsv_batch(pb.n, pb.kl, pb.ku, 1, a, None, x,
                                   device=device, stream=stream)
            assert (info == 0).all()
            worst = max(
                solve_residual(pb.a_band[k], x[k], pb.b[k], pb.kl, pb.ku)
                for k in range(pb.batch))
            assert worst < 1e-12
            assert stream.elapsed > 0


class TestXgcPipeline:
    def test_factor_once_solve_many(self):
        """The WDMApp multi-species call pattern: 1 factor + S solves."""
        xb = xgc_batch(batch=8, n_elements=32, seed=1)  # n=97 > fused cutoff
        a = xb.a_band.copy()
        stream = Stream(H100_PCIE)
        piv, info = gbtrf_batch(xb.n, xb.n, xb.kl, xb.ku, a,
                                device=H100_PCIE, stream=stream)
        assert (info == 0).all()
        rng = np.random.default_rng(2)
        dense0 = band_to_dense(xb.a_band[0], xb.n, xb.kl, xb.ku)
        for _ in range(3):
            b = rng.standard_normal((xb.batch, xb.n, 1))
            x = b.copy()
            gbtrs_batch("N", xb.n, xb.kl, xb.ku, 1, a, piv, x,
                        device=H100_PCIE, stream=stream)
            np.testing.assert_allclose(dense0 @ x[0], b[0], atol=1e-10)
        # 1 factor launch + 3 x (fwd + bwd) solve launches.
        assert stream.launch_count() == 1 + 3 * 2
        # Uniform contiguous stacks take the batch-interleaved path; the
        # window factorization converts its lane-major batch at the
        # boundary and runs interleaved.
        names = {s.name for s in summarize([stream])}
        assert names == {"gbtrf_window[vec+soa]", "gbtrs_fwd_blocked[vec]",
                         "gbtrs_bwd_blocked[vec]"}


class TestReactEvalPipeline:
    def test_integration_drives_batched_solver(self):
        mech = chain_mechanism(10, coupling=2, rate_spread=3.0, seed=3)
        y0 = sinusoidal_states(6, 10)
        stream = Stream(H100_PCIE)
        res = integrate_batch(mech, y0, 5e-3, dt=1e-3, device=H100_PCIE,
                              stream=stream)
        assert res.stats.converged
        assert res.stats.solver_calls > 0
        # Small systems (n=10) go through the fused GBSV kernel, on the
        # batch-interleaved path (uniform contiguous batch).
        names = {s.name for s in summarize([stream])}
        assert names == {"gbsv_fused[vec]"}

    def test_integration_matches_dense_reference(self):
        """The banded Newton path reproduces a dense-solver integrator."""
        mech = chain_mechanism(8, coupling=2, rate_spread=2.0, seed=4)
        from repro.apps.chemistry import jacobian, rate
        y0 = sinusoidal_states(2, 8)
        t_end, dt = 3e-3, 1e-3

        # Dense reference backward Euler.
        y_ref = y0.copy()
        for _ in range(3):
            y_new = y_ref.copy()
            for _ in range(10):
                r = np.stack([y_new[k] - y_ref[k] - dt * rate(mech, y_new[k])
                              for k in range(2)])
                if np.abs(r).max() <= 1e-10:
                    break
                for k in range(2):
                    jn = np.eye(8) - dt * jacobian(mech, y_new[k])
                    y_new[k] += np.linalg.solve(jn, -r[k])
            y_ref = y_new

        res = integrate_batch(mech, y0, t_end, dt=dt)
        np.testing.assert_allclose(res.y, y_ref, atol=1e-9)


class TestMixedPrecisionPipeline:
    def test_float32_solves_with_relaxed_accuracy(self):
        n, kl, ku = 32, 2, 3
        a64 = random_band_batch(4, n, kl, ku, seed=5)
        a32 = a64.astype(np.float32)
        b64 = random_rhs(n, 1, batch=4, seed=6)
        b32 = b64.astype(np.float32)
        x64, x32 = b64.copy(), b32.copy()
        gbsv_batch(n, kl, ku, 1, a64.copy(), None, x64)
        piv, info = gbsv_batch(n, kl, ku, 1, a32.copy(), None, x32)
        assert (info == 0).all()
        assert x32.dtype == np.float32
        np.testing.assert_allclose(x32, x64, atol=1e-2, rtol=1e-2)
