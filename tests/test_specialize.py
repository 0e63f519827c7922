"""JIT-style band specialization (the paper's Section 8.1 extension)."""

import numpy as np
import pytest

from repro.band.generate import random_band_batch
from repro.bench.harness import shape_only_batch
from repro.core.gbtrf import gbtrf_batch
from repro.core.specialize import (
    clear_specialization_cache,
    create_specialization,
    destroy_specialization,
    specialization_cache_info,
)
from repro.errors import ArgumentError, DeviceError
from repro.gpusim import H100_PCIE, MI250X_GCD


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_specialization_cache()
    yield
    clear_specialization_cache()


class TestLifecycle:
    def test_create_compiles_once(self):
        s1 = create_specialization(H100_PCIE, 2, 3)
        s2 = create_specialization(H100_PCIE, 2, 3)
        assert s1 is s2
        live, compiles = specialization_cache_info()
        assert (live, compiles) == (1, 1)

    def test_distinct_keys_compile_separately(self):
        create_specialization(H100_PCIE, 2, 3)
        create_specialization(H100_PCIE, 3, 2)
        create_specialization(MI250X_GCD, 2, 3)
        create_specialization(H100_PCIE, 2, 3, dtype=np.float32)
        live, compiles = specialization_cache_info()
        assert (live, compiles) == (4, 4)

    def test_destroy_then_use_fails(self):
        spec = create_specialization(H100_PCIE, 2, 3)
        destroy_specialization(spec)
        a = random_band_batch(1, 16, 2, 3, seed=0)
        with pytest.raises(DeviceError):
            spec.gbtrf_batch(16, 16, a)

    def test_recreate_after_destroy_recompiles(self):
        spec = create_specialization(H100_PCIE, 2, 3)
        destroy_specialization(spec)
        spec2 = create_specialization(H100_PCIE, 2, 3)
        assert spec2 is not spec
        assert specialization_cache_info()[1] == 2

    def test_invalid_band_rejected(self):
        with pytest.raises(ArgumentError):
            create_specialization(H100_PCIE, -1, 3)


class TestNumericsAndPerformance:
    def test_identical_factors_to_generic_kernel(self):
        n, kl, ku = 96, 2, 3
        a = random_band_batch(3, n, kl, ku, seed=1)
        a_ref = a.copy()
        spec = create_specialization(H100_PCIE, kl, ku)
        piv, info = spec.gbtrf_batch(n, n, a)
        piv_ref, info_ref = gbtrf_batch(n, n, kl, ku, a_ref,
                                        method="window")
        np.testing.assert_allclose(a, a_ref, atol=0)
        for p, q in zip(piv, piv_ref):
            np.testing.assert_array_equal(p, q)

    def test_pointer_array_factors_in_place(self):
        """Scattered lanes become one stack for the kernel and the factors
        land back in the caller's lanes, with the stack path's bits."""
        n, kl, ku = 40, 2, 3
        a = random_band_batch(3, n, kl, ku, seed=4)
        lanes = [lane.copy() for lane in a]
        spec = create_specialization(H100_PCIE, kl, ku)
        piv_ref, info_ref = spec.gbtrf_batch(n, n, a)
        piv, info = spec.gbtrf_batch(n, n, lanes)
        assert np.stack(lanes).tobytes() == a.tobytes()
        assert np.stack(piv).tobytes() == np.stack(piv_ref).tobytes()
        assert info.tobytes() == info_ref.tobytes()

    def test_dtype_enforced(self):
        spec = create_specialization(H100_PCIE, 2, 3)
        a = random_band_batch(1, 16, 2, 3, dtype=np.float32, seed=2)
        with pytest.raises(ArgumentError, match="compiled for"):
            spec.gbtrf_batch(16, 16, a)

    def test_specialized_kernel_models_faster(self):
        """The JIT benefit shows up in the timing model (Section 8.1)."""
        from repro.gpusim import Stream
        n, kl, ku = 512, 10, 7
        spec = create_specialization(H100_PCIE, kl, ku)
        s_jit = Stream(H100_PCIE)
        spec.gbtrf_batch(n, n, shape_only_batch(n, kl, ku, 1000),
                         batch=1000, stream=s_jit, execute=False)
        s_gen = Stream(H100_PCIE)
        gbtrf_batch(n, n, kl, ku, shape_only_batch(n, kl, ku, 1000),
                    batch=1000, stream=s_gen, method="window",
                    execute=False)
        assert s_jit.elapsed < s_gen.elapsed

    def test_tuning_params_fixed_at_compile_time(self):
        from repro.tuning import window_params
        spec = create_specialization(MI250X_GCD, 10, 7)
        assert (spec.nb, spec.threads) == window_params(MI250X_GCD, 10, 7)
