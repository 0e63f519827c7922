"""Band-structure specialization — the paper's JIT extension (paper Section 8.1).

The paper observes that caching the matrix in the *register file* would need
``(kl, ku)`` known at compile time, and that pre-compiling every pair is
impractical (``KL x KU`` kernel instances); it proposes runtime compilation
(``nvrtc`` / ``hiprtc``) of a kernel specialised to one band structure,
created and destroyed explicitly by the user.

We reproduce that workflow: a :class:`BandSpecialization` is the analogue of
a JIT-compiled kernel instance — created for one ``(device, kl, ku, dtype)``,
cached so repeated creation is free, and explicitly destroyable.  The
specialised kernel fixes the tuning parameters at "compile" time and models
the register-file benefit as a 15% reduction of the shared-memory traffic
and barrier count (the U-row and multiplier reuse that static indexing
enables); functional results are identical to the generic kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeviceError, check_arg
from ..gpusim.costmodel import BlockCost
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import launch
from ..tuning.defaults import window_params
from .batch_args import (as_matrix_list, check_gb_args, ensure_info,
                         ensure_pivots, lane_stack)
from .gbtrf_window import SlidingWindowGbtrfKernel

__all__ = ["BandSpecialization", "create_specialization",
           "destroy_specialization", "specialization_cache_info",
           "clear_specialization_cache"]

# Modeled benefit of compile-time (kl, ku): static register indexing of the
# U row and multipliers removes a slice of shared-memory round trips.
_SPECIALIZED_SMEM_FACTOR = 0.85
_SPECIALIZED_SYNC_FACTOR = 0.85


class _SpecializedWindowKernel(SlidingWindowGbtrfKernel):
    """Sliding-window kernel "compiled" for a fixed band structure."""

    name = "gbtrf_window_jit"

    def block_cost(self) -> BlockCost:
        base = super().block_cost()
        return BlockCost(
            flops=base.flops,
            smem_traffic=base.smem_traffic * _SPECIALIZED_SMEM_FACTOR,
            dram_traffic=base.dram_traffic,
            syncs=base.syncs * _SPECIALIZED_SYNC_FACTOR,
            threads=base.threads,
        )


@dataclass
class BandSpecialization:
    """A live JIT-compiled kernel instance for one band structure."""

    device: DeviceSpec
    kl: int
    ku: int
    dtype: np.dtype
    nb: int
    threads: int
    alive: bool = True

    def gbtrf_batch(self, m: int, n: int, a_array, pv_array=None,
                    info=None, *, batch: int | None = None, stream=None,
                    execute: bool = True):
        """Factorize a batch with the specialised kernel.

        Same contract as :func:`repro.core.gbtrf.gbtrf_batch`, with the
        band structure and tuning fixed at creation.
        """
        if not self.alive:
            raise DeviceError("specialization has been destroyed")
        if batch is None:
            batch = len(a_array)
        mats = as_matrix_list(a_array, batch, arg_pos=3, written=True)
        for k, a in enumerate(mats):
            check_arg(a.dtype == self.dtype, 3,
                      f"matrix {k} has dtype {a.dtype}, specialization was "
                      f"compiled for {self.dtype}")
        check_gb_args(m, n, self.kl, self.ku, mats, batch=batch)
        pivots = ensure_pivots(pv_array, batch, min(m, n), arg_pos=4,
                               zero=True)
        info = ensure_info(info, batch, arg_pos=5)
        if batch == 0 or min(m, n) == 0:
            return pivots, info
        with lane_stack(mats, write_back=execute) as stack, \
                lane_stack(pivots, write_back=execute) as pivs:
            kernel = _SpecializedWindowKernel(
                m, n, self.kl, self.ku, stack, pivs, info,
                nb=self.nb, threads=self.threads)
            launch(self.device, kernel, stream=stream, execute=execute)
        return pivots, info


_CACHE: dict[tuple, BandSpecialization] = {}
_COMPILE_COUNT = 0


def create_specialization(device: DeviceSpec, kl: int, ku: int,
                          dtype=np.float64) -> BandSpecialization:
    """Create (or fetch from cache) a kernel specialised to ``(kl, ku)``.

    Mirrors the nvrtc/hiprtc workflow: first creation "compiles" (derives
    the tuning configuration); subsequent creations for the same key are
    cache hits.
    """
    check_arg(kl >= 0, 2, f"kl must be non-negative, got {kl}")
    check_arg(ku >= 0, 3, f"ku must be non-negative, got {ku}")
    key = (device.name, kl, ku, np.dtype(dtype).name)
    spec = _CACHE.get(key)
    if spec is not None and spec.alive:
        return spec
    global _COMPILE_COUNT
    _COMPILE_COUNT += 1
    nb, threads = window_params(device, kl, ku)
    spec = BandSpecialization(device=device, kl=kl, ku=ku,
                              dtype=np.dtype(dtype), nb=nb, threads=threads)
    _CACHE[key] = spec
    return spec


def destroy_specialization(spec: BandSpecialization) -> None:
    """Destroy a specialization (the user-managed lifetime of paper Section 8.1)."""
    spec.alive = False
    key = (spec.device.name, spec.kl, spec.ku, spec.dtype.name)
    _CACHE.pop(key, None)


def specialization_cache_info() -> tuple[int, int]:
    """Returns ``(live_entries, total_compiles)`` for tests/telemetry."""
    return len(_CACHE), _COMPILE_COUNT


def clear_specialization_cache() -> None:
    """Drop every cached specialization and reset the compile counter."""
    global _COMPILE_COUNT
    _CACHE.clear()
    _COMPILE_COUNT = 0
