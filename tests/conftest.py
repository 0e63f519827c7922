"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.band.convert import band_to_dense
from repro.band.generate import random_band, random_rhs


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _fresh_memory_pools():
    """Each test sees fresh device memory pools (no cross-test residency).

    Pools are keyed per device and pick up ``REPRO_GLOBAL_MEM_BYTES`` at
    creation; resetting both before and after keeps tests order-independent
    even when one monkeypatches the environment.
    """
    from repro.gpusim.memory import reset_memory_pools
    reset_memory_pools()
    yield
    reset_memory_pools()


@pytest.fixture(autouse=True)
def _fresh_device_health():
    """Each test sees empty per-device health trackers."""
    from repro.gpusim.device import reset_device_health
    reset_device_health()
    yield
    reset_device_health()


@pytest.fixture(autouse=True)
def _no_leaked_arena_leases():
    """Every call returns its host-arena leases, on success and on error:
    no test may end with bytes still leased."""
    from repro.core.arena import HOST_ARENA
    yield
    assert HOST_ARENA.leased == 0, (
        f"{HOST_ARENA.leased} arena bytes still leased after the test")


@pytest.fixture(autouse=True)
def _pipeline_round_accounting(monkeypatch):
    """Every pipelined call, healthy or failed over, accounts one modeled
    makespan per dispatch round, and its makespan is their sum."""
    from repro.core import pipeline
    execute = pipeline.execute_pipelined

    def checked(*args, **kwargs):
        out = execute(*args, **kwargs)
        result = out[-1]
        assert len(result.round_makespans) == result.rounds, result
        assert result.makespan == sum(result.round_makespans), result
        return out

    monkeypatch.setattr(pipeline, "execute_pipelined", checked)


@pytest.fixture
def per_block(monkeypatch):
    """``with per_block():`` runs every launch inside on the per-block
    reference path (what ``launch(vectorize=False)`` does): the
    launcher finds no batch-interleaved rung for any kernel."""
    from repro.gpusim import kernel

    @contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_vector_rung", lambda k: None)
            yield

    return forced


def scipy_gbtrf(ab: np.ndarray, kl: int, ku: int, m: int, n: int):
    """Ground-truth LAPACK factorization via scipy (0-based pivots)."""
    from scipy.linalg import lapack
    lu, ipiv, info = lapack.dgbtrf(np.asfortranarray(ab), kl, ku, m=m, n=n)
    return lu, np.asarray(ipiv, dtype=np.int64), int(info)


def scipy_gbtrs(lu: np.ndarray, kl: int, ku: int, b: np.ndarray,
                ipiv: np.ndarray, trans: int = 0):
    """Ground-truth LAPACK solve via scipy (expects 0-based pivots)."""
    from scipy.linalg import lapack
    x, info = lapack.dgbtrs(np.asfortranarray(lu), kl, ku,
                            np.asfortranarray(b),
                            np.asarray(ipiv, dtype=np.int32), trans=trans)
    return x, int(info)


def dense_of(ab: np.ndarray, kl: int, ku: int, m: int | None = None):
    """Dense matrix of a factor-layout band array (original band only)."""
    m = ab.shape[1] if m is None else m
    return band_to_dense(ab, m, kl, ku)


def make_system(n, kl, ku, nrhs=1, seed=0, dtype=np.float64):
    """A random band system (factor layout) plus RHS."""
    ab = random_band(n, kl, ku, dtype=dtype, seed=seed)
    b = random_rhs(n, nrhs, dtype=dtype, seed=seed + 1)
    return ab, b


# A representative grid of band configurations, including the paper's two
# headline bands, degenerate bands, and bands wider than the matrix.
BAND_CONFIGS = [
    (1, 0, 0),
    (5, 0, 2),
    (5, 2, 0),
    (9, 2, 3),
    (12, 10, 7),
    (20, 4, 4),
    (33, 1, 1),
    (17, 5, 2),
    (10, 15, 12),     # band wider than the matrix
    (64, 32, 32),
]
