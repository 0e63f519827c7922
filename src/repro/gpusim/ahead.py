"""Lanes the host computes ahead of the launches that account for them.

On a GPU, four chunks of 125 lanes cost about what one chunk of 500 does.
On the host, a kernel body pays its per-column-step cost once per launch,
whatever the grid, so a chunked shard would pay it once per chunk.  The
pipeline (:func:`repro.core.pipeline._run_shard`) therefore runs a chunked
shard's design over all of its lanes in one host pass, with
:func:`compute` as the drivers' launcher (:func:`computing`), and lets
each chunk's first dispatch only account for them (:func:`accounting`):
the launcher derives the rung and builds the launch record exactly as if
the bodies ran, and skips the bodies.  The modeled timeline stays per
chunk; the host skips only work the model charges.

This module alone knows which lanes are already computed.
:func:`accounting_mode` is read in one place,
:func:`repro.gpusim.kernel.launch`; a rewind
(:meth:`repro.core.stack.OpSpec.restore`) ends accounting (:func:`end`),
so anything that re-runs rewound lanes computes them.  Drivers never
branch on it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..errors import SharedMemoryError

__all__ = ["launcher", "computing", "compute", "accounting",
           "accounting_mode", "end"]

_STATE = threading.local()


def launcher():
    """The launcher the drivers' dispatch uses: :func:`compute` inside
    :func:`computing`, else :func:`repro.gpusim.kernel.launch` (looked up
    at call time, so a wrapper installed over it sees every launch)."""
    from . import kernel
    return compute if getattr(_STATE, "computing", False) else kernel.launch


@contextmanager
def computing():
    """Dispatches inside run their kernels' bodies through
    :func:`compute`."""
    _STATE.computing = True
    try:
        yield
    finally:
        _STATE.computing = False


def compute(device, kernel, **_) -> None:
    """A launcher that runs ``kernel``'s bodies and nothing else: no pool,
    health tracker, fault injector, stream or layout-conversion charge is
    touched, and no launch is recorded.

    An unlaunchable kernel runs nothing: its accounting launch raises the
    same error, and the lanes are rewound before anything re-runs them.
    """
    from .kernel import _run_bodies
    try:
        timing = kernel.timing(device)
    except SharedMemoryError:
        return
    _run_bodies(device, kernel, timing, vectorize=True)


def accounting_mode() -> bool:
    """Do this thread's launches only account for computed lanes?"""
    return getattr(_STATE, "on", False)


@contextmanager
def accounting():
    """Launches inside record and skip their bodies, until :func:`end`."""
    _STATE.on = True
    try:
        yield
    finally:
        _STATE.on = False


def end() -> None:
    """The lanes were rewound: later launches compute again."""
    _STATE.on = False
