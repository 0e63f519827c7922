"""Every layer of the stack is bit-identical to the plain per-block call.

One parametrized test walks the whole knob cross-product of the layer
stack — verify × resilience × layout × chunking × multi-device — for each
of the three operations, on a small seeded batch with one singular lane.
Factors, pivots, ``info`` and solutions must match the plain per-block
call (every launch per block, the ``per_block`` fixture) byte for byte, and every device memory pool
must be back at zero afterwards, per-label ledger included.
"""

import itertools

import numpy as np
import pytest

from repro import gbsv_batch, gbtrf_batch, gbtrs_batch
from repro.band.generate import random_band_batch, random_rhs
from repro.gpusim import H100_PCIE, memory_pool, replicate_device

KL, KU, BATCH, SINGULAR = 2, 3, 8, 2

CASES = list(itertools.product(
    ("gbtrf", "gbtrs", "gbsv"),       # op
    (24, 72),                          # n: fused / window + blocked designs
    (None, "cheap"),                   # verify
    (False, True),                     # resilient
    (None, "soa"),                     # layout
    (None, 3),                         # chunk_hint
    (None, 2),                         # devices
))


def _problem(n):
    a = random_band_batch(BATCH, n, KL, KU, seed=n)
    b = random_rhs(n, 1, batch=BATCH, seed=n + 1)
    a[SINGULAR] = 0.0
    return a, b


def _call(op, n, a, b, piv, **knobs):
    """Run ``op`` in place on ``a``/``b``; returns ``(pivots, info)``."""
    if op == "gbtrf":
        res = gbtrf_batch(n, n, KL, KU, a, **knobs)
    elif op == "gbsv":
        res = gbsv_batch(n, KL, KU, 1, a, None, b, **knobs)
    else:
        res = gbtrs_batch("N", n, KL, KU, 1, a, piv, b, **knobs)
        return piv, (res[0] if isinstance(res, tuple) else res)
    return np.stack(res[0]), res[1]


def _outputs(op, n, **knobs):
    a, b = _problem(n)
    piv = None
    if op == "gbtrs":
        piv, _ = gbtrf_batch(n, n, KL, KU, a)
        piv = np.stack(piv)
    piv, info = _call(op, n, a, b, piv, **knobs)
    return [x.tobytes() for x in (a, b, piv, np.asarray(info))]


@pytest.mark.parametrize(
    "op,n,verify,resilient,layout,chunk_hint,devices", CASES,
    ids=["-".join(str(v) for v in case) for case in CASES])
def test_stack_matches_plain_per_block(op, n, verify, resilient, layout,
                                       chunk_hint, devices, per_block):
    knobs = {k: v for k, v in dict(
        verify=verify, resilient=resilient or None, layout=layout,
        chunk_hint=chunk_hint, devices=devices).items() if v is not None}
    with per_block():
        plain = _outputs(op, n)
    assert _outputs(op, n, **knobs) == plain
    for dev in [H100_PCIE] + replicate_device(H100_PCIE, 2):
        pool = memory_pool(dev)
        assert pool.in_use == 0 and not pool.in_use_by_label
