"""A 3-D operand stack and the list of its lanes launch alike.

The batched drivers keep a caller's stack whole, and the launcher judges
a stack from its first two lanes and its length instead of walking its
lanes.  These tests pin that this changes nothing: every kernel design,
launched on an operand family as an ndarray and as ``list(ndarray)``,
takes the same rung (direct, soa, pack or per-block), carries the same
launch label and ``pack_bytes``, and writes the same output bytes.
"""

import numpy as np
import pytest

from repro.band.generate import random_band_batch, random_rhs
from repro.band.layout import to_interleaved
from repro.core import gbtrf_batch
from repro.core.gbsv_fused import FusedGbsvKernel
from repro.core.gbtrf_fused import FusedGbtrfKernel
from repro.core.gbtrf_reference import gbtrf_reference_batch
from repro.core.gbtrf_vbatch_kernel import VbatchGbtrfKernel, VbatchProblem
from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
from repro.core.gbtrs_blocked import (
    BlockedBackwardKernel,
    BlockedForwardKernel,
    BlockedTransLKernel,
    BlockedTransUKernel,
)
from repro.core.gbtrs_reference import gbtrs_reference_batch
from repro.gpusim import H100_PCIE, Stream, launch

N, KL, KU, BATCH, NRHS = 20, 2, 3, 6, 2


def _in_buffer(x, buf, view):
    """``view`` of ``buf`` holding ``x``'s values."""
    view[...] = x
    return view


def _overlapping(x):
    """Lanes half a lane apart: every lane shares memory with the next."""
    lane = x[0].size
    base = np.zeros(lane * (len(x) + 1) // 2 + lane, dtype=x.dtype)
    step = (lane // 2) * x.itemsize
    view = np.lib.stride_tricks.as_strided(
        base, shape=x.shape, strides=(step,) + x[0].strides)
    for k in range(len(x)):          # sequential: later lanes win
        view[k] = x[k]
    return view


# Each family maps a logical (batch, rows, cols) stack to storage holding
# the same values, and names the rung a zero-copy kernel takes on it.
FAMILIES = {
    "lane-major": (lambda x: x.copy(), "direct"),
    "interleaved": (to_interleaved, "soa"),
    "chunk": (lambda x: _in_buffer(x, b := np.zeros((len(x) + 3,)
                                                    + x.shape[1:]),
                                   b[2:2 + len(x)]), "direct"),
    "interleaved-chunk": (lambda x: _in_buffer(
        x, b := to_interleaved(np.zeros((len(x) + 3,) + x.shape[1:])),
        b[2:2 + len(x)]), "soa"),
    "lane-step": (lambda x: _in_buffer(
        x, b := np.zeros((2 * len(x),) + x.shape[1:]), b[::2]), "pack"),
    "row-trimmed": (lambda x: _in_buffer(
        x, b := np.zeros((len(x), x.shape[1] + 3, x.shape[2])),
        b[:, 1:1 + x.shape[1]]), "pack"),
    "fortran": (np.asfortranarray, "soa"),
    "overlapping": (_overlapping, "block"),
    "scattered": (lambda x: [np.array(lane) for lane in x], "pack"),
    "single-lane": (lambda x: x[:1].copy(), "block"),
    "mixed": (None, "soa"),         # interleaved matrices, lane-major RHS
}

KERNELS = ["window", "fused_gbtrf", "fused_gbsv", "fwd", "bwd", "transU",
           "transL", "vbatch", "ref_gbtrf", "ref_gbtrs"]
SOLVES = {"fwd": BlockedForwardKernel, "bwd": BlockedBackwardKernel,
          "transU": BlockedTransUKernel, "transL": BlockedTransLKernel}


def _operands(family, kernel):
    """Fresh matrices and right-hand sides of ``family`` for ``kernel``,
    plus the ``(batch, n)`` pivots (the factors' pivots for the solves;
    a list of per-problem vectors for the vbatch kernel)."""
    a = random_band_batch(BATCH, N, KL, KU, seed=11)
    pivots = np.zeros((BATCH, N), dtype=np.int64)
    if kernel in SOLVES or kernel == "ref_gbtrs":
        pivots, info = gbtrf_batch(N, N, KL, KU, a)
        assert (info == 0).all()
    b = random_rhs(N, NRHS, batch=BATCH, seed=12)
    if family == "mixed":
        mats, rhs = to_interleaved(a), b.copy()
    else:
        make = FAMILIES[family][0]
        mats, rhs = make(a), make(b)
    pivots = pivots[:len(mats)]
    return mats, rhs, list(pivots) if kernel == "vbatch" else pivots


def _run(kernel, mats, rhs, pivots):
    """Launch ``kernel`` on the operands; returns its records and outputs."""
    nb = len(mats)
    info = np.zeros(nb, dtype=np.int64)
    stream = Stream(H100_PCIE)
    if kernel == "window":
        k = SlidingWindowGbtrfKernel(N, N, KL, KU, mats, pivots, info, nb=8,
                                     threads=KL + 1)
    elif kernel == "fused_gbtrf":
        k = FusedGbtrfKernel(N, N, KL, KU, mats, pivots, info)
    elif kernel == "fused_gbsv":
        k = FusedGbsvKernel(N, KL, KU, NRHS, mats, pivots, rhs, info)
    elif kernel in SOLVES:
        k = SOLVES[kernel](N, KL, KU, NRHS, mats, pivots, rhs)
    elif kernel == "vbatch":
        problem = VbatchProblem(m=N, n=N, kl=KL, ku=KU, nb=8,
                                threads=KL + 1)
        k = VbatchGbtrfKernel([problem] * nb, mats, pivots, info)
    elif kernel == "ref_gbtrf":
        gbtrf_reference_batch(N, N, KL, KU, mats, pivots, info, H100_PCIE,
                              stream)
        k = None
    else:
        gbtrs_reference_batch("N", N, KL, KU, NRHS, mats, pivots, rhs,
                              H100_PCIE, stream)
        k = None
    if k is not None:
        launch(H100_PCIE, k, stream=stream)
    out = [np.stack([np.asarray(m) for m in mats]), np.stack(pivots), info]
    if kernel in SOLVES or kernel in ("fused_gbsv", "ref_gbtrs"):
        out.append(np.stack([np.asarray(x) for x in rhs]))
    return stream.records, out


def _rung(record) -> str:
    if not record.vectorized:
        return "block"
    return "soa" if record.soa else "pack" if record.packed else "direct"


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_stack_and_lane_list_launch_alike(family, kernel):
    runs = []
    for as_list in (False, True):
        mats, rhs, pivots = _operands(family, kernel)
        if as_list:
            mats, rhs = list(mats), list(rhs)
        runs.append(_run(kernel, mats, rhs, pivots))
    (recs, out), (recs_l, out_l) = runs
    assert [(_rung(r), r.display_name, r.pack_bytes) for r in recs] == \
        [(_rung(r), r.display_name, r.pack_bytes) for r in recs_l]
    for got, want in zip(out, out_l):
        assert got.tobytes() == want.tobytes()
    expect = FAMILIES[family][1]
    if kernel.startswith("ref_"):
        expect = "block"
    elif kernel == "vbatch" and expect in ("direct", "soa"):
        # Buckets are always gathered, and interleaved lanes' byte spans
        # overlap, so the pack stage refuses them.
        expect = "pack" if expect == "direct" else "block"
    assert {_rung(r) for r in recs} == {expect}
    if expect == "pack" and kernel != "vbatch":
        staged = out[0].nbytes + (out[3].nbytes if len(out) > 3 else 0)
        assert recs[-1].pack_bytes == 2 * staged
