"""Kernels take operand stacks; the launcher reads the rung off them.

Every kernel design is launched on each operand family as an ndarray:
it takes the family's rung (soa for an interleaved stack, direct for
pairwise disjoint lanes, per-block for lanes that overlap) with no pack
traffic and writes the per-block bytes.  The list of the same lanes is
refused with a ``TypeError`` by a kernel with a batch-interleaved body;
the vbatch kernel, which gathers its buckets, launches on it as on the
stack.
"""

from contextlib import nullcontext

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
# the same values, and names the rung a batch-interleaved kernel takes on
# it ("refused" for a list of lanes).
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
        x, b := np.zeros((2 * len(x),) + x.shape[1:]), b[::2]), "direct"),
    "row-trimmed": (lambda x: _in_buffer(
        x, b := np.zeros((len(x), x.shape[1] + 3, x.shape[2])),
        b[:, 1:1 + x.shape[1]]), "direct"),
    "fortran": (np.asfortranarray, "soa"),
    "overlapping": (_overlapping, "block"),
    "scattered": (lambda x: [np.array(lane) for lane in x], "refused"),
    "single-lane": (lambda x: x[:1].copy(), "block"),
    "mixed": (None, "soa"),         # interleaved matrices, lane-major RHS
}

KERNELS = ["window", "fused_gbtrf", "fused_gbsv", "fwd", "bwd", "transU",
           "transL", "vbatch", "ref_gbtrf", "ref_gbtrs"]
# Kernels that take a list of lanes: the vbatch kernel gathers its
# buckets itself.
TAKES_LISTS = ("vbatch",)
# The first kernel each fork-join reference design launches.
REF_FIRST = {"ref_gbtrf": "gbtrf_ref_init", "ref_gbtrs": "gbtrs_ref_swap"}
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


def _kernel(kernel, mats, rhs, pivots, info):
    """The kernel object under test, or None for a fork-join reference."""
    if kernel == "window":
        return SlidingWindowGbtrfKernel(N, N, KL, KU, mats, pivots, info,
                                        nb=8, threads=KL + 1)
    if kernel == "fused_gbtrf":
        return FusedGbtrfKernel(N, N, KL, KU, mats, pivots, info)
    if kernel == "fused_gbsv":
        return FusedGbsvKernel(N, KL, KU, NRHS, mats, pivots, rhs, info)
    if kernel in SOLVES:
        return SOLVES[kernel](N, KL, KU, NRHS, mats, pivots, rhs)
    if kernel == "vbatch":
        problem = VbatchProblem(m=N, n=N, kl=KL, ku=KU, nb=8,
                                threads=KL + 1)
        return VbatchGbtrfKernel([problem] * len(mats), mats, pivots, info)
    return None


def _launch(kernel, mats, rhs, pivots, info, stream):
    """Launch ``kernel`` (a fork-join reference: all its kernels)."""
    k = _kernel(kernel, mats, rhs, pivots, info)
    if k is not None:
        launch(H100_PCIE, k, stream=stream)
    elif kernel == "ref_gbtrf":
        gbtrf_reference_batch(N, N, KL, KU, mats, pivots, info, H100_PCIE,
                              stream)
    else:
        gbtrs_reference_batch("N", N, KL, KU, NRHS, mats, pivots, rhs,
                              H100_PCIE, stream)


def _run(kernel, mats, rhs, pivots, path=nullcontext):
    """Launch ``kernel`` on the operands inside ``path()`` (the
    ``per_block`` fixture for the per-block path); returns its records
    and outputs."""
    nb = len(mats)
    info = np.zeros(nb, dtype=np.int64)
    stream = Stream(H100_PCIE)
    with path():
        _launch(kernel, mats, rhs, pivots, info, stream)
    out = [np.stack([np.asarray(m) for m in mats]), np.stack(pivots), info]
    if kernel in SOLVES or kernel in ("fused_gbsv", "ref_gbtrs"):
        out.append(np.stack([np.asarray(x) for x in rhs]))
    return stream.records, out


def _rung(record) -> str:
    if not record.vectorized:
        return "block"
    return "soa" if record.soa else "pack" if record.packed else "direct"


def _expected_rung(family, kernel, nlanes):
    expect = FAMILIES[family][1]
    if nlanes == 1:
        return "block"
    if kernel == "vbatch":
        return "pack"      # buckets are always gathered above one block
    return expect


def _same_bytes(out, want):
    assert len(out) == len(want)
    for got, ref in zip(out, want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_stack_and_lane_list_launch_alike(family, kernel, per_block):
    mats, rhs, pivots = _operands(family, kernel)
    if isinstance(mats, list) and kernel not in TAKES_LISTS:
        _refused(kernel, mats, rhs, pivots)
        return
    recs, out = _run(kernel, mats, rhs, pivots)
    expect = _expected_rung(family, kernel, len(mats))
    assert {_rung(r) for r in recs} == {expect}
    if kernel != "vbatch":
        assert all(r.pack_bytes == 0 for r in recs)
    else:
        assert recs[-1].pack_bytes == (
            2 * out[0].nbytes if expect == "pack" else 0)
    # Per-block bits.  The vbatch kernel gathers each bucket whole, so
    # over lanes that overlap (which its driver rejects) it cannot match
    # blocks run one after another.
    if not (kernel == "vbatch" and family == "overlapping"):
        _same_bytes(out, _run(kernel, *_operands(family, kernel),
                              per_block)[1])
    if kernel in TAKES_LISTS and not isinstance(mats, list):
        # The list of the same lanes launches alike.
        mats_l, rhs_l, pivots_l = _operands(family, kernel)
        recs_l, out_l = _run(kernel, list(mats_l), list(rhs_l), pivots_l)
        assert [(_rung(r), r.display_name, r.pack_bytes) for r in recs] \
            == [(_rung(r), r.display_name, r.pack_bytes) for r in recs_l]
        _same_bytes(out_l, out)
    elif kernel not in TAKES_LISTS:
        _refused(kernel, list(mats), list(rhs), pivots)


def _refused(kernel, mats, rhs, pivots):
    """A list of lanes handed to a batch-interleaved kernel is a
    ``TypeError`` naming the kernel, raised before any block runs or any
    record is made."""
    before = [np.array(x) for x in (*mats, *rhs)]
    info = np.zeros(len(mats), dtype=np.int64)
    k = _kernel(kernel, mats, rhs, pivots, info)
    stream = Stream(H100_PCIE)
    with pytest.raises(TypeError, match=k.name if k else REF_FIRST[kernel]):
        _launch(kernel, mats, rhs, pivots, info, stream)
    assert stream.records == []
    for x, y in zip((*mats, *rhs), before):
        assert np.asarray(x).tobytes() == y.tobytes()
