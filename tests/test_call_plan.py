"""One :class:`~repro.core.stack.CallPlan` per call, and the call runs it.

``plan_call`` makes every route decision of a driver call once, before
any lane moves.  Over the knob grid of ``test_stack_equivalence.py`` the
route each call took must be the route its plan names: the design (read
off the launched kernels), a layout conversion exactly when the plan has
a target, a pipelined run exactly when the plan is pipelined, and the
verify and resilience layers entered exactly when planned.  Each
design resolver runs once per planned device, however many chunks the
call takes.  A captured ``gbsv`` that would run its stages is refused.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from repro import gbsv_batch, gbtrf_batch
from repro.band.generate import random_band_batch, random_rhs
from repro.core.gbtrf import GBTRF
from repro.core.pipeline import last_pipeline_result
from repro.core.stack import ExecConfig, Operands, plan_call
from repro.errors import ArgumentError
from repro.gpusim import (H100_PCIE, MI250X_GCD, Stream, capture_graph,
                          replicate_device)

from test_stack_equivalence import CASES, KL, KU, _call, _problem

# ``repro.core.gbsv`` and ``repro.core.gbtrf`` are also the names of
# functions in ``repro.core``.
stack_mod = importlib.import_module("repro.core.stack")
gbsv_mod = importlib.import_module("repro.core.gbsv")
gbtrf_mod = importlib.import_module("repro.core.gbtrf")
kernel_mod = importlib.import_module("repro.gpusim.kernel")
pipeline_mod = importlib.import_module("repro.core.pipeline")
resilience_mod = importlib.import_module("repro.core.resilience")
verify_mod = importlib.import_module("repro.core.verify")

#: The first kernel each (op, design) launches.
FIRST_KERNEL = {
    ("gbtrf", "fused"): "gbtrf_fused",
    ("gbtrf", "window"): "gbtrf_window",
    ("gbsv", "fused"): "gbsv_fused",
    ("gbtrs", "blocked"): "gbtrs_fwd_blocked",
}


def _spy(monkeypatch, module, name, log, record):
    """Wrap ``module.name`` so each call appends ``record(args, out)``."""
    inner = getattr(module, name)

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        log.append(record(args, out))
        return out

    monkeypatch.setattr(module, name, spy)


@pytest.fixture
def route(monkeypatch):
    """What the calls made after the fixture planned and did: their
    plans, launched kernel names, layout conversions and the verify and
    resilience layers entered (in the calling process)."""
    seen = {key: [] for key in ("plans", "launches", "conversions",
                                "verified", "resilient")}
    _spy(monkeypatch, stack_mod, "plan_call", seen["plans"],
         lambda args, out: out)
    _spy(monkeypatch, kernel_mod, "launch", seen["launches"],
         lambda args, out: args[1].name)
    _spy(monkeypatch, stack_mod, "convert_batch_layout", seen["conversions"],
         lambda args, out: None if out is None else args[0])
    _spy(monkeypatch, verify_mod, "run_verified", seen["verified"],
         lambda args, out: True)
    for module in (resilience_mod, pipeline_mod):
        _spy(monkeypatch, module, "run_resilient", seen["resilient"],
             lambda args, out: True)
    return seen


@pytest.mark.parametrize(
    "op,n,verify,resilient,layout,chunk_hint,devices", CASES,
    ids=["-".join(str(v) for v in case) for case in CASES])
def test_the_call_takes_the_route_its_plan_names(
        op, n, verify, resilient, layout, chunk_hint, devices, route):
    knobs = {k: v for k, v in dict(
        verify=verify, resilient=resilient or None, layout=layout,
        chunk_hint=chunk_hint, devices=devices).items() if v is not None}
    a, b = _problem(n)
    piv = None
    if op == "gbtrs":
        piv = np.stack(gbtrf_batch(n, n, KL, KU, a)[0])
    pipeline_mod._LAST.result = None
    for seen in route.values():
        seen.clear()
    _call(op, n, a, b, piv, **knobs)

    plan, = route["plans"]
    dev = plan.devices[0]
    design = plan.design(dev)
    if op == "gbsv" and design == "standard":
        first = FIRST_KERNEL["gbtrf", plan.stage(dev)]
    else:
        first = FIRST_KERNEL[op, design]
    assert route["launches"][0] == first
    conversions = [c for c in route["conversions"] if c is not None]
    assert conversions == ([plan.layout] if plan.layout else [])
    assert (last_pipeline_result() is not None) == plan.pipelined
    assert bool(route["verified"]) == plan.verify
    assert bool(route["resilient"]) == plan.resilient


@pytest.mark.parametrize("knobs", [
    {}, dict(chunk_hint=3), dict(chunk_hint=1), dict(devices=2),
    dict(devices=2, chunk_hint=1),
    dict(devices=2, chunk_hint=3, resilient=True, verify="cheap",
         layout="soa")], ids=str)
@pytest.mark.parametrize("op,n", [("gbsv", 24), ("gbsv", 72),
                                  ("gbtrf", 72)])
def test_each_resolver_runs_once_per_planned_device(monkeypatch, route,
                                                    op, n, knobs):
    calls = Counter()
    for module, name in ((gbsv_mod, "select_gbsv_method"),
                         (gbtrf_mod, "select_gbtrf_method")):
        _spy(monkeypatch, module, name, [],
             lambda args, out, name=name: calls.update([name]))
    a, b = _problem(n)
    _call(op, n, a, b, None, **knobs)
    plan, = route["plans"]
    devices = len(plan.devices)
    want = {"select_gbtrf_method": devices}
    if op == "gbsv":
        want["select_gbsv_method"] = devices
    assert calls == want


def _plan(**knobs):
    """The plan of a small lane-major ``gbtrf`` call under ``knobs``."""
    a = random_band_batch(2, 16, 2, 2, seed=0)
    ops = Operands(16, 16, 2, 2, a, np.zeros((2, 16), dtype=np.int64),
                   np.zeros(2, dtype=np.int64))
    return plan_call(GBTRF, ExecConfig(**knobs), ops)


def test_pipeline_requested():
    assert not _plan().pipelined
    assert not _plan(streams=1).pipelined
    assert not _plan(streams=None, devices=None).pipelined
    assert _plan(streams=2).pipelined
    assert _plan(streams=3).pipelined
    assert _plan(devices=1).pipelined
    assert _plan(devices=[H100_PCIE, MI250X_GCD]).pipelined


def test_pipelined_devices_and_buffers():
    assert _plan().devices == (H100_PCIE,) and _plan().buffers == 1
    assert _plan(streams=2).buffers == 2
    assert _plan(streams=5).buffers == 3       # three engines to keep busy
    two = _plan(devices=2)
    assert two.devices == tuple(replicate_device(H100_PCIE, 2))
    assert two.buffers == 3
    assert two.designs == {d.name: "fused" for d in two.devices}
    # Knobs an ungoverned call ignores plan nothing.
    assert not _plan(devices=2, execute=False).pipelined


def test_governance_exemptions():
    assert _plan().governed
    assert not _plan(execute=False).governed
    stream = Stream(H100_PCIE)
    stream._capturing = True
    assert not _plan(stream=stream).governed


def _singular(n, batch=6):
    """A lane-major batch whose lane 2 has an exact zero column."""
    a = random_band_batch(batch, n, KL, KU, seed=n)
    a[2, :, n // 3] = 0
    return a, random_rhs(n, 1, batch=batch, seed=n + 1)


@pytest.mark.parametrize("execute", [True, False])
def test_captured_standard_gbsv_is_refused(execute):
    """Its solve would skip the lanes the factorization finds singular,
    which capture cannot know: refused before any operand changes."""
    a, b = _singular(72)
    a0, b0 = a.copy(), b.copy()
    with capture_graph(H100_PCIE) as g:
        with pytest.raises(ArgumentError):
            gbsv_batch(72, KL, KU, 1, a, None, b, stream=g.stream,
                       execute=execute)
    assert g.graph.num_nodes == 0
    assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()


def test_fused_capture_replays_the_eager_call():
    a, b = _singular(48)
    a_ref, b_ref = a.copy(), b.copy()
    piv_ref, info_ref = gbsv_batch(48, KL, KU, 1, a_ref, None, b_ref)
    assert info_ref[2] > 0
    with capture_graph(H100_PCIE) as g:
        piv, info = gbsv_batch(48, KL, KU, 1, a, None, b, stream=g.stream)
    assert g.graph.num_nodes == 1
    g.graph.launch()
    assert b[2].tobytes() == b_ref[2].tobytes()
    for got, ref in ((a, a_ref), (b, b_ref), (piv, piv_ref),
                     (info, info_ref)):
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
