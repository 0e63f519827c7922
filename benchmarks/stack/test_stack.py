"""Tests of the stack benchmark at tiny sizes (``--quick``).

Run from the repository root::

    pytest benchmarks/stack/test_stack.py
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import repro  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from compare import verdict  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
SECONDS = 0.3


@pytest.fixture(scope="module")
def runs():
    """In-process quick runs, cached by (workload, seed, traced)."""
    cache = {}

    def get(name, seed=2023, trace=False):
        key = (name, seed, trace)
        if key not in cache:
            cache[key] = workloads.run_workload(
                name, seed=seed, seconds=SECONDS, trace=trace, quick=True)
        return cache[key]

    return get


def test_run_prints_every_end_to_end_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds",
         str(SECONDS)], cwd=ROOT, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] > 0
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4:
            printed[fields[0], fields[1]] = fields[3]
    for wl in NAMES:
        for m in BENCH["end_to_end"]:
            assert printed[wl, m["name"]] == m["unit"]
            entry = summary["metrics"][f"{wl}.{m['name']}"]
            assert entry["unit"] == m["unit"] and entry["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_is_bit_identical_and_reports_every_layer(runs, name):
    plain, traced = runs(name), runs(name, trace=True)
    assert plain["correct"] and traced["correct"]
    assert traced["output_digest"] == plain["output_digest"]
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == units
    layer = {k: m["value"] for k, m in traced["metrics"].items()}
    assert layer["trace.root_coverage"] >= 0.95
    # Self times partition the root-span time exactly.
    self_sum = sum(layer[m] for m in tr.SELF_METRICS)
    assert self_sum == pytest.approx(layer["trace.root_us"], rel=1e-9)


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_not_metric_names(runs, name):
    a, b = runs(name), runs(name, seed=7)
    assert a["input_digest"] != b["input_digest"]
    assert a["metrics"].keys() == b["metrics"].keys()
    assert a["correct"] and b["correct"]


def test_full_stack_matches_the_plain_route(runs):
    full, plain = runs("full_stack"), runs("paper_gbsv")
    assert full["route_digest"] == full["output_digest"]
    assert full["input_digest"] == plain["input_digest"]


def _bindings():
    """Every callable bound on a repro module or traced class."""
    out = {}
    for mod in tr._repro_modules():
        for attr, val in vars(mod).items():
            if callable(val):
                out[mod.__name__, attr] = val
    for cls, attr, *_ in tr._traced_methods():
        out[cls, attr] = cls.__dict__[attr]
    return out


def test_tracer_restores_every_attribute_it_patched():
    before = _bindings()
    core_gbsv = sys.modules["repro.core.gbsv"]
    with tr.Tracer() as t:
        assert repro.gbsv_batch is not before["repro", "gbsv_batch"]
        assert core_gbsv.gbsv_batch is repro.gbsv_batch
        patched = list(t._patches)
        # A module binding a traced name mid-run is unwrapped on exit.
        core_gbsv._picked_up = repro.gbtrf_batch
    try:
        assert core_gbsv._picked_up is before["repro", "gbtrf_batch"]
    finally:
        del core_gbsv._picked_up
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_totals_survive_thread_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    calls, nthreads = 2000, 4
    try:
        with tr.Tracer() as t:
            fn = sys.modules["repro.core.gbtf2"].update_bound

            def work():
                for j in range(calls):
                    fn(10, 2, 2, j % 5, 1, -1)

            threads = [threading.Thread(target=work) for _ in range(nthreads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    totals = t.totals()
    count = sum(acc[0] for (name, _), acc in totals.items()
                if name == "gbtf2.update_bound")
    assert count == calls * nthreads
    assert (sum(acc[2] for acc in totals.values())
            == sum(acc[3] for acc in totals.values()))


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    assert verdict(base, base, 0.1, "lower") == "unchanged"
    assert verdict(base, [x * 1.5 for x in base], 0.1, "lower") == "worse"
    assert verdict(base, [x * 0.5 for x in base], 0.1, "lower") == "better"
    assert verdict(base, [x * 0.5 for x in base], 0.1, "higher") == "worse"
    wide = [50.0, 100.0, 150.0, 200.0]
    assert verdict(wide, wide, 0.1, "lower") == "unresolved"
