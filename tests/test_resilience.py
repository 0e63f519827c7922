"""Self-healing dispatch: retry, ladder fallback, quarantine, BatchReport."""

import numpy as np
import pytest

from repro.band.convert import band_to_dense
from repro.band.generate import random_band_batch, random_rhs
from repro.core.batched import gbsv_vbatch, gbtrf_vbatch
from repro.core.gbsv import gbsv_batch
from repro.core.gbtrf import gbtrf_batch
from repro.core.gbtrs import gbtrs_batch
from repro.core.resilience import (
    BatchReport,
    ResiliencePolicy,
    merge_reports,
)
from repro.errors import ArgumentError
from repro.gpusim import H100_PCIE, FaultPlan, disarm_faults, fault_injection
from repro.gpusim.faults import LANE_CORRUPTION, LAUNCH_FAILURE, SMEM_REJECTION


@pytest.fixture(autouse=True)
def _clean_injectors():
    yield
    disarm_faults()


def _system(batch=16, n=48, kl=2, ku=3, nrhs=1, seed=0):
    a = random_band_batch(batch, n, kl, ku, seed=seed)
    b = random_rhs(n, nrhs, batch=batch, seed=seed + 1)
    return a, b


class TestFaultFree:
    """With no faults the resilient path is a bit-identical pass-through."""

    def test_gbtrf_bit_identical(self):
        a, _ = _system()
        base = a.copy()
        piv0, info0 = gbtrf_batch(48, 48, 2, 3, base)
        piv1, info1, report = gbtrf_batch(48, 48, 2, 3, a, resilient=True)
        assert np.array_equal(a, base)
        assert all(np.array_equal(p, q) for p, q in zip(piv0, piv1))
        assert np.array_equal(info0, info1)
        assert report.retries == 0 and report.launch_failures == 0
        assert report.smem_rejections == 0 and not report.fallbacks
        assert not report.quarantined and report.ok

    def test_gbtrs_bit_identical(self):
        a, b = _system(nrhs=3)
        piv, _ = gbtrf_batch(48, 48, 2, 3, a)
        base = b.copy()
        gbtrs_batch("N", 48, 2, 3, 3, a, piv, base)
        info, report = gbtrs_batch("N", 48, 2, 3, 3, a, piv, b,
                                   resilient=True)
        assert np.array_equal(b, base)
        assert (info == 0).all() and report.ok

    @pytest.mark.parametrize("n", [24, 96])   # fused and standard gbsv
    def test_gbsv_bit_identical(self, n):
        a, b = _system(n=n)
        base_a, base_b = a.copy(), b.copy()
        gbsv_batch(n, 2, 3, 1, base_a, None, base_b)
        piv, info, report = gbsv_batch(n, 2, 3, 1, a, None, b,
                                       resilient=True)
        assert np.array_equal(a, base_a) and np.array_equal(b, base_b)
        assert (info == 0).all()
        assert report.faults_tolerated == 0 and report.ok

    def test_report_summary_readable(self):
        a, _ = _system()
        _, _, report = gbtrf_batch(48, 48, 2, 3, a, resilient=True)
        text = report.summary()
        assert "gbtrf" in text and "retries=0" in text


class TestRetry:
    def test_transient_launch_failures_absorbed(self):
        a, _ = _system()
        base = a.copy()
        gbtrf_batch(48, 48, 2, 3, base)
        plan = FaultPlan(seed=8, launch_failure_rate=1.0,
                         max_launch_failures=3)
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, report = gbtrf_batch(48, 48, 2, 3, a,
                                            resilient=True)
        assert np.array_equal(a, base)    # retries restored, then succeeded
        assert report.launch_failures == 3 == len(inj.events(LAUNCH_FAILURE))
        assert report.retries == 3
        assert report.methods["gbtrf"] == "fused"   # n=48 <= FUSED_CUTOFF

    def test_retry_budget_then_ladder_then_host(self):
        """An unending failure storm walks the whole ladder to the host."""
        a, _ = _system()
        base = a.copy()
        piv0, info0 = gbtrf_batch(48, 48, 2, 3, base)
        plan = FaultPlan(seed=8, launch_failure_rate=1.0)
        policy = ResiliencePolicy(max_retries=2)
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbtrf_batch(48, 48, 2, 3, a,
                                            resilient=True, policy=policy)
        # each rung burns 1 + max_retries launches, then the host net.
        assert report.methods["gbtrf"] == "host"
        assert report.fallbacks == [
            ("gbtrf", "fused", "window"),
            ("gbtrf", "window", "reference"),
            ("gbtrf", "reference", "host")]
        # The host net is bit-identical to the kernels.
        assert np.array_equal(a, base)
        assert np.array_equal(info, info0)
        assert all(np.array_equal(p, q) for p, q in zip(piv, piv0))

    def test_backoff_accounting(self):
        plan = FaultPlan(seed=8, launch_failure_rate=1.0,
                         max_launch_failures=2)
        policy = ResiliencePolicy(backoff_base=1e-4, backoff_cap=2e-4)
        a, _ = _system()
        with fault_injection(H100_PCIE, plan):
            _, _, report = gbtrf_batch(48, 48, 2, 3, a, resilient=True,
                                       policy=policy)
        # two retries: 1e-4 then min(2e-4, cap) = 2e-4
        assert report.backoff_total == pytest.approx(3e-4)


class TestLadderFallback:
    def test_smem_rejection_degrades_immediately(self):
        a, _ = _system()
        base = a.copy()
        gbtrf_batch(48, 48, 2, 3, base)
        plan = FaultPlan(seed=0, smem_rejections=1,
                         smem_kernels="gbtrf_fused")
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, report = gbtrf_batch(48, 48, 2, 3, a,
                                            resilient=True)
        assert len(inj.events(SMEM_REJECTION)) == 1
        assert report.smem_rejections == 1
        assert report.retries == 0            # no retry for smem
        assert ("gbtrf", "fused", "window") in report.fallbacks
        assert report.methods["gbtrf"] == "window"
        assert np.array_equal(a, base)        # designs are bit-identical

    def test_fused_gbsv_falls_back_to_standard(self):
        n = 24                                 # fused-eligible
        a, b = _system(n=n)
        plan = FaultPlan(seed=0, smem_rejections=1,
                         smem_kernels="gbsv_fused")
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbsv_batch(n, 2, 3, 1, a, None, b,
                                           resilient=True)
        assert ("gbsv", "fused", "standard") in report.fallbacks
        assert (info == 0).all()
        # standard-path result is correct (fused and standard agree to
        # rounding, not bitwise)
        a2, b2 = _system(n=n)
        gbsv_batch(n, 2, 3, 1, a2, None, b2, method="standard")
        assert np.allclose(b, b2, atol=1e-12)

    def test_exhausted_gbsv_ladder_order(self):
        """Every rung rejected: fused -> standard, then each stage down its
        own ladder to the host net, recorded in order."""
        n = 24                                 # fused-eligible
        a, b = _system(n=n)
        a_ref, b_ref = a.copy(), b.copy()
        gbsv_batch(n, 2, 3, 1, a_ref, None, b_ref, method="standard")
        plan = FaultPlan(seed=0, launch_failure_rate=1.0)
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbsv_batch(n, 2, 3, 1, a, None, b,
                                           resilient=True)
        assert report.fallbacks == [
            ("gbsv", "fused", "standard"),
            ("gbtrf", "fused", "window"),
            ("gbtrf", "window", "reference"),
            ("gbtrf", "reference", "host"),
            ("gbtrs", "blocked", "reference"),
            ("gbtrs", "reference", "host"),
        ]
        assert report.methods == {"gbtrf": "host", "gbtrs": "host"}
        assert (info == 0).all() and report.ok
        assert a.tobytes() == a_ref.tobytes()   # host == reference kernels
        assert b.tobytes() == b_ref.tobytes()

    def test_exhausted_gbtrf_ladder_order(self):
        a, _ = _system()
        base = a.copy()
        gbtrf_batch(48, 48, 2, 3, base)
        plan = FaultPlan(seed=0, launch_failure_rate=1.0)
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbtrf_batch(48, 48, 2, 3, a,
                                            resilient=True)
        assert report.fallbacks == [
            ("gbtrf", "fused", "window"),
            ("gbtrf", "window", "reference"),
            ("gbtrf", "reference", "host"),
        ]
        assert report.methods == {"gbtrf": "host"}
        assert report.retries == 3 * ResiliencePolicy().max_retries
        assert a.tobytes() == base.tobytes()


    def test_smem_rejections_land_on_reference_rung(self):
        """Two shared-memory rejections walk the ladder past the fused
        and window designs; the reference design finishes the call."""
        a, _ = _system()
        plan = FaultPlan(seed=0, smem_rejections=2, smem_kernels="gbtrf")
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbtrf_batch(48, 48, 2, 3, a,
                                            resilient=True)
        assert (info == 0).all()
        assert report.methods["gbtrf"] == "reference"


class TestQuarantine:
    def test_singular_lane_quarantined_and_reported(self):
        a, b = _system()
        a[5, :, :] = 0.0
        piv, info, report = gbsv_batch(48, 2, 3, 1, a, None, b,
                                       resilient=True)
        assert info[5] > 0
        assert report.singular == (5,)
        assert report.quarantined == (5,)
        assert np.array_equal(b[5], random_rhs(48, 1, batch=16, seed=1)[5])

    def test_corrupted_lane_recovered(self):
        a, b = _system(n=96)
        base_a, base_b = a.copy(), b.copy()
        gbsv_batch(96, 2, 3, 1, base_a, None, base_b)
        plan = FaultPlan(seed=0, corrupt_lanes=(3,),
                         corrupt_after="gbtrf_window")
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, report = gbsv_batch(96, 2, 3, 1, a, None, b,
                                           resilient=True)
        assert {ev.lane for ev in inj.events(LANE_CORRUPTION)} == {3}
        assert report.corrupted == (3,) and report.refined == (3,)
        assert (info == 0).all()
        assert np.isfinite(b[3]).all()
        assert np.allclose(b[3], base_b[3], atol=1e-9)
        # every other lane is untouched by the recovery
        for k in range(16):
            if k != 3:
                assert np.array_equal(b[k], base_b[k])
                assert np.array_equal(a[k], base_a[k])

    def test_factors_poisoned_by_the_solve_stage_quarantined(self):
        """The composed net's finite-factor scan runs before the solve;
        an injected fault in a solve kernel can still poison the
        factors, so the quarantine must see them."""
        a, b = _system(n=96)
        base_a, base_b = a.copy(), b.copy()
        gbsv_batch(96, 2, 3, 1, base_a, None, base_b)
        plan = FaultPlan(seed=0, corrupt_lanes=(3,),
                         corrupt_after="gbtrs_bwd")
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, report = gbsv_batch(96, 2, 3, 1, a, None, b,
                                           resilient=True)
        assert {ev.lane for ev in inj.events(LANE_CORRUPTION)} == {3}
        assert report.quarantined == (3,) and report.corrupted == (3,)
        assert report.ok and (info == 0).all()
        assert np.isfinite(a[3]).all() and np.isfinite(b[3]).all()
        assert np.allclose(b[3], base_b[3], atol=1e-9)

    def test_nan_input_lane_is_unrecoverable(self):
        a, b = _system()
        a[2, 2, 10] = np.nan
        piv, info, report = gbsv_batch(48, 2, 3, 1, a, None, b,
                                       resilient=True)
        assert report.unrecovered == (2,)
        assert not report.ok
        # the other lanes still solved
        assert all(np.isfinite(b[k]).all() for k in range(16) if k != 2)

    def test_gbtrs_nonfinite_solution_quarantined(self):
        a, b = _system(nrhs=2)
        piv, _ = gbtrf_batch(48, 48, 2, 3, a)
        plan = FaultPlan(seed=0, corrupt_lanes=(4,), corrupt_after="gbtrs",
                         corrupt_value=float("inf"))
        base = b.copy()
        gbtrs_batch("N", 48, 2, 3, 2, a.copy(), piv, base)
        with fault_injection(H100_PCIE, plan):
            info, report = gbtrs_batch("N", 48, 2, 3, 2, a, piv, b,
                                       resilient=True)
        assert 4 in report.quarantined
        assert report.ok

    def test_pivot_growth_triggers_refinement(self):
        a, b = _system()
        policy = ResiliencePolicy(growth_threshold=0.0)   # always refine
        piv, info, report = gbsv_batch(48, 2, 3, 1, a, None, b,
                                       resilient=True, policy=policy)
        # growth > 0 everywhere, but only quarantined lanes are eligible;
        # with no faults there is nothing to refine
        assert report.refined == ()
        a2, b2 = _system()
        a2[7, :, :] = 0.0
        piv2, info2, rep2 = gbsv_batch(48, 2, 3, 1, a2, None, b2,
                                       resilient=True, policy=policy)
        assert rep2.singular == (7,)    # singular lanes skip refinement

    def test_refinement_can_be_disabled(self):
        a, b = _system(n=96)
        plan = FaultPlan(seed=0, corrupt_lanes=(3,),
                         corrupt_after="gbtrf_window")
        policy = ResiliencePolicy(refine=False)
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbsv_batch(96, 2, 3, 1, a, None, b,
                                           resilient=True, policy=policy)
        assert report.corrupted == (3,) and report.refined == ()
        assert np.isfinite(b[3]).all()


class TestArgumentErrors:
    """Resilience never retries malformed calls."""

    def test_bad_method_raises_eagerly(self):
        a, _ = _system()
        with pytest.raises(ArgumentError):
            gbtrf_batch(48, 48, 2, 3, a, resilient=True, method="bogus")

    def test_execute_false_rejected(self):
        a, _ = _system()
        with pytest.raises(ArgumentError):
            gbtrf_batch(48, 48, 2, 3, a, resilient=True, execute=False)
        with pytest.raises(ArgumentError):
            gbsv_batch(48, 2, 3, 1, a, None,
                       random_rhs(48, 1, batch=16, seed=1),
                       resilient=True, execute=False)

    def test_empty_batch(self):
        piv, info, report = gbtrf_batch(8, 8, 1, 1, np.empty((0, 4, 8)),
                                        resilient=True)
        assert report.batch == 0 and report.ok


class TestVbatch:
    def test_gbtrf_vbatch_resilient_merges_reports(self):
        ns = [40, 40, 24, 24, 24]
        mats = [random_band_batch(1, n, 2, 2, seed=k)[0]
                for k, n in enumerate(ns)]
        base = [m.copy() for m in mats]
        for k, n in enumerate(ns):
            gbtrf_batch(n, n, 2, 2, [base[k]], batch=1)
        piv, info, report = gbtrf_vbatch(ns, ns, [2] * 5, [2] * 5, mats,
                                         resilient=True)
        assert isinstance(report, BatchReport)
        assert report.batch == 5 and (info == 0).all()
        assert all(np.array_equal(m, b) for m, b in zip(mats, base))

    def test_gbsv_vbatch_resilient_quarantine_lanes_are_global(self):
        ns = [40, 40, 24, 24]
        mats = [random_band_batch(1, n, 2, 2, seed=k)[0]
                for k, n in enumerate(ns)]
        rhs = [random_rhs(n, 1, seed=10 + k) for k, n in enumerate(ns)]
        mats[3][:, :] = 0.0                       # global lane 3 singular
        piv, info, report = gbsv_vbatch(ns, [2] * 4, [2] * 4, [1] * 4,
                                        mats, rhs, resilient=True)
        assert info[3] > 0
        assert report.singular == (3,)
        assert report.quarantined == (3,)

    def test_merge_reports_remaps_and_sums(self):
        r1 = BatchReport("gbsv", 2, retries=1, launch_failures=2,
                         quarantined=(0,), singular=(0,),
                         info=np.array([3, 0]))
        r2 = BatchReport("gbsv", 3, smem_rejections=1, corrupted=(2,),
                         quarantined=(2,), refined=(2,),
                         info=np.array([0, 0, 0]))
        merged = merge_reports("gbsv", 5, [((1, 3), r1), ((0, 2, 4), r2)])
        assert merged.retries == 1 and merged.launch_failures == 2
        assert merged.smem_rejections == 1
        assert merged.quarantined == (1, 4)
        assert merged.singular == (1,) and merged.corrupted == (4,)
        assert merged.refined == (4,)
        assert merged.info.tolist() == [0, 3, 0, 0, 0]


class TestAcceptanceStorm:
    """The ISSUE's acceptance scenario: a 64-lane gbsv batch survives a
    seeded storm (10% launch-failure rate, 2 smem rejections, 3 corrupted
    lanes) with healthy lanes bit-identical to a fault-free run and the
    report matching the injected faults exactly."""

    BATCH, N, KL, KU = 64, 96, 3, 2
    PLAN = FaultPlan(seed=2024, launch_failure_rate=0.10,
                     max_launch_failures=6, smem_rejections=2,
                     smem_kernels="gbtrs", corrupt_lanes=(5, 23, 41),
                     corrupt_after="gbtrf_window")

    def _run(self):
        a = random_band_batch(self.BATCH, self.N, self.KL, self.KU, seed=0)
        b = random_rhs(self.N, 1, batch=self.BATCH, seed=1)
        base_a, base_b = a.copy(), b.copy()
        piv0, info0 = gbsv_batch(self.N, self.KL, self.KU, 1, base_a, None,
                                 base_b)
        assert (info0 == 0).all()
        with fault_injection(H100_PCIE, self.PLAN) as inj:
            piv, info, report = gbsv_batch(self.N, self.KL, self.KU, 1, a,
                                           None, b, resilient=True)
        return a, b, base_a, base_b, piv, piv0, info, report, inj

    def test_survives_and_accounts_exactly(self):
        a, b, base_a, base_b, piv, piv0, info, report, inj = self._run()
        counts = inj.counts()
        # every kind of fault actually fired...
        assert counts[LAUNCH_FAILURE] > 0
        assert counts[SMEM_REJECTION] == 2
        assert counts[LANE_CORRUPTION] == 3
        # ...and the report accounts for each injected fault exactly
        assert report.launch_failures == counts[LAUNCH_FAILURE]
        assert report.smem_rejections == counts[SMEM_REJECTION]
        assert set(report.corrupted) == {
            ev.lane for ev in inj.events(LANE_CORRUPTION)} == {5, 23, 41}
        assert report.quarantined == (5, 23, 41)
        assert report.faults_tolerated == (counts[LAUNCH_FAILURE]
                                           + counts[SMEM_REJECTION] + 3)
        assert report.ok

    def test_healthy_lanes_bit_identical(self):
        a, b, base_a, base_b, piv, piv0, info, report, inj = self._run()
        for k in range(self.BATCH):
            if k in report.quarantined:
                continue
            assert np.array_equal(a[k], base_a[k]), f"factors lane {k}"
            assert np.array_equal(b[k], base_b[k]), f"solution lane {k}"
            assert np.array_equal(piv[k], piv0[k]), f"pivots lane {k}"

    def test_quarantined_lanes_recovered_correctly(self):
        a, b, base_a, base_b, piv, piv0, info, report, inj = self._run()
        assert (info == 0).all()        # corruption is not singularity
        for k in report.quarantined:
            assert np.isfinite(b[k]).all()
            assert np.allclose(b[k], base_b[k], atol=1e-8)
        assert report.refined == (5, 23, 41)

    def test_storm_is_reproducible(self):
        first = self._run()
        second = self._run()
        assert first[7].summary() == second[7].summary()
        assert np.array_equal(first[6], second[6])
        assert np.array_equal(first[1], second[1])


class TestBatchReportFaultDomainRoundTrip:
    """device_events / failovers / hedges survive the wire format."""

    def _report(self):
        rep = BatchReport("gbtrf", 16)
        rep.device_events = [
            {"event": "failover", "kind": "device-lost",
             "device": "h100-pcie:0", "start": 0, "stop": 4,
             "injected": True, "orphan_lanes": 12},
            {"event": "trip", "device": "h100-pcie:0",
             "kind": "device-lost", "fatal": True, "failures": 1},
            {"event": "probe", "device": "h100-pcie:0"},
            {"event": "recover", "device": "h100-pcie:0"},
            {"event": "hedge", "device": "h100-pcie:1",
             "source": "h100-pcie:0", "start": 4, "stop": 8, "won": True},
        ]
        rep.failovers = 1
        rep.hedges = 1
        return rep

    def test_round_trip_is_lossless(self):
        rep = self._report()
        back = BatchReport.from_dict(rep.to_dict())
        assert back.device_events == rep.device_events
        assert back.failovers == 1 and back.hedges == 1
        assert back.to_dict() == rep.to_dict()

    def test_json_safe(self):
        import json
        d = self._report().to_dict()
        assert json.loads(json.dumps(d)) == d

    def test_failovers_count_as_faults_tolerated(self):
        rep = self._report()
        assert rep.faults_tolerated >= rep.failovers

    def test_summary_mentions_fault_domain(self):
        s = self._report().summary()
        assert "failovers=1" in s
        assert "hedges=1" in s

    def test_unknown_keys_ignored(self):
        d = self._report().to_dict()
        d["brand_new_counter"] = 7
        d["another_future_list"] = [1, 2, 3]
        back = BatchReport.from_dict(d)
        assert back.to_dict() == self._report().to_dict()

    def test_defaults_absent_keys(self):
        """A report serialized before PR 8 (no fault-domain keys) loads."""
        d = BatchReport("gbsv", 4).to_dict()
        for key in ("device_events", "failovers", "hedges"):
            d.pop(key)
        back = BatchReport.from_dict(d)
        assert back.device_events == []
        assert back.failovers == 0 and back.hedges == 0
