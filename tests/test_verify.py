"""Verified solves: residual gates, digests, escalation, bit-identity.

The contracts under test (docs/ROBUSTNESS.md §6):

* ``verify=`` on a healthy batch is a pure observer — zero detections,
  zero recomputes, results bit-identical to an unverified run, across
  seeds and the per-block / ``[vec]`` / ``[vec+soa]`` routes;
* every injected finite flip whose magnitude clears the residual
  tolerance is detected (``BatchReport.sdc_detected``) and recovered
  bit-identically (the ladder's recompute rungs reuse the bit-identical
  designs), with untouched lanes byte-equal to the clean run;
* sub-tolerance flips are accepted by design — the gate's floor is the
  backward-stable rounding envelope, not exact bit equality;
* ``'full'`` mode fingerprints the ``gbtrs`` read-only operands and
  repairs + attributes in-flight corruption of them
  (``BatchReport.digest_mismatches``);
* a lane that fails every rung is classified with ``gbcon``:
  ill-conditioned lanes are flagged expected-inaccurate, well-conditioned
  ones raise :class:`~repro.errors.DataCorruptionError` (or are flagged
  under ``on_fail='flag'``);
* the verification fields round-trip through
  ``BatchReport.to_dict()/from_dict()`` and merge across ``vbatch``
  groups with lanes mapped back to global indices.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro import (
    DataCorruptionError,
    VerifyPolicy,
    gbsv_batch,
    gbsv_vbatch,
    gbtrf_batch,
    gbtrf_vbatch,
    gbtrs_batch,
    to_interleaved,
)
from repro.band.generate import random_band_batch, random_rhs
from repro.band.ops import gbmv, solve_residual
from repro.core.resilience import BatchReport
from repro.core.verify import (
    as_verify_policy,
    band_mv_batch,
    band_norms_inf,
    factor_norms_inf,
    operand_digest,
    pivot_growth_batch,
    plu_apply_batch,
)
from repro.errors import ArgumentError
from repro.gpusim import H100_PCIE, FaultPlan, disarm_faults, fault_injection
from repro.types import Trans

BATCH, N, KL, KU = 12, 48, 3, 2


@pytest.fixture(autouse=True)
def _clean_injectors():
    yield
    disarm_faults()


def _problem(seed=0, nrhs=1, batch=BATCH, n=N):
    a = random_band_batch(batch, n, KL, KU, seed=seed)
    b = random_rhs(n, nrhs, batch=batch, seed=seed + 1000)
    return a, b


def _bytes_equal(*pairs):
    for got, ref in pairs:
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


# ---------------------------------------------------------------------------
# Policy canonicalisation
# ---------------------------------------------------------------------------


def _mode_behaviour(mode):
    """A healthy verified ``gbsv`` call, and a verified ``gbtrs`` call whose
    read-only factors are flipped in lane 5 after the stage; returns both
    reports and whether the caller's factors came back intact."""
    a, b = _problem(seed=26)
    *_, sv_report = gbsv_batch(N, KL, KU, 1, a.copy(), None, b.copy(),
                               verify=mode)
    piv, info = gbtrf_batch(N, N, KL, KU, a)
    fact_ref = a.copy()
    plan = FaultPlan(seed=27, sdc_lanes=(5,), sdc_after="gbtrs",
                     sdc_operand=0)
    with fault_injection(H100_PCIE, plan) as inj:
        _, trs_report = gbtrs_batch("N", N, KL, KU, 1, a, piv, b,
                                    verify=mode)
    assert inj.exhausted
    return sv_report, trs_report, a.tobytes() == fact_ref.tobytes()


class TestVerifyPolicy:
    def test_defaults(self):
        vp = VerifyPolicy()
        assert vp.mode == "cheap" and vp.on_fail == "raise"
        assert vp.refine and vp.max_refine == 2

    def test_full_mode_enables_digests_and_condition(self):
        """'full' stamps a condition estimate on a healthy call and
        repairs a digest mismatch of the read-only factors."""
        sv_report, trs_report, intact = _mode_behaviour("full")
        assert sv_report.rcond_min is not None
        assert trs_report.digest_mismatches == (5,)
        assert trs_report.sdc_detected == (5,)
        assert intact

    def test_cheap_mode_skips_digests_and_condition(self):
        """'cheap' does neither: no condition estimate on a healthy call,
        and a flip of the read-only factors that leaves the solution
        right goes unseen."""
        sv_report, trs_report, intact = _mode_behaviour("cheap")
        assert sv_report.rcond_min is None
        assert trs_report.digest_mismatches == ()
        assert trs_report.sdc_detected == ()
        assert not intact

    def test_tol_and_floor_defaults_scale_with_n(self):
        vp = VerifyPolicy()
        eps = float(np.finfo(np.float64).eps)
        assert vp.tol_for(N, np.float64) == pytest.approx(64 * N * eps)
        assert vp.floor_for(N, np.float64) == pytest.approx(N * eps)
        assert VerifyPolicy(residual_tol=1e-6).tol_for(N, np.float64) == 1e-6
        assert VerifyPolicy(rcond_floor=0.5).floor_for(N, np.float64) == 0.5

    def test_as_verify_policy(self):
        assert as_verify_policy(None) is None
        assert as_verify_policy(False) is None
        assert as_verify_policy(True) == VerifyPolicy()
        assert as_verify_policy("full").mode == "full"
        vp = VerifyPolicy(residual_tol=1e-9)
        assert as_verify_policy(vp) is vp
        with pytest.raises(ArgumentError):
            as_verify_policy("paranoid")
        with pytest.raises(ArgumentError):
            as_verify_policy(3.14)

    def test_validation(self):
        with pytest.raises(ValueError):
            VerifyPolicy(mode="exhaustive")
        with pytest.raises(ValueError):
            VerifyPolicy(on_fail="ignore")
        with pytest.raises(ValueError):
            VerifyPolicy(residual_tol=0.0)
        with pytest.raises(ValueError):
            VerifyPolicy(rcond_floor=-1.0)
        with pytest.raises(ValueError):
            VerifyPolicy(max_refine=0)


# ---------------------------------------------------------------------------
# Gate kernels: vectorized residual machinery vs the scalar references
# ---------------------------------------------------------------------------


class TestGateKernels:
    def test_band_mv_batch_bitwise_vs_gbmv(self):
        a, b = _problem(seed=3, nrhs=2)
        y3 = band_mv_batch(a, b, N, KL, KU)
        for k in range(BATCH):
            ref = np.zeros_like(b[k])
            gbmv(Trans.NO_TRANS, N, KL, KU, 1.0, a[k], b[k], 0.0, ref)
            _bytes_equal((y3[k], ref))

    def test_plu_apply_reconstructs_operator(self):
        a, _ = _problem(seed=4)
        orig = a.copy()
        piv, info = gbtrf_batch(N, N, KL, KU, a)
        assert (info == 0).all()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((BATCH, N, 2))
        got = plu_apply_batch(a, np.stack(piv), x, N, KL, KU)
        ref = band_mv_batch(orig, x, N, KL, KU)
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-12 * max(scale, 1.0)

    def test_band_norms_inf_matches_dense(self):
        from repro import band_to_dense
        a, _ = _problem(seed=6, batch=4)
        norms = band_norms_inf(a, N, KL, KU)
        for k in range(4):
            dense = band_to_dense(a[k], N, KL, KU)
            assert norms[k] == pytest.approx(
                np.abs(dense).sum(axis=1).max())

    def test_pivot_growth_positive_and_factor_norms(self):
        a, _ = _problem(seed=7, batch=4)
        orig = a.copy()
        piv, info = gbtrf_batch(N, N, KL, KU, a)
        growth = pivot_growth_batch(a, orig, KL, KU)
        assert (growth > 0).all() and np.isfinite(growth).all()
        assert (factor_norms_inf(a, N, KL, KU) > 0).all()

    def test_operand_digest_sensitivity(self):
        a, _ = _problem(seed=8, batch=2)
        d0 = operand_digest(a[0])
        flipped = a[0].copy()
        flipped[KL + KU, 5] += 1e-13
        assert operand_digest(flipped) != d0
        # Same bytes, different dtype/shape never collide.
        assert operand_digest(a[0].view(np.uint64)) != d0
        assert operand_digest(a[0].reshape(-1)) != d0
        assert operand_digest(np.asfortranarray(a[0])) == d0


# ---------------------------------------------------------------------------
# Healthy batches: zero false positives, bit-identical results
# ---------------------------------------------------------------------------


class TestHealthyBatches:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_gbsv_no_false_positives_across_seeds(self, seed):
        a, b = _problem(seed=seed)
        a_ref, b_ref = a.copy(), b.copy()
        piv_ref, info_ref = gbsv_batch(N, KL, KU, 1, a_ref, None, b_ref)
        piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b,
                                       verify=True)
        assert report.sdc_detected == () and report.recomputes == 0
        assert report.verified_lanes == BATCH
        assert report.residual_max <= VerifyPolicy().tol_for(N, np.float64)
        _bytes_equal((a, a_ref), (b, b_ref),
                     (np.stack(piv), np.stack(piv_ref)), (info, info_ref))

    @pytest.mark.parametrize("route", ["block", "vec", "soa"])
    def test_gbtrf_bit_identical_across_routes(self, route, per_block):
        a, _ = _problem(seed=9)
        a_ref = a.copy()
        piv_ref, info_ref = gbtrf_batch(N, N, KL, KU, a_ref)
        a_in = to_interleaved(a) if route == "soa" else a.copy()
        with per_block() if route == "block" else nullcontext():
            piv, info, report = gbtrf_batch(N, N, KL, KU, a_in, verify=True)
        assert report.sdc_detected == () and report.recomputes == 0
        _bytes_equal((np.ascontiguousarray(a_in), a_ref),
                     (np.stack(piv), np.stack(piv_ref)), (info, info_ref))

    def test_gbtrs_healthy(self):
        a, b = _problem(seed=10, nrhs=2)
        piv, info = gbtrf_batch(N, N, KL, KU, a)
        b_ref = b.copy()
        gbtrs_batch("N", N, KL, KU, 2, a, piv, b_ref)
        info_v, report = gbtrs_batch("N", N, KL, KU, 2, a, piv, b,
                                     verify=True)
        assert report.sdc_detected == () and report.recomputes == 0
        assert report.verified_lanes == BATCH
        _bytes_equal((b, b_ref))

    def test_full_mode_stamps_condition_and_growth(self):
        a, b = _problem(seed=11)
        piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b,
                                       verify="full")
        assert report.verify_mode == "full"
        assert report.rcond_min is not None and 0 < report.rcond_min <= 1
        assert report.growth_max > 0
        assert "verify=" in report.summary()

    def test_singular_lanes_skip_the_gate(self):
        a, b = _problem(seed=12, batch=6)
        a[2, :, 7] = 0.0
        piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b,
                                       verify=True)
        assert info[2] != 0
        assert report.verified_lanes == 5
        assert report.sdc_detected == ()


# ---------------------------------------------------------------------------
# SDC storms: injected flips detected and recovered bit-identically
# ---------------------------------------------------------------------------


class TestSdcStorm:
    LANES = (1, 4, 9)

    @pytest.mark.parametrize("route", ["block", "vec", "soa"])
    def test_gbsv_solution_flips_recovered(self, route, per_block):
        a, b = _problem(seed=20)
        a_ref, b_ref = a.copy(), b.copy()
        piv_ref, info_ref = gbsv_batch(N, KL, KU, 1, a_ref, None, b_ref)
        assert (info_ref == 0).all()
        a_in = to_interleaved(a) if route == "soa" else a.copy()
        b_in = to_interleaved(b) if route == "soa" else b.copy()
        plan = FaultPlan(seed=21, sdc_lanes=self.LANES, sdc_after="gbsv",
                         sdc_operand=1)
        path = per_block() if route == "block" else nullcontext()
        with path, fault_injection(H100_PCIE, plan) as inj:
            piv, info, report = gbsv_batch(N, KL, KU, 1, a_in, None, b_in,
                                           verify=True)
        assert inj.exhausted
        assert report.sdc_detected == self.LANES
        assert report.sdc_recovered == self.LANES
        assert report.unrecovered == () and report.ill_conditioned == ()
        assert report.recomputes >= len(self.LANES)
        # Recovery is bit-identical for every lane, corrupted or not.
        _bytes_equal((np.ascontiguousarray(a_in), a_ref),
                     (np.ascontiguousarray(b_in), b_ref),
                     (np.stack(piv), np.stack(piv_ref)), (info, info_ref))

    def test_gbtrf_factor_flips_recovered(self):
        a, _ = _problem(seed=22)
        a_ref = a.copy()
        piv_ref, info_ref = gbtrf_batch(N, N, KL, KU, a_ref)
        plan = FaultPlan(seed=23, sdc_lanes=(0, 7), sdc_after="gbtrf")
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbtrf_batch(N, N, KL, KU, a, verify=True)
        assert report.sdc_detected == (0, 7)
        assert report.sdc_recovered == (0, 7)
        _bytes_equal((a, a_ref), (np.stack(piv), np.stack(piv_ref)),
                     (info, info_ref))

    def test_gbtrs_solution_flips_recovered(self):
        a, b = _problem(seed=24, nrhs=2)
        piv, info = gbtrf_batch(N, N, KL, KU, a)
        b_ref = b.copy()
        gbtrs_batch("N", N, KL, KU, 2, a, piv, b_ref)
        plan = FaultPlan(seed=25, sdc_lanes=(3,), sdc_after="gbtrs",
                         sdc_operand=1)
        with fault_injection(H100_PCIE, plan):
            info_v, report = gbtrs_batch("N", N, KL, KU, 2, a, piv, b,
                                         verify=True)
        assert report.sdc_detected == (3,)
        assert report.sdc_recovered == (3,)
        _bytes_equal((b, b_ref))

    def test_gbtrs_digest_catches_factor_corruption(self):
        """A post-stage flip of the read-only factors leaves the solution
        intact (it was computed first); only the 'full'-mode digest sees
        it — and repairs the caller's factors from the snapshot."""
        a, b = _problem(seed=26)
        piv, info = gbtrf_batch(N, N, KL, KU, a)
        fact_ref = a.copy()
        b_ref = b.copy()
        gbtrs_batch("N", N, KL, KU, 1, fact_ref.copy(), piv, b_ref)
        plan = FaultPlan(seed=27, sdc_lanes=(5,), sdc_after="gbtrs",
                         sdc_operand=0)
        with fault_injection(H100_PCIE, plan):
            info_v, report = gbtrs_batch("N", N, KL, KU, 1, a, piv, b,
                                         verify="full")
        assert report.digest_mismatches == (5,)
        assert 5 in report.sdc_detected
        _bytes_equal((a, fact_ref), (b, b_ref))

    def test_transfer_corruption_before_solve_detected(self):
        """Staged-input corruption (the transfer-SDC mode) flips b before
        the solve consumes it: the solution is consistent with the
        corrupted b but not with the pristine snapshot — exactly what the
        gate checks against."""
        a, b = _problem(seed=28)
        a_ref, b_ref = a.copy(), b.copy()
        piv_ref, info_ref = gbsv_batch(N, KL, KU, 1, a_ref, None, b_ref)
        plan = FaultPlan(seed=29, transfer_sdc_lanes=(2,),
                         transfer_before="gbsv", sdc_operand=1)
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b,
                                           verify=True)
        assert report.sdc_detected == (2,)
        assert report.sdc_recovered == (2,)
        _bytes_equal((a, a_ref), (b, b_ref),
                     (np.stack(piv), np.stack(piv_ref)))

    def test_sub_tolerance_flips_accepted(self):
        """A flip below the residual tolerance is indistinguishable from
        rounding noise — the gate accepts it without escalation (that is
        the documented floor of the defense)."""
        a, b = _problem(seed=30)
        plan = FaultPlan(seed=31, sdc_lanes=(6,), sdc_after="gbsv",
                         sdc_operand=1, sdc_scale=1e-18)
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b,
                                           verify=True)
        assert inj.exhausted          # the flip really landed
        assert report.sdc_detected == ()
        assert report.recomputes == 0

    def test_verify_composes_with_resilient(self):
        """One report carries both fault-tolerance and verification
        accounting when resilient=True and verify=True stack."""
        a, b = _problem(seed=32)
        plan = FaultPlan(seed=33, launch_failure_rate=0.15,
                         max_launch_failures=3, sdc_lanes=(4,),
                         sdc_after="gbsv", sdc_operand=1)
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b,
                                           resilient=True, verify=True)
        assert (info == 0).all()
        assert report.verify_mode == "cheap"
        assert 4 in report.sdc_recovered
        assert report.retries >= 0 and report.verified_lanes > 0

    def test_detection_scales_down_to_tolerance_boundary(self):
        """Flips one and three orders of magnitude above the tolerance
        are both caught — detection holds all the way down to the floor,
        not just for catastrophic corruption."""
        tol = VerifyPolicy().tol_for(N, np.float64)
        for scale in (1e3 * tol, 10 * tol):
            a, b = _problem(seed=34)
            plan = FaultPlan(seed=35, sdc_lanes=(8,), sdc_after="gbsv",
                             sdc_operand=1, sdc_scale=scale)
            with fault_injection(H100_PCIE, plan) as inj:
                piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b,
                                               verify=True)
            assert inj.exhausted
            assert report.sdc_detected == (8,), f"scale={scale}"
            disarm_faults()


# ---------------------------------------------------------------------------
# Escalation ladder tail: classification, on_fail, refinement accounting
# ---------------------------------------------------------------------------


class TestEscalation:
    def test_unrecoverable_well_conditioned_raises(self):
        """An impossible tolerance makes every rung fail; well-conditioned
        lanes are corruption by classification -> DataCorruptionError."""
        a, b = _problem(seed=40, batch=4)
        vp = VerifyPolicy(residual_tol=1e-300, refine=False)
        with pytest.raises(DataCorruptionError) as exc:
            gbsv_batch(N, KL, KU, 1, a, None, b, verify=vp)
        assert exc.value.operation == "gbsv"
        assert exc.value.lanes == tuple(range(4))
        assert exc.value.device == H100_PCIE.name
        assert exc.value.residual > 0

    def test_nan_lane_reports_nan_residual(self):
        """A NaN lane that fails every rung reports its non-finite residual
        as the worst one, not 0 (chunked, as the lanes are staged)."""
        n = 72
        a = random_band_batch(12, n, 3, 2, seed=5)
        a[4, 6, 30] = np.nan
        with pytest.raises(DataCorruptionError) as exc:
            gbtrf_batch(n, n, 3, 2, a, chunk_hint=3, verify="cheap")
        assert exc.value.lanes == (4,)
        assert np.isnan(exc.value.residual)
        assert "worst scaled residual nan" in str(exc.value)

    def test_on_fail_flag_records_instead_of_raising(self):
        a, b = _problem(seed=41, batch=4)
        vp = VerifyPolicy(residual_tol=1e-300, refine=False,
                          on_fail="flag")
        piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b, verify=vp)
        assert report.unrecovered == tuple(range(4))
        assert report.sdc_detected == tuple(range(4))
        assert report.sdc_recovered == ()

    def test_ill_conditioned_lanes_flagged_not_raised(self):
        """With the rcond floor raised above every lane's estimate, the
        same failures classify as expected-inaccurate."""
        a, b = _problem(seed=42, batch=4)
        vp = VerifyPolicy(residual_tol=1e-300, refine=False,
                          rcond_floor=1.0)
        piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b, verify=vp)
        assert report.ill_conditioned == tuple(range(4))
        assert report.unrecovered == ()

    def test_refinement_rung_stamps_berr_ferr(self):
        a, b = _problem(seed=43, batch=4)
        vp = VerifyPolicy(residual_tol=1e-300, on_fail="flag",
                          rcond_floor=1.0)
        piv, info, report = gbsv_batch(N, KL, KU, 1, a, None, b, verify=vp)
        assert report.refined == tuple(range(4))
        assert report.berr_max > 0
        assert report.ferr_max >= report.berr_max
        assert report.rcond_min is not None

    def test_argument_gates(self):
        a, b = _problem(seed=44, batch=2)
        with pytest.raises(ArgumentError, match="square"):
            gbtrf_batch(N + 1, N, KL, KU, [x[:, :N] for x in a],
                        verify=True)
        piv, info = gbtrf_batch(N, N, KL, KU, a)
        with pytest.raises(ArgumentError, match="trans"):
            gbtrs_batch("T", N, KL, KU, 1, a, piv, b, verify=True)
        with pytest.raises(ArgumentError, match="execution"):
            gbsv_batch(N, KL, KU, 1, a.copy(), None, b.copy(),
                       verify=True, execute=False)
        with pytest.raises(ArgumentError, match="verify"):
            gbsv_batch(N, KL, KU, 1, a.copy(), None, b.copy(),
                       verify="paranoid")


# ---------------------------------------------------------------------------
# Report plumbing: JSON round-trip and vbatch merge
# ---------------------------------------------------------------------------


class TestReportPlumbing:
    def _stormy_report(self):
        a, b = _problem(seed=50)
        plan = FaultPlan(seed=51, sdc_lanes=(2, 5), sdc_after="gbsv",
                         sdc_operand=1)
        with fault_injection(H100_PCIE, plan):
            _, _, report = gbsv_batch(N, KL, KU, 1, a, None, b,
                                      verify="full")
        return report

    def test_json_round_trip_preserves_verify_fields(self):
        import json
        report = self._stormy_report()
        assert report.sdc_detected == (2, 5)
        payload = json.loads(json.dumps(report.to_dict()))
        back = BatchReport.from_dict(payload)
        assert back.verify_mode == "full"
        assert back.sdc_detected == (2, 5)
        assert back.sdc_recovered == (2, 5)
        assert back.verified_lanes == report.verified_lanes
        assert back.recomputes == report.recomputes
        assert back.residual_max == report.residual_max
        assert back.rcond_min == report.rcond_min
        assert back.to_dict() == report.to_dict()

    def test_summary_names_the_verification(self):
        s = self._stormy_report().summary()
        assert "verify=full" in s
        assert "sdc_detected=[2, 5]" in s

    def test_gbsv_vbatch_merges_global_lanes(self):
        ns = [32, 32, 32, 48, 48, 48]
        a = [random_band_batch(1, n, KL, KU, seed=60 + i)[0]
             for i, n in enumerate(ns)]
        b = [random_rhs(n, 1, seed=70 + i) for i, n in enumerate(ns)]
        a_ref = [x.copy() for x in a]
        b_ref = [x.copy() for x in b]
        piv_ref, info_ref = gbsv_vbatch(ns, [KL] * 6, [KU] * 6, [1] * 6,
                                        a_ref, b_ref)
        # Lane 1 is local to the first matching launch: global lane 1.
        plan = FaultPlan(seed=61, sdc_lanes=(1,), sdc_after="gbsv",
                         sdc_operand=1)
        with fault_injection(H100_PCIE, plan):
            piv, info, report = gbsv_vbatch(ns, [KL] * 6, [KU] * 6,
                                            [1] * 6, a, b, verify=True)
        assert report.verified_lanes == 6
        assert report.sdc_detected == (1,)
        assert report.sdc_recovered == (1,)
        for k in range(6):
            _bytes_equal((a[k], a_ref[k]), (b[k], b_ref[k]),
                         (piv[k], piv_ref[k]))

    def test_gbtrf_vbatch_verified(self):
        ns = [24, 24, 40, 40]
        a = [random_band_batch(1, n, 2, 2, seed=80 + i)[0]
             for i, n in enumerate(ns)]
        a_ref = [x.copy() for x in a]
        piv_ref, info_ref = gbtrf_vbatch(ns, ns, [2] * 4, [2] * 4, a_ref)
        piv, info, report = gbtrf_vbatch(ns, ns, [2] * 4, [2] * 4, a,
                                         verify=True)
        assert report.verified_lanes == 4
        assert report.sdc_detected == ()
        for k in range(4):
            _bytes_equal((a[k], a_ref[k]), (piv[k], piv_ref[k]))
