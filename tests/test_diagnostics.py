import json
import os
from collections import Counter

import numpy as np
import pytest

from bsderisk import (
    CertaintyEquivalent,
    Claim,
    DegenerateWeights,
    Driver,
    DriverMeasure,
    LsmcContext,
    MeanMeasure,
    RandomField,
    RegressionBasis,
    TimeGrid,
    check_cash_additivity,
    check_cash_subadditivity,
    check_convexity,
    check_longevity,
    check_monotonicity,
    check_normalization,
    check_restriction,
    check_time_consistency,
    claim_from_label,
    driver_from_label,
    gamma,
    gamma_via_premium_measure,
    measure_from_label,
    run_taxonomy,
    shifted,
    simulate,
    taxonomy_rows,
)
from bsderisk import cli, diagnostics, riskmeasures, stochastic
from bsderisk.diagnostics import (
    EXPECTED_VERDICTS,
    FRACTION_CAP,
    PROPERTIES,
    TAXONOMY,
    LongevityResult,
    PropertyReport,
    audit_expected,
    check_nonpositive_at_zero,
    check_premium_identity,
    generator_verdicts,
    noise_sigma,
    reports_to_csv,
    reports_to_json_lines,
)
from bsderisk.stochastic import digest, path_block


class TestGamma:
    def test_restricted_driver_is_exactly_flat(self, ctx50):
        m = DriverMeasure(driver_from_label("quad_z"))
        claim = claim_from_label("brownian", 25)
        res = gamma(ctx50, m, claim, 0, 25, 50)
        assert np.all(res.gamma.values == 0.0)

    def test_translated_entropic_value(self, ctx50):
        # source term 0.1 over the extra half-year horizon adds 0.05
        m = DriverMeasure(driver_from_label("q_entropic_translated:1,0.1"))
        res = gamma(ctx50, m, claim_from_label("brownian", 25), 0, 25, 50)
        assert abs(res.gamma_mean - 0.05) <= 0.01

    def test_equal_maturities_vanish(self, ctx50):
        m = DriverMeasure(driver_from_label("csa_example"))
        res = gamma(ctx50, m, claim_from_label("brownian", 25), 0, 25, 25)
        assert np.all(res.gamma.values == 0.0)

    def test_nonneg_source_gives_nonneg_gamma(self, ctx50):
        # pathwise sign law up to regression noise: a sliver of paths may
        # dip slightly negative, never materially
        m = DriverMeasure(driver_from_label("csa_example"))
        res = gamma(ctx50, m, claim_from_label("brownian", 25), 10, 25, 50)
        v = res.gamma.values
        assert np.mean(v < -1e-3) <= 1e-3
        assert np.min(v) >= -0.01
        assert res.gamma_mean >= -2.0 * res.gamma_stderr

    def test_window_validation(self, ctx50):
        m = DriverMeasure(driver_from_label("zero"))
        with pytest.raises(ValueError):
            gamma(ctx50, m, claim_from_label("brownian", 25), 0, 20, 50)

    def test_root_stderr_is_eight_block_split(self, ctx50):
        m = measure_from_label("qent_tr:0.5,0,0.2", ctx50.grid)
        claim = claim_from_label("brownian", 25)
        res = gamma(ctx50, m, claim, 0, 25, 50)
        x = claim.evaluate(ctx50.ensemble).values
        edges = np.linspace(0, x.size, 9, dtype=int)
        means = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sub = LsmcContext(ctx50.grid, path_block(ctx50.ensemble, lo, hi), ctx50.basis)
            block = RandomField(25, x[lo:hi])
            du = m.evaluate(sub, 0, block, maturity=25)
            dv = m.evaluate(sub, 0, block, maturity=50)
            means.append(float(np.mean(dv.values - du.values)))
        assert res.gamma_stderr > 0.0
        assert res.gamma_stderr == float(np.std(means) / np.sqrt(8))


class TestPremiumMeasure:
    def test_y_free_shifted_driver_collapses(self, ctx50):
        drv = Driver(lambda t, y, z: np.sum(z, axis=1) + 0.1, "z_plus_a")
        res = gamma_via_premium_measure(ctx50, drv, claim_from_label("brownian", 25), 0, 25, 50)
        assert abs(res.premium_value - 0.05) <= 0.05 * 0.05
        assert abs(res.premium_value - res.gamma_mean) <= 0.05 * abs(res.gamma_mean)

    def test_zero_source_gives_zero(self, ctx50):
        res = gamma_via_premium_measure(
            ctx50, driver_from_label("quad_z"), claim_from_label("brownian", 25), 0, 25, 50
        )
        assert res.premium_value == 0.0
        assert np.all(res.gamma.values == 0.0)

    def test_csa_example_cross_check(self, ctx50):
        drv = shifted(driver_from_label("csa_example"), 0.1)
        res = gamma_via_premium_measure(ctx50, drv, claim_from_label("brownian", 25), 0, 25, 50)
        gap = abs(res.premium_value - res.gamma_mean)
        assert gap <= max(0.05 * abs(res.gamma_mean), 0.02)

    def test_weight_sanity(self, ctx50):
        drv = shifted(driver_from_label("csa_example"), 0.1)
        res = gamma_via_premium_measure(ctx50, drv, claim_from_label("brownian", 25), 0, 25, 50)
        assert 0.9 <= res.weight_mean <= 1.1
        assert res.ess >= 0.1 * ctx50.ensemble.n_paths

    def test_degenerate_weights_raise(self, ctx20):
        wild = Driver(lambda t, y, z: 10.0 * np.sum(z, axis=1) + 0.5, "wild_z")
        with pytest.raises(DegenerateWeights):
            gamma_via_premium_measure(ctx20, wild, claim_from_label("brownian", 10), 0, 10, 20)

    def test_root_stderr_is_none(self, ctx20):
        # at t = 0 the direct gamma is one root constant: no spread to report
        drv = shifted(driver_from_label("csa_example"), 0.1)
        claim = claim_from_label("brownian", 10)
        assert gamma_via_premium_measure(ctx20, drv, claim, 0, 10, 20).gamma_stderr is None
        res = gamma_via_premium_measure(ctx20, drv, claim, 5, 10, 20)
        assert res.gamma_stderr == res.gamma.stderr() > 0.0

    def test_one_projector_call_per_node_of_each_pass(self, ctx20, monkeypatch):
        # the u- and v-passes run in lockstep, each forming its Z as it goes:
        # regression nodes [5, 8) before the claim's index 8 in each pass,
        # and the premium's conditional expectation at t = 5
        calls = []
        original = LsmcContext.projector
        monkeypatch.setattr(LsmcContext, "projector", lambda self, at: calls.append(at) or original(self, at))
        drv = shifted(driver_from_label("csa_example"), 0.1)
        gamma_via_premium_measure(ctx20, drv, claim_from_label("brownian", 8), 5, 12, 20)
        assert sorted(calls) == [5, 5, 5, 6, 6, 7, 7]

    def test_window_validation(self, ctx20):
        with pytest.raises(ValueError):
            gamma_via_premium_measure(
                ctx20, driver_from_label("zero"), claim_from_label("brownian", 10), 0, 10, 10
            )


class TestCashAdditivity:
    def test_y_free_driver_exact(self, ctx20):
        m = measure_from_label("driver:quad_z", ctx20.grid)
        rep = check_cash_additivity(ctx20, m, claim_from_label("brownian", 20), 10, 20)
        assert rep.verdict
        assert rep.max_violation <= 1e-8

    def test_losses_measure_fails_with_positive_witness(self, ctx20):
        m = measure_from_label("qent:0.5,0", ctx20.grid)
        rep = check_cash_additivity(ctx20, m, claim_from_label("brownian", 20), 10, 20)
        assert not rep.verdict
        assert rep.details[f"mean_gap[{rep.witness['shift']}]"] > 0.0

    def test_wrapper_gap_matches_closed_form(self, ctx20):
        m = measure_from_label("discounted:mean,0.1", ctx20.grid)
        rep = check_cash_additivity(ctx20, m, claim_from_label("brownian", 20), 10, 20)
        assert not rep.verdict
        gap_per_unit = 1.0 - np.exp(-0.1 * 0.5)
        for shift in (0.1, 0.5, 1.0):
            measured = rep.details[f"mean_gap[{shift:g}]"]
            assert measured == pytest.approx(gap_per_unit * shift, rel=0.02)

    # every regression conditions on B_t alone, so the constant shifts tell
    # the cash-additive constructions from the others exactly
    @pytest.mark.parametrize("label", list(TAXONOMY))
    def test_verdict_follows_the_construction(self, ctx20, label):
        measure = measure_from_label(label, ctx20.grid)
        claim = claim_from_label(TAXONOMY[label][0], 20)
        assert check_cash_additivity(ctx20, measure, claim, 10, 20).verdict == measure.is_cash_additive


class TestCashSubadditivity:
    @pytest.mark.parametrize("label", ["discounted:mean,0.1", "driver:csa_example"])
    def test_passes(self, ctx20, label):
        m = measure_from_label(label, ctx20.grid)
        rep = check_cash_subadditivity(ctx20, m, claim_from_label("brownian", 20), 10, 20)
        assert rep.verdict

    def test_zero_shift_is_equality(self, ctx20):
        m = measure_from_label("discounted:mean,0.1", ctx20.grid)
        rep = check_cash_subadditivity(ctx20, m, claim_from_label("brownian", 20), 10, 20)
        assert rep.details["mean_gap[0]"] == 0.0


class _ConcaveOnOnePath(riskmeasures.RiskMeasure):
    """The mean measure minus X_p**2 on path p alone: concave in X there, and
    rho(X + m) - (rho(X) - m) = -(2 X_p m + m**2) on it."""

    label = "concave_on_one_path"

    def __init__(self, path):
        self.path = path

    def _evaluate(self, ctx, t_index, field, maturity):
        rho = ctx.cond_expect(-field, t_index).values.copy()
        rho[self.path] -= field.values[self.path] ** 2
        return RandomField(t_index, rho)


class TestWitnessNamesTheCase:
    """The checks that judge several shifts or mixing weights at once name the
    failing one and a path of the ensemble, not an index into all of them."""

    @pytest.mark.parametrize("check, key, worst", [
        (check_cash_subadditivity, "shift", "1"),  # 2 X_p m + m**2, largest at m = 1
        (check_convexity, "lambda", 0.5),  # lam (1 - lam) (X_p - sin X_p)**2
    ])
    def test_witness(self, check, key, worst):
        grid = TimeGrid(1.0, 8)
        ctx = LsmcContext(grid, simulate(grid, 1, 2000, seed=31), RegressionBasis(4))
        p = int(np.argmax(ctx.ensemble.values[:, 4, 0]))  # X_p > 0, far from sin X_p
        rep = check(ctx, _ConcaveOnOnePath(p), claim_from_label("brownian", 4), 2, 4)
        assert not rep.verdict
        assert rep.witness == {key: worst, "path": p, "violation": rep.as_dict()["max_violation"]}


class TestShiftGaps:
    """The cash checks evaluate rho(X) once for all four constant shifts,
    cash_subadditivity through its noise probe; the constant-shift numbers
    keep their bytes."""

    GAPS = {
        "mean_gap[0]": 0.0,
        "mean_gap[0.1]": -4.18718608e-16,
        "mean_gap[0.5]": -4.60066338e-16,
        "mean_gap[1]": -4.72937173e-16,
    }

    REPORTS = {
        "cash_additivity": (
            '{"property": "cash_additivity", "construction": "entropic", "params": {"t": 2, "u": 4}, '
            '"verdict": "pass", "tolerance": 1e-08, "max_violation": 2.9798386e-13, "violation_fraction": 0.0, '
            '"witness": null, "seed": 31, "n_paths": 2000, "n_steps": 8}\n',
            (5, 2),  # rho(X) and the four shifted claims, X + 0 among them
        ),
        "cash_subadditivity": (
            '{"property": "cash_subadditivity", "construction": "entropic", "params": {"t": 2, "u": 4}, '
            '"verdict": "pass", "tolerance": 0.147962288, "max_violation": 2.9798386e-13, "violation_fraction": 0.0, '
            '"witness": null, "seed": 31, "n_paths": 2000, "n_steps": 8}\n',
            (6, 2),  # the noise probe's rho(X) at degrees 4 and 5 and the four shifts
        ),
    }

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_one_unshifted_evaluation(self, monkeypatch, name):
        grid = TimeGrid(1.0, 8)
        ctx = LsmcContext(grid, simulate(grid, 1, 2000, seed=31), RegressionBasis(4))
        claim = claim_from_label("brownian", 4)
        calls = []
        original = CertaintyEquivalent._evaluate

        def counted(self, c, t_index, field, maturity):
            calls.append((c.basis.degree, digest(field.values)))
            return original(self, c, t_index, field, maturity)

        monkeypatch.setattr(CertaintyEquivalent, "_evaluate", counted)
        rep = diagnostics.run_check(ctx, name, measure_from_label("entropic", grid), claim, 0, 2, 4, 8)
        line, (n_calls, n_plain) = self.REPORTS[name]
        assert len(calls) == n_calls
        assert calls.count((4, digest(claim.evaluate(ctx.ensemble).values))) == n_plain
        assert reports_to_json_lines([rep]) == line
        assert rep.details == self.GAPS


class TestNormalizationChecks:
    def test_quad_z_passes(self, ctx20):
        m = measure_from_label("driver:quad_z", ctx20.grid)
        assert check_normalization(ctx20, m, 0, 10, 20).verdict

    def test_shifted_example_fails(self, ctx20):
        m = measure_from_label("driver:csa_example_shift", ctx20.grid)
        rep = check_normalization(ctx20, m, 0, 10, 20)
        assert not rep.verdict
        assert rep.witness["violation"] == pytest.approx(0.5, abs=1e-9)
        assert rep.witness["pair"] in ([0, 10], [10, 20]) and 0 <= rep.witness["path"] < 10_000

    def test_zero_driver_passes(self, ctx20):
        m = measure_from_label("driver:zero", ctx20.grid)
        assert check_normalization(ctx20, m, 0, 20, 20).verdict

    def test_rho0_sign_check(self, ctx20):
        good = measure_from_label("driver:quad_z", ctx20.grid)
        assert check_nonpositive_at_zero(ctx20, good, 0, 20, 20).verdict
        bad = measure_from_label("qent_tr:0.5,0,0.2", ctx20.grid)
        assert not check_nonpositive_at_zero(ctx20, bad, 0, 20, 20).verdict


class _OnePathBump(riskmeasures.RiskMeasure):
    """The mean measure plus bump * (1 + mean of X) on one path alone."""

    label = "one_path_bump"

    def __init__(self, bump, path=0):
        self.bump, self.path = bump, path

    def _evaluate(self, ctx, t_index, field, maturity):
        rho = ctx.cond_expect(-field, t_index).values.copy()
        rho[self.path] += self.bump * (1.0 + np.mean(field.values))
        return RandomField(t_index, rho)


class TestWitnessRule:
    """Every check names a failure by one rule: no witness on a pass; on a
    fail a path of the ensemble and the report's max_violation, and for the
    rho(0) checks the pair (s, t) or (t, u) it failed on."""

    def test_every_check(self):
        grid = TimeGrid(1.0, 8)
        ctx = LsmcContext(grid, simulate(grid, 1, 2000, seed=31), RegressionBasis(4))
        p = 1234  # rho(0) = 0.1 on path p alone, on both pairs
        measure, claim = _OnePathBump(0.1, path=p), claim_from_label("brownian", 4)
        reports = {name: diagnostics.run_check(ctx, name, measure, claim, 0, 2, 4, 8) for name in diagnostics.CHECKS}
        for name, rep in reports.items():
            if rep.verdict:
                assert rep.witness is None, name
            else:
                assert 0 <= rep.witness["path"] < 2000, name
                assert rep.witness["violation"] == rep.as_dict()["max_violation"], name
        for name in ("normalization", "rho0_nonpositive"):
            assert reports[name].witness == {"pair": [0, 2], "path": p, "violation": 0.1}
        assert {rep.verdict for rep in reports.values()} == {True, False}


class TestVerdictPolicy:
    """The tolerances and caps are fixed behaviour, not arguments."""

    def test_exact_check_tolerances(self, ctx20):
        m = measure_from_label("driver:quad_z", ctx20.grid)
        claim = claim_from_label("brownian", 20)
        assert check_cash_additivity(ctx20, m, claim, 10, 20).tolerance == 1e-8
        assert check_normalization(ctx20, m, 0, 10, 20).tolerance == 1e-10
        assert check_nonpositive_at_zero(ctx20, m, 0, 10, 20).tolerance == 1e-10

    def test_exact_checks_allow_no_violating_path(self, ctx20):
        # one path of 10k off by 1e-7: within a Monte Carlo cap, but exact checks have cap 0
        m = _OnePathBump(1e-7)
        rep = check_cash_additivity(ctx20, m, claim_from_label("brownian", 20), 10, 20)
        assert 1e-8 < rep.max_violation and 0.0 < rep.violation_fraction <= FRACTION_CAP
        assert not rep.verdict
        assert not check_normalization(ctx20, _OnePathBump(2e-10), 0, 20, 20).verdict
        assert check_normalization(ctx20, _OnePathBump(0.5e-10), 0, 20, 20).verdict

    def test_monte_carlo_tolerance_is_four_probe_scales(self, ctx20):
        m = measure_from_label("driver:csa_example", ctx20.grid)
        claim = claim_from_label("brownian", 20)
        rep = check_cash_subadditivity(ctx20, m, claim, 10, 20)
        assert rep.tolerance == 4 * noise_sigma(ctx20, m, claim, 10, 20)[1]

    @pytest.mark.parametrize("gamma_mean, premium, weight_mean, verdict", [
        (0.1, 0.108, 1.0, True),  # 8% relative, but the gap 0.008 is within 0.02
        (1.0, 1.06, 1.0, False),  # 6% relative and a gap of 0.06
        (1.0, 1.0, 1.2, False),  # exact agreement, but the weights' mean is off 1
    ])
    def test_premium_identity_rule(self, ctx20, monkeypatch, gamma_mean, premium, weight_mean, verdict):
        def fixed(ctx, driver, claim, t, u, v):
            return LongevityResult(RandomField(t, np.zeros(1)), gamma_mean, 0.0, premium, weight_mean, 9.0)

        monkeypatch.setattr(diagnostics, "gamma_via_premium_measure", fixed)
        rep = check_premium_identity(ctx20, driver_from_label("quad_z"), claim_from_label("brownian", 10),
                                     0, 10, 15)
        assert rep.verdict is verdict
        assert rep.max_violation == pytest.approx(abs(premium - gamma_mean) / gamma_mean)
        assert (rep.property, rep.construction, rep.params) == (
            "gamma_premium_identity", "driver:quad_z", {"t": 0, "u": 10, "v": 15}
        )
        assert (rep.tolerance, rep.violation_fraction, rep.witness) == (0.05, 0.0, None)


class TestRestrictionCheck:
    def test_quad_z_passes_exactly(self, ctx20):
        m = measure_from_label("driver:quad_z", ctx20.grid)
        for v in (15, 20):
            rep = check_restriction(ctx20, m, claim_from_label("brownian", 10), 5, v)
            assert rep.verdict and rep.max_violation == 0.0

    def test_translated_fails_with_source_gap(self, ctx20):
        m = measure_from_label("qent_tr:0.5,0,0.2", ctx20.grid)
        rep = check_restriction(ctx20, m, claim_from_label("brownian", 10), 5, 20)
        assert not rep.verdict
        # gap is the translation integral over (u, v]
        assert rep.details["gap_mean[v=20]"] == pytest.approx(0.2 * 0.5, abs=0.02)

    def test_same_maturity_is_equality(self, ctx20):
        m = measure_from_label("driver:csa_example", ctx20.grid)
        rep = check_restriction(ctx20, m, claim_from_label("brownian", 10), 5, 10)
        assert rep.verdict and rep.max_violation == 0.0


class TestTimeConsistencyChecks:
    def test_single_y_free_driver_strong(self, ctx20):
        m = measure_from_label("driver:abs_z", ctx20.grid)
        rep = check_time_consistency(ctx20, m, "strong", claim_from_label("brownian", 20), 0, 10, 20)
        assert rep.verdict and rep.max_violation == 0.0

    def test_linear_measure_weak_ratio(self, ctx50):
        m = measure_from_label("discounted:mean,0.1", ctx50.grid)
        claim = Claim(50, lambda p: p[:, -1, 0] + 2.0, "brownian+2")
        rep = check_time_consistency(ctx50, m, "weak", claim, 0, 25, 50)
        assert not rep.verdict
        assert rep.details["ratio"] == pytest.approx(np.exp(-0.05), rel=0.01)

    def test_increasing_family_sub(self, ctx20):
        m = measure_from_label("family_losses:translated_family:0.5,0.4", ctx20.grid)
        rep = check_time_consistency(ctx20, m, "sub", claim_from_label("brownian", 20), 0, 10, 20)
        assert rep.verdict

    def test_order_under_cash_additive_inner(self, ctx20):
        m = measure_from_label("entropic", ctx20.grid)
        rep = check_time_consistency(ctx20, m, "order", claim_from_label("brownian", 20), 0, 10, 20)
        assert rep.verdict

    def test_unknown_kind(self, ctx20):
        m = measure_from_label("mean", ctx20.grid)
        with pytest.raises(ValueError):
            check_time_consistency(ctx20, m, "medium", claim_from_label("brownian", 20), 0, 10, 20)

    def test_window_validation(self, ctx20):
        m = measure_from_label("mean", ctx20.grid)
        with pytest.raises(ValueError):
            check_time_consistency(ctx20, m, "strong", claim_from_label("brownian", 20), 10, 5, 20)


class TestEqualInnerTwin:
    """tc_order's one rule: every construction gets an F_t-measurable twin X'
    with rho_{tu}(X') = rho_{tu}(X) within TWIN_GAP on every path.  Iterates
    that leave a guarded domain would raise, and a RuntimeWarning (an open
    bracket's inf - inf) is an error under the test configuration."""

    # u - t = 0.25 < beta = 0.5: qent_tr:0.3,0.5,1 then starts on the flat stretch
    S, T, U = 0, 10, 15
    OFF_TAXONOMY = [
        ("qent_tr:0.3,0.5,1", "brownian"),  # the losses transform's flat stretch
        ("driver:linear_y:5", "call:-2"),  # slopes far from -1
        ("discounted:entropic,0.1", "call:-2"),
        ("driver:q_entropic:0.5", "sin"),  # guarded domains
        ("qent_closed:0.5", "sin"),
    ]

    @pytest.mark.parametrize("label, claim_label", taxonomy_rows() + OFF_TAXONOMY)
    def test_twin_meets_the_inner_bound(self, ctx20, label, claim_label):
        m = measure_from_label(label, ctx20.grid)
        field = claim_from_label(claim_label, self.U).evaluate(ctx20.ensemble)
        inner = m.evaluate(ctx20, self.T, field, maturity=self.U)
        twin, gap = diagnostics._equal_inner_twin(ctx20, m, inner, self.U)
        assert twin.index == self.T
        assert np.all(gap <= diagnostics.TWIN_GAP * (1.0 + np.abs(inner.values)))
        np.testing.assert_array_equal(gap, np.abs(m.evaluate(ctx20, self.T, twin, maturity=self.U).values
                                                  - inner.values))
        rep = check_time_consistency(ctx20, m, "order", field, self.S, self.T, self.U)
        assert rep.details["inner_gap"] == pytest.approx(float(np.max(gap)), rel=1e-8, abs=0.0)
        assert "note" not in rep.details and "inner_gate" not in rep.details

    @pytest.mark.parametrize("passes", [1, 4])
    def test_a_twin_that_misses_its_bound_fails(self, ctx20, monkeypatch, passes):
        # csa_example_shift needs 5 passes; after 4 the outer gap alone passes
        m = measure_from_label("driver:csa_example_shift", ctx20.grid)
        claim = claim_from_label("call:-2", self.U)
        assert check_time_consistency(ctx20, m, "order", claim, self.S, self.T, self.U).verdict
        monkeypatch.setattr(diagnostics, "TWIN_PASSES", passes)
        rep = check_time_consistency(ctx20, m, "order", claim, self.S, self.T, self.U)
        assert not rep.verdict
        assert rep.details["inner_gap"] > 1e-8
        assert (rep.max_violation <= rep.tolerance) == (passes == 4)

    def test_passes_stay_out_of_the_memo(self, ctx20):
        m = measure_from_label("driver:csa_example_shift", ctx20.grid)
        field = claim_from_label("call:-2", self.U).evaluate(ctx20.ensemble)
        with ctx20.evaluation_memo():
            inner = m.evaluate(ctx20, self.T, field, maturity=self.U)
            diagnostics._equal_inner_twin(ctx20, m, inner, self.U)
            assert len(ctx20.memo) == 1


class TestMonotonicityConvexity:
    def test_monotonicity(self, ctx20):
        # B_1 paired with B_1 - 0.5
        m = measure_from_label("qent:0.5,0", ctx20.grid)
        rep = check_monotonicity(ctx20, m, claim_from_label("brownian", 20), 10, 20)
        assert rep.verdict

    def test_convexity_at_root(self, ctx20):
        # B_1 mixed with sin(B_1)
        m = measure_from_label("entropic", ctx20.grid)
        rep = check_convexity(ctx20, m, claim_from_label("brownian", 20), 0, 20)
        assert rep.verdict


class TestLongevityCheck:
    def test_nonneg_driver(self, ctx20):
        m = measure_from_label("driver:csa_example", ctx20.grid)
        probe = RandomField(10, ctx20.ensemble.values[:, 10, 0])
        for v in (15, 20):
            assert check_longevity(ctx20, m, probe, 5, 10, v).verdict

    def test_zero_gamma_reports_positive_zero(self, ctx20):
        # gamma is exactly +0.0 for the zero driver, and max(0, -gamma) is -0.0
        m = measure_from_label("driver:zero", ctx20.grid)
        probe = RandomField(10, ctx20.ensemble.values[:, 10, 0])
        rep = check_longevity(ctx20, m, probe, 5, 10, 20)
        assert rep.verdict and np.copysign(1.0, rep.max_violation) == 1.0
        assert '"max_violation": 0.0' in json.dumps(rep.as_dict())

    def test_sign_indefinite_measure_fails(self, ctx20):
        m = measure_from_label("driver:linear_y:0.1", ctx20.grid)
        probe = RandomField(10, ctx20.ensemble.values[:, 10, 0])
        rep = check_longevity(ctx20, m, probe, 5, 10, 20)
        assert not rep.verdict


class TestRunCheck:
    """run_check hands each check the window (s, t, u, v) as it stands; the
    report's params are bundle bytes and stay as they are."""

    @pytest.fixture(scope="class")
    def ctx(self):
        grid = TimeGrid(1.0, 8)
        return LsmcContext(grid, simulate(grid, 1, 2000, seed=31), RegressionBasis(4))

    @pytest.mark.parametrize("name, params", [
        ("normalization", '{"pairs": [[1, 4], [4, 6]]}'),
        ("rho0_nonpositive", '{"pairs": [[1, 4], [4, 6]]}'),
        ("restriction", '{"t": 4, "u": 6, "v_grid": [8]}'),
        ("h_longevity", '{"t": 4, "u": 6, "v_grid": [8]}'),
        ("cash_additivity", '{"t": 4, "u": 6}'),
        ("cash_subadditivity", '{"t": 4, "u": 6}'),
        ("tc_strong", '{"kind": "strong", "s": 1, "t": 4, "u": 6}'),
        ("tc_weak", '{"kind": "weak", "s": 1, "t": 4, "u": 6}'),
        ("tc_sub", '{"kind": "sub", "s": 1, "t": 4, "u": 6}'),
        ("tc_order", '{"kind": "order", "s": 1, "t": 4, "u": 6}'),
        ("monotonicity", '{"t": 4, "pairs": 1}'),
        ("convexity", '{"t": 1, "lambdas": [0.25, 0.5, 0.75]}'),
    ])
    def test_params(self, ctx, name, params):
        m = measure_from_label("entropic", ctx.grid)
        rep = diagnostics.run_check(ctx, name, m, claim_from_label("brownian", 6), 1, 4, 6, 8)
        assert rep.property == name
        assert json.dumps(rep.as_dict()["params"]) == params


class TestTaxonomy:
    def test_matrix_has_no_implication_failures(self, ctx20):
        rows = [
            (measure_from_label(lbl, ctx20.grid), claim_from_label(claim_lbl, 15))
            for lbl, claim_lbl in taxonomy_rows()
        ]
        reports, failures = run_taxonomy(ctx20, rows, 0, 10, 15, 20)
        assert failures == []
        assert len(reports) == 8 * len(rows)

    @staticmethod
    def expected_reports():
        return [
            PropertyReport(prop, label, {}, want, 0.0, 0.0, 0.0, None, 1, 1, 1)
            for label, props in EXPECTED_VERDICTS.items() for prop, want in props.items()
        ]

    def test_audit_of_the_expected_bundle_is_clean(self):
        assert audit_expected(self.expected_reports()) == []

    def test_audit_names_a_check_that_did_not_run(self):
        reports = [r for r in self.expected_reports()
                   if (r.construction, r.property) != ("entropic", "tc_sub")]
        assert audit_expected(reports) == [{"measure": "entropic", "check": "tc_sub", "error": "not run"}]

    def test_audit_lists_flipped_verdicts_in_table_order(self):
        reports = self.expected_reports()[::-1]
        for r in reports:
            if (r.construction, r.property) in {("discounted:mean,0.1", "h_longevity"),
                                                ("driver:zero", "tc_weak")}:
                r.verdict = not r.verdict
        assert audit_expected(reports) == [
            {"measure": "driver:zero", "check": "tc_weak", "expected": True, "observed": False},
            {"measure": "discounted:mean,0.1", "check": "h_longevity", "expected": False, "observed": True},
        ]

    def test_checks_are_called_through_module_attributes(self, ctx20, monkeypatch, usable_cpus, process_log):
        # the benchmark's per-layer trace rebinds diagnostics.check_*; the
        # taxonomy must reach the rebound functions, one call per check,
        # also in the worker processes that run its rows
        usable_cpus(2)
        for name in ("check_longevity", "check_time_consistency"):
            def counted(*args, _original=getattr(diagnostics, name), _name=name, **kwargs):
                process_log.add(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(diagnostics, name, counted)
        rows = [
            (measure_from_label(lbl, ctx20.grid), claim_from_label(claim_lbl, 15))
            for lbl, claim_lbl in taxonomy_rows()[:2]
        ]
        run_taxonomy(ctx20, rows, 0, 10, 15, 20)
        calls = process_log.records()
        assert Counter(name for _, (name,) in calls) == {"check_longevity": 2, "check_time_consistency": 8}
        assert os.getpid() not in {pid for pid, _ in calls}


class TestGeneratorVerdicts:
    # the expected failures as written by hand before the table was derived
    # from the generators; the derivation must reproduce them cell for cell
    UNNORMALIZED = ("normalization", "rho0_nonpositive", "restriction")
    REFERENCE_FAILS = {
        "driver:zero": (),
        "driver:abs_z": (),
        "driver:quad_z": (),
        "driver:linear_y:0.1": ("restriction", "h_longevity", "tc_weak"),
        "driver:csa_example": ("restriction", "tc_weak"),
        "driver:csa_example_shift": (*UNNORMALIZED, "tc_weak"),
        "qent_bsde:0.5,0": (),
        "qent:0.5,0": (),
        "qent_tr:0.5,0,0.2": UNNORMALIZED,
        "entropic": (),
        "discounted:mean,0.1": ("restriction", "h_longevity", "tc_weak"),
        "family_losses:translated_family:0.5,0.4": (*UNNORMALIZED, "tc_strong"),
    }

    def test_derived_table_equals_the_reference(self):
        assert list(EXPECTED_VERDICTS) == list(self.REFERENCE_FAILS)
        for label, fails in self.REFERENCE_FAILS.items():
            assert list(EXPECTED_VERDICTS[label]) == list(PROPERTIES)
            for prop in PROPERTIES:
                assert EXPECTED_VERDICTS[label][prop] is (prop not in fails), (label, prop)

    def test_unnormalized_generator_fails_normalization(self):
        one = generator_verdicts(Driver(lambda t, y, z: np.ones(y.shape), "one"))
        assert not one["normalization"] and not one["rho0_nonpositive"] and not one["restriction"]
        assert one["h_longevity"] and one["tc_weak"] and one["tc_strong"]

    def test_negative_source_keeps_rho0_nonpositive(self):
        minus = generator_verdicts(Driver(lambda t, y, z: -np.ones(y.shape), "minus_one"))
        assert not minus["normalization"] and minus["rho0_nonpositive"] and not minus["h_longevity"]

    @pytest.mark.parametrize("label", list(TAXONOMY))
    def test_row_shares_its_generator(self, ctx50, label):
        # a driver row is its generator; any other row agrees at the root with
        # the backward solve of the generator it names, on losses when it is a
        # losses construction, within the closed-form cross-check's 0.05
        claim_label, gen = TAXONOMY[label]
        measure = measure_from_label(label, ctx50.grid)
        if label.startswith("driver:"):
            assert measure.driver.label == gen
            return
        claim = claim_from_label(claim_label, 50)
        twin = DriverMeasure(diagnostics._generator(gen), getattr(measure, "beta", None))
        gap = measure.evaluate(ctx50, 0, claim).mean() - twin.evaluate(ctx50, 0, claim).mean()
        assert abs(gap) <= 0.05


class TestReportSerialization:
    def test_json_lines_schema(self, ctx20):
        m = measure_from_label("driver:quad_z", ctx20.grid)
        rep = check_normalization(ctx20, m, 0, 20, 20)
        line = reports_to_json_lines([rep]).splitlines()[0]
        obj = json.loads(line)
        for key in (
            "property",
            "construction",
            "params",
            "verdict",
            "tolerance",
            "max_violation",
            "violation_fraction",
            "witness",
            "seed",
            "n_paths",
            "n_steps",
        ):
            assert key in obj
        assert obj["verdict"] == "pass"
        assert obj["seed"] == ctx20.ensemble.seed

    def test_csv_one_row_per_check(self, ctx20):
        m = measure_from_label("driver:quad_z", ctx20.grid)
        reps = [
            check_normalization(ctx20, m, 0, 20, 20),
            check_restriction(ctx20, m, claim_from_label("brownian", 10), 5, 20),
        ]
        text = reports_to_csv(reps)
        lines = text.splitlines()
        assert lines[0].startswith("property,construction,params,verdict")
        assert len(lines) == 3


class TestReuse:
    """Factor cache and per-row evaluation memo: invisible in the reports,
    each distinct piece of work done once, and bounded in memory."""

    S, T, U, V = 0, 4, 6, 8

    @pytest.fixture
    def ctx(self):
        grid = TimeGrid(1.0, 8)
        return LsmcContext(grid, simulate(grid, 1, 2000, seed=31), RegressionBasis(4))

    def rows(self, ctx):
        return [
            (measure_from_label(lbl, ctx.grid), claim_from_label(claim_lbl, self.U))
            for lbl, claim_lbl in taxonomy_rows()
        ]

    def test_taxonomy_reports_equal_each_check_run_alone(self, ctx):
        s, t, u, v = self.S, self.T, self.U, self.V
        rows = self.rows(ctx)
        reports, _ = run_taxonomy(ctx, rows, s, t, u, v)
        probe = RandomField(u, ctx.ensemble.levels(u)[:, 0])
        alone = []
        for m, claim in rows:
            field = claim.evaluate(ctx.ensemble)
            for check in (
                lambda c: check_normalization(c, m, s, t, u),
                lambda c: check_nonpositive_at_zero(c, m, s, t, u),
                lambda c: check_restriction(c, m, field, t, v),
                lambda c: check_longevity(c, m, probe, t, u, v),
                *[
                    lambda c, kind=kind: check_time_consistency(c, m, kind, field, s, t, u)
                    for kind in ("strong", "weak", "sub", "order")
                ],
            ):
                alone.append(check(LsmcContext(ctx.grid, ctx.ensemble, ctx.basis)))
        assert [r.as_dict() for r in reports] == [r.as_dict() for r in alone]
        assert [r.details for r in reports] == [r.details for r in alone]

    def test_verify_factorises_and_solves_each_thing_once(self, monkeypatch, usable_cpus, process_log):
        # the rows run in two worker processes, each with its own copy of the
        # factor cache: a normal system is factorised once in each process
        # that needs it, and an evaluation once in all
        usable_cpus(2)
        init, projector = stochastic._Projector.__init__, stochastic.LsmcContext.projector

        def counted_init(self, phi, ctx):
            process_log.add("build", (ctx.basis.degree, ctx.rows, digest(phi)))
            init(self, phi, ctx)

        def counted_projector(self, at):
            process_log.add("need", (self.basis.degree, self.rows, at))
            return projector(self, at)

        monkeypatch.setattr(stochastic._Projector, "__init__", counted_init)
        monkeypatch.setattr(stochastic.LsmcContext, "projector", counted_projector)
        for cls in (riskmeasures.DriverMeasure, MeanMeasure, CertaintyEquivalent, riskmeasures.DiscountedMeasure):

            def counted_evaluate(self, ctx, t_index, field, maturity, original=cls._evaluate):
                process_log.add("solve", (id(self), ctx.rows, ctx.basis, t_index, maturity, field.index,
                                          digest(field.values)))
                return original(self, ctx, t_index, field, maturity)

            monkeypatch.setattr(cls, "_evaluate", counted_evaluate)
        _, summary = cli.run_verify(cli.RunConfig(n_paths=2000, n_steps=8, seed=4))
        assert summary["n_checks"] > 0
        seen = {"build": [], "need": [], "solve": []}
        for pid, (kind, key) in process_log.records():
            seen[kind].append((pid, key))
        pids = {pid for pid, _ in seen["build"] + seen["solve"]}
        assert pids and os.getpid() not in pids
        builds, solved = seen["build"], seen["solve"]
        assert builds and len(set(builds)) == len(builds)
        # each process factorises every system it needs, and none twice; one
        # needed by k processes is factorised k times
        needed = {pid: {key for p, key in seen["need"] if p == pid} for pid in pids}
        for pid in pids:
            assert sum(p == pid for p, _ in builds) == len(needed[pid])
        distinct = {key for _, key in builds}
        assert len(distinct) == len(set().union(*needed.values()))
        duplicates = len(builds) - len(distinct)
        assert duplicates == sum(len(keys) for keys in needed.values()) - len(distinct)
        # every row builds its own measure objects, so a repeated key would
        # be the same evaluation solved twice within one row: there is none,
        # within a process or across processes
        assert solved and len({key for _, key in solved}) == len(solved)

    def test_memo_is_row_scoped_and_factors_are_p_by_p(self, ctx, monkeypatch, usable_cpus, process_log):
        usable_cpus(2)
        evaluate, row = riskmeasures.RiskMeasure.evaluate, diagnostics.taxonomy_row

        def watched(self, c, *args, **kwargs):
            out = evaluate(self, c, *args, **kwargs)
            process_log.add("memo", len(c.memo))
            return out

        def watched_row(c, *args):
            out = row(c, *args)
            factors = [chol.shape for chol in c._reuse.factors.values() if chol is not None]
            process_log.add("row", c.memo is None, factors)
            return out

        monkeypatch.setattr(riskmeasures.RiskMeasure, "evaluate", watched)
        monkeypatch.setattr(diagnostics, "taxonomy_row", watched_row)
        run_taxonomy(ctx, self.rows(ctx), self.S, self.T, self.U, self.V)
        assert ctx.memo is None
        records = process_log.records()
        assert os.getpid() not in {pid for pid, _ in records}
        sizes = [r[1] for _, r in records if r[0] == "memo"]
        rows = [r[1:] for _, r in records if r[0] == "row"]
        assert 0 < max(sizes) <= 18
        # each row ends with its memo dropped, in the process that ran it
        assert len(rows) == len(self.rows(ctx)) and all(closed for closed, _ in rows)
        # one conditioning variable at degree <= 5: at most 6 monomials,
        # whatever the path count; a constant-only design keeps no factor
        factors = [shape for _, shapes in rows for shape in shapes]
        assert factors
        assert all(shape[0] == shape[1] <= 6 for shape in factors)

    def test_memoised_value_is_read_only(self, ctx):
        m = measure_from_label("driver:quad_z", ctx.grid)
        claim = claim_from_label("brownian", 8)
        with ctx.evaluation_memo():
            rho = m.evaluate(ctx, 4, claim)
            assert m.evaluate(ctx, 4, claim) is rho
            assert rho.values.base is None  # a copy: a view would pin the solve's whole Y
            with pytest.raises(ValueError):
                rho.values[0] = 0.0
        assert ctx.memo is None

    def test_memo_tells_apart_equal_labels_and_equal_bytes(self, ctx):
        a = CertaintyEquivalent(0.5, 0.0, a=lambda t: 0.1)
        b = CertaintyEquivalent(0.5, 0.0, a=lambda t: 0.2)
        assert a.label == b.label
        claim = claim_from_label("brownian", 8)
        noise = RandomField(8, np.random.default_rng(0).standard_normal(1000))
        mean = MeanMeasure()
        with ctx.evaluation_memo():
            got = [a.evaluate(ctx, 4, claim), b.evaluate(ctx, 4, claim)]
            got += [mean.evaluate(ctx.block(lo, lo + 1000), 4, noise) for lo in (0, 1000)]
        fresh = LsmcContext(ctx.grid, ctx.ensemble, ctx.basis)
        want = [a.evaluate(fresh, 4, claim), b.evaluate(fresh, 4, claim)]
        want += [
            mean.evaluate(LsmcContext(ctx.grid, path_block(ctx.ensemble, lo, lo + 1000), ctx.basis), 4, noise)
            for lo in (0, 1000)
        ]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.values, w.values)
        assert not np.array_equal(got[0].values, got[1].values)
        assert not np.array_equal(got[2].values, got[3].values)
