"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; a pytest failure on any test is that criterion's fail line.
"""

import numpy as np
import pytest
from scipy import integrate, stats

import bsderisk as br
from bsderisk import (
    Claim,
    LsmcContext,
    RandomField,
    RegressionBasis,
    TimeGrid,
    claim_from_label,
    driver_from_label,
    gamma,
    gamma_via_premium_measure,
    measure_from_label,
    shifted,
    simulate,
    solve,
)
from bsderisk.cli import RunConfig, run_verify
from bsderisk.diagnostics import check_cash_additivity, check_cash_subadditivity, generator_verdicts

from conftest import BLAS_THREADS, TAXONOMY_DRIVERS, run_at_blas_threads, stderr


def _announce(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def gauss_quad(fn) -> float:
    val, err = integrate.quad(lambda b: fn(b) * stats.norm.pdf(b), -12, 12, limit=300)
    assert err < 1e-9
    return val


def test_criterion_1_entropic_cross_validation():
    # quadratic generator with terminal B_1 prices the log-moment generating
    # function: oracle ln E[exp(B_1)] = 0.5
    errors = []
    for n_steps, n_paths in ((50, 50_000), (100, 200_000)):
        grid = TimeGrid(1.0, n_steps)
        ens = simulate(grid, n_paths, seed=123)
        ctx = LsmcContext(grid, ens, RegressionBasis(4))
        term = RandomField(n_steps, ens.values[:, n_steps, 0])
        sol = solve(driver_from_label("quad_z"), term, n_steps, ctx)
        errors.append(abs(sol.field_at(0).mean() - 0.5))
    assert errors[0] <= 0.05
    assert errors[1] <= errors[0]
    _announce(1, f"entropic solve errors {errors[0]:.4f} -> {errors[1]:.4f} (tol 0.05, non-increasing)")


def test_criterion_2_q_entropic_cross_validation(ctx50, b1):
    loss = np.maximum(-(b1 + 0.5), 0.0)
    sol = solve(driver_from_label("q_entropic:0.5"), RandomField(50, loss), 50, ctx50)
    closed = measure_from_label("qent:0.5,0.5").evaluate(
        ctx50, 0, claim_from_label("brownian", 50)
    )
    gap = abs(sol.field_at(0).mean() - closed.mean())
    assert gap <= 0.05
    _announce(2, f"deformed-entropy solve vs closed form gap {gap:.4f} (tol 0.05)")


def test_criterion_3_monotone_in_q(ctx50, b1):
    claim = claim_from_label("brownian", 50)
    qs = np.round(np.arange(0.1, 1.0, 0.1), 1)
    values = [
        measure_from_label(f"qent:{q},0").evaluate(ctx50, 0, claim).mean()
        for q in qs
    ]
    slacks = np.diff(values)
    assert np.min(slacks) >= -1e-3

    lower_oracle = 1.0 / np.sqrt(2.0 * np.pi)
    sample_lower = np.mean(np.maximum(-b1, 0.0))
    assert abs(sample_lower - lower_oracle) <= 0.01
    assert min(values) >= lower_oracle - 0.01

    upper_oracle = np.log(gauss_quad(lambda b: np.exp(np.maximum(-b, 0.0))))
    sample_upper = measure_from_label("qent:1,0").evaluate(ctx50, 0, claim).mean()
    assert abs(sample_upper - upper_oracle) <= 0.02
    assert max(values) <= upper_oracle + 0.01
    _announce(
        3,
        f"q-sweep {values[0]:.4f}..{values[-1]:.4f} nondecreasing within "
        f"[{lower_oracle:.4f}, {upper_oracle:.4f}] (quadrature oracles)",
    )


def test_criterion_4_linear_measure_example(ctx50, b1):
    measure = measure_from_label("discounted:mean,0.1")
    claim = Claim(50, lambda b: b + 2.0)
    s, t, u = 0, 25, 50

    rep = br.check_time_consistency(ctx50, measure, "weak", claim, s, t, u)
    ratio = rep.details["ratio"]
    assert not rep.verdict
    assert abs(ratio - np.exp(-0.05)) <= 0.01 * np.exp(-0.05)

    field = claim.evaluate(ctx50.ensemble)
    inner = measure.evaluate(ctx50, t, field)
    nested = measure.evaluate(ctx50, s, -inner, maturity=t).mean()
    direct = measure.evaluate(ctx50, s, field).mean()
    mc_se = stderr(np.exp(-0.1) * field.values)
    assert abs(nested - direct) <= 2.0 * mc_se
    _announce(4, f"weak ratio {ratio:.6f} vs e^-0.05={np.exp(-0.05):.6f}; strong gap {abs(nested-direct):.2e}")


def _sign_claim_for(driver, ctx):
    if driver.domain_guard is not None:
        # quadratic generators need terminals inside their domain: feed the
        # negative loss so the solver sees a nonnegative terminal
        return Claim(25, lambda b: -np.maximum(-(b + 0.5), 0.0))
    return claim_from_label("brownian", 25)


def test_criterion_5_longevity_sign_and_value(ctx50):
    translated = br.DriverMeasure(driver_from_label("q_entropic_translated:1,0.1"))
    res = gamma(ctx50, translated, claim_from_label("brownian", 25), 0, 25, 50)
    assert abs(res.gamma_mean - 0.05) <= 0.01

    lines = []
    for label in TAXONOMY_DRIVERS:
        driver = driver_from_label(label)
        measure = br.DriverMeasure(driver)
        claim = _sign_claim_for(driver, ctx50)
        g = gamma(ctx50, measure, claim, 0, 25, 50)
        expected = generator_verdicts(driver)
        if expected["h_longevity"]:
            assert g.gamma_mean >= -2.0 * g.gamma_stderr - 1e-12, label
        if expected["restriction"]:
            assert abs(g.gamma_mean) <= 2.0 * g.gamma_stderr + 1e-12, label
        lines.append(f"{label}:{g.gamma_mean:+.4f}")
    _announce(5, f"translated gamma {res.gamma_mean:.4f} (target 0.05 +- 0.01); signs {' '.join(lines)}")


def test_criterion_6_premium_measure_identity(ctx50):
    claim = claim_from_label("brownian", 25)
    for driver in (
        br.Driver(lambda t, y, z: np.sum(z, axis=1) + 0.1, "z_plus_0.1"),
        shifted(driver_from_label("csa_example"), 0.1),
    ):
        res = gamma_via_premium_measure(ctx50, driver, claim, 0, 25, 50)
        gap = abs(res.premium_value - res.gamma_mean)
        assert gap <= max(0.05 * abs(res.gamma_mean), 0.02), driver.label
        assert 0.9 <= res.weight_mean <= 1.1, driver.label
        _announce(
            6,
            f"{driver.label}: direct {res.gamma_mean:.4f} vs premium {res.premium_value:.4f}, "
            f"weights mean {res.weight_mean:.3f}",
        )


def test_criterion_7_cash_subadditivity_suite(ctx50):
    claim = claim_from_label("brownian", 50)
    t, u = 25, 50
    for label in ("discounted:mean,0.1", "driver:csa_example"):
        measure = measure_from_label(label)
        rep = check_cash_subadditivity(ctx50, measure, claim, t, u)
        assert rep.verdict, (label, rep.max_violation, rep.tolerance)

    wrapper = measure_from_label("discounted:mean,0.1")
    ca = check_cash_additivity(ctx50, wrapper, claim, t, u)
    assert not ca.verdict
    unit_gap = 1.0 - np.exp(-0.1 * 0.5)
    for m in (0.1, 0.5, 1.0):
        measured = ca.details[f"mean_gap[{m:g}]"]
        assert measured == pytest.approx(unit_gap * m, rel=0.02)
    _announce(7, f"CSA passes for wrapper and y-negative generator; CA gap/unit {unit_gap:.5f} matched to 2%")


def test_criterion_8_taxonomy_matrix():
    cfg = RunConfig(
        n_paths=10_000, n_steps=20, s=0.0, t=0.5, u=0.75, v=1.0, seed=123,
        checks=("taxonomy", "gamma_cross"),
    )
    reports, summary = run_verify(cfg)
    assert summary["ok"], summary["failures"]

    sub = next(
        r
        for r in reports
        if r.property == "tc_sub" and r.construction.startswith("family_losses")
    )
    assert sub.verdict and sub.max_violation <= sub.tolerance
    _announce(
        8,
        f"{summary['n_checks']} checks, no implication or expectation failures; "
        f"increasing family sub-consistency slack {sub.max_violation:.2e}",
    )


# default verify at 6000 paths x 16 steps, seed 123, writing its bundle to argv[1]
_VERIFY = """
import sys
from bsderisk.cli import main
sys.exit(main(["--paths", "6000", "--steps", "16", "--seed", "123", "--out", sys.argv[1], "verify"]))
"""


def test_criterion_9_determinism_and_exactness(tmp_path, ctx50, b1):
    bundles = {}
    for threads in BLAS_THREADS:
        out = tmp_path / f"threads{threads}"
        run_at_blas_threads(["-c", _VERIFY, str(out)], threads)
        bundles[threads] = {
            name: (out / name).read_bytes() for name in ("checks.jsonl", "checks.csv", "summary.json")
        }
    for threads in BLAS_THREADS[1:]:
        assert bundles[threads] == bundles[1], f"bundle at {threads} BLAS threads"

    f = RandomField(50, np.sin(b1))
    tower_gap = np.max(
        np.abs(
            ctx50.cond_expect(ctx50.cond_expect(f, 25), 0).values
            - ctx50.cond_expect(f, 0).values
        )
    )
    assert tower_gap <= 1e-8
    g = RandomField(50, b1**2)
    lin = ctx50.cond_expect(RandomField(50, 1.3 * f.values - 0.7 * g.values), 25)
    lin_gap = np.max(
        np.abs(
            lin.values
            - 1.3 * ctx50.cond_expect(f, 25).values
            + 0.7 * ctx50.cond_expect(g, 25).values
        )
    )
    assert lin_gap <= 1e-8

    rng = np.random.default_rng(2)
    worst = 0.0
    for q in rng.uniform(0.05, 0.95, 1000):  # the deformed pair's range, q in (0,1)
        x = rng.uniform(1.0 / (q - 1.0) + 1e-6, 3.0)
        worst = max(worst, abs(br.ln_q(br.exp_q(x, q), q) - x))
    assert worst <= 1e-12
    _announce(
        9,
        f"byte-identical bundles at {'/'.join(map(str, BLAS_THREADS))} BLAS threads; tower {tower_gap:.1e}, "
        f"linearity {lin_gap:.1e}, inverse pair {worst:.1e} over 1000 points",
    )
