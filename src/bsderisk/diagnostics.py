"""Axiom and horizon-risk verification harness.

Every check produces a PropertyReport, and the verdict policy is fixed:
no check takes a tolerance or a cap.  Exact identities are judged at a hard
tolerance with no violating path allowed: CASH_TOL for cash additivity under
constant shifts, ZERO_TOL for rho(0) (normalization, rho0_nonpositive).
Monte Carlo comparisons size their tolerance as NOISE_MULT times a
basis-refinement probe (the same quantity recomputed with the polynomial
degree raised by one; the spread of the difference sets the numerical noise
scale) and pass when at most a FRACTION_CAP share of paths violates it and
at most FRACTION_CAP/10 violates HARD_MULT times it: regression noise breaks
pathwise comparison theorems that hold in the continuum.  Mean-level
violations are judged against Monte Carlo standard errors, and the
premium-measure identity at PREMIUM_REL / PREMIUM_ABS (WEIGHT_TOL on the
importance weights).  `run_check` calls every check by name, and
GAMMA_CROSS holds the drivers of the premium-identity cross-check.

TAXONOMY holds the verify suite's constructions, each with its claim and
the generator whose g(t, y, 0) it shares; EXPECTED_VERDICTS follows from
that generator by five rules (`generator_verdicts`): g(t, 0, 0) != 0 fails
normalization, and rho0_nonpositive where it is > 0; g(t, ., 0) not
identically 0 fails restriction; g(t, y, 0) < 0 somewhere fails
h_longevity; g(t, ., 0) not constant in y fails tc_weak (observed); family
members that differ fail tc_strong.

The horizon-risk correction gamma(t,u,v,X) = rho_{tv}(X) - rho_{tu}(X) is
computed twice: directly, and through the equivalent change-of-measure
representation (importance weights built from the z-difference quotient of
the generator, with left-point Ito discretization of the stochastic
integral).  The z-difference quotient uses the componentwise telescoping
construction, which makes dz . (Z^v - Zbar) reproduce the generator gap
exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dfield, fields, replace
from typing import Optional, Sequence, Union

import numpy as np

from .bsde import Driver, DriverFamily, driver_from_label, family_from_label, shifted, solve
from .riskmeasures import RiskMeasure, ClaimLike, _terminal
from .stochastic import LsmcContext, RandomField, claim_from_label, estimate_stderr

__all__ = [
    "PropertyReport",
    "LongevityResult",
    "DegenerateWeights",
    "gamma",
    "gamma_via_premium_measure",
    "check_cash_additivity",
    "check_cash_subadditivity",
    "check_normalization",
    "check_restriction",
    "check_time_consistency",
    "check_monotonicity",
    "check_convexity",
    "check_longevity",
    "check_nonpositive_at_zero",
    "check_premium_identity",
    "noise_sigma",
    "taxonomy_rows",
    "generator_verdicts",
    "run_check",
    "run_taxonomy",
    "run_gamma_cross",
    "audit_expected",
    "reports_to_json_lines",
    "reports_to_csv",
]

# The verdict policy; no check takes a tolerance or a cap.
CASH_TOL = 1e-8  # exact: cash additivity under constant shifts (solver round-off)
ZERO_TOL = 1e-10  # exact: rho_{tu}(0), the zero claim being deterministic
NOISE_MULT = 4.0  # Monte Carlo tolerance: NOISE_MULT x the degree+1 probe's noise scale
FRACTION_CAP = 1e-3  # Monte Carlo: share of paths allowed beyond tolerance,
HARD_MULT = 5.0  # and FRACTION_CAP/10 beyond HARD_MULT x tolerance
PREMIUM_REL = 0.05  # premium identity: relative gap to the direct gamma,
PREMIUM_ABS = 0.02  # or absolute gap where gamma is small;
WEIGHT_TOL = 0.1  # and the importance weights' mean within WEIGHT_TOL of 1


class DegenerateWeights(RuntimeError):
    """Effective sample size of the importance weights below 10% of paths."""


@dataclass
class PropertyReport:
    property: str
    construction: str
    params: dict
    verdict: bool
    tolerance: float
    max_violation: float
    violation_fraction: float
    witness: Optional[dict]
    seed: int
    n_paths: int
    n_steps: int
    details: dict = dfield(default_factory=dict)

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in CSV_FIELDS}
        out["verdict"] = "pass" if self.verdict else "fail"
        for name in ("tolerance", "max_violation", "violation_fraction"):
            out[name] = _sig9(out[name])
        return out


CSV_FIELDS = [f.name for f in fields(PropertyReport) if f.name != "details"]


@dataclass
class LongevityResult:
    gamma: RandomField
    gamma_mean: float
    gamma_stderr: Optional[float]
    premium_value: Optional[float] = None
    weight_mean: Optional[float] = None
    ess: Optional[float] = None


def _sig9(x: float) -> float:
    """Round a float to 9 significant digits (byte-stable reports)."""
    return float(f"{float(x):.9g}")


def _report(
    ctx: LsmcContext,
    name: str,
    construction: str,
    params: dict,
    violations: np.ndarray,
    tolerance: float,
    exact: bool = False,
    witness: Optional[dict] = None,
    details: Optional[dict] = None,
) -> PropertyReport:
    """Verdict rule: an exact check passes iff max violation <= tolerance.
    A Monte Carlo check lets at most a FRACTION_CAP share of paths violate
    beyond `tolerance`, and at most FRACTION_CAP/10 beyond HARD_MULT *
    tolerance (polynomial fits throw occasional single-path tail artifacts
    that say nothing about the property)."""
    v = np.asarray(violations, dtype=float)
    max_v = float(np.max(v)) + 0.0 if v.size else 0.0  # + 0.0 writes a -0.0 maximum as 0.0
    frac = float(np.mean(v > tolerance)) if v.size else 0.0
    frac_hard = float(np.mean(v > HARD_MULT * tolerance)) if v.size else 0.0
    ok = (max_v <= tolerance) if exact else (frac <= FRACTION_CAP and frac_hard <= FRACTION_CAP / 10.0)
    if witness is None and v.size and not ok:
        p = int(np.argmax(v))
        witness = {"path": p, "violation": _sig9(max_v)}
    return PropertyReport(
        property=name,
        construction=construction,
        params=params,
        verdict=ok,
        tolerance=tolerance,
        max_violation=max_v,
        violation_fraction=frac,
        witness=witness,
        seed=ctx.ensemble.seed,
        n_paths=ctx.ensemble.n_paths,
        n_steps=ctx.grid.n_steps,
        details=details or {},
    )


def _refined(ctx: LsmcContext) -> LsmcContext:
    return ctx.with_basis(replace(ctx.basis, degree=ctx.basis.degree + 1))


def _spread(diff: np.ndarray, stderr: float) -> float:
    """Noise scale from a degree+1 probe: the spread of the difference
    measures the basis-resolution error, and the standard error of the mean
    proxies the coefficient-sampling noise."""
    return float(np.std(diff) + abs(np.mean(diff)) + stderr + 1e-12)


def noise_sigma(ctx: LsmcContext, measure: RiskMeasure, claim: ClaimLike, t: int, u: int) -> float:
    """Per-path numerical noise scale of one evaluation, by the degree+1 probe."""
    a = measure.evaluate(ctx, t, claim, maturity=u)
    b = measure.evaluate(_refined(ctx), t, claim, maturity=u)
    return _spread(a.values - b.values, a.stderr())


# ---------------------------------------------------------------------------
# Horizon risk
# ---------------------------------------------------------------------------

def gamma(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
    v: int,
) -> LongevityResult:
    """Correction term rho_{tv}(X) - rho_{tu}(X) for an F_u-measurable claim.

    The claim value is held constant when re-read at the longer maturity v
    (terminal extension); both evaluations share paths, so the difference is
    a common-random-numbers estimate.
    """
    field = _terminal(ctx, claim)
    if not (t <= field.index <= u <= v <= ctx.grid.n_steps):
        raise ValueError(f"need t <= claim index <= u <= v, got ({t}, {field.index}, {u}, {v})")
    rho_u = measure.evaluate(ctx, t, field, maturity=u)
    rho_v = measure.evaluate(ctx, t, field, maturity=v)
    g = RandomField(t, rho_v.values - rho_u.values)

    def block_gamma(sub, rows):
        sub_field = RandomField(field.index, field.values[rows])
        du = measure.evaluate(sub, t, sub_field, maturity=u)
        dv = measure.evaluate(sub, t, sub_field, maturity=v)
        return np.mean(dv.values - du.values)

    se = estimate_stderr(ctx, g, block_gamma)
    return LongevityResult(gamma=g, gamma_mean=g.mean(), gamma_stderr=se)


def gamma_via_premium_measure(
    ctx: LsmcContext,
    driver: Driver,
    claim: ClaimLike,
    t: int,
    u: int,
    v: int,
) -> LongevityResult:
    """Horizon-risk correction through the equivalent premium measure.

    Solves the two BSDEs (maturity u, and maturity v via the held-value
    extension), forms pathwise difference quotients of the generator in y and
    z (zero where the denominators vanish), accumulates the importance
    log-weight -0.5 int |dz|^2 ds + int dz dB over [t, v] with left-point
    evaluation, and returns the weighted expectation of
    exp(int_t^v dy ds) * int_u^v g(s, -X, 0) ds.  At t = 0 this is an
    importance-weighted mean, and gamma_stderr is None: the direct gamma is
    one root constant there, whose spread is no standard error (gamma()
    estimates one by block split).
    """
    field = _terminal(ctx, claim)
    if not (t <= field.index <= u < v <= ctx.grid.n_steps):
        raise ValueError(f"need t <= claim index <= u < v, got ({t}, {field.index}, {u}, {v})")
    ens, grid = ctx.ensemble, ctx.grid
    n, d, dt = ens.n_paths, ens.dim, grid.dt
    x = field.values

    sol_u = solve(driver, RandomField(field.index, -x), u, ctx, stop=t)
    sol_v = solve(driver, RandomField(field.index, -x), v, ctx, stop=t)

    log_w = np.zeros(n)
    dy_int = np.zeros(n)
    for i in range(t, v):
        t_i = i * dt
        y_v = sol_v.Y[i]
        z_v = sol_v.z_at(i)
        if i <= u:
            y_bar = sol_u.Y[i]
            z_bar = sol_u.z_at(i) if i < u else np.zeros((n, d))
        else:
            y_bar = -x
            z_bar = np.zeros((n, d))

        # y-difference quotient at the v-solution's z
        num_y = driver(t_i, y_v, z_v) - driver(t_i, y_bar, z_v)
        den_y = y_v - y_bar
        dy = np.where(den_y != 0.0, num_y / np.where(den_y != 0.0, den_y, 1.0), 0.0)
        dy_int += dy * dt

        # componentwise telescoping z-difference quotient:
        # dz_k * (z_v - z_bar)_k sums exactly to g(., y_bar, z_v) - g(., y_bar, z_bar)
        zeta = z_bar.copy()
        g_prev = driver(t_i, y_bar, zeta)
        dz = np.zeros((n, d))
        for k in range(d):
            zeta[:, k] = z_v[:, k]
            g_next = driver(t_i, y_bar, zeta)
            den = z_v[:, k] - z_bar[:, k]
            dz[:, k] = np.where(den != 0.0, (g_next - g_prev) / np.where(den != 0.0, den, 1.0), 0.0)
            g_prev = g_next

        log_w += -0.5 * np.sum(dz * dz, axis=1) * dt + np.sum(dz * ens.increments[:, i, :], axis=1)

    weights = np.exp(log_w)
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise DegenerateWeights("importance weights must be finite and strictly positive")
    ess = float(np.sum(weights) ** 2 / np.sum(weights**2))
    if ess < 0.1 * n:
        raise DegenerateWeights(f"effective sample size {ess:.1f} below 10% of {n} paths")

    integrand = np.zeros(n)
    z0 = np.zeros((n, d))
    for i in range(u, v):
        integrand += driver(i * dt, -x, z0) * dt
    payload = np.exp(dy_int) * integrand

    if t == 0:
        premium = float(np.mean(weights * payload))
    else:
        premium = ctx.cond_expect(RandomField(v, weights * payload), t).mean()

    g_direct = RandomField(t, sol_v.Y[t] - sol_u.Y[t])
    return LongevityResult(
        gamma=g_direct,
        gamma_mean=g_direct.mean(),
        gamma_stderr=None if t == 0 else g_direct.stderr(),
        premium_value=premium,
        weight_mean=float(np.mean(weights)),
        ess=ess,
    )


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

def _shift_gaps(ctx, measure, claim, t, u):
    """(label, pathwise gap rho(X+m) - (rho(X) - m), m) per shift m: the
    constants 0, 0.1, 0.5, 1 and the bounded F_t-measurable 0.5 (1 + tanh B_t),
    which joins the regression basis on both sides."""
    field = _terminal(ctx, claim)
    b_t = ctx.ensemble.levels(t)[:, 0]
    shifts = [("0", 0.0), ("0.1", 0.1), ("0.5", 0.5), ("1", 1.0),
              ("0.5*(1+tanh(B_t))", 0.5 * (1.0 + np.tanh(b_t)))]
    rho_plain = measure.evaluate(ctx, t, field, maturity=u)
    out = []
    for label, m in shifts:
        aux = m if np.ndim(m) else None
        shifted_field = RandomField(field.index if aux is None else max(field.index, t), field.values + m)
        rho_xm = measure.evaluate(ctx, t, shifted_field, maturity=u, aux=aux)
        rho_x = rho_plain if aux is None else measure.evaluate(ctx, t, field, maturity=u, aux=aux)
        out.append((label, rho_xm.values - (rho_x.values - m), m))
    return out


def check_cash_additivity(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
) -> PropertyReport:
    """Equality rho(X+m) = rho(X) - m over the shift grid of _shift_gaps.

    Constant shifts are judged at CASH_TOL: for cash-additive constructions
    the engine reproduces them exactly up to solver round-off.  The random
    F_t-measurable shift joins the regression basis on both sides and is
    judged at the Monte Carlo noise scale (basis products are only
    approximated).  The reported tolerance/max_violation refer to the
    constant shifts, which carry the pass/fail signal.
    """
    gaps = _shift_gaps(ctx, measure, claim, t, u)
    const_v = [np.abs(g) for (label, g, m) in gaps if np.ndim(m) == 0]
    details = {f"mean_gap[{label}]": _sig9(float(np.mean(g))) for label, g, _ in gaps}
    field_tolerance = NOISE_MULT * noise_sigma(ctx, measure, claim, t, u)
    worst_field = max(float(np.max(np.abs(g))) for (label, g, m) in gaps if np.ndim(m) != 0)
    details["field_tolerance"] = _sig9(field_tolerance)
    details["field_max_violation"] = _sig9(worst_field)
    worst = max(gaps, key=lambda item: float(np.max(np.abs(item[1]))))
    p = int(np.argmax(np.abs(worst[1])))
    witness = {"shift": worst[0], "path": p, "gap": _sig9(float(worst[1][p]))}
    rep = _report(
        ctx, "cash_additivity", measure.label, {"t": t, "u": u}, np.concatenate(const_v), CASH_TOL,
        exact=True, witness=witness, details=details,
    )
    rep.verdict = rep.verdict and worst_field <= field_tolerance
    return rep


def check_cash_subadditivity(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
) -> PropertyReport:
    """One-sided rho(X+m) >= rho(X) - m over the (nonnegative) shift grid
    of _shift_gaps."""
    tolerance = NOISE_MULT * noise_sigma(ctx, measure, claim, t, u)
    gaps = _shift_gaps(ctx, measure, claim, t, u)
    violations = np.concatenate([np.maximum(0.0, -g) for _, g, _ in gaps])
    details = {f"mean_gap[{label}]": _sig9(float(np.mean(g))) for label, g, _ in gaps}
    return _report(
        ctx, "cash_subadditivity", measure.label, {"t": t, "u": u}, violations, tolerance,
        details=details,
    )


def _rho_at_zero(ctx, measure, s, t, u):
    """((a, b), rho_{ab}(0) values) for the pairs (s, t) and (t, u), in order."""
    return [((a, b), measure.evaluate(ctx, a, claim_from_label("const:0", b)).values)
            for a, b in ((s, t), (t, u))]


def check_normalization(
    ctx: LsmcContext,
    measure: RiskMeasure,
    s: int,
    t: int,
    u: int,
) -> PropertyReport:
    """|rho_{st}(0)| and |rho_{tu}(0)|: the zero claim is deterministic, so a
    normalized construction returns exactly zero (no Monte Carlo noise)."""
    peaks = [(float(np.max(np.abs(rho0))), pair) for pair, rho0 in _rho_at_zero(ctx, measure, s, t, u)]
    worst, (wt, wu) = max(peaks, key=lambda peak: peak[0])  # the first pair on a tie
    return _report(
        ctx, "normalization", measure.label, {"pairs": [[s, t], [t, u]]},
        np.array([m for m, _ in peaks]), ZERO_TOL, exact=True,
        witness={"t": wt, "u": wu, "rho0": _sig9(worst)},
    )


def check_nonpositive_at_zero(
    ctx: LsmcContext,
    measure: RiskMeasure,
    s: int,
    t: int,
    u: int,
) -> PropertyReport:
    """rho_{st}(0) <= 0 and rho_{tu}(0) <= 0 (premise of the sub-consistency law)."""
    violations = [float(np.max(np.maximum(rho0, 0.0))) for _, rho0 in _rho_at_zero(ctx, measure, s, t, u)]
    return _report(
        ctx, "rho0_nonpositive", measure.label, {"pairs": [[s, t], [t, u]]},
        np.array(violations), ZERO_TOL, exact=True,
    )


def _gamma_noise(ctx, measure, field, t, u, v) -> float:
    """Noise scale of the horizon correction itself: common components of the
    two maturities cancel under shared paths, so the single-evaluation probe
    would badly overstate it."""
    a = gamma(ctx, measure, field, t, u, v)
    b = gamma(_refined(ctx), measure, field, t, u, v)
    return _spread(a.gamma.values - b.gamma.values, a.gamma_stderr)


def check_restriction(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    v: int,
) -> PropertyReport:
    """rho_{tu}(X) = rho_{tv}(X) pathwise, u being the claim's index."""
    field = _terminal(ctx, claim)
    u = field.index
    tolerance = NOISE_MULT * _gamma_noise(ctx, measure, field, t, u, v)
    res = gamma(ctx, measure, field, t, u, v)
    return _report(
        ctx, "restriction", measure.label, {"t": t, "u": u, "v_grid": [v]},
        np.abs(res.gamma.values), max(tolerance, ZERO_TOL),
        details={f"gap_mean[v={v}]": _sig9(res.gamma_mean)},
    )


def check_longevity(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
    v: int,
) -> PropertyReport:
    """gamma(t,u,v,X) >= 0 pathwise; the mean must also clear -2 standard
    errors."""
    field = _terminal(ctx, claim)
    tolerance = NOISE_MULT * _gamma_noise(ctx, measure, field, t, u, v)
    res = gamma(ctx, measure, field, t, u, v)
    rep = _report(
        ctx, "h_longevity", measure.label, {"t": t, "u": u, "v_grid": [v]},
        np.maximum(0.0, -res.gamma.values), tolerance,
        details={f"gamma_mean[v={v}]": _sig9(res.gamma_mean),
                 f"gamma_stderr[v={v}]": _sig9(res.gamma_stderr)},
    )
    rep.verdict = rep.verdict and not res.gamma_mean < -2.0 * res.gamma_stderr - 1e-12
    return rep


def check_monotonicity(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
) -> PropertyReport:
    """X - 0.5 <= X pathwise, so rho_{tu}(X - 0.5) >= rho_{tu}(X) pathwise;
    the tolerance is probed on X - 0.5."""
    upper = _terminal(ctx, claim)
    lower = RandomField(upper.index, upper.values - 0.5)
    tol = NOISE_MULT * noise_sigma(ctx, measure, lower, t, u)
    r1 = measure.evaluate(ctx, t, lower, maturity=u)
    r2 = measure.evaluate(ctx, t, upper, maturity=u)
    return _report(
        ctx, "monotonicity", measure.label, {"t": t, "pairs": 1},
        np.maximum(0.0, r2.values - r1.values), tol,
    )


def check_convexity(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
) -> PropertyReport:
    """rho_{tu}(lam X + (1-lam) Y) <= lam rho_{tu}(X) + (1-lam) rho_{tu}(Y) + tol
    at lam = 0.25, 0.5, 0.75, with partner Y = sin(B_u); the tolerance is
    probed on X."""
    lambdas = (0.25, 0.5, 0.75)
    f1, f2 = _terminal(ctx, claim), _terminal(ctx, claim_from_label("sin", u))
    tol = NOISE_MULT * noise_sigma(ctx, measure, f1, t, u)
    r1 = measure.evaluate(ctx, t, f1, maturity=u)
    r2 = measure.evaluate(ctx, t, f2, maturity=u)
    violations = []
    for lam in lambdas:
        mix = RandomField(max(f1.index, f2.index), lam * f1.values + (1 - lam) * f2.values)
        rm = measure.evaluate(ctx, t, mix, maturity=u)
        violations.append(np.maximum(0.0, rm.values - lam * r1.values - (1 - lam) * r2.values))
    return _report(
        ctx, "convexity", measure.label, {"t": t, "lambdas": list(lambdas)},
        np.concatenate(violations), tol,
    )


def check_time_consistency(
    ctx: LsmcContext,
    measure: RiskMeasure,
    kind: str,
    claim: ClaimLike,
    s: int,
    t: int,
    u: int,
) -> PropertyReport:
    """Nesting relations over s <= t <= u.

    strong: rho_{st}(-rho_{tu}(X)) = rho_{su}(X)
    weak:   rho_{su}(rho_{tu}(0) - rho_{tu}(X)) = rho_{su}(X)
    sub:    rho_{st}(-rho_{tu}(X)) <= rho_{su}(X)
    order:  under a cash-additive inner measure, a deterministic shift moves
            inner and outer values identically; for other measures the soft
            projected-twin probe runs and the verdict is vacuous when no pair
            attains equal inner values within the noise gate.

    Inner values become the terminal condition of the outer evaluation
    (held-value extension beyond their measurability index).
    """
    if not (0 <= s <= t <= u <= ctx.grid.n_steps):
        raise ValueError(f"need s <= t <= u, got ({s}, {t}, {u})")
    field = _terminal(ctx, claim)
    params = {"kind": kind, "s": s, "t": t, "u": u}
    rho_su = measure.evaluate(ctx, s, field, maturity=u)
    # nested evaluations carry regression/clamp noise the direct probe
    # cannot see, so the tolerance is floored at 0.5% of scale
    tolerance = max(NOISE_MULT * noise_sigma(ctx, measure, field, s, u), 5e-3 * (1.0 + abs(rho_su.mean())))

    if kind in ("strong", "sub"):
        inner = measure.evaluate(ctx, t, field, maturity=u)
        outer = measure.evaluate(ctx, s, -inner, maturity=t)
        diff = outer.values - rho_su.values
        violations = np.abs(diff) if kind == "strong" else np.maximum(0.0, diff)
        details = {"lhs_mean": _sig9(float(np.mean(outer.values))), "rhs_mean": _sig9(rho_su.mean())}
        return _report(ctx, f"tc_{kind}", measure.label, params, violations, tolerance, details=details)

    if kind == "weak":
        inner = measure.evaluate(ctx, t, field, maturity=u)
        inner0 = measure.evaluate(ctx, t, claim_from_label("const:0", u))
        arg = RandomField(t, inner0.values - inner.values)
        outer = measure.evaluate(ctx, s, arg, maturity=u)
        diff = outer.values - rho_su.values
        rhs_mean = rho_su.mean()
        details = {
            "lhs_mean": _sig9(float(np.mean(outer.values))),
            "rhs_mean": _sig9(rhs_mean),
            "ratio": _sig9(float(np.mean(outer.values)) / rhs_mean) if abs(rhs_mean) > 1e-14 else None,
        }
        return _report(ctx, "tc_weak", measure.label, params, np.abs(diff), tolerance, details=details)

    if kind == "order":
        if measure.is_cash_additive:
            violations, details = [], {}
            for c in (0.5, 1.0):
                shifted_f = RandomField(field.index, field.values + c)
                d_in = measure.evaluate(ctx, t, shifted_f, maturity=u).values - measure.evaluate(
                    ctx, t, field, maturity=u
                ).values
                d_out = measure.evaluate(ctx, s, shifted_f, maturity=u).values - rho_su.values
                violations.append(np.abs(d_out - d_in))
                details[f"shift_gap[c={c:g}]"] = _sig9(float(np.mean(np.abs(d_out - d_in))))
            return _report(
                ctx, "tc_order", measure.label, params, np.concatenate(violations), tolerance,
                details=details,
            )
        # soft probe: projected twin, gated on inner agreement
        proj = ctx.projector(field.index)
        twin = RandomField(field.index, proj.fitted(field.values))
        inner_a = measure.evaluate(ctx, t, field, maturity=u)
        inner_b = measure.evaluate(ctx, t, twin, maturity=u)
        gate = float(np.max(np.abs(inner_a.values - inner_b.values)))
        if gate > tolerance:
            return _report(
                ctx, "tc_order", measure.label, params, np.zeros(1), tolerance,
                details={"note": "no admissible equal-inner pair (soft probe gated out)",
                         "inner_gate": _sig9(gate)},
            )
        outer_b = measure.evaluate(ctx, s, twin, maturity=u)
        return _report(
            ctx, "tc_order", measure.label, params, np.abs(outer_b.values - rho_su.values),
            tolerance, details={"inner_gate": _sig9(gate)},
        )

    raise ValueError(f"unknown time-consistency kind {kind!r}")


def check_premium_identity(
    ctx: LsmcContext, driver: Driver, claim: ClaimLike, t: int, u: int, v: int
) -> PropertyReport:
    """gamma(t,u,v,X) computed directly and through the premium measure
    agree within PREMIUM_REL relative or PREMIUM_ABS absolute, and the
    importance weights have mean within WEIGHT_TOL of 1."""
    res = gamma_via_premium_measure(ctx, driver, claim, t, u, v)
    gap = abs(res.premium_value - res.gamma_mean)
    rel = gap / max(abs(res.gamma_mean), 1e-12)
    ok = rel <= PREMIUM_REL or gap <= PREMIUM_ABS
    ok = ok and 1.0 - WEIGHT_TOL <= res.weight_mean <= 1.0 + WEIGHT_TOL
    return PropertyReport(
        property="gamma_premium_identity", construction=f"driver:{driver.label}",
        params={"t": t, "u": u, "v": v}, verdict=ok, tolerance=PREMIUM_REL, max_violation=rel,
        violation_fraction=0.0, witness=None,
        seed=ctx.ensemble.seed, n_paths=ctx.ensemble.n_paths, n_steps=ctx.grid.n_steps,
        details={
            "gamma": f"{res.gamma_mean:.9g}",
            "premium": f"{res.premium_value:.9g}",
            "weight_mean": f"{res.weight_mean:.9g}",
            "ess": f"{res.ess:.9g}",
        },
    )


# ---------------------------------------------------------------------------
# The verify suite
# ---------------------------------------------------------------------------

def run_check(
    ctx: LsmcContext, name: str, measure: RiskMeasure, claim: ClaimLike, s: int, t: int, u: int, v: int
) -> PropertyReport:
    """One named check over the window s <= t <= u <= v; `claim` is read at
    u.  Restriction and h-longevity both read gamma(t, u, v, X).  The check
    functions are looked up at call time, so rebinding a module attribute
    reaches every caller."""
    if name == "normalization":
        return check_normalization(ctx, measure, s, t, u)
    if name == "rho0_nonpositive":
        return check_nonpositive_at_zero(ctx, measure, s, t, u)
    if name == "restriction":
        return check_restriction(ctx, measure, claim, t, v)
    if name == "h_longevity":
        return check_longevity(ctx, measure, claim, t, u, v)
    if name == "cash_additivity":
        return check_cash_additivity(ctx, measure, claim, t, u)
    if name == "cash_subadditivity":
        return check_cash_subadditivity(ctx, measure, claim, t, u)
    if name in ("tc_strong", "tc_weak", "tc_sub", "tc_order"):
        return check_time_consistency(ctx, measure, name.removeprefix("tc_"), claim, s, t, u)
    if name == "monotonicity":
        return check_monotonicity(ctx, measure, claim, t, u)
    if name == "convexity":
        return check_convexity(ctx, measure, claim, s, u)
    raise ValueError(f"unknown check {name!r}")


# The taxonomy: its properties in report order, and each construction's claim
# and the generator whose g(t, y, 0) it shares (`family:<label>` names a
# family); its expected verdicts are that generator's generator_verdicts.
# Discount- and shift-sensitive constructions get a nonnegative claim with a
# nonzero mean so consistency gaps cannot hide at zero; loss-based
# constructions get the sign-indefinite claim their transform needs.
PROPERTIES = (
    "normalization", "rho0_nonpositive", "restriction", "h_longevity",
    "tc_strong", "tc_weak", "tc_sub", "tc_order",
)
TAXONOMY: dict[str, tuple[str, str]] = {
    "driver:zero": ("call:-2", "zero"),
    "driver:abs_z": ("call:-2", "abs_z"),
    "driver:quad_z": ("call:-2", "quad_z"),
    "driver:linear_y:0.1": ("call:-2", "linear_y:0.1"),
    "driver:csa_example": ("call:-2", "csa_example"),
    "driver:csa_example_shift": ("call:-2", "csa_example_shift"),
    "qent_bsde:0.5,0": ("brownian", "q_entropic:0.5"),
    "qent:0.5,0": ("brownian", "q_entropic:0.5"),
    "qent_tr:0.5,0,0.2": ("brownian", "q_entropic_translated:0.5,0.2"),
    "entropic": ("brownian", "quad_z"),
    "discounted:mean,0.1": ("call:-2", "linear_y:0.1"),
    "family_losses:translated_family:0.5,0.4": ("brownian", "family:translated_family:0.5,0.4"),
}


def taxonomy_rows() -> list[tuple[str, str]]:
    """(measure label, claim label) pairs for the implication matrix."""
    return [(label, claim) for label, (claim, _) in TAXONOMY.items()]


IMPLICATIONS = (
    ("weak_implies_order", ("tc_weak",), "tc_order"),
    ("strong_norm_restr_implies_weak", ("tc_strong", "normalization", "restriction"), "tc_weak"),
    ("weak_longevity_rho0_implies_sub", ("tc_weak", "h_longevity", "rho0_nonpositive"), "tc_sub"),
)

# The sample the generator rules read: times, levels y (kept where the domain
# guard admits them) and family maturities.
_RULE_TS = np.linspace(0.0, 1.0, 11)
_RULE_YS = np.linspace(-2.0, 2.0, 9)
_RULE_US = (0.25, 0.5, 1.0)


def generator_verdicts(generator: Union[Driver, DriverFamily]) -> dict[str, bool]:
    """Expected verdict of each PROPERTIES check on a measure that shares
    the generator's g(t, y, 0), from five rules on the _RULE_* sample; a
    family is read through its members at _RULE_US.  Zero and sign tests
    are judged at ZERO_TOL, like the exact checks."""
    members = [generator.at(u) for u in _RULE_US] if isinstance(generator, DriverFamily) else [generator]
    ys = _RULE_YS[np.all([m.guard_ok(_RULE_YS) for m in members], axis=0)]
    # g[member, z, t, y] at z = 0 and z = 1
    g = np.array([[[m(t, ys, np.full((ys.size, 1), z)) for t in _RULE_TS] for z in (0.0, 1.0)]
                  for m in members])
    g0 = g[:, 0]
    at_zero = g0[..., ys == 0.0]
    verdicts = dict.fromkeys(PROPERTIES, True)
    # rho_{tu}(0) solves Y' = -g(s, Y, 0) back from 0: it vanishes iff
    # g(t, 0, 0) = 0, and turns positive where g(t, 0, 0) > 0
    verdicts["normalization"] = bool(np.all(np.abs(at_zero) <= ZERO_TOL))
    verdicts["rho0_nonpositive"] = bool(np.all(at_zero <= ZERO_TOL))
    # past the claim's index Z = 0 and Y' = -g(s, Y, 0): gamma vanishes for
    # every claim iff g(t, ., 0) = 0 (horizon-blindness), and is >= 0 by
    # the comparison theorem iff g(t, ., 0) >= 0 (h-longevity)
    verdicts["restriction"] = bool(np.all(np.abs(g0) <= ZERO_TOL))
    verdicts["h_longevity"] = bool(np.all(g0 >= -ZERO_TOL))
    # observed, not derived: weak consistency holds on the rows whose
    # g(t, ., 0) is constant in y; IMPLICATIONS holds the theorem side
    verdicts["tc_weak"] = bool(np.all(np.ptp(g0, axis=-1) <= ZERO_TOL))
    # one generator has the BSDE flow property; members that differ break it
    verdicts["tc_strong"] = bool(np.all(np.ptp(g, axis=0) <= ZERO_TOL))
    return verdicts


def _generator(label: str) -> Union[Driver, DriverFamily]:
    """A TAXONOMY generator: `family:<family label>` or a driver label."""
    name, _, arg = label.partition(":")
    return family_from_label(arg) if name == "family" else driver_from_label(label)


EXPECTED_VERDICTS: dict[str, dict[str, bool]] = {
    label: generator_verdicts(_generator(gen)) for label, (_, gen) in TAXONOMY.items()
}


def run_taxonomy(
    ctx: LsmcContext, rows: Sequence[tuple[RiskMeasure, ClaimLike]], s: int, t: int, u: int, v: int
) -> tuple[list[PropertyReport], list[dict]]:
    """Every PROPERTIES check on every (measure, claim) row, plus the
    implication audit.

    Returns (reports, implication_failures); a failure names a measure that
    passed every premise check of an implication and failed its conclusion.
    """
    reports: list[PropertyReport] = []
    # sign-indefinite probe for the gamma sign law: g(.,y,0) must be exercised
    # on both signs of y, which a one-sided claim cannot do; gamma is read at
    # the interior node t so pathwise sign failures stay visible
    longevity_probe = RandomField(u, ctx.ensemble.levels(u)[:, 0])
    for measure, claim in rows:
        field = _terminal(ctx, claim)
        # the checks of one row re-evaluate the same (t, maturity, field)
        # many times; the memo lives for the row only, which bounds its size
        with ctx.evaluation_memo():
            per_measure = [
                run_check(ctx, name, measure, longevity_probe if name == "h_longevity" else field,
                          s, t, u, v)
                for name in PROPERTIES
            ]
        reports.extend(per_measure)

    verdicts = {(r.construction, r.property): r.verdict for r in reports}
    failures = [
        {"measure": m.label, "implication": name}
        for m, _ in rows
        for name, premises, conclusion in IMPLICATIONS
        if all(verdicts[(m.label, p)] for p in premises) and not verdicts[(m.label, conclusion)]
    ]
    return reports, failures


# The premium-identity cross-check: gamma through the premium measure against
# the direct gamma, for csa_example shifted by 0.1 and for the entropic driver
# (q = 1) translated by 0.1; both have a nonzero gamma.
GAMMA_CROSS = (
    shifted(driver_from_label("csa_example"), 0.1),
    driver_from_label("q_entropic_translated:1,0.1"),
)


def run_gamma_cross(
    ctx: LsmcContext, claim_label: str, s: int, t: int, u: int
) -> list[tuple[str, PropertyReport]]:
    """(driver label, check_premium_identity report) per GAMMA_CROSS driver,
    over the window s <= t <= u: the claim is held at t, so gamma(s, t, u, X)
    sits one place earlier in the window than the taxonomy's gamma(t, u, v, X)."""
    held = claim_from_label(claim_label, t)
    return [(drv.label, check_premium_identity(ctx, drv, held, s, t, u)) for drv in GAMMA_CROSS]


def audit_expected(reports: Sequence[PropertyReport]) -> list[dict]:
    """Taxonomy verdicts that differ from EXPECTED_VERDICTS, in table order;
    an expected (construction, property) with no report is a failure too."""
    observed = {(r.construction, r.property): r.verdict for r in reports}
    failures = []
    for label, expected in EXPECTED_VERDICTS.items():
        for prop, want in expected.items():
            got = observed.get((label, prop))
            if got is None:
                failures.append({"measure": label, "check": prop, "error": "not run"})
            elif got != want:
                failures.append({"measure": label, "check": prop, "expected": want, "observed": got})
    return failures


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def reports_to_json_lines(reports: Sequence[PropertyReport]) -> str:
    return "".join(json.dumps(r.as_dict(), sort_keys=False) + "\n" for r in reports)


def reports_to_csv(reports: Sequence[PropertyReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        row = r.as_dict()
        row["params"] = json.dumps(row["params"], sort_keys=True)
        row["witness"] = json.dumps(row["witness"], sort_keys=True)
        writer.writerow(row)
    return buf.getvalue()
