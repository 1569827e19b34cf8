"""Axiom and horizon-risk verification harness.

Every check produces a PropertyReport, and the verdict policy is fixed:
no check takes a tolerance or a cap.  Exact identities are judged at a hard
tolerance with no violating path allowed: CASH_TOL for cash additivity under
constant shifts, ZERO_TOL for rho(0) (normalization, rho0_nonpositive).
Monte Carlo comparisons size their tolerance as NOISE_MULT times a
basis-refinement probe (the same quantity recomputed with the polynomial
degree raised by one; the spread of the difference sets the numerical noise
scale, and the probe returns the estimate it probed for the check to judge)
and pass when at most a FRACTION_CAP share of paths violates it and at most
FRACTION_CAP/10 violates HARD_MULT times it: regression noise breaks
pathwise comparison theorems that hold in the continuum.  Mean-level
violations are judged against Monte Carlo standard errors, and the
premium-measure identity at PREMIUM_REL / PREMIUM_ABS (WEIGHT_TOL on the
importance weights).  `_report` alone names a witness: none on a pass, and
on a fail the worst path, its violation and its case (shift, lambda or
rho(0) pair).  `run_check` calls every check by its CHECKS name, and
GAMMA_CROSS holds the drivers of the premium-identity cross-check.

TAXONOMY holds the verify suite's constructions, each with its claim and
the generator whose g(t, y, 0) it shares; EXPECTED_VERDICTS follows from
that generator by six rules (`generator_verdicts`): g(t, 0, 0) != 0 fails
normalization, and rho0_nonpositive where it is > 0; g(t, ., 0) not
identically 0 fails restriction; g(t, y, 0) < 0 somewhere fails
h_longevity; g(t, ., 0) not constant in y fails tc_weak (observed); family
members that differ fail tc_strong; tc_order always holds (observed on qent_tr).

The horizon-risk correction gamma(t,u,v,X) = rho_{tv}(X) - rho_{tu}(X) is
computed twice: directly, and through the equivalent change-of-measure
representation (importance weights built from the z-difference quotient of
the generator, with left-point Ito discretization of the stochastic
integral).  The z-difference quotient (g(Ybar, Z^v) - g(Ybar, Zbar)) /
(Z^v - Zbar) makes dz (Z^v - Zbar) reproduce the generator gap exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dfield, fields, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bsde import Driver, DriverFamily, backward, driver_from_label, family_from_label, shifted
from .bsde import solve  # re-exported: bench/test_bench.py asserts diagnostics.solve is bsde.solve
from .parallel import in_processes
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
    "taxonomy_row",
    "implication_failures",
    "run_taxonomy",
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
TWIN_GAP = 1e-12  # tc_order: equal inner values within TWIN_GAP (1 + |rho_tu(X)|) per path,
TWIN_PASSES = 30  # found within TWIN_PASSES evaluations


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
    details: Optional[dict] = None,
    cases: Optional[tuple] = None,
    holds: bool = True,
) -> PropertyReport:
    """Verdict rule: an exact check passes iff max violation <= tolerance.
    A Monte Carlo check lets at most a FRACTION_CAP share of paths violate
    beyond `tolerance`, and at most FRACTION_CAP/10 beyond HARD_MULT *
    tolerance (polynomial fits throw occasional single-path tail artifacts
    that say nothing about the property).  `holds` is a further condition
    the verdict needs beyond the paths (h_longevity's mean, tc_order's twin).

    violations holds one value per path, or, with cases = (key, labels), one
    row of them per case, labels[c] naming row c.  The witness rule, the only
    one in the harness: a passing report has none, and a failing one names
    its worst path and violation, and that path's case under `key`."""
    v = np.asarray(violations, dtype=float)
    max_v = float(np.max(v)) + 0.0 if v.size else 0.0  # + 0.0 writes a -0.0 maximum as 0.0
    frac = float(np.mean(v > tolerance)) if v.size else 0.0
    frac_hard = float(np.mean(v > HARD_MULT * tolerance)) if v.size else 0.0
    ok = (max_v <= tolerance) if exact else (frac <= FRACTION_CAP and frac_hard <= FRACTION_CAP / 10.0)
    ok = ok and holds
    witness = None
    if v.size and not ok:
        at = np.unravel_index(int(np.argmax(v)), v.shape)
        witness = {"path": int(at[-1]), "violation": _sig9(max_v)}
        if cases is not None:
            key, labels = cases
            witness[key] = labels[at[0]]
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


def noise_sigma(
    ctx: LsmcContext, measure: RiskMeasure, claim: ClaimLike, t: int, u: int
) -> tuple[RandomField, float]:
    """(rho_{tu}(X), its per-path numerical noise scale by the degree+1 probe):
    the probed estimate is returned, so no check evaluates it twice."""
    a = measure.evaluate(ctx, t, claim, maturity=u)
    b = measure.evaluate(_refined(ctx), t, claim, maturity=u)
    return a, _spread(a.values - b.values, a.stderr())


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
    g = _gamma_field(ctx, measure, field, t, u, v)

    def block_gamma(sub, rows):
        return _gamma_field(sub, measure, RandomField(field.index, field.values[rows]), t, u, v).mean()

    se = estimate_stderr(ctx, g, block_gamma)
    return LongevityResult(gamma=g, gamma_mean=g.mean(), gamma_stderr=se)


def _gamma_field(ctx, measure, field, t, u, v) -> RandomField:
    """rho_{tv}(X) - rho_{tu}(X) pathwise, without a standard error."""
    rho_u = measure.evaluate(ctx, t, field, maturity=u)
    rho_v = measure.evaluate(ctx, t, field, maturity=v)
    return RandomField(t, rho_v.values - rho_u.values)


def gamma_via_premium_measure(
    ctx: LsmcContext,
    driver: Driver,
    claim: ClaimLike,
    t: int,
    u: int,
    v: int,
) -> LongevityResult:
    """Horizon-risk correction through the equivalent premium measure.

    Runs the two backward passes (maturity u, and maturity v via the
    held-value extension), forms pathwise difference quotients of the
    generator in y and z (zero where the denominators vanish), accumulates
    the importance log-weight -0.5 int |dz|^2 ds + int dz dB over [t, v]
    with left-point evaluation (node by node from v back to t, as the two
    passes form them in lockstep), and returns the weighted expectation of
    exp(int_t^v dy ds) * int_u^v g(s, -X, 0) ds.  At t = 0 this is an
    importance-weighted mean, and gamma_stderr is None: the direct gamma is
    one root constant there, whose spread is no standard error (gamma()
    estimates one by block split).
    """
    field = _terminal(ctx, claim)
    if not (t <= field.index <= u < v <= ctx.grid.n_steps):
        raise ValueError(f"need t <= claim index <= u < v, got ({t}, {field.index}, {u}, {v})")
    ens, grid = ctx.ensemble, ctx.grid
    n, dt = ens.n_paths, grid.dt
    x = field.values

    terminal = RandomField(field.index, -x)
    u_pass = backward(driver, terminal, u, ctx, stop=t)
    # (y_bar, z_bar) is the u-solution, held at (-X, 0) from u on
    y_bar, z_bar = -x, np.zeros((n, 1))
    log_w = np.zeros(n)
    dy_int = np.zeros(n)
    for i, y_v, z_v in backward(driver, terminal, v, ctx, stop=t):
        t_i = i * dt
        if i < u:
            _, y_bar, z_bar = next(u_pass)

        # y-difference quotient at the v-solution's z
        g_bar_v = driver(t_i, y_bar, z_v)
        num_y = driver(t_i, y_v, z_v) - g_bar_v
        den_y = y_v - y_bar
        dy = np.where(den_y != 0.0, num_y / np.where(den_y != 0.0, den_y, 1.0), 0.0)
        dy_int += dy * dt

        # z-difference quotient at y_bar: dz * (z_v - z_bar) is exactly
        # g(., y_bar, z_v) - g(., y_bar, z_bar)
        num_z = g_bar_v - driver(t_i, y_bar, z_bar)
        den_z = (z_v - z_bar)[:, 0]
        dz = np.where(den_z != 0.0, num_z / np.where(den_z != 0.0, den_z, 1.0), 0.0)

        log_w += -0.5 * (dz * dz) * dt + dz * ens.increment(i)[:, 0]

    weights = np.exp(log_w)
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise DegenerateWeights("importance weights must be finite and strictly positive")
    ess = float(np.sum(weights) ** 2 / np.sum(weights**2))
    if ess < 0.1 * n:
        raise DegenerateWeights(f"effective sample size {ess:.1f} below 10% of {n} paths")

    integrand = np.zeros(n)
    z0 = np.zeros((n, 1))
    for i in range(u, v):
        integrand += driver(i * dt, -x, z0) * dt
    payload = np.exp(dy_int) * integrand

    premium = ctx.cond_expect(RandomField(v, weights * payload), t).mean()

    g_direct = RandomField(t, y_v - y_bar)
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

_SHIFTS = {"0": 0.0, "0.1": 0.1, "0.5": 0.5, "1": 1.0}  # label -> constant shift m


def _shift_gaps(ctx, measure, claim, rho_x, t, u):
    """(pathwise gaps rho(X+m) - (rho(X) - m), one row per shift of _SHIFTS,
    and their means as report details), for rho_x = rho_{tu}(X)."""
    field = _terminal(ctx, claim)
    gaps = np.stack([measure.evaluate(ctx, t, RandomField(field.index, field.values + m), maturity=u).values
                     - (rho_x.values - m) for m in _SHIFTS.values()])
    return gaps, {f"mean_gap[{label}]": _sig9(float(np.mean(g))) for label, g in zip(_SHIFTS, gaps)}


def check_cash_additivity(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
) -> PropertyReport:
    """Equality rho(X+m) = rho(X) - m over the constant shifts of _shift_gaps,
    judged at CASH_TOL: for cash-additive constructions the engine reproduces
    them exactly up to solver round-off.  A failure names its shift and path.

    Constant shifts only: every regression conditions on the Brownian level
    at its node alone, so a random F_t-measurable shift m is outside the basis
    at the later nodes of a solve, and the closed form's product
    e^{-m} E[e^{-X} | F_t] is outside it too.  The gap of such a shift would
    measure the basis, not the construction.
    """
    gaps, details = _shift_gaps(ctx, measure, claim, measure.evaluate(ctx, t, claim, maturity=u), t, u)
    return _report(
        ctx, "cash_additivity", measure.label, {"t": t, "u": u}, np.abs(gaps), CASH_TOL,
        exact=True, details=details, cases=("shift", list(_SHIFTS)),
    )


def check_cash_subadditivity(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
) -> PropertyReport:
    """One-sided rho(X+m) >= rho(X) - m over the nonnegative constant shifts
    of _shift_gaps, rho(X) being the noise probe's estimate.  A failure names
    its shift and path."""
    rho_x, sigma = noise_sigma(ctx, measure, claim, t, u)
    gaps, details = _shift_gaps(ctx, measure, claim, rho_x, t, u)
    return _report(
        ctx, "cash_subadditivity", measure.label, {"t": t, "u": u}, np.maximum(0.0, -gaps),
        NOISE_MULT * sigma, details=details, cases=("shift", list(_SHIFTS)),
    )


def _rho0_check(ctx, measure, name, s, t, u, violation) -> PropertyReport:
    """An exact check on rho_{ab}(0) for the pairs (a, b) = (s, t), (t, u):
    one row of pathwise violation(rho_{ab}(0)) per pair, so that a failure
    names its pair and path."""
    pairs = [[s, t], [t, u]]
    rows = [violation(measure.evaluate(ctx, a, claim_from_label("const:0", b)).values) for a, b in pairs]
    return _report(ctx, name, measure.label, {"pairs": pairs}, rows, ZERO_TOL, exact=True, cases=("pair", pairs))


def check_normalization(
    ctx: LsmcContext,
    measure: RiskMeasure,
    s: int,
    t: int,
    u: int,
) -> PropertyReport:
    """|rho_{st}(0)| and |rho_{tu}(0)|: the zero claim is deterministic, so a
    normalized construction returns exactly zero (no Monte Carlo noise).  A
    failure names its pair and path."""
    return _rho0_check(ctx, measure, "normalization", s, t, u, np.abs)


def check_nonpositive_at_zero(
    ctx: LsmcContext,
    measure: RiskMeasure,
    s: int,
    t: int,
    u: int,
) -> PropertyReport:
    """rho_{st}(0) <= 0 and rho_{tu}(0) <= 0 (premise of the sub-consistency
    law), judged like normalization on the positive parts."""
    return _rho0_check(ctx, measure, "rho0_nonpositive", s, t, u, lambda rho0: np.maximum(rho0, 0.0))


def _gamma_noise(ctx, measure, field, t, u, v) -> tuple[LongevityResult, float]:
    """(gamma(t, u, v, X), the noise scale of the horizon correction itself):
    common components of the two maturities cancel under shared paths, so
    the single-evaluation probe would badly overstate it."""
    res = gamma(ctx, measure, field, t, u, v)
    twin = _gamma_field(_refined(ctx), measure, field, t, u, v)  # its standard error would go unused
    return res, _spread(res.gamma.values - twin.values, res.gamma_stderr)


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
    res, sigma = _gamma_noise(ctx, measure, field, t, u, v)
    return _report(
        ctx, "restriction", measure.label, {"t": t, "u": u, "v_grid": [v]},
        np.abs(res.gamma.values), max(NOISE_MULT * sigma, ZERO_TOL),
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
    res, sigma = _gamma_noise(ctx, measure, _terminal(ctx, claim), t, u, v)
    return _report(
        ctx, "h_longevity", measure.label, {"t": t, "u": u, "v_grid": [v]},
        np.maximum(0.0, -res.gamma.values), NOISE_MULT * sigma,
        details={f"gamma_mean[v={v}]": _sig9(res.gamma_mean),
                 f"gamma_stderr[v={v}]": _sig9(res.gamma_stderr)},
        holds=not res.gamma_mean < -2.0 * res.gamma_stderr - 1e-12,
    )


def check_monotonicity(
    ctx: LsmcContext,
    measure: RiskMeasure,
    claim: ClaimLike,
    t: int,
    u: int,
) -> PropertyReport:
    """X - 0.5 <= X pathwise, so rho_{tu}(X - 0.5) >= rho_{tu}(X) pathwise;
    the tolerance is probed on X - 0.5, whose probed estimate is compared."""
    upper = _terminal(ctx, claim)
    lower = RandomField(upper.index, upper.values - 0.5)
    r1, sigma = noise_sigma(ctx, measure, lower, t, u)
    r2 = measure.evaluate(ctx, t, upper, maturity=u)
    return _report(
        ctx, "monotonicity", measure.label, {"t": t, "pairs": 1},
        np.maximum(0.0, r2.values - r1.values), NOISE_MULT * sigma,
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
    probed on X, whose probed estimate is rho_{tu}(X).  A failure names its
    lam and path."""
    lambdas = (0.25, 0.5, 0.75)
    f1, f2 = _terminal(ctx, claim), _terminal(ctx, claim_from_label("sin", u))
    r1, sigma = noise_sigma(ctx, measure, f1, t, u)
    r2 = measure.evaluate(ctx, t, f2, maturity=u)
    violations = []
    for lam in lambdas:
        mix = RandomField(max(f1.index, f2.index), lam * f1.values + (1 - lam) * f2.values)
        rm = measure.evaluate(ctx, t, mix, maturity=u)
        violations.append(np.maximum(0.0, rm.values - lam * r1.values - (1 - lam) * r2.values))
    return _report(
        ctx, "convexity", measure.label, {"t": t, "lambdas": list(lambdas)},
        np.stack(violations), NOISE_MULT * sigma, cases=("lambda", lambdas),
    )


def _equal_inner_twin(ctx, measure, inner, u):
    """(X', |rho_{tu}(X') - rho_{tu}(X)|) for inner = rho_{tu}(X), X' measurable at
    t = inner.index, where every construction is regression-free and nonincreasing:
    per-path secant steps from X' = -inner (slope -1 after a flat or nonnegative
    secant; doubled, to at least 1 + |X'|, across flat stretches), bisected outside
    the path's bracket, until within TWIN_GAP.  _evaluate keeps them out of the memo."""
    t, r = inner.index, inner.values
    x, lo, hi = -r, np.full_like(r, -np.inf), np.full_like(r, np.inf)
    x_prev, f_prev, was_flat = x, np.full_like(r, np.nan), np.zeros(r.shape, dtype=bool)
    for k in range(TWIN_PASSES):
        f = measure._evaluate(ctx, t, RandomField(t, x), u).values
        gap = f - r
        miss = np.abs(gap) > TWIN_GAP * (1.0 + np.abs(r))
        if k == TWIN_PASSES - 1 or not miss.any():
            break
        lo, hi = np.where(miss & (gap > 0), x, lo), np.where(miss & (gap < 0), x, hi)  # F(lo) > r > F(hi)
        i = np.flatnonzero(miss)
        g, dx, df = gap[i], x[i] - x_prev[i], f[i] - f_prev[i]
        step, sec, flat = g.copy(), (df * dx < 0) & ~was_flat[i], df == 0
        step[sec] = -g[sec] * dx[sec] / df[sec]
        step[flat] = np.sign(g[flat]) * np.maximum(2.0 * np.abs(dx[flat]), 1.0 + np.abs(x[i][flat]))
        was_flat[i] = flat
        x_new, a, b = x[i] + step, lo[i], hi[i]
        out = ~((a < x_new) & (x_new < b)) & np.isfinite(a) & np.isfinite(b)
        x_new[out] = 0.5 * (a[out] + b[out])
        x_prev, f_prev, x = x, f, x.copy()
        x[i] = x_new
    return RandomField(t, x), np.abs(gap)


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
    order:  rho_{su}(X') = rho_{su}(X) for the F_t-measurable twin X' of
            _equal_inner_twin, whose rho_{tu}(X') meets rho_{tu}(X) within
            TWIN_GAP on every path; a twin that misses it fails the verdict.

    Inner values become the terminal condition of the outer evaluation
    (held-value extension beyond their measurability index).
    """
    if not (0 <= s <= t <= u <= ctx.grid.n_steps):
        raise ValueError(f"need s <= t <= u, got ({s}, {t}, {u})")
    if kind not in ("strong", "weak", "sub", "order"):
        raise ValueError(f"unknown time-consistency kind {kind!r}")
    field = _terminal(ctx, claim)
    params = {"kind": kind, "s": s, "t": t, "u": u}
    rho_su, sigma = noise_sigma(ctx, measure, field, s, u)
    # nested evaluations carry regression/clamp noise the direct probe
    # cannot see, so the tolerance is floored at 0.5% of scale
    tolerance = max(NOISE_MULT * sigma, 5e-3 * (1.0 + abs(rho_su.mean())))
    inner = measure.evaluate(ctx, t, field, maturity=u)
    if kind in ("strong", "sub"):
        outer = measure.evaluate(ctx, s, -inner, maturity=t)
    elif kind == "weak":
        inner0 = measure.evaluate(ctx, t, claim_from_label("const:0", u))
        outer = measure.evaluate(ctx, s, RandomField(t, inner0.values - inner.values), maturity=u)
    else:
        twin, gap = _equal_inner_twin(ctx, measure, inner, u)
        outer = measure.evaluate(ctx, s, twin, maturity=u)
    diff, lhs_mean, rhs_mean = outer.values - rho_su.values, float(np.mean(outer.values)), rho_su.mean()
    details = {"lhs_mean": _sig9(lhs_mean), "rhs_mean": _sig9(rhs_mean)}
    if kind == "weak":
        details["ratio"] = _sig9(lhs_mean / rhs_mean) if abs(rhs_mean) > 1e-14 else None
    holds = True
    if kind == "order":  # a twin that misses its bound proves nothing, so it fails
        details["inner_gap"] = _sig9(float(np.max(gap)))
        holds = bool(np.all(gap <= TWIN_GAP * (1.0 + np.abs(inner.values))))
    violations = np.maximum(0.0, diff) if kind == "sub" else np.abs(diff)
    return _report(ctx, f"tc_{kind}", measure.label, params, violations, tolerance,
                   details=details, holds=holds)


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

# name -> the check, called (ctx, measure, claim, s, t, u, v).  The lambdas
# look check_* up at call time, so rebinding a module attribute reaches every
# caller.  Restriction and h-longevity both read gamma(t, u, v, X).
CHECKS: dict[str, Callable[..., PropertyReport]] = {
    "normalization": lambda ctx, m, x, s, t, u, v: check_normalization(ctx, m, s, t, u),
    "rho0_nonpositive": lambda ctx, m, x, s, t, u, v: check_nonpositive_at_zero(ctx, m, s, t, u),
    "restriction": lambda ctx, m, x, s, t, u, v: check_restriction(ctx, m, x, t, v),
    "h_longevity": lambda ctx, m, x, s, t, u, v: check_longevity(ctx, m, x, t, u, v),
    "cash_additivity": lambda ctx, m, x, s, t, u, v: check_cash_additivity(ctx, m, x, t, u),
    "cash_subadditivity": lambda ctx, m, x, s, t, u, v: check_cash_subadditivity(ctx, m, x, t, u),
    "tc_strong": lambda ctx, m, x, s, t, u, v: check_time_consistency(ctx, m, "strong", x, s, t, u),
    "tc_weak": lambda ctx, m, x, s, t, u, v: check_time_consistency(ctx, m, "weak", x, s, t, u),
    "tc_sub": lambda ctx, m, x, s, t, u, v: check_time_consistency(ctx, m, "sub", x, s, t, u),
    "tc_order": lambda ctx, m, x, s, t, u, v: check_time_consistency(ctx, m, "order", x, s, t, u),
    "monotonicity": lambda ctx, m, x, s, t, u, v: check_monotonicity(ctx, m, x, t, u),
    "convexity": lambda ctx, m, x, s, t, u, v: check_convexity(ctx, m, x, s, u),
}


def run_check(
    ctx: LsmcContext, name: str, measure: RiskMeasure, claim: ClaimLike, s: int, t: int, u: int, v: int
) -> PropertyReport:
    """One CHECKS entry over the window s <= t <= u <= v; `claim` is read at u."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    return CHECKS[name](ctx, measure, claim, s, t, u, v)


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
    the generator's g(t, y, 0), from six rules on the _RULE_* sample; a
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
    # tc_order stays True: rho_{tu} and rho_{su} share the maturity u, hence one
    # g_u, whose flow makes rho_{su}(X) a function of rho_{tu}(X); observed on the
    # closed-form qent_tr rows, whose rate breaks that (q < 1: exp_q(a+b) != exp_q(a) exp_q(b))
    return verdicts


def _generator(label: str) -> Union[Driver, DriverFamily]:
    """A TAXONOMY generator: `family:<family label>` or a driver label."""
    name, _, arg = label.partition(":")
    return family_from_label(arg) if name == "family" else driver_from_label(label)


EXPECTED_VERDICTS: dict[str, dict[str, bool]] = {
    label: generator_verdicts(_generator(gen)) for label, (_, gen) in TAXONOMY.items()
}


def taxonomy_row(
    ctx: LsmcContext, measure: RiskMeasure, claim: ClaimLike, s: int, t: int, u: int, v: int
) -> list[PropertyReport]:
    """Every PROPERTIES check on one (measure, claim) row, in PROPERTIES order."""
    # sign-indefinite probe for the gamma sign law: g(.,y,0) must be exercised
    # on both signs of y, which a one-sided claim cannot do; gamma is read at
    # the interior node t so pathwise sign failures stay visible
    longevity_probe = RandomField(u, ctx.ensemble.levels(u)[:, 0])
    field = _terminal(ctx, claim)
    # the checks of one row re-evaluate the same (t, maturity, field) many
    # times; the memo lives for the row only, which bounds its size
    with ctx.evaluation_memo():
        return [
            run_check(ctx, name, measure, longevity_probe if name == "h_longevity" else field, s, t, u, v)
            for name in PROPERTIES
        ]


def implication_failures(reports: Sequence[PropertyReport]) -> list[dict]:
    """Per construction, in report order, each IMPLICATIONS entry whose
    premise checks all passed and whose conclusion failed."""
    verdicts = {(r.construction, r.property): r.verdict for r in reports}
    return [
        {"measure": label, "implication": name}
        for label in dict.fromkeys(r.construction for r in reports)
        for name, premises, conclusion in IMPLICATIONS
        if all(verdicts[(label, p)] for p in premises) and not verdicts[(label, conclusion)]
    ]


def run_taxonomy(
    ctx: LsmcContext, rows: Sequence[tuple[RiskMeasure, ClaimLike]], s: int, t: int, u: int, v: int
) -> tuple[list[PropertyReport], list[dict]]:
    """`taxonomy_row` on every (measure, claim) row, the rows run by
    `in_processes`, plus the implication audit.

    Returns (reports, implication_failures); a failure names a measure that
    passed every premise check of an implication and failed its conclusion.
    """
    per_row = in_processes(lambda row: taxonomy_row(ctx, *row, s, t, u, v), rows)
    reports = [r for row in per_row for r in row]
    return reports, implication_failures(reports)


# The premium-identity cross-check: gamma through the premium measure against
# the direct gamma (check_premium_identity), for csa_example shifted by 0.1
# and for the entropic driver (q = 1) translated by 0.1; both have a nonzero
# gamma.  The verify runs it over s <= t <= u with the claim held at t, so
# gamma(s, t, u, X) sits one place earlier in the window than the taxonomy's
# gamma(t, u, v, X).
GAMMA_CROSS = (
    shifted(driver_from_label("csa_example"), 0.1),
    driver_from_label("q_entropic_translated:1,0.1"),
)


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
