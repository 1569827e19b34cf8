"""Fully-dynamic risk measure constructions.

A measure maps (t-index, maturity-index, claim) to a RandomField at t.  The
constructions are: the backward solve of a driver or of a maturity-indexed
driver family (on -X or on the loss (X+beta)^-), the conditional mean, the
certainty-equivalent closed form ln_q E[exp_q(T(X)) | F_t] (entropic,
deformed-entropic, and deformed-entropic on losses with an optional
constant translation rate), and discount-wrapping of a cash-additive base
measure at one flat short rate.

Claims measurable before the requested maturity are handled by the terminal
extension built into the solver (value held, Z = 0 on the tail), so a measure
can be evaluated at any maturity >= the claim's measurability index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import tsallis
from .bsde import (
    Driver,
    DriverFamily,
    NonFiniteError,
    backward,
    driver_from_label,
    family_from_label,
    q_entropic,
)
from .stochastic import (
    Claim,
    LsmcContext,
    RandomField,
    digest,
    label_floats,
    label_number,
)
from .tsallis import DomainError

__all__ = [
    "RiskMeasure",
    "DriverMeasure",
    "MeanMeasure",
    "CertaintyEquivalent",
    "DiscountedMeasure",
    "measure_from_label",
]

ClaimLike = Union[Claim, RandomField]


def _terminal(ctx: LsmcContext, claim: ClaimLike) -> RandomField:
    if isinstance(claim, Claim):
        return claim.evaluate(ctx.ensemble)
    return claim


def _positive_part_of_loss(values: np.ndarray, beta: float) -> np.ndarray:
    """(X + beta)^- : the loss exceeding the acceptable level beta."""
    return np.maximum(-(values + beta), 0.0)


def _safe_ln_q(field: RandomField, q: float) -> RandomField:
    try:
        return RandomField(field.index, np.asarray(tsallis.ln_q(field.values, q)))
    except DomainError as exc:
        raise NonFiniteError(
            f"conditional expectation left the deformed-log domain ({exc}); "
            "enlarge the basis or path count"
        ) from exc


class RiskMeasure:
    """Base class: evaluation is a pure function of immutable inputs.

    While ctx has an evaluation memo open (LsmcContext.evaluation_memo),
    evaluate stores each result as a read-only copy under the measure
    object, the context's rows and basis, t, maturity, and the field's index
    and bytes, and serves a repeat from it.
    """

    label: str = ""
    is_cash_additive: bool = False

    def evaluate(
        self,
        ctx: LsmcContext,
        t_index: int,
        claim: ClaimLike,
        maturity: Optional[int] = None,
    ) -> RandomField:
        field = _terminal(ctx, claim)
        m = field.index if maturity is None else maturity
        if not (0 <= t_index <= m <= ctx.grid.n_steps):
            raise ValueError(f"need 0 <= t={t_index} <= u={m} <= {ctx.grid.n_steps}")
        if field.index > m:
            raise ValueError(f"claim measurable at {field.index} but maturity {m}")
        memo = ctx.memo
        if memo is None:
            return self._evaluate(ctx, t_index, field, m)
        key = (id(self), ctx.rows, ctx.basis, t_index, m, field.index, digest(field.values))
        if key not in memo:
            # a read-only copy: a cached result never aliases a caller's array
            result = self._evaluate(ctx, t_index, field, m)
            values = result.values.copy()
            values.setflags(write=False)
            memo[key] = (self, RandomField(result.index, values))  # self pins id(self)
        return memo[key][1]

    def _evaluate(self, ctx, t_index, field, maturity) -> RandomField:
        raise NotImplementedError


@dataclass
class DriverMeasure(RiskMeasure):
    """rho_{tu}(X) = Y_t of the backward pass to maturity u with generator g_u;
    the pass keeps only the row it has reached.

    The generator is a Driver (the same g at every maturity) or a DriverFamily
    (g_u = family.at(u)).  The terminal is -X, or with beta >= 0 set the loss
    (X+beta)^-: the losses composition keeps quadratic-generator members inside
    their domain guard for unbounded claims.  An empty label is derived from
    the generator and beta.
    """

    driver: Union[Driver, DriverFamily]
    beta: Optional[float] = None
    label: str = ""

    def __post_init__(self):
        if self.beta is not None and not 0.0 <= self.beta < np.inf:
            raise ValueError(f"acceptable loss level beta must be >= 0, got {self.beta}")
        family = isinstance(self.driver, DriverFamily)
        if not self.label:
            prefix = "family" if family else "driver"
            if self.beta is None:
                self.label = f"{prefix}:{self.driver.label}"
            else:  # beta = 0 keeps the registry's family_losses:<family> bytes
                beta_tag = f",{label_number(float(self.beta))}" if self.beta else ""
                self.label = f"{prefix}_losses:{self.driver.label}{beta_tag}"
        self.is_cash_additive = not family and self.beta is None and not self.driver.depends_on_y

    def _evaluate(self, ctx, t_index, field, maturity):
        driver = self.driver
        if isinstance(driver, DriverFamily):
            driver = driver.at(maturity * ctx.grid.dt)
        if self.beta is None:
            terminal = -field
        else:
            terminal = RandomField(field.index, _positive_part_of_loss(field.values, self.beta))
        y = terminal.values
        for _, y, _ in backward(driver, terminal, maturity, ctx, stop=t_index):
            pass
        return RandomField(t_index, y)


class MeanMeasure(RiskMeasure):
    """Negative conditional expectation, the simplest cash-additive base."""

    label = "mean"
    is_cash_additive = True

    def _evaluate(self, ctx, t_index, field, maturity):
        return ctx.cond_expect(-field, t_index)


@dataclass
class CertaintyEquivalent(RiskMeasure):
    """Closed form ln_q E[exp_q(T(X)) | F_t] with the fit clamped (clip=True).

    The terminal transform T is chosen by beta:

    - beta None: T(X) = -X.  q = 1 is the classical entropic measure, the
      only cash-additive member; q in (0,1) requires tsallis.in_domain(-X, q)
      pathwise and raises DomainError otherwise, which is the reason the
      losses transform exists.
    - beta >= 0: T(X) = (X+beta)^- + a (u - t), defined for every claim
      and always >= 0.  Without a rate it is the losses measure; one
      constant rate a >= 0, checked when the measure is built, makes
      longer horizons carry a nonnegative premium.

    q must lie in (0,1]; q within tsallis.Q_ONE_TOL of 1 takes the classical
    exp/log branch of the deformed pair.
    """

    q: float
    beta: Optional[float] = None
    a: Optional[float] = None

    def __post_init__(self):
        if self.beta is None:
            if self.a is not None:
                raise ValueError("a translation rate needs the losses transform (set beta)")
            self.label = "entropic" if tsallis.is_classical(self.q) else f"qent_closed:{label_number(self.q)}"
        elif not 0.0 <= self.beta < np.inf:
            raise ValueError(f"acceptable loss level beta must be >= 0, got {self.beta}")
        elif self.a is None:
            self.label = f"qent:{label_number(self.q)},{label_number(self.beta)}"
        elif not 0.0 <= self.a < np.inf:
            raise ValueError(f"translation rate must be >= 0, got {self.a}")
        else:
            self.label = f"qent_tr:{label_number(self.q)},{label_number(self.beta)},{label_number(self.a)}"
        tsallis.check_q(self.label, self.q)
        self.is_cash_additive = self.beta is None and tsallis.is_classical(self.q)

    def _evaluate(self, ctx, t_index, field, maturity):
        if self.beta is None:
            arg = -field.values
            if not tsallis.is_classical(self.q) and not np.all(tsallis.in_domain(arg, self.q)):
                raise DomainError(
                    "exp_q", float(np.min(arg)), self.q, f"1 + (1-q)(-X) >= {tsallis.EPS_DOM}"
                )
        else:
            arg = _positive_part_of_loss(field.values, self.beta)
            if self.a is not None:
                # a repeated sum, not (u - t) * a * dt: the qent_tr bytes rest on it
                arg = arg + sum([float(self.a)] * (maturity - t_index)) * ctx.grid.dt
        eq = RandomField(field.index, np.asarray(tsallis.exp_q(arg, self.q)))
        return _safe_ln_q(ctx.cond_expect(eq, t_index, clip=True), self.q)


@dataclass
class DiscountedMeasure(RiskMeasure):
    """Wrap a cash-additive base: rho_{tu}(X) = base_{tu}(D(t,u) X), with
    D(t_i, t_j) = exp(-sum_{k=i}^{j-1} rate * dt) for one flat short rate.

    The construction yields cash subadditivity from D <= 1; it refuses a
    rate that is negative or not finite, and non-cash-additive bases because
    the subadditivity argument needs exact translation invariance of the base.
    """

    base: RiskMeasure
    rate: float

    def __post_init__(self):
        if not self.base.is_cash_additive:
            raise ValueError(f"discounted wrapper requires a cash-additive base, got {self.base.label}")
        self.label = f"discounted:{self.base.label},{label_number(float(self.rate))}"
        if not 0.0 <= self.rate < np.inf:
            raise ValueError(f"{self.label!r}: short rate must be nonnegative and finite, got {self.rate}")
        self.is_cash_additive = False

    def _evaluate(self, ctx, t_index, field, maturity):
        cum = np.zeros(maturity + 1)
        np.cumsum(np.full(maturity, self.rate * ctx.grid.dt), out=cum[1:])
        d = float(np.exp(-(cum[maturity] - cum[t_index])))
        scaled = RandomField(field.index, d * field.values)
        return self.base._evaluate(ctx, t_index, scaled, maturity)


def measure_from_label(label: str) -> RiskMeasure:
    """Construction strings:

    mean | entropic | qent:q,beta | qent_tr:q,beta,a | qent_closed:q
    | qent_bsde:q,beta | driver:<driver label> | family:<family label>
    | family_losses:<family label> | discounted:<base>,r
    """
    if label == "mean":
        return MeanMeasure()
    if label == "entropic":
        return CertaintyEquivalent(1.0)
    name, _, arg = label.partition(":")
    if name == "qent":
        return CertaintyEquivalent(*label_floats(label, arg, 2))
    if name == "qent_tr":
        return CertaintyEquivalent(*label_floats(label, arg, 3))
    if name == "qent_closed":
        (q,) = label_floats(label, arg, 1)
        if tsallis.is_classical(q):
            raise ValueError(f"{label!r}: q must lie in (0,1); the classical limit is 'entropic'")
        return CertaintyEquivalent(q)
    if name == "qent_bsde":
        q, beta = label_floats(label, arg, 2)
        q_s = label_number(tsallis.check_q(label, q))
        label = f"qent_bsde:{q_s},{label_number(beta)}"
        return DriverMeasure(q_entropic(f"q_entropic:{q_s}", q), beta, label=label)
    if name == "driver":
        return DriverMeasure(driver_from_label(arg))
    if name == "family":
        return DriverMeasure(family_from_label(arg))
    if name == "family_losses":
        return DriverMeasure(family_from_label(arg), 0.0)
    if name == "discounted":
        base_label, _, r_s = arg.rpartition(",")
        (r,) = label_floats(label, r_s, 1)
        return DiscountedMeasure(measure_from_label(base_label), r)
    raise KeyError(f"unknown measure label {label!r}")
