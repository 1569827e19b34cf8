"""BSDE drivers, horizon-indexed driver families and the backward solver.

The solver runs an explicit backward Euler scheme with optional Picard
refinement of the y-argument.  At each step i (maturity m down to `stop`):

    Z_i   = (1/dt) * Pi_i[(Y_{i+1} - Pi_i[Y_{i+1}]) * dB_i]   componentwise
    Yhat  = Pi_i[Y_{i+1}]
    Y_i   = Yhat + g(t_i, y*, Z_i) * dt

where Pi_i is the least-squares projection at node i, y* starts at Yhat and
is refined by PICARD_ITERS fixed-point passes when the driver depends on y,
and |Z_i| is clipped componentwise at Z_CLIP before driver evaluation (tail
guard for the quadratic drivers, inactive for Lipschitz ones at desk scale).

Centering the Z-regressand on Pi_i[Y_{i+1}] estimates the same conditional
expectation (the centering term has zero conditional mean) and makes the
solution exactly invariant under constant terminal shifts, which the cash
additivity contract for y-free drivers requires at the 1e-8 level.

Terminal conditions measurable before maturity (field.index < maturity) are
propagated through the tail (index >= field.index) with Z = 0 and the
pathwise backward ODE step Y_i = Y_{i+1} + g(t_i, y*, 0) dt: conditioning an
already-measurable quantity is the identity, and the true Z vanishes there.

A solution stores Y only, not a (maturity, n_paths, d) Z.  Z_i is a
function of Y_{i+1}, so BSDESolution.z_at(i) recomputes it with the solve's
own step (the node's cached Cholesky factor, the same fit clamp) and returns
bit for bit the Z_i the solve formed before clipping at Z_CLIP.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import tsallis
from .stochastic import LsmcContext, RandomField, label_floats, label_number

__all__ = [
    "Driver",
    "DriverFamily",
    "BSDESolution",
    "DomainGuardViolation",
    "NonFiniteError",
    "solve",
    "driver_from_label",
    "family_from_label",
    "shifted",
    "q_entropic",
    "default_registry_labels",
    "PICARD_ITERS",
    "Z_CLIP",
]

# Fixed-point passes on the y-argument of a y-dependent driver.
PICARD_ITERS = 3
# Componentwise |Z| bound before the driver is evaluated.
Z_CLIP = 10.0


class DomainGuardViolation(RuntimeError):
    def __init__(self, path: int, index: int, y: float, label: str):
        self.path, self.index, self.y = path, index, y
        super().__init__(
            f"driver {label!r}: domain guard violated on path {path} at node {index} (y={y})"
        )


class NonFiniteError(RuntimeError):
    pass


@dataclass(frozen=True)
class Driver:
    """BSDE generator g(t, y, z) evaluated pathwise.

    fn maps (t: float, y: (n,), z: (n, d)) -> (n,).  The axioms a measure
    built on it satisfies follow from y -> g(t, y, 0); see
    diagnostics.generator_verdicts.
    """

    fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    label: str
    depends_on_y: bool = False
    domain_guard: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(t, y, z), dtype=float)

    def guard_ok(self, y: np.ndarray) -> np.ndarray:
        if self.domain_guard is None:
            return np.ones(y.shape, dtype=bool)
        return np.asarray(self.domain_guard(y), dtype=bool)


@dataclass(frozen=True)
class DriverFamily:
    """Maturity-indexed generators u -> g_u (maturity passed as a grid time)."""

    member: Callable[[float], Driver]
    label: str

    def at(self, u_time: float) -> Driver:
        return self.member(u_time)


def shifted(driver: Driver, a: float, label: Optional[str] = None) -> Driver:
    """Driver with a constant added to the generator."""
    return Driver(
        fn=lambda t, y, z: driver.fn(t, y, z) + a,
        label=label or f"{driver.label}+{label_number(a)}",
        depends_on_y=driver.depends_on_y,
        domain_guard=driver.domain_guard,
    )


@dataclass
class BSDESolution:
    """Backward solution on indices [stop, maturity].

    Y has shape (maturity+1, n_paths) with rows < stop unset.  Y at maturity
    equals the terminal condition exactly, and an accepted solution has zero
    domain-guard violations.  step(i, y_next) -> (Yhat_i, Z_i) is the
    solve's regression step; z_at(i) applies it to the stored Y[i+1].
    """

    Y: np.ndarray
    stop: int
    maturity: int
    step: Callable[[int, np.ndarray], tuple] = dfield(repr=False, compare=False)
    diagnostics: dict = dfield(default_factory=dict)

    def field_at(self, i: int) -> RandomField:
        if not (self.stop <= i <= self.maturity):
            raise IndexError(f"index {i} outside solved range [{self.stop}, {self.maturity}]")
        return RandomField(i, self.Y[i])

    def z_at(self, i: int) -> np.ndarray:
        """Z_i, shape (n_paths, d), unclipped: the control the solve formed
        at node i, recomputed bit for bit from Y[i+1]."""
        if not (self.stop <= i < self.maturity):
            raise IndexError(f"z index {i} outside [{self.stop}, {self.maturity})")
        return self.step(i, self.Y[i + 1])[1]


def _step(
    ctx: LsmcContext,
    meas: int,
    clip: bool,
    i: int,
    y_next: np.ndarray,
) -> tuple:
    """(Yhat_i, Z_i) at node i from Y_{i+1}: the projection Pi_i[Y_{i+1}]
    (clamped to its sample range when clip) and
    Pi_i[(Y_{i+1} - Yhat_i) dB_i] / dt.  At and after the terminal's index
    meas the terminal is already measurable: identity projection, Z = 0."""
    if i >= meas:
        return y_next, np.zeros((y_next.shape[0], ctx.ensemble.dim))
    proj = ctx.projector(i)
    yhat = proj.fitted(y_next, clip=clip)
    regressand = ctx.ensemble.increment(i)
    regressand *= (y_next - yhat)[:, None]
    return yhat, proj.fitted(regressand) / ctx.grid.dt


def solve(
    driver: Driver,
    terminal: RandomField,
    maturity: int,
    ctx: LsmcContext,
    stop: int = 0,
) -> BSDESolution:
    """Backward solve with terminal condition `terminal` at index `maturity`.

    Raises DomainGuardViolation / NonFiniteError on unacceptable states.
    """
    grid, ens = ctx.grid, ctx.ensemble
    n, dt = ens.n_paths, grid.dt
    if terminal.index > maturity:
        raise ValueError(f"terminal measurable at {terminal.index} > maturity {maturity}")
    if maturity > grid.n_steps:
        raise IndexError(f"maturity {maturity} beyond grid end {grid.n_steps}")
    if terminal.n_paths != n:
        raise ValueError("terminal field defined on a different ensemble")

    Y = np.empty((maturity + 1, n))
    Y[maturity] = terminal.values
    fallbacks_before = ctx.fallback_count
    picard_total = 0
    # range-clamp the continuation fit only when a domain guard is present:
    # guarded generators must not see polynomial tail overshoot, while
    # unguarded ones keep the exact linearity of raw least squares
    step = partial(_step, ctx, terminal.index, driver.domain_guard is not None)

    def drive(t: float, y: np.ndarray, z: np.ndarray, i: int) -> np.ndarray:
        bad = ~driver.guard_ok(y)
        if np.any(bad):
            p = int(np.argmax(bad))
            raise DomainGuardViolation(p, i, float(y[p]), driver.label)
        return driver(t, y, z)

    for i in range(maturity - 1, stop - 1, -1):
        t_i = i * dt
        yhat, z_i = step(i, Y[i + 1])
        zc = np.clip(z_i, -Z_CLIP, Z_CLIP)
        ystar = yhat
        if driver.depends_on_y:
            for _ in range(PICARD_ITERS):
                ystar = yhat + drive(t_i, ystar, zc, i) * dt
                picard_total += 1
        Y[i] = yhat + drive(t_i, ystar, zc, i) * dt
        if not np.all(np.isfinite(Y[i])):
            raise NonFiniteError(f"driver {driver.label!r}: non-finite Y at node {i}")

    return BSDESolution(
        Y=Y,
        stop=stop,
        maturity=maturity,
        step=step,
        diagnostics={
            "picard_evals": picard_total,
            "regression_fallbacks": ctx.fallback_count - fallbacks_before,
        },
    )


# ---------------------------------------------------------------------------
# Driver registry
# ---------------------------------------------------------------------------

def q_entropic(label: str, q: float, a: float = 0.0) -> Driver:
    """The q-entropic generator g = q|z|^2 / (2(1 + (1-q)y)), plus a constant a.

    q must lie in (0,1] (the error names label).  Away from the classical
    limit g depends on y and is guarded on tsallis.in_domain; at it, g is
    q|z|^2/2, y-free and unguarded.
    """
    tsallis.check_q(label, q)
    classical = tsallis.is_classical(q)
    omq = 0.0 if classical else 1.0 - q
    drv = Driver(
        lambda t, y, z: 0.5 * q * np.sum(z * z, axis=1) / (1.0 + omq * y),
        label,
        depends_on_y=not classical,
        domain_guard=None if classical else (lambda y: tsallis.in_domain(y, q)),
    )
    return shifted(drv, a, label) if a else drv


def driver_from_label(label: str) -> Driver:
    """Driver registry.

    zero | linear_y:r | abs_z | quad_z | csa_example[:r] | csa_example_shift[:r]
    | q_entropic:q | q_entropic_translated:q,a
    """
    name, _, arg = label.partition(":")
    if name == "zero":
        return Driver(lambda t, y, z: np.zeros(y.shape), "zero")
    if name == "linear_y":
        (r,) = label_floats(label, arg, 1)
        return Driver(lambda t, y, z: -r * y, label, depends_on_y=True)
    if name == "abs_z":
        return Driver(lambda t, y, z: np.sqrt(np.sum(z * z, axis=1)), "abs_z")
    if name == "quad_z":
        return Driver(lambda t, y, z: 0.5 * np.sum(z * z, axis=1), "quad_z")
    if name in ("csa_example", "csa_example_shift"):
        r = label_floats(label, arg, 1)[0] if arg else 0.1
        shift = 1.0 if name == "csa_example_shift" else 0.0
        return Driver(
            lambda t, y, z, r=r, s=shift: r * np.maximum(-y, 0.0) + np.sum(z, axis=1) + s,
            label if arg else name,
            depends_on_y=True,
        )
    if name == "q_entropic":
        return q_entropic(label, *label_floats(label, arg, 1))
    if name == "q_entropic_translated":
        return q_entropic(label, *label_floats(label, arg, 2))
    raise KeyError(f"unknown driver label {label!r}")


def family_from_label(label: str) -> DriverFamily:
    """Family registry: translated_family:q,alpha with g_u = g_q + alpha * u."""
    name, _, arg = label.partition(":")
    if name == "translated_family":
        q, alpha = label_floats(label, arg, 2)
        tsallis.check_q(label, q)
        return DriverFamily(
            lambda u_time: q_entropic(f"{label}@u={label_number(u_time)}", q, alpha * u_time), label
        )
    raise KeyError(f"unknown family label {label!r}")


def default_registry_labels() -> list[str]:
    """Standard driver parametrizations exercised by the verification harness."""
    return [
        "zero",
        "abs_z",
        "quad_z",
        "linear_y:0.1",
        "csa_example",
        "csa_example_shift",
        "q_entropic:0.5",
        "q_entropic_translated:0.5,0.1",
    ]
