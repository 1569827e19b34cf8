"""BSDE drivers, horizon-indexed driver families and the backward solver.

The solver runs an explicit backward Euler scheme, the same step for every
driver.  At each step i (maturity m down to `stop`):

    Z_i   = (1/dt) * Pi_i[(Y_{i+1} - Pi_i[Y_{i+1}]) * dB_i]
    Yhat  = Pi_i[Y_{i+1}]
    Y_i   = Yhat + g(t_i, Yhat, Z_i) * dt

where Pi_i is the least-squares projection at node i, dB_i the increment of
the one Brownian motion, g is called once, at Yhat, after the driver's
domain guard accepts Yhat, and |Z_i| is clipped at Z_CLIP first (tail guard
for the quadratic drivers, inactive for Lipschitz ones at desk scale).
Explicit in y, the step converges at the order of the implicit one
(Bouchard & Touzi, SPA 111, 2004; Gobet, Lemor & Warin, AAP 15, 2005).

Centering the Z-regressand on Pi_i[Y_{i+1}] estimates the same conditional
expectation (the centering term has zero conditional mean) and makes the
solution exactly invariant under constant terminal shifts, which the cash
additivity contract for y-free drivers requires at the 1e-8 level.

Terminal conditions measurable before maturity (field.index < maturity) are
propagated through the tail (index >= field.index) with Z = 0 and the
pathwise backward ODE step Y_i = Y_{i+1} + g(t_i, Y_{i+1}, 0) dt:
conditioning an already-measurable quantity is the identity, and the true Z
vanishes there.

backward(...) is the one pass: it yields (i, Y_i, Z_i) as each node is
formed, Z_i before the clip.  solve keeps every Y row; a caller that needs
one row, or each node's Z once, consumes the pass itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Callable, Iterator, Optional

import numpy as np

from . import tsallis
from .stochastic import LsmcContext, RandomField, label_floats, label_number

__all__ = [
    "Driver",
    "DriverFamily",
    "BSDESolution",
    "DomainGuardViolation",
    "NonFiniteError",
    "backward",
    "solve",
    "driver_from_label",
    "family_from_label",
    "shifted",
    "q_entropic",
    "Z_CLIP",
]

# Bound on |Z| before the driver is evaluated.
Z_CLIP = 10.0


class DomainGuardViolation(RuntimeError):
    def __init__(self, path: int, index: int, y: float, label: str):
        self.path, self.index, self.y, self.label = path, index, y, label
        super().__init__(
            f"driver {label!r}: domain guard violated on path {path} at node {index} (y={y})"
        )

    def __reduce__(self):  # rebuilt from its fields when it leaves a worker process
        return type(self), (self.path, self.index, self.y, self.label)


class NonFiniteError(RuntimeError):
    pass


@dataclass(frozen=True)
class Driver:
    """BSDE generator g(t, y, z) evaluated pathwise.

    fn maps (t: float, y: (n,), z: (n, 1)) -> (n,).  The axioms a measure
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
    domain-guard violations.
    """

    Y: np.ndarray
    stop: int
    maturity: int
    diagnostics: dict = dfield(default_factory=dict)

    def field_at(self, i: int) -> RandomField:
        if not (self.stop <= i <= self.maturity):
            raise IndexError(f"index {i} outside solved range [{self.stop}, {self.maturity}]")
        return RandomField(i, self.Y[i])


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
        return y_next, np.zeros((y_next.shape[0], 1))
    proj = ctx.projector(i)
    yhat = proj.fitted(y_next, clip=clip)
    regressand = ctx.ensemble.increment(i)
    regressand *= (y_next - yhat)[:, None]
    z = proj.fitted(regressand)
    z /= ctx.grid.dt
    return yhat, z


def backward(
    driver: Driver, terminal: RandomField, maturity: int, ctx: LsmcContext, stop: int = 0
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The backward pass with terminal condition `terminal` at index
    `maturity`: yields (i, Y_i, Z_i) for i = maturity-1 down to stop, Z_i
    of shape (n_paths, 1) as formed, before the clip at Z_CLIP.

    Raises DomainGuardViolation / NonFiniteError on unacceptable states.
    """
    dt = ctx.grid.dt
    if terminal.index > maturity:
        raise ValueError(f"terminal measurable at {terminal.index} > maturity {maturity}")
    if maturity > ctx.grid.n_steps:
        raise IndexError(f"maturity {maturity} beyond grid end {ctx.grid.n_steps}")
    if not 0 <= stop <= maturity:
        raise IndexError(f"stop {stop} outside [0, {maturity}]")
    if terminal.n_paths != ctx.ensemble.n_paths:
        raise ValueError("terminal field defined on a different ensemble")
    # range-clamp the continuation fit only when a domain guard is present:
    # guarded generators must not see polynomial tail overshoot, while
    # unguarded ones keep the exact linearity of raw least squares
    guarded = driver.domain_guard is not None
    y = terminal.values
    for i in range(maturity - 1, stop - 1, -1):
        # _step's locals, the node's n x p design among them, are freed
        # before the yield
        yhat, z_i = _step(ctx, terminal.index, guarded, i, y)
        zc = np.clip(z_i, -Z_CLIP, Z_CLIP)
        # no guard mask outlives the check (a kept one fragmented the heap:
        # sweep_qent peaked at 87 MB RSS, against 83); raise the first path outside
        if guarded and not np.all(driver.guard_ok(yhat)):
            p = int(np.argmin(driver.guard_ok(yhat)))
            raise DomainGuardViolation(p, i, float(yhat[p]), driver.label)
        y = yhat + driver(i * dt, yhat, zc) * dt
        if not np.all(np.isfinite(y)):
            raise NonFiniteError(f"driver {driver.label!r}: non-finite Y at node {i}")
        yield i, y, z_i


def solve(
    driver: Driver, terminal: RandomField, maturity: int, ctx: LsmcContext, stop: int = 0
) -> BSDESolution:
    """The backward pass with every Y row kept; raises what backward raises."""
    Y = np.empty((maturity + 1, ctx.ensemble.n_paths))
    fallbacks_before = ctx.fallback_count
    for i, y, _ in backward(driver, terminal, maturity, ctx, stop):
        Y[i] = y
    Y[maturity] = terminal.values
    diagnostics = {"regression_fallbacks": ctx.fallback_count - fallbacks_before}
    return BSDESolution(Y, stop, maturity, diagnostics)


# ---------------------------------------------------------------------------
# Driver registry
# ---------------------------------------------------------------------------

def _sq_norm(z: np.ndarray) -> np.ndarray:
    """|z|^2 of each row of an (n, 1) array.  einsum is 2x faster than
    np.sum(z * z, axis=1) there, and bit-equal to it."""
    return np.einsum("ij,ij->i", z, z)


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
        lambda t, y, z: 0.5 * q * _sq_norm(z) / (1.0 + omq * y),
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
    if name in ("zero", "abs_z", "quad_z"):
        label_floats(label, arg, 0)
    if name == "zero":
        return Driver(lambda t, y, z: np.zeros(y.shape), "zero")
    if name == "linear_y":
        (r,) = label_floats(label, arg, 1)
        return Driver(lambda t, y, z: -r * y, label, depends_on_y=True)
    if name == "abs_z":
        return Driver(lambda t, y, z: np.sqrt(_sq_norm(z)), "abs_z")
    if name == "quad_z":
        return Driver(lambda t, y, z: 0.5 * _sq_norm(z), "quad_z")
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

