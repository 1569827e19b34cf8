"""Deformed exponential/logarithm pair used by the generalized-entropy measures.

For deformation index q != 1,

    exp_q(x) = (1 + (1-q)*x)^(1/(1-q))      ln_q(x) = (x^(1-q) - 1)/(1-q)

and the classical exp/ln are recovered as q -> 1.  Both maps are strictly
increasing on their domains and mutually inverse where defined.

The q-entropic risk measure on losses is built from this pair and from the
generator q|z|^2 / (2(1 + (1-q)y)); its rules live here once: q ranges over
(0,1] (`check_q`), q within Q_ONE_TOL of 1 is classical (`is_classical`), and
a value x is admissible when 1 + (1-q)x >= EPS_DOM (`in_domain`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "exp_q", "ln_q", "is_classical", "check_q", "in_domain", "Q_ONE_TOL", "EPS_DOM"]

# Below this distance from q = 1 the classical branch is used; the deformed
# formula cancels catastrophically as 1-q -> 0.
Q_ONE_TOL = 1e-8
# Margin of the q-entropic domain: x is admissible when 1 + (1-q) x >= EPS_DOM.
EPS_DOM = 1e-3


class DomainError(ValueError):
    """Argument outside the domain of exp_q / ln_q."""

    def __init__(self, func: str, x: float, q: float, bound: str):
        self.func = func
        self.x = x
        self.q = q
        self.bound = bound
        super().__init__(f"{func}: x={x!r} outside domain for q={q} (requires {bound})")

    def __reduce__(self):  # rebuilt from its fields when it leaves a worker process
        return type(self), (self.func, self.x, self.q, self.bound)


def is_classical(q: float) -> bool:
    """Whether q is close enough to 1 to take the classical exp/ln branch."""
    return abs(1.0 - q) < Q_ONE_TOL


def check_q(label: str, q: float) -> float:
    """q of a q-entropic construction, which must lie in (0,1]; the error
    names the label."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"{label!r}: q must lie in (0,1], got {q}")
    return q


def in_domain(x, q: float):
    """1 + (1-q) x >= EPS_DOM, elementwise: the q-entropic domain with margin."""
    return 1.0 + (1.0 - q) * x >= EPS_DOM


def _positive(q) -> float:
    q = float(q)
    if not (q > 0.0 and np.isfinite(q)):
        raise ValueError(f"q must be a positive finite real, got {q}")
    return q


def exp_q(x, q):
    """Deformed exponential, elementwise on scalars or arrays.

    Domain: for q in (0,1) requires x >= 1/(q-1) (boundary included, value 0);
    for q > 1 requires x < 1/(q-1); any x for q = 1.
    """
    q = _positive(q)
    x = np.asarray(x, dtype=float)
    if is_classical(q):
        out = np.exp(x)
        return out if out.ndim else float(out)
    omq = 1.0 - q
    base = 1.0 + omq * x
    if q < 1.0:
        if np.any(base < 0.0):
            xb = float(np.min(x)) if x.ndim else float(x)
            raise DomainError("exp_q", xb, q, f"x >= {1.0 / (q - 1.0)}")
    elif np.any(base <= 0.0):
        xb = float(np.max(x)) if x.ndim else float(x)
        raise DomainError("exp_q", xb, q, f"x < {1.0 / (q - 1.0)}")
    out = base ** (1.0 / omq)
    return out if out.ndim else float(out)


def ln_q(x, q):
    """Deformed logarithm, inverse of exp_q on the shared domain.

    Domain: x >= 0 for q in (0,1); x > 0 for q >= 1 and in the classical branch.
    """
    q = _positive(q)
    x = np.asarray(x, dtype=float)
    classical = is_classical(q)
    if classical or q > 1.0:
        if np.any(x <= 0.0):
            raise DomainError("ln_q", float(np.min(x)), q, "x > 0")
    elif np.any(x < 0.0):
        raise DomainError("ln_q", float(np.min(x)), q, "x >= 0")
    if classical:
        out = np.log(x)
    else:
        omq = 1.0 - q
        out = (x**omq - 1.0) / omq
    return out if out.ndim else float(out)
