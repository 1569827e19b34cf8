"""Brownian path simulation, claims, discount curves and the regression engine.

Conditional expectations E[. | F_t] are realized by least-squares Monte Carlo:
projection onto polynomial bases of the Brownian level at the conditioning
node (all claims handled here are Markovian in B_t, optionally augmented with
extra regressors for claims carrying earlier-time state).

Determinism contract: a fixed seed and configuration produce bit-identical
fields for any worker count, at a fixed BLAS thread count.  All block
reductions run in a fixed block order and the block partition does not
depend on the number of workers; the BLAS product inside each Gram block
rounds differently per thread count (at 2 OpenBLAS threads instead of 1,
five tc_order records of the default verify move at about 1e-12).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Optional

import numpy as np

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "RandomField",
    "Claim",
    "RegressionBasis",
    "DiscountCurve",
    "LsmcContext",
    "SingularRegression",
    "simulate",
    "claim_from_label",
    "label_floats",
    "label_number",
    "ensemble_to_csv",
    "ensemble_from_csv",
    "ensemble_to_npz",
    "ensemble_from_npz",
]

_BLOCK = 16384  # fixed path-block size for reductions; independent of workers
DESIGN_ROWS = 4096  # rows of the design matrix built per block
CSV_BLOCK_ROWS = 65536  # rows per write of ensemble_to_csv, rounded down to whole paths
_CSV_ROW = np.dtype([("path", "i8"), ("node", "i8"), ("dim", "i8"), ("value", "f8")])


class SingularRegression(RuntimeError):
    """Normal system rank-deficient and the ridge fallback also failed."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * T / n_steps on [0, T]."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (self.T > 0.0):
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if self.n_steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Grid index of time t; t must sit on a node (1e-9 tolerance)."""
        i = int(round(t / self.dt))
        if not (0 <= i <= self.n_steps) or abs(i * self.dt - t) > 1e-9:
            raise ValueError(f"time {t} is not a node of {self}")
        return i


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded d-dimensional Brownian paths on a uniform grid.

    values[p, i, k] is the level of component k on path p at node i;
    increments[p, i, k] = values[p, i+1, k] - values[p, i, k].  Immutable
    after construction and safe to share across threads.
    """

    grid: TimeGrid
    seed: int
    values: np.ndarray      # (n_paths, n_steps+1, d)
    increments: np.ndarray  # (n_paths, n_steps, d)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def levels(self, i: int) -> np.ndarray:
        """Brownian levels B_{t_i}, shape (n_paths, d)."""
        return self.values[:, i, :]


def simulate(grid: TimeGrid, d: int, n_paths: int, seed: int) -> PathEnsemble:
    """Draw a Brownian ensemble; identical seed gives bit-identical paths."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    dB = rng.standard_normal((n_paths, grid.n_steps, d)) * np.sqrt(grid.dt)
    B = np.zeros((n_paths, grid.n_steps + 1, d))
    np.cumsum(dB, axis=1, out=B[:, 1:, :])
    B.setflags(write=False)
    dB.setflags(write=False)
    return PathEnsemble(grid=grid, seed=seed, values=B, increments=dB)


@dataclass(frozen=True)
class RandomField:
    """Per-path values measurable at grid index `index`."""

    index: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def mean(self) -> float:
        return float(np.mean(self.values))

    def stderr(self) -> float:
        return float(np.std(self.values) / np.sqrt(self.n_paths))

    def __neg__(self):
        return RandomField(self.index, -self.values)


@dataclass(frozen=True)
class Claim:
    """Payoff rule over the path restricted to [0, t_maturity].

    The payoff receives values[:, :maturity+1, :] only, which enforces
    adaptedness by construction.
    """

    maturity: int
    payoff: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def evaluate(self, ensemble: PathEnsemble) -> RandomField:
        if self.maturity > ensemble.grid.n_steps:
            raise IndexError(
                f"claim maturity index {self.maturity} beyond grid end {ensemble.grid.n_steps}"
            )
        vals = np.asarray(self.payoff(ensemble.values[:, : self.maturity + 1, :]), dtype=float)
        if vals.shape != (ensemble.n_paths,):
            raise ValueError(f"payoff returned shape {vals.shape}, expected ({ensemble.n_paths},)")
        return RandomField(self.maturity, vals)


def label_floats(label: str, arg: str, n: int) -> list[float]:
    """The n comma-separated finite numbers of a registry label's argument
    `arg`.

    Anything else, NaN and infinities included, raises one ValueError that
    names the whole label.
    """
    try:
        values = [float(p) for p in arg.split(",")]
    except ValueError:
        values = []
    if len(values) != n or not np.all(np.isfinite(values)):
        raise ValueError(f"malformed label {label!r}: expected {n} comma-separated finite number(s)")
    return values


def label_number(x: float) -> str:
    """x as a label writes it: %g where that reads back as x, else its exact
    repr, so that label_floats recovers x and distinct numbers stay distinct."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def claim_from_label(label: str, maturity: int) -> Claim:
    """Claim registry: const:c | brownian | neg_part:beta | call:K | sin.

    All payoffs read the first Brownian component at the claim's maturity.
    """
    name, _, arg = label.partition(":")
    if name == "const":
        (c,) = label_floats(label, arg, 1)
        return Claim(maturity, lambda path, c=c: np.full(path.shape[0], c), label)
    if name == "brownian":
        return Claim(maturity, lambda path: path[:, -1, 0].copy(), label)
    if name == "neg_part":
        beta = label_floats(label, arg, 1)[0] if arg else 0.0
        return Claim(maturity, lambda path, b=beta: np.maximum(-(path[:, -1, 0] + b), 0.0), label)
    if name == "call":
        (strike,) = label_floats(label, arg, 1)
        return Claim(maturity, lambda path, k=strike: np.maximum(path[:, -1, 0] - k, 0.0), label)
    if name == "sin":
        return Claim(maturity, lambda path: np.sin(path[:, -1, 0]), label)
    raise KeyError(f"unknown claim label {label!r}")


@dataclass(frozen=True)
class RegressionBasis:
    """Monomials of the conditioning variables up to total degree `degree`."""

    degree: int = 4
    ridge: float = 0.0

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.ridge < 0.0:
            raise ValueError("ridge must be >= 0")

    def design(self, variables: np.ndarray) -> np.ndarray:
        """Design matrix for (n, k) conditioning variables: all monomials
        of total degree <= degree, the constant first.

        Each monomial column is its prefix monomial's column times one
        variable, so the products run left to right over the sorted index
        tuple.  Rows are filled DESIGN_ROWS at a time, so each column write
        stays within one cache-sized block of phi."""
        n, k = variables.shape
        combos = [()]
        for deg in range(1, self.degree + 1):
            combos += combinations_with_replacement(range(k), deg)
        column = {combo: j for j, combo in enumerate(combos)}
        phi = np.empty((n, len(combos)))
        for start in range(0, n, DESIGN_ROWS):
            block, var = phi[start : start + DESIGN_ROWS], variables[start : start + DESIGN_ROWS]
            block[:, 0] = 1.0
            for j, combo in enumerate(combos[1:], 1):
                if len(combo) == 1:
                    block[:, j] = var[:, combo[0]]
                else:
                    np.multiply(block[:, column[combo[:-1]]], var[:, combo[-1]], out=block[:, j])
        return phi


@dataclass(frozen=True)
class DiscountCurve:
    """Deterministic piecewise-constant short rate on the grid.

    D(t_i, t_j) = exp(-sum_{k=i}^{j-1} r_k * dt).
    """

    grid: TimeGrid
    rates: np.ndarray  # (n_steps,), nonnegative

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.shape != (self.grid.n_steps,):
            raise ValueError(f"rates must have shape ({self.grid.n_steps},), got {r.shape}")
        if np.any(r < 0.0):
            raise ValueError("short rate must be nonnegative")
        object.__setattr__(self, "rates", r)
        cum = np.zeros(self.grid.n_steps + 1)
        np.cumsum(r * self.grid.dt, out=cum[1:])
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def flat(cls, grid: TimeGrid, r: float) -> "DiscountCurve":
        return cls(grid, np.full(grid.n_steps, float(r)))

    def factor(self, i: int, j: int) -> float:
        """Discount factor D(t_i, t_j) in (0, 1], requires i <= j."""
        if i > j:
            raise ValueError(f"discount factor needs i <= j, got ({i}, {j})")
        return float(np.exp(-(self._cum[j] - self._cum[i])))


class _Projector:
    """One factorized normal system at a fixed conditioning index."""

    def __init__(self, phi: np.ndarray, ridge: float, workers: int, ctx: "LsmcContext"):
        self._phi = phi
        self._workers = workers
        gram = _blocked_gram(phi, phi, workers)
        lam = ridge
        chol = None
        p = phi.shape[1]
        try:
            chol = np.linalg.cholesky(gram + lam * np.eye(p) if lam > 0.0 else gram)
        except np.linalg.LinAlgError:
            if lam == 0.0:
                # rank-deficient normal system: retry with a tiny ridge and flag it
                lam = 1e-10
                ctx.fallback_count += 1
                try:
                    chol = np.linalg.cholesky(gram + lam * np.eye(p))
                except np.linalg.LinAlgError:
                    pass
            if chol is None:
                raise SingularRegression(
                    f"normal system singular (p={p}, ridge={ridge})"
                ) from None
        self._chol = chol

    @classmethod
    def _from_factor(cls, phi: np.ndarray, chol: np.ndarray, workers: int) -> "_Projector":
        """The projector of an already factorised normal system: phi rebuilt,
        the Cholesky factor of phi.T @ phi (+ ridge) reused."""
        proj = cls.__new__(cls)
        proj._phi, proj._chol, proj._workers = phi, chol, workers
        return proj

    def coefficients(self, targets: np.ndarray) -> np.ndarray:
        rhs = _blocked_gram(self._phi, targets, self._workers)
        z = np.linalg.solve(self._chol, rhs)
        return np.linalg.solve(self._chol.T, z)

    def fitted(self, targets: np.ndarray, clip: bool = False) -> np.ndarray:
        """Least-squares fit of each target column, shape preserved.

        With clip=True each fitted column is clamped to the sample range of
        its regressand: polynomial fits can oscillate wildly on tail paths,
        and the conditional expectation of a bounded quantity lies inside its
        range.  Clamping commutes with affine shifts of the target, so exact
        cash-invariance identities survive it.
        """
        squeeze = targets.ndim == 1
        t2 = targets[:, None] if squeeze else targets
        out = self._phi @ self.coefficients(t2)
        if clip:
            lo = np.min(t2, axis=0)
            hi = np.max(t2, axis=0)
            out = np.clip(out, lo, hi)
        return out[:, 0] if squeeze else out


def _blocked_gram(phi: np.ndarray, rhs: np.ndarray, workers: int) -> np.ndarray:
    """phi.T @ rhs accumulated over fixed-size path blocks in block order."""
    n = phi.shape[0]
    starts = list(range(0, n, _BLOCK))
    rhs2 = rhs[:, None] if rhs.ndim == 1 else rhs

    def one(s):
        e = min(s + _BLOCK, n)
        return phi[s:e].T @ rhs2[s:e]

    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, starts))
    else:
        parts = [one(s) for s in starts]
    acc = parts[0].copy()
    for part in parts[1:]:
        acc += part
    return acc[:, 0] if rhs.ndim == 1 else acc


def digest(values: Optional[np.ndarray]):
    """Cache key of an array: its shape and a 256-bit hash of its float64
    bytes (None for None)."""
    if values is None:
        return None
    arr = np.ascontiguousarray(values, dtype=float)
    return arr.shape, hashlib.blake2b(arr.view(np.uint8), digest_size=32).digest()


@dataclass
class _Reuse:
    """Work shared by every context on one root ensemble.

    factors maps (rows, basis, node, aux digest) to the Cholesky factor of
    that normal system, for the life of the contexts: a p x p matrix each,
    while phi (n x p) is rebuilt on every use.  memo is the evaluation memo
    while one is open (LsmcContext.evaluation_memo), None otherwise.
    """

    factors: dict = field(default_factory=dict)
    memo: Optional[dict] = None


@dataclass
class LsmcContext:
    """Evaluation context: grid, ensemble, basis and the worker count.

    Contexts derived from one another (with_basis, block) share a factor
    cache, so each distinct normal system is factorised once; rows is the
    slice of the root ensemble's paths this context holds.  fallback_count
    records how many distinct normal systems needed the automatic 1e-10
    ridge retry when first factorised (zero for a clean run); one served
    again from the cache is not counted again.
    """

    grid: TimeGrid
    ensemble: PathEnsemble
    basis: RegressionBasis = field(default_factory=RegressionBasis)
    workers: int = 1
    fallback_count: int = field(default=0, init=False)
    rows: tuple = field(init=False, compare=False)
    _reuse: _Reuse = field(default_factory=_Reuse, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ensemble.grid != self.grid:
            raise ValueError("ensemble was simulated on a different grid")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.rows = (0, self.ensemble.n_paths)

    def _derived(self, ensemble: PathEnsemble, basis: RegressionBasis, rows: tuple) -> "LsmcContext":
        ctx = LsmcContext(self.grid, ensemble, basis, self.workers)
        ctx.rows, ctx._reuse = rows, self._reuse
        return ctx

    def with_basis(self, basis: RegressionBasis) -> "LsmcContext":
        """The same paths under another basis, sharing the factor cache."""
        return self._derived(self.ensemble, basis, self.rows)

    def block(self, start: int, stop: int) -> "LsmcContext":
        """The paths [start, stop) of this context, sharing the factor cache."""
        lo = self.rows[0]
        return self._derived(path_block(self.ensemble, start, stop), self.basis, (lo + start, lo + stop))

    @property
    def memo(self) -> Optional[dict]:
        """The open evaluation memo of these paths, or None."""
        return self._reuse.memo

    @contextmanager
    def evaluation_memo(self):
        """Open an empty evaluation memo, shared by every context derived
        from this one, for the with block; it is dropped when the block ends."""
        reuse = self._reuse
        outer, reuse.memo = reuse.memo, {}
        try:
            yield
        finally:
            reuse.memo = outer

    def projector(self, at: int, aux: Optional[np.ndarray] = None) -> _Projector:
        """Factorized projector onto the basis at node `at`.

        Conditioning variables are the Brownian components at t_at scaled by
        1/sqrt(t_at), plus any aux columns (extra adapted state a claim needs,
        scaled by their sample deviation).  At the root node only aux columns
        remain; with none, the projector degenerates to the sample mean.
        The normal system is factorised on first use and its factor reused.
        """
        cols = []
        if at > 0:
            t = at * self.grid.dt
            cols.append(self.ensemble.levels(at) / np.sqrt(t))
        if aux is not None:
            a = np.asarray(aux, dtype=float)
            a = a[:, None] if a.ndim == 1 else a
            scale = np.maximum(np.std(a, axis=0), 1e-12)
            cols.append(a / scale)
        if not cols:
            variables = np.empty((self.ensemble.n_paths, 0))
        else:
            variables = np.concatenate(cols, axis=1)
        phi = self.basis.design(variables)
        key = (self.rows, self.basis, at, digest(aux))
        chol = self._reuse.factors.get(key)
        if chol is not None:
            return _Projector._from_factor(phi, chol, self.workers)
        proj = _Projector(phi, self.basis.ridge, self.workers, self)
        self._reuse.factors[key] = proj._chol
        return proj

    def cond_expect(
        self,
        field: RandomField,
        at: int,
        aux: Optional[np.ndarray] = None,
        clip: bool = False,
    ) -> RandomField:
        """Least-squares realization of E[field | F_{t_at}].

        Fields already measurable at `at` (field.index <= at) are returned
        unchanged: conditioning on a finer sigma-algebra is the identity.
        At at = 0 the projection is the constant sample mean.  Linear in the
        field; the constant is always in the basis, so sample means are
        preserved exactly.  clip=True clamps the fit to the field's sample
        range (see _Projector.fitted).
        """
        if at > self.grid.n_steps:
            raise IndexError(f"node {at} beyond grid end {self.grid.n_steps}")
        if field.index <= at:
            return RandomField(at, field.values)
        if at == 0 and aux is None:
            m = float(np.mean(field.values))
            return RandomField(0, np.full(field.n_paths, m))
        fitted = self.projector(at, aux).fitted(field.values, clip=clip)
        return RandomField(at, fitted)


def path_block(ensemble: PathEnsemble, start: int, stop: int) -> PathEnsemble:
    """Sub-ensemble over a contiguous path slice (shares the arrays)."""
    return PathEnsemble(
        grid=ensemble.grid,
        seed=ensemble.seed,
        values=ensemble.values[start:stop],
        increments=ensemble.increments[start:stop],
    )


def block_stderr(ctx: LsmcContext, estimate) -> float:
    """Monte Carlo standard error of a scalar estimator by block splitting.

    `estimate(sub, rows)` maps a context on one block of paths, and the
    slice of the parent's path rows it holds, to a float; rows lets a caller
    cut its own per-path arrays to the block.  It is re-run on 8 contiguous
    sub-ensembles and the spread of the block estimates scales down to the
    full-sample error.  Deterministic: the partition ignores the worker
    count.  The block contexts share ctx's factor cache, so repeated
    calls on one parent factorise each block's normal systems once.
    """
    n, n_blocks = ctx.ensemble.n_paths, 8
    edges = np.linspace(0, n, n_blocks + 1, dtype=int)
    vals = []
    for k in range(n_blocks):
        rows = slice(edges[k], edges[k + 1])
        vals.append(float(estimate(ctx.block(rows.start, rows.stop), rows)))
    return float(np.std(vals) / np.sqrt(n_blocks))


def estimate_stderr(ctx: LsmcContext, field: RandomField, estimate) -> float:
    """Monte Carlo standard error of field.mean(): the cross-sectional one at
    an interior node, block_stderr(ctx, estimate) at the root, where the
    field is constant and estimate(sub, rows) recomputes the mean on a block.
    """
    if field.index > 0:
        return field.stderr()
    return block_stderr(ctx, estimate)


# ---------------------------------------------------------------------------
# Ensemble export / import (debugging interface)
# ---------------------------------------------------------------------------

def ensemble_to_csv(ensemble: PathEnsemble, path) -> None:
    """Write (path, node, dim, value) rows; grid metadata and seed in the header.

    Each value is written as its float repr, so the file reads back bit-exact.
    Rows go out CSV_BLOCK_ROWS at a time, split into whole paths, so memory
    stays bounded whatever the grid and dimension.
    """
    g, d = ensemble.grid, ensemble.dim
    tails = [f",{i},{k}," for i in range(g.n_steps + 1) for k in range(d)]
    rows = np.asarray(ensemble.values, dtype=float).reshape(ensemble.n_paths, len(tails))
    step = max(1, CSV_BLOCK_ROWS // len(tails))
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# seed={ensemble.seed} T={g.T!r} n_steps={g.n_steps} "
            f"d={d} n_paths={ensemble.n_paths}\n"
        )
        fh.write("path,node,dim,value\n")
        for start in range(0, ensemble.n_paths, step):
            block = rows[start : start + step].tolist()
            fh.write("".join([
                f"{p}{tail}{v!r}\n" for p, row in enumerate(block, start) for tail, v in zip(tails, row)
            ]))


def ensemble_from_csv(path) -> PathEnsemble:
    """Read an ensemble_to_csv file, in any row order, bit-exact.

    The rows are parsed from the open file, not from a copy of its text.  A
    file whose rows do not hold each (path, node, dim) of its header exactly
    once raises a ValueError that names the file and the first bad row.
    """
    with open(path) as fh:
        header = fh.readline()
        try:
            meta = dict(tok.split("=") for tok in header.lstrip("# ").split())
            grid = TimeGrid(T=float(meta["T"]), n_steps=int(meta["n_steps"]))
            shape = (int(meta["n_paths"]), grid.n_steps + 1, int(meta["d"]))
            seed = int(meta["seed"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: malformed header {header!r}") from exc
        fh.readline()  # column header
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=_CSV_ROW, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    p, i, k = rows["path"], rows["node"], rows["dim"]
    _check_csv_rows(path, p, i, k, shape)
    vals = np.zeros(shape)
    vals[p, i, k] = rows["value"]
    dB = np.diff(vals, axis=1)
    vals.setflags(write=False)
    dB.setflags(write=False)
    return PathEnsemble(grid=grid, seed=seed, values=vals, increments=dB)


def _check_csv_rows(path, p, i, k, shape) -> None:
    """Raise unless the index columns hold each cell of `shape` exactly once:
    every index in range, no (path, node, dim) twice, and as many rows as
    cells."""
    n_paths, n_nodes, d = shape
    bad = (p < 0) | (p >= n_paths) | (i < 0) | (i >= n_nodes) | (k < 0) | (k >= d)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(
            f"{path}: data row {j + 1} ({p[j]},{i[j]},{k[j]}) lies outside "
            f"n_paths={n_paths} n_steps={n_nodes - 1} d={d}"
        )
    flat = (p * n_nodes + i) * d + k
    counts = np.bincount(flat, minlength=n_paths * n_nodes * d)
    if np.any(counts > 1):
        _, first = np.unique(flat, return_index=True)
        j = int(np.setdiff1d(np.arange(flat.size), first)[0])
        raise ValueError(f"{path}: data row {j + 1} repeats ({p[j]},{i[j]},{k[j]})")
    if flat.size != counts.size:
        mp, mi, mk = np.unravel_index(int(np.argmin(counts)), shape)
        raise ValueError(
            f"{path}: {flat.size} data rows, the header needs {counts.size}; "
            f"the first missing is ({mp},{mi},{mk})"
        )


def ensemble_to_npz(ensemble: PathEnsemble, path) -> None:
    np.savez(
        path,
        values=ensemble.values,
        seed=np.int64(ensemble.seed),
        T=np.float64(ensemble.grid.T),
        n_steps=np.int64(ensemble.grid.n_steps),
    )


def ensemble_from_npz(path) -> PathEnsemble:
    with np.load(path) as data:
        grid = TimeGrid(T=float(data["T"]), n_steps=int(data["n_steps"]))
        vals = data["values"].copy()
        seed = int(data["seed"])
    dB = np.diff(vals, axis=1)
    vals.setflags(write=False)
    dB.setflags(write=False)
    return PathEnsemble(grid=grid, seed=seed, values=vals, increments=dB)
