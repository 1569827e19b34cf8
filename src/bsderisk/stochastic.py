"""Brownian path simulation, claims, discount curves and the regression engine.

Conditional expectations E[. | F_t] are realized by least-squares Monte Carlo
on paths of one Brownian motion B: projection onto the powers of its level
B_{t_i} at the conditioning node, and on nothing else.  The design matrix is
basis-major: indexed (n_paths, p), it views a (p, n_paths) buffer whose rows
are the powers, so the Gram and fit products stream long contiguous rows.

Determinism contract: a fixed seed and configuration produce bit-identical
fields whatever the OpenBLAS thread count (tested at 1 and 2, and at
min(CPU count, 4) where that exceeds 2; higher counts are not).  Every
reduction over paths runs serially over a fixed block partition, summed in
block order.  A block's Gram is one dgemm against a Fortran-ordered copy of
the block (_gram): numpy would hand the block and its own transpose to
dsyrk, which OpenBLAS runs 2-4x slower at these shapes; both give the same
bytes at any thread count tested.  The root node regresses to the sample
mean (_Projector.coefficients): a one-column BLAS product there rounds
differently per thread count.

An ensemble holds one path array, the levels; an increment is the difference
of two adjacent nodes (PathEnsemble.increment), so a reloaded ensemble solves
bit for bit like the simulated one.  The levels are stored node-major: values
is indexed [path, node, 0] but views an (n_nodes, n_paths, 1) buffer, so the
levels and the increment at one node, which every regression and backward
step reads, are contiguous.  PathEnsemble copies levels given in any
other layout into this one once, when it is built.  The CSV file keeps the
path-major row order; the .npz file stores the levels as held, node-major.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, ClassVar, Optional

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

_BLOCK = 16384  # fixed path-block size for reductions, summed in block order
SIMULATE_ROWS = 4096  # paths whose normals simulate draws at a time
CSV_BLOCK_ROWS = 65536  # rows per write of ensemble_to_csv, rounded down to whole paths
CSV_READ_ROWS = 8192  # lines ensemble_from_csv parses at a time
_CSV_ROW = np.dtype([("path", "i8"), ("node", "i8"), ("dim", "i8"), ("value", "f8")])


class SingularRegression(RuntimeError):
    """Normal system rank-deficient and the 1e-10 ridge retry also failed."""


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
    """Seeded Brownian paths on a uniform grid.

    values[p, i, 0] is the level of path p at node i, and the only path
    array held: increment(i) = values[:, i+1] - values[:, i] is formed when
    asked for.  values views a node-major (n_steps+1, n_paths, 1) buffer, so
    levels(i) and increment(i) are C-contiguous; levels whose node rows are
    not contiguous are copied into that layout, read-only, once on
    construction; levels not float64 or not shaped (n_paths, n_steps+1, 1)
    raise a ValueError.  Immutable and safe to share across threads.
    """

    grid: TimeGrid
    seed: int
    values: np.ndarray  # (n_paths, n_steps+1, 1), a view of (n_steps+1, n_paths, 1)

    def __post_init__(self):
        v = self.values
        _check_values(v.shape, v.dtype, self.grid)
        if v.strides[0] != v.itemsize:
            nodes = np.ascontiguousarray(v.transpose(1, 0, 2))
            nodes.setflags(write=False)
            object.__setattr__(self, "values", nodes.transpose(1, 0, 2))

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def increments(self) -> np.ndarray:
        """All increments, shape (n_paths, n_steps, 1): np.diff(values),
        column i bit for bit increment(i).  A new array on every call."""
        return np.diff(self.values, axis=1)

    def levels(self, i: int) -> np.ndarray:
        """Brownian levels B_{t_i}, shape (n_paths, 1)."""
        return self.values[:, i, :]

    def increment(self, i: int) -> np.ndarray:
        """Increments B_{t_{i+1}} - B_{t_i}, shape (n_paths, 1)."""
        return self.values[:, i + 1, :] - self.values[:, i, :]


def _check_values(shape: tuple, dtype: np.dtype, grid: TimeGrid, where: str = "") -> None:
    """The levels PathEnsemble accepts on grid: float64, shaped (n_paths,
    n_steps+1, 1), one Brownian component; a reader names its file in where."""
    if len(shape) != 3 or shape[1] != grid.n_steps + 1:
        raise ValueError(f"{where}values shape {shape}, need (n_paths, {grid.n_steps + 1}, 1)")
    if shape[2] != 1:
        raise ValueError(f"{where}values shape {shape} holds d={shape[2]} Brownian components, need d=1")
    if dtype != np.float64:
        raise ValueError(f"{where}values dtype {dtype}, need float64")


def _check_levels(shape: tuple, where: str = "") -> None:
    """The path-count floor of simulate and both readers, on the levels
    shape (n_paths, n_steps+1, 1); a reader names its file in where."""
    if shape[0] < 2:
        raise ValueError(f"{where}values shape {tuple(shape)}, need n_paths >= 2")


def simulate(grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Draw a Brownian ensemble; identical seed gives bit-identical paths.

    The normals are drawn SIMULATE_ROWS paths at a time, in path order, so
    the levels are those of one whole-array draw.  Each block is scaled into
    the node-major rows, and then each row adds the one before it: the
    additions of np.cumsum over the nodes, in its order.
    """
    _check_levels((n_paths, grid.n_steps + 1, 1))
    rng = np.random.default_rng(seed)
    B = np.zeros((grid.n_steps + 1, n_paths, 1))
    for start in range(0, n_paths, SIMULATE_ROWS):
        dB = rng.standard_normal((min(SIMULATE_ROWS, n_paths - start), grid.n_steps))
        np.multiply(dB.T, np.sqrt(grid.dt), out=B[1:, start : start + dB.shape[0], 0])
    for i in range(1, grid.n_steps):
        B[i + 1] += B[i]
    B.setflags(write=False)
    return PathEnsemble(grid=grid, seed=seed, values=B.transpose(1, 0, 2))


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
    names the whole label; at n = 0 that is any argument at all.
    """
    try:
        values = [float(p) for p in arg.split(",")] if arg else []
        ok = len(values) == n and np.all(np.isfinite(values))
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"malformed label {label!r}: expected {n} comma-separated finite number(s)")
    return values


def label_number(x: float) -> str:
    """x as a label writes it: %g where that reads back as x, else its exact
    repr, so that label_floats recovers x and distinct numbers stay distinct."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def claim_from_label(label: str, maturity: int) -> Claim:
    """Claim registry: const:c | brownian | neg_part:beta | call:K | sin.

    All payoffs read the Brownian level at the claim's maturity.
    """
    name, _, arg = label.partition(":")
    if name == "const":
        (c,) = label_floats(label, arg, 1)
        return Claim(maturity, lambda path, c=c: np.full(path.shape[0], c), label)
    if name in ("brownian", "sin"):
        label_floats(label, arg, 0)
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
    """Powers 1, x, ..., x^degree of the conditioning variable x."""

    degree: int = 4
    # not a field: bench/spans.py keys its trace on it until the benchmark
    # refresh (ROADMAP item 1) drops it
    ridge: ClassVar[float] = 0.0

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    def design(self, variables: np.ndarray) -> np.ndarray:
        """Design matrix for (n, k) conditioning variables, k = 1 or, at the
        root, 0: the powers x^0, ..., x^degree, or the constant alone.

        Each power is the one before it times x.  The result is shaped
        (n, p) but views a basis-major (p, n) buffer, in which each power is
        one contiguous row made by one whole-row product: the Gram and fit
        products then stream long contiguous rows."""
        n, k = variables.shape
        if k > 1:
            raise ValueError(f"design of {k} conditioning variables, need 0 or 1")
        phi = np.empty((k * self.degree + 1, n))
        phi[0] = 1.0
        for j in range(1, phi.shape[0]):
            np.multiply(phi[j - 1], variables[:, 0], out=phi[j])
        return phi.T


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
    """One factorized normal system at a fixed conditioning index.

    The Gram is formed by _gram, one dgemm per path block against a copy of
    the block, and then Cholesky-factorised.  A constant-only design (p = 1)
    has no factor: coefficients gives the sample mean, so neither the Gram
    pass nor the Cholesky step is run."""

    def __init__(self, phi: np.ndarray, ctx: "LsmcContext"):
        self._phi, self._chol = phi, None
        p = phi.shape[1]
        if p == 1:
            return
        gram = _gram(phi)
        try:
            self._chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            # rank-deficient normal system: retry with a tiny ridge and count it
            ctx._reuse.fallbacks += 1
            with suppress(np.linalg.LinAlgError):
                self._chol = np.linalg.cholesky(gram + 1e-10 * np.eye(p))
            if self._chol is None:
                raise SingularRegression(f"normal system singular (p={p})") from None

    @classmethod
    def _from_factor(cls, phi: np.ndarray, chol: Optional[np.ndarray]) -> "_Projector":
        """The projector of an already factorised normal system: phi rebuilt,
        the Cholesky factor of phi.T @ phi (+ the retry's 1e-10 ridge) reused."""
        proj = cls.__new__(cls)
        proj._phi, proj._chol = phi, chol
        return proj

    def coefficients(self, targets: np.ndarray) -> np.ndarray:
        """Least-squares coefficients; the constant alone gives the sample mean."""
        if self._phi.shape[1] == 1:
            return np.mean(targets, axis=0, keepdims=True)
        rhs = _blocked_gram(self._phi, targets)
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


def _blocked_gram(phi: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """phi.T @ rhs accumulated over fixed-size path blocks in block order."""
    acc = phi[:_BLOCK].T @ rhs[:_BLOCK]
    for start in range(_BLOCK, phi.shape[0], _BLOCK):
        acc += phi[start : start + _BLOCK].T @ rhs[start : start + _BLOCK]
    return acc


def _gram(phi: np.ndarray) -> np.ndarray:
    """phi.T @ phi over the path blocks of _blocked_gram, in block order.

    Each block is multiplied by its copy in one reused Fortran-ordered
    scratch, so that numpy calls dgemm: given one buffer on both sides it
    calls dsyrk, which OpenBLAS runs 2-4x slower at these tall, narrow
    shapes (a 200k x 5 projector build took 2.5 ms with dsyrk, 0.85 ms
    with dgemm, at one BLAS thread)."""
    n, p = phi.shape
    copy = np.empty((min(_BLOCK, n), p), order="F")
    gram = np.zeros((p, p))
    for start in range(0, n, _BLOCK):
        block = phi[start : start + _BLOCK]
        scratch = copy[: block.shape[0]]
        np.copyto(scratch, block)
        gram += block.T @ scratch
    return gram


def digest(values: np.ndarray):
    """Cache key of an array: its shape and a 256-bit hash of its float64 bytes."""
    arr = np.ascontiguousarray(values, dtype=float)
    return arr.shape, hashlib.blake2b(arr.view(np.uint8), digest_size=32).digest()


@dataclass
class _Reuse:
    """Work shared by every context on one root ensemble.

    factors maps (rows, basis, node) to the Cholesky factor of
    that normal system, for the life of the contexts: a p x p matrix each
    (None for a constant-only design), while phi (n x p) is rebuilt on every
    use.  fallbacks counts the cache's misses whose normal system needed the
    automatic 1e-10 ridge retry.  memo is the evaluation memo while one is
    open (LsmcContext.evaluation_memo), None otherwise.
    """

    factors: dict = field(default_factory=dict)
    fallbacks: int = 0
    memo: Optional[dict] = None


@dataclass
class LsmcContext:
    """Evaluation context: grid, ensemble and basis.

    Contexts derived from one another (with_basis, block) share a factor
    cache, so each distinct normal system is factorised once; rows is the
    slice of the root ensemble's paths this context holds.  fallback_count
    reads how many distinct normal systems of the shared cache needed the
    automatic 1e-10 ridge retry when first factorised (zero for a clean
    run), in this context or in any that shares the cache.
    """

    grid: TimeGrid
    ensemble: PathEnsemble
    basis: RegressionBasis = field(default_factory=RegressionBasis)
    rows: tuple = field(init=False, compare=False)
    _reuse: _Reuse = field(default_factory=_Reuse, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ensemble.grid != self.grid:
            raise ValueError("ensemble was simulated on a different grid")
        self.rows = (0, self.ensemble.n_paths)

    def _derived(self, ensemble: PathEnsemble, basis: RegressionBasis, rows: tuple) -> "LsmcContext":
        ctx = LsmcContext(self.grid, ensemble, basis)
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
    def fallback_count(self) -> int:
        return self._reuse.fallbacks

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

    def projector(self, at: int) -> _Projector:
        """Factorized projector onto the basis at node `at`.

        The conditioning variable is the Brownian level at t_at scaled by
        1/sqrt(t_at); at the root there is none, and
        _Projector.coefficients gives the sample mean.  The normal system is
        factorised on first use and its factor reused.
        """
        if at > 0:
            variables = self.ensemble.levels(at) / np.sqrt(at * self.grid.dt)
        else:
            variables = np.empty((self.ensemble.n_paths, 0))
        phi = self.basis.design(variables)
        key = (self.rows, self.basis, at)
        factors = self._reuse.factors
        if key in factors:
            return _Projector._from_factor(phi, factors[key])
        proj = _Projector(phi, self)
        factors[key] = proj._chol
        return proj

    def cond_expect(self, field: RandomField, at: int, clip: bool = False) -> RandomField:
        """Least-squares realization of E[field | F_{t_at}].

        Fields already measurable at `at` (field.index <= at) are returned
        unchanged: conditioning on a finer sigma-algebra is the identity.
        At at = 0 it is the sample mean (_Projector.coefficients).
        Linear in the field; the constant is always in the basis, so sample
        means are preserved exactly.  clip=True clamps the fit to the field's
        sample range (see _Projector.fitted).
        """
        if not 0 <= at <= self.grid.n_steps:
            raise IndexError(f"node {at} outside the grid [0, {self.grid.n_steps}]")
        if field.index <= at:
            return RandomField(at, field.values)
        fitted = self.projector(at).fitted(field.values, clip=clip)
        return RandomField(at, fitted)


def path_block(ensemble: PathEnsemble, start: int, stop: int) -> PathEnsemble:
    """Sub-ensemble over a contiguous path slice (shares the arrays)."""
    return PathEnsemble(grid=ensemble.grid, seed=ensemble.seed, values=ensemble.values[start:stop])


def block_stderr(ctx: LsmcContext, estimate) -> float:
    """Monte Carlo standard error of a scalar estimator by block splitting.

    `estimate(sub, rows)` maps a context on one block of paths, and the
    slice of the parent's path rows it holds, to a float; rows lets a caller
    cut its own per-path arrays to the block.  It is re-run on 8 contiguous
    sub-ensembles and the spread of the block estimates scales down to the
    full-sample error.  Deterministic: the partition depends on the path
    count only.  The block contexts share ctx's factor cache, so repeated
    calls on one parent factorise each block's normal systems once.
    """
    n, n_blocks = ctx.ensemble.n_paths, 8
    if n < n_blocks:
        raise ValueError(f"block standard error over {n_blocks} blocks needs >= {n_blocks} paths, got {n}")
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

    The header's d=1 and the dim column's 0 name the one Brownian component.
    Each value is written as its float repr, so the file reads back bit-exact.
    Rows go out CSV_BLOCK_ROWS at a time, in whole paths: memory stays bounded.
    """
    g = ensemble.grid
    tails = [f",{i},0," for i in range(g.n_steps + 1)]
    step = max(1, CSV_BLOCK_ROWS // len(tails))
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# seed={ensemble.seed} T={g.T!r} n_steps={g.n_steps} "
            f"d=1 n_paths={ensemble.n_paths}\n"
        )
        fh.write("path,node,dim,value\n")
        for start in range(0, ensemble.n_paths, step):
            # reshape one block of paths at a time: reshaping the whole
            # node-major view would copy the whole ensemble
            block = np.asarray(ensemble.values[start : start + step], dtype=float)
            block = block.reshape(-1, len(tails)).tolist()
            fh.write("".join([
                f"{p}{tail}{v!r}\n" for p, row in enumerate(block, start) for tail, v in zip(tails, row)
            ]))


def ensemble_from_csv(path) -> PathEnsemble:
    """Read an ensemble_to_csv file bit-exact.

    Data row r (from 0) must hold the cell where ensemble_to_csv writes it,
    (r // n_nodes, r % n_nodes, 0).  The rows are parsed from the open file
    CSV_READ_ROWS lines at a time into the node-major levels, so besides
    them the reader holds one block.  The first row out of place or past the
    header's count raises a ValueError naming the file, the data row, the
    cell it holds and the one expected; a short file names its first missing
    cell, and a header of fewer than 2 paths or of d != 1 raises first.
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
        _check_levels(shape, f"{path}: ")
        _check_values(shape, np.dtype(float), grid, f"{path}: ")
        n_paths, n_nodes, _ = shape
        fh.readline()  # column header
        vals = np.empty((n_nodes, n_paths, 1))
        n_rows = 0
        # each pass takes one line to see that data remains, then parses it
        # and the lines after it; a block that starts on a data row is never
        # empty, and islice, unlike max_rows, counts blank lines silently
        for line in fh:
            if not line.partition("#")[0].strip():
                continue
            try:
                rows = np.loadtxt(
                    chain([line], islice(fh, CSV_READ_ROWS - 1)), delimiter=",", dtype=_CSV_ROW, ndmin=1
                )
            except ValueError as exc:
                raise ValueError(f"{path}: in the data rows from {n_rows + 1}: {exc}") from exc
            r = np.arange(n_rows, n_rows + rows.size)
            p, i = np.divmod(r, n_nodes)
            bad = (rows["path"] != p) | (rows["node"] != i) | (rows["dim"] != 0) | (p >= n_paths)
            if bad.any():
                j = int(np.argmax(bad))
                held = f"({rows['path'][j]},{rows['node'][j]},{rows['dim'][j]})"
                want = f"({p[j]},{i[j]},0)" if p[j] < n_paths else f"nothing, the header has {vals.size} rows"
                raise ValueError(f"{path}: data row {r[j] + 1} holds {held}, expected {want}")
            vals.reshape(-1)[i * n_paths + p] = rows["value"]
            n_rows += rows.size
    if n_rows != vals.size:
        p, i = divmod(n_rows, n_nodes)
        raise ValueError(
            f"{path}: {n_rows} data rows, the header needs {vals.size}; the first missing is ({p},{i},0)"
        )
    vals.setflags(write=False)
    return PathEnsemble(grid=grid, seed=seed, values=vals.transpose(1, 0, 2))


def ensemble_to_npz(ensemble: PathEnsemble, path) -> None:
    """Write the levels as held, with the seed and the grid.  The node-major
    view is Fortran-contiguous, so np.savez stores it with fortran_order
    True, its bytes in node order, and copies nothing."""
    np.savez(
        path,
        values=ensemble.values,
        seed=np.int64(ensemble.seed),
        T=np.float64(ensemble.grid.T),
        n_steps=np.int64(ensemble.grid.n_steps),
    )


def ensemble_from_npz(path) -> PathEnsemble:
    """Read an ensemble_to_npz file.

    numpy reads the values.npy member into one buffer and returns its
    node-major view, which PathEnsemble keeps without a copy; a path-major
    (C-order) member is copied into node-major once.  A missing key, or
    levels that are malformed or that PathEnsemble rejects (fewer than 2
    paths, not float64, off the grid, or of d other than 1), raise a
    ValueError naming the file."""
    with np.load(path) as data:
        missing = [key for key in ("values", "seed", "T", "n_steps") if key not in data.files]
        if missing:
            raise ValueError(f"{path}: missing {', '.join(missing)}")
        grid = TimeGrid(T=float(data["T"]), n_steps=int(data["n_steps"]))
        seed = int(data["seed"])
        try:
            values = data["values"]
            if values.ndim == 3:  # the floor first
                _check_levels(values.shape)
            values.setflags(write=False)
            return PathEnsemble(grid=grid, seed=seed, values=values)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
