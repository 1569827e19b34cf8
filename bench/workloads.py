"""The four benchmark workloads: inputs made from a seed, one round of work,
and output checks made apart from the program.

Each round calls bsderisk the way a user does, through `cli.main` or the
public library functions, so that one round is what a user waits for.  The
checks take the round's outputs and return a list of problems (empty when
correct) plus notes that are reported but are not problems.  Checks that
need a reference compute it with plain numpy from the seed, never with the
function under test.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from bsderisk import bsde, cli, stochastic

# The one verdict of the default verify that is known to flip with the seed
# (ROADMAP item 4; the seeds seen are in bench/README.md).  The benchmark runs
# at any seed, and a check that fails at some seeds and not at others cannot
# gate it, so this verdict alone is left out of the check: a run that meets
# it reports a note, and every other check of that bundle still applies.
KNOWN_SEED_FLIPS = {("driver:csa_example", "h_longevity")}

IMPLICATIONS = (
    (("tc_weak",), "tc_order"),
    (("tc_strong", "normalization", "restriction"), "tc_weak"),
    (("tc_weak", "h_longevity", "rho0_nonpositive"), "tc_sub"),
)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# plain-numpy references
# ---------------------------------------------------------------------------

def brownian(seed: int, n_paths: int, n_steps: int, T: float = 1.0, rows: int = 4096):
    """The seeded ensemble, drawn as the determinism contract documents (one
    standard normal block scaled by sqrt(dt), summed along time), yielded
    row block by row block as (first row, levels (k, n_steps+1, 1),
    increments (k, n_steps, 1)).  The normals fill in row order, so the
    blocks are the rows of the whole draw; only one block is held at a time,
    which keeps the references out of the workload's peak memory."""
    rng = np.random.default_rng(seed)
    for start in range(0, n_paths, rows):
        dB = rng.standard_normal((min(rows, n_paths - start), n_steps, 1)) * np.sqrt(T / n_steps)
        B = np.zeros((dB.shape[0], n_steps + 1, 1))
        np.cumsum(dB, axis=1, out=B[:, 1:, :])
        yield start, B, dB


def brownian_terminal(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """B_1 of every path of the seeded ensemble."""
    return np.concatenate([B[:, -1, 0] for _, B, _ in brownian(seed, n_paths, n_steps)])


def exp_q(x: np.ndarray, q: float) -> np.ndarray:
    return np.exp(x) if q == 1.0 else (1.0 + (1.0 - q) * x) ** (1.0 / (1.0 - q))


def ln_q(x: float, q: float) -> float:
    return float(np.log(x)) if q == 1.0 else (x ** (1.0 - q) - 1.0) / (1.0 - q)


def losses_measure(b1: np.ndarray, q: float) -> float:
    """ln_q(mean exp_q((B_1)^-)): the q-entropic measure of the losses of B_1."""
    return ln_q(float(np.mean(exp_q(np.maximum(-b1, 0.0), q))), q)


def generator_flags(label: str) -> tuple[bool, bool]:
    """(g(t,0,0) = 0, g(t,y,0) = 0) of a registry driver on a (t, y) grid."""
    drv = bsde.driver_from_label(label)
    ts = np.linspace(0.0, 1.0, 11)
    ys = np.linspace(-2.0, 2.0, 9)
    z0 = np.zeros((ys.size, 1))
    at_zero, at_z0 = True, True
    for t in ts:
        g = np.asarray(drv.fn(t, ys, z0), dtype=float)
        at_zero &= bool(abs(g[ys.size // 2]) <= 1e-12)
        at_z0 &= bool(np.all(np.abs(g) <= 1e-12))
    return at_zero, at_z0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_verify(rc: int, reports: list[dict], summary: dict) -> tuple[list[str], list[str]]:
    problems, notes = [], []
    unexpected = {(f.get("measure"), f.get("check") or f.get("implication")) for f in summary["failures"]}
    if rc != 0:
        if unexpected and unexpected <= KNOWN_SEED_FLIPS:
            notes.append(f"known seed-dependent verdict flipped at seed {summary['seed']}: {sorted(unexpected)}")
        else:
            problems.append(f"verify exit status {rc}, unexpected results {summary['failures']}")
    if len(reports) != 98:
        problems.append(f"verify wrote {len(reports)} reports, expected 98")
    verdict = {(r["construction"], r["property"]): r["verdict"] == "pass" for r in reports}
    for construction in sorted({c for c, p in verdict if p != "gamma_premium_identity"}):
        for premises, conclusion in IMPLICATIONS:
            if all(verdict.get((construction, p), False) for p in premises) and not verdict.get(
                (construction, conclusion), False
            ):
                problems.append(f"{construction}: {' and '.join(premises)} hold but {conclusion} fails")
        if construction.startswith("driver:"):
            norm, restr = generator_flags(construction.removeprefix("driver:"))
            for prop, want in (("normalization", norm), ("restriction", restr)):
                if verdict.get((construction, prop)) is not want:
                    problems.append(
                        f"{construction}: {prop} verdict {verdict.get((construction, prop))}, generator says {want}"
                    )
    premium = [r for r in reports if r["property"] == "gamma_premium_identity"]
    if len(premium) != 2 or not all(r["verdict"] == "pass" for r in premium):
        problems.append(f"gamma_premium_identity: {[(r['construction'], r['verdict']) for r in premium]}")
    return problems, notes


def check_solve(y0: float, y_maturity: np.ndarray, terminal: np.ndarray) -> list[str]:
    problems = []
    if not abs(y0 - 0.5) <= 0.05:
        problems.append(f"quad_z solve: Y_0 = {y0!r}, ln E[exp(B_1)] = 0.5")
    if not np.array_equal(y_maturity, terminal):
        problems.append("quad_z solve: Y at maturity differs from the terminal condition")
    return problems


def check_sweep(rows: list[dict], reference: dict[float, float], cfg: cli.RunConfig) -> list[str]:
    problems = []
    got = {float(r["value"]): float(r["estimate"]) for r in rows}
    if sorted(got) != sorted(reference):
        return [f"sweep rows for q = {sorted(got)}, expected {sorted(reference)}"]
    for r in rows:
        if (int(r["seed"]), int(r["n_paths"]), int(r["n_steps"])) != (cfg.seed, cfg.n_paths, cfg.n_steps):
            problems.append(f"sweep row carries seed/paths/steps {r['seed']}/{r['n_paths']}/{r['n_steps']}")
    for q, ref in reference.items():
        if not abs(got[q] - ref) <= 0.05:
            problems.append(f"q = {q:g}: estimate {got[q]!r} vs plain-numpy {ref!r}")
    qs = sorted(got)
    for a, b in zip(qs, qs[1:]):
        if got[b] < got[a] - 1e-3:
            problems.append(f"estimate decreases from q = {a:g} ({got[a]!r}) to q = {b:g} ({got[b]!r})")
    return problems


def check_export(ensembles: dict, reference, seed: int, grid) -> tuple[list[str], list[str]]:
    """Compare the re-read ensembles with the reference blocks of
    `brownian`.  Reloading re-derives the increments with np.diff; how far
    they move is reported as a note, since a solve on the reloaded ensemble
    inherits it."""
    problems, drift = [], 0.0
    for fmt, ens in ensembles.items():
        if ens.seed != seed or ens.grid != grid:
            problems.append(f"{fmt}: seed/grid {ens.seed}/{ens.grid} after the round trip, expected {seed}/{grid}")
    rows = 0
    for start, B, dB in reference:
        rows = start + B.shape[0]
        for fmt, ens in ensembles.items():
            got = ens.values[start:rows]
            if got.shape != B.shape or not np.array_equal(got.view(np.uint64), B.view(np.uint64)):
                problems.append(f"{fmt}: re-read values of rows {start}-{rows - 1} differ from the simulated ones")
            else:
                drift = max(drift, float(np.max(np.abs(ens.increments[start:rows] - dB))))
    for fmt, ens in ensembles.items():
        if ens.values.shape[0] != rows:
            problems.append(f"{fmt}: {ens.values.shape[0]} paths re-read, {rows} simulated")
    notes = [f"reloaded increments differ from the simulated ones by up to {drift:.3g}"] if drift else []
    return problems, notes


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class VerifyDefault:
    """`bsderisk verify` on the shipped default config at the given seed."""

    name = "verify_default"
    ops = 1

    def __init__(self, seed: int, work: Path):
        self.cfg = cli.RunConfig(seed=seed)
        self.out = work / "verify"
        self.argv = ["--seed", str(seed), "--out", str(self.out), "verify"]

    def run(self):
        return cli.main(self.argv)

    def check(self, rc):
        reports = [json.loads(line) for line in (self.out / "checks.jsonl").read_text().splitlines()]
        summary = json.loads((self.out / "summary.json").read_text())
        return check_verify(rc, reports, summary)

    def sizes(self):
        return {"cli.bundle_bytes": _dir_bytes(self.out)}


class SolveLarge:
    """Acceptance criterion 1: quad_z with terminal B_1 at 200k x 100,
    degree 4, on a freshly simulated ensemble and context."""

    name = "solve_large"
    ops = 1

    def __init__(self, seed: int, work: Path):
        self.cfg = cli.RunConfig(n_steps=100, n_paths=200_000, seed=seed, degree=4)
        self.out = None

    def run(self):
        ctx = self.cfg.build()
        m = self.cfg.n_steps
        terminal = stochastic.RandomField(m, ctx.ensemble.values[:, m, 0])
        sol = bsde.solve(bsde.driver_from_label("quad_z"), terminal, m, ctx)
        return float(sol.Y[0].mean()), sol.Y[m], terminal.values

    def check(self, out):
        return check_solve(*out), []

    def sizes(self):
        return {}


class SweepQent:
    """`bsderisk sweep` of qent_bsde:{q},0 on the Brownian claim over
    q = 0.25 .. 1 at 100k x 40 with two workers."""

    name = "sweep_qent"
    ops = 1
    QS = (0.25, 0.5, 0.75, 1.0)

    def __init__(self, seed: int, work: Path):
        self.cfg = cli.RunConfig(
            n_steps=40, n_paths=100_000, seed=seed, measure="qent_bsde:{q},0", claim="brownian",
            s=0.0, t=0.0, u=1.0, v=1.0, workers=2, axis="q", values=self.QS, metric="value",
            out_dir=str(work / "sweep"),
        )
        self.out = Path(self.cfg.out_dir)
        self.config = work / "sweep.cfg"
        self.config.write_text(self.cfg.canonical_text())
        b1 = brownian_terminal(seed, self.cfg.n_paths, self.cfg.n_steps)
        self.reference = {q: losses_measure(b1, q) for q in self.QS}

    def run(self):
        return cli.main(["--config", str(self.config), "sweep"])

    def check(self, rc):
        if rc != 0:
            return [f"sweep exit status {rc}"], []
        rows = list(csv.DictReader((self.out / "sweep.csv").read_text().splitlines()))
        return check_sweep(rows, self.reference, self.cfg), []

    def sizes(self):
        return {"cli.bundle_bytes": _dir_bytes(self.out)}


class ExportPaths:
    """`bsderisk simulate` at 20k x 40, then both files read back."""

    name = "export_paths"
    ops = 3

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.cfg = cli.RunConfig(n_steps=40, n_paths=20_000, seed=seed)
        self.out = work / "export"
        self.argv = ["--seed", str(seed), "--paths", "20000", "--steps", "40", "--out", str(self.out), "simulate"]

    def run(self):
        rc = cli.main(self.argv)
        return rc, {
            "csv": stochastic.ensemble_from_csv(self.out / "paths.csv"),
            "npz": stochastic.ensemble_from_npz(self.out / "paths.npz"),
        }

    def check(self, out):
        rc, ensembles = out
        reference = brownian(self.seed, self.cfg.n_paths, self.cfg.n_steps)
        problems, notes = check_export(ensembles, reference, self.seed, stochastic.TimeGrid(1.0, 40))
        return ([] if rc == 0 else [f"simulate exit status {rc}"]) + problems, notes

    def sizes(self):
        return {
            "stochastic.export_bytes": (self.out / "paths.csv").stat().st_size + (self.out / "paths.npz").stat().st_size,
            "cli.bundle_bytes": _dir_bytes(self.out),
        }


WORKLOADS = {w.name: w for w in (VerifyDefault, SolveLarge, SweepQent, ExportPaths)}
