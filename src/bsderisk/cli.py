"""Configuration-driven experiment runner.

Subcommands: simulate | evaluate | verify | sweep | report.  Configs are
plain INI-style key-value text whose sections mirror RunConfig; parsing and
re-serialization round-trip to an identical canonical form.  All floats are
printed with 9 significant digits so outputs are byte-stable, and every
output row carries the seed, path count and step count that produced it.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import (
    CHECKS,
    EXPECTED_VERDICTS,  # re-exported: bench/test_bench.py reads cli.EXPECTED_VERDICTS
    GAMMA_CROSS,
    PropertyReport,
    audit_expected,
    check_premium_identity,
    check_time_consistency,
    gamma,
    implication_failures,
    reports_to_csv,
    reports_to_json_lines,
    run_check,
    taxonomy_row,
    taxonomy_rows,
)
from .parallel import in_processes
from .riskmeasures import measure_from_label
from .stochastic import (
    LsmcContext,
    RegressionBasis,
    TimeGrid,
    claim_from_label,
    ensemble_to_csv,
    ensemble_to_npz,
    estimate_stderr,
    label_number,
    simulate,
)

__all__ = ["RunConfig", "parse_config", "main", "run_evaluate", "run_sweep", "run_verify"]

SWEEP_HEADER = "axis,value,measure,claim,t,u,v,estimate,stderr,seed,n_paths,n_steps"
SWEEP_AXES = ("q", "beta", "r")
SWEEP_METRICS = ("value", "weak_ratio", "gamma")


@contextmanager
def _refused_input():
    """Mark a ValueError or KeyError raised in the block as refused input,
    which main reports in one line; any other fault keeps its traceback."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        exc.refused_input = True
        raise


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


@dataclass
class RunConfig:
    # [grid]
    T: float = 1.0
    n_steps: int = 40
    # [ensemble]
    n_paths: int = 20000
    seed: int = 12345
    # [basis]
    degree: int = 4
    # [run]
    measure: str = "entropic"
    claim: str = "brownian"
    s: float = 0.0
    t: float = 0.5
    u: float = 0.75
    v: float = 1.0
    # accepted and discarded: the benchmark's sweep_qent still passes
    # workers=2 until the benchmark refresh (ROADMAP item 1) drops it
    workers: InitVar[int] = 1
    checks: tuple = ("taxonomy", "gamma_cross")
    # [sweep]
    axis: str = "q"
    values: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    metric: str = "value"
    # [output]
    out_dir: str = "out"

    def canonical_text(self) -> str:
        lines = []
        for section, fields in _CONFIG_FIELDS.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {_config_value(getattr(self, name))}" for key, name, _ in fields]
            lines.append("")
        return "\n".join(lines)

    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, self.n_steps)

    def build(self):
        with _refused_input():  # the path count, grid and seed
            if self.seed < 0:
                raise ValueError(f"--seed / [ensemble] seed = {self.seed}: need a non-negative integer")
            grid = self.grid()
            ens = simulate(grid, 1, self.n_paths, self.seed)
        return LsmcContext(grid, ens, RegressionBasis(self.degree))

    def indices(self) -> tuple[int, int, int, int]:
        """Grid indices of the window (s, t, u, v), checked before any path is
        drawn: each must be a grid node, and s <= t <= u <= v.  A ValueError
        names the offending [run] keys."""
        grid = self.grid()
        index, off = {}, []
        for key in "stuv":
            try:
                index[key] = grid.index_of(getattr(self, key))
            except ValueError:
                off.append(f"{key} = {_fmt(getattr(self, key))}")
        if off:
            raise ValueError(f"[run] {', '.join(off)}: not a node of the grid "
                             f"T = {_fmt(self.T)}, n_steps = {self.n_steps}")
        unordered = [
            f"{a} = {_fmt(getattr(self, a))} > {b} = {_fmt(getattr(self, b))}"
            for a, b in zip("stu", "tuv") if index[a] > index[b]
        ]
        if unordered:
            raise ValueError(f"[run] {', '.join(unordered)}: the window needs s <= t <= u <= v")
        return index["s"], index["t"], index["u"], index["v"]


def _names(raw: str) -> tuple:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(","))


# section -> (key, RunConfig field, converter), in canonical order
_CONFIG_FIELDS = {
    "grid": (("T", "T", float), ("n_steps", "n_steps", int)),
    "ensemble": (("n_paths", "n_paths", int), ("seed", "seed", int)),
    "basis": (("degree", "degree", int),),
    "run": (
        ("measure", "measure", str),
        ("claim", "claim", str),
        ("s", "s", float),
        ("t", "t", float),
        ("u", "u", float),
        ("v", "v", float),
        ("checks", "checks", _names),
    ),
    "sweep": (("axis", "axis", str), ("values", "values", _floats), ("metric", "metric", str)),
    "output": (("dir", "out_dir", str),),
}


def _config_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from exc
    extra = set(cp.sections()) - set(_CONFIG_FIELDS)
    if extra:
        raise ValueError(f"unknown config sections: {sorted(extra)}")
    values = {}
    for section in cp.sections():
        # configparser lower-cases keys; the table keeps the canonical spelling
        fields = {key.lower(): (key, name, conv) for key, name, conv in _CONFIG_FIELDS[section]}
        for opt, raw in cp.items(section):
            if opt not in fields:
                raise ValueError(f"unknown config key [{section}] {opt}")
            key, name, conv = fields[opt]
            try:
                values[name] = conv(raw)
            except ValueError as exc:
                raise ValueError(f"config [{section}] {key} = {raw!r}: {exc}") from exc
    return RunConfig(**values)


def _sweep_row(axis, value, measure, claim, t, u, v, estimate, stderr, cfg) -> str:
    """One CSV row; fields with commas (measure labels) are quoted."""
    cells = [axis, _fmt(float(value)), measure, claim, *(_fmt(float(x)) for x in (t, u, v, estimate, stderr)),
             cfg.seed, cfg.n_paths, cfg.n_steps]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def _value(ctx, measure, claim, t, u):
    """rho_{tu}(X) and the block-split standard error of its mean."""
    rho = measure.evaluate(ctx, t, claim, maturity=u)
    se = estimate_stderr(ctx, rho, lambda sub, rows: measure.evaluate(sub, t, claim, maturity=u).mean())
    return rho, se


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def run_evaluate(cfg: RunConfig) -> tuple[str, str, Optional[str]]:
    """Evaluate one measure on one claim.

    Returns (stdout text, csv text, pathwise csv text or None).  Conditional
    values at t > 0 are reported both pathwise and as the coefficients of
    their basis representation.  A bad window or label is rejected before
    any path is drawn."""
    with _refused_input():
        s, t, u, v = cfg.indices()
        claim = claim_from_label(cfg.claim, u)
        measure = measure_from_label(cfg.measure, cfg.grid())
    ctx = cfg.build()
    rho, se = _value(ctx, measure, claim, t, u)
    est = rho.mean()
    lines = [
        f"measure={cfg.measure} claim={cfg.claim} t={_fmt(cfg.t)} u={_fmt(cfg.u)}",
        f"estimate = {_fmt(est)} +- {_fmt(se)} (seed={cfg.seed} paths={cfg.n_paths} steps={cfg.n_steps})",
    ]
    pathwise_text = None
    if t > 0:
        coeffs = ctx.projector(t).coefficients(rho.values[:, None])[:, 0]
        lines.append("basis coefficients at t: " + " ".join(_fmt(float(c)) for c in coeffs))
        pathwise_text = "path,value\n" + "".join(
            f"{p},{_fmt(v)}\n" for p, v in enumerate(rho.values.tolist())
        )
    csv_text = SWEEP_HEADER + "\n" + _sweep_row(
        "value", 0.0, cfg.measure, cfg.claim, cfg.t, cfg.u, cfg.v, est, se, cfg
    ) + "\n"
    return "\n".join(lines) + "\n", csv_text, pathwise_text


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def run_sweep(cfg: RunConfig) -> str:
    """Sweep one axis; returns the CSV text.

    The measure label may carry {q}, {beta} or {r} placeholders that each
    sweep value substitutes, written so that it reads back exactly
    (label_number); the value column keeps 9 digits.  metric = value
    reports the risk estimate at (t, u); metric = weak_ratio reports the
    weak-consistency ratio over (s, t, u); metric = gamma reports the
    horizon correction over (t, u, v).
    A bad axis, metric, label (it must carry the axis placeholder and no
    other, and resolve at every sweep value) or window is rejected before
    any path is drawn.
    """
    with _refused_input():
        where = f"measure label {cfg.measure!r} (axis={cfg.axis})"
        if cfg.axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {', '.join(SWEEP_AXES)}: {where}")
        placeholder = "{" + cfg.axis + "}"
        if "{" in cfg.measure.replace(placeholder, ""):
            raise ValueError(f"unresolved placeholder in {where}")
        if placeholder not in cfg.measure:
            raise ValueError(f"no {placeholder} placeholder for the sweep axis in {where}")
        if cfg.metric not in SWEEP_METRICS:
            raise ValueError(f"unknown sweep metric {cfg.metric!r} for {where}")
        s, t, u, v = cfg.indices()
        claim = claim_from_label(cfg.claim, u)
        labels = [cfg.measure.replace(placeholder, label_number(float(value))) for value in cfg.values]
        measures = [measure_from_label(label, cfg.grid()) for label in labels]
    ctx = cfg.build()

    def row(item) -> str:
        value, label, measure = item
        if cfg.metric == "value":
            rho, se = _value(ctx, measure, claim, t, u)
            est = rho.mean()
        elif cfg.metric == "weak_ratio":
            ratio = check_time_consistency(ctx, measure, "weak", claim, s, t, u).details.get("ratio")
            est, se = float("nan") if ratio is None else ratio, 0.0
        else:  # gamma
            res = gamma(ctx, measure, claim, t, u, v)
            est, se = res.gamma_mean, res.gamma_stderr
        return _sweep_row(cfg.axis, value, label, cfg.claim, cfg.t, cfg.u, cfg.v, est, se, cfg)

    rows = in_processes(row, list(zip(cfg.values, labels, measures)))
    return "\n".join([SWEEP_HEADER, *rows]) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(cfg: RunConfig) -> tuple[list[PropertyReport], dict]:
    """Execute the requested checks; returns (reports, summary).

    The taxonomy check runs the full implication matrix over the standard
    construction registry and audits observed verdicts against the expected
    table.  gamma_cross runs `check_premium_identity` on each GAMMA_CROSS
    driver, comparing the direct and premium-measure gamma computations.  Any
    other name is one `run_check` on the configured measure and claim.  The
    names (at least one), the window and the labels the checks use are
    checked before any path is drawn.  Every taxonomy row, GAMMA_CROSS driver
    and single check is one task of a single `in_processes` map; the reports
    keep the order of the checks.  summary["ok"] is the exit-status signal.
    """
    with _refused_input():
        if not cfg.checks:
            raise ValueError("[run] checks is empty: name at least one check")
        unknown = [name for name in cfg.checks if name not in ("taxonomy", "gamma_cross", *CHECKS)]
        if unknown:
            raise ValueError(f"unknown check(s) {', '.join(map(repr, unknown))} in checks = {','.join(cfg.checks)}")
        s, t, u, v = cfg.indices()
        claim = claim_from_label(cfg.claim, u)
        single = set(cfg.checks) - {"taxonomy", "gamma_cross"}
        measure = measure_from_label(cfg.measure, cfg.grid()) if single else None
    ctx = cfg.build()

    # per check: (name, the label each task's report is audited under, the tasks)
    groups = []
    for name in cfg.checks:
        if name == "taxonomy":
            rows = [(measure_from_label(lbl, ctx.grid), claim_from_label(claim_lbl, u))
                    for lbl, claim_lbl in taxonomy_rows()]
            groups.append((name, None, [partial(taxonomy_row, ctx, m, x, s, t, u, v) for m, x in rows]))
        elif name == "gamma_cross":
            held = claim_from_label(cfg.claim, t)
            groups.append((name, [drv.label for drv in GAMMA_CROSS],
                           [partial(check_premium_identity, ctx, drv, held, s, t, u) for drv in GAMMA_CROSS]))
        else:
            groups.append((name, [cfg.measure], [partial(run_check, ctx, name, measure, claim, s, t, u, v)]))
    done = iter(in_processes(lambda task: task(), [task for _, _, tasks in groups for task in tasks]))

    reports: list[PropertyReport] = []
    failures: list[dict] = []
    for name, labels, tasks in groups:
        got = [next(done) for _ in tasks]
        if name == "taxonomy":
            t_reports = [r for row in got for r in row]
            reports.extend(t_reports)
            failures.extend(implication_failures(t_reports) + audit_expected(t_reports))
            continue
        reports.extend(got)
        failures.extend({"measure": label, "check": rep.property} for label, rep in zip(labels, got)
                        if not rep.verdict)

    summary = {
        "ok": not failures,
        "n_checks": len(reports),
        "n_failures": len(failures),
        "failures": failures,
        "seed": cfg.seed,
        "n_paths": cfg.n_paths,
        "n_steps": cfg.n_steps,
    }
    return reports, summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read_input(path: Path) -> str:
    """The text of an input file; one that cannot be read or decoded is
    refused input that names the path."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _load_config(args) -> RunConfig:
    cfg = parse_config(_read_input(Path(args.config))) if args.config else RunConfig()
    flags = {"seed": args.seed, "n_paths": args.paths, "n_steps": args.steps, "out_dir": args.out}
    return replace(cfg, **{name: value for name, value in flags.items() if value is not None})


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsderisk",
        description="Monte Carlo engine and axiom-verification harness for "
        "dynamic risk measures driven by backward SDEs",
    )
    parser.add_argument("--config", help="path to a key-value config file")
    parser.add_argument("--seed", type=int, help="override the ensemble seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--paths", type=int, help="override the path count")
    parser.add_argument("--steps", type=int, help="override the step count")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "evaluate", "verify", "sweep"):
        sub.add_parser(name)
    rep = sub.add_parser("report")
    rep.add_argument("bundle", nargs="?", help="results directory (defaults to the output dir)")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, KeyError) as exc:
        if not getattr(exc, "refused_input", False):
            raise
        print(f"bsderisk: error: {exc.args[0]}", file=sys.stderr)
        return 2


def _run(args) -> int:
    with _refused_input():
        cfg = _load_config(args)
    out_dir = Path(cfg.out_dir)

    if args.command == "simulate":
        ctx = cfg.build()
        ensemble_to_csv(ctx.ensemble, _write(out_dir, "config.txt", cfg.canonical_text()).parent / "paths.csv")
        ensemble_to_npz(ctx.ensemble, out_dir / "paths.npz")
        print(f"wrote {cfg.n_paths} paths x {cfg.n_steps} steps (seed={cfg.seed}) to {out_dir}")
        return 0

    if args.command == "evaluate":
        text, csv_text, pathwise_text = run_evaluate(cfg)
        _write(out_dir, "evaluate.csv", csv_text)
        if pathwise_text is not None:
            _write(out_dir, "evaluate_pathwise.csv", pathwise_text)
        _write(out_dir, "config.txt", cfg.canonical_text())
        sys.stdout.write(text)
        return 0

    if args.command == "sweep":
        csv_text = run_sweep(cfg)
        _write(out_dir, "sweep.csv", csv_text)
        _write(out_dir, "config.txt", cfg.canonical_text())
        sys.stdout.write(csv_text)
        return 0

    if args.command == "verify":
        reports, summary = run_verify(cfg)
        _write(out_dir, "checks.jsonl", reports_to_json_lines(reports))
        _write(out_dir, "checks.csv", reports_to_csv(reports))
        _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=False) + "\n")
        _write(out_dir, "config.txt", cfg.canonical_text())
        for r in reports:
            print(f"[{'PASS' if r.verdict else 'FAIL'}] {r.construction}: {r.property}")
        print(f"{summary['n_checks']} checks, {summary['n_failures']} unexpected results")
        return 0 if summary["ok"] else 1

    if args.command == "report":
        bundle = Path(args.bundle) if args.bundle else out_dir
        with _refused_input():
            summary_text, checks_text = _read_input(bundle / "summary.json"), _read_input(bundle / "checks.jsonl")
        summary = json.loads(summary_text)
        for line in checks_text.splitlines():
            r = json.loads(line)
            print(f"[{r['verdict'].upper()}] {r['construction']}: {r['property']} "
                  f"(max_violation={r['max_violation']}, tol={r['tolerance']})")
        print(f"ok={summary['ok']} failures={summary['n_failures']}")
        return 0 if summary["ok"] else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
