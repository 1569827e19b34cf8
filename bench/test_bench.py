"""Quick tests of the benchmark itself, at small sizes.

    python3 -m pytest -q bench/test_bench.py

Each output check must accept a correct result and reject a perturbed one,
and the traced counts must equal counts taken independently at that size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from bsderisk import bsde, cli, riskmeasures, stochastic  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# verify bundle checks
# ---------------------------------------------------------------------------

def expected_bundle():
    reports = [
        {"construction": c, "property": p, "verdict": "pass" if v else "fail"}
        for c, props in cli.EXPECTED_VERDICTS.items() for p, v in props.items()
    ]
    reports += [
        {"construction": c, "property": "gamma_premium_identity", "verdict": "pass"}
        for c in ("driver:csa_example+0.1", "driver:q_entropic_translated:1,0.1")
    ]
    return reports, {"seed": 1, "failures": []}


def set_verdict(reports, construction, prop, verdict):
    for r in reports:
        if (r["construction"], r["property"]) == (construction, prop):
            r["verdict"] = verdict
            return reports
    raise KeyError((construction, prop))


def test_verify_check_accepts_expected_table():
    reports, summary = expected_bundle()
    assert wl.check_verify(0, reports, summary) == ([], [])


def test_verify_check_notes_known_flip():
    reports, summary = expected_bundle()
    set_verdict(reports, "driver:csa_example", "h_longevity", "fail")
    summary["failures"] = [{"measure": "driver:csa_example", "check": "h_longevity",
                            "expected": True, "observed": False}]
    problems, notes = wl.check_verify(1, reports, summary)
    assert problems == []
    assert len(notes) == 1 and "known seed-dependent" in notes[0]


def test_verify_check_rejects_known_flip_with_another_failure():
    reports, summary = expected_bundle()
    set_verdict(reports, "driver:csa_example", "h_longevity", "fail")
    summary["failures"] = [{"measure": "driver:csa_example", "check": "h_longevity"},
                           {"measure": "entropic", "check": "tc_weak"}]
    problems, _ = wl.check_verify(1, reports, summary)
    assert len(problems) == 1 and "exit status 1" in problems[0]


@pytest.mark.parametrize("perturb", [
    "exit_status", "missing_report", "weak_implies_order", "strong_norm_restr_implies_weak",
    "weak_longevity_rho0_implies_sub", "normalization_vs_generator", "restriction_vs_generator",
    "premium_identity",
])
def test_verify_check_rejects(perturb):
    reports, summary = expected_bundle()
    rc = 0
    if perturb == "exit_status":
        rc, summary["failures"] = 1, [{"measure": "entropic", "check": "tc_weak"}]
    elif perturb == "missing_report":
        reports.pop(0)
    elif perturb == "weak_implies_order":
        set_verdict(reports, "entropic", "tc_order", "fail")
    elif perturb == "strong_norm_restr_implies_weak":
        set_verdict(reports, "qent:0.5,0", "tc_weak", "fail")
    elif perturb == "weak_longevity_rho0_implies_sub":
        set_verdict(reports, "entropic", "tc_sub", "fail")
    elif perturb == "normalization_vs_generator":
        set_verdict(reports, "driver:csa_example_shift", "normalization", "pass")
    elif perturb == "restriction_vs_generator":
        set_verdict(reports, "driver:abs_z", "restriction", "fail")
        set_verdict(reports, "driver:abs_z", "tc_weak", "fail")
        set_verdict(reports, "driver:abs_z", "tc_order", "fail")
    elif perturb == "premium_identity":
        set_verdict(reports, "driver:csa_example+0.1", "gamma_premium_identity", "fail")
    problems, _ = wl.check_verify(rc, reports, summary)
    assert problems, perturb


def test_generator_flags():
    assert wl.generator_flags("quad_z") == (True, True)
    assert wl.generator_flags("csa_example") == (True, False)
    assert wl.generator_flags("csa_example_shift") == (False, False)
    assert wl.generator_flags("linear_y:0.1") == (True, False)


# ---------------------------------------------------------------------------
# solve, sweep and export checks on real small runs
# ---------------------------------------------------------------------------

def test_solve_check():
    cfg = cli.RunConfig(n_steps=20, n_paths=20_000, seed=3)
    ctx = cfg.build()
    terminal = stochastic.RandomField(20, ctx.ensemble.values[:, 20, 0])
    sol = bsde.solve(bsde.driver_from_label("quad_z"), terminal, 20, ctx)
    y0, y_m = float(sol.Y[0].mean()), sol.Y[20]
    assert wl.check_solve(y0, y_m, terminal.values) == []
    assert wl.check_solve(y0 + 0.06, y_m, terminal.values)
    bumped = y_m.copy()
    bumped[7] = np.nextafter(bumped[7], np.inf)
    assert wl.check_solve(y0, bumped, terminal.values)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    w = wl.SweepQent(5, work)
    w.cfg.n_paths = 20_000
    w.cfg.n_steps = 10
    w.config.write_text(w.cfg.canonical_text())
    b1 = wl.brownian_terminal(5, w.cfg.n_paths, w.cfg.n_steps)
    w.reference = {q: wl.losses_measure(b1, q) for q in w.QS}
    assert w.run() == 0
    rows = list(wl.csv.DictReader((w.out / "sweep.csv").read_text().splitlines()))
    return w, rows


def test_sweep_check_accepts_program_output(small_sweep):
    w, rows = small_sweep
    assert wl.check_sweep(rows, w.reference, w.cfg) == []


@pytest.mark.parametrize("perturb", ["off_reference", "decreasing", "seed_column", "missing_row"])
def test_sweep_check_rejects(small_sweep, perturb):
    w, rows = small_sweep
    rows = [dict(r) for r in rows]
    reference = w.reference
    if perturb == "off_reference":
        rows[2]["estimate"] = str(float(rows[2]["estimate"]) + 0.06)
    elif perturb == "decreasing":
        # a drop beyond the 1e-3 slack, against a reference that matches
        # every row, so only the ordering in q can reject it
        rows[2]["estimate"] = str(float(rows[1]["estimate"]) - 0.002)
        reference = {float(r["value"]): float(r["estimate"]) for r in rows}
    elif perturb == "seed_column":
        rows[0]["seed"] = "6"
    elif perturb == "missing_row":
        rows.pop()
    assert wl.check_sweep(rows, reference, w.cfg)


def test_reference_blocks_are_the_simulated_rows():
    ens = stochastic.simulate(stochastic.TimeGrid(1.0, 7), 1, 1000, 11)
    blocks = list(wl.brownian(11, 1000, 7, rows=300))
    assert [start for start, _, _ in blocks] == [0, 300, 600, 900]
    assert np.array_equal(np.concatenate([B for _, B, _ in blocks]), ens.values)
    assert np.array_equal(np.concatenate([dB for _, _, dB in blocks]), ens.increments)
    assert np.array_equal(wl.brownian_terminal(11, 1000, 7), ens.values[:, -1, 0])


def test_export_check(tmp_path):
    grid = stochastic.TimeGrid(1.0, 5)
    ens = stochastic.simulate(grid, 1, 300, 9)
    stochastic.ensemble_to_csv(ens, tmp_path / "p.csv")
    stochastic.ensemble_to_npz(ens, tmp_path / "p.npz")
    back = {"csv": stochastic.ensemble_from_csv(tmp_path / "p.csv"),
            "npz": stochastic.ensemble_from_npz(tmp_path / "p.npz")}

    def reference(seed=9, n_paths=300):
        return list(wl.brownian(seed, n_paths, 5, rows=128))

    assert wl.check_export(back, reference(), 9, grid)[0] == []
    assert wl.check_export(back, reference(), 10, grid)[0]
    assert wl.check_export(back, reference(), 9, stochastic.TimeGrid(2.0, 5))[0]
    assert wl.check_export(back, reference(n_paths=299), 9, grid)[0]
    bumped = reference()
    bumped[2][1][4, 3, 0] = np.nextafter(bumped[2][1][4, 3, 0], -np.inf)
    assert wl.check_export(back, bumped, 9, grid)[0]


# ---------------------------------------------------------------------------
# traced counts against exact counts
# ---------------------------------------------------------------------------

def traced(fn):
    tracer = spans.Tracer()
    with tracer:
        fn()
    return tracer.layer_metrics()


@pytest.mark.parametrize("label, driver_per_node, picard_per_node", [("quad_z", 1, 0), ("q_entropic:0.5", 4, 3)])
def test_solve_counts(label, driver_per_node, picard_per_node):
    ctx = cli.RunConfig(n_steps=10, n_paths=2000, seed=1).build()
    terminal = stochastic.RandomField(10, np.maximum(-ctx.ensemble.values[:, 10, 0], 0.0))
    m = traced(lambda: bsde.solve(bsde.driver_from_label(label), terminal, 10, ctx))
    assert m["bsde.solves"] == 1
    assert m["stochastic.projector_builds"] == m["stochastic.projector_distinct"] == 10
    assert m["stochastic.design_calls"] == m["bsde.backward_steps"] == 10
    assert m["stochastic.fit_calls"] == 20
    assert m["bsde.driver_calls"] == 10 * driver_per_node
    assert m["bsde.picard_evals"] == 10 * picard_per_node
    # nested spans: the self times never exceed the whole
    assert 0 < m["stochastic.fit_s"] and 0 < m["bsde.solve_s"]


def test_distinct_keys():
    ctx = cli.RunConfig(n_steps=10, n_paths=2000, seed=1).build()
    sub = stochastic.LsmcContext(ctx.grid, stochastic.path_block(ctx.ensemble, 0, 1000), ctx.basis)
    sub_again = stochastic.LsmcContext(ctx.grid, stochastic.path_block(ctx.ensemble, 0, 1000), ctx.basis)
    measure = riskmeasures.measure_from_label("entropic", ctx.grid)
    claim = stochastic.claim_from_label("brownian", 10)

    def work():
        ctx.projector(5), ctx.projector(5), sub.projector(5), sub_again.projector(5)
        measure.evaluate(ctx, 4, claim)
        measure.evaluate(ctx, 4, claim.evaluate(ctx.ensemble))  # same field as a RandomField
        measure.evaluate(ctx, 3, claim)

    m = traced(work)
    assert (m["stochastic.projector_builds"], m["stochastic.projector_distinct"]) == (4 + 3, 2 + 2)
    assert (m["riskmeasures.evaluations"], m["riskmeasures.evaluations_distinct"]) == (3, 2)


def test_cached_projector_is_not_a_build(monkeypatch):
    """Builds are factorisations: a projector served again from a cache in
    front of them is a call, not a build."""
    cache = {}
    original = stochastic.LsmcContext.projector

    def cached(self, at, aux=None):
        if (id(self), at) not in cache:
            cache[(id(self), at)] = original(self, at, aux)
        return cache[(id(self), at)]

    monkeypatch.setattr(stochastic.LsmcContext, "projector", cached)
    ctx = cli.RunConfig(n_steps=10, n_paths=2000, seed=1).build()
    terminal = stochastic.RandomField(10, ctx.ensemble.values[:, 10, 0])
    driver = bsde.driver_from_label("quad_z")
    m = traced(lambda: [bsde.solve(driver, terminal, 10, ctx) for _ in range(3)])
    assert m["bsde.backward_steps"] == m["stochastic.design_calls"] + 20 == 30
    assert m["stochastic.projector_builds"] == m["stochastic.projector_distinct"] == 10
    assert m["stochastic.projector_useful_ratio"] == 1.0
    assert m["stochastic.fit_calls"] == 60  # fits on cached projectors are traced too


def test_small_verify_counts_match_independent_counts(monkeypatch):
    """Counts taken at other boundaries: normal systems factorised (keyed by
    their design matrix), BSDESolution objects made, terminals resolved by
    RiskMeasure.evaluate."""
    counts = {"projector": 0, "solve": 0, "evaluate": 0}
    phis = set()
    init_p, init_s, terminal = stochastic._Projector.__init__, bsde.BSDESolution.__init__, riskmeasures._terminal

    def count_projector(self, phi, ridge, workers, ctx):
        counts["projector"] += 1
        phis.add((spans.fingerprint(phi), ctx.basis.degree))
        init_p(self, phi, ridge, workers, ctx)

    def count_solution(self, *a, **k):
        counts["solve"] += 1
        init_s(self, *a, **k)

    def count_terminal(ctx, claim):
        counts["evaluate"] += 1
        return terminal(ctx, claim)

    monkeypatch.setattr(stochastic._Projector, "__init__", count_projector)
    monkeypatch.setattr(bsde.BSDESolution, "__init__", count_solution)
    monkeypatch.setattr(riskmeasures, "_terminal", count_terminal)
    cfg = cli.RunConfig(n_paths=2000, n_steps=8, seed=4)
    m = traced(lambda: cli.run_verify(cfg))
    assert m["stochastic.projector_builds"] == counts["projector"] > 0
    assert m["stochastic.projector_distinct"] == len(phis)
    assert m["bsde.solves"] == counts["solve"] > 0
    assert m["riskmeasures.evaluations"] == counts["evaluate"] > 0
    assert m["diagnostics.checks"] == 12 * 8


def test_tracer_restores_every_binding():
    before = (bsde.solve, cli.main, stochastic.LsmcContext.projector, bsde.Driver.__call__)
    with spans.Tracer():
        import bsderisk.diagnostics as diagnostics
        assert diagnostics.solve is bsde.solve is not before[0]
    assert (bsde.solve, cli.main, stochastic.LsmcContext.projector, bsde.Driver.__call__) == before


# ---------------------------------------------------------------------------
# the benchmark's own contract
# ---------------------------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "solve_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
