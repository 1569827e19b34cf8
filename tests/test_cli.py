import csv
import io
import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bsderisk import RandomField, claim_from_label, cli, diagnostics, measure_from_label
from bsderisk.diagnostics import LongevityResult
from bsderisk.cli import RunConfig, main, parse_config, run_evaluate, run_sweep, run_verify


class TestConfigRoundTrip:
    def test_canonical_fixed_point(self):
        cfg = RunConfig(T=2.0, n_steps=40, n_paths=5000, seed=9, measure="qent:0.3,0.5",
                        claim="call:1", t=0.25, u=1.0, v=2.0, checks=("normalization",))
        text = cfg.canonical_text()
        again = parse_config(text)
        assert again == cfg
        assert again.canonical_text() == text

    def test_round_trip_from_loose_text(self):
        text = """
[grid]
T = 1.0
n_steps = 20

[run]
measure = entropic
claim = brownian
"""
        cfg = parse_config(text)
        assert cfg.n_steps == 20 and cfg.measure == "entropic"
        assert parse_config(cfg.canonical_text()) == cfg

    def test_parse_error_names_key(self):
        with pytest.raises(ValueError, match=r"\[grid\] n_steps"):
            parse_config("[grid]\nn_steps = soon\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config sections"):
            parse_config("[grid]\nT = 1\n\n[extras]\nfoo = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"\[run\] mesure"):
            parse_config("[run]\nmesure = entropic\n")


class TestNoRidgeOrDimension:
    """The CLI regresses one Brownian component with the retry as its only
    regularisation; neither the dimension nor a ridge can be set."""

    @pytest.mark.parametrize("section, key, value", [("ensemble", "d", "1"), ("basis", "ridge", "0")])
    def test_config_key_rejected(self, section, key, value):
        with pytest.raises(ValueError, match=re.escape(f"unknown config key [{section}] {key}")):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_canonical_text_has_neither(self):
        lines = RunConfig().canonical_text().splitlines()
        assert not [line for line in lines if line.startswith(("d =", "ridge ="))]
        assert "n_paths = 20000" in lines and "degree = 4" in lines


class TestNoWorkerCount:
    """The regression runs serially; there is no worker count to set."""

    def test_config_key_rejected(self):
        with pytest.raises(ValueError, match=r"\[run\] workers"):
            parse_config("[run]\nworkers = 2\n")

    @pytest.mark.parametrize("argv", [["--workers", "2", "verify"], ["--workers=2", "verify"],
                                      ["verify", "--workers", "2"]])
    def test_flag_rejected(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(RunConfig, "build", lambda cfg: pytest.fail("paths were simulated"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: bsderisk" in capsys.readouterr().err

    def test_argument_is_discarded(self):
        text = RunConfig(workers=2).canonical_text()
        assert text == RunConfig().canonical_text()
        assert "workers" not in text


class TestEvaluate:
    def test_entropic_brownian(self):
        cfg = RunConfig(n_paths=50_000, n_steps=50, t=0.0, u=1.0, measure="entropic",
                        claim="brownian", seed=123)
        text, csv_text, _ = run_evaluate(cfg)
        est = float(next(csv.reader([csv_text.splitlines()[1]]))[7])
        assert abs(est - 0.5) <= 0.02
        assert "estimate" in text

    def test_losses_measure_on_safe_constant_is_zero(self):
        cfg = RunConfig(n_paths=2000, n_steps=10, t=0.0, u=1.0, measure="qent:0.5,0",
                        claim="const:2", seed=1)
        _, csv_text, _ = run_evaluate(cfg)
        est = float(next(csv.reader([csv_text.splitlines()[1]]))[7])
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_discounted_constant(self):
        cfg = RunConfig(n_paths=2000, n_steps=10, t=0.0, u=1.0,
                        measure="discounted:mean,0.1", claim="const:1", seed=1)
        _, csv_text, _ = run_evaluate(cfg)
        est = float(next(csv.reader([csv_text.splitlines()[1]]))[7])
        assert est == pytest.approx(-np.exp(-0.1), rel=1e-9)

    def test_rows_carry_provenance(self):
        cfg = RunConfig(n_paths=2000, n_steps=8, seed=4242)
        _, csv_text, _ = run_evaluate(cfg)
        header, row = csv_text.splitlines()
        assert header == "axis,value,measure,claim,t,u,v,estimate,stderr,seed,n_paths,n_steps"
        assert next(csv.reader([row]))[9:] == ["4242", "2000", "8"]

    def test_root_stderr_needs_a_path_a_block(self):
        cfg = RunConfig(n_paths=7, n_steps=4, t=0.0, seed=1)
        with pytest.raises(ValueError, match=r"8 blocks needs >= 8 paths, got 7"):
            run_evaluate(cfg)

    def test_conditional_value_reports_coefficients(self):
        cfg = RunConfig(n_paths=4000, n_steps=10, t=0.5, u=1.0, measure="entropic",
                        claim="brownian", seed=5)
        text, _, pathwise = run_evaluate(cfg)
        assert "basis coefficients" in text
        assert pathwise is not None and pathwise.startswith("path,value")

    def test_pathwise_text_formats_each_value(self):
        cfg = RunConfig(n_paths=2000, n_steps=8, t=0.5, u=1.0, measure="entropic", claim="sin", seed=11)
        _, _, pathwise = run_evaluate(cfg)
        ctx = cfg.build()
        _, t, u, _ = cfg.indices()
        rho = measure_from_label(cfg.measure).evaluate(ctx, t, claim_from_label(cfg.claim, u), maturity=u)
        assert pathwise == "path,value\n" + "".join(f"{p},{float(v):.9g}\n" for p, v in enumerate(rho.values))


class TestWindow:
    # a bad window or label fails before any path is drawn; a single check
    # ("tc_order") makes verify resolve the measure label too
    @pytest.mark.parametrize("changes, error, named", [
        ({"t": 0.75, "u": 0.5}, ValueError, "[run] t = 0.75 > u = 0.5"),
        ({"s": 0.5, "t": 0.25, "u": 1.0}, ValueError, "[run] s = 0.5 > t = 0.25"),
        ({"t": 0.33}, ValueError, "[run] t = 0.33: not a node"),
        ({"u": 0.33, "v": 1.5}, ValueError, "[run] u = 0.33, v = 1.5: not a node"),
        ({"claim": "bogus"}, KeyError, "unknown claim label 'bogus'"),
        ({"claim": "call:x"}, ValueError, "malformed label 'call:x'"),
        ({"measure": "bogus:{q}", "checks": ("tc_order",)}, KeyError, "unknown measure label 'bogus:"),
        ({"measure": "qent:{q},x", "checks": ("tc_order",)}, ValueError, "malformed label 'qent:"),
    ], ids=["t_after_u", "s_after_t", "t_off_grid", "u_v_off_grid", "unknown_claim", "malformed_claim",
            "unknown_measure", "malformed_measure"])
    @pytest.mark.parametrize("run", [run_evaluate, run_sweep, run_verify])
    def test_bad_window_fails_before_simulating(self, monkeypatch, run, changes, error, named):
        monkeypatch.setattr(RunConfig, "build", lambda cfg: pytest.fail("paths were simulated"))
        with pytest.raises(error, match=re.escape(named)):
            run(replace(RunConfig(measure="qent:{q},0"), **changes))

    def test_indices_of_a_good_window(self):
        cfg = RunConfig(T=2.0, n_steps=8, s=0.25, t=0.5, u=0.5, v=2.0)
        assert cfg.indices() == (1, 2, 2, 8)


class TestSweep:
    def test_q_sweep_monotone(self):
        cfg = RunConfig(n_paths=20_000, n_steps=20, t=0.0, u=1.0, seed=123,
                        measure="qent:{q},0", claim="brownian",
                        axis="q", values=tuple(np.round(np.arange(0.1, 1.0, 0.1), 1)))
        csv_text = run_sweep(cfg)
        rows = list(csv.reader(io.StringIO(csv_text)))[1:]
        estimates = [float(r[7]) for r in rows]
        assert len(estimates) == 9
        assert all(b >= a - 1e-3 for a, b in zip(estimates, estimates[1:]))

    def test_r_sweep_weak_ratio(self):
        cfg = RunConfig(n_paths=20_000, n_steps=20, s=0.0, t=0.5, u=1.0, seed=123,
                        measure="discounted:mean,{r}", claim="call:-2",
                        axis="r", values=(0.05, 0.1, 0.2), metric="weak_ratio")
        csv_text = run_sweep(cfg)
        for cells in list(csv.reader(io.StringIO(csv_text)))[1:]:
            r, ratio = float(cells[1]), float(cells[7])
            assert ratio == pytest.approx(np.exp(-r * 0.5), rel=0.01)

    def test_weak_ratio_of_zero_is_written_as_zero(self, monkeypatch):
        # a ratio of exactly 0.0 is a value; only a missing one (rhs mean ~ 0) is NaN
        def fixed(ctx, measure, kind, claim, s, t, u):
            return SimpleNamespace(details={"ratio": 0.0 if measure.label == "qent:0.5,0" else None})

        monkeypatch.setattr(cli, "check_time_consistency", fixed)
        cfg = RunConfig(n_paths=2000, n_steps=8, measure="qent:{q},0", axis="q", values=(0.5, 1.0),
                        metric="weak_ratio")
        rows = list(csv.reader(io.StringIO(run_sweep(cfg))))[1:]
        assert [row[7] for row in rows] == ["0", "nan"]

    def test_gamma_metric(self):
        cfg = RunConfig(n_paths=10_000, n_steps=20, t=0.5, u=0.75, v=1.0, seed=7,
                        measure="qent_tr:0.5,0,{beta}", claim="brownian",
                        axis="beta", values=(0.1, 0.2), metric="gamma")
        csv_text = run_sweep(cfg)
        rows = list(csv.reader(io.StringIO(csv_text)))[1:]
        # horizon correction equals the translation integral over (u, v]
        assert float(rows[0][7]) == pytest.approx(0.1 * 0.25, abs=5e-3)
        assert float(rows[1][7]) == pytest.approx(0.2 * 0.25, abs=5e-3)

    def test_value_substituted_exactly(self):
        # 10 significant digits: the label evaluated keeps them all, the value column 9
        cfg = RunConfig(n_paths=2000, n_steps=8, measure="qent:{q},0", axis="q", values=(0.1234567891,))
        (row,) = list(csv.reader(io.StringIO(run_sweep(cfg))))[1:]
        assert row[1:3] == ["0.123456789", "qent:0.1234567891,0"]

    def test_unresolved_placeholder(self):
        cfg = RunConfig(measure="qent:{q},0", axis="r", values=(0.1,))
        with pytest.raises(ValueError, match="unresolved placeholder"):
            run_sweep(cfg)

    @pytest.mark.parametrize("changes, named", [
        ({}, "'entropic' (axis=q)"),  # the default config: no {q} to sweep
        ({"measure": "qent:{q},0", "axis": "bogus"}, "'qent:{q},0' (axis=bogus)"),
        ({"measure": "qent:{q},0", "metric": "vaule"}, "'qent:{q},0' (axis=q)"),
        ({"measure": "qent:{q},0", "values": (0.5, 1.5)}, "'qent:1.5,0': q must lie in (0,1]"),
    ], ids=["default_config", "unknown_axis", "unknown_metric", "last_value_out_of_range"])
    def test_bad_sweep_fails_before_simulating(self, monkeypatch, changes, named):
        monkeypatch.setattr(RunConfig, "build", lambda cfg: pytest.fail("paths were simulated"))
        with pytest.raises(ValueError, match=re.escape(named)):
            run_sweep(replace(RunConfig(), **changes))

    def test_byte_identical_reruns(self):
        cfg = RunConfig(n_paths=5000, n_steps=16, measure="qent:{q},0", claim="brownian",
                        axis="q", values=(0.25, 0.75), seed=11)
        assert run_sweep(cfg) == run_sweep(cfg)


class TestVerify:
    def test_default_suite_passes(self):
        small_cfg = RunConfig(n_paths=8000, n_steps=16, s=0.0, t=0.5, u=0.75, v=1.0,
                              seed=123, checks=("taxonomy", "gamma_cross"))
        reports, summary = run_verify(small_cfg)
        assert summary["ok"], summary["failures"]
        assert summary["n_checks"] == len(reports)

    def test_single_check_config(self):
        cfg = RunConfig(n_paths=4000, n_steps=16, s=0.0, t=0.5, u=0.75, v=1.0, seed=3,
                        measure="driver:quad_z", claim="brownian",
                        checks=("normalization", "restriction", "cash_additivity"))
        reports, summary = run_verify(cfg)
        assert summary["ok"]
        assert [r.property for r in reports] == [
            "normalization", "restriction", "cash_additivity"
        ]

    @pytest.mark.parametrize("seed", [3, 7])
    def test_single_h_longevity_reads_gamma_over_t_u_v(self, seed):
        # the sign law is read at the interior node t, as in the taxonomy; at
        # the root gamma is one constant and a linear_y failure cannot show
        def run(measure):
            cfg = RunConfig(n_paths=8000, n_steps=16, seed=seed, measure=measure, claim="brownian",
                            checks=("h_longevity",))
            (rep,), summary = run_verify(cfg)
            assert rep.params == {"t": 8, "u": 12, "v_grid": [16]}
            return rep, summary

        rep, summary = run("driver:linear_y:0.1")
        assert not rep.verdict and rep.max_violation > 0.01
        assert summary["failures"] == [{"measure": "driver:linear_y:0.1", "check": "h_longevity"}]
        rep, summary = run("driver:quad_z")
        assert rep.verdict and summary["ok"]

    def test_single_monotonicity_pairs_the_claim_with_itself_less_half(self):
        # sin(B_u) does not dominate B_u - 0.5 pathwise; X - 0.5 <= X always holds
        cfg = RunConfig(n_paths=2000, n_steps=8, seed=3, measure="entropic", claim="sin",
                        checks=("monotonicity",))
        (rep,), summary = run_verify(cfg)
        assert rep.property == "monotonicity" and rep.verdict and summary["ok"]

    def test_gamma_cross_holds_the_claim_at_t_and_names_each_failing_driver(
        self, monkeypatch, usable_cpus, process_log
    ):
        # the two drivers are two tasks, run in two worker processes
        usable_cpus(2)

        def mismatched(ctx, driver, claim, t, u, v):
            process_log.add(claim.maturity, t, u, v)
            return LongevityResult(RandomField(t, np.zeros(1)), 1.0, None, 2.0, 1.0, 9.0)

        monkeypatch.setattr(diagnostics, "gamma_via_premium_measure", mismatched)
        cfg = RunConfig(n_paths=500, n_steps=8, seed=3, checks=("gamma_cross",))
        reports, summary = run_verify(cfg)
        assert [held for _, held in process_log.records()] == [(4, 0, 4, 6)] * 2
        assert [(r.construction, r.params) for r in reports] == [
            ("driver:csa_example+0.1", {"t": 0, "u": 4, "v": 6}),
            ("driver:q_entropic_translated:1,0.1", {"t": 0, "u": 4, "v": 6}),
        ]
        assert summary["failures"] == [
            {"measure": "csa_example+0.1", "check": "gamma_premium_identity"},
            {"measure": "q_entropic_translated:1,0.1", "check": "gamma_premium_identity"},
        ]

    def test_unknown_check_is_named(self):
        cfg = RunConfig(n_paths=500, n_steps=4, checks=("tc_medium",))
        with pytest.raises(ValueError, match="tc_medium"):
            run_verify(cfg)

    def test_unknown_check_fails_before_any_check_runs(self, monkeypatch):
        monkeypatch.setattr(RunConfig, "build", lambda cfg: pytest.fail("paths were simulated"))
        with pytest.raises(ValueError, match="'tc_medium'"):
            run_verify(RunConfig(checks=("taxonomy", "tc_medium")))

    def test_empty_checks_fail_before_simulating(self, monkeypatch):
        monkeypatch.setattr(RunConfig, "build", lambda cfg: pytest.fail("paths were simulated"))
        cfg = parse_config("[run]\nchecks =\n")
        assert cfg.checks == ()
        with pytest.raises(ValueError, match=re.escape("[run] checks")):
            run_verify(cfg)


class TestMainEntryPoint:
    def test_simulate_writes_artifacts(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--paths", "50", "--steps", "4", "simulate"])
        assert rc == 0
        assert (tmp_path / "paths.csv").exists()
        assert (tmp_path / "paths.npz").exists()
        assert "seed=12345" in (tmp_path / "paths.csv").read_text().splitlines()[0]

    def test_evaluate_and_exit_zero(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--paths", "2000", "--steps", "8", "evaluate"])
        assert rc == 0
        assert (tmp_path / "evaluate.csv").exists()
        assert "estimate" in capsys.readouterr().out

    def test_verify_writes_bundle_and_reports(self, tmp_path, capsys):
        cfg = RunConfig(n_paths=4000, n_steps=8, s=0.0, t=0.5, u=0.75, v=1.0, seed=3,
                        measure="driver:quad_z", claim="brownian",
                        checks=("normalization",), out_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(cfg.canonical_text())
        rc = main(["--config", str(cfg_path), "verify"])
        assert rc == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "checks.jsonl").exists()
        assert (out_dir / "checks.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["ok"] is True
        assert "[PASS]" in capsys.readouterr().out

        rc = main(["report", str(out_dir)])
        assert rc == 0

    def test_verify_exit_nonzero_on_unexpected_failure(self, tmp_path):
        # csa_example genuinely fails cash additivity: a config asserting it
        # as a plain check must exit nonzero
        cfg = RunConfig(n_paths=4000, n_steps=8, s=0.0, t=0.5, u=0.75, v=1.0, seed=3,
                        measure="driver:csa_example", claim="brownian",
                        checks=("cash_additivity",), out_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(cfg.canonical_text())
        assert main(["--config", str(cfg_path), "verify"]) == 1
        assert main(["report", str(tmp_path / "out")]) == 1

    def test_seed_override(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--paths", "50", "--steps", "4",
                   "--seed", "777", "simulate"])
        assert rc == 0
        assert "seed=777" in (tmp_path / "paths.csv").read_text().splitlines()[0]


class TestRefusedInput:
    """A refused config, window, label or path count is one line on stderr
    and exit status 2, as argparse's own errors; other faults keep their
    traceback."""

    @pytest.mark.parametrize("config, argv, message", [
        ("[basis]\nridge = 0\n", ["verify"], "unknown config key [basis] ridge"),
        ("[run]\nt = 0.33\n", ["evaluate"], "[run] t = 0.33: not a node"),
        ("[run]\nclaim = bogus\n", ["verify"], "unknown claim label 'bogus'"),
        ("[run]\nmeasure = qent:{q},0\n\n[sweep]\nmetric = vaule\n", ["sweep"], "unknown sweep metric 'vaule'"),
        ("[run]\nchecks = tc_medium\n", ["verify"], "unknown check(s) 'tc_medium'"),
        ("", ["--paths", "1", "simulate"], "need n_paths >= 2"),
        ("", ["--seed", "-1", "simulate"], "--seed / [ensemble] seed = -1: need a non-negative integer"),
        ("[ensemble]\nseed = -3\n", ["verify"], "[ensemble] seed = -3"),
        ("[grid]\nT = inf\nn_steps = 4\n", ["--paths", "100", "evaluate"], "horizon T must be positive, got inf"),
        ("[grid]\nT = 5e-324\nn_steps = 4\n", ["--paths", "100", "evaluate"],
         "horizon T = 5e-324 over 4 steps gives a step that rounds to 0"),
        ("[basis]\ndegree = -1\n", ["--paths", "100", "evaluate"], "degree must be >= 0, got -1"),
        ("[basis]\ndegree = -1\n", ["--paths", "100", "verify"], "degree must be >= 0, got -1"),
    ], ids=["ridge_key", "window", "claim_label", "sweep_metric", "check_name", "path_count", "seed_flag",
            "seed_key", "horizon_inf", "horizon_tiny", "degree_evaluate", "degree_verify"])
    def test_one_line_and_status_2(self, tmp_path, capsys, config, argv, message):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(config)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bsderisk: error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        (RunConfig(seed=-1), "[ensemble] seed = -1"),
        (RunConfig(degree=-1), "degree must be >= 0, got -1"),
    ], ids=["seed", "degree"])
    def test_negative_seed_refused_before_drawing(self, monkeypatch, config, message):
        monkeypatch.setattr(cli, "simulate", lambda *args: pytest.fail("paths were simulated"))
        with pytest.raises(ValueError, match=re.escape(message)):
            config.build()

    @pytest.mark.parametrize("argv, named", [
        (["--config", "{tmp}/missing.cfg", "verify"], "{tmp}/missing.cfg: No such file"),
        (["--config", "{tmp}", "verify"], "{tmp}: Is a directory"),
        (["--config", "{tmp}/binary.cfg", "verify"], "{tmp}/binary.cfg: "),  # the codec's message follows
        (["report", "{tmp}/missing"], "{tmp}/missing/summary.json: No such file"),
        (["--out", "{tmp}/missing", "report"], "{tmp}/missing/summary.json: No such file"),
        (["report", "{tmp}/summary_text"], "{tmp}/summary_text/summary.json: not a JSON object"),
        (["report", "{tmp}/summary_key"], "{tmp}/summary_key/summary.json: no key 'n_failures'"),
        (["report", "{tmp}/summary_list"], "{tmp}/summary_list/summary.json: not a JSON object"),
        (["report", "{tmp}/check_text"], "{tmp}/check_text/checks.jsonl, line 2: not a JSON object"),
        (["report", "{tmp}/check_key"], "{tmp}/check_key/checks.jsonl, line 2: no key 'tolerance'"),
    ], ids=["config", "config_directory", "config_binary", "bundle", "default_bundle", "summary_text",
            "summary_key", "summary_list", "check_text", "check_key"])
    def test_unreadable_file_named_in_one_line(self, tmp_path, capsys, argv, named):
        (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe[run]\n")
        summary = '{"ok": true, "n_failures": 0}'
        check = '{"construction": "c", "property": "p", "verdict": "pass", "max_violation": 0.0, "tolerance": 1.0}'
        for name, summary_text, second in [("summary_text", "{oops", check),
                                           ("summary_key", '{"ok": true}', check),
                                           ("summary_list", "[true, 0]", check),
                                           ("check_text", summary, "{oops"),
                                           ("check_key", summary, check.replace(', "tolerance": 1.0', ""))]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text(summary_text)
            (tmp_path / name / "checks.jsonl").write_text(f"{check}\n{second}\n")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"bsderisk: error: cannot read {named.format(tmp=tmp_path)}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == ""  # no check line printed before the refusal

    def test_internal_fault_keeps_its_traceback(self, monkeypatch, tmp_path):
        def fault(fn, items):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "in_processes", fault)
        with pytest.raises(ValueError, match="internal fault"):
            main(["--out", str(tmp_path), "--paths", "200", "--steps", "4", "verify"])
