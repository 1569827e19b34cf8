import tracemalloc

import numpy as np
import pytest

from bsderisk import (
    DomainGuardViolation,
    Driver,
    DriverFamily,
    LsmcContext,
    NonFiniteError,
    RandomField,
    RegressionBasis,
    TimeGrid,
    backward,
    driver_from_label,
    family_from_label,
    shifted,
    simulate,
    solve,
)
from bsderisk import bsde
from bsderisk.cli import RunConfig
from bsderisk.diagnostics import generator_verdicts

from conftest import BLAS_THREADS, TAXONOMY_DRIVERS, run_at_blas_threads, stderr


class TestSolveBasics:
    def test_zero_driver_reduces_to_projection(self, ctx50, b1):
        sol = solve(driver_from_label("zero"), RandomField(50, b1), 50, ctx50)
        assert sol.field_at(0).mean() == pytest.approx(np.mean(b1), abs=1e-12)
        assert np.array_equal(sol.field_at(50).values, b1)

    def test_zero_driver_recovers_martingale_representation(self, ctx50, b1):
        # dB_1 = 1 dB: the Z-component estimates the unit integrand
        z_means = [
            np.mean(z[:, 0])
            for i, _, z in backward(driver_from_label("zero"), RandomField(50, b1), 50, ctx50)
            if i % 7 == 0
        ]
        assert len(z_means) == 8
        np.testing.assert_allclose(z_means, 1.0, atol=0.05)

    def test_linear_driver_closed_form_constant(self, ctx50):
        # g = -r y with terminal -1 discounts to -exp(-r T)
        term = RandomField(50, -np.ones(50_000))
        sol = solve(driver_from_label("linear_y:0.1"), term, 50, ctx50)
        y0 = sol.field_at(0).mean()
        assert abs(y0 - (-np.exp(-0.1))) <= 0.01 * np.exp(-0.1)

    def test_linear_driver_closed_form_brownian(self, ctx50, b1):
        sol = solve(driver_from_label("linear_y:0.1"), RandomField(50, -b1), 50, ctx50)
        assert abs(sol.field_at(0).mean()) <= 0.01

    def test_entropic_value(self, ctx50, b1):
        # ln E[exp(B_1)] = 1/2 by the Gaussian moment generating function
        sol = solve(driver_from_label("quad_z"), RandomField(50, b1), 50, ctx50)
        assert abs(sol.field_at(0).mean() - 0.5) <= 0.05

    def test_terminal_exact_and_diagnostics(self, ctx50, b1):
        sol = solve(driver_from_label("quad_z"), RandomField(50, b1), 50, ctx50)
        assert sol.diagnostics["regression_fallbacks"] == 0
        assert sol.maturity == 50 and sol.stop == 0

    def test_index_errors(self, ctx20):
        term = RandomField(20, np.zeros(10_000))
        sol = solve(driver_from_label("zero"), term, 20, ctx20, stop=5)
        with pytest.raises(IndexError):
            sol.field_at(4)
        # the pass yields Z at the nodes [stop, maturity) only
        nodes = [i for i, _, _ in backward(driver_from_label("zero"), term, 20, ctx20, stop=5)]
        assert nodes == list(range(19, 4, -1))
        for maturity, stop in ((21, 0), (20, 21), (20, -1)):
            with pytest.raises(IndexError):
                next(backward(driver_from_label("zero"), term, maturity, ctx20, stop=stop))
            with pytest.raises(IndexError):
                solve(driver_from_label("zero"), term, maturity, ctx20, stop=stop)
        with pytest.raises(ValueError):
            solve(driver_from_label("zero"), RandomField(21, np.zeros(10_000)), 20, ctx20)


class TestDeterministicOracle:
    def test_time_dependent_source_integrates(self, ctx20):
        # y- and z-free generator a(t): Y_0 = c + sum a(t_i) dt exactly
        a = lambda t: 0.1 + 0.05 * t
        drv = Driver(lambda t, y, z: np.full(y.shape, a(t)), "source")
        term = RandomField(20, np.full(10_000, 2.0))
        sol = solve(drv, term, 20, ctx20)
        dt = ctx20.grid.dt
        oracle = 2.0 + sum(a(i * dt) for i in range(20)) * dt
        assert sol.field_at(0).mean() == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("label, r, c", [("linear_y:0.5", 0.5, 2.0), ("csa_example", 0.1, -2.0)])
    def test_y_dependent_step_is_explicit(self, ctx20, label, r, c):
        # constant terminal c, Z = 0: g = -r y (csa_example's r max(-y, 0) at c < 0),
        # so each explicit step scales by 1 - r dt; a step refined in y would
        # scale by a truncated series in r dt, off at order (r dt)^2
        m, dt = 20, ctx20.grid.dt
        sol = solve(driver_from_label(label), RandomField(m, np.full(10_000, c)), m, ctx20)
        oracle = c * (1.0 - r * dt) ** (m - np.arange(m + 1.0))
        np.testing.assert_allclose(sol.Y, np.broadcast_to(oracle[:, None], sol.Y.shape), rtol=1e-12, atol=0.0)

    def test_g_expectation_zero_driver_matches_cond_expect(self, ctx50, b1):
        field = RandomField(50, np.sin(b1))
        ge = solve(driver_from_label("zero"), field, 50, ctx50).field_at(0)
        ce = ctx50.cond_expect(field, 0)
        assert ge.mean() == pytest.approx(ce.mean(), abs=1e-12)


class TestQuadraticDriver:
    def test_matches_closed_form_on_losses(self, ctx50, b1):
        from bsderisk import CertaintyEquivalent

        loss = np.maximum(-(b1 + 0.5), 0.0)
        sol = solve(driver_from_label("q_entropic:0.5"), RandomField(50, loss), 50, ctx50)
        closed = CertaintyEquivalent(0.5, 0.5).evaluate(ctx50, 0, RandomField(50, b1))
        assert abs(sol.field_at(0).mean() - closed.mean()) <= 0.05

    def test_domain_guard_aborts(self, ctx20):
        # terminal mass below 1/(q-1) violates the generator's domain
        term = RandomField(20, -3.0 * np.abs(ctx20.ensemble.values[:, 20, 0]))
        with pytest.raises(DomainGuardViolation) as err:
            solve(driver_from_label("q_entropic:0.5"), term, 20, ctx20)
        assert err.value.y < -1.9

    def test_z_clip_guards_tails(self, ctx20, monkeypatch):
        # an absurdly small clip changes the value; the default does not bind
        b = ctx20.ensemble.values[:, 20, 0]
        term = RandomField(20, b)
        base = solve(driver_from_label("quad_z"), term, 20, ctx20).field_at(0).mean()
        monkeypatch.setattr(bsde, "Z_CLIP", 0.1)
        tight = solve(driver_from_label("quad_z"), term, 20, ctx20).field_at(0).mean()
        assert abs(base - 0.5) < abs(tight - 0.5)

    @pytest.mark.parametrize("label", ["quad_z", "csa_example", "q_entropic:1"])
    def test_unguarded_driver_never_asks_the_guard(self, ctx20, monkeypatch, label):
        def refuse(self, y):
            raise AssertionError("guard_ok called")

        monkeypatch.setattr(Driver, "guard_ok", refuse)
        drv = driver_from_label(label)
        assert drv.domain_guard is None
        solve(drv, RandomField(20, np.sin(ctx20.ensemble.values[:, 20, 0])), 20, ctx20)

    def test_guard_names_the_first_path_outside(self, ctx20):
        # a terminal already measurable at node 19 is carried there unchanged,
        # so the guard sees it as written
        y = np.zeros(10_000)
        y[[3, 7]] = -2.0, -5.0
        drv = Driver(lambda t, y, z: np.zeros(y.shape), "guarded", domain_guard=lambda y: y > -1.0)
        with pytest.raises(DomainGuardViolation) as err:
            solve(drv, RandomField(19, y), 20, ctx20)
        assert (err.value.path, err.value.index, err.value.y) == (3, 19, -2.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_squared_norm_is_the_row_sum_of_squares(self, d):
        # bit for bit, over magnitudes from subnormal to past the Z clip,
        # and on clipped rows
        rng = np.random.default_rng(d)
        z = rng.standard_normal((50_000, d)) * 10.0 ** rng.uniform(-310, 2, (50_000, d))
        z = np.concatenate([z, np.clip(rng.standard_normal((50_000, d)) * 8.0, -bsde.Z_CLIP, bsde.Z_CLIP)])
        assert bsde._sq_norm(z).tobytes() == np.sum(z * z, axis=1).tobytes()

    def test_non_finite_aborts(self, ctx20):
        drv = Driver(lambda t, y, z: np.full(y.shape, np.inf), "bad")
        with pytest.raises(NonFiniteError):
            solve(drv, RandomField(20, np.zeros(10_000)), 20, ctx20)


class TestInvariants:
    def test_comparison(self, ctx20):
        # pathwise-ordered terminals give ordered solutions in the mean
        b = ctx20.ensemble.values[:, 20, 0]
        drv = driver_from_label("csa_example")
        lo = solve(drv, RandomField(20, np.sin(b)), 20, ctx20).field_at(0)
        hi = solve(drv, RandomField(20, np.sin(b) + 0.25), 20, ctx20).field_at(0)
        assert lo.mean() <= hi.mean() + 2.0 * stderr(hi.values - lo.values)

    @pytest.mark.parametrize("label", ["zero", "abs_z", "quad_z"])
    def test_cash_additivity_of_y_free_drivers(self, ctx20, label):
        b = ctx20.ensemble.values[:, 20, 0]
        drv = driver_from_label(label)
        base = solve(drv, RandomField(20, np.sin(b)), 20, ctx20)
        shifted_sol = solve(drv, RandomField(20, np.sin(b) + 2.0), 20, ctx20)
        for i in range(21):
            gap = shifted_sol.Y[i] - (base.Y[i] + 2.0)
            assert np.max(np.abs(gap)) <= 1e-8

    def test_convergence_toward_oracle(self):
        # halving dt and quadrupling paths walks the estimate toward the
        # closed form; the seed is pinned because a lucky coarse level can
        # otherwise undercut the refined one
        errs = []
        for n_steps, n_paths in ((10, 4_000), (20, 16_000), (40, 64_000)):
            grid = TimeGrid(1.0, n_steps)
            ens = simulate(grid, n_paths, seed=123)
            ctx = LsmcContext(grid, ens, RegressionBasis(4))
            term = RandomField(n_steps, ens.values[:, n_steps, 0])
            sol = solve(driver_from_label("quad_z"), term, n_steps, ctx)
            errs.append(abs(sol.field_at(0).mean() - 0.5))
        assert errs[1] <= errs[0] and errs[2] <= errs[1]

    def test_measurable_terminal_extension(self, ctx20):
        # a claim measurable before maturity propagates with Z = 0 and the
        # pathwise source ODE; for g(.,.,0)=0 drivers the value is unchanged
        b_half = ctx20.ensemble.values[:, 10, 0]
        term = RandomField(10, np.sin(b_half))
        drv = driver_from_label("quad_z")
        short = solve(drv, term, 10, ctx20)
        long = solve(drv, term, 20, ctx20)
        np.testing.assert_array_equal(short.field_at(0).values, long.field_at(0).values)
        tail = [z for i, _, z in backward(drv, term, 20, ctx20) if i >= 10]
        assert len(tail) == 10 and all(np.all(z == 0.0) for z in tail)


# A quad_z solve of B_1 at 20000 paths x 4 steps, seed 7: one 16384-row
# block and a tail, a size at which a one-column BLAS product at the root
# rounds differently at 1 and at 2 threads.
_ROOT_SOLVE = """
import hashlib
from bsderisk import LsmcContext, RandomField, TimeGrid, driver_from_label, simulate, solve
grid = TimeGrid(1.0, 4)
ens = simulate(grid, 20_000, seed=7)
sol = solve(driver_from_label("quad_z"), RandomField(4, ens.values[:, 4, 0]), 4, LsmcContext(grid, ens))
print(hashlib.sha256(sol.Y[0].tobytes()).hexdigest())
"""


def test_root_bytes_do_not_depend_on_blas_threads():
    digests = [run_at_blas_threads(["-c", _ROOT_SOLVE], n).strip() for n in BLAS_THREADS]
    assert len(digests[0]) == 64 and len(set(digests)) == 1


class TestStoredY:
    """The pass yields each node's (Y_i, Z_i) as formed, Z_i from Y_{i+1},
    the node's cached factor and the fit clamp; a solve stores Y only."""

    @pytest.fixture(scope="class")
    def ctx(self):
        grid = TimeGrid(1.0, 8)
        return LsmcContext(grid, simulate(grid, 4000, seed=3), RegressionBasis(4))

    @pytest.mark.parametrize("guarded", [False, True])
    def test_pass_z_is_the_projection(self, ctx, guarded):
        # a guard, even one that always holds, turns on the fit clamp; the
        # clipped terminal makes the degree-4 fit overshoot its range
        dt, inc = ctx.grid.dt, ctx.ensemble.increments
        seen = {}

        def g(t, y, z):
            seen[round(t / dt)] = z.copy()
            return 0.5 * np.sum(z * z, axis=1)

        guard = (lambda y: np.ones(y.shape, dtype=bool)) if guarded else None
        terminal = RandomField(8, np.clip(ctx.ensemble.values[:, 8, 0], -0.5, 0.5))
        y_next, clamp_moved = terminal.values, 0
        for i, y, z in backward(Driver(g, "recorded", domain_guard=guard), terminal, 8, ctx):
            proj = ctx.projector(i)
            by_hand = proj.fitted((y_next - proj.fitted(y_next, clip=guarded))[:, None] * inc[:, i, :]) / dt
            unclamped = proj.fitted((y_next - proj.fitted(y_next))[:, None] * inc[:, i, :]) / dt
            np.testing.assert_array_equal(z, by_hand)
            np.testing.assert_array_equal(np.clip(z, -bsde.Z_CLIP, bsde.Z_CLIP), seen[i])
            clamp_moved += not np.array_equal(by_hand, unclamped)
            y_next = y
        assert (clamp_moved > 0) == guarded

    @pytest.mark.parametrize("label", ["quad_z", "q_entropic:0.5", "csa_example"])
    def test_solve_keeps_the_rows_of_the_pass(self, ctx, label):
        drv = driver_from_label(label)
        terminal = RandomField(8, np.sin(ctx.ensemble.values[:, 8, 0]))
        sol = solve(drv, terminal, 8, ctx, stop=2)
        rows = {i: y for i, y, _ in backward(drv, terminal, 8, ctx, stop=2)}
        assert sorted(rows) == list(range(2, 8))
        assert all(sol.Y[i].tobytes() == y.tobytes() for i, y in rows.items())
        assert sol.Y[8].tobytes() == terminal.values.tobytes()
        assert sol.diagnostics == {"regression_fallbacks": 0}

    def test_solve_peak_memory_is_y_and_per_node_arrays(self):
        # Y plus a few n x p arrays of one node (phi, fits, the Z regressand);
        # a stored (maturity, n, d) Z would add 8 more at p = 5, d = 1
        n, p = 20_000, 5
        grid = TimeGrid(1.0, 40)
        ctx = LsmcContext(grid, simulate(grid, n, seed=5), RegressionBasis(4))
        terminal = RandomField(40, np.sin(ctx.ensemble.values[:, 40, 0]))
        tracemalloc.start()
        try:
            sol = solve(driver_from_label("q_entropic:0.5"), terminal, 40, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sol.Y.nbytes + 4 * n * p * 8

    def test_build_and_solve_hold_one_path_array(self):
        # the levels, Y (as large at one row a node) and per-node arrays: 2.40x
        # the levels at 20k x 40; an ensemble that also held the increments
        # peaked at 3.38x
        cfg = RunConfig(n_steps=40, n_paths=20_000, seed=5)
        m = cfg.n_steps
        tracemalloc.start()
        try:
            ctx = cfg.build()
            solve(driver_from_label("quad_z"), RandomField(m, ctx.ensemble.values[:, m, 0]), m, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * ctx.ensemble.values.nbytes


class TestRegistry:
    def test_labels_parse(self):
        for label in TAXONOMY_DRIVERS:
            drv = driver_from_label(label)
            assert drv.label

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            driver_from_label("mystery")
        with pytest.raises(KeyError):
            family_from_label("mystery:1,2")

    def test_csa_example_values(self):
        drv = driver_from_label("csa_example")
        y = np.array([-2.0, 0.0, 1.0])
        z = np.array([[0.5], [0.5], [0.5]])
        np.testing.assert_allclose(drv(0.0, y, z), [0.1 * 2.0 + 0.5, 0.5, 0.5])
        drv2 = driver_from_label("csa_example:0.3")
        np.testing.assert_allclose(drv2(0.0, y, z), [0.3 * 2.0 + 0.5, 0.5, 0.5])

    def test_shift_variant(self):
        drv = driver_from_label("csa_example_shift")
        assert drv(0.0, np.zeros(1), np.zeros((1, 1)))[0] == 1.0
        verdicts = generator_verdicts(drv)
        assert not verdicts["restriction"] and verdicts["h_longevity"]

    def test_q_entropic_values_and_guard(self):
        drv = driver_from_label("q_entropic:0.5")
        y = np.array([0.0])
        z = np.array([[2.0]])
        assert drv(0.0, y, z)[0] == pytest.approx(0.25 * 4.0 / 1.0)
        assert drv.guard_ok(np.array([-1.9]))[0]
        assert not drv.guard_ok(np.array([-2.1]))[0]
        classical = driver_from_label("q_entropic:1")
        assert classical(0.0, y, z)[0] == pytest.approx(2.0)
        assert classical.domain_guard is None and not classical.depends_on_y

    def test_shifted_helper(self):
        drv = shifted(driver_from_label("quad_z"), 0.1)
        assert drv(0.0, np.zeros(2), np.zeros((2, 1)))[0] == pytest.approx(0.1)
        verdicts = generator_verdicts(drv)
        assert verdicts["h_longevity"] and not verdicts["restriction"]

    def test_labels_tell_numbers_apart(self):
        zero = driver_from_label("zero")
        assert [shifted(zero, a).label for a in (0.1, 0.10000001)] == ["zero+0.1", "zero+0.10000001"]
        # the verify bundle's gamma_cross construction keeps its bytes
        assert shifted(driver_from_label("csa_example"), 0.1).label == "csa_example+0.1"
        members = [
            family_from_label(label).at(0.3).label
            for label in ("translated_family:0.1234567,0.10000001", "translated_family:0.123457,0.1")
        ]
        assert members == [
            "translated_family:0.1234567,0.10000001@u=0.3",
            "translated_family:0.123457,0.1@u=0.3",
        ]


class TestFamilies:
    def test_additive_shift_family(self):
        # members that differ break strong consistency; a constant family
        # is one generator
        base = driver_from_label("quad_z")
        up = DriverFamily(lambda u: shifted(base, 0.1 * u), "up")
        assert up.at(1.0)(0.0, np.zeros(1), np.zeros((1, 1)))[0] == pytest.approx(0.1)
        assert not generator_verdicts(up)["tc_strong"]
        assert generator_verdicts(DriverFamily(lambda u: base, "constant"))["tc_strong"]

    def test_translated_family_registry(self):
        fam = family_from_label("translated_family:0.5,0.2")
        member = fam.at(0.5)
        assert member(0.0, np.zeros(1), np.zeros((1, 1)))[0] == pytest.approx(0.1)
