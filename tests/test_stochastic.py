import io
import math
import re
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from bsderisk import (
    Claim,
    DiscountCurve,
    LsmcContext,
    PathEnsemble,
    RandomField,
    RegressionBasis,
    TimeGrid,
    claim_from_label,
    driver_from_label,
    simulate,
    solve,
)
from bsderisk import stochastic
from bsderisk.stochastic import (
    ensemble_from_csv,
    ensemble_from_npz,
    ensemble_to_csv,
    ensemble_to_npz,
    block_stderr,
    path_block,
)

from conftest import stderr


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.index_of(1.5) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 3).index_of(0.5)


class TestSimulate:
    def test_starts_at_zero(self, ctx50):
        assert np.all(ctx50.ensemble.values[:, 0, :] == 0.0)

    def test_seed_determinism(self):
        grid = TimeGrid(1.0, 10)
        a = simulate(grid, 500, seed=7)
        b = simulate(grid, 500, seed=7)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, simulate(grid, 500, seed=8).values)

    def test_single_step_consistency(self):
        grid = TimeGrid(1.0, 2)
        ens = simulate(grid, 4, seed=7)
        assert ens.n_paths == 4
        np.testing.assert_allclose(
            ens.values[:, 1:, :] - ens.values[:, :-1, :], ens.increments
        )

    def test_row_blocked_draw_is_the_whole_array_draw(self):
        # three whole blocks of normals and a ragged tail
        grid, n = TimeGrid(1.0, 5), 3 * stochastic.SIMULATE_ROWS + 123
        dB = np.random.default_rng(17).standard_normal((n, grid.n_steps, 1)) * np.sqrt(grid.dt)
        B = np.zeros((n, grid.n_steps + 1, 1))
        np.cumsum(dB, axis=1, out=B[:, 1:, :])
        np.testing.assert_array_equal(bits(simulate(grid, n, seed=17).values), bits(B))

    def test_increments_are_the_level_differences(self, ctx20):
        ens = ctx20.ensemble
        increments = ens.increments
        np.testing.assert_array_equal(bits(increments), bits(np.diff(ens.values, axis=1)))
        for i in range(ens.grid.n_steps):
            np.testing.assert_array_equal(bits(increments[:, i, :]), bits(ens.increment(i)))

    def test_terminal_variance(self):
        grid = TimeGrid(1.0, 10)
        ens = simulate(grid, 100_000, seed=11)
        var = np.var(ens.values[:, -1, 0])
        assert 0.98 <= var <= 1.02

    def test_increment_moments(self, ctx50):
        ens = ctx50.ensemble
        dt = ctx50.grid.dt
        means = ens.increments.mean(axis=0)
        assert np.max(np.abs(means)) <= 4.0 * np.sqrt(dt / ens.n_paths)
        variances = ens.increments.var(axis=0)
        assert np.max(np.abs(variances / dt - 1.0)) <= 0.1

    def test_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match=re.escape("values shape (1, 5, 1), need n_paths >= 2")):
            simulate(grid, 1, seed=0)


def split_paths(monkeypatch, n_paths: int, n_nodes: int, blocks: int) -> None:
    """Make simulate draw, and the CSV writer and reader move, n_paths paths
    of n_nodes nodes in `blocks` blocks."""
    rows = -(-n_paths // blocks)
    monkeypatch.setattr(stochastic, "SIMULATE_ROWS", rows)
    for name in ("CSV_BLOCK_ROWS", "CSV_READ_ROWS"):
        monkeypatch.setattr(stochastic, name, rows * n_nodes)


class TestLayout:
    """values is indexed [path, node, 0] over a node-major buffer, so each
    node's levels are one contiguous row whatever built the ensemble, and in
    however many blocks of paths it was drawn, written and read."""

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("source", ["simulate", "csv", "npz", "path_block", "path_major"])
    def test_node_rows_are_contiguous(self, tmp_path, monkeypatch, source, blocks):
        split_paths(monkeypatch, 300, 6, blocks)
        ens = simulate(TimeGrid(1.0, 5), 300, seed=4)
        if source == "csv":
            ensemble_to_csv(ens, tmp_path / "paths.csv")
            ens = ensemble_from_csv(tmp_path / "paths.csv")
        elif source == "npz":
            ensemble_to_npz(ens, tmp_path / "paths.npz")
            ens = ensemble_from_npz(tmp_path / "paths.npz")
        elif source == "path_block":
            whole, ens = ens, path_block(ens, 17, 250)
            assert np.shares_memory(ens.values, whole.values)  # a view, not a copy
        elif source == "path_major":
            levels = np.ascontiguousarray(ens.values)
            ens = PathEnsemble(ens.grid, ens.seed, levels)  # copied into the node-major layout
            np.testing.assert_array_equal(bits(ens.values), bits(levels))
            assert not np.shares_memory(ens.values, levels) and not ens.values.flags.writeable
        for i in range(ens.grid.n_steps + 1):
            assert ens.levels(i).flags.c_contiguous
        for i in range(ens.grid.n_steps):
            assert ens.increment(i).flags.c_contiguous

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_csv_keeps_path_major_rows_npz_the_held_levels(self, tmp_path, monkeypatch, blocks):
        # from either layout, the CSV rows go path by path, and the npz member
        # holds the node-major levels as held: Fortran order, node by node
        split_paths(monkeypatch, 50, 5, blocks)
        ens = simulate(TimeGrid(1.0, 4), 50, seed=9)
        levels = np.ascontiguousarray(ens.values)
        members = []
        for name, e in (("simulated", ens), ("path_major", PathEnsemble(ens.grid, ens.seed, levels))):
            ensemble_to_csv(e, tmp_path / f"{name}.csv")
            ensemble_to_npz(e, tmp_path / f"{name}.npz")
            with zipfile.ZipFile(tmp_path / f"{name}.npz") as z:
                members.append(z.read("values.npy"))
        assert (tmp_path / "simulated.csv").read_bytes() == (tmp_path / "path_major.csv").read_bytes()
        reference = io.BytesIO()
        np.save(reference, ens.values)
        assert members[0] == members[1] == reference.getvalue()
        member = io.BytesIO(members[0])
        np.lib.format.read_magic(member)
        assert np.lib.format.read_array_header_1_0(member)[1] is True  # fortran_order
        assert member.read() == np.ascontiguousarray(ens.values.transpose(1, 0, 2)).tobytes()

    @pytest.mark.parametrize("shape, message", [
        *[(shape, f"values shape {shape}, need (n_paths, 5, 1)")
          for shape in [(10, 5), (10,), (10, 3, 1), (10, 6, 1), (10, 5, 1, 1)]],
        # on the grid, but not the one Brownian component
        *[(shape, f"values shape {shape} holds d={shape[2]} Brownian components, need d=1")
          for shape in [(10, 5, 0), (10, 5, 2)]],
    ], ids=["two_dim", "one_dim", "few_nodes", "many_nodes", "four_dim", "no_component", "two_components"])
    def test_shape_off_the_grid_rejected(self, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PathEnsemble(TimeGrid(1.0, 4), 1, np.zeros(shape))


class TestClaims:
    def test_constant(self, ctx50):
        field = claim_from_label("const:2", 50).evaluate(ctx50.ensemble)
        assert np.all(field.values == 2.0)

    def test_identity_payoff(self, ctx50):
        field = claim_from_label("brownian", 50).evaluate(ctx50.ensemble)
        np.testing.assert_array_equal(field.values, ctx50.ensemble.values[:, 50, 0])

    def test_negative_part(self, ctx50):
        b1 = ctx50.ensemble.values[:, 50, 0]
        field = claim_from_label("neg_part:0", 50).evaluate(ctx50.ensemble)
        np.testing.assert_array_equal(field.values, np.maximum(-b1, 0.0))
        p = int(np.argmin(np.abs(b1 + 0.4)))  # a path with B_1 close to -0.4
        assert field.values[p] == pytest.approx(-b1[p])

    def test_call_and_sin(self, ctx50):
        b1 = ctx50.ensemble.values[:, 50, 0]
        call = claim_from_label("call:0.5", 50).evaluate(ctx50.ensemble)
        np.testing.assert_array_equal(call.values, np.maximum(b1 - 0.5, 0.0))
        sin = claim_from_label("sin", 50).evaluate(ctx50.ensemble)
        np.testing.assert_array_equal(sin.values, np.sin(b1))

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            claim_from_label("lookback", 10)

    def test_maturity_out_of_range(self, ctx20):
        with pytest.raises(IndexError):
            claim_from_label("brownian", 21).evaluate(ctx20.ensemble)

    def test_adaptedness_under_future_reshuffle(self, ctx20):
        # truncating the path at maturity fixes the payoff: claims cannot
        # peek beyond their maturity by construction
        ens = ctx20.ensemble
        m = 10
        field = claim_from_label("call:0", m).evaluate(ens)
        altered = ens.values.copy()
        rng = np.random.default_rng(5)
        altered[:, m + 1 :, :] = rng.standard_normal(altered[:, m + 1 :, :].shape)
        from bsderisk.stochastic import PathEnsemble

        twin = PathEnsemble(ens.grid, ens.seed, altered)
        np.testing.assert_array_equal(
            field.values, claim_from_label("call:0", m).evaluate(twin).values
        )


class TestRandomField:
    def test_arithmetic(self):
        f = RandomField(3, np.array([1.0, 2.0]))
        np.testing.assert_allclose((-f).values, [-1.0, -2.0])

    def test_statistics(self):
        f = RandomField(0, np.array([1.0, 3.0]))
        assert f.mean() == 2.0
        assert f.stderr() == pytest.approx(np.std([1.0, 3.0]) / np.sqrt(2))


class TestCondExpect:
    def test_constant_field_exact(self, ctx50):
        f = RandomField(50, np.full(50_000, 3.25))
        out = ctx50.cond_expect(f, 25)
        np.testing.assert_allclose(out.values, 3.25, atol=1e-12)

    def test_root_node_is_mean(self, ctx50, b1):
        # one rule at the root: cond_expect and the projector that the
        # backward pass reads both give the sample mean, bit for bit
        mean = np.full(b1.size, np.mean(b1))
        np.testing.assert_array_equal(bits(ctx50.cond_expect(RandomField(50, b1), 0).values), bits(mean))
        np.testing.assert_array_equal(bits(ctx50.projector(0).fitted(b1)), bits(mean))

    def test_martingale_property(self):
        # E[B_1 | F_0.5] = B_0.5: the Brownian level is inside the basis, so
        # only coefficient noise separates the fit from the exact answer
        grid = TimeGrid(1.0, 50)
        ens = simulate(grid, 100_000, seed=21)
        ctx = LsmcContext(grid, ens, RegressionBasis(2))
        out = ctx.cond_expect(RandomField(50, ens.values[:, 50, 0]), 25)
        assert np.max(np.abs(out.values - ens.values[:, 25, 0])) <= 0.05

    def test_tower_property(self, ctx50):
        f = RandomField(50, np.sin(ctx50.ensemble.values[:, 50, 0]))
        two_step = ctx50.cond_expect(ctx50.cond_expect(f, 25), 0)
        one_step = ctx50.cond_expect(f, 0)
        assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-8

    def test_linearity(self, ctx50, b1):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal(2)
        f = RandomField(50, np.sin(b1))
        g = RandomField(50, b1**2)
        lhs = ctx50.cond_expect(RandomField(50, a * f.values + b * g.values), 25)
        rhs = a * ctx50.cond_expect(f, 25).values + b * ctx50.cond_expect(g, 25).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-10

    def test_mean_monotonicity(self, ctx50, b1):
        f = RandomField(50, np.sin(b1))
        g = RandomField(50, np.sin(b1) + 0.3)
        assert (
            ctx50.cond_expect(f, 25).mean()
            <= ctx50.cond_expect(g, 25).mean() + 1e-10
        )

    def test_measurable_field_identity(self, ctx50):
        b_half = ctx50.ensemble.values[:, 25, 0]
        f = RandomField(25, np.tanh(b_half))
        out = ctx50.cond_expect(f, 40)
        assert out.index == 40
        np.testing.assert_array_equal(out.values, f.values)

    def test_index_out_of_range(self, ctx20):
        field = RandomField(20, np.zeros(10_000))
        for at in (21, -1, -5):  # past either end of the grid
            with pytest.raises(IndexError, match=rf"node {at} outside the grid \[0, 20\]"):
                ctx20.cond_expect(field, at)
        assert [ctx20.cond_expect(field, at).index for at in (0, 20)] == [0, 20]

    @staticmethod
    def flat_until_the_end(ens):
        """ens with every path held at 0 until its last node: at each interior
        node the powers x, ..., x^degree vanish, so every normal system
        there is rank-deficient."""
        values = np.zeros_like(ens.values)
        values[:, -1] = ens.values[:, -1]
        return PathEnsemble(ens.grid, seed=0, values=values)

    def test_singular_fallback_flagged(self, ctx20):
        # the engine retries a rank-deficient normal system with the 1e-10
        # ridge and counts it
        flat = self.flat_until_the_end(ctx20.ensemble)
        ctx = LsmcContext(ctx20.grid, flat, RegressionBasis(3))
        out = ctx.cond_expect(RandomField(20, flat.values[:, 20, 0]), 10)
        assert np.all(np.isfinite(out.values))
        assert ctx.fallback_count == 1

    def test_fallbacks_counted_on_the_shared_cache(self, ctx20):
        # a retry in a with_basis or block context, which shares the root's
        # factor cache, is seen on the root; each is counted once
        flat = self.flat_until_the_end(ctx20.ensemble)
        ctx = LsmcContext(ctx20.grid, flat, RegressionBasis(2))
        field = RandomField(20, flat.values[:, 20, 0])
        ctx.with_basis(RegressionBasis(3)).cond_expect(field, 10)  # the degree + 1 probe
        assert ctx.fallback_count == 1
        retries = []

        def estimate(sub, rows):
            before = sub.fallback_count
            mean = sub.cond_expect(RandomField(20, field.values[rows]), 10).mean()
            retries.append(sub.fallback_count - before)
            return mean

        block_stderr(ctx, estimate)
        assert sum(retries) == 8  # one for each block
        assert ctx.fallback_count == 1 + sum(retries)
        ctx.cond_expect(field, 10)
        assert ctx.fallback_count == 2 + sum(retries)
        # solve reports the retries of its own pass only
        before = ctx.fallback_count
        sol = solve(driver_from_label("zero"), field, 20, ctx)
        assert sol.diagnostics["regression_fallbacks"] == ctx.fallback_count - before > 0

    def test_clip_respects_range(self, ctx50, b1):
        f = RandomField(50, np.maximum(-b1, 0.0))
        out = ctx50.cond_expect(f, 25, clip=True)
        assert np.min(out.values) >= 0.0
        assert np.max(out.values) <= np.max(f.values)


class TestBlockStderr:
    def test_fewer_paths_than_blocks_rejected(self):
        # 7 paths leave an 8-block split with an empty block; nothing is evaluated
        grid = TimeGrid(1.0, 4)
        ctx = LsmcContext(grid, simulate(grid, 7, seed=1), RegressionBasis(2))
        blocks = []
        with pytest.raises(ValueError, match=r"8 blocks needs >= 8 paths, got 7"):
            block_stderr(ctx, lambda sub, rows: blocks.append(rows) or 0.0)
        assert blocks == []


class TestFactorCache:
    def _count_builds(self, monkeypatch):
        builds = []
        init = stochastic._Projector.__init__

        def counted(self, phi, ctx):
            builds.append(phi.shape)
            init(self, phi, ctx)

        monkeypatch.setattr(stochastic._Projector, "__init__", counted)
        return builds

    def test_each_normal_system_factorised_once(self, monkeypatch):
        grid = TimeGrid(1.0, 10)
        ctx = LsmcContext(grid, simulate(grid, 4000, seed=8), RegressionBasis(3))
        builds = self._count_builds(monkeypatch)
        refined = ctx.with_basis(RegressionBasis(4))
        for _ in range(2):
            ctx.projector(5), refined.projector(5)
            ctx.with_basis(RegressionBasis(4)).projector(5)
            ctx.block(0, 2000).projector(5), ctx.block(2000, 4000).projector(5)
        # degree 3, degree 4, and the two halves
        assert builds == [(4000, 4), (4000, 5), (2000, 4), (2000, 4)]

    def test_constant_design_is_built_once_without_a_gram_pass(self, monkeypatch):
        grid = TimeGrid(1.0, 10)
        ctx = LsmcContext(grid, simulate(grid, 4000, seed=8), RegressionBasis(3))
        builds = self._count_builds(monkeypatch)
        monkeypatch.setattr(stochastic, "_gram", lambda phi: pytest.fail("Gram pass"))
        monkeypatch.setattr(stochastic, "_blocked_gram", lambda phi, rhs: pytest.fail("right-hand side pass"))
        target = np.sin(ctx.ensemble.values[:, 10, 0])
        fits = [ctx.projector(0).fitted(target) for _ in range(2)]
        assert builds == [(4000, 1)]
        assert list(ctx._reuse.factors.values()) == [None]
        for fit in fits:
            np.testing.assert_array_equal(fit, np.full(4000, np.mean(target)))

    def test_cached_projector_fits_bit_for_bit(self):
        grid = TimeGrid(1.0, 10)
        ens = simulate(grid, 3000, seed=5)
        ctx = LsmcContext(grid, ens, RegressionBasis(4))
        target = np.sin(ens.values[:, 10, 0])
        first = ctx.projector(6).fitted(target)
        again = ctx.projector(6).fitted(target)
        fresh = LsmcContext(grid, ens, RegressionBasis(4)).projector(6).fitted(target)
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(again, fresh)
        ctx.block(0, 1000).projector(6)
        # rows [1000, 2000) of the root, reached through a block of a block
        block = ctx.block(1000, 3000).block(0, 1000).projector(6).fitted(target[1000:2000])
        alone = LsmcContext(grid, stochastic.path_block(ens, 1000, 2000), ctx.basis)
        np.testing.assert_array_equal(block, alone.projector(6).fitted(target[1000:2000]))

    def test_cache_hit_across_gram_blocks_fits_like_a_fresh_build(self, monkeypatch):
        # 2 * 16384 + 3 paths: the Gram spans three blocks
        n = 2 * 16384 + 3
        grid = TimeGrid(1.0, 10)
        ens = simulate(grid, n, seed=5)
        ctx = LsmcContext(grid, ens, RegressionBasis(4))
        target = np.sin(ens.values[:, 10, 0])
        builds = self._count_builds(monkeypatch)
        first = ctx.projector(6).fitted(target)
        again = ctx.projector(6).fitted(target)  # a cache hit, through _from_factor
        fresh = LsmcContext(grid, ens, RegressionBasis(4)).projector(6).fitted(target)
        assert builds == [(n, 5), (n, 5)]
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(again, fresh)


class TestRegressionBasis:
    def test_design_columns(self):
        basis = RegressionBasis(2)
        # constant, x, x^2
        np.testing.assert_array_equal(basis.design(np.array([[2.0], [3.0]])), [[1, 2, 4], [1, 3, 9]])
        # at the root there is no conditioning variable: the constant alone
        np.testing.assert_array_equal(basis.design(np.empty((2, 0))), [[1], [1]])
        with pytest.raises(ValueError, match="design of 2 conditioning variables, need 0 or 1"):
            basis.design(np.ones((2, 2)))

    @staticmethod
    def column_products(x, degree):
        """Reference design: each power x^j multiplied out left to right,
        x * x * ... * x, over all rows at once, then stacked."""
        cols = [np.ones(x.shape[0])]
        for deg in range(1, degree + 1):
            col = x[:, 0].copy()
            for _ in range(deg - 1):
                col *= x[:, 0]
            cols.append(col)
        return np.column_stack(cols)

    @pytest.mark.parametrize("seed, degree", [(1, 4), (2, 5), (3, 3), (0, 4)])
    def test_design_matches_column_products(self, seed, degree):
        x = np.random.default_rng(seed).standard_normal((500, 1))
        phi = RegressionBasis(degree).design(x)
        np.testing.assert_array_equal(phi, self.column_products(x, degree))
        assert phi.T.flags.c_contiguous  # basis-major: each power one contiguous row

    @pytest.mark.parametrize("n", [5, 4096, 4097, 16385, 20_000])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_row_blocked_design_is_the_whole_array_design(self, seed, n):
        # small and large path counts, on either side of 4096 and of the
        # reduction block: the design is the column products bit for bit
        x = np.random.default_rng(n + seed).standard_normal((n, 1))
        np.testing.assert_array_equal(RegressionBasis(5).design(x), self.column_products(x, 5))

    @staticmethod
    def targets(ctx, cols: int) -> np.ndarray:
        """cols regressands of the terminal level, as columns."""
        b = ctx.ensemble.values[:, -1, 0]
        return np.column_stack([np.sin(b) + b**3, np.maximum(-b, 0.0)])[:, :cols]

    @pytest.mark.parametrize("n", [16383, 16384, 16385, 2 * 16384 + 3])
    @pytest.mark.parametrize("cols", [1, 2])
    def test_fit_matches_lstsq_across_reduction_blocks(self, cols, n):
        # an independent solver on the same design: the blocked Gram and
        # right-hand side of 1 or 2 target columns, on either side of a
        # 16384-path block edge
        assert stochastic._BLOCK == 16384
        grid = TimeGrid(1.0, 4)
        ctx = LsmcContext(grid, simulate(grid, n, seed=n + cols), RegressionBasis(4))
        targets = self.targets(ctx, cols)
        fit = ctx.projector(2).fitted(targets)
        phi = RegressionBasis(4).design(ctx.ensemble.levels(2) / np.sqrt(2 * grid.dt))
        ref = phi @ np.linalg.lstsq(phi, targets, rcond=None)[0]
        assert np.max(np.abs(fit - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [16383, 16384, 16385, 2 * 16384 + 3])
    @pytest.mark.parametrize("cols", [1, 2])
    def test_gram_matches_exactly_rounded_sums(self, cols, n):
        # each entry of the Gram, and of the right-hand side of 1 or 2 target
        # columns, against math.fsum of its products, on either side of a
        # block edge; the projector factorises exactly this Gram
        assert stochastic._BLOCK == 16384
        grid = TimeGrid(1.0, 4)
        ctx = LsmcContext(grid, simulate(grid, n, seed=n + cols), RegressionBasis(4))
        phi = ctx.basis.design(ctx.ensemble.levels(2) / np.sqrt(2 * grid.dt))
        targets = self.targets(ctx, cols)
        basis_cols = [phi[:, j].copy() for j in range(phi.shape[1])]
        for got, right in ((stochastic._gram(phi), basis_cols),
                           (stochastic._blocked_gram(phi, targets), list(targets.T))):
            ref = np.array([[math.fsum((a * b).tolist()) for b in right] for a in basis_cols])
            scale = np.sqrt(np.outer([math.fsum((a * a).tolist()) for a in basis_cols],
                                     [math.fsum((b * b).tolist()) for b in right]))
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)
        np.testing.assert_array_equal(ctx.projector(2)._chol, np.linalg.cholesky(stochastic._gram(phi)))

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionBasis(-1)
        with pytest.raises(TypeError):  # the retry is the only regularisation
            RegressionBasis(2, ridge=0.1)


class TestDiscountCurve:
    def test_zero_rate(self, ctx20):
        curve = DiscountCurve.flat(ctx20.grid, 0.0)
        assert curve.factor(0, 20) == 1.0

    def test_same_node(self, ctx20):
        curve = DiscountCurve.flat(ctx20.grid, 0.37)
        assert curve.factor(7, 7) == 1.0

    def test_flat_closed_form(self):
        grid = TimeGrid(1.0, 10)
        curve = DiscountCurve.flat(grid, 0.1)
        # product of per-step factors is the independent oracle
        oracle = np.prod([np.exp(-0.1 * grid.dt)] * 10)
        assert curve.factor(0, 10) == pytest.approx(np.exp(-0.1), rel=1e-12)
        assert curve.factor(0, 10) == pytest.approx(oracle, rel=1e-12)

    def test_multiplicativity(self):
        grid = TimeGrid(2.0, 8)
        rates = np.linspace(0.01, 0.2, 8)
        curve = DiscountCurve(grid, rates)
        for i, j, k in [(0, 3, 8), (1, 4, 6), (2, 2, 5)]:
            assert curve.factor(i, k) == pytest.approx(
                curve.factor(i, j) * curve.factor(j, k), rel=1e-12
            )
            assert 0.0 < curve.factor(i, k) <= 1.0

    def test_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            DiscountCurve(grid, np.array([0.1, -0.1, 0.1, 0.1]))
        with pytest.raises(ValueError):
            DiscountCurve(grid, np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            DiscountCurve.flat(grid, 0.1).factor(3, 1)


def reference_csv(ens) -> bytes:
    """The per-value writer that ensemble_to_csv must match byte for byte."""
    g = ens.grid
    out = [
        f"# seed={ens.seed} T={g.T!r} n_steps={g.n_steps} d=1 n_paths={ens.n_paths}\n",
        "path,node,dim,value\n",
    ]
    for p in range(ens.n_paths):
        for i in range(g.n_steps + 1):
            out.append(f"{p},{i},0,{float(ens.values[p, i, 0])!r}\n")
    return "".join(out).encode()


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def moved(row: int, held: str, want: str) -> str:
    """The message of ensemble_from_csv at a data row out of the writer's place."""
    return rf"data row {row} holds \({held}\), expected \({want}\)"


class TestEnsembleIO:
    @pytest.mark.parametrize("n_steps, seed, n_paths, block_rows", [
        (3, 1, 7, stochastic.CSV_BLOCK_ROWS),
        (3, 2, 7, stochastic.CSV_BLOCK_ROWS),
        (3, 1, 7, 8),  # two paths of 4 rows a block: 7 paths end on a partial block
        (3, 2, 5, 3),  # a block smaller than one path still writes whole paths
        (40, 1, 3500, stochastic.CSV_BLOCK_ROWS),  # 1598 paths a block
    ])
    def test_csv_bytes_match_reference(self, tmp_path, monkeypatch, n_steps, seed, n_paths, block_rows):
        monkeypatch.setattr(stochastic, "CSV_BLOCK_ROWS", block_rows)
        ens = simulate(TimeGrid(1.0, n_steps), n_paths, seed=seed)
        path = tmp_path / "paths.csv"
        ensemble_to_csv(ens, path)
        assert path.read_bytes() == reference_csv(ens)
        np.testing.assert_array_equal(bits(ensemble_from_csv(path).values), bits(ens.values))

    def test_csv_hand_built_values_exact(self, tmp_path):
        vals = np.array([[0.0, -0.0, 5e-324], [1e-5, 1e16, 1 / 3]])[:, :, None]
        ens = PathEnsemble(grid=TimeGrid(1.0, 2), seed=5, values=vals)
        path = tmp_path / "paths.csv"
        ensemble_to_csv(ens, path)
        assert path.read_bytes() == reference_csv(ens)
        assert b"\n0,1,0,-0.0\n" in path.read_bytes()
        np.testing.assert_array_equal(bits(ensemble_from_csv(path).values), bits(ens.values))

    def test_csv_permuted_rows_refused_at_the_first_moved_row(self, tmp_path):
        ens = simulate(TimeGrid(1.0, 4), 30, seed=8)
        path = tmp_path / "paths.csv"
        ensemble_to_csv(ens, path)
        lines = path.read_text().splitlines()
        order = np.random.default_rng(0).permutation(len(lines) - 2)
        path.write_text("\n".join(lines[:2] + [lines[2 + j] for j in order]) + "\n")
        first = int(np.argmax(order != np.arange(order.size)))  # the first data row moved, from 0
        held, want = (lines[2 + j].rsplit(",", 1)[0] for j in (order[first], first))
        with pytest.raises(ValueError, match=moved(first + 1, held, want)) as info:
            ensemble_from_csv(path)
        assert str(path) in str(info.value)

    # 10 paths of 3 nodes at d = 1: data row r + 1 belongs to (r // 3, r % 3, 0)
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:5] + rows[6:], moved(6, "2,0,0", "1,2,0")),
        (lambda rows: rows[:11] + rows[12:15] + rows[16:], moved(12, "4,0,0", "3,2,0")),
        (lambda rows: rows + [rows[7]],
         r"data row 31 holds \(2,1,0\), expected nothing, the header has 30 rows"),
        (lambda rows: rows[:4] + [rows[9]] + rows[5:], moved(5, "3,0,0", "1,1,0")),
        (lambda rows: rows[:3] + ["-1" + rows[3][1:]] + rows[4:], moved(4, "-1,0,0", "1,0,0")),
        (lambda rows: rows[:3] + [rows[3].replace("1,0,0,", "1,3,0,")] + rows[4:],
         moved(4, "1,3,0", "1,0,0")),
        (lambda rows: rows[:3] + [rows[3].replace("1,0,0,", "1,0,1,")] + rows[4:],
         moved(4, "1,0,1", "1,0,0")),
        (lambda rows: rows[:2] + ["0,2,0,oops"] + rows[3:], "could not convert string 'oops'"),
        # the cell that would follow in the writer's order, past the header's 10 paths
        (lambda rows: rows + ["10,0,0,1.0"],
         r"data row 31 holds \(10,0,0\), expected nothing, the header has 30 rows"),
        (lambda rows: rows[:-4], r"26 data rows, the header needs 30; the first missing is \(8,2,0\)"),
    ], ids=["missing", "missing_in_path_order", "duplicate", "replaced", "negative", "node_past_end",
            "dim_past_end", "not_a_number", "past_the_count", "ends_early"])
    def test_csv_malformed_rows_rejected(self, tmp_path, edit, message):
        ens = simulate(TimeGrid(1.0, 2), 10, seed=1)
        path = tmp_path / "paths.csv"
        ensemble_to_csv(ens, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + edit(lines[2:])) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            ensemble_from_csv(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:19] + [rows[1]] + rows[20:], moved(20, "0,1,0", "6,1,0")),
        (lambda rows: rows[:25] + rows[26:], moved(26, "8,2,0", "8,1,0")),
        (lambda rows: rows[:23] + ["10" + rows[23][1:]] + rows[24:], moved(24, "10,2,0", "7,2,0")),
        (lambda rows: rows[:15] + [rows[0], "0,3,0,1.0"] + rows[17:], moved(16, "0,0,0", "5,0,0")),
        (lambda rows: rows[:15] + ["0,3,0,1.0", rows[0]] + rows[17:], moved(16, "0,3,0", "5,0,0")),
        (lambda rows: rows[:16] + ["5,1,0,oops"] + rows[17:], "data rows from 15: could not convert string 'oops'"),
        (lambda rows: rows + ["10,0,0,1.0"],
         r"data row 31 holds \(10,0,0\), expected nothing, the header has 30 rows"),
        (lambda rows: rows[:-2], r"28 data rows, the header needs 30; the first missing is \(9,1,0\)"),
    ], ids=["repeat_of_earlier_block", "missing", "outside", "repeat_before_outside", "outside_before_repeat",
            "not_a_number", "past_the_count", "ends_early"])
    def test_csv_errors_name_the_row_of_the_file(self, tmp_path, monkeypatch, edit, message):
        # 30 rows parsed 7 at a time: rows 15-21 are the third block, and a
        # 31st row sits in the fifth, after two good ones
        monkeypatch.setattr(stochastic, "CSV_READ_ROWS", 7)
        path = tmp_path / "paths.csv"
        ensemble_to_csv(simulate(TimeGrid(1.0, 2), 10, seed=1), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + edit(lines[2:])) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            ensemble_from_csv(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows,
        lambda rows: rows + [""],
        lambda rows: rows + ["# end"],
        lambda rows: rows[:100] + [""] + rows[100:],
    ], ids=["whole_blocks", "trailing_blank", "trailing_comment", "inner_blank"])
    def test_csv_reads_without_warning(self, tmp_path, edit):
        # two blocks of rows exactly: no parse is handed an empty rest of the
        # file, and a line without data is skipped silently
        ens = simulate(TimeGrid(1.0, 3), 2 * stochastic.CSV_READ_ROWS // 4, seed=6)
        path = tmp_path / "paths.csv"
        ensemble_to_csv(ens, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + edit(lines[2:])) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = ensemble_from_csv(path)
        np.testing.assert_array_equal(bits(back.values), bits(ens.values))

    @pytest.mark.parametrize("n_paths", [1000, 8000])
    def test_csv_reader_holds_one_block_besides_the_levels(self, tmp_path, n_paths):
        # one parsed block of rows and its row indices and decoded cells; a
        # reader holding every row at once needs 32 bytes a row, 10.5 MB at
        # 8000 x 40
        path = tmp_path / "paths.csv"
        ensemble_to_csv(simulate(TimeGrid(1.0, 40), n_paths, seed=2), path)
        tracemalloc.start()
        try:
            back = ensemble_from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - back.values.nbytes < 1.5e6

    def test_reloaded_ensembles_solve_bit_for_bit(self, tmp_path):
        grid = TimeGrid(1.0, 8)
        ens = simulate(grid, 3000, seed=13)
        ensemble_to_npz(ens, tmp_path / "paths.npz")
        ensemble_to_csv(ens, tmp_path / "paths.csv")

        def quad_z_rows(e):
            ctx = LsmcContext(grid, e, RegressionBasis(4))
            return solve(driver_from_label("quad_z"), RandomField(8, e.values[:, 8, 0]), 8, ctx).Y

        Y = quad_z_rows(ens)
        for back in (ensemble_from_npz(tmp_path / "paths.npz"), ensemble_from_csv(tmp_path / "paths.csv")):
            np.testing.assert_array_equal(bits(quad_z_rows(back)), bits(Y))

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_csv_header_below_two_paths_rejected(self, tmp_path, n_paths):
        # the floor of simulate and ensemble_from_npz, judged on the header
        # before any row: the unparsable row appended is never read
        path = tmp_path / "paths.csv"
        ensemble_to_csv(path_block(simulate(TimeGrid(1.0, 2), 3, seed=1), 0, n_paths), path)
        with open(path, "a") as fh:
            fh.write("0,0,0,oops\n")
        with pytest.raises(ValueError, match=rf"values shape \({n_paths}, 3, 1\), need n_paths >= 2") as info:
            ensemble_from_csv(path)
        assert str(path) in str(info.value)

    def test_csv_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "paths.csv"
        ensemble_to_csv(simulate(TimeGrid(1.0, 2), 3, seed=1), path)
        path.write_text(path.read_text().replace(" d=1", ""))
        with pytest.raises(ValueError, match="malformed header") as info:
            ensemble_from_csv(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("keep_rows", [True, False], ids=["rows", "no_rows"])
    def test_csv_header_without_a_component_rejected(self, tmp_path, keep_rows):
        # judged on the header before any row
        path = tmp_path / "paths.csv"
        ensemble_to_csv(simulate(TimeGrid(1.0, 2), 3, seed=1), path)
        lines = path.read_text().replace(" d=1", " d=0").splitlines()
        path.write_text("\n".join(lines if keep_rows else lines[:2]) + "\n")
        with pytest.raises(ValueError, match=r"values shape \(3, 3, 0\) holds d=0 Brownian components") as info:
            ensemble_from_csv(path)
        assert str(path) in str(info.value)

    def test_csv_header_of_two_components_refused(self, tmp_path):
        # judged on the header: the rows, all of dim 0, are never read
        path = tmp_path / "paths.csv"
        ensemble_to_csv(simulate(TimeGrid(1.0, 2), 3, seed=1), path)
        path.write_text(path.read_text().replace(" d=1", " d=2"))
        with pytest.raises(ValueError, match=r"values shape \(3, 3, 2\) holds d=2 Brownian components, need d=1") as info:
            ensemble_from_csv(path)
        assert str(path) in str(info.value)

    def test_csv_reader_does_not_copy_the_text(self, tmp_path):
        # measured at 2000 x 40: a reader that copies the text peaked at 5.3x the
        # file size, parsing from the open file peaks at 1.75x
        path = tmp_path / "paths.csv"
        ensemble_to_csv(simulate(TimeGrid(1.0, 40), 2000, seed=2), path)
        tracemalloc.start()
        try:
            ensemble_from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * path.stat().st_size

    def test_csv_round_trip(self, tmp_path):
        grid = TimeGrid(0.5, 3)
        ens = simulate(grid, 7, seed=99)
        path = tmp_path / "paths.csv"
        ensemble_to_csv(ens, path)
        back = ensemble_from_csv(path)
        assert back.seed == 99
        assert back.grid == grid
        np.testing.assert_allclose(back.values, ens.values, atol=1e-15)

    def test_csv_header_records_seed(self, tmp_path):
        ens = simulate(TimeGrid(1.0, 2), 3, seed=4242)
        path = tmp_path / "paths.csv"
        ensemble_to_csv(ens, path)
        assert "seed=4242" in path.read_text().splitlines()[0]

    def test_npz_round_trip(self, tmp_path):
        grid = TimeGrid(1.0, 5)
        ens = simulate(grid, 11, seed=3)
        path = tmp_path / "paths.npz"
        ensemble_to_npz(ens, path)
        back = ensemble_from_npz(path)
        assert back.seed == 3
        np.testing.assert_array_equal(bits(back.values), bits(ens.values))
        # node rows contiguous; the stride of the size-1 axis is immaterial
        assert back.values.strides[:2] == ens.values.strides[:2] and not back.values.flags.writeable

    @pytest.mark.parametrize("edit, message", [
        (lambda arrays: {**arrays, "values": np.zeros((100, 61, 1))}, r"shape \(100, 61, 1\), need .*41"),
        (lambda arrays: {**arrays, "values": np.zeros((100, 41))}, r"shape \(100, 41\)"),
        (lambda arrays: {**arrays, "values": np.zeros((1, 41, 1))}, r"shape \(1, 41, 1\)"),
        (lambda arrays: {**arrays, "values": np.zeros((100, 41, 0))}, r"shape \(100, 41, 0\) holds d=0"),
        (lambda arrays: {k: v for k, v in arrays.items() if k != "seed"}, "missing seed"),
        (lambda arrays: {"values": arrays["values"]}, "missing seed, T, n_steps"),
        # an int64 file used to load and fail in the first backward step
        *[(lambda arrays, t=t: {**arrays, "values": arrays["values"].astype(t)}, f"values dtype {t}, need float64")
          for t in ("int64", "float32", "complex128")],
        (lambda arrays: {**arrays, "values": np.zeros((100, 41, 2))},
         r"values shape \(100, 41, 2\) holds d=2 Brownian components, need d=1"),
    ], ids=["nodes_off_grid", "two_dim", "one_path", "no_component", "no_seed", "values_only",
            "int64", "float32", "complex128", "two_components"])
    def test_npz_malformed_rejected(self, tmp_path, edit, message):
        path = tmp_path / "paths.npz"
        ensemble_to_npz(simulate(TimeGrid(1.0, 40), 100, seed=1), path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez(path, **edit(arrays))
        with pytest.raises(ValueError, match=message) as info:
            ensemble_from_npz(path)
        assert str(path) in str(info.value)

    def test_npz_reader_holds_one_block_besides_the_levels(self, tmp_path):
        # numpy reads the member into one buffer, one chunk of BUFFER_SIZE
        # bytes at a time, and the ensemble keeps its node-major view; a
        # reader that copied the levels would hold 6.6 MB more at 20000 x 40
        path = tmp_path / "paths.npz"
        ens = simulate(TimeGrid(1.0, 40), 20_000, seed=2)
        ensemble_to_npz(ens, path)
        tracemalloc.start()
        try:
            back = ensemble_from_npz(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - back.values.nbytes < 4 * np.lib.format.BUFFER_SIZE
        np.testing.assert_array_equal(bits(back.values), bits(ens.values))
        assert back.values.strides[:2] == ens.values.strides[:2]

    def test_npz_writer_makes_no_copy(self, tmp_path):
        # numpy writes the Fortran-contiguous levels in chunks of up to 16 MiB,
        # here one chunk of the whole array; a path-major copy would double it
        ens = simulate(TimeGrid(1.0, 40), 20_000, seed=2)
        tracemalloc.start()
        try:
            ensemble_to_npz(ens, tmp_path / "paths.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ens.values.nbytes + 1e6

    def test_npz_legacy_path_major_member_read(self, tmp_path):
        # a file of the older layout: the levels path-major, in C order
        ens = simulate(TimeGrid(1.0, 40), 3000, seed=5)
        path = tmp_path / "paths.npz"
        np.savez(path, values=np.ascontiguousarray(ens.values), seed=np.int64(5), T=np.float64(1.0),
                 n_steps=np.int64(40))
        with zipfile.ZipFile(path) as z, z.open("values.npy") as member:
            np.lib.format.read_magic(member)
            assert np.lib.format.read_array_header_1_0(member)[1] is False  # fortran_order
        back = ensemble_from_npz(path)
        np.testing.assert_array_equal(bits(back.values), bits(ens.values))
        assert back.values.strides == ens.values.strides and not back.values.flags.writeable
        assert all(back.levels(i).flags.c_contiguous for i in range(41))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n_paths", [5, 3000])
    def test_npz_fortran_order_member_read(self, tmp_path, seed, n_paths):
        # np.savez stores a Fortran-ordered array as such, and it reads back
        # node-major; test_npz_legacy_path_major_member_read takes C order
        ens = simulate(TimeGrid(1.0, 6), n_paths, seed=seed)
        path = tmp_path / "paths.npz"
        np.savez(path, values=np.asfortranarray(ens.values), seed=np.int64(seed), T=np.float64(1.0),
                 n_steps=np.int64(6))
        back = ensemble_from_npz(path)
        assert back.seed == seed
        np.testing.assert_array_equal(bits(back.values), bits(ens.values))
        assert back.values.strides[:2] == ens.values.strides[:2]

    def test_npz_short_member_rejected(self, tmp_path):
        path = tmp_path / "paths.npz"
        ensemble_to_npz(simulate(TimeGrid(1.0, 4), 10, seed=1), path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != "values"}
        np.savez(path, **arrays)
        member = io.BytesIO()
        np.lib.format.write_array_header_1_0(member, {"descr": "<f8", "fortran_order": False, "shape": (10, 5, 1)})
        with zipfile.ZipFile(path, "a") as z:
            z.writestr("values.npy", member.getvalue() + np.zeros(49).tobytes())
        with pytest.raises(ValueError, match=r"EOF: reading array data, expected 400 bytes got 392") as info:
            ensemble_from_npz(path)
        assert str(path) in str(info.value)

    def test_npz_one_path_refused_before_the_ensemble_is_built(self, tmp_path, monkeypatch):
        path = tmp_path / "paths.npz"
        ensemble_to_npz(simulate(TimeGrid(1.0, 4), 2, seed=1), path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez(path, **{**arrays, "values": arrays["values"][:1]})
        monkeypatch.setattr(stochastic, "PathEnsemble", lambda **kw: pytest.fail("levels were copied"))
        with pytest.raises(ValueError, match=r"values shape \(1, 5, 1\), need n_paths >= 2") as info:
            ensemble_from_npz(path)
        assert str(path) in str(info.value)
