"""Path engine and regression-based conditional expectations.

Simulates a seeded Brownian ensemble, then exercises the least-squares
projection that stands in for E[. | F_t] everywhere in the library: the
martingale identity, the tower property, and exact mean preservation.
"""

import numpy as np

from bsderisk import LsmcContext, RandomField, RegressionBasis, TimeGrid, simulate

grid = TimeGrid(T=1.0, n_steps=50)
ens = simulate(grid, n_paths=100_000, seed=42)
ctx = LsmcContext(grid, ens, RegressionBasis(degree=4))

print(f"ensemble: {ens.n_paths} paths x {grid.n_steps} steps, seed {ens.seed}")
print(f"terminal variance {np.var(ens.values[:, -1, 0]):.4f} (theory 1.0)")

b1 = RandomField(50, ens.values[:, 50, 0])
# the level itself is a basis function, so a low degree keeps coefficient
# noise from amplifying in the tails
fitted = LsmcContext(grid, ens, RegressionBasis(2)).cond_expect(b1, 25)
err = np.max(np.abs(fitted.values - ens.values[:, 25, 0]))
print(f"martingale check: max |E-hat[B_1|F_0.5] - B_0.5| = {err:.4f}")

payoff = RandomField(50, np.maximum(ens.values[:, 50, 0] - 0.5, 0.0))
two_step = ctx.cond_expect(ctx.cond_expect(payoff, 25), 0)
one_step = ctx.cond_expect(payoff, 0)
print(f"tower property gap: {np.max(np.abs(two_step.values - one_step.values)):.2e}")
print(f"mean preservation: {abs(ctx.cond_expect(payoff, 25).mean() - payoff.mean()):.2e}")

print()
print("determinism: the same seed re-simulated gives bit-identical projections")
reference = ctx.cond_expect(payoff, 25).values
again = simulate(grid, n_paths=100_000, seed=42)
ctx_again = LsmcContext(grid, again, RegressionBasis(4))
payoff_again = RandomField(50, np.maximum(again.values[:, 50, 0] - 0.5, 0.0))
same = np.array_equal(ctx_again.cond_expect(payoff_again, 25).values, reference)
print(f"  re-simulated at seed {again.seed}: identical = {same}")
