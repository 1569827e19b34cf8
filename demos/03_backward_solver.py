"""Backward solver against closed forms.

Three generators with known answers:
  g = 0        -> plain conditional expectation
  g = -r y     -> exponential discounting
  g = |z|^2/2  -> the log-moment generating functional, ln E[exp(X)]
and a refinement ladder showing the estimate walking to the oracle.
"""

import numpy as np

from bsderisk import (
    LsmcContext,
    RandomField,
    RegressionBasis,
    TimeGrid,
    driver_from_label,
    simulate,
    solve,
)

grid = TimeGrid(1.0, 50)
ens = simulate(grid, n_paths=50_000, seed=123)
ctx = LsmcContext(grid, ens, RegressionBasis(4))
b1 = ens.values[:, 50, 0]

print("zero generator: Y_0 reproduces the sample mean")
sol = solve(driver_from_label("zero"), RandomField(50, b1), 50, ctx)
print(f"  Y_0 = {sol.field_at(0).mean():+.6f}, mean(B_1) = {np.mean(b1):+.6f}")

print("linear generator -0.1 y with terminal -1: oracle -exp(-0.1)")
sol = solve(driver_from_label("linear_y:0.1"), RandomField(50, -np.ones(50_000)), 50, ctx)
print(f"  Y_0 = {sol.field_at(0).mean():.6f}, oracle = {-np.exp(-0.1):.6f}")

print("quadratic generator with terminal B_1: oracle ln E[e^B_1] = 0.5")
sol = solve(driver_from_label("quad_z"), RandomField(50, b1), 50, ctx)
print(f"  Y_0 = {sol.field_at(0).mean():.6f}")

print()
print("refinement ladder (halve dt, quadruple paths):")
for n_steps, n_paths in ((10, 4_000), (20, 16_000), (40, 64_000)):
    g = TimeGrid(1.0, n_steps)
    e = simulate(g, n_paths, seed=123)
    c = LsmcContext(g, e, RegressionBasis(4))
    y0 = solve(
        driver_from_label("quad_z"), RandomField(n_steps, e.values[:, n_steps, 0]), n_steps, c
    ).field_at(0).mean()
    print(f"  {n_steps:3d} steps, {n_paths:6d} paths: Y_0 = {y0:.5f}  |err| = {abs(y0-0.5):.5f}")
