"""Gallery of risk-measure constructions on one claim.

Evaluates every construction string on the terminal Brownian claim and shows
the deformation index sweeping the losses measure from the expected loss up
toward the classical entropic value.
"""

import numpy as np

from bsderisk import (
    LsmcContext,
    RegressionBasis,
    TimeGrid,
    claim_from_label,
    measure_from_label,
    simulate,
)
from bsderisk.stochastic import block_stderr

grid = TimeGrid(1.0, 50)
ens = simulate(grid, n_paths=50_000, seed=123)
ctx = LsmcContext(grid, ens, RegressionBasis(4))
claim = claim_from_label("brownian", 50)

labels = [
    "mean",
    "entropic",
    "qent:0.5,0",
    "qent_tr:0.5,0,0.1",
    "qent_bsde:0.5,0",
    "driver:csa_example",
    "discounted:mean,0.1",
]
print(f"{'construction':24s}  rho_0(B_1)   stderr")
for label in labels:
    measure = measure_from_label(label, grid)
    rho = measure.evaluate(ctx, 0, claim)
    se = block_stderr(ctx, lambda sub, rows, m=measure: m.evaluate(sub, 0, claim).mean())
    print(f"{label:24s}  {rho.mean():+10.5f}  {se:.5f}")

print()
print("losses measure sweeping the deformation index (common paths):")
lower = np.mean(np.maximum(-ens.values[:, 50, 0], 0.0))
upper = measure_from_label("qent:1,0", grid).evaluate(ctx, 0, claim).mean()
print(f"  expected loss (q->0 limit)     = {lower:.5f}")
for q in (0.1, 0.3, 0.5, 0.7, 0.9):
    val = measure_from_label(f"qent:{q},0", grid).evaluate(ctx, 0, claim).mean()
    bar = "#" * int(60 * (val - lower) / (upper - lower))
    print(f"  q={q}: {val:.5f} {bar}")
print(f"  entropic on losses (q=1 cap)   = {upper:.5f}")
