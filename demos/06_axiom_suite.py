"""Run the full axiom-verification suite and print the verdict matrix.

Each construction is checked for the properties in
`bsderisk.diagnostics.PROPERTIES`: normalization, rho(0) <= 0, restriction,
the horizon sign law, and the four consistency notions; the implication
audit then confirms that no construction passes the premises of a
consistency law and fails its conclusion.  Structural failures (a discounted wrapper is not
cash additive, a translated family is not normalized, ...) are expected and
audited as such.
"""

from bsderisk.cli import RunConfig, run_verify
from bsderisk.diagnostics import PROPERTIES

cfg = RunConfig(
    n_paths=10_000, n_steps=20, s=0.0, t=0.5, u=0.75, v=1.0, seed=123,
    checks=("taxonomy", "gamma_cross"),
)
reports, summary = run_verify(cfg)

table = {}
for r in reports:
    table[(r.construction, r.property)] = "pass" if r.verdict else "FAIL"

constructions = sorted({r.construction for r in reports if r.property in PROPERTIES})
width = max(len(c) for c in constructions) + 2
heads = [p.removeprefix("tc_") for p in PROPERTIES]
cells = [max(len(h), 4) + 2 for h in heads]
print(f"{'construction':{width}s}" + "".join(f"{h:>{n}s}" for h, n in zip(heads, cells)))
for c in constructions:
    row = "".join(f"{table.get((c, p), '-'):>{n}s}" for p, n in zip(PROPERTIES, cells))
    print(f"{c:{width}s}{row}")

print()
print(f"checks run: {summary['n_checks']}, unexpected results: {summary['n_failures']}")
for r in reports:
    if r.property == "gamma_premium_identity":
        print(
            f"horizon cross-check {r.construction}: direct {r.details['gamma']} "
            f"vs premium {r.details['premium']} (weights mean {r.details['weight_mean']})"
        )
