"""Span tracing of bsderisk from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
with timing wrappers, at every binding the package's own modules hold (the
modules import by name, so `diagnostics.solve` and `bsde.solve` are two
bindings of one function).  Spans (name, start, end, parent) stay in memory;
`layer_metrics()` turns them into per-layer self times and exact counts.
A projector counts as built where its normal system is factorised
(`_Projector.__init__`), not where `LsmcContext.projector` is called, so a
cache in front of the factorisation shows as fewer builds.

Fingerprinting for the distinct-work counts runs in a span named "trace",
which is subtracted from its parent's self time like any child and belongs
to no layer.  All wrapped calls happen on the calling thread: the only
threads bsderisk starts (the Gram accumulation pool) run pure numpy.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from bsderisk import bsde, cli, diagnostics, riskmeasures, stochastic, tsallis

CHECKS = (
    "check_cash_additivity",
    "check_cash_subadditivity",
    "check_normalization",
    "check_nonpositive_at_zero",
    "check_restriction",
    "check_longevity",
    "check_monotonicity",
    "check_convexity",
    "check_time_consistency",
)

# (module, function name, span name)
FUNCTIONS = [
    (stochastic, "simulate", "stochastic.simulate"),
    (stochastic, "ensemble_to_csv", "stochastic.csv_write"),
    (stochastic, "ensemble_from_csv", "stochastic.csv_read"),
    (stochastic, "ensemble_to_npz", "stochastic.npz_write"),
    (stochastic, "ensemble_from_npz", "stochastic.npz_read"),
    (bsde, "solve", "bsde.solve"),
    (tsallis, "exp_q", "tsallis"),
    (tsallis, "ln_q", "tsallis"),
    (diagnostics, "gamma", "diagnostics.gamma"),
    (diagnostics, "gamma_via_premium_measure", "diagnostics.premium"),
    (diagnostics, "noise_sigma", "diagnostics.noise_sigma"),
    (diagnostics, "run_taxonomy", "diagnostics.taxonomy"),
    *[(diagnostics, name, "diagnostics.check") for name in CHECKS],
    (cli, "main", "cli.main"),
    (cli, "parse_config", "cli.config"),
    (cli, "run_verify", "cli.run_verify"),
    (cli, "run_sweep", "cli.run_sweep"),
]

# (class, method name, span name)
METHODS = [
    (stochastic.RegressionBasis, "design", "stochastic.design"),
    (stochastic.LsmcContext, "projector", "stochastic.projector"),
    (stochastic._Projector, "__init__", "stochastic.projector_build"),
    (bsde.Driver, "__call__", "bsde.driver"),
    (riskmeasures.RiskMeasure, "evaluate", "riskmeasures.evaluate"),
    (cli.RunConfig, "build", "cli.build"),
]


def fingerprint(values) -> str:
    if values is None:
        return "-"
    arr = np.ascontiguousarray(values)
    return f"{arr.shape}:{hashlib.blake2b(arr.view(np.uint8), digest_size=16).hexdigest()}"


def ensemble_key(ens) -> tuple:
    """Identity of the path data: sub-ensembles cut from the same parent rows
    share it, whichever PathEnsemble object carries them."""
    v = ens.values
    return (v.__array_interface__["data"][0], v.shape, v.strides, ens.seed)


def context_key(ctx) -> tuple:
    return (ensemble_key(ctx.ensemble), ctx.basis.degree, ctx.basis.ridge)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._refs: list = []  # keeps keyed objects alive so their ids stay unique
        self._undo: list[tuple] = []
        self._built_under: set[int] = set()  # projector spans that built one
        self._fit_classes: set[type] = set()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if after is not None:
                self._bookkeep(after, args, kwargs, result, idx)
            return result

        return traced

    def _bookkeep(self, after, args, kwargs, result, span):
        stack = self._stack
        idx = len(self.spans)
        self.spans.append(["trace", time.perf_counter(), 0.0, stack[-1] if stack else -1])
        after(args, kwargs, result, span)
        self.spans[idx][2] = time.perf_counter()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        after = {
            "bsde.solve": self._after_solve,
            "stochastic.projector": self._after_projector,
            "stochastic.projector_build": self._after_build,
            "riskmeasures.evaluate": self._after_evaluate,
        }
        for module, fname, span in FUNCTIONS:
            original = getattr(module, fname)
            wrapped = self.wrap(span, original, after.get(span))
            for mod in [m for n, m in sys.modules.items() if n == "bsderisk" or n.startswith("bsderisk.")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        for cls, meth, span in METHODS:
            self._set(cls, meth, self.wrap(span, cls.__dict__[meth], after.get(span)))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- bookkeeping at the boundaries ------------------------------------

    def _after_solve(self, args, kwargs, sol, span):
        for key in ("picard_evals", "regression_fallbacks"):
            self.counts[f"bsde.{key}"] += int(sol.diagnostics.get(key, 0))

    def _after_build(self, args, kwargs, result, span):
        self._built_under.add(self.spans[span][3])  # keyed by _after_projector

    def _after_projector(self, args, kwargs, proj, span):
        if span in self._built_under:
            ctx, at = args[0], args[1]
            aux = args[2] if len(args) > 2 else kwargs.get("aux")
            self._refs.append(ctx.ensemble)
            self.keys["projector"].add((context_key(ctx), at, fingerprint(aux)))
        cls = type(proj)
        if cls not in self._fit_classes:  # every projector of this class, cached ones too
            self._fit_classes.add(cls)
            for meth in ("coefficients", "fitted"):
                self._set(cls, meth, self.wrap("stochastic.fit", getattr(cls, meth)))

    def _after_evaluate(self, args, kwargs, result, span):
        params = ["ctx", "t_index", "claim", "maturity", "aux"]
        bound = dict(zip(params, args[1:]), **kwargs)
        measure, ctx = args[0], bound["ctx"]
        claim = bound["claim"]
        field = claim.evaluate(ctx.ensemble) if isinstance(claim, stochastic.Claim) else claim
        maturity = bound.get("maturity")
        self._refs.extend([measure, ctx.ensemble])
        self.keys["evaluation"].add((
            id(measure),
            context_key(ctx),
            bound["t_index"],
            field.index if maturity is None else maturity,
            field.index,
            fingerprint(field.values),
            fingerprint(bound.get("aux")),
        ))

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: summed self time and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict:
        self_s, calls = self.self_times()
        names = [s[0] for s in self.spans]
        parents = [names[s[3]] if s[3] >= 0 else None for s in self.spans]
        # a fit nested in a fit (fitted -> coefficients) is one fit call
        top_fits = sum(n == "stochastic.fit" and p != "stochastic.fit" for n, p in zip(names, parents))
        in_solve = 0
        for name, _, _, parent in self.spans:
            if name != "stochastic.projector":
                continue
            while parent >= 0 and names[parent] != "bsde.solve":
                parent = self.spans[parent][3]
            in_solve += parent >= 0
        builds, evals = calls["stochastic.projector_build"], calls["riskmeasures.evaluate"]
        distinct_p, distinct_e = len(self.keys["projector"]), len(self.keys["evaluation"])
        return {
            "stochastic.simulate_s": self_s["stochastic.simulate"],
            "stochastic.design_s": self_s["stochastic.design"],
            "stochastic.design_calls": calls["stochastic.design"],
            "stochastic.projector_s": self_s["stochastic.projector"] + self_s["stochastic.projector_build"],
            "stochastic.projector_builds": builds,
            "stochastic.projector_distinct": distinct_p,
            "stochastic.projector_useful_ratio": distinct_p / builds if builds else 1.0,
            "stochastic.fit_s": self_s["stochastic.fit"],
            "stochastic.fit_calls": top_fits,
            "stochastic.csv_write_s": self_s["stochastic.csv_write"],
            "stochastic.csv_read_s": self_s["stochastic.csv_read"],
            "stochastic.npz_write_s": self_s["stochastic.npz_write"],
            "stochastic.npz_read_s": self_s["stochastic.npz_read"],
            "bsde.solve_s": self_s["bsde.solve"],
            "bsde.solves": calls["bsde.solve"],
            "bsde.backward_steps": in_solve,
            "bsde.driver_s": self_s["bsde.driver"],
            "bsde.driver_calls": calls["bsde.driver"],
            "bsde.picard_evals": self.counts["bsde.picard_evals"],
            "bsde.regression_fallbacks": self.counts["bsde.regression_fallbacks"],
            "riskmeasures.evaluate_s": self_s["riskmeasures.evaluate"],
            "riskmeasures.evaluations": evals,
            "riskmeasures.evaluations_distinct": distinct_e,
            "riskmeasures.evaluation_useful_ratio": distinct_e / evals if evals else 1.0,
            "tsallis.s": self_s["tsallis"],
            "tsallis.calls": calls["tsallis"],
            "diagnostics.check_s": self_s["diagnostics.check"],
            "diagnostics.checks": calls["diagnostics.check"],
            "diagnostics.gamma_s": self_s["diagnostics.gamma"],
            "diagnostics.premium_s": self_s["diagnostics.premium"],
            "diagnostics.noise_sigma_s": self_s["diagnostics.noise_sigma"],
            "cli.bundle_write_s": self_s["cli.main"],
        }


def write_spans(path, rounds: list[tuple[int, list]]) -> None:
    """One JSON line per span: round, id, name, start, end, parent id."""
    with open(path, "w") as fh:
        for round_no, spans in rounds:
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"round": round_no, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
