"""One benchmark run of one workload, in this process.

Started by run_bench.py with the BLAS pool pinned to one thread.  Runs
whole rounds while the next one should end within --seconds (always at
least one) and prints, as its last stdout line, the JSON result: the
end-to-end metrics from untraced rounds, or with --trace 1 the per-layer
metrics from traced rounds that alternate with untraced ones (their
difference in wall time is the tracing overhead).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bsderisk  # noqa: E402
from bsderisk import cli  # noqa: E402

from spans import Tracer, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # stand-alone set-ups before the rounds, so setup_s has a median
OUT = ROOT / ".bench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class SetupClock:
    """Times every RunConfig.build: simulating the ensemble and building the
    context, which is all of a run's work before its first regression."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        self._original = original = cli.RunConfig.__dict__["build"]
        samples = self.samples

        def build(cfg):
            start = time.perf_counter()
            ctx = original(cfg)
            samples.append(time.perf_counter() - start)
            return ctx

        cli.RunConfig.build = build
        return self

    def __exit__(self, *exc):
        cli.RunConfig.build = self._original


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def one_round(wl, tracer):
    """Run one round; returns (wall, cpu, result or None, error text or None)."""
    if wl.out is not None:
        shutil.rmtree(wl.out, ignore_errors=True)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            result, error = wl.run(), None
        except Exception:  # a failed operation is counted, not fatal
            result, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return wall, cpu, result, error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not Path(bsderisk.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bsderisk imported from {bsderisk.__file__}, not from this checkout's src/")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # outputs go to a path relative to the checkout, so that the bundles,
    # which record their output directory, have the same bytes everywhere
    os.chdir(ROOT)
    work = OUT.relative_to(ROOT) / f"work-{tag}"
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env), flush=True)

    attempted = failed = 0
    problems, notes = [], []
    walls = {False: [], True: []}
    cpus = []
    layers: list[dict] = []
    span_log: list[tuple[int, list]] = []
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        with SetupClock() as clock:
            for _ in range(SETUP_REPEATS):
                wl.cfg.build()
            start = time.perf_counter()
            k = 0
            while True:
                traced = bool(args.trace) and k % 2 == 1
                tracer = Tracer() if traced else None
                wall, cpu, result, error = one_round(wl, tracer)
                attempted += wl.ops
                if error is not None:
                    failed += wl.ops
                    print(f"round {k}: operation failed\n{error}", file=sys.stderr)
                else:
                    found, seen = wl.check(result)
                    problems += [f"round {k}: {p}" for p in found]
                    notes += [n for n in seen if n not in notes]
                    walls[traced].append(wall)
                    if not traced:
                        cpus.append(cpu)
                    else:
                        layers.append({**tracer.layer_metrics(), **wl.sizes()})
                        span_log.append((k, tracer.spans))
                del result, tracer
                k += 1
                # start a round (a pair when tracing) only if it should end
                # within --seconds, judged by the round just run
                ahead = wall * (2 if args.trace else 1)
                if (not args.trace or k % 2 == 0) and time.perf_counter() - start + ahead > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if span_log:
        write_spans(OUT / f"spans-{tag}.jsonl", span_log)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for n in notes:
        print(f"note: {n}", file=sys.stderr)

    if args.trace:
        values = trace_metrics(layers, walls)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls[False]) if walls[False] else float("nan"),
            "setup_s": statistics.median(clock.samples),
            "cpu_s": statistics.median(cpus) if cpus else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "rounds": k, "walls": walls[False], "traced_walls": walls[True], "cpus": cpus,
        "setups": clock.samples, "problems": problems, "notes": notes,
        "metrics": values,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def trace_metrics(layers: list[dict], walls: dict) -> dict:
    """Per-layer metrics: medians of the traced rounds' times, the rest from
    the first traced round (counts repeat exactly; a change is reported).
    A layer a workload does not reach reads 0."""
    out = {}
    for name, unit in PER_LAYER.items():
        seen = [r.get(name, 0) for r in layers] or [float("nan")]
        if unit == "s":
            out[name] = statistics.median(seen)
        else:
            out[name] = seen[0]
            if any(v != seen[0] for v in seen):
                print(f"note: {name} differs between traced rounds: {seen}", file=sys.stderr)
    out["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False])
        if walls[True] and walls[False] else float("nan")
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
