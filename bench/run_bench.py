"""Benchmark of bsderisk: one run of one workload.

    python3 bench/run_bench.py --workload verify_default --seed 12345 --seconds 30 --trace 0

Starts bench/worker.py in a fresh process (so peak RSS is that workload's
own) with the BLAS pool pinned to one thread, waits for it, and prints its
output.  The last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero, printing no
result, when the checkout lacks src/bsderisk or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
TIMEOUT_S = 170  # a run must end within 180 s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345, help="ensemble seed (default: the shipped 12345)")
    ap.add_argument("--seconds", type=float, default=30.0, help="run whole rounds that end within this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "bsderisk" / "__init__.py").is_file():
        print(f"error: no bsderisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"error: malformed result {lines[-1]!r}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
