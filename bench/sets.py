"""Run a set of benchmark runs and summarise them, or compare two sets.

    python3 bench/sets.py run --label A --seeds 1-10 [--workloads verify_default,...]
    python3 bench/sets.py compare A B

`run` calls run_bench.py once per (workload, seed), untraced, with the
run length from BENCHMARK.json, and writes .bench_out/set-<label>.json.
For each end-to-end metric it prints the median, the quartiles and the
spread (quartile distance over median) against the metric's bound.
`compare` checks that set B's medians are no worse than set A's by more
than each bound and that the failed shares are equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def run_set(label: str, seeds: list[int], workloads: list[str]) -> None:
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    result = {"label": label, "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "seeds": seeds, "workloads": {}}
    for wl in workloads:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run_bench.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append({"seed": seed, **json.loads(proc.stdout.splitlines()[-1])})
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        result["workloads"][wl] = {
            "runs": runs,
            "metrics": metrics,
            "correct": all(r["correct"] for r in runs),
            "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        }
        print(f"{wl}: correct={result['workloads'][wl]['correct']} "
              f"failed_share={result['workloads'][wl]['failed_share']}")
        for name, s in metrics.items():
            print(f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}")
        sys.stdout.flush()
    result["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    (OUT / f"set-{label}.json").write_text(json.dumps(result, indent=1) + "\n")


def compare(a: str, b: str) -> int:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    sa, sb = (json.loads((OUT / f"set-{x}.json").read_text()) for x in (a, b))
    bad = 0
    for wl, wa in sa["workloads"].items():
        wb = sb["workloads"].get(wl)
        if wb is None:
            continue
        if wa["failed_share"] != wb["failed_share"]:
            print(f"{wl}: failed share {wa['failed_share']} vs {wb['failed_share']}")
            bad += 1
        for name, bound in bounds.items():
            ma, mb = wa["metrics"][name]["median"], wb["metrics"][name]["median"]
            change = mb / ma - 1.0
            flag = "WORSE" if change > bound else "ok"
            bad += flag != "ok"
            print(f"{wl:15s} {name:12s} {ma:.4f} -> {mb:.4f}  {change:+.2%}  bound {bound:.0%}  {flag}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--label", required=True)
    r.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    r.add_argument("--workloads", default=",".join(w["name"] for w in spec()["workloads"]))
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run_set(args.label, args.seeds, args.workloads.split(","))
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
