"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads sweep-deep,gate-small] [--json out.json]

Runs run.py once per workload and seed, untraced, and prints for each
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json.
A later change should keep every spread below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", default=None, help="also write the values and summary here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:15s} {name:20s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}{flag}", flush=True)
        out[workload] = summary
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seeds": args.seeds, "workloads": out}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
