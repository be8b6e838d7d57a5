"""Smoke check of the harness.

    python3 perfbench/smoke.py              # tiny inputs, about a minute
    python3 perfbench/smoke.py --size full  # the real workloads, several minutes

Runs every workload through run.py once untraced and twice traced, and
fails (exit 1) unless each run exits 0 with a correct result, every metric
named in BENCHMARK.json is emitted with its unit, and the exact per-layer
counts (sizes, calls, iterations, restart ratios) repeat between the two
traced runs.  With ``--size full`` it prints the traced per-layer metrics
of each workload as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int, size: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("tiny", "full"), default="tiny")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    layers = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {0: [_run(workload, 0, args.size, args.seed)],
                1: [_run(workload, 1, args.size, args.seed) for _ in range(2)]}
        for trace, results in runs.items():
            for result in results:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{workload} trace={trace}: correct={result['correct']} "
                                    f"failed={result['failed']}/{result['attempted']}")
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                if emitted != expected[trace]:
                    problems.append(f"{workload} trace={trace}: metrics {emitted} "
                                    f"!= {expected[trace]}")
        first, second = (r["metrics"] for r in runs[1])
        for name in tracing.EXACT_METRICS:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} not repeated exactly ({a} vs {b})")
        layers[workload] = {k: v["value"] for k, v in first.items()}
        print(f"{workload}: checked", flush=True)
    if args.size == "full":
        print(json.dumps(layers, indent=1))
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
