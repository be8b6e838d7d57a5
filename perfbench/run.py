"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-shallow --seed 42 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src`` (it is
not installed).  The workload runs in one child process with BLAS/OpenMP
pinned to one thread.  With ``--trace 0`` the last stdout line is a JSON
object carrying the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead.  The run record (machine facts,
configuration, per-row results, per-pass times) goes to ``perfbench/out``.

Set-up time is the median, over two probe processes and the measured one,
of the time from starting the process to the end of imports and input
generation.  Exit code is non-zero, with no result printed, when the
package cannot be found or a process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep-shallow", "sweep-deep", "pipeline-large", "gate-small")
SETUP_PROBES = 2
DEADLINE_S = 170.0  # every process is killed by then; the contract allows 180 s
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "resolution_geomean": "rad",
    "gain_geomean": "ratio",
    "ok_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update(THREAD_PINS)
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run a worker; return (seconds from start to its READY line, the rest
    of its stdout).  The worker is killed at ``deadline`` (monotonic)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode} ({' '.join(argv)})")
    return ready, rest


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _geomean(values) -> float:
    """Geometric mean; 0 when nothing was measured (every check failed)."""
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42, help="optimizer seed of the sweep workloads")
    ap.add_argument("--seconds", type=float, default=30.0, help="target length of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs, for the harness smoke check")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "angres", "__init__.py")):
        print(f"error: package source not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--size", args.size, "--out", OUT]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(common + ["--probe"], deadline)[0])
        ready, text = _spawn(common, deadline)
        setups.append(ready)
        report = json.loads(text.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = report["layer"]
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(report["passes"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "resolution_geomean": _geomean(report["resolutions"]),
            # workloads without an optimizer report constructive drawings:
            # their gain over the constructive seed is 1 by definition
            "gain_geomean": _geomean(report["gains"]) if report["gains"] else 1.0,
            "ok_frac": (report["useful"] / report["tries"] if report["tries"]
                        else 1.0 - report["failed"] / max(report["attempted"], 1)),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "cpu": _cpu_model(), **report["versions"]},
        "git_commit": _git_commit(),
        "thread_pins": THREAD_PINS,
        "setup_samples": setups,
        **{k: report[k] for k in report if k not in ("versions", "layer")},
        "result": result,
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for message in report["errors"]:
        print(f"check failed: {message}")
    if report.get("absent"):
        print(f"layers absent (binding not found): {', '.join(report['absent'])}")
    for k, m in result["metrics"].items():
        print(f"{k:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
