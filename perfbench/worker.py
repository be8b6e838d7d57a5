"""One benchmark process: set up, time passes, check outputs, report.

Started by run.py with ``src`` on PYTHONPATH and BLAS/OpenMP pinned to one
thread.  It prints ``READY`` once imports and input generation are done
(the end of set-up), then one JSON object as its last line.  With
``--probe`` it exits right after ``READY``; run.py times several probes to
take a median set-up time.

A run times a fixed number of passes of the workload: its count at a
30-second run (workloads.PASSES_PER_30S), scaled to ``--seconds``, and at
least one.  Outputs are checked after each pass, outside the timed region.
With ``--trace 1`` the package's public functions are wrapped (see
tracing.py) and per-layer metrics are reported as means over passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--out", required=True, help="directory for scratch files and span dumps")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--record-reference", action="store_true",
                    help="write observed digests to reference.json instead of checking them")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import angres
    import tracing
    import workloads

    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        work = workloads.make(args.workload, args.size, args.seed, workdir)
        reference = {} if args.record_reference else workloads.load_reference()
        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        if args.trace:
            tracing.install(tracer, angres)
        print("READY", flush=True)
        if args.probe:
            return 0

        passes = max(1, round(workloads.PASSES_PER_30S[args.workload] * args.seconds / 30.0))
        walls, layers, checks, spans = [], [], [], []
        for _ in range(passes):
            if args.trace:
                tracer.reset()  # drop spans the previous pass's check recorded
            t0 = time.perf_counter()
            outputs = work.run(tracer)
            walls.append(time.perf_counter() - t0)
            if args.trace:
                layers.append(dict(tracer.layer_metrics(), **{"trace.wall_s": walls[-1]}))
                spans.append(tracer.dump())
            checks.append(work.check(outputs, reference))
            del outputs
        if args.trace:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = checks[0]
    if args.record_reference:
        with open(workloads.REFERENCE_PATH) as fh:
            ref = json.load(fh)
        ref.update(first.observed)
        with open(workloads.REFERENCE_PATH, "w") as fh:
            json.dump(dict(sorted(ref.items())), fh, indent=1)
            fh.write("\n")
    if spans:
        path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"absent": tracer.absent, "passes": spans}, fh)

    report = {
        "passes": walls,
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "errors": [e for c in checks for e in c.errors][:20],
        "resolutions": first.resolutions,
        "gains": first.gains,
        "useful": first.useful,
        "tries": first.tries,
        "rows": first.rows,
        "restarts": getattr(work, "config", {}).get("restarts"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "angres": getattr(angres, "__version__", "?")},
    }
    if args.trace:
        report["layer"] = {k: statistics.fmean(p[k] for p in layers) for k in layers[0]}
        report["layer_per_pass"] = layers
        report["absent"] = tracer.absent
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
