"""The four workloads: what one pass runs, and how its outputs are checked.

Every call into the package goes through a module attribute looked up at
call time (``layout.layout_nested(...)``), so the traced run's wrappers see
calls made by the benchmark as well as calls the package makes internally.

Why these workloads (sizes measured on a 2-core machine, one thread):

- sweep-shallow: the criterion-6 sweep on shallow rows.  Every restart
  runs, and most of the time is spent in the optimizer's objective and in
  L-BFGS-B, so an objective speed-up shows here.
- sweep-deep: the same sweep on deep rows.  Most replay restarts start
  collapsed and are discarded; time goes to replay seeds and validation on
  9k-30k vertices, and optimizer-quality fixes move the result metrics.
- pipeline-large: one optimizer-free pass over two large families, ending
  in a text round trip through the command line.  Construction, 3-tree
  verification, layout, orientation/rotation validation (more than 6000
  edges, so the pairwise segment check is skipped) and text I/O dominate.
- gate-small: the constructive fan layouts at small d, where every graph has
  at most 6000 edges and the O(m^2) segment check dominates validation,
  plus the lemma fuzzer and SVG export, which nothing else reaches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from angres import cli, families, geometry, graphs, layout, metrics, optimize, svg

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Criterion 6's optimizer settings; the workload seed replaces its seed 42.
# Restart 0 is the centroid replay, restart 1 the nested layout, and
# restarts 2+ are seeded jittered replays.  Sweep-shallow stops at 2 so its
# work does not depend on the seed: one jittered restart per row moved its
# time by about 10% between seeds.  Sweep-deep keeps one jittered restart,
# because discarded replay restarts are what it measures.
SWEEP_CONFIG = {"max_iters": 3000, "penalty_init": 10.0}

# Gate-small covers criterion 3's d = 1..64 loop at every d up to 16 and at
# four larger d; the full loop (about 35 s of segment checks) is longer
# than a run.
SIZES = {
    "full": {
        "sweep-shallow": {"rows": [(1, 2), (1, 4), (1, 8), (1, 16), (2, 4)], "restarts": 2},
        "sweep-deep": {"rows": [(2, 16), (3, 8)], "restarts": 3},
        "pipeline-large": {"graphs": [(2, 32), (3, 8)], "cli": (3, 8)},
        "gate-small": {"ds": list(range(1, 17)) + [24, 32, 48, 64],
                       "fuzz_n": 1_000_000, "svg_d": 64},
    },
    "tiny": {
        "sweep-shallow": {"rows": [(1, 2)], "restarts": 2, "max_iters": 200},
        "sweep-deep": {"rows": [(1, 2)], "restarts": 3, "max_iters": 200},
        "pipeline-large": {"graphs": [(1, 2)], "cli": (1, 2)},
        "gate-small": {"ds": [1, 2, 3, 4], "fuzz_n": 1000, "svg_d": 4},
    },
}
FUZZ_SEED = 20240817

# Passes in a 30-second run.  The host's speed drifts by 10-20% over tens
# of seconds, so each run times as long a window as the benchmark's time
# budget allows: one sweep pass (20-30 s), two pipeline passes (about
# 16 s each), three gate passes (about 7 s each).  Fixed counts keep the
# window, and every per-run count, independent of how fast a pass ran.
PASSES_PER_30S = {"sweep-shallow": 1, "sweep-deep": 1, "pipeline-large": 2, "gate-small": 3}


@dataclass
class Checked:
    """Outcome of checking one pass."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    resolutions: list = field(default_factory=list)
    gains: list = field(default_factory=list)
    # useful outcomes over tries, the unit of work that can be wasted:
    # restarts for the sweeps, checked outputs elsewhere
    useful: int = 0
    tries: int = 0
    observed: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def digest(coords) -> str:
    return hashlib.sha256(np.ascontiguousarray(coords, dtype=np.float64).tobytes()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _exception_text(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _count_graph(trace, graph) -> None:
    n, m = graph.n, len(graph.edges)
    trace.count("graphs.n_total", n)
    trace.count("graphs.m_total", m)
    trace.count("graphs.faces_total", m - n + 2)  # Euler, connected plane graph


class Sweep:
    """``optimize.sweep`` on htilde rows, one call per row so that a row
    that raises fails alone."""

    def __init__(self, rows, seed, restarts, max_iters=None):
        self.specs = [families.FamilySpec("htilde", c, d) for c, d in rows]
        self.config = dict(SWEEP_CONFIG, seed=seed, restarts=restarts)
        if max_iters is not None:
            self.config["max_iters"] = max_iters
        self._seed_resolution: dict = {}
        self._first_rows = None

    def run(self, trace):
        out = []
        for spec in self.specs:
            try:
                (record,) = optimize.sweep([spec], optimize.OptimizeConfig(**self.config))
            except Exception as exc:  # recorded as a failed row; the run goes on
                out.append(exc)
                continue
            trace.count("graphs.n_total", record.vertices)
            trace.count("graphs.m_total", record.edges)
            trace.count("graphs.faces_total", record.edges - record.vertices + 2)
            out.append(record)
        return out

    def seed_resolution(self, spec) -> float:
        """Resolution of the row's constructive nested drawing: the divisor
        of the row's gain.  Computed once, outside the timed passes."""
        key = (spec.c, spec.d)
        if key not in self._seed_resolution:
            fam = families.build_family(spec)
            coords = layout.layout_nested(fam)
            self._seed_resolution[key] = float(metrics.angular_resolution(fam.graph, coords).resolution)
        return self._seed_resolution[key]

    def check(self, outputs, reference) -> Checked:
        res = Checked()
        for spec, rec in zip(self.specs, outputs):
            name = f"htilde({spec.c},{spec.d})"
            res.attempted += 1
            res.tries += self.config["restarts"]
            if isinstance(rec, Exception):
                res.fail(f"{name}: {_exception_text(rec)}")
                continue
            res.useful += rec.valid_restarts
            best = float(rec.best_resolution)
            if not (math.isfinite(best) and best > 0.0 and rec.valid_restarts >= 1):
                res.fail(f"{name}: resolution {best!r} with {rec.valid_restarts} valid restarts")
                continue
            seed_res = self.seed_resolution(spec)
            res.resolutions.append(best)
            res.gains.append(best / seed_res)
            res.rows.append({
                "row": name, "vertices": rec.vertices, "edges": rec.edges,
                "best_resolution": repr(best), "valid_restarts": rec.valid_restarts,
                "restarts": rec.restarts, "seed_resolution": repr(seed_res),
                "gain": best / seed_res,
            })
        # a fixed seed must give the same rows on every pass
        if self._first_rows is None:
            self._first_rows = res.rows
        elif res.rows != self._first_rows:
            res.fail("sweep rows differ between passes of one seed")
        return res


def _check_drawing(res: Checked, reference: dict, name: str, coords, valid=None, resolution=None):
    """Compare a drawing's coordinate digest, validity and resolution (None
    where not measured) with the values recorded at the reference commit."""
    res.attempted += 1
    seen = {"sha256": digest(coords), "valid": valid,
            "resolution": None if resolution is None else repr(float(resolution))}
    res.observed[name] = seen
    want = reference.get(name)
    if want is None:
        res.fail(f"{name}: no reference value")
    elif seen != want:
        diff = {k: (seen[k], want.get(k)) for k in seen if seen[k] != want.get(k)}
        res.fail(f"{name}: differs from reference (seen, want): {diff}")
    elif resolution is not None:
        res.resolutions.append(float(resolution))


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Pipeline:
    """build -> verify -> nested layout -> replay seed -> validate ->
    resolution, per graph; then ``angres gen`` writes one family and
    ``angres measure`` reads it back with its nested drawing.

    Only the nested drawing is validated: the centroid replay collapses on
    both graphs (invalid at the reference commit), so it is checked by its
    coordinate digest alone."""

    def __init__(self, graph_cds, cli_cd, workdir):
        self.graph_cds = graph_cds
        self.cli_cd = cli_cd
        self.workdir = workdir

    def run(self, trace):
        out = {}
        for c, d in self.graph_cds:
            key = f"htilde({c},{d})"
            try:
                fam = families.build_family(families.FamilySpec("htilde", c, d))
                g, emb = fam.graph, fam.embedding
                _count_graph(trace, g)
                seq = graphs.verify_planar_3tree(g, keep=emb.outer_face)
                nested = layout.layout_nested(fam)
                seeded = layout.layout_seed_any(g, emb, seq)
                nested_ok = not metrics.validate_drawing(g, emb, nested)
                resolution = metrics.angular_resolution(g, nested).resolution
            except Exception as exc:  # recorded as a failed graph; the run goes on
                out[key] = exc
                continue
            out[key] = (nested, nested_ok, resolution, seeded)
        c, d = self.cli_cd
        graph_path = os.path.join(self.workdir, "family.graph")
        drawing_path = os.path.join(self.workdir, "family.drawing")
        try:
            with trace.span("cli.gen"):
                gen = _run_cli(["gen", "--family", "htilde", "--c", str(c), "--d", str(d),
                                "-o", graph_path])
            with open(drawing_path, "w") as fh:
                fh.write(metrics.write_drawing(out[f"htilde({c},{d})"][0]))
            with trace.span("cli.measure"):
                measure = _run_cli(["measure", graph_path, drawing_path])
            out["cli"] = (gen, measure)
        except Exception as exc:
            out["cli"] = exc
        return out

    def check(self, outputs, reference) -> Checked:
        res = Checked()
        for c, d in self.graph_cds:
            key = f"htilde({c},{d})"
            got = outputs[key]
            if isinstance(got, Exception):
                res.attempted += 2
                res.fail(f"{key}: {_exception_text(got)}")
                res.fail(f"{key}: no drawings")
                continue
            nested, nested_ok, resolution, seeded = got
            _check_drawing(res, reference, f"nested/{key}", nested, nested_ok, resolution)
            _check_drawing(res, reference, f"seed_any/{key}", seeded)
        res.attempted += 1
        got = outputs["cli"]
        key = f"nested/htilde({self.cli_cd[0]},{self.cli_cd[1]})"
        if isinstance(got, Exception):
            res.fail(f"cli: {_exception_text(got)}")
        else:
            (gen_code, _), (measure_code, text) = got
            printed = [ln.split()[1] for ln in text.splitlines() if ln.startswith("resolution ")]
            want = reference.get(key, {}).get("resolution")
            if gen_code != 0 or measure_code != 0 or printed != [want]:
                res.fail(f"cli: gen exit {gen_code}, measure exit {measure_code}, "
                         f"printed {printed}, want [{want}]")
        return res


def _layout_htilde1(d):
    """``layout.layout_htilde1(d)``, or the same drawing built from its
    definition once a refactor removes that one-line wrapper; the tracer
    then reports the binding absent."""
    wrapper = getattr(layout, "layout_htilde1", None)
    if wrapper is not None:
        return wrapper(d)
    fam = families.build_Htilde(1, d)
    return fam, layout.layout_nested(fam)


class Gate:
    """Criterion 3's fan layouts (validated and measured), the lemma
    fuzzer, and SVG export of one frame drawing."""

    def __init__(self, ds, fuzz_n, svg_d):
        self.ds = ds
        self.fuzz_n = fuzz_n
        self.svg_d = svg_d

    def run(self, trace):
        out = {}
        for d in self.ds:
            for name in ("layout_frame_fan", "layout_htilde1"):
                key = f"{name}({d})"
                try:
                    if name == "layout_frame_fan":
                        fam, coords = layout.layout_frame_fan(d)
                    else:
                        fam, coords = _layout_htilde1(d)
                    _count_graph(trace, fam.graph)
                    ok = not metrics.validate_drawing(fam.graph, fam.embedding, coords)
                    resolution = metrics.angular_resolution(fam.graph, coords).resolution
                except Exception as exc:
                    out[key] = exc
                    continue
                out[key] = (coords, ok, resolution)
                if name == "layout_frame_fan" and d == self.svg_d:
                    frame = fam
        try:
            out["lemma_fuzz"] = geometry.lemma_fuzz(self.fuzz_n, FUZZ_SEED)
        except Exception as exc:
            out["lemma_fuzz"] = exc
        try:
            coords = out[f"layout_frame_fan({self.svg_d})"][0]
            out["svg"] = svg.export_svg(frame.graph, frame.embedding, coords)
        except Exception as exc:
            out["svg"] = exc
        return out

    def check(self, outputs, reference) -> Checked:
        res = Checked()
        for key, got in outputs.items():
            if isinstance(got, Exception):
                res.attempted += 1
                res.fail(f"{key}: {_exception_text(got)}")
            elif key == "lemma_fuzz":
                res.attempted += 1
                if got.bound_holds != got.n or got.n != self.fuzz_n:
                    res.fail(f"lemma_fuzz: bound holds {got.bound_holds}/{got.n}, want {self.fuzz_n}")
            elif key == "svg":
                res.attempted += 1
                name = f"svg/frame({self.svg_d})"
                seen = {"sha256": hashlib.sha256(got.encode()).hexdigest()}
                res.observed[name] = seen
                if reference.get(name) != seen:
                    res.fail(f"{name}: digest {seen['sha256']} differs from reference")
            else:
                coords, ok, resolution = got
                _check_drawing(res, reference, key, coords, ok, resolution)
        return res


def make(workload: str, size: str, seed: int, workdir: str):
    """The workload's inputs, generated from ``seed`` and ``size``."""
    spec = SIZES[size][workload]
    if workload.startswith("sweep-"):
        return Sweep(spec["rows"], seed, spec["restarts"], spec.get("max_iters"))
    if workload == "pipeline-large":
        return Pipeline(spec["graphs"], spec["cli"], workdir)
    if workload == "gate-small":
        return Gate(spec["ds"], spec["fuzz_n"], spec["svg_d"])
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(SIZES["full"])
