"""Spans and counters recorded from outside the package under test.

A :class:`Tracer` replaces public functions, as bound in the modules that
call them, with timing wrappers.  Each call records a span (name, parent,
start, end) in memory; :meth:`Tracer.layer_metrics` folds the spans of one
pass into the per-layer metrics.  A binding that does not exist (renamed or
deleted by a refactor) is recorded as absent instead of raising, so the
traced run survives changes to the package's internals.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager

# Per-layer metrics: name -> unit.  A name is "<span name>.<kind>": "s" is
# total seconds in outermost spans of that name, "self_s" subtracts time
# covered by child spans, "calls" counts spans; other kinds are counters.
LAYER_METRICS = {
    "families.build_family.s": "s",
    "graphs.verify_planar_3tree.s": "s",
    "graphs.trace_faces.s": "s",
    "graphs.trace_faces.calls": "count",
    "layout.layout_nested.s": "s",
    "layout.layout_seed_any.s": "s",
    "layout.layout_seed_any.calls": "count",
    "layout.fan.s": "s",
    "metrics.validate_drawing.self_s": "s",
    "metrics.validate_drawing.calls": "count",
    "metrics.angular_resolution.s": "s",
    "metrics.angular_resolution.calls": "count",
    "optimize.objective.s": "s",
    "optimize.objective.calls": "count",
    "optimize.lbfgsb.self_s": "s",
    "optimize.lbfgsb.nit": "count",
    "optimize.lbfgsb.nfev": "count",
    "optimize.lbfgsb.abnormal": "count",
    "optimize.restarts.ran_ratio": "ratio",
    "optimize.restarts.valid_ratio": "ratio",
    "geometry.lemma_fuzz.s": "s",
    "svg.export_svg.s": "s",
    "cli.gen.s": "s",
    "cli.measure.s": "s",
    "graphs.n_total": "count",
    "graphs.m_total": "count",
    "graphs.faces_total": "count",
    "trace.wall_s": "s",
}

# Metrics that must repeat exactly between two traced runs of one seed.
EXACT_METRICS = sorted(
    name
    for name, unit in LAYER_METRICS.items()
    if unit in ("count", "ratio")
)


class NullTracer:
    """Stand-in used with tracing off: no spans, no counters."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, value=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._installed: list[tuple] = []

    @contextmanager
    def span(self, name):
        i = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, time.perf_counter(), None])
        self._open.append(i)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[i][3] = time.perf_counter()

    def count(self, name, value=1):
        self.counts[name] += value

    def wrap(self, module, attr, name, wrapper_factory=None):
        """Replace ``module.attr`` with a wrapper recording span ``name``.

        ``wrapper_factory(original)`` may build a custom wrapper instead; it
        is responsible for opening the span itself."""
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        if wrapper_factory is not None:
            wrapper = wrapper_factory(original)
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def reset(self):
        """Start a new pass: drop spans and counters, keep the wrappers."""
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Fold this pass's spans and counters into LAYER_METRICS values."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[i]
            if not self._has_ancestor_named(parent, name):
                total[name] += end - start
        out = {}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total[layer]
            elif kind == "self_s":
                out[metric] = self_time[layer]
            elif kind == "calls":
                out[metric] = float(calls[layer])
        attempted = self.counts["optimize.restarts.attempted"]
        for kind in ("ran", "valid"):
            out[f"optimize.restarts.{kind}_ratio"] = (
                self.counts[f"optimize.restarts.{kind}"] / attempted if attempted else 0.0
            )
        for metric in ("optimize.lbfgsb.nit", "optimize.lbfgsb.nfev", "optimize.lbfgsb.abnormal",
                       "graphs.n_total", "graphs.m_total", "graphs.faces_total"):
            out[metric] = float(self.counts[metric])
        return out

    def _has_ancestor_named(self, i, name) -> bool:
        while i >= 0:
            if self.spans[i][0] == name:
                return True
            i = self.spans[i][1]
        return False

    def dump(self) -> list:
        """This pass's spans as [name, parent index, start, end]."""
        return [[n, p, round(s, 7), round(e, 7)] for n, p, s, e in self.spans]


def install(tracer: Tracer, angres) -> None:
    """Wrap every public function the workloads reach, in each module that
    binds it, so calls from the package and from the benchmark are seen."""
    cli, families, geometry, graphs = angres.cli, angres.families, angres.geometry, angres.graphs
    layout, metrics, optimize, svg = angres.layout, angres.metrics, angres.optimize, angres.svg
    bindings = [
        ("families.build_family", [families, optimize, cli], "build_family"),
        ("graphs.verify_planar_3tree", [graphs, optimize, layout], "verify_planar_3tree"),
        ("graphs.trace_faces", [graphs, metrics, optimize], "trace_faces"),
        ("layout.layout_nested", [layout, optimize], "layout_nested"),
        ("layout.layout_seed_any", [layout, optimize], "layout_seed_any"),
        ("layout.fan", [layout], "layout_frame_fan"),
        ("layout.fan", [layout], "layout_htilde1"),
        ("metrics.validate_drawing", [metrics, optimize, cli, svg], "validate_drawing"),
        ("metrics.angular_resolution", [metrics, optimize, cli], "angular_resolution"),
        ("geometry.lemma_fuzz", [geometry], "lemma_fuzz"),
        ("svg.export_svg", [svg], "export_svg"),
        ("optimize.sweep", [optimize], "sweep"),
    ]
    for name, modules, attr in bindings:
        for module in modules:
            tracer.wrap(module, attr, name)
    tracer.wrap(optimize, "minimize", "optimize.lbfgsb", lambda fn: _minimize_wrapper(tracer, fn))
    tracer.wrap(optimize, "maximize_resolution", "optimize.maximize_resolution",
                lambda fn: _restarts_wrapper(tracer, fn))


def _minimize_wrapper(tracer: Tracer, minimize):
    """Time each L-BFGS-B stage, and each objective call inside it."""

    def wrapper(fun, *args, **kwargs):
        def objective(*a, **k):
            with tracer.span("optimize.objective"):
                return fun(*a, **k)

        with tracer.span("optimize.lbfgsb"):
            res = minimize(objective, *args, **kwargs)
        tracer.count("optimize.lbfgsb.nit", int(getattr(res, "nit", 0)))
        tracer.count("optimize.lbfgsb.nfev", int(getattr(res, "nfev", 0)))
        if "ABNORMAL" in str(getattr(res, "message", "")):
            tracer.count("optimize.lbfgsb.abnormal")
        return res

    return wrapper


def _restarts_wrapper(tracer: Tracer, maximize_resolution):
    """Count restarts attempted, run (valid start) and valid (kept drawing)."""

    def record(traces):
        for t in traces:
            tracer.count("optimize.restarts.attempted")
            if math.isfinite(getattr(t, "final_objective", math.inf)):
                tracer.count("optimize.restarts.ran")
            if getattr(t, "valid", False):
                tracer.count("optimize.restarts.valid")

    def wrapper(*args, **kwargs):
        with tracer.span("optimize.maximize_resolution"):
            try:
                result = maximize_resolution(*args, **kwargs)
            except Exception as exc:
                record(getattr(exc, "traces", []))
                raise
        record(getattr(result, "traces", []))
        return result

    return wrapper
