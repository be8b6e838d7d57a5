"""Search for maximum-angular-resolution drawings of a fixed embedding.

The optimizer maximizes a smooth soft-min of the signed corner angles of all
internal faces (log-sum-exp with sharpness increased on a schedule), plus an
orientation penalty driving every internal face to positive signed area.  For
a maximal planar graph with the outer face pinned, all faces positively
oriented implies the drawing realizes the embedding, so every candidate is
accepted only after ``validate_drawing`` proves those orientation signs.

Best-found values are lower bounds on the true optimum; downstream checks
are phrased as trends and thresholds, never as equalities with an optimum.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .families import FamilySpec, build_family
from .graphs import BuildSequence, Embedding, LabeledGraph, internal_triangles, verify_planar_3tree
from .layout import layout_nested, layout_seed_any, outer_triangle_coords
from .metrics import angular_resolution, validate_drawing


class OptimizeFailure(RuntimeError):
    """No restart produced a valid drawing; carries all restart traces."""

    def __init__(self, message: str, traces: list["RestartTrace"]):
        super().__init__(message)
        self.traces = traces


@dataclass
class OptimizeConfig:
    restarts: int = 16
    max_iters: int = 5000
    seed: int = 0
    penalty_init: float = 1.0
    penalty_growth: float = 10.0
    stages: int = 5
    tol: float = 1e-8
    outer_coords: np.ndarray | None = None  # default: equilateral, circumradius 1
    # Optional structural starting drawings tried (after the plain centroid
    # seed) before the jittered restarts; lets callers seed with a known
    # good constructive layout.
    extra_seeds: list[np.ndarray] = field(default_factory=list)

    def validate(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not (self.penalty_init > 0.0 and self.penalty_growth >= 1.0):
            raise ValueError("penalty schedule must have positive init and growth >= 1")
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages}")


@dataclass
class RestartTrace:
    index: int
    final_objective: float
    iterations: int
    valid: bool
    resolution: float  # nan when invalid


@dataclass
class OptimizeResult:
    coords: np.ndarray
    resolution: float
    traces: list[RestartTrace]
    seed: int


def _internal_corner_index(graph: LabeledGraph, emb: Embedding) -> np.ndarray:
    """(F*3, 3) array of (a, b, c) per corner: angle measured at b between
    rays b->a and b->c, over all internal (counterclockwise) face corners."""
    tri = internal_triangles(graph, emb)
    # corner i of face (t0, t1, t2) is (t[i-1], t[i], t[i+1])
    return tri[:, [[2, 0, 1], [0, 1, 2], [1, 2, 0]]].reshape(-1, 3)


def _corner_angles(P: np.ndarray, idx: np.ndarray):
    """Signed corner angles and the intermediates needed for the gradient."""
    A, B, C = P[idx[:, 0]], P[idx[:, 1]], P[idx[:, 2]]
    e1 = A - B
    e2 = C - B
    g = e2[:, 0] * e1[:, 1] - e2[:, 1] * e1[:, 0]
    h = e1[:, 0] * e2[:, 0] + e1[:, 1] * e2[:, 1]
    theta = np.arctan2(g, h)
    return theta, e1, e2, g, h


def _objective(x, n, free, idx, fidx, sharp, weight, pinned, origin=None, scale=None):
    """Negative soft-min of corner angles plus orientation penalty; returns
    (value, gradient over free coordinates).

    With ``origin``/``scale`` the variables are per-vertex rescaled offsets
    (x_v = origin_v + scale_v * y_v), a diagonal preconditioner that evens
    out the wildly different local scales of nested-replay drawings."""
    P = pinned.copy()
    if origin is None:
        P[free] = x.reshape(-1, 2)
    else:
        P[free] = origin + scale[:, None] * x.reshape(-1, 2)
    theta, e1, e2, g, h = _corner_angles(P, idx)

    z = -sharp * theta
    lse = logsumexp(z)
    softmin = -lse / sharp
    wgt = np.exp(z - lse)  # softmax weights, sum to 1

    # d(softmin)/d(theta_i) = wgt_i; objective is -softmin
    denom = np.maximum(g * g + h * h, 1e-300)  # coincident points give 0/0
    coef = wgt / denom
    dA = np.stack([(-e2[:, 1]) * h - g * e2[:, 0], e2[:, 0] * h - g * e2[:, 1]], axis=1)
    dC = np.stack([e1[:, 1] * h - g * e1[:, 0], (-e1[:, 0]) * h - g * e1[:, 1]], axis=1)
    dA *= coef[:, None]
    dC *= coef[:, None]
    dB = -(dA + dC)

    grad = np.zeros_like(P)
    np.add.at(grad, idx[:, 0], -dA)
    np.add.at(grad, idx[:, 1], -dB)
    np.add.at(grad, idx[:, 2], -dC)
    value = -softmin

    # orientation penalty: sum of relu(-area)^2 over internal faces
    Fa, Fb, Fc = P[fidx[:, 0]], P[fidx[:, 1]], P[fidx[:, 2]]
    area = 0.5 * (
        (Fb[:, 0] - Fa[:, 0]) * (Fc[:, 1] - Fa[:, 1])
        - (Fb[:, 1] - Fa[:, 1]) * (Fc[:, 0] - Fa[:, 0])
    )
    neg = np.minimum(area, 0.0)
    value += weight * float(np.sum(neg * neg))
    pc = (2.0 * weight) * neg
    ga = np.stack([Fb[:, 1] - Fc[:, 1], Fc[:, 0] - Fb[:, 0]], axis=1) * 0.5
    gb = np.stack([Fc[:, 1] - Fa[:, 1], Fa[:, 0] - Fc[:, 0]], axis=1) * 0.5
    gc = np.stack([Fa[:, 1] - Fb[:, 1], Fb[:, 0] - Fa[:, 0]], axis=1) * 0.5
    np.add.at(grad, fidx[:, 0], pc[:, None] * ga)
    np.add.at(grad, fidx[:, 1], pc[:, None] * gb)
    np.add.at(grad, fidx[:, 2], pc[:, None] * gc)

    g_free = grad[free]
    if origin is not None:
        g_free = scale[:, None] * g_free
    return value, g_free.ravel()


def objective_and_gradient(
    graph: LabeledGraph,
    emb: Embedding,
    coords: np.ndarray,
    sharpness: float,
    penalty_weight: float = 0.0,
):
    """Smooth objective (to minimize) and its gradient at ``coords``.

    Exposed for finite-difference cross-checks; the gradient covers the free
    (non outer-face) vertices, flattened as (x0, y0, x1, y1, ...).
    """
    idx = _internal_corner_index(graph, emb)
    fidx = idx[::3]
    free = np.array([v for v in range(graph.n) if v not in set(emb.outer_face)], dtype=np.int64)
    x = coords[free].ravel()
    return _objective(x, graph.n, free, idx, fidx, sharpness, penalty_weight, coords)


def _min_corner_angle(P, idx) -> float:
    theta = _corner_angles(P, idx)[0]
    return float(theta.min())


def _run_restart(start, graph, free, idx, fidx, pinned, config) -> tuple[np.ndarray, float, int]:
    """Sharpness/penalty continuation from one starting drawing.

    Variables are per-vertex rescaled offsets from the start (scale = the
    shortest incident edge in the starting drawing); stages keep running,
    doubling sharpness and growing the penalty, until the iteration budget
    is spent or the objective stops improving."""
    near = np.full(graph.n, np.inf)
    for i, j in graph.edges:
        dist = float(np.hypot(*(start[i] - start[j])))
        if dist < near[i]:
            near[i] = dist
        if dist < near[j]:
            near[j] = dist
    origin = start[free].copy()
    scale = np.maximum(near[free], 1e-300)
    P = pinned.copy()
    P[free] = origin
    y = np.zeros(2 * free.size)
    iters_left = config.max_iters
    total_iters = 0
    weight = config.penalty_init
    value = math.inf
    stage = 0
    stalled = 0
    while iters_left > 0 and stalled < 2:
        span = max(abs(_min_corner_angle(P, idx)), 1e-8)
        sharp = (4.0 * 2.0 ** min(stage, 12)) / span
        budget = max(iters_left // max(config.stages - stage, 2), 50)
        res = minimize(
            _objective,
            y,
            args=(pinned.shape[0], free, idx, fidx, sharp, weight, pinned, origin, scale),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": min(budget, iters_left), "ftol": config.tol, "gtol": 1e-14},
        )
        y = res.x
        improved = float(res.fun) < value - config.tol
        value = float(res.fun)
        total_iters += res.nit
        iters_left -= max(res.nit, 1)
        P[free] = origin + scale[:, None] * y.reshape(-1, 2)
        weight *= config.penalty_growth
        stage += 1
        stalled = 0 if improved else stalled + 1
    out = pinned.copy()
    out[free] = origin + scale[:, None] * y.reshape(-1, 2)
    return out, value, total_iters


def maximize_resolution(
    graph: LabeledGraph,
    emb: Embedding,
    config: OptimizeConfig | None = None,
    seq: BuildSequence | None = None,
) -> OptimizeResult:
    """Best drawing over seeded restarts; deterministic given (graph, config).

    Restart 0 starts from the plain centroid-replay seed; any configured
    extra seeds follow; remaining restarts add seeded jitter to the centroid
    seed.  Restarts whose starting drawing is degenerate or invalid are
    recorded as failed without running; a restart that does run never
    reports worse than its starting drawing.  Only restarts whose reported
    drawing passes validate_drawing count; ties go to the lowest restart
    index.
    """
    config = config or OptimizeConfig()
    config.validate()
    outer = (
        np.asarray(config.outer_coords, dtype=float)
        if config.outer_coords is not None
        else outer_triangle_coords()
    )
    if seq is None:
        seq = verify_planar_3tree(graph, keep=emb.outer_face)
    base = layout_seed_any(graph, emb, seq, outer)
    idx = _internal_corner_index(graph, emb)
    fidx = idx[::3]
    outer_set = set(emb.outer_face)
    free = np.array([v for v in range(graph.n) if v not in outer_set], dtype=np.int64)
    pinned = base.copy()

    traces: list[RestartTrace] = []
    best = None
    best_res = -1.0
    for r in range(config.restarts):
        if r == 0:
            start = base
        elif r - 1 < len(config.extra_seeds):
            start = np.asarray(config.extra_seeds[r - 1], dtype=float)
            if start.shape != base.shape:
                raise ValueError(f"extra seed {r - 1} has shape {start.shape}, want {base.shape}")
        else:
            # replay with random interior barycentric weights: a valid
            # drawing of the embedding, diverse across restarts
            rng = np.random.default_rng([config.seed, r])
            start = layout_seed_any(graph, emb, seq, outer, rng=rng)
        if validate_drawing(graph, emb, start):
            # invalid start (deep replays collapse below double precision);
            # nothing worth optimizing from
            traces.append(RestartTrace(r, math.inf, 0, False, math.nan))
            continue
        if free.size:
            drawing, value, iters = _run_restart(start, graph, free, idx, fidx, pinned, config)
        else:
            drawing, value, iters = pinned.copy(), 0.0, 0  # only the pinned triangle
        valid = not validate_drawing(graph, emb, drawing)
        resolution = float(angular_resolution(graph, drawing).resolution) if valid else math.nan
        # a restart never reports worse than its (valid) starting drawing
        start_res = float(angular_resolution(graph, start).resolution)
        if not valid or start_res > resolution:
            drawing, valid, resolution = start.copy(), True, start_res
        traces.append(RestartTrace(r, value, iters, valid, resolution))
        if valid and resolution > best_res:
            best, best_res = drawing, resolution
    if best is None:
        raise OptimizeFailure("no restart produced a valid drawing", traces)
    return OptimizeResult(best, best_res, traces, config.seed)


@dataclass
class SweepRecord:
    family: str
    c: int | None
    d: int
    vertices: int
    edges: int
    max_degree: int
    best_resolution: float  # nan marks a failed row
    restarts: int
    valid_restarts: int
    seed: int
    runtime_s: float


CSV_COLUMNS = [
    "family",
    "c",
    "d",
    "vertices",
    "edges",
    "max_degree",
    "best_resolution",
    "restarts",
    "valid_restarts",
    "seed",
    "runtime_s",
]


def sweep(specs: list[FamilySpec], config: OptimizeConfig | None = None) -> list[SweepRecord]:
    """Build, optimize, and record each family spec; rows in input order.

    A per-row optimizer failure is recorded as a row with nan resolution and
    zero valid restarts; the sweep continues.  The constructive nested
    drawing of each family joins its restart pool as an extra seed.
    """
    config = config or OptimizeConfig()
    config.validate()
    records = []
    for spec in specs:
        t0 = time.perf_counter()
        fam = build_family(spec)
        g, emb = fam.graph, fam.embedding
        row_cfg = OptimizeConfig(**{**config.__dict__})
        row_cfg.extra_seeds = list(config.extra_seeds) + [layout_nested(fam)]
        try:
            result = maximize_resolution(g, emb, row_cfg)
            best = result.resolution
            valid = sum(1 for t in result.traces if t.valid)
        except OptimizeFailure as exc:
            best = math.nan
            valid = 0
            result = None
        deg = max(len(a) for a in g.adjacency()) if g.n else 0
        records.append(
            SweepRecord(
                family=spec.family,
                c=spec.c,
                d=spec.d,
                vertices=g.n,
                edges=len(g.edges),
                max_degree=deg,
                best_resolution=best,
                restarts=config.restarts,
                valid_restarts=valid,
                seed=config.seed,
                runtime_s=time.perf_counter() - t0,
            )
        )
    return records


def write_sweep_csv(records: list[SweepRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow(
                [
                    r.family,
                    "" if r.c is None else r.c,
                    r.d,
                    r.vertices,
                    r.edges,
                    r.max_degree,
                    repr(float(r.best_resolution)),
                    r.restarts,
                    r.valid_restarts,
                    r.seed,
                    f"{r.runtime_s:.3f}",
                ]
            )


def read_sweep_csv(path: str) -> list[SweepRecord]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                SweepRecord(
                    family=row["family"],
                    c=int(row["c"]) if row["c"] else None,
                    d=int(row["d"]),
                    vertices=int(row["vertices"]),
                    edges=int(row["edges"]),
                    max_degree=int(row["max_degree"]),
                    best_resolution=float(row["best_resolution"]),
                    restarts=int(row["restarts"]),
                    valid_restarts=int(row["valid_restarts"]),
                    seed=int(row["seed"]),
                    runtime_s=float(row["runtime_s"]),
                )
            )
    return out


@dataclass
class ExponentFit:
    slope: float
    intercept: float
    r2: float


def fit_exponent(records: list[SweepRecord], family: str, c: int | None) -> ExponentFit:
    """Least-squares fit of log(best resolution) against log(d) over the
    records matching (family, c)."""
    pts = [
        r
        for r in records
        if r.family == family and r.c == c and not math.isnan(r.best_resolution)
    ]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 records for {family} c={c}, got {len(pts)}")
    if any(r.best_resolution <= 0 for r in pts):
        raise ValueError("all resolutions must be positive for a log-log fit")
    x = np.log([r.d for r in pts])
    y = np.log([r.best_resolution for r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(float(slope), float(intercept), r2)
