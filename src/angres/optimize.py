"""Search for maximum-angular-resolution drawings of a fixed embedding.

``maximize_resolution`` compiles its (graph, embedding) pair once: the traced
internal faces, one flat corner index over them and the free (non-outer)
vertices.  It also checks the build sequence once and groups its steps by
level (``layout._ReplayPlan``).  Every restart reuses both, so a centroid or
jittered start only places vertices level by level.

Each restart minimizes minus a soft-min of the signed corner angles of all
internal faces (log-sum-exp; at each stage the sharpness is 4 * 2**stage,
capped at stage 12, over the smallest corner angle) plus an orientation
penalty ``weight * sum(min(area, 0)**2)`` whose weight grows every stage.
The gradient is one ``np.bincount`` scatter per coordinate over the corner
index.  The outer triangle stays pinned.  For a triangulation whose outer
triangle is clockwise, internal faces that are all counterclockwise prove
that the drawing realizes the embedding, so a start or a result counts only
after ``validate_drawing``'s exact orientation check passes on the compiled
faces.

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

from .families import FamilySpec, build_family
from .graphs import (
    BuildSequence,
    Embedding,
    LabeledGraph,
    internal_triangles,
    max_degree,
    verify_planar_3tree,
)
from .layout import _ReplayPlan, layout_nested, outer_triangle_coords
from .metrics import _drawing_violations, angular_resolution


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


class _Instance:
    """One (graph, embedding) pair compiled for the restart loop.

    ``corners`` is the flat corner index of length 12F over the F internal
    faces.  Its first three 3F-slices are the a, b and c columns of the
    internal corners (a, b, c), whose angle is measured at b from ray b->a to
    ray b->c; corner i of face (t0, t1, t2) is (t[i-1], t[i], t[i+1]).  The
    last three F-slices are the columns of each face's corner 0, the
    orientation penalty's vertices.  The whole array is the gradient's
    scatter index, and ``weights`` the buffer its values are written to.
    """

    def __init__(self, graph: LabeledGraph, emb: Embedding):
        self.n = graph.n
        self.outer_face = emb.outer_face
        self.tri = internal_triangles(graph, emb)
        idx = self.tri[:, [[2, 0, 1], [0, 1, 2], [1, 2, 0]]].reshape(-1, 3)
        self.corners = np.concatenate([idx.T.ravel(), idx[::3].T.ravel()])
        self.weights = np.empty(self.corners.size)
        outer_set = set(emb.outer_face)
        self.free = np.array([v for v in range(graph.n) if v not in outer_set], dtype=np.int64)
        self.edges = graph.edge_array()


def _corner_angles(px: np.ndarray, py: np.ndarray, corners: np.ndarray):
    """Signed angle of every internal corner in the flat index ``corners``,
    from the x and y coordinate arrays, with the intermediates of its
    gradient: (theta, e1x, e1y, e2x, e2y, g, h), e1 = a - b, e2 = c - b."""
    ia, ib, ic = corners[: 3 * (corners.size // 4)].reshape(3, -1)
    bx, by = px[ib], py[ib]
    e1x, e1y = px[ia] - bx, py[ia] - by
    e2x, e2y = px[ic] - bx, py[ic] - by
    g = e2x * e1y - e2y * e1x
    h = e1x * e2x + e1y * e2y
    return np.arctan2(g, h), e1x, e1y, e2x, e2y, g, h


def _logsumexp(a: np.ndarray):
    """``scipy.special.logsumexp(a)`` of a non-empty 1-D float array, bit for
    bit: scipy 1.17.1's algorithm without its array-API dispatch.  The tied
    maxima are taken out of the sum, and a non-finite result falls back to
    ``log(sum(exp(a)))``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        tied = a == a_max
        m = float(np.count_nonzero(tied))
        shifted = a - a_max
        shifted[tied] = -np.inf - a_max  # scipy sets the ties to -inf, then shifts
        s = np.exp(shifted).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out


def _objective(x, inst, pinned, sharp, weight, origin=None, scale=None):
    """Negative soft-min of corner angles plus orientation penalty; returns
    (value, gradient over free coordinates).

    ``pinned`` holds the (2, n) x and y rows of the drawing, whose free
    vertices ``x`` replaces.  With ``origin``/``scale`` the variables are
    per-vertex rescaled offsets (x_v = origin_v + scale_v * y_v, origin in
    (2, free) rows), a diagonal preconditioner that evens out the wildly
    different local scales of nested-replay drawings.  The gradient is one
    ``np.bincount`` per coordinate over ``inst.corners``, which adds each
    vertex's terms in index order."""
    free, corners = inst.free, inst.corners
    P = pinned.copy()
    if origin is None:
        P[0, free] = x[0::2]
        P[1, free] = x[1::2]
    else:
        P[0, free] = origin[0] + scale * x[0::2]
        P[1, free] = origin[1] + scale * x[1::2]
    px, py = P
    theta, e1x, e1y, e2x, e2y, g, h = _corner_angles(px, py, corners)

    z = -sharp * theta
    lse = _logsumexp(z)
    value = lse / sharp  # minus the soft-min -lse / sharp
    wgt = np.exp(z - lse)  # softmax weights, sum to 1

    # d(softmin)/d(theta_i) = wgt_i; objective is -softmin
    denom = np.maximum(g * g + h * h, 1e-300)  # coincident points give 0/0
    coef = wgt / denom

    # orientation penalty: sum of relu(-area)^2 over internal faces
    k = corners.size // 4
    fa, fb, fc = corners[3 * k :].reshape(3, -1)
    fax, fay, fbx, fby, fcx, fcy = px[fa], py[fa], px[fb], py[fb], px[fc], py[fc]
    area = 0.5 * ((fbx - fax) * (fcy - fay) - (fby - fay) * (fcx - fax))
    neg = np.minimum(area, 0.0)
    value += weight * float(np.sum(neg * neg))
    pc = (2.0 * weight) * neg

    # per coordinate, the scatter weights in index order: -dA, -dB = dA + dC
    # and -dC for the corners, then the penalty terms of the three face columns
    w = inst.weights
    wa, wb, wc = w[: 3 * k].reshape(3, -1)
    wf = w[3 * k :].reshape(3, -1)
    grad = []
    for dA, dC, face_terms in (
        ((-e2y) * h - g * e2x, e1y * h - g * e1x, (fby - fcy, fcy - fay, fay - fby)),
        (e2x * h - g * e2y, (-e1x) * h - g * e1y, (fcx - fbx, fax - fcx, fbx - fax)),
    ):
        dA *= coef
        dC *= coef
        np.negative(dA, out=wa)
        np.add(dA, dC, out=wb)
        np.negative(dC, out=wc)
        for term, out in zip(face_terms, wf):
            term *= 0.5
            np.multiply(pc, term, out=out)
        grad.append(np.bincount(corners, weights=w, minlength=inst.n)[free])

    out = np.empty(2 * free.size)
    out[0::2], out[1::2] = grad
    if origin is not None:
        out[0::2] *= scale
        out[1::2] *= scale
    return value, out


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
    inst = _Instance(graph, emb)
    coords = np.asarray(coords, dtype=float)
    x = coords[inst.free].ravel()
    return _objective(x, inst, np.array(coords.T), sharpness, penalty_weight)


def _min_corner_angle(P, corners) -> float:
    theta = _corner_angles(P[0], P[1], corners)[0]
    return float(theta.min())


def _run_restart(start, inst, pinned, config) -> tuple[np.ndarray, float, int]:
    """Sharpness/penalty continuation from one starting drawing.

    Variables are per-vertex rescaled offsets from the start (scale = the
    shortest incident edge in the starting drawing); stages keep running,
    doubling sharpness and growing the penalty, until the iteration budget
    is spent or the objective stops improving."""
    free = inst.free
    i, j = inst.edges.T
    dist = np.hypot(start[i, 0] - start[j, 0], start[i, 1] - start[j, 1])
    near = np.full(inst.n, np.inf)
    np.minimum.at(near, i, dist)
    np.minimum.at(near, j, dist)
    origin = np.array(start[free].T)
    scale = np.maximum(near[free], 1e-300)
    P = pinned.copy()
    P[:, free] = origin
    y = np.zeros(2 * free.size)
    iters_left = config.max_iters
    total_iters = 0
    weight = config.penalty_init
    value = math.inf
    stage = 0
    stalled = 0
    while iters_left > 0 and stalled < 2:
        span = max(abs(_min_corner_angle(P, inst.corners)), 1e-8)
        sharp = (4.0 * 2.0 ** min(stage, 12)) / span
        budget = max(iters_left // max(config.stages - stage, 2), 50)
        res = minimize(
            _objective,
            y,
            args=(inst, pinned, sharp, weight, origin, scale),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": min(budget, iters_left), "ftol": config.tol, "gtol": 1e-14},
        )
        y = res.x
        improved = float(res.fun) < value - config.tol
        value = float(res.fun)
        total_iters += res.nit
        iters_left -= max(res.nit, 1)
        P[0, free] = origin[0] + scale * y[0::2]
        P[1, free] = origin[1] + scale * y[1::2]
        weight *= config.penalty_growth
        stage += 1
        stalled = 0 if improved else stalled + 1
    return np.array(P.T), value, total_iters


def maximize_resolution(
    graph: LabeledGraph,
    emb: Embedding,
    config: OptimizeConfig | None = None,
    seq: BuildSequence | None = None,
) -> OptimizeResult:
    """Best drawing over seeded restarts; deterministic given (graph, config).

    Restart 0 starts from the plain centroid-replay seed; any configured
    extra seeds follow; remaining restarts replay the build sequence with
    seeded random barycentric weights.  Restarts whose starting drawing is
    degenerate or invalid are recorded as failed without running; a restart
    that does run never reports worse than its starting drawing.  Only
    restarts whose reported drawing passes validate_drawing count; ties go
    to the lowest restart index.
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
    replay = _ReplayPlan(graph, emb, seq)
    base = replay.place(outer)
    inst = _Instance(graph, emb)
    pinned = np.array(base.T)

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
            start = replay.place(outer, np.random.default_rng([config.seed, r]))
        if _drawing_violations(start, inst.outer_face, inst.tri):
            # invalid start (deep replays collapse below double precision);
            # nothing worth optimizing from
            traces.append(RestartTrace(r, math.inf, 0, False, math.nan))
            continue
        if inst.free.size:
            drawing, value, iters = _run_restart(start, inst, pinned, config)
        else:
            drawing, value, iters = base.copy(), 0.0, 0  # only the pinned triangle
        valid = not _drawing_violations(drawing, inst.outer_face, inst.tri)
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
        records.append(
            SweepRecord(
                family=spec.family,
                c=spec.c,
                d=spec.d,
                vertices=g.n,
                edges=len(g.edges),
                max_degree=max_degree(g),
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
