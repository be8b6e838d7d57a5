"""Search for maximum-angular-resolution drawings of a fixed embedding.

``maximize_resolution`` compiles its (graph, embedding) pair once into a
``metrics.Triangulation``: the internal faces, one (3, 3F) corner index
over them and the free (non-outer) vertices.  It also checks the build
sequence once and groups its steps by level (``layout._ReplayPlan``).  Every
restart reuses both, so a centroid or jittered start only places vertices
level by level.

Each restart minimizes minus a soft-min of the signed corner angles of all
internal faces (log-sum-exp; at each stage the sharpness is 4 * 2**stage,
capped at stage 12, over the smallest corner angle) plus an orientation
penalty ``weight * sum(min(area, 0)**2)`` whose weight starts at
``penalty_init`` and grows ``PENALTY_GROWTH``-fold every stage.
The soft-min's weights and their gradient factors are computed only on the
corners whose weight can be nonzero, those at or above ``EXP_FLOOR`` =
-746: below -745.1332191019412 ``exp`` is exactly +0.0, and numpy's
``exp`` takes a slow path on every lane that underflows.  The gradient is
one ``np.bincount`` scatter per coordinate over the live terms only, each
kind selected once: those corners, and the faces whose penalty factor is
nonzero, at their corner-0 columns ``corners[:, 0::3]``, so a drawing
with no flipped face scatters no face term.  Every corner is scattered,
its factor zero-filled, when a quarter or more are live, and every corner
and face when a coordinate is non-finite or beyond 1e100 in magnitude.
Both are bit for bit the computation over every term (``_lse`` and
``_objective`` say why).  Over the restarts of a sweep at seed 42, a
median 180 of htilde(2,16)'s 53,595 corners (0.34%, at most 315) and 735
of htilde(3,8)'s 182,331 (0.40%, at most 1,218) are live per objective
call.  On htilde(2,16) ``exp`` over every corner took a median 239 us a
call, and selecting the live corners and taking it on them 24 us (2-core
x86-64 machine, numpy 2.4.6).
Each stage runs L-BFGS-B (Byrd, Lu, Nocedal and Zhu 1995) by driving the
reverse-communication routine ``setulb`` in ``minimize``: scipy 1.17.1's
``minimize(method="L-BFGS-B", jac=True)`` loop with the same settings,
memo, counts and messages, so every stage ends at the same point bit for
bit, without the wrapper's copies and checks on every evaluation.  Only
scipy's compiled ``_lbfgsb`` extension is loaded, by itself: importing
``scipy.optimize`` for it took 0.56 of the 0.63 s of ``import angres``.
Each restart keeps its own start's outer triangle.  For a triangulation
whose outer triangle is clockwise, internal faces that are all
counterclockwise prove that the drawing realizes the embedding, so a start
or a result counts only after the compiled ``Triangulation.violations``
(``validate_drawing``'s exact orientation check) passes, and is then
measured by ``Triangulation.resolution`` on the same corners.

The restarts are independent: each has its own start, its own
``rng([seed, r])`` and its own ``setulb`` state.  ``maximize_resolution``
splits them over W = min(cores, restarts) worker shares, restart r in share
r mod W; the calling process runs share 0 and a forked child each other
share, and the (drawing, trace) pairs are merged in restart order, so the
result is bit for bit the same for any W.  While restarts run, every
OpenBLAS the process has loaded is held at one thread: left at the core
count, its threads spin on every ``setulb`` call and, against the workers,
made a forked sweep several times slower than a serial one.  Every restart
runs in the calling process where ``os.fork`` is missing, scipy's OpenBLAS
cannot be held (no ``/proc/self/maps``, or another BLAS), or another
thread runs, since forking a threaded process can deadlock the child.

Best-found values are lower bounds on the true optimum; downstream checks
are phrased as trends and thresholds, never as equalities with an optimum.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.machinery
import importlib.util
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .families import FamilySpec, build_family
from .geometry import _worker_count
from .graphs import Embedding, LabeledGraph, StructureError, max_degree, parse_numbers
from .layout import _ReplayPlan, layout_nested
from .metrics import Triangulation


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B extension, loaded alone (see the module
    docstring) under its own name, so a later ``import scipy.optimize``
    reuses it."""
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    roots = (scipy_spec and scipy_spec.submodule_search_locations) or []
    folders = [os.path.join(root, "optimize") for root in roots]
    spec = importlib.machinery.PathFinder.find_spec(name, folders)
    if spec is None:
        raise ImportError("angres.optimize needs scipy>=1.15 for its compiled setulb")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


setulb = _load_lbfgsb().setulb
# scipy 1.17.1's names of setulb's task codes, from scipy.optimize._lbfgsb_py
status_messages = {
    0: "START", 1: "NEW_X", 2: "RESTART", 3: "FG", 4: "CONVERGENCE", 5: "STOP", 6: "WARNING",
    7: "ERROR", 8: "ABNORMAL",
}
task_messages = {
    0: "", 301: "", 302: "", 401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH", 501: "CPU EXCEEDING THE TIME LIMIT",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT", 505: "CALLBACK REQUESTED HALT",
    601: "ROUNDING ERRORS PREVENT PROGRESS", 602: "STP = STPMAX", 603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED", 701: "NO FEASIBLE SOLUTION", 702: "FACTR < 0", 703: "FTOL < 0",
    704: "GTOL < 0", 705: "XTOL < 0", 706: "STP < STPMIN", 707: "STP > STPMAX",
    708: "STPMIN < 0", 709: "STPMAX < STPMIN", 710: "INITIAL G >= 0", 711: "M <= 0",
    712: "N <= 0", 713: "INVALID NBD",
}

# The continuation schedule of every restart: the orientation penalty's
# weight grows PENALTY_GROWTH-fold per stage; stage s may spend
# 1/max(STAGES - s, 2) of the iterations left (at least 50); TOL is
# L-BFGS-B's ftol and the least drop in the objective that counts a stage
# as progress.
PENALTY_GROWTH = 10.0
STAGES = 5
TOL = 1e-8

# exp(x) is exactly +0.0 below -745.1332191019412, where its value is under
# half the least subnormal, 5e-324; the soft-min takes exp only on lanes
# not below EXP_FLOOR and holds +0.0 on the others.
EXP_FLOOR = -746.0


def _quiet():
    """The floating-point state the objective runs in: overflow, division
    by zero and invalid operations give inf or nan without a warning."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


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
    # Optional structural starting drawings tried (after the plain centroid
    # seed) before the jittered restarts; lets callers seed with a known
    # good constructive layout.
    extra_seeds: list[np.ndarray] = field(default_factory=list)

    def validate(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.penalty_init > 0.0):
            raise ValueError(f"penalty_init must be > 0, got {self.penalty_init}")


@dataclass
class RestartTrace:
    index: int
    final_objective: float
    resolution: float  # nan when the start was discarded
    start_resolution: float  # nan when the start was discarded
    # one (message, nit, nfev) per L-BFGS-B stage; empty when the start was
    # discarded or no vertex is free
    stages: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def valid(self) -> bool:  # every restart that ran reports a drawing
        return not math.isnan(self.resolution)

    @property
    def iterations(self) -> int:
        return sum(nit for _, nit, _ in self.stages)


@dataclass
class LbfgsbResult:
    """What ``minimize`` returns: scipy's ``OptimizeResult`` fields it uses."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    message: str


@dataclass
class OptimizeResult:
    coords: np.ndarray
    resolution: float
    traces: list[RestartTrace]


def _corner_angles(px: np.ndarray, py: np.ndarray, corners: np.ndarray):
    """Signed angle of every internal corner in the (3, 3F) index ``corners``,
    from the x and y coordinate arrays, with the intermediates of its
    gradient: (theta, e1x, e1y, e2x, e2y, g, h), b the corner's vertex,
    e1 = a - b, e2 = c - b."""
    ia, ib, ic = corners
    bx, by = px[ib], py[ib]
    e1x, e1y = px[ia] - bx, py[ia] - by
    e2x, e2y = px[ic] - bx, py[ic] - by
    g = e2x * e1y - e2y * e1x
    h = e1x * e2x + e1y * e2y
    return np.arctan2(g, h), e1x, e1y, e2x, e2y, g, h


def _lse(a: np.ndarray):
    """``scipy.special.logsumexp(a)`` of a non-empty 1-D float array, bit for
    bit: scipy 1.17.1's algorithm without its array-API dispatch.  The tied
    maxima are taken out of the sum, and a non-finite result falls back to
    ``log(sum(exp(a)))``.  It runs in the caller's floating-point state,
    ``_quiet``'s in the objective.

    ``exp`` of the shifted array is taken only on the lanes at or above
    ``EXP_FLOOR`` that are not tied maxima (a tie's shifted value is
    exactly 0), skipping numpy's slow path on the lanes that underflow.
    The others hold +0.0 in place, ``exp``'s exact value there and scipy's
    at its ties, set to -inf, so the pairwise sum adds the same array in
    the same order.  With a finite maximum no lane is nan.  A non-finite
    one (a nan, or an infinite lane) makes every shifted lane nan or -inf,
    and the result is then not finite here nor in scipy, though the two
    sums may differ, so both take the fallback."""
    a_max = a.max()
    tied = a == a_max
    m = float(np.count_nonzero(tied))
    shifted = a - a_max
    e = np.exp(shifted, out=np.zeros(a.size), where=(shifted >= EXP_FLOOR) ^ tied)
    s = e.sum()
    if s != 0:
        s = s / m
    out = np.log1p(s) + np.log(m) + a_max
    if not np.isfinite(out):
        out = np.log(np.exp(a).sum())
    return out


def _objective(y, mesh, pinned, sharp, weight, origin, scale):
    """Negative soft-min of corner angles plus orientation penalty; returns
    (value, gradient over the variables ``y``).  Callers run it in
    ``_quiet``'s floating-point state.

    ``pinned`` holds the (2, n) x and y rows of the drawing, whose free
    vertices the variables replace.  They are per-vertex rescaled offsets,
    x_v = origin_v + scale_v * y_v with ``origin`` in (2, free) rows, a
    diagonal preconditioner that evens out the wildly different local
    scales of nested-replay drawings.

    The softmax weights ``wgt = exp(z - lse)`` and the factors ``coef =
    wgt / denom`` are computed only on the corners ``on``, where ``z - lse``
    is not below ``EXP_FLOOR``, nan included (a nan angle makes every lane
    nan).  Every other weight is +0.0, ``exp``'s exact value there, and so
    is its ``coef``, as ``denom`` is positive.  On deep rows more than 99%
    of the corners underflow, and numpy's ``exp`` is about twenty times
    slower on such lanes than on others: 63 against 3.2 us on 3,000 lanes
    at -1000 and at -1.

    The gradient is one ``np.bincount`` per coordinate over the live terms
    only, each kind selected once: the corners in ``on``, a superset of
    those with nonzero ``coef``, and the faces whose penalty factor ``pc``
    is nonzero (or nan), each in index order.  Every term left out is
    ``coef`` or ``pc`` times a finite factor, so it is exactly +0.0 or
    -0.0.  A bincount sum starts at +0.0 and can never become -0.0, so
    adding a signed zero changes no bit, and the gradient equals the
    scatter over every term bit for bit.  Every corner is scattered,
    through the view ``corners.ravel()`` with ``coef`` zero-filled, when a
    quarter or more of the corners are live, where gathering them costs
    more than the scatter it saves, or when a coordinate is non-finite or
    beyond 1e100 in magnitude.  A factor may then overflow, and ``0 * inf``
    is nan, not zero (with every coordinate within 1e100 the factors stay
    below 4e301), so every face is kept too.  A face term is the penalty
    gradient at the face's corner 0, columns ``corners[:, 0::3]``; with no
    flipped face none is scattered."""
    free, corners = mesh.free, mesh.corners
    P = pinned.copy()
    P[0, free] = origin[0] + scale * y[0::2]
    P[1, free] = origin[1] + scale * y[1::2]
    px, py = P
    theta, e1x, e1y, e2x, e2y, g, h = _corner_angles(px, py, corners)

    z = -sharp * theta
    lse = _lse(z)
    value = lse / sharp  # minus the soft-min -lse / sharp

    # d(softmin)/d(theta_i) = wgt_i, the softmax weight exp(z_i - lse); the
    # weights sum to 1, and the objective is -softmin.  coef = wgt / denom
    # is taken on the corners whose weight can be nonzero, nan included;
    # denom = max(g*g + h*h, 1e-300), as coincident points give 0/0
    x = z - lse
    on = (~(x < EXP_FLOOR)).nonzero()[0]
    g_on, h_on = g[on], h[on]
    coef = np.exp(x[on]) / np.maximum(g_on * g_on + h_on * h_on, 1e-300)

    # orientation penalty: sum of relu(-area)^2 over internal faces; face
    # (t0, t1, t2) holds corners 3f, 3f+1 and 3f+2, at t0, t1 and t2, and
    # its penalty vertices are (t2, t0, t1).  Twice its area is the g of
    # corner 2, (t1, t2, t0), term for term, and the coordinate differences
    # of its gradient are the same subtractions as the corners' e1y and e2x:
    # y(t0) - y(t1), y(t1) - y(t2) and y(t2) - y(t0) are e1y at corners 1, 2
    # and 0; x(t1) - x(t0), x(t2) - x(t1) and x(t0) - x(t2) are e2x at
    # corners 0, 1 and 2
    area = 0.5 * g[2::3]
    neg = np.minimum(area, 0.0)
    value += weight * float(np.sum(neg * neg))
    pc = (2.0 * weight) * neg

    # the scatter index: the a, b and c columns of every corner, coef
    # zero-filled, or of the live ones, then those of the selected faces'
    # corner 0, their penalty vertices
    wide = not np.abs(P).max() <= 1e100
    faces = np.arange(pc.size) if wide else (pc != 0).nonzero()[0]
    pc, fy, fx = pc[faces], e1y.reshape(-1, 3)[faces], e2x.reshape(-1, 3)[faces]
    if wide or 4 * on.size >= x.size:
        index = corners.ravel()
        coef, live = np.zeros(x.size), coef
        coef[on] = live
    else:
        index = corners[:, on].ravel()
        e1x, e1y, e2x, e2y = (v[on] for v in (e1x, e1y, e2x, e2y))
        g, h = g_on, h_on
    if faces.size:
        index = np.concatenate([index, corners[:, 0::3][:, faces].ravel()])
    w = np.empty(index.size)

    # per coordinate, the scatter weights in index order: -dA, -dB = dA + dC
    # and -dC for the corners, then the penalty terms of the three face columns
    wa, wb, wc = w[: 3 * coef.size].reshape(3, -1)
    wf = w[3 * coef.size :].reshape(3, -1)
    out = np.empty(2 * free.size)
    for dA, dC, face_terms, packed in (
        ((-e2y) * h - g * e2x, e1y * h - g * e1x, fy.T[[1, 2, 0]], out[0::2]),
        (e2x * h - g * e2y, (-e1x) * h - g * e1y, fx.T, out[1::2]),
    ):
        dA *= coef
        dC *= coef
        np.negative(dA, out=wa)
        np.add(dA, dC, out=wb)
        np.negative(dC, out=wc)
        if faces.size:
            np.multiply(face_terms, 0.5, out=wf)
            wf *= pc
        np.multiply(np.bincount(index, weights=w, minlength=mesh.n)[free], scale, out=packed)
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
    (non outer-face) vertices, flattened as (x0, y0, x1, y1, ...).  It is
    the restarts' objective at their origin, the drawing itself, with scale
    1.
    """
    mesh = Triangulation(graph, emb)
    pinned = np.array(np.asarray(coords, dtype=float).T)
    y = np.zeros(2 * mesh.free.size)
    with _quiet():
        return _objective(y, mesh, pinned, sharpness, penalty_weight, pinned[:, mesh.free], 1.0)


def minimize(fun, x0, args, maxiter):
    """Minimize ``fun(x, *args)``, which returns the value and its gradient,
    from ``x0`` by L-BFGS-B without bounds: scipy 1.17.1's
    ``minimize(fun, x0, args, method="L-BFGS-B", jac=True, options={"maxiter":
    maxiter, "ftol": TOL, "gtol": 1e-14})`` bit for bit, with the loop of
    ``_minimize_lbfgsb`` around the reverse-communication routine ``setulb``
    run here.  Its other settings are scipy's defaults: 10 corrections, 15000
    evaluations and 20 line-search steps.

    Like scipy, it evaluates ``fun`` at ``x0`` first, then only where
    ``setulb`` asks for an ``x`` that differs from the last one evaluated;
    it counts an iteration at each new iterate and stops at ``maxiter`` of
    them, or once more than 15000 evaluations were made.  Unlike scipy it
    hands ``fun`` the live iterate, which ``fun`` must neither change nor
    keep, and copies nothing else per evaluation.  It returns the local
    ``LbfgsbResult``, as ``scipy.optimize`` is never imported (see the
    module docstring).  The result's ``fun`` is the last value evaluated:
    after an ``ABNORMAL`` exit, that of a rejected trial point, not of ``x``."""
    m, maxfun, maxls = 10, 15000, 20
    x = np.array(x0, dtype=np.float64).ravel()
    n = x.size
    fx, gx = fun(x, *args)
    last = x.copy()
    nfev, nit = 1, 0
    # setulb reads f and g only where it asked for them
    f, g = np.array(0.0), np.zeros(n)
    low, up, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = TOL / np.finfo(float).eps
    while True:
        setulb(m, x, low, up, nbd, f, g, factr, 1e-14, wa, iwa, task, lsave, isave, dsave,
               maxls, ln_task)
        if task[0] == 3:  # FG: the value and gradient at x
            if not np.array_equal(x, last):
                fx, gx = fun(x, *args)
                last[:] = x
                nfev += 1
            f, g = fx, gx
        elif task[0] == 1:  # NEW_X: an iteration ended
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT
            elif nfev > maxfun:
                task[:] = 5, 502  # STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT
        else:
            break
    message = status_messages[task[0]] + ": " + task_messages[task[1]]
    return LbfgsbResult(x=x, fun=f, nit=nit, nfev=nfev, message=message)


def _run_restart(start, mesh, config) -> tuple[np.ndarray, float, list[tuple[str, int, int]]]:
    """Sharpness/penalty continuation from one starting drawing, its outer
    triangle pinned.

    Variables are per-vertex rescaled offsets from the start (scale = the
    shortest incident edge in the starting drawing); stages keep running,
    doubling sharpness and growing the penalty, until the iteration budget
    is spent or the objective stops improving.  The stall test reads each
    stage's ``res.fun``, but after an ``ABNORMAL`` line-search exit that is
    the last rejected trial point, not the objective at ``res.x``; so the
    reported objective is evaluated once more at the returned variables,
    with the last stage's sharpness and weight."""
    free = mesh.free
    # every edge of a triangulation is a side (a, b) of an internal corner;
    # hypot and the minimum do not depend on the side's direction or order
    i, j = mesh.corners[:2]
    dist = np.hypot(start[i, 0] - start[j, 0], start[i, 1] - start[j, 1])
    near = np.full(mesh.n, np.inf)
    np.minimum.at(near, i, dist)
    np.minimum.at(near, j, dist)
    pinned = np.array(start.T)
    origin = pinned[:, free]
    scale = np.maximum(near[free], 1e-300)
    P = pinned.copy()
    y = np.zeros(2 * free.size)
    iters_left = config.max_iters
    weight = config.penalty_init
    value = math.inf
    stage = 0
    stalled = 0
    stages = []
    while iters_left > 0 and stalled < 2:
        span = max(abs(float(_corner_angles(P[0], P[1], mesh.corners)[0].min())), 1e-8)
        sharp = (4.0 * 2.0 ** min(stage, 12)) / span
        budget = max(iters_left // max(STAGES - stage, 2), 50)
        with _quiet():
            res = minimize(
                _objective, y, (mesh, pinned, sharp, weight, origin, scale), min(budget, iters_left)
            )
        y = res.x
        stages.append((str(res.message), int(res.nit), int(res.nfev)))
        final = (sharp, weight)
        improved = float(res.fun) < value - TOL
        value = float(res.fun)
        iters_left -= max(res.nit, 1)
        P[0, free] = origin[0] + scale * y[0::2]
        P[1, free] = origin[1] + scale * y[1::2]
        weight *= PENALTY_GROWTH
        stage += 1
        stalled = 0 if improved else stalled + 1
    with _quiet():
        value = float(_objective(y, mesh, pinned, *final, origin, scale)[0])
    return np.array(P.T), value, stages


def _restart(r, mesh, replay, base, seeds, config) -> tuple[np.ndarray | None, RestartTrace]:
    """Restart ``r``: its reported drawing (None when its start was
    discarded) and its trace."""
    if r == 0:
        start = base
    elif r - 1 < len(seeds):
        start = seeds[r - 1]
    else:
        # replay with random interior barycentric weights: a valid
        # drawing of the embedding, diverse across restarts
        start = replay.place(rng=np.random.default_rng([config.seed, r]))
    if mesh.violations(start):
        # invalid start (deep replays collapse below double precision);
        # nothing worth optimizing from
        return None, RestartTrace(r, math.inf, math.nan, math.nan)
    if mesh.free.size:
        drawing, value, stages = _run_restart(start, mesh, config)
    else:
        drawing, value, stages = start.copy(), 0.0, []  # only the outer triangle
    resolution = -math.inf if mesh.violations(drawing) else mesh.resolution(drawing)
    # a restart never reports worse than its (valid) starting drawing
    start_res = mesh.resolution(start)
    if start_res > resolution:
        drawing, resolution = start.copy(), start_res
    return drawing, RestartTrace(r, value, resolution, start_res, stages)


def _run_share(share, args):
    """``_restart`` of each restart in ``share``, in order, up to the first
    that raises: (its (drawing, trace) pairs, None or (index, exception))."""
    pairs = []
    for r in share:
        try:
            pairs.append(_restart(r, *args))
        except Exception as exc:
            return pairs, (r, exc)
    return pairs, None


def _fork_share(share, args):
    """Run ``share`` in a forked child; returns its pid and the read end of
    the pipe that carries its pickled ``_run_share`` result."""
    import pickle

    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's stack, whatever is raised
        status = 1
        try:
            os.close(read)
            pairs, failure = _run_share(share, args)
            if failure is not None:
                import traceback

                r, exc = failure
                if hasattr(exc, "add_note"):  # the child's traceback, shown with the parent's
                    exc.add_note("".join(traceback.format_exception(exc)).rstrip())
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # sent as a RuntimeError that names it
                    failure = r, RuntimeError(f"restart {r} raised {type(exc).__name__}: {exc}")
            with os.fdopen(write, "wb") as fh:
                pickle.dump((pairs, failure), fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _collect(pid, fh, share):
    """The ``_run_share`` result a forked child sent, once it has exited."""
    import pickle

    data = fh.read()
    fh.close()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"the worker of restarts {list(share)} exited with code {code}")
    return pickle.loads(data)


def _openblas_thread_controls() -> list:
    """(get, set, lp64) for every OpenBLAS mapped into this process: its
    thread-count functions, and whether it is an LP64 build, the kind
    scipy's ``_lbfgsb`` links.  Found through ``/proc/self/maps`` and opened
    with ``RTLD_NOLOAD``, so nothing is loaded; empty where either is
    missing."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {p[5].strip() for p in (line.split(maxsplit=5) for line in fh) if len(p) == 6}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except (OSError, AttributeError):  # gone, or no RTLD_NOLOAD on this platform
            continue
        # the scipy-openblas wheels' names (numpy's ILP64 one ends in 64_), then OpenBLAS's own
        for prefix, suffix in (("scipy_openblas", ""), ("scipy_openblas", "64_"),
                               ("openblas", ""), ("openblas", "64_")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put, suffix == ""))
                break
    return controls


def _run_restarts(restarts: int, args) -> list[tuple[np.ndarray | None, RestartTrace]]:
    """``_restart(r, *args)`` for r in 0..restarts-1, in restart order, over
    W = min(cores, restarts) worker shares: restart r goes to share r mod W.
    The calling process runs share 0 and a forked child each other share.
    If restarts raise, the one with the lowest index re-raises here, with
    its type and message.  Every OpenBLAS in the process is held at one
    thread while restarts run."""
    import signal
    import threading

    workers = min(_worker_count(), restarts)
    controls = _openblas_thread_controls()
    threads = [get() for get, _, _ in controls]
    children = []  # (pid, read end, share) of each child not yet reaped
    try:
        for _, put, _ in controls:
            put(1)
        held = any(lp64 for _, _, lp64 in controls)
        if not (held and hasattr(os, "fork") and threading.active_count() == 1):
            workers = 1
        shares = [range(k, restarts, workers) for k in range(workers)]
        for share in shares[1:]:
            children.append((*_fork_share(share, args), share))
        results = [_run_share(shares[0], args)]
        while children:
            results.append(_collect(*children[0]))
            del children[0]
    finally:
        for pid, fh, _ in children:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            fh.close()
        for (_, put, _), n in zip(controls, threads):
            put(n)
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return sorted((pair for pairs, _ in results for pair in pairs), key=lambda p: p[1].index)


def maximize_resolution(
    graph: LabeledGraph, emb: Embedding, config: OptimizeConfig | None = None
) -> OptimizeResult:
    """Best drawing over seeded restarts; deterministic given (graph, config).

    Restart 0 starts from the plain centroid-replay seed; any configured
    extra seeds follow; remaining restarts replay the build sequence with
    seeded random barycentric weights.  Every extra seed's shape is checked
    before any restart runs.  Each restart optimizes its own start, outer
    triangle included.  Restarts whose starting drawing is degenerate or
    invalid are recorded as failed without running; a restart that does run
    never reports worse than its starting drawing.  Only restarts whose
    reported drawing passes validate_drawing's check count; ties go to the
    lowest restart index.  The pair is compiled once into a
    ``Triangulation``, which validates every start and result and measures
    each valid one per corner (``Triangulation.resolution``, equal to
    ``angular_resolution``'s value bit for bit without its edge walk and
    sort); each trace records its start's resolution.

    The restarts run in W = min(cores, restarts) worker shares, restart r
    in share r mod W: share 0 in the calling process and each other in a
    forked child, which pickles its (drawing, trace) pairs back through a
    pipe.  They are merged in restart order, so the result is bit for bit
    the same for any W.  While they run, every OpenBLAS the process has
    loaded is held at one thread and restored after.  All run in the
    calling process where ``os.fork`` is missing, scipy's OpenBLAS could
    not be held, or another thread runs (see the module docstring).  An
    exception in a restart re-raises here with its type and message, that
    of the lowest restart index where several fail; no child outlives the
    call.
    """
    config = config or OptimizeConfig()
    config.validate()
    mesh = Triangulation(graph, emb)
    replay = _ReplayPlan(graph, emb)
    base = replay.place()
    seeds = [np.asarray(seed, dtype=float) for seed in config.extra_seeds]
    for k, seed in enumerate(seeds):
        if seed.shape != base.shape:
            raise ValueError(f"extra seed {k} has shape {seed.shape}, want {base.shape}")

    runs = _run_restarts(config.restarts, (mesh, replay, base, seeds, config))
    best, best_res = None, -1.0
    for drawing, trace in runs:
        if trace.resolution > best_res:  # nan, a discarded start, never is
            best, best_res = drawing, trace.resolution
    traces = [trace for _, trace in runs]
    if best is None:
        raise OptimizeFailure("no restart produced a valid drawing", traces)
    return OptimizeResult(best, best_res, traces)


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


CSV_COLUMNS = [f.name for f in fields(SweepRecord)]


def sweep(specs: list[FamilySpec], config: OptimizeConfig | None = None) -> list[SweepRecord]:
    """Build, optimize, and record each family spec; rows in input order.

    A per-row optimizer failure is recorded as a row with nan resolution and
    zero valid restarts; the sweep continues.  The constructive nested
    drawing of each family follows ``config.extra_seeds`` as one more extra
    seed, so it is restart ``1 + len(config.extra_seeds)``: with no more
    restarts than that it is neither built nor tried.
    """
    config = config or OptimizeConfig()
    config.validate()
    records = []
    for spec in specs:
        t0 = time.perf_counter()
        fam = build_family(spec)
        g, emb = fam.graph, fam.embedding
        nested = [layout_nested(fam)] if config.restarts > 1 + len(config.extra_seeds) else []
        row_cfg = replace(config, extra_seeds=list(config.extra_seeds) + nested)
        try:
            result = maximize_resolution(g, emb, row_cfg)
            best, valid = result.resolution, sum(t.valid for t in result.traces)
        except OptimizeFailure:
            best, valid = math.nan, 0
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


def sweep_csv_text(records: list[SweepRecord]) -> str:
    """The sweep CSV, one header line and one row per record, each line
    ending in CRLF (csv's default); write it with ``newline=""``."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_COLUMNS)
    for r in records:
        row = {name: getattr(r, name) for name in CSV_COLUMNS}  # csv writes None as ""
        row["best_resolution"] = repr(float(r.best_resolution))
        row["runtime_s"] = f"{r.runtime_s:.3f}"
        w.writerow(row.values())
    return buf.getvalue()


def write_sweep_csv(records: list[SweepRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(sweep_csv_text(records))


def _csv_value(lineno: int, text: str, kind: str):
    """One CSV field as the SweepRecord field type ``kind`` names."""
    if kind == "int | None" and not text:
        return None
    (value,) = parse_numbers(lineno, [text], {"str": str, "float": float}.get(kind, int))
    return value


def read_sweep_csv(path: str) -> list[SweepRecord]:
    """The records of a sweep CSV whose header names every column of
    ``CSV_COLUMNS``, in any order.  A missing column or a row that does not
    parse raises a one-line StructureError, starting ``line N:`` for a row."""
    out = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, [])
            missing = [name for name in CSV_COLUMNS if name not in header]
            if missing:
                raise StructureError(f"sweep CSV has no {missing[0]!r} column")
            at = [(f.name, header.index(f.name), f.type) for f in fields(SweepRecord)]
            for row in filter(None, rows):
                n = rows.line_num
                if len(row) != len(header):
                    raise StructureError(f"line {n}: {len(row)} fields, expected {len(header)}")
                out.append(SweepRecord(**{f: _csv_value(n, row[i], t) for f, i, t in at}))
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise StructureError(f"line {rows.line_num}: {exc}") from None
    return out


@dataclass
class ExponentFit:
    slope: float
    intercept: float
    r2: float


def fit_exponent(records: list[SweepRecord], family: str, c: int | None) -> ExponentFit:
    """Least-squares fit of log(best resolution) against log(d) over the
    records matching (family, c) whose resolution is not nan; there must be
    at least 3 of them, with at least 2 distinct d."""
    pts = [
        r
        for r in records
        if r.family == family and r.c == c and not math.isnan(r.best_resolution)
    ]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 records for {family} c={c}, got {len(pts)}")
    if len({r.d for r in pts}) < 2:
        raise ValueError(f"need >= 2 distinct d for {family} c={c}, got d={pts[0].d} only")
    if not all(0 < r.best_resolution < math.inf for r in pts):
        raise ValueError("all resolutions must be positive and finite for a log-log fit")
    x = np.log([r.d for r in pts])
    y = np.log([r.best_resolution for r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(float(slope), float(intercept), r2)
