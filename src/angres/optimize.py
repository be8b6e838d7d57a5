"""Search for maximum-angular-resolution drawings of a fixed embedding.

``maximize_resolution`` compiles its (graph, embedding) pair once into a
``metrics.Triangulation``: the oriented faces, one (3, 3F) corner index
over them, the free (non-outer) vertices, the one gather of corner sides
(``Triangulation.sides``) that the objective's angles, each restart's
scales and every measurement read, and the replay plan
(``Triangulation.replay``).  Each process that runs restarts builds that
plan at most once, when its first restart from a replay needs it: restart
0's centroid or a jittered start.  A restart from an extra seed needs none.
The calling process, whose share holds restart 0, builds its plan right
after forking the workers (see below), so their restarts start at once, and
a graph that is no 3-tree still raises from ``maximize_resolution`` at once.

Each restart minimizes minus a soft-min of the signed corner angles of all
internal faces (log-sum-exp; at each stage the sharpness is 4 * 2**stage,
capped at stage 12, over the smallest corner angle) plus an orientation
penalty ``weight * sum(min(area, 0)**2)`` whose weight starts at
``penalty_init`` and grows ``PENALTY_GROWTH``-fold every stage.
The soft-min's weights and their gradient factors are computed only on the
corners whose weight can be nonzero, those at or above ``EXP_FLOOR`` =
-746: below -745.1332191019412 ``exp`` is exactly +0.0, and numpy's
``exp`` takes a slow path on every lane that underflows.  The gradient is
one ``np.bincount`` scatter per coordinate over the live terms only: those
corners, whose columns one ``np.take`` per coordinate reads, and the faces
whose penalty factor is nonzero, at their corner-0 columns.  The penalty
pass runs only when some face's area is below zero or nan, or when every
corner and face is scattered, as a coordinate is non-finite or beyond
1e100 in magnitude.  This is bit for bit the computation over every term
(``_lse`` and ``_objective`` say why).
Each stage runs L-BFGS-B (Byrd, Lu, Nocedal and Zhu 1995) by driving the
reverse-communication routine ``setulb`` in ``minimize``: scipy 1.17.1's
``minimize(method="L-BFGS-B", jac=True)`` loop with the same settings,
memo, counts and messages, so every stage ends at the same point bit for
bit, without the wrapper's copies and checks on every evaluation.  Only
scipy's compiled ``_lbfgsb`` extension is loaded, by itself, as importing
``scipy.optimize`` for it would be most of ``import angres``.
Each restart keeps its own start's outer triangle.  For a triangulation
whose outer triangle is clockwise, internal faces that are all
counterclockwise prove that the drawing realizes the embedding, so a start
or a result counts only after the compiled ``Triangulation.valid``
(``validate_drawing``'s exact orientation verdict, without its list of
violations) passes, and is then measured by ``Triangulation.resolution`` on
the same corners.

Each restart owns one ``_Workspace``, allocated once from the mesh's
vertex, free-vertex and corner counts, handed to every objective call
through ``minimize``'s ``args`` and lent to ``Triangulation.resolution``
to measure the start and the result.  A call writes each full-size
temporary there with ``out=``, by the ufunc that would have allocated it,
so every value is bit for bit the same; per call only the gradient, the
bincount sums and the arrays of the live corners and flipped faces are
allocated.
Allocated per call, the full-size temporaries went back to the kernel
between calls, as glibc trims its heap, and were faulted in again.

The restarts are independent: each has its own start, its own
``rng([seed, r])`` and its own ``setulb`` state.  ``maximize_resolution``
splits them over W = min(cores, restarts) worker shares, restart r in share
r mod W; the calling process runs share 0 and a forked child each other
share, and the (drawing, trace) pairs are merged in restart order, so the
result is bit for bit the same for any W.  No exception crosses a pipe: the
lowest restart that raised, in any share, runs again in the calling
process and raises there.  While restarts run, the OpenBLAS that
``setulb``'s extension links is held at one thread, found through that
extension's own handle; other BLAS libraries are untouched.  Left at the
core count, its threads spin on every ``setulb`` call and, against the
workers, made a forked sweep several times slower than a serial one.
Forking is for Linux only: every restart runs in the calling process
elsewhere, where ``os.fork`` is missing, where ``setulb``'s OpenBLAS cannot
be held, or while another thread runs, since forking a threaded process
can deadlock the child.

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
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .families import FamilySpec, build_family
from .geometry import _worker_count
from .graphs import Embedding, LabeledGraph, StructureError, max_degree, parse_numbers
from .layout import check_fan_spec, layout_nested
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


_lbfgsb = _load_lbfgsb()
setulb = _lbfgsb.setulb
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


class WorkerFailure(RuntimeError):
    """A forked worker exited without sending its share's result."""


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
        if not (0.0 < self.penalty_init < math.inf):
            raise ValueError(f"penalty_init must be finite and > 0, got {self.penalty_init}")


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


class _Workspace:
    """The full-size temporaries of one restart's objective calls, allocated
    once and overwritten by each call (see the module docstring): the (2, n)
    rows of the drawing, a free-vertex row, the (3, 3F) x and y columns
    gathered at the corners, the corner angles, the soft-min's shifted
    lanes, ``exp`` values and two masks, and the (2, F) face rows."""

    def __init__(self, n: int, free: int, corners: int):
        self.P = np.empty((2, n))
        self.free_row = np.empty(free)
        self.x, self.y = np.empty((3, corners)), np.empty((3, corners))
        self.theta, self.shifted, self.exp = (np.empty(corners) for _ in range(3))
        self.tied, self.live = np.empty(corners, bool), np.empty(corners, bool)
        self.face = np.empty((2, corners // 3))

    @classmethod
    def of(cls, mesh: Triangulation) -> "_Workspace":
        return cls(mesh.n, mesh.free.size, mesh.corners.shape[1])


def _corner_angles(px: np.ndarray, py: np.ndarray, mesh: Triangulation, work: _Workspace):
    """Signed angle of every internal corner (a, b, c) of ``mesh``, from the
    x and y coordinate arrays, with the intermediates of its gradient:
    (theta, e1x, e1y, e2x, e2y, g, h), e1 = a - b, e2 = c - b.

    All seven are views of ``work``, valid until its next use.
    ``mesh.sides`` writes the rows (e1, b, e2) of ``work.x`` and ``work.y``;
    g and h overwrite the b rows, and theta goes to ``work.theta``, each by
    the ufunc of the allocating form, so every value is the same bit for
    bit."""
    (e1x, bx, e2x), (e1y, by, e2y) = mesh.sides(px, py, work.x, work.y)
    g = np.subtract(np.multiply(e2x, e1y, out=bx), np.multiply(e2y, e1x, out=by), out=bx)
    h = np.add(np.multiply(e1x, e2x, out=by), np.multiply(e1y, e2y, out=work.theta), out=by)
    return np.arctan2(g, h, out=work.theta), e1x, e1y, e2x, e2y, g, h


def _lse(a: np.ndarray, work: _Workspace):
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
    sums may differ, so both take the fallback.

    The shifted lanes, their ``exp`` values and both masks are written to
    ``work``'s corner rows, whose length must be ``a.size``; ``a`` may be
    ``work.theta``, which is only read.  The fallback, reached only on
    non-finite input, allocates."""
    a_max = a.max()
    tied = np.equal(a, a_max, out=work.tied)
    m = float(np.count_nonzero(tied))
    shifted = np.subtract(a, a_max, out=work.shifted)
    live = np.bitwise_xor(np.greater_equal(shifted, EXP_FLOOR, out=work.live), tied, out=work.live)
    e = work.exp
    e.fill(0.0)
    np.exp(shifted, out=e, where=live)
    s = e.sum()
    if s != 0:
        s = s / m
    out = np.log1p(s) + np.log(m) + a_max
    if not math.isfinite(out):
        out = np.log(np.exp(a).sum())
    return out


def _objective(y, mesh, pinned, sharp, weight, origin, scale, work):
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
    of the corners underflow, where numpy's ``exp`` is twenty times slower.

    The gradient is one ``np.bincount`` per coordinate over the live terms
    only, each kind selected once: the corners in ``on``, a superset of
    those with nonzero ``coef``, and the faces whose penalty factor ``pc``
    is nonzero (or nan), each in index order.  Every term left out is
    ``coef`` or ``pc`` times a finite factor, so it is exactly +0.0 or
    -0.0.  A bincount sum starts at +0.0 and can never become -0.0, so
    adding a signed zero changes no bit, and the gradient equals the
    scatter over every term bit for bit.  When a coordinate is non-finite
    or beyond 1e100 in magnitude, a factor may overflow, and ``0 * inf``
    is nan, not zero (with every coordinate within 1e100 the factors stay
    below 4e301), so ``on`` is then every corner, whose ``exp`` is +0.0
    wherever it underflows, and every face is kept too.  A face term is
    the penalty gradient at the face's corner 0, columns
    ``corners[:, 0::3]``.  With no area below zero, nan failing that test,
    every face's square and ``pc`` is a signed zero (nan if ``2 * weight``
    overflows), so unless ``wide`` the penalty pass is skipped, about nine
    NumPy calls, and the value gains ``weight * 0.0``, what their sum gave.
    The live corners' columns are two ``np.take``s of ``work.x`` and
    ``work.y``, left by ``_corner_angles`` as (e1x, g, e2x), (e1y, h, e2y).

    Every full-size temporary, per vertex, corner or face, is a view of
    ``work``, a ``_Workspace`` of this mesh's sizes owned by the caller
    (one per restart in ``_run_restart``), written with ``out=`` by the
    ufunc of the allocating form; the angles' row then holds ``z`` and
    ``z - lse`` in place.  A call reads nothing in ``work`` that it did not
    write, so calls on one workspace are independent.  It allocates only
    the arrays of the live corners and flipped faces (every corner and
    face when ``wide``), the bincount sums and the gradient it returns,
    which the caller may keep: ``minimize`` holds it across ``setulb``
    calls.  The module docstring says what that saves."""
    free, corners = mesh.free, mesh.corners
    P, row = work.P, work.free_row
    np.copyto(P, pinned)
    P[0, free] = np.add(origin[0], np.multiply(scale, y[0::2], out=row), out=row)
    P[1, free] = np.add(origin[1], np.multiply(scale, y[1::2], out=row), out=row)
    theta, e1x, e1y, e2x, e2y, g, h = _corner_angles(*P, mesh, work)

    z = np.multiply(-sharp, theta, out=theta)
    lse = _lse(z, work)
    value = lse / sharp  # minus the soft-min -lse / sharp

    # d(softmin)/d(theta_i) = wgt_i, the softmax weight exp(z_i - lse); the
    # weights sum to 1, and the objective is -softmin.  coef = wgt / denom
    # is taken on the corners whose weight can be nonzero, nan included;
    # denom = max(g*g + h*h, 1e-300), as coincident points give 0/0.  Every
    # corner and face is kept when a coordinate is non-finite or beyond 1e100
    x = np.subtract(z, lse, out=z)
    wide = not (P.max() <= 1e100 and P.min() >= -1e100)  # a nan fails both
    below = np.less(x, EXP_FLOOR, out=work.live)
    on = np.arange(x.size) if wide else np.invert(below, out=below).nonzero()[0]
    # the scatter index: the a, b and c columns of the live corners, then
    # those of the selected faces' corner 0, their penalty vertices
    index = np.take(corners, on, axis=1).ravel()

    # orientation penalty: sum of relu(-area)^2 over internal faces; face
    # (t0, t1, t2) holds corners 3f, 3f+1 and 3f+2, at t0, t1 and t2, and
    # its penalty vertices are (t2, t0, t1).  Twice its area is the g of
    # corner 2, (t1, t2, t0), term for term, and the coordinate differences
    # of its gradient are the same subtractions as the corners' e1y and e2x:
    # y(t0) - y(t1), y(t1) - y(t2) and y(t2) - y(t0) are e1y at corners 1, 2
    # and 0; x(t1) - x(t0), x(t2) - x(t1) and x(t0) - x(t2) are e2x at
    # corners 0, 1 and 2.  A float's nonzero() is its != 0 test, true on nan
    fy = fx = None  # the selected faces' columns of the x and y gradient, if any
    if wide or not (math.isfinite(2.0 * weight) and g[2::3].min() >= 0.0):
        area, square = work.face
        neg = np.minimum(np.multiply(0.5, g[2::3], out=area), 0.0, out=area)
        value += weight * float(np.sum(np.multiply(neg, neg, out=square)))
        pc = np.multiply(2.0 * weight, neg, out=square)
        faces = np.arange(pc.size) if wide else pc.nonzero()[0]
        if faces.size:
            fy, fx = e1y.reshape(-1, 3)[faces].T[[1, 2, 0]], e2x.reshape(-1, 3)[faces].T
            pc = pc[faces]
            index = np.concatenate([index, corners[:, 0::3][:, faces].ravel()])
    else:
        value += weight * 0.0  # the sum of squares is +0.0
    (e1x, g, e2x), (e1y, h, e2y) = np.take(work.x, on, axis=1), np.take(work.y, on, axis=1)
    coef = np.exp(x[on]) / np.maximum(g * g + h * h, 1e-300)

    # per coordinate, the scatter weights in index order: -dA, -dB = dA + dC
    # and -dC for the corners, then the penalty terms of the three face columns
    w = np.empty(index.size)
    wa, wb, wc = w[: 3 * on.size].reshape(3, -1)
    wf = w[3 * on.size :].reshape(3, -1)
    out = np.empty(2 * free.size)
    for dA, dC, face_terms, packed in (
        ((-e2y) * h - g * e2x, e1y * h - g * e1x, fy, out[0::2]),
        (e2x * h - g * e2y, (-e1x) * h - g * e1y, fx, out[1::2]),
    ):
        dA *= coef
        dC *= coef
        np.negative(dA, out=wa)
        np.add(dA, dC, out=wb)
        np.negative(dC, out=wc)
        if face_terms is not None:
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
    origin, work = pinned[:, mesh.free], _Workspace.of(mesh)
    with _quiet():
        return _objective(y, mesh, pinned, sharpness, penalty_weight, origin, 1.0, work)


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
            if not (x == last).all():  # np.array_equal's test, without its checks
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


def _run_restart(start, mesh, config, work) -> tuple[np.ndarray, float, list[tuple[str, int, int]]]:
    """Sharpness/penalty continuation from one starting drawing, its outer
    triangle pinned.

    Variables are per-vertex rescaled offsets from the start (scale = the
    shortest incident edge in the starting drawing); stages keep running,
    doubling sharpness and growing the penalty, until the iteration budget
    is spent or the objective stops improving.  The stall test reads each
    stage's ``res.fun``, but after an ``ABNORMAL`` line-search exit that is
    the last rejected trial point, not the objective at ``res.x``; so the
    reported objective is evaluated once more at the returned variables,
    with the last stage's sharpness and weight.  ``work`` is the restart's
    ``_Workspace``."""
    free = mesh.free
    pinned = np.array(start.T)
    # every edge of a triangulation is a side (a, b) of an internal corner;
    # hypot and the minimum do not depend on the side's direction or order
    (e1x, _, _), (e1y, _, _) = mesh.sides(*pinned, work.x, work.y)
    dist = np.hypot(e1x, e1y)
    near = np.full(mesh.n, np.inf)
    i, j = mesh.corners[:2]
    np.minimum.at(near, i, dist)
    np.minimum.at(near, j, dist)
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
        span = max(abs(float(_corner_angles(*P, mesh, work)[0].min())), 1e-8)
        sharp = (4.0 * 2.0 ** min(stage, 12)) / span
        budget = max(iters_left // max(STAGES - stage, 2), 50)
        with _quiet():
            args = (mesh, pinned, sharp, weight, origin, scale, work)
            res = minimize(_objective, y, args, min(budget, iters_left))
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
        value = float(_objective(y, mesh, pinned, *final, origin, scale, work)[0])
    return np.array(P.T), value, stages


def _restart(r, mesh, seeds, config) -> tuple[np.ndarray | None, RestartTrace]:
    """Restart ``r``: its reported drawing (None when its start was
    discarded) and its trace."""
    if r == 0:
        start = mesh.replay.place()
    elif r - 1 < len(seeds):
        start = seeds[r - 1]
    else:
        # replay with random interior barycentric weights: a valid
        # drawing of the embedding, diverse across restarts
        start = mesh.replay.place(rng=np.random.default_rng([config.seed, r]))
    if not mesh.valid(start):
        # invalid start (deep replays collapse below double precision);
        # nothing worth optimizing from
        return None, RestartTrace(r, math.inf, math.nan, math.nan)
    work = _Workspace.of(mesh)
    if mesh.free.size:
        drawing, value, stages = _run_restart(start, mesh, config, work)
    else:
        drawing, value, stages = start.copy(), 0.0, []  # only the outer triangle
    resolution = mesh.resolution(drawing, work.x, work.y) if mesh.valid(drawing) else -math.inf
    # a restart never reports worse than its (valid) starting drawing
    start_res = mesh.resolution(start, work.x, work.y)
    if start_res > resolution:
        drawing, resolution = start.copy(), start_res
    return drawing, RestartTrace(r, value, resolution, start_res, stages)


def _run_share(share, args):
    """``_restart`` of each restart in ``share``, in order, up to the first
    that raises: (the (drawing, trace) pairs, None or that restart's index).
    The exception itself is dropped (see ``_run_restarts``)."""
    pairs = []
    for r in share:
        try:
            pairs.append(_restart(r, *args))
        except Exception:
            return pairs, r
    return pairs, None


def _fork_share(share, args):
    """Run ``share`` in a forked child; returns its pid and the read end of
    the pipe that carries its pickled ``_run_share`` result."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's stack, whatever is raised
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as fh:
                pickle.dump(_run_share(share, args), fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _collect(pid, fh, share):
    """The ``_run_share`` result a forked child sent, once it has exited;
    WorkerFailure, naming its share, when it exited with another code
    than 0."""
    data = fh.read()
    fh.close()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise WorkerFailure(f"the worker of restarts {list(share)} exited with code {code}")
    return pickle.loads(data)


def _blas_thread_control():
    """(get, set) of the thread count of the OpenBLAS that ``setulb``'s
    extension links, or None where it is not found.  ``dlsym`` on the
    extension's own handle, opened with ``RTLD_NOLOAD``, searches its
    dependencies, so nothing is loaded and no other BLAS is touched."""
    import ctypes

    try:
        lib = ctypes.CDLL(_lbfgsb.__file__, mode=os.RTLD_NOLOAD)
    except (OSError, AttributeError):  # not loaded from a file, or no RTLD_NOLOAD here
        return None
    for prefix in ("scipy_openblas", "openblas"):  # the scipy-openblas wheels' names, then OpenBLAS's
        get = getattr(lib, f"{prefix}_get_num_threads", None)
        put = getattr(lib, f"{prefix}_set_num_threads", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _run_restarts(mesh, seeds, config) -> list[tuple[np.ndarray | None, RestartTrace]]:
    """``_restart(r, mesh, seeds, config)`` for r in 0..restarts-1, in
    restart order, over W = min(cores, restarts) worker shares: restart r
    goes to share r mod W.  The calling process runs share 0 and a forked
    child each other share, on Linux only; ``setulb``'s OpenBLAS is held at
    one thread meanwhile.  The calling process reads ``mesh.replay`` once
    the children are forked, outside any share, so that a graph that is no
    3-tree raises here at once.
    A pipe carries only a share's pairs and its first failing restart.  As
    a restart is a pure function of its index and arguments, the lowest
    failing one then runs again here, children reaped and threads restored,
    and raises its own exception; if not, a RuntimeError names it."""
    args = (mesh, seeds, config)
    workers = min(_worker_count(), config.restarts)
    control = _blas_thread_control()
    threads = control[0]() if control else None
    children = []  # (pid, read end, share) of each child not yet reaped
    try:
        if control:
            control[1](1)
        forks = sys.platform == "linux" and hasattr(os, "fork") and threading.active_count() == 1
        if not (control and forks):
            workers = 1
        shares = [range(k, config.restarts, workers) for k in range(workers)]
        for share in shares[1:]:
            children.append((*_fork_share(share, args), share))
        mesh.replay  # the replay plan of restart 0, always in share 0
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
        if control:
            control[1](threads)
    failed = [r for _, r in results if r is not None]
    if failed:
        _restart(min(failed), *args)
        raise RuntimeError(f"restart {min(failed)} raised in its worker but not when run again")
    return sorted((pair for pairs, _ in results for pair in pairs), key=lambda p: p[1].index)


def maximize_resolution(
    graph: LabeledGraph, emb: Embedding, config: OptimizeConfig | None = None
) -> OptimizeResult:
    """Best drawing over seeded restarts; deterministic given (graph, config).

    Restart 0 starts from the plain centroid-replay seed; any configured
    extra seeds follow; remaining restarts replay the build sequence with
    seeded random barycentric weights.  Every extra seed's shape is checked
    before any restart runs.  Only the replays need the mesh's
    ``Triangulation.replay`` plan: each process that runs restarts builds it
    at most once, on first need, and the calling process right after forking
    its workers, so a graph that is no 3-tree raises its
    NotPlanar3TreeError at once.
    Each restart optimizes its own start, outer triangle included.
    Restarts whose starting drawing is degenerate or invalid are recorded
    as failed without running; a restart that does run never reports worse
    than its starting drawing.  Only restarts whose reported drawing passes
    validate_drawing's check count; ties go to the lowest restart index.
    The pair is compiled once into a ``Triangulation``, whose ``valid``
    gives that check's verdict on every start and result, and which
    measures each valid one per corner (``Triangulation.resolution``, equal
    to ``angular_resolution``'s value bit for bit without its edge walk and
    sort); each trace records its start's resolution.

    The restarts run in W = min(cores, restarts) worker shares, restart r
    in share r mod W: share 0 in the calling process and each other in a
    forked child, which pickles its (drawing, trace) pairs back through a
    pipe.  They are merged in restart order, so the result is bit for bit
    the same for any W.  While they run, ``setulb``'s own OpenBLAS is held
    at one thread and restored after; other BLAS libraries are untouched.
    All run in the calling process off Linux, where ``os.fork`` is missing,
    where ``setulb``'s OpenBLAS cannot be held, or while another thread
    runs (see the module docstring).  Where restarts raise, the lowest
    failing one runs again in the calling process and raises its own
    exception; no child outlives the call.
    """
    config = config or OptimizeConfig()
    config.validate()
    mesh = Triangulation(graph, emb)
    seeds = [np.asarray(seed, dtype=float) for seed in config.extra_seeds]
    for k, seed in enumerate(seeds):
        if seed.shape != (graph.n, 2):
            raise ValueError(f"extra seed {k} has shape {seed.shape}, want {(graph.n, 2)}")
    runs = _run_restarts(mesh, seeds, config)
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
    restarts than that it is neither built nor tried.  Where it is, every
    row whose nested drawing ``layout_nested`` would refuse is refused with
    its ParameterError before any row is built.
    """
    config = config or OptimizeConfig()
    config.validate()
    nests = config.restarts > 1 + len(config.extra_seeds)
    if nests:
        for spec in specs:
            check_fan_spec(spec)
    records = []
    for spec in specs:
        t0 = time.perf_counter()
        fam = build_family(spec)
        g, emb = fam.graph, fam.embedding
        nested = [layout_nested(fam)] if nests else []
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
