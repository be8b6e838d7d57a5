"""Search for maximum-angular-resolution drawings of a fixed embedding.

``maximize_resolution`` compiles its (graph, embedding) pair once into a
``metrics.Triangulation``: the oriented faces, one (3, 3F) corner index
over them, by which the objective gathers the corners' sides (``_sides``),
the free (non-outer) vertices, the half-edge rows that the scales and
measurements read (``row_blocks``) and the replay plan
(``Triangulation.replay``).  Each process that runs restarts builds that
plan at most once, when its first restart from a replay needs it: restart
0's centroid or a jittered start.  A restart from an extra seed needs
none.  The calling process, whose share holds restart 0, builds its plan
right after forking the workers (see below), so their restarts start at
once, and a graph that is no 3-tree still raises at once.

Each restart minimizes minus a soft-min of the signed corner angles of all
internal faces (log-sum-exp; at each stage the sharpness is 4 * 2**stage,
capped at stage 12, over the smallest corner angle) plus an orientation
penalty ``weight * sum(min(area, 0)**2)`` whose weight starts at
``penalty_init`` and grows ``PENALTY_GROWTH``-fold every stage.  Stages
stop once the iteration budget is spent or two in a row made no progress;
a stage that took no step makes none.
The soft-min, one ``_lse`` body and one ``_softmin`` tail on every path,
takes ``exp`` only on the corners whose weight can be nonzero, those at or
above ``EXP_FLOOR`` = -746: below -745.1332191019412 ``exp`` is exactly
+0.0, and numpy's ``exp`` takes a slow path on every lane that underflows.
The gradient is one ``np.bincount`` scatter per coordinate over the live
terms only, those corners and the faces whose penalty factor is nonzero,
and the penalty pass runs only when some face's area is below zero or nan
or a coordinate is non-finite or beyond 1e100 in magnitude.  Both are bit
for bit the computation over every term; ``_lse`` and ``_objective`` say
why.
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
violations) passes, and is then measured by ``Triangulation.resolution``
from the embedding's rotation.

Each restart owns one ``_Workspace``, built once from its frame (the mesh,
a copy of its start drawing and the per-vertex scales) and handed to every
objective call through ``minimize``'s ``args``, and one ``setulb``
workspace ``wa``, which all its stages share: ``setulb`` writes each entry
before reading it, so ``wa`` is never cleared (12.2 MB on htilde(3,8),
faulted in page by page when each stage took a fresh one).  The objective's
temporaries are allocated in the workspace once, from the mesh's sizes.  A
call writes each one with ``out=``, by the ufunc that would have allocated
it, so every value is bit for bit the same; per call only the gradient,
the bincount sums, the soft-min's lanes and the arrays of the live corners
and flipped faces are allocated.  Allocated per call, the full-size
temporaries went back to the kernel between calls, as glibc trims its
heap, and were faulted in again.

On a mesh of at least ``KEEP_FLOOR`` = 2**14 corners the workspace also
keeps the geometry of the last drawing a call computed, keyed by the bits
of the variables: the drawing, each corner's angle and each face's doubled
area.  L-BFGS-B leaves every coordinate outside its gradient history's
support unchanged to the bit, so a deep call computes again only the faces
at a vertex whose variables changed a bit (``_angles_at``) and takes its
soft-min over a pool of candidate corners, which those faces keep up to
date (``_kept_softmin``).  Those faces are the rows of the mesh's one
face array that hold a moved vertex, found by a vertex mask; the mesh keeps
no per-vertex face index.  The trials of one line search move the same
vertices, so the plan of their faces (``_moved_faces``) is built once and
taken again while the moved set repeats.  A cold restart takes one full
pass, at its start drawing, kept for its first variables; moved vertices
whose faces are more than half of all or a wide or nan coordinate take the
full pass and the dense code, a soft-min that is not finite the dense code,
and every call on a smaller mesh both: on sweep-shallow's rows, at most
3,051 corners, finding the moved vertices cost more than it saved.  On
these meshes whole faces are computed one way, face by face
(``_face_sides``), the moved faces and the full angle pass alike, and the
one-shot passes run in cache-sized blocks, so that their temporaries come
back from the heap instead of being faulted in afresh: the full angle pass
``metrics.FACE_BLOCK`` faces at a time, the scales by blocks of rows, and
the checks and measurements of ``Triangulation`` likewise; the dense code
computes its live corners' sides again from the drawing (``_sides_at``).

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
import numbers
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import metrics
from .families import FamilySpec, build_family
from .geometry import _worker_count
from .graphs import Embedding, LabeledGraph, StructureError, max_degree, parse_numbers
from .layout import check_fan_spec, layout_nested
from .metrics import Triangulation, _drawing_array


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
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            # range() and numpy's rng take no float, and a bool is no count
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.penalty_init, bool) or not isinstance(self.penalty_init, numbers.Real):
            raise ValueError(f"penalty_init must be a real number, got {self.penalty_init!r}")
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

    @property
    def winner(self) -> int:
        """The restart whose drawing is reported: the lowest index whose
        resolution equals the reported one, as ``maximize_resolution``
        breaks ties."""
        return next(t.index for t in self.traces if t.resolution == self.resolution)


# Meshes with fewer corners than this take the full angle pass on every
# call and keep no geometry between calls.  On sweep-shallow's rows, at most
# 3,051 corners, finding the moved vertices cost more than it saved: their
# nine restarts, run one after another, took 2.23-2.25 s with no floor
# against 2.04-2.10 s with it (median of 5, three alternating runs).
KEEP_FLOOR = 2**14


@dataclass
class _Plan:
    """What a call that moves the free vertices ``free[k]`` computes again
    (``_moved_faces``): the vertices ``v``, their origins ``ox``, ``oy`` and
    scales, their faces ``f``, the rows of ``mesh.faces`` that hold one of
    them, each once, ascending, those faces' corners ``cols``
    (``_face_corners``) and the faces' vertices ``b``, face by face, which
    ``_face_sides`` reads."""

    k: np.ndarray
    v: np.ndarray
    ox: np.ndarray
    oy: np.ndarray
    scale: np.ndarray
    f: np.ndarray
    cols: np.ndarray
    b: np.ndarray


class _Workspace:
    """One restart's frame and the temporaries of its objective calls,
    allocated once and overwritten by each call (see the module docstring).
    The frame is the mesh and copies, taken here, of the (2, n) x and y rows
    ``pinned`` of the drawing whose free vertices the variables replace,
    their free columns ``origin`` and one ``scale`` per free vertex.  The
    temporaries are the (2, n) rows of the drawing ``P``, a free-vertex
    row, the soft-min's ``exp`` values, all +0.0 between calls (``_lse``),
    and the (2, F) face rows.  Below ``KEEP_FLOOR`` they also hold the full
    angle pass's (3, 3F) x and y sides (``_sides``), which the dense code
    reads, and a corner row ``theta``: the soft-min's lanes and the corner
    angles ``angle``, which z overwrites; the faces' doubled areas ``area``
    are a view of corner 2's g row of x.

    On a mesh of at least ``KEEP_FLOOR`` corners the full pass runs face by
    face (``_corner_angles``), so the workspace holds no x, y or theta, and
    it keeps the geometry of the last drawing ``_angles_at`` computed: the
    drawing ``P``, each corner's ``angle`` and each face's doubled area
    ``area``, the g of its corner 2.  It is keyed by ``held``, the bits of
    its variables ``y`` as uint64, so a flip between +0.0 and -0.0 or a nan
    of other bits counts as a move.  ``kept`` is False while nothing is
    kept: on a new workspace, below the floor, and after ``_corner_angles``
    computes another drawing.  ``plan`` is the ``_Plan`` of the last moved
    set, or None, which the next call that moves the same free vertices
    reuses.

    The candidate soft-min (``_kept_softmin``) reads ``pool``, ascending,
    the corners whose angle is at most ``bound``, which the mask
    ``candidate`` marks, built for the sharpness ``pool_sharp``, with
    ``z_bound`` = fl(-pool_sharp * bound); ``pool_sharp`` is None while the
    pool is stale, after a full pass."""

    def __init__(self, mesh: Triangulation, pinned, scale):
        n, free, corners = mesh.n, mesh.free.size, mesh.corners.shape[1]
        self.mesh = mesh
        self.pinned = np.array(pinned, dtype=float)
        self.origin = self.pinned[:, mesh.free]
        self.scale = np.full(free, scale, dtype=float)
        self.P = np.empty((2, n))
        self.free_row = np.empty(free)
        self.exp, self.face = np.zeros(corners), np.empty((2, corners // 3))
        self.keeps = corners >= KEEP_FLOOR
        self.kept = False
        self.pool_sharp = None
        if self.keeps:
            self.angle, self.area = np.empty(corners), np.empty(corners // 3)
            self.held, self.moved = np.empty(2 * free, np.uint64), np.empty(2 * free, bool)
            self.plan = None
            self.candidate = np.empty(corners, bool)
        else:
            self.x, self.y = np.empty((3, corners)), np.empty((3, corners))
            self.theta = self.angle = np.empty(corners)
            self.area = self.x[1, 2::3]


def _corner_angles(px: np.ndarray, py: np.ndarray, work: _Workspace):
    """``work.angle`` holding the signed angle of every internal corner
    (a, b, c) of ``work.mesh`` in the drawing of the x and y coordinate
    arrays ``px`` and ``py``, and ``work.area`` the faces' doubled areas,
    corner 2's g.  Below ``KEEP_FLOOR`` ``work.x`` and ``work.y`` are left
    holding the rows (e1x, g, e2x) and (e1y, h, e2y) of every corner
    (``_sides``, ``_geometry``), which the dense code reads; above it the
    pass computes ``metrics.FACE_BLOCK`` faces at a time face by face
    (``_faces_at``), by the same subtractions and ufuncs, so every value is
    the same bit for bit.  This is the full pass: it drops what the
    workspace kept and its pool."""
    work.kept = False
    work.pool_sharp = None
    if not work.keeps:
        sides = _sides(px, py, work.x, work.y, work.mesh.corners)
        (_, g, _), (_, h, _) = _geometry(*sides, work.theta)
        return np.arctan2(g, h, out=work.angle)
    faces, size = work.mesh.faces, metrics.FACE_BLOCK
    for lo in range(0, len(faces), size):
        block = faces[lo : lo + size]
        hi = lo + len(block)
        _faces_at(block.ravel(), (px, py), slice(3 * lo, 3 * hi), slice(lo, hi), work)
    return work.angle


def _sides(px, py, x, y, index):
    """Write the sides of the corners (a, b, c) whose a, b and c columns are
    the rows of the (3, k) ``index``, from the x and y coordinate arrays
    ``px`` and ``py``, into the (3, k) float arrays ``x`` and ``y``, and
    return their rows (e1, b, e2), e1 = a - b and e2 = c - b, as views:
    ((e1x, bx, e2x), (e1y, by, e2y)).  Each coordinate's a, b and c columns
    are gathered by one ``np.take`` (``mode="wrap"``, a no-op on a valid
    index, writes ``out`` directly where ``"raise"`` buffers it), and e1 and
    e2 overwrite the a and c rows, so every value is the subtraction of the
    gathered points."""
    rows = []
    for p, out in ((px, x), (py, y)):
        np.take(p, index, out=out, mode="wrap")
        a, b, c = out
        rows.append((np.subtract(a, b, out=a), b, np.subtract(c, b, out=c)))
    return rows


def _geometry(x, y, scratch):
    """From the side rows ``x`` = (e1x, bx, e2x) and ``y`` = (e1y, by, e2y)
    of some corners, e1 = a - b and e2 = c - b, write g = e2 x e1 over bx and
    h = e1 . e2 over by, each by the ufunc of the allocating form, so every
    value is the same bit for bit; the corners' signed angles are
    ``arctan2(g, h)``.  ``scratch`` is a buffer of their length.  Returns
    the rows ``x`` and ``y``."""
    (e1x, bx, e2x), (e1y, by, e2y) = x, y
    np.subtract(np.multiply(e2x, e1y, out=bx), np.multiply(e2y, e1x, out=by), out=bx)
    np.add(np.multiply(e1x, e2x, out=by), np.multiply(e1y, e2y, out=scratch), out=by)
    return x, y


def _wide(P) -> bool:
    """Whether a coordinate of the drawing ``P`` is beyond 1e100 in magnitude
    or nan (a nan fails both tests)."""
    return not (P.max() <= 1e100 and P.min() >= -1e100)


def _place(y, work) -> None:
    """Write the drawing at the variables ``y`` to ``work.P`` (``_objective``
    says how they place the free vertices)."""
    P, free = work.P, work.mesh.free
    np.copyto(P, work.pinned)
    row, origin, scale = work.free_row, work.origin, work.scale
    P[0, free] = np.add(origin[0], np.multiply(scale, y[0::2], out=row), out=row)
    P[1, free] = np.add(origin[1], np.multiply(scale, y[1::2], out=row), out=row)


def _moved_faces(k, work) -> _Plan | None:
    """The ``_Plan`` of a call that moves the free vertices ``free[k]``, or
    None when their faces, each counted once per moved vertex, are more than
    half the faces: on htilde(2,16) and (3,8) the faces of random vertices
    took as long as the full pass at about 37% of the faces, and 1.5-1.8
    times as long at 56%.  Every face is a triangle, so a free vertex lies
    on one internal face per entry of its rotation row, and that count is
    its row's length.  The faces are the rows of ``mesh.faces`` that hold a
    moved vertex, found by a vertex mask over its three columns, views that
    copy nothing: each face once, ascending."""
    mesh = work.mesh
    v = mesh.free[k]
    offset = mesh.emb.offset
    if 2 * int((offset[v + 1] - offset[v]).sum()) > len(mesh.faces):
        return None
    mark = np.zeros(mesh.n, bool)
    mark[v] = True
    t = mesh.faces
    f = np.flatnonzero(mark[t[:, 0]] | mark[t[:, 1]] | mark[t[:, 2]])
    (ox, oy), scale = work.origin[:, k], work.scale[k]
    return _Plan(k, v, ox, oy, scale, f, _face_corners(f), t[f].ravel())


def _angles_at(y, work) -> bool:
    """Make ``work.angle`` hold the corner angles of the drawing at the
    variables ``y``, with ``work.P`` that drawing; returns whether it is wide
    (``_wide``).  A full pass leaves the x and y rows as ``_corner_angles``
    does.

    Where ``work`` keeps the geometry of a drawing (see ``_Workspace``),
    only the faces at a free vertex whose variables changed a bit are
    computed again, and at an unchanged ``y`` nothing is; each of their
    corners takes the subtractions, products and ``np.arctan2`` of the full
    pass, so every value is the same bit for bit.  The trials of one
    L-BFGS-B line search move the same vertices, so the ``_Plan`` of the
    last moved set is kept and taken again when the next call moves exactly
    the same free vertices.  The full pass runs instead when the drawing is
    wide, so that the dense code reads every side, and when the moved
    vertices' faces are too many (``_moved_faces``)."""
    P = work.P
    if work.kept:  # never below the floor
        bits = y.view(np.uint64)
        moved = np.not_equal(bits, work.held, out=work.moved)
        k = np.flatnonzero(np.logical_or(moved[0::2], moved[1::2]))  # either variable of a free vertex
        if not k.size:
            if not _wide(P):
                return False
        else:
            plan = work.plan
            if plan is None or not np.array_equal(k, plan.k):
                plan = work.plan = _moved_faces(k, work)
            if plan is not None:
                (px, py), kx = P, 2 * k
                px[plan.v] = plan.ox + plan.scale * y[kx]
                py[plan.v] = plan.oy + plan.scale * y[kx + 1]
                if not _wide(P):
                    _move(plan, work)
                    np.copyto(work.held, bits)
                    return False
    _place(y, work)
    _corner_angles(*P, work)
    if work.keeps:
        work.kept = True
        np.copyto(work.held, y.view(np.uint64))
    return _wide(P)


def _start_angles(work) -> np.ndarray:
    """Stage 0's corner angles, at the start drawing ``work.pinned`` itself,
    whose -0.0 coordinates ``origin + scale * 0.0`` would turn into +0.0.
    Above ``KEEP_FLOOR``, when the variables y = 0 place every coordinate
    bit for bit as it is, the geometry is kept for them, so the stage's
    first call computes nothing again and a cold restart takes one full
    pass."""
    angle = _corner_angles(*work.pinned, work)
    if work.keeps:
        y = np.zeros(2 * work.mesh.free.size)
        _place(y, work)
        if np.array_equal(work.P.view(np.uint64), work.pinned.view(np.uint64)):
            work.kept = True
            np.copyto(work.held, y.view(np.uint64))
    return angle


def _face_corners(f):
    """The corners 3f, 3f + 1 and 3f + 2 of the faces ``f``, face by face."""
    cols = np.empty((f.size, 3), np.int64)
    np.multiply(f, 3, out=cols[:, 0])
    np.add(cols[:, 0], 1, out=cols[:, 1])
    np.add(cols[:, 0], 2, out=cols[:, 2])
    return cols.ravel()


def _sides_at(index, work):
    """The sides in ``work.P`` of the corners whose a, b and c columns are
    the rows of the (3, k) ``index``, with g and h in their b rows
    (``_geometry``): the full pass's values bit for bit."""
    n = index.shape[1]
    return _geometry(*_sides(*work.P, np.empty((3, n)), np.empty((3, n)), index), np.empty(n))


def _face_sides(b, P):
    """``_sides_at`` of every corner of some faces, face by face, in the
    drawing of the (2, n) rows ``P``, from ``b``, their vertices
    ``faces[f].ravel()``.  Corner i of face (t0, t1, t2) is (t[i-1], t[i],
    t[i+1]), so its b is t[i] and its a and c are the b of its face's
    corners i - 1 and i + 1: each coordinate is gathered once per vertex,
    and each side is the same subtraction of the same two coordinates."""
    rows = []
    for p in P:
        e1, mid, e2 = out = np.empty((3, b.size // 3, 3))
        np.take(p, b, out=mid.reshape(-1), mode="wrap")
        for i in range(3):
            np.subtract(mid[:, i - 1], mid[:, i], out=e1[:, i])
            np.subtract(mid[:, i - 2], mid[:, i], out=e2[:, i])
        rows.append(out.reshape(3, -1))
    return _geometry(*rows, np.empty(b.size))


def _faces_at(b, P, cols, f, work) -> np.ndarray:
    """Compute the faces ``f`` again in the drawing of the (2, n) rows
    ``P``, from ``b``, their vertices face by face (``_face_sides``): their
    corners' angles, returned and written to ``work.angle`` at their
    corners ``cols``, and their doubled areas, corner 2's g, to
    ``work.area``."""
    (_, g, _), (_, h, _) = _face_sides(b, P)
    angle = np.arctan2(g, h)
    work.angle[cols] = angle
    work.area[f] = g[2::3]
    return angle


def _move(plan, work) -> None:
    """Compute the faces of the moved free vertices, the ``_Plan``
    ``plan``, again in ``work.P``, where ``_angles_at`` has placed them
    (``_faces_at``), and, while the pool is built, their corners' marks in
    it."""
    cols = plan.cols
    angle = _faces_at(plan.b, work.P, cols, plan.f, work)
    if work.pool_sharp is not None:
        candidate = work.candidate
        now, was = angle <= work.bound, candidate[cols]
        changed = now != was
        if changed.any():
            candidate[cols] = now
            pool = work.pool
            work.pool = np.sort(np.concatenate([pool[candidate[pool]], cols[now & changed]]))


def _lse(a: np.ndarray, work: _Workspace, lanes=None):
    """``scipy.special.logsumexp(a)`` of a non-empty 1-D float array, bit for
    bit: scipy 1.17.1's algorithm without its array-API dispatch.  The tied
    maxima are taken out of the sum, and a non-finite result falls back to
    ``log(sum(exp(a)))``.  It runs in the caller's floating-point state,
    ``_quiet``'s in the objective.

    ``exp`` of the shifted array is taken only on the live lanes, those at
    or above ``EXP_FLOOR`` that are not tied maxima (a tie's shifted value
    is exactly 0), skipping numpy's slow path on the lanes that underflow.
    Their values are written at their places in ``work.exp``, all +0.0 on
    entry and zeroed again after the sum, and summed by one dense
    ``e.sum()``.  Every other lane holds +0.0, ``exp``'s exact value there
    and scipy's at its ties, set to -inf, so numpy's pairwise sum adds the
    same array in the same order, each zero lane an exact +0.0 (Higham 1993,
    "The accuracy of floating point summation").  With a finite maximum no
    lane is nan.  A non-finite one (a nan, or an infinite lane) makes every
    shifted lane nan or -inf, and the result is then not finite here nor in
    scipy, though the two sums may differ, so both take the fallback, which
    allocates.

    With ``lanes``, ``a`` holds only the lanes ``lanes`` of a longer array,
    of ``work.exp``'s length, whose others are not above ``max(a) +
    EXP_FLOOR``: their ``exp`` is +0.0 and none is a maximum
    (``_kept_softmin``), so the same sum is scipy's over that array.  A
    non-finite result is then returned as it is, the fallback left to the
    caller."""
    a_max = a.max()
    tied = a == a_max
    m = float(np.count_nonzero(tied))
    shifted = a - a_max
    live = shifted >= EXP_FLOOR
    live ^= tied
    at = live if lanes is None else lanes[live]
    e = work.exp
    e[at] = np.exp(shifted[live])
    s = e.sum()
    e[at] = 0.0
    if s != 0:
        s = s / m
    out = np.log1p(s) + np.log(m) + a_max
    if lanes is None and not math.isfinite(out):
        out = np.log(np.exp(a).sum())
    return out


def _softmin(z, work, lanes=None, wide=False):
    """The soft-min of the lanes ``z`` = -sharp * angle, of every corner or
    of the corners ``lanes`` (``_lse``): (lse, the corners ``on`` whose z -
    lse is not below ``EXP_FLOOR``, nan included, or every corner when
    ``wide``, and their z - lse, which overwrites ``z``); None when, with
    ``lanes``, lse is not finite."""
    lse = _lse(z, work, lanes)
    if lanes is not None and not math.isfinite(lse):
        return None
    x = np.subtract(z, lse, out=z)
    on = np.arange(x.size) if wide else np.flatnonzero(~(x < EXP_FLOOR))
    return lse, on if lanes is None else lanes[on], x[on]


def _build_pool(sharp, work) -> None:
    """Mark the pool of ``_kept_softmin`` at ``sharp``: the corners whose
    angle is at most T = -(a_max + 2 * EXP_FLOOR) / sharp, a_max =
    fl(-sharp * min angle) being the largest lane of z = -sharp * angle."""
    a_max = -sharp * float(work.angle.min())
    bound = -(a_max + 2.0 * EXP_FLOOR) / sharp
    work.pool = np.flatnonzero(np.less_equal(work.angle, bound, out=work.candidate))
    work.bound, work.z_bound, work.pool_sharp = bound, -sharp * bound, sharp


def _kept_softmin(sharp, work):
    """The soft-min of a deep call, at ``sharp`` > 0 on a drawing that is not
    wide, over the pool's lanes only: (lse, the live corners ``on``, their
    z - lse), each what the dense code gives bit for bit; None when the
    soft-min is not finite.

    A corner outside the pool has an angle above T, so its z = fl(-sharp *
    angle) is at most ``z_bound`` = fl(-sharp * T), rounding being
    monotone.  While ``z_bound - a_max`` is below ``EXP_FLOOR``, a_max the
    pool's largest lane, every such z is below a_max, so a_max is the
    array's maximum and its ties are all in the pool, and z - a_max and z -
    lse, lse >= a_max, are below ``EXP_FLOOR``: its ``exp`` is +0.0 in
    ``_lse`` and the corner is not live.  A new sharpness rebuilds the pool
    (``_build_pool``), and so does a call whose smallest angle rose so far
    that the test fails; if it still fails, as when a_max is so large that
    2 * EXP_FLOOR is lost in its rounding, the dense code runs."""
    fresh = work.pool_sharp != sharp
    while True:
        if fresh:
            _build_pool(sharp, work)
        z = np.multiply(-sharp, work.angle[work.pool])
        if z.size and work.z_bound - z.max() < EXP_FLOOR:
            break
        if fresh:
            return None
        fresh = True
    return _softmin(z, work, work.pool)


def _objective(y, sharp, weight, work):
    """Negative soft-min of corner angles plus orientation penalty; returns
    (value, gradient over the variables ``y``).  Callers run it in
    ``_quiet``'s floating-point state.

    ``work`` is the restart's ``_Workspace``, which holds the mesh and the
    drawing whose free vertices the variables replace.  The variables are
    per-vertex rescaled offsets, x_v = origin_v + scale_v * y_v with
    ``work.origin`` in (2, free) rows, a diagonal preconditioner that evens
    out the wildly different local scales of nested-replay drawings.

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

    The soft-min is over the pool on a deep call (``_kept_softmin``), and
    ``_softmin``'s over every corner below ``KEEP_FLOOR``, on a wide call,
    at a sharpness not above 0 and when the pool's soft-min is not finite.
    Below the floor the live corners' sides are read by two ``np.take``s of
    the full pass's rows ``work.x`` and ``work.y``, (e1x, g, e2x) and (e1y,
    h, e2y); above it, where the full pass keeps no sides, they are
    computed again from ``work.P`` (``_sides_at``).  On both, the penalty
    reads the faces' doubled areas from ``work.area`` and the flipped
    faces' sides from ``work.P`` (``_face_sides``).

    Every full-size temporary, per vertex, corner or face, is a view of
    ``work``, owned by the caller (one per restart in ``_restart``),
    written with ``out=`` by the ufunc of the allocating form; below the
    floor ``work.theta`` holds ``z`` and then ``z - lse`` in place.  Of what
    ``work`` held before, a call reads only its frame and the geometry
    ``_angles_at`` keeps, bit for bit what its full pass writes, so every
    call gives what it gives on a new workspace of the same frame.  Besides
    the arrays of the faces ``_angles_at`` computes again and of the pool,
    it allocates only the soft-min's lanes (``_lse``; every corner's above
    the floor when the dense code runs), the arrays of the live corners and
    flipped faces (every corner and face when ``wide``),
    the bincount sums and the gradient it returns, which the caller may
    keep: ``minimize`` holds it across ``setulb`` calls.  The module
    docstring says what that saves."""
    mesh = work.mesh
    free, corners = mesh.free, mesh.corners
    wide = _angles_at(y, work)

    # d(softmin)/d(theta_i) = wgt_i, the softmax weight exp(z_i - lse); the
    # weights sum to 1, and the objective is -softmin.  coef = wgt / denom
    # is taken on the corners whose weight can be nonzero, nan included;
    # denom = max(g*g + h*h, 1e-300), as coincident points give 0/0.  Every
    # corner and face is kept when a coordinate is non-finite or beyond 1e100
    soft = _kept_softmin(sharp, work) if work.keeps and not wide and sharp > 0 else None
    if soft is None:  # below the floor, wide, a soft-min that is not finite, or sharp not above 0
        z = np.multiply(-sharp, work.angle, out=None if work.keeps else work.theta)
        soft = _softmin(z, work, wide=wide)
    lse, on, x = soft
    # the scatter index: the a, b and c columns of the live corners, then
    # those of the selected faces' corner 0, their penalty vertices
    index = np.take(corners, on, axis=1)
    if work.keeps:
        (e1x, g, e2x), (e1y, h, e2y) = _sides_at(index, work)
    else:
        (e1x, g, e2x), (e1y, h, e2y) = np.take(work.x, on, axis=1), np.take(work.y, on, axis=1)
    index = index.ravel()
    value = lse / sharp  # minus the soft-min -lse / sharp

    # orientation penalty: sum of relu(-area)^2 over internal faces; face
    # (t0, t1, t2) holds corners 3f, 3f+1 and 3f+2, at t0, t1 and t2, and
    # its penalty vertices are (t2, t0, t1).  Twice its area is the g of
    # corner 2, (t1, t2, t0), term for term, and the coordinate differences
    # of its gradient are the same subtractions as the corners' e1y and e2x:
    # y(t0) - y(t1), y(t1) - y(t2) and y(t2) - y(t0) are e1y at corners 1, 2
    # and 0; x(t1) - x(t0), x(t2) - x(t1) and x(t0) - x(t2) are e2x at
    # corners 0, 1 and 2.  A float's nonzero() is its != 0 test, true on nan
    fy = fx = None  # the selected faces' columns of the x and y gradient, if any
    if wide or not (math.isfinite(2.0 * weight) and work.area.min() >= 0.0):
        area, square = work.face
        neg = np.minimum(np.multiply(0.5, work.area, out=area), 0.0, out=area)
        value += weight * float(np.sum(np.multiply(neg, neg, out=square)))
        pc = np.multiply(2.0 * weight, neg, out=square)
        faces = np.arange(pc.size) if wide else pc.nonzero()[0]
        if faces.size:
            (_, _, sides_x), (sides_y, _, _) = _face_sides(mesh.faces[faces].ravel(), work.P)
            fy, fx = sides_y.reshape(-1, 3).T[[1, 2, 0]], sides_x.reshape(-1, 3).T
            pc = pc[faces]
            index = np.concatenate([index, corners[:, 0::3][:, faces].ravel()])
    else:
        value += weight * 0.0  # the sum of squares is +0.0
    coef = np.exp(x) / np.maximum(g * g + h * h, 1e-300)

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
        np.multiply(np.bincount(index, weights=w, minlength=mesh.n)[free], work.scale, out=packed)
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
    1.  A drawing that is not (n, 2) raises a StructureError.
    """
    mesh = Triangulation(graph, emb)
    work = _Workspace(mesh, _drawing_array(coords, mesh.n).T, 1.0)
    with _quiet():
        return _objective(np.zeros(2 * mesh.free.size), sharpness, penalty_weight, work)


def _wa_size(n: int, m: int = 10) -> int:
    """The length of ``setulb``'s float workspace ``wa`` for ``n`` variables
    and ``m`` corrections."""
    return 2 * m * n + 5 * n + 11 * m * m + 8 * m


def minimize(fun, x0, args, maxiter, wa):
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
    after an ``ABNORMAL`` exit, that of a rejected trial point, not of ``x``.

    ``wa`` is ``setulb``'s float workspace of ``_wa_size(x0.size)`` floats,
    which scipy allocates zeroed.  A caller that runs several stages passes
    one array to all of them, as it stands: on a fresh start
    ``setulb`` writes each entry of it before reading it, so a stale or
    nan-filled ``wa`` gives scipy's result bit for bit, while the small
    state arrays (``iwa``, ``task``, ``lsave``, ``isave``, ``dsave``) are
    made afresh per call.  On htilde(3,8) ``wa`` is 12.2 MB, which a fresh
    array per stage faulted in again page by page."""
    m, maxfun, maxls = 10, 15000, 20
    x = np.array(x0, dtype=np.float64).ravel()
    n = x.size
    fx, gx = fun(x, *args)
    last = x.copy()
    nfev, nit = 1, 0
    # setulb reads f and g only where it asked for them
    f, g = np.array(0.0), np.zeros(n)
    low, up, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
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


def _run_restart(work, config) -> tuple[np.ndarray, float, list[tuple[str, int, int]]]:
    """Sharpness/penalty continuation from the drawing ``work.pinned``, its
    outer triangle pinned, over the variables of ``work``'s frame.

    Stages keep running, doubling sharpness and growing the penalty, until
    the iteration budget is spent or two stages in a row made no progress.
    A stage makes progress when it took a step (``res.nit > 0``) and its
    ``res.fun`` is more than ``TOL`` below the previous stage's; a stage
    that took none left the variables where they were, whatever ``res.fun``
    reads.  After an ``ABNORMAL`` line-search exit ``res.fun`` is the last
    rejected trial point, not the objective at ``res.x``; so the reported
    objective is evaluated once more at the returned variables, with the
    last stage's sharpness and weight.  On a mesh above ``KEEP_FLOOR`` each
    call on ``work`` computes again only the faces that moved: stage 0's
    full pass at the start drawing is kept for y = 0 (``_start_angles``),
    and each stage's span from stage 1 on, the stage's first evaluation and
    the closing one are all taken at variables the workspace already
    holds.  The stages share one ``setulb`` workspace (``minimize``'s
    ``wa``), allocated here and never zeroed."""
    y = np.zeros(2 * work.mesh.free.size)
    wa = np.empty(_wa_size(y.size))
    iters_left = config.max_iters
    weight = config.penalty_init
    value = math.inf
    stage = 0
    stalled = 0
    stages = []
    while iters_left > 0 and stalled < 2:
        if stage:
            _angles_at(y, work)
            angle = work.angle
        else:
            angle = _start_angles(work)
        span = max(abs(float(angle.min())), 1e-8)
        sharp = (4.0 * 2.0 ** min(stage, 12)) / span
        budget = max(iters_left // max(STAGES - stage, 2), 50)
        with _quiet():
            res = minimize(_objective, y, (sharp, weight, work), min(budget, iters_left), wa=wa)
        y = res.x
        stages.append((str(res.message), int(res.nit), int(res.nfev)))
        final = (sharp, weight)
        improved = res.nit > 0 and float(res.fun) < value - TOL
        value = float(res.fun)
        iters_left -= max(res.nit, 1)
        weight *= PENALTY_GROWTH
        stage += 1
        stalled = 0 if improved else stalled + 1
    with _quiet():
        value = float(_objective(y, *final, work)[0])
    return np.array(work.P.T), value, stages  # the call left the drawing at y in work.P


def _scales(mesh, pinned) -> np.ndarray:
    """Each free vertex's scale in the drawing of the (2, n) rows
    ``pinned``: the length of its row's shortest edge, at least 1e-300.
    Every row is measured, as frame(d) lists outer rows last, by blocks of
    rows (``Triangulation.row_blocks``)."""
    nbr, offset = mesh.emb.nbr, mesh.emb.offset
    near = np.empty(mesh.n)
    for rows, h, src, _ in mesh.row_blocks():
        length = np.hypot(*(p[nbr[h]] - p[src] for p in pinned))
        near[rows] = np.minimum.reduceat(length, offset[rows] - h.start)
    return np.maximum(near[mesh.free], 1e-300)


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
    if mesh.free.size:
        pinned = start.T
        work = _Workspace(mesh, pinned, _scales(mesh, pinned))
        drawing, value, stages = _run_restart(work, config)
    else:
        drawing, value, stages = start.copy(), 0.0, []  # only the outer triangle
    resolution = mesh.resolution(drawing) if mesh.valid(drawing) else -math.inf
    # a restart never reports worse than its (valid) starting drawing
    start_res = mesh.resolution(start)
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
    validate_drawing's check count; ties go to the lowest restart index,
    which ``OptimizeResult.winner`` names.
    The pair is compiled once into a ``Triangulation``, whose ``valid``
    gives that check's verdict on every start and result, and which
    measures each valid one by its rotation (``Triangulation.resolution``,
    ``angular_resolution``'s value bit for bit without its sort); each trace
    records its start's resolution.

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
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
    parse raises a one-line StructureError, starting ``line N:`` for a row.
    A leading UTF-8 byte-order mark, which spreadsheet tools write when they
    save a CSV, is skipped."""
    out = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
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
    at least 3 of them, with at least 2 distinct d, each at least 1."""
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
    if not all(r.d >= 1 for r in pts):
        raise ValueError(f"all d must be >= 1 for a log-log fit, got d={min(r.d for r in pts)}")
    x = np.log([r.d for r in pts])
    y = np.log([r.best_resolution for r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(float(slope), float(intercept), r2)
