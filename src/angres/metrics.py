"""Drawing validation, angular resolution, and frame-angle diagnostics.

A drawing is an (n, 2) float array of vertex coordinates paired with a graph
and a triangulated embedding, compiled once into a ``Triangulation``.  Its
``violations`` (exact orientation signs, no epsilon) and ``valid`` (their
verdict, stopping at the first flipped face) read one array of oriented
faces through one generator.  Its ``sides`` is the one gather of corner
sides, read by ``resolution`` (the smallest internal corner, on a valid
drawing the smallest angle between consecutive edges) and by the
optimizer's angles and scales, and its ``replay`` is the plan every replay
seed is placed from.  ``angular_resolution``'s sorted edge walk measures
drawings without an embedding.  Angle identities are numeric with a 1e-9
tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import FrameRoles
from .graphs import (
    Embedding,
    LabeledGraph,
    Records,
    StructureError,
    internal_triangles,
)
from .layout import _ReplayPlan

TOL = 1e-9


@dataclass
class Violation:
    kind: str  # "non-finite" | "flipped-face"
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


# Shewchuk's static error bound for the orientation determinant (1997,
# "Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
# Predicates"): with double rounding unit eps, a float determinant larger
# than (3 + 16 eps) eps (|left| + |right|) has the exact determinant's sign.
_EPS = 2.0 ** -53
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
# Shewchuk's bound assumes no underflow; a product below the smallest normal
# double may err by up to 2**-1075 in absolute terms, far below this margin.
_UNDERFLOW_MARGIN = 1e-300


def _float_orientations(coords: np.ndarray, tri: np.ndarray):
    """The float orientation determinant of each triangle of ``tri`` and
    whether it clears Shewchuk's bound, so that its sign is exact."""
    a, b, c = coords[tri[:, 0]], coords[tri[:, 1]], coords[tri[:, 2]]
    with np.errstate(over="ignore", invalid="ignore"):
        left = (a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
        right = (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0])
        det = left - right
        certain = np.abs(det) > _ORIENT_BOUND * (np.abs(left) + np.abs(right)) + _UNDERFLOW_MARGIN
    return det, certain


def _exact_sign(coords: np.ndarray, t) -> int:
    """The orientation sign of the finite triangle ``t`` by ``Fraction``
    arithmetic."""
    (ax, ay), (bx, by), (cx, cy) = (map(Fraction, coords[v]) for v in t)
    exact = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (exact > 0) - (exact < 0)


def _drawing_array(coords, n: int) -> np.ndarray:
    """``coords`` as a float array; a StructureError unless it is (n, 2)."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (n, 2):
        raise StructureError(f"drawing covers {coords.shape}, expected ({n}, 2)")
    return coords


def _non_finite(coords: np.ndarray) -> str:
    """A message naming the first vertex with a non-finite coordinate, or ""."""
    finite = np.isfinite(coords).all(axis=1)
    return "" if finite.all() else f"non-finite coordinates at vertex {int(np.argmin(finite))}"


class Triangulation:
    """A triangulated (graph, embedding) pair compiled once, to validate,
    measure and seed any number of its drawings.

    ``oriented`` holds the outer face reversed, then the F internal faces of
    ``internal_triangles``, so that every row is counterclockwise in a valid
    drawing; ``faces`` is its view of the internal ones.  ``free`` lists the
    vertices off the outer face, ascending.  ``corners``, built on first
    read (validation never reads it), is the (3, 3F) corner index: the a, b
    and c columns of the internal corners (a, b, c), angle at b from ray
    b->a to ray b->c, corner 3t + i being corner i of face t, which is
    (t[i-1], t[i], t[i+1]).  Its view ``corners[:, 0::3]``, each face's
    corner 0 (t[2], t[0], t[1]), lists every face once in its own order.
    ``replay``, built on first read in each process, is the replay plan."""

    def __init__(self, graph: LabeledGraph, emb: Embedding):
        self.graph, self.emb = graph, emb
        self.n = graph.n
        outer = np.asarray([emb.outer_face[::-1]], dtype=np.int64)
        self.oriented = np.concatenate([outer, internal_triangles(graph, emb)])
        self.faces = self.oriented[1:]
        off_outer = np.ones(graph.n, dtype=bool)
        off_outer[list(emb.outer_face)] = False
        self.free = np.flatnonzero(off_outer)

    @functools.cached_property
    def corners(self) -> np.ndarray:
        f = len(self.faces)
        corners = np.empty((3, 3 * f), dtype=np.int64)
        for column, perm in zip(corners.reshape(3, f, 3), ([2, 0, 1], [0, 1, 2], [1, 2, 0])):
            column[:] = self.faces[:, perm]
        return corners

    @functools.cached_property
    def replay(self) -> _ReplayPlan:
        """The graph's build sequence rooted at the outer face, its checked
        stacking order when it carries one and else the elimination's,
        listed by level, then by vertex (``graphs._rooted_sequence``) and
        grouped by level (``layout._ReplayPlan``); reading it raises the
        sequence's error when the graph is no planar 3-tree.  A forked
        process that reads it first builds its own."""
        return _ReplayPlan(self.graph, self.emb)

    def _flipped(self, coords: np.ndarray):
        """The row of ``oriented`` of each face that is not counterclockwise
        in the finite drawing ``coords``, in row order.  The float
        determinant decides every face that clears Shewchuk's error bound;
        ``fractions.Fraction`` arithmetic decides the rest, collinear
        counting as flipped."""
        det, certain = _float_orientations(coords, self.oriented)
        for k in np.flatnonzero(~certain | (det < 0)):
            if certain[k] or _exact_sign(coords, self.oriented[k]) <= 0:
                yield int(k)

    def violations(self, coords: np.ndarray) -> list[Violation]:
        """``validate_drawing`` of an (n, 2) drawing of this pair."""
        coords = _drawing_array(coords, self.n)
        if non_finite := _non_finite(coords):
            return [Violation("non-finite", non_finite)]
        out: list[Violation] = []
        for k in self._flipped(coords):
            if k == 0:
                detail = f"outer face {tuple(self.emb.outer_face)} not clockwise"
            else:
                detail = f"internal face {tuple(self.oriented[k].tolist())} not counterclockwise"
            out.append(Violation("flipped-face", detail))
        return out

    def valid(self, coords: np.ndarray) -> bool:
        """``not self.violations(coords)``, stopping at the first flipped
        face without building the list."""
        coords = _drawing_array(coords, self.n)
        return bool(np.isfinite(coords).all()) and next(self._flipped(coords), None) is None

    def sides(self, px: np.ndarray, py: np.ndarray, x: np.ndarray, y: np.ndarray):
        """Write the sides of every internal corner (a, b, c), from the x and
        y coordinate arrays ``px`` and ``py``, into the (3, 3F) float arrays
        ``x`` and ``y``, and return their rows (e1, b, e2), e1 = a - b and
        e2 = c - b, as views: ((e1x, bx, e2x), (e1y, by, e2y)).  Each
        coordinate's a, b and c columns are gathered by one ``np.take``
        (``mode="wrap"``, a no-op on a valid index, writes ``out`` directly
        where ``"raise"`` buffers it), and e1 and e2 overwrite the a and c
        rows, so every value is the subtraction of the gathered points."""
        rows = []
        for p, out in ((px, x), (py, y)):
            a, b, c = np.take(p, self.corners, out=out, mode="wrap")
            rows.append((np.subtract(a, b, out=a), b, np.subtract(c, b, out=c)))
        return rows

    def resolution(self, coords: np.ndarray, x=None, y=None) -> float:
        """``angular_resolution(graph, coords).resolution``, bit for bit, of
        a float drawing that ``violations`` passes.  Each internal corner
        (a, b, c) gives the gap atan2(b->a) - atan2(b->c), plus 2 pi where
        that is negative: ``angular_resolution``'s float expression for the
        same two consecutive edges.  These are all gaps of a valid drawing
        but the three outer ones, which exceed pi, so no sort is needed.

        ``x`` and ``y`` are (3, 3F) float buffers that ``sides`` fills and
        the gaps then overwrite, such as a restart's workspace's; without
        them two are allocated."""
        if x is None:
            x, y = np.empty(self.corners.shape), np.empty(self.corners.shape)
        (e1x, bx, e2x), (e1y, by, e2y) = self.sides(coords[:, 0], coords[:, 1], x, y)
        gap = np.subtract(np.arctan2(e1y, e1x, out=bx), np.arctan2(e2y, e2x, out=by), out=bx)
        gap[gap < 0] += 2.0 * math.pi
        return float(gap.min())


def validate_drawing(graph: LabeledGraph, emb: Embedding, coords: np.ndarray) -> list[Violation]:
    """Return all violations of the drawing against the embedding (empty = ok).

    The drawing must be (n, 2) and the embedding a triangulation (both raise
    a StructureError otherwise, in that order).  The drawing is valid when
    its points are finite, the outer triangle is strictly clockwise and
    every internal triangle is strictly counterclockwise, all by exact
    signs.  For a triangulation these orientations prove that the
    straight-line drawing is one-to-one, so no two vertices coincide, has no
    crossings and realizes the rotation system (Floater, "One-to-one
    piecewise linear mappings over triangulations", Math. Comp. 2003): a
    drawing with two equal points always has a flipped face.
    """
    coords = _drawing_array(coords, graph.n)
    return Triangulation(graph, emb).violations(coords)


@dataclass
class AngleReport:
    """Smallest angle between consecutive edges at a vertex, and the vertex
    and edge pair achieving it."""

    resolution: float
    witness: tuple[int, tuple[int, int]]


def angular_resolution(graph: LabeledGraph, coords: np.ndarray) -> AngleReport:
    """Smallest angle between two edges meeting at a vertex, over the drawing.

    Each vertex's edges are ordered clockwise by angle (ties by neighbor);
    the gaps run between consecutive edges, the last one wrapping around by
    2 pi.  The witness is the last gap, in vertex then clockwise order, that
    is smaller than every earlier gap by more than TOL, so a later gap within
    TOL of the minimum does not take the witness over.  The drawing must be
    (n, 2) and finite, else a StructureError names the shape or the first
    non-finite vertex; ``Triangulation.resolution`` measures validated ones.
    """
    coords = _drawing_array(coords, graph.n)
    if non_finite := _non_finite(coords):
        raise StructureError(non_finite)
    n, m = graph.n, len(graph.edges)
    ends = graph.edges
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    deg = np.bincount(src, minlength=n)
    vec = coords[dst] - coords[src]
    zero = (vec == 0).all(axis=1) & (deg[src] >= 2)
    if zero.any():
        raise StructureError(f"zero-length edge at vertex {int(src[zero].min())}")
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    perm = np.lexsort((dst, -ang, src))
    src, dst, ang = src[perm], dst[perm], ang[perm]
    start = np.concatenate([[0], np.cumsum(deg)])
    # clockwise successor of each edge: the next one, or the vertex's first
    last = start[1:][deg > 0] - 1
    nxt = np.arange(1, 2 * m + 1)
    nxt[last] = start[:-1][deg > 0]
    diff = ang - ang[nxt]
    diff[last] += 2.0 * math.pi
    counted = np.repeat(deg >= 2, deg)
    vals = diff[counted]
    # running minimum before each gap; finite coordinates give finite gaps
    run = np.minimum.accumulate(np.concatenate([[math.inf], vals]))
    record = np.flatnonzero(vals < run[:-1] - TOL)
    witness = (-1, (-1, -1))
    if record.size:
        k = np.flatnonzero(counted)[record[-1]]
        pair = (int(dst[k]), int(dst[nxt[k]]))
        witness = (int(src[k]), (min(pair), max(pair)))
    return AngleReport(run[-1], witness)


@dataclass
class FrameProfile:
    """Composite fan angles at the frame root for rings k = 2..d.

    ``alpha1[k]`` is angle(v_{k-1} w v_k), ``alpha2[k]`` the composite
    angle(u_k w v_{k-1}), ``alpha3[k]`` the composite angle(v_1 w v_{k-1}),
    each as sums of consecutive rotation gaps at w, and
    ``r[k] = alpha3[k]/alpha1[k]``.  Keys are the ring indices k."""

    alpha1: dict[int, float]
    alpha2: dict[int, float]
    alpha3: dict[int, float]
    r: dict[int, float]
    apex_v: float  # composite angle(v_1 w v_d)
    apex_total: float  # composite angle(u_d w v_d)


def frame_profile(roles: FrameRoles, coords: np.ndarray) -> FrameProfile:
    """Fan-angle diagnostics at the root of a frame drawing.

    Composite angles are sums of consecutive rotation gaps at w (additive by
    construction), not chord angles, taken as running sums from the root
    outward.  The drawing must be valid; gaps are taken in the canonical
    rotation order u_d .. u_1 v_1 .. v_d.
    """
    if roles is None:
        raise StructureError("frame_profile needs frame roles")
    d = len(roles.u)
    vec = coords[list(reversed(roles.u)) + list(roles.v)] - coords[roles.root]
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    gaps = np.mod(ang[:-1] - ang[1:], 2.0 * math.pi).tolist()
    # vgaps[i-1] = angle(v_i w v_{i+1}); usum[k] = angle(u_{k+1} w u_1) and
    # vsum[k] = angle(v_1 w v_{k+1}), each summed from the root outward
    vgaps = gaps[d:]
    usum = list(itertools.accumulate(reversed(gaps[: d - 1]), initial=0.0))
    vsum = list(itertools.accumulate(vgaps, initial=0.0))
    rings = range(2, d + 1)
    alpha1 = {k: vgaps[k - 2] for k in rings}
    alpha3 = {k: vsum[k - 2] for k in rings}
    # u_k around through u_{k-1}..u_1 and v_1..v_{k-1}
    alpha2 = {k: usum[k - 1] + gaps[d - 1] + vsum[k - 2] for k in rings}
    r = {k: alpha3[k] / alpha1[k] if alpha1[k] != 0.0 else math.inf for k in rings}
    return FrameProfile(alpha1, alpha2, alpha3, r, vsum[-1], sum(gaps))


@dataclass
class ClaimQuantities:
    j: int
    alpha1: float
    alpha2: float
    averaging_bound_holds: bool


def claim_quantities(roles: FrameRoles, coords: np.ndarray) -> ClaimQuantities:
    """Index j minimizing angle(v_{k-1} w v_k) over k = ceil(d/2)..d, its fan
    angles, and the pigeonhole bound alpha1 <= 2/(d+2) * angle(u_d w v_d)."""
    d = len(roles.u)
    if d < 2:
        raise StructureError("claim_quantities needs d >= 2")
    prof = frame_profile(roles, coords)
    lo = max(2, (d + 1) // 2)  # alpha1 is defined for rings k >= 2
    j = min(range(lo, d + 1), key=lambda k: (prof.alpha1[k], k))
    a1 = prof.alpha1[j]
    a2 = prof.alpha2[j]
    holds = a1 <= 2.0 / (d + 2) * prof.apex_total + TOL
    return ClaimQuantities(j, a1, a2, holds)


def telescoping_product(prof: FrameProfile) -> tuple[float, float]:
    """(product over k=3..d of r_k/(1+r_k), alpha1[2] / apex_v).

    The two sides agree on every valid frame drawing; the product starts at
    k = 3 because alpha3[2] = 0 makes the k = 2 factor vanish identically.
    """
    prod = 1.0
    for k in sorted(prof.r):
        if k < 3:
            continue
        prod *= prof.r[k] / (1.0 + prof.r[k])
    return prod, prof.alpha1[2] / prof.apex_v if prof.apex_v != 0.0 else math.inf


# ---------------------------------------------------------------------------
# Drawing text format
# ---------------------------------------------------------------------------

def write_drawing(coords: np.ndarray) -> str:
    rows = np.asarray(coords, dtype=float).tolist()
    return "\n".join([f"p {i} {x!r} {y!r}" for i, (x, y) in enumerate(rows)]) + "\n"


def read_drawing(text: str) -> np.ndarray:
    """The (n, 2) coordinates of a ``p`` text, row ``v`` from vertex ``v``'s
    record.  Each bad record raises a StructureError naming its line; of
    several, the earliest line's.  A drawing that skips a vertex raises one
    naming the first vertex skipped."""
    rec = Records(text)
    points = rec.select({"p": 3})["p"]
    tokens, lines = rec.fields(points, [0])
    v = rec.numbers(tokens, lines, int)
    rec.fault(lines, v < 0, lambda k: f"'p' record for vertex {int(tokens[k])} out of range")
    rec.repeated(lines, v, lambda k: f"repeated 'p' record for vertex {v[k]}")
    xy = rec.numbers(*rec.fields(points, [1, 2]), float).reshape(-1, 2)
    rec.raise_first()
    return xy[rec.by_vertex(v, "drawing has no 'p' record")]
