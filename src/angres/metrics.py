"""Drawing validation, angular resolution, and frame-angle diagnostics.

A drawing is an (n, 2) float array of vertex coordinates paired with a graph
and a triangulated embedding.  Validity is combinatorial (exact orientation
signs, no epsilon); angle identities are numeric with a 1e-9 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import FrameRoles
from .graphs import (
    Embedding,
    LabeledGraph,
    StructureError,
    internal_triangles,
    parse_numbers,
    text_records,
)

TOL = 1e-9


@dataclass
class Violation:
    kind: str  # "flipped-face" | "coincident"
    detail: str


# Shewchuk's static error bound for the orientation determinant (1997,
# "Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
# Predicates"): with double rounding unit eps, a float determinant larger
# than (3 + 16 eps) eps (|left| + |right|) has the exact determinant's sign.
_EPS = 2.0 ** -53
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
# Shewchuk's bound assumes no underflow; a product below the smallest normal
# double may err by up to 2**-1075 in absolute terms, far below this margin.
_UNDERFLOW_MARGIN = 1e-300


def orientation_signs(coords: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Exact orientation sign of each triangle (a, b, c) in the (F, 3) index
    array ``tri``: +1 counterclockwise, -1 clockwise, 0 collinear.

    The float determinant decides every triangle that clears Shewchuk's
    error bound; ``fractions.Fraction`` arithmetic decides the rest.
    """
    coords = np.asarray(coords, dtype=float)
    a, b, c = coords[tri[:, 0]], coords[tri[:, 1]], coords[tri[:, 2]]
    with np.errstate(over="ignore", invalid="ignore"):
        left = (a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
        right = (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0])
        det = left - right
        certain = np.abs(det) > _ORIENT_BOUND * (np.abs(left) + np.abs(right)) + _UNDERFLOW_MARGIN
    signs = (det > 0).astype(np.int8) - (det < 0)
    for k in np.flatnonzero(~certain):
        (ax, ay), (bx, by), (cx, cy) = (map(Fraction, coords[v]) for v in tri[k])
        exact = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
        signs[k] = (exact > 0) - (exact < 0)
    return signs


def validate_drawing(graph: LabeledGraph, emb: Embedding, coords: np.ndarray) -> list[Violation]:
    """Return all violations of the drawing against the embedding (empty = ok).

    The embedding must be a triangulation (``internal_triangles`` raises a
    StructureError otherwise).  The drawing is valid when its points are
    finite and distinct, the outer triangle is strictly clockwise and every
    internal triangle is strictly counterclockwise, all by exact signs.  For
    a triangulation these orientations prove that the straight-line drawing
    has no crossings and realizes the rotation system (Floater, "One-to-one
    piecewise linear mappings over triangulations", Math. Comp. 2003).
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (graph.n, 2):
        raise StructureError(f"drawing covers {coords.shape}, expected ({graph.n}, 2)")
    return _drawing_violations(coords, emb.outer_face, internal_triangles(graph, emb))


def _drawing_violations(coords: np.ndarray, outer_face, tri: np.ndarray) -> list[Violation]:
    """``validate_drawing`` for an (n, 2) float drawing whose embedding has
    outer face ``outer_face`` and internal triangles ``tri``."""
    if not np.all(np.isfinite(coords)):
        return [Violation("coincident", "non-finite coordinates")]
    out: list[Violation] = []
    # equal points end up side by side; == keeps -0.0 and 0.0 together
    ordered = coords[np.lexsort((coords[:, 1], coords[:, 0]))]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        out.append(Violation("coincident", "two vertices share coordinates"))

    outer = np.asarray([outer_face], dtype=np.int64)
    signs = orientation_signs(coords, np.concatenate([outer, tri]))
    if signs[0] >= 0:
        out.append(Violation("flipped-face", f"outer face {tuple(outer_face)} not clockwise"))
    for k in np.flatnonzero(signs[1:] <= 0):
        face = tuple(int(v) for v in tri[k])
        out.append(Violation("flipped-face", f"internal face {face} not counterclockwise"))
    return out


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
    TOL of the minimum does not take the witness over.
    """
    coords = np.asarray(coords, dtype=float)
    n, m = graph.n, len(graph.edges)
    ends = graph.edge_array()
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
    # running minimum before each gap; nan gaps never count, as in a < test
    run = np.fmin.accumulate(np.concatenate([[math.inf], vals]))
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


def _root_gaps(roles: FrameRoles, coords: np.ndarray) -> tuple[list[float], list[int]]:
    """Consecutive-edge gaps at the frame root in canonical rotation order
    u_d .. u_1 v_1 .. v_d; entry i is the angle between edges i and i+1."""
    w = roles.root
    seq = list(reversed(roles.u)) + list(roles.v)
    vec = coords[seq] - coords[w]
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    gaps = []
    for i in range(len(seq) - 1):
        diff = (ang[i] - ang[i + 1]) % (2.0 * math.pi)
        gaps.append(float(diff))
    return gaps, seq


def frame_profile(roles: FrameRoles, coords: np.ndarray) -> FrameProfile:
    """Fan-angle diagnostics at the root of a frame drawing.

    Composite angles are sums of consecutive rotation gaps at w (additive by
    construction), not chord angles.  The drawing must be valid; gaps are
    taken in the canonical rotation order.
    """
    if roles is None:
        raise StructureError("frame_profile needs frame roles")
    d = len(roles.u)
    gaps, _ = _root_gaps(roles, coords)
    # gap index: 0..d-2 between u_d..u_1, d-1 between u_1 and v_1,
    # d-1+i between v_i and v_{i+1} (i = 1..d-1 at positions d..2d-2)
    def vgap(i: int) -> float:  # angle(v_i w v_{i+1})
        return gaps[d - 1 + i]

    def ugap(k: int) -> float:  # angle(u_{k+1} w u_k)
        return gaps[d - 1 - k]

    alpha1: dict[int, float] = {}
    alpha2: dict[int, float] = {}
    alpha3: dict[int, float] = {}
    r: dict[int, float] = {}
    for k in range(2, d + 1):
        alpha1[k] = vgap(k - 1)
        alpha3[k] = sum(vgap(i) for i in range(1, k - 1))
        # u_k around through u_{k-1}..u_1 and v_1..v_{k-1}
        alpha2[k] = sum(ugap(j) for j in range(1, k)) + gaps[d - 1] + sum(
            vgap(i) for i in range(1, k - 1)
        )
        r[k] = alpha3[k] / alpha1[k] if alpha1[k] != 0.0 else math.inf
    apex_v = sum(vgap(i) for i in range(1, d))
    apex_total = sum(gaps)
    return FrameProfile(alpha1, alpha2, alpha3, r, apex_v, apex_total)


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
    lines = []
    for i, (x, y) in enumerate(np.asarray(coords, dtype=float)):
        lines.append(f"p {i} {float(x)!r} {float(y)!r}")
    return "\n".join(lines) + "\n"


def read_drawing(text: str) -> np.ndarray:
    pts: dict[int, tuple[float, float]] = {}
    for lineno, _, fields in text_records(text, {"p": 3}):
        (v,) = parse_numbers(lineno, fields[:1], int)
        pts[v] = tuple(parse_numbers(lineno, fields[1:3], float))
    n = max(pts) + 1 if pts else 0
    if sorted(pts) != list(range(n)):
        raise StructureError("drawing lines do not cover a dense vertex range")
    return np.array([pts[i] for i in range(n)], dtype=float)
