"""Drawing validation, angular resolution, and frame-angle diagnostics.

A drawing is an (n, 2) float array of vertex coordinates paired with a graph
and a triangulated embedding, compiled once into a ``Triangulation``.  Its
``violations`` (exact orientation signs, no epsilon) and ``valid`` (their
verdict, stopping at the first block of faces with a flipped one) read one
array of oriented faces through one generator.  Its ``corners`` index the
internal corners whose sides the optimizer gathers, and its ``replay`` is
the plan every replay seed is placed from.  It keeps no array with one
entry per half-edge: the faces at a vertex are the rows of ``faces`` that
hold it.  Its ``resolution`` measures a validated drawing on the
embedding's rotation or on ``drawn_embedding``, the one the drawing
realizes by one stable sort of integer keys (``_rotation_order``), which
``angular_resolution`` measures unvalidated; both take one gap step
(``_gaps``) between row neighbours, of one ``arctan2`` per half-edge
(``_half_edge_vectors``), by blocks of ``ROW_BLOCK`` rows: the drawn
rotation's rows (``_drawn_rows``) come from the edges, the neighbours
below a vertex by one stable sort of the edges by upper end.  Angle
identities are numeric, 1e-9 tolerance.
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
    _ROWS,
    _triangles,
)
from .layout import _ReplayPlan

TOL = 1e-9
# The one-shot passes over a drawing run this many faces (``_flipped``) or
# vertex rows (``Triangulation.row_blocks``, ``_drawn_rows``) at a time, so
# that their temporaries stay in cache and come back from the heap, where
# full-size ones were fresh pages, faulted in on every call.
FACE_BLOCK = 2**12
ROW_BLOCK = 2**12


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
    whether it clears Shewchuk's bound, so that its sign is exact.  Each
    column of the drawing is gathered once at the (k, 3) rows of ``tri``,
    whose columns a, b and c are then read as views.  (``np.take`` would
    copy a strided column, and a strided index, before gathering.)"""
    (ax, bx, cx), (ay, by, cy) = coords[:, 0][tri].T, coords[:, 1][tri].T
    with np.errstate(over="ignore", invalid="ignore"):
        left = (ax - cx) * (by - cy)
        right = (ay - cy) * (bx - cx)
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


def _successors(deg: np.ndarray) -> np.ndarray:
    """``nxt`` of half-edges listed vertex by vertex, ``deg[v]`` of them at
    vertex v: ``nxt[h]`` is the next half-edge of h's row, the row's first
    after its last."""
    start = np.concatenate([[0], np.cumsum(deg)])
    nxt = np.arange(1, start[-1] + 1)
    nxt[start[1:][deg > 0] - 1] = start[:-1][deg > 0]
    return nxt


def _measured(coords: np.ndarray):
    """The x and y columns at which the finite drawing ``coords`` is
    measured.  A difference of finite coordinates overflows only where a
    column's spread does; such a drawing is measured at half scale, ``0.5 *
    coords``, whose differences stay finite (halving is exact but on
    coordinates below 2**-1021), and any other drawing as it is.  The test
    is over the whole drawing, so every half-edge is measured at one
    scale."""
    x, y = coords[:, 0], coords[:, 1]
    with np.errstate(over="ignore"):
        if coords.size and any(np.isinf(p.max() - p.min()) for p in (x, y)):
            x, y = 0.5 * x, 0.5 * y
    return x, y


def _half_edge_vectors(columns, src: np.ndarray, dst: np.ndarray):
    """(vx, vy), the vector of each half-edge ``src -> dst`` of a drawing
    whose x and y columns, as ``_measured`` gives them, are ``columns``."""
    x, y = columns
    vx = x[dst]
    vx -= x[src]
    vy = y[dst]
    vy -= y[src]
    return vx, vy


def _rotation_order(src: np.ndarray, ang: np.ndarray, n: int) -> np.ndarray:
    """The order of the h half-edges by vertex ``src`` (below ``n``), then
    clockwise (by descending angle ``ang``, -0.0 equal to 0.0), ties kept
    in list order: ``np.lexsort((np.arange(h), -ang, src))``.  It is one
    stable argsort of the keys ``src * h + rank``, ``rank`` being the dense
    rank of ``ang``, descending, among all half-edges, from one argsort of
    ``ang``.  Keys stay below ``n * h``, which a StructureError refuses
    past int64."""
    h = ang.size
    if n * h > np.iinfo(np.int64).max:
        raise StructureError(f"{h} half-edges on {n} vertices overflow the rotation's sort key")
    desc = np.argsort(ang)[::-1]
    ranked = ang[desc]
    key = np.zeros(h, dtype=np.int64)
    np.not_equal(ranked[1:], ranked[:-1], out=key[1:])
    del ranked
    np.cumsum(key, out=key)
    rank = np.empty_like(key)
    rank[desc] = key
    np.multiply(src, h, out=key)
    key += rank
    del rank
    return np.argsort(key, kind="stable")


def _gaps(ang: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Each half-edge's clockwise gap to ``nxt``, ang - ang[nxt], plus 2 pi
    where negative: in a rotation sorted clockwise, only at the branch cut."""
    gap = ang - ang[nxt]
    gap[gap < 0] += 2.0 * math.pi
    return gap


def _non_finite(coords: np.ndarray) -> str:
    """A message naming the first vertex with a non-finite coordinate, or ""."""
    finite = np.isfinite(coords[:, 0]) & np.isfinite(coords[:, 1])
    return "" if finite.all() else f"non-finite coordinates at vertex {int(np.argmin(finite))}"


class Triangulation:
    """A triangulated (graph, embedding) pair compiled once, to validate,
    measure and seed any number of its drawings.

    ``oriented`` holds the outer face reversed, then the F internal faces of
    ``internal_triangles``, written below it in place, so that every row is
    counterclockwise in a valid drawing; ``faces`` is its view of the
    internal ones.  ``free`` lists the vertices off the outer face,
    ascending.  ``corners``, built on first read (validation never reads
    it), is the (3, 3F) corner index: the a, b and c columns of the
    internal corners (a, b, c), angle at b from ray b->a to ray b->c,
    corner 3t + i being corner i of face t, which is (t[i-1], t[i],
    t[i+1]).  Its view ``corners[:, 0::3]``, each face's corner 0 (t[2],
    t[0], t[1]), lists every face once in its own order.  In the
    embedding's rows (``row_blocks``) corner (a, b, c) is half-edge b->a
    and its successor b->c.  ``replay``, built on first read per process,
    is the replay plan."""

    def __init__(self, graph: LabeledGraph, emb: Embedding):
        self.graph, self.emb = graph, emb
        self.n = graph.n
        self.oriented = _triangles(graph, emb, 1)
        self.oriented[0] = emb.outer_face[::-1]
        self.faces = self.oriented[1:]
        off_outer = np.ones(graph.n, dtype=bool)
        off_outer[list(emb.outer_face)] = False
        self.free = np.flatnonzero(off_outer)

    @functools.cached_property
    def corners(self) -> np.ndarray:
        f = len(self.faces)
        corners = np.empty((3, 3 * f), dtype=np.int64)
        for column, perm in zip(corners.reshape(3, f, 3), ([2, 0, 1], [0, 1, 2], [1, 2, 0])):
            np.take(self.faces, perm, axis=1, out=column, mode="wrap")  # "raise" would buffer out
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

    def row_blocks(self):
        """The embedding's clockwise rows, ``ROW_BLOCK`` vertices at a time:
        per block, (rows, half_edges, src, nxt), the slices of its vertices
        and of their half-edges in ``emb.nbr``, and for each of those
        half-edges its source vertex and the index, within the block, of its
        row successor (``_successors``)."""
        offset = self.emb.offset
        for v in range(0, self.n, ROW_BLOCK):
            end = min(v + ROW_BLOCK, self.n)
            deg = np.diff(offset[v : end + 1])
            rows, half_edges = slice(v, end), slice(int(offset[v]), int(offset[end]))
            yield rows, half_edges, np.repeat(np.arange(v, end), deg), _successors(deg)

    def _flipped(self, coords: np.ndarray):
        """The row of ``oriented`` of each face that is not counterclockwise
        in the finite drawing ``coords``, in row order.  The float
        determinant decides every face that clears Shewchuk's error bound;
        ``fractions.Fraction`` arithmetic decides the rest, collinear
        counting as flipped.  The determinants are taken ``FACE_BLOCK``
        faces at a time, and a block's flipped faces are yielded before the
        next block's are computed."""
        for lo in range(0, len(self.oriented), FACE_BLOCK):
            tri = self.oriented[lo : lo + FACE_BLOCK]
            det, certain = _float_orientations(coords, tri)
            for k in np.flatnonzero(~certain | (det < 0)):
                if certain[k] or _exact_sign(coords, tri[k]) <= 0:
                    yield lo + int(k)

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

    def resolution(self, coords: np.ndarray) -> float:
        """``angular_resolution(graph, coords).resolution``, bit for bit, of
        a float drawing that ``violations`` passes: its rows are clockwise,
        so ``_gaps`` of the same half-edge angles (``_half_edge_vectors``)
        are that function's without its sort, the internal corners' below pi
        and the outer three above.  Rows are measured by blocks
        (``row_blocks``), each half-edge by the same ufuncs, at the one
        scale ``_measured`` gives the whole drawing."""
        columns = _measured(coords)
        least = []
        for _, h, src, nxt in self.row_blocks():
            vx, vy = _half_edge_vectors(columns, src, self.emb.nbr[h])
            least.append(_gaps(np.arctan2(vy, vx, out=vy), nxt).min())
        return float(np.min(least))


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
    """Smallest angle between consecutive edges at a vertex."""

    resolution: float


def _drawn_rows(graph: LabeledGraph, coords: np.ndarray):
    """The rows of the rotation the drawing ``coords`` realizes,
    ``ROW_BLOCK`` vertices at a time: per block, (deg, dst, gaps), each of
    its vertices' ``deg[v]`` neighbours in clockwise order and their
    ``_gaps`` (``_drawn_block``).  A StructureError refuses a drawing that
    is not (n, 2) and finite or has a zero-length edge at a vertex of
    degree >= 2, naming the smallest such vertex, from the first block that
    has one.  Besides the graph and the drawing it holds one int64 per
    edge, their order by upper end, and one block's arrays."""
    coords = _drawing_array(coords, graph.n)
    if non_finite := _non_finite(coords):
        raise StructureError(non_finite)
    n, ends = graph.n, graph.edges
    columns = _measured(coords)
    # vertex v's half-edges to lower neighbours u are the edges (u, v), in
    # one stable sort by upper end; those to higher ones the edges (v, u)
    # as they come: each side is one run of its order per block
    starts = np.arange(0, n + ROW_BLOCK, ROW_BLOCK).clip(max=n)
    below = np.zeros(starts.size, dtype=np.int64)
    np.cumsum(np.bincount(ends[:, 1] // ROW_BLOCK, minlength=starts.size - 1), out=below[1:])
    above = np.searchsorted(ends[:, 0], starts)
    down = np.argsort(ends[:, 1], kind="stable")
    for k in range(starts.size - 1):
        lower = down[below[k] : below[k + 1]]
        yield _drawn_block(columns, ends, lower, slice(above[k], above[k + 1]), starts[k : k + 2])


def _drawn_block(columns, ends: np.ndarray, lower: np.ndarray, higher: slice, rows: np.ndarray):
    """``_drawn_rows``' block of the vertices ``rows[0] .. rows[1] - 1``:
    their half-edges to lower neighbours, the edges ``lower`` (u, v) by v,
    then u, and to higher ones, the edges ``higher`` (v, u), in that
    order, which lists each vertex's by ascending neighbour, ordered by
    ``_rotation_order``, ties kept."""
    v, count = int(rows[0]), int(rows[1] - rows[0])
    src = np.concatenate([ends[lower, 1], ends[higher, 0]])
    dst = np.concatenate([ends[lower, 0], ends[higher, 1]])
    vx, vy = _half_edge_vectors(columns, src, dst)
    src -= v
    deg = np.bincount(src, minlength=count)
    zero = np.flatnonzero((vx == 0) & (vy == 0))
    zero = zero[deg[src[zero]] >= 2]
    if zero.size:
        raise StructureError(f"zero-length edge at vertex {v + int(src[zero].min())}")
    ang = np.arctan2(vy, vx, out=vy)
    del vx
    perm = _rotation_order(src, ang, count)
    return deg, dst[perm], _gaps(ang[perm], _successors(deg))


def angular_resolution(graph: LabeledGraph, coords: np.ndarray) -> AngleReport:
    """Smallest angle between two edges meeting at a vertex, over the
    unvalidated drawing: the least ``_gaps`` of ``_drawn_rows`` at
    vertices of degree 2 or more, inf without one.  A zero takes the sign
    of the last zero gap, in vertex, then clockwise, order; a vectorized
    min's varies with its order.  It holds what ``_drawn_rows`` holds: one
    int64 per edge and one block's arrays."""
    least, last_zero = np.float64(math.inf), None
    for deg, _, gaps in _drawn_rows(graph, coords):
        # a vertex whose edges all point one way wraps by 0, already its minimum
        gaps = gaps[np.repeat(deg >= 2, deg)]
        low = gaps.min(initial=math.inf)
        if low < least:
            least = low
        if low == 0:
            last_zero = gaps[gaps == 0][-1]
    return AngleReport(last_zero if least == 0 else least)


def drawn_embedding(graph: LabeledGraph, coords: np.ndarray) -> Embedding:
    """The rotation system the drawing realizes, outer face (p, v, u): p the
    lowest, then leftmost, vertex, u -> v its widest gap.  Only a plane
    drawing of a triangulation passes ``Triangulation`` and ``violations``
    on it.  A StructureError refuses n < 3 or a p of degree below 2."""
    if graph.n < 3:
        raise StructureError(f"a drawn embedding needs 3 or more vertices, got {graph.n}")
    p = int(np.lexsort(_drawing_array(coords, graph.n).T)[0])  # by y, then x
    offset = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.edges.ravel(), minlength=graph.n), out=offset[1:])
    dst = np.empty(offset[-1], dtype=np.int64)
    v = 0
    for deg, ends, gaps in _drawn_rows(graph, coords):
        dst[offset[v] : offset[v + deg.size]] = ends
        if v <= p < v + deg.size:
            row = slice(offset[p] - offset[v], offset[p + 1] - offset[v])
            ring, widest = ends[row].tolist(), gaps[row]
        v += deg.size
    if len(ring) < 2:
        raise StructureError(f"lowest vertex {p} has degree {len(ring)}, below 2")
    k = int(np.argmax(widest))
    return Embedding(offset, dst, (p, ring[(k + 1) % len(ring)], ring[k]))


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
    coords = np.asarray(coords, dtype=float)
    blocks = []
    for a in range(0, len(coords), _ROWS):
        rows = enumerate(coords[a : a + _ROWS].tolist(), a)
        blocks.append("".join([f"p {i} {x!r} {y!r}\n" for i, (x, y) in rows]))
    return "".join(blocks) or "\n"


def read_drawing(text: str) -> np.ndarray:
    """The (n, 2) coordinates of a ``p`` text, row ``v`` from vertex ``v``'s
    record.  Each bad record raises a StructureError naming its line; of
    several, the earliest line's.  A drawing that skips a vertex raises one
    naming the first vertex skipped."""
    rec = Records(text)
    points = rec.select({"p": 3})["p"]
    tokens = rec.fields(points, [0])
    v = rec.numbers(tokens, int)
    lines = rec.line[points]
    rec.fault(
        lines, v < 0, lambda k: f"'p' record for vertex {int(rec.word(tokens[k]))} out of range"
    )
    rec.repeated(lines, v, lambda k: f"repeated 'p' record for vertex {v[k]}")
    xy = rec.numbers(rec.fields(points, [1, 2]), float).reshape(-1, 2)
    rec.raise_first()
    return xy[rec.by_vertex(v, "drawing has no 'p' record")]
