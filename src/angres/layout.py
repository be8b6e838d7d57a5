"""Constructive drawings: fan layouts with resolution proportional to 1/d,
and a centroid-replay seed drawing for any planar 3-tree.

The fan rule spreads the two chains of a frame over equal angular increments
of ``APEX_ANGLE`` at the root, ring k at radius ``RING_RATIO**k``.  The
geometry is fixed: its resolution floor ``resolution * d >=
FAN_RESOLUTION_FLOOR`` (and the analogous floor for the three-level
assembly) is an artifact of this layout, measured once by
``scripts/calibrate_fan_floor.py`` and frozen here, so the floors hold for
every drawing the package makes.

``layout_nested`` composes the glued copies' vertex maps as int64 arrays and
places all rings of a frame with one array assignment per chain.  The ring
angles and radii are the scalar ``math`` expressions of a ring-by-ring
placement, so the coordinates equal it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .families import Family, FamilySpec, ParameterError, build_frame
from .graphs import (
    BuildSequence,
    Embedding,
    LabeledGraph,
    StructureError,
    _check_build_sequence,
    _rooted_sequence,
)

# The fan's root angle and the radius ratio between its rings.
APEX_ANGLE = math.pi / 3.0
RING_RATIO = 2.0
# The most rings a top fan may have: RING_RATIO**k overflows a double past it.
MAX_FAN_RINGS = 1023

# Frozen floors for resolution * d at this geometry, calibrated over
# d = 1..128 (frame fan, measured 0.4905) and d = 1..64 (three-level
# assembly, measured 0.005885); see scripts/calibrate_fan_floor.py.
FAN_RESOLUTION_FLOOR = 0.45
HTILDE1_RESOLUTION_FLOOR = 0.0055


def _check_fan_rings(d: int) -> None:
    """Refuse a top fan of ``d`` rings whose outer radius would overflow."""
    if d > MAX_FAN_RINGS:
        raise ParameterError(f"fan layout needs a top frame of d <= {MAX_FAN_RINGS} rings, "
                             f"got d={d}: its radius RING_RATIO**d overflows")


def check_fan_spec(spec: FamilySpec) -> None:
    """Raise the ParameterError ``layout_nested`` would raise on
    ``build_family(spec)``, from the spec alone, so that a refused layout
    costs no build: the top fan has d rings for ``frame``, d + 1 for ``g``
    (its (d+1)-frame), and none for ``h`` and ``htilde``."""
    rings = {"frame": spec.d, "g": spec.d + 1}.get(spec.family)
    if rings is not None:
        _check_fan_rings(rings)


def layout_frame_fan(d: int) -> tuple[Family, np.ndarray]:
    """The d-frame with its fan drawing (``layout_nested`` of ``build_frame(d)``)."""
    fam = build_frame(d)
    return fam, layout_nested(fam)


def _fan_into_corner(
    coords: np.ndarray,
    u_ids: np.ndarray,
    v_ids: np.ndarray,
    root: np.ndarray,
    corner_u: np.ndarray,
    corner_v: np.ndarray,
    span: float,
) -> None:
    """Place the interior rings of a (d+1)-frame whose root sits at ``root``
    and whose outermost ring coincides with the triangle corners.

    ``u_ids``/``v_ids`` are the final indices of rings 1..d (ring d+1 is the
    corners themselves).  Ring k sits on the ray interpolated between the
    angle bisector and the corner directions, at geometrically growing radii
    below the root's distance to the opposite side.
    """
    d = len(u_ids)
    eu = corner_u - root
    ev = corner_v - root
    phi_u = math.atan2(eu[1], eu[0])
    phi_v = math.atan2(ev[1], ev[0])
    delta = (phi_u - phi_v + math.pi) % (2.0 * math.pi) - math.pi  # signed corner angle
    mid = phi_v + delta / 2.0
    # distance from the root to the opposite side keeps every ring inside
    side = corner_u - corner_v
    h = abs(side[0] * (root[1] - corner_v[1]) - side[1] * (root[0] - corner_v[0])) / float(
        np.hypot(side[0], side[1])
    )
    rho = 0.9 * min(h, float(np.hypot(eu[0], eu[1])), float(np.hypot(ev[0], ev[1])))
    # All 2d+1 root gaps (between the 2d interior rays and the two corner
    # rays) are exactly |delta|/(2d+1), so both the root angles and the
    # grazing chord angles at the far corners scale as 1/d with
    # d-independent constants.
    gap = delta / (2.0 * d + 1.0)
    # Ring d keeps a fixed fraction of the corner scale for every d; the
    # inner radial ratio shrinks with d so the innermost ring stays around
    # e^-span of that (a fixed ratio would underflow double precision).
    ratio = min(RING_RATIO, 1.0 + span / max(d, 1))
    # angles and radii through math.cos/sin, rounded as libm rounds them;
    # numpy's vectorized cos and sin may differ in the last bit
    rows = []
    for k in range(1, d + 1):
        s = (2 * k - 1) / 2.0 * gap
        tu = mid + s
        tv = mid - s
        rad = 0.5 * rho * ratio ** (k - d)
        rows.append((rad, rad, math.cos(tu), math.sin(tu), math.cos(tv), math.sin(tv)))
    rings = np.array(rows)
    coords[u_ids] = root + rings[:, 0:2] * rings[:, 2:4]
    coords[v_ids] = root + rings[:, 0:2] * rings[:, 4:6]


def outer_triangle_coords() -> np.ndarray:
    """Equilateral positions, circumradius 1, for an outer face cycle
    (o1, o2, o3) traced clockwise: angles 90, -30, 210 degrees."""
    angles = [math.pi / 2.0, -math.pi / 6.0, math.pi * 7.0 / 6.0]
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


def _place_subtree(fam: Family, gmap: np.ndarray, coords: np.ndarray, fan_depth: int) -> None:
    """Place the interior of ``fam``, whose outer face is already placed, and
    recursively the interiors of all its glued copies.

    ``gmap`` maps fam-local indices to global indices (an int64 array,
    composed with each copy's ``vmap`` as ``gmap[vmap]``); the three shared
    corner vertices of every copy are already placed when it is visited.
    A family without frame roles is a base K4 with copies glued in: its
    interior labeled vertex goes to the centroid of its three outer ones.
    ``fan_depth`` counts fan ancestors: fans nested inside other fans use a
    narrower radial span, since the per-level scale shrink (sliver-face
    thinness times the radial span) compounds and would otherwise push the
    innermost features below double-precision resolvability."""
    if fam.roles is None:
        outer = list(fam.embedding.outer_face)
        inner = next(v for v in fam.graph.labels if v not in outer)
        coords[gmap[inner]] = coords[gmap[outer]].mean(axis=0)
    for p in fam.placements:
        sub = p.sub
        sm = gmap[p.vmap]
        depth = fan_depth
        if sub.roles is not None:
            roles = sub.roles
            _fan_into_corner(
                coords,
                sm[roles.u[:-1]],
                sm[roles.v[:-1]],
                coords[sm[roles.root]],
                coords[sm[roles.u[-1]]],
                coords[sm[roles.v[-1]]],
                span=6.0 if fan_depth == 0 else (3.0 if fan_depth == 1 else 2.0),
            )
            depth = fan_depth + 1
        _place_subtree(sub, sm, coords, depth)


def layout_nested(fam: Family) -> np.ndarray:
    """Structural drawing of any constructed family, at any nesting depth.

    The top level is a fan (frame-rooted families) or an equilateral outer
    triangle with the interior base vertex at the centroid.  The fan puts the
    root at the origin and ring k on rays at +- (k/d) * APEX_ANGLE/2 around
    the vertical, radius RING_RATIO**k; for d = 1 the rays sit at
    +- APEX_ANGLE/4 instead, so the root angle (not the base angles of the
    triangle) is the minimum and resolution * d stays level with larger d.
    Every glued frame is then fanned into its host triangle recursively.
    Local scale shrinks by a bounded factor per nesting level, so deep
    families stay representable where a pure centroid replay would collapse
    to coincident points.  The frozen floors hold for every such drawing.
    A top fan of more than ``MAX_FAN_RINGS`` rings raises ParameterError."""
    coords = np.zeros((fam.graph.n, 2))
    if fam.roles is not None:
        roles = fam.roles
        d = len(roles.u)
        _check_fan_rings(d)
        half = APEX_ANGLE / 2.0
        for k in range(1, d + 1):
            theta = (k / d) * half if d > 1 else half / 2.0
            rad = RING_RATIO ** k
            base = math.pi / 2.0
            coords[roles.u[k - 1]] = (rad * math.cos(base + theta), rad * math.sin(base + theta))
            coords[roles.v[k - 1]] = (rad * math.cos(base - theta), rad * math.sin(base - theta))
    else:
        coords[list(fam.embedding.outer_face)] = outer_triangle_coords()
    depth = 1 if fam.roles is not None else 0
    _place_subtree(fam, np.arange(fam.graph.n), coords, depth)
    return coords


_REPLAY_ERRORS = {
    "face": "replay: {tri} is not a bounded face when inserting {x}",
    "range": "replay: inserted vertex {x} is out of range for {n} vertices",
    "placed": "replay: vertex {x} is already placed",
}


class _ReplayPlan:
    """A build sequence checked for replay, with its steps grouped by level.

    Built once per (graph, embedding, sequence), on the sequence's own
    arrays and in its own order.  Without ``seq`` it takes
    ``graphs._rooted_sequence`` rooted at the embedding's outer face, the
    certificate or the elimination listed by level, then by vertex, and the
    levels that come with it.  ``place`` then draws any number of centroid
    or jittered replays."""

    def __init__(self, graph: LabeledGraph, emb: Embedding, seq: BuildSequence | None = None):
        if seq is None:
            seq, level = _rooted_sequence(graph, emb.outer_face, 1, _REPLAY_ERRORS, StructureError)
        else:
            if set(seq.base) != set(emb.outer_face):
                raise StructureError("build sequence is not rooted at the embedding's outer face")
            level = _check_build_sequence(seq, graph.n, 1, _REPLAY_ERRORS, StructureError)
            placed = np.zeros(graph.n, dtype=bool)
            placed[list(seq.base)] = True
            placed[seq.xs] = True
            if not placed.all():
                raise StructureError(f"replay: vertex {int(np.argmin(placed))} is never placed")
        self.n = graph.n
        self.outer_face = emb.outer_face
        self.xs, self.tris = seq.xs, seq.tris
        by_level = np.argsort(level, kind="stable")
        self.levels = np.split(by_level, np.flatnonzero(np.diff(level[by_level])) + 1)

    def place(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """The replay drawing: the outer face at ``outer_triangle_coords()``,
        then each level in one array operation, the centroid as
        ``(p0 + p1 + p2) / 3.0`` (the operation order of ``mean(axis=0)``)
        or, with ``rng``, one batched product with rows of one
        ``rng.dirichlet`` draw taken in step order.  The coordinates equal a
        step-by-step replay bit for bit."""
        coords = np.zeros((self.n, 2))
        coords[list(self.outer_face)] = outer_triangle_coords()
        # Dirichlet(3,3,3) keeps the point away from the face boundary
        weights = None if rng is None else rng.dirichlet((3.0, 3.0, 3.0), size=self.xs.size)
        for idx in self.levels:
            p = coords[self.tris[idx]]
            if weights is None:
                coords[self.xs[idx]] = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0
            else:
                coords[self.xs[idx]] = (weights[idx][:, None, :] @ p)[:, 0]
        return coords


def layout_seed_any(
    graph: LabeledGraph, emb: Embedding, seq: BuildSequence | None = None
) -> np.ndarray:
    """Centroid-replay drawing of a planar 3-tree: the embedding's outer face
    at ``outer_triangle_coords()``, then each vertex of ``seq`` (by default
    the sequence ``verify_planar_3tree`` returns rooted at that face; a
    sequence passed in is replayed in its own order) at the centroid of its
    triangle.  Raises StructureError when the graph is no 3-tree, or at the
    first step that ``graphs._check_build_sequence`` rejects (its triangle
    is not a bounded face, or its vertex is out of range or already placed),
    or for a vertex never placed."""
    return _ReplayPlan(graph, emb, seq).place()
