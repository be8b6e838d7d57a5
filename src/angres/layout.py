"""Constructive drawings: fan layouts with resolution proportional to 1/d,
and a centroid-replay seed drawing for any planar 3-tree.

The fan rule spreads the two chains of a frame over equal angular increments
at the root, with geometrically growing radii per ring.  Its resolution floor
``resolution * d >= FAN_RESOLUTION_FLOOR`` (and the analogous floor for the
three-level assembly) is an artifact of this layout, measured once by
``scripts/calibrate_fan_floor.py`` and frozen here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import Family, ParameterError, build_frame
from .graphs import (
    BuildSequence,
    Embedding,
    LabeledGraph,
    StructureError,
    _check_build_sequence,
    verify_planar_3tree,
)

# Frozen floors for resolution * d, calibrated over d = 1..128 (frame fan,
# measured 0.4905) and d = 1..64 (three-level assembly, measured 0.005885)
# with the default config; see scripts/calibrate_fan_floor.py.
FAN_RESOLUTION_FLOOR = 0.45
HTILDE1_RESOLUTION_FLOOR = 0.0055


@dataclass
class LayoutConfig:
    apex_angle: float = math.pi / 3.0
    ring_ratio: float = 2.0

    def validate(self) -> None:
        if not 0.0 < self.apex_angle < math.pi:
            raise ParameterError(f"apex_angle must be in (0, pi), got {self.apex_angle}")
        if not self.ring_ratio > 1.0:
            raise ParameterError(f"ring_ratio must be > 1, got {self.ring_ratio}")


def layout_frame_fan(d: int, config: LayoutConfig | None = None) -> tuple[Family, np.ndarray]:
    """The d-frame with its fan drawing (``layout_nested`` of ``build_frame(d)``)."""
    fam = build_frame(d)
    return fam, layout_nested(fam, config)


def _fan_into_corner(
    coords: np.ndarray,
    u_ids: list[int],
    v_ids: list[int],
    root: np.ndarray,
    corner_u: np.ndarray,
    corner_v: np.ndarray,
    ring_ratio: float,
    span: float = 6.0,
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
    ratio = min(ring_ratio, 1.0 + span / max(d, 1))
    for k in range(1, d + 1):
        s = (2 * k - 1) / 2.0 * gap
        rad = 0.5 * rho * ratio ** (k - d)
        tu = mid + s
        tv = mid - s
        coords[u_ids[k - 1]] = root + rad * np.array([math.cos(tu), math.sin(tu)])
        coords[v_ids[k - 1]] = root + rad * np.array([math.cos(tv), math.sin(tv)])


def outer_triangle_coords() -> np.ndarray:
    """Equilateral positions, circumradius 1, for an outer face cycle
    (o1, o2, o3) traced clockwise: angles 90, -30, 210 degrees."""
    angles = [math.pi / 2.0, -math.pi / 6.0, math.pi * 7.0 / 6.0]
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


def _place_subtree(
    fam: Family,
    gmap: dict[int, int],
    coords: np.ndarray,
    ring_ratio: float,
    fan_depth: int = 0,
) -> None:
    """Recursively place the interiors of all glued copies of ``fam``.

    ``gmap`` maps fam-local indices to global indices; the three shared
    corner vertices of every copy are already placed when it is visited.
    ``fan_depth`` counts fan ancestors: fans nested inside other fans use a
    narrower radial span, since the per-level scale shrink (sliver-face
    thinness times the radial span) compounds and would otherwise push the
    innermost features below double-precision resolvability."""
    for p in fam.placements:
        sub = p.sub
        sm = {i: gmap[p.vmap[i]] for i in range(sub.graph.n)}
        depth = fan_depth
        if sub.roles is not None:
            roles = sub.roles
            _fan_into_corner(
                coords,
                [sm[x] for x in roles.u[:-1]],
                [sm[x] for x in roles.v[:-1]],
                coords[sm[roles.root]],
                coords[sm[roles.u[-1]]],
                coords[sm[roles.v[-1]]],
                ring_ratio,
                span=6.0 if fan_depth == 0 else (3.0 if fan_depth == 1 else 2.0),
            )
            depth = fan_depth + 1
        else:
            # base-4 copy: the interior corner goes to the centroid of the
            # three shared ones
            on_outer = set(sub.embedding.outer_face)
            inner = next(v for v in sub.corners.values() if v not in on_outer)
            shared = [sm[v] for v in sub.embedding.outer_face]
            coords[sm[inner]] = coords[shared].mean(axis=0)
        _place_subtree(sub, sm, coords, ring_ratio, depth)


def layout_nested(fam: Family, config: LayoutConfig | None = None) -> np.ndarray:
    """Structural drawing of any constructed family, at any nesting depth.

    The top level is a fan (frame-rooted families) or an equilateral outer
    triangle with the interior base vertex at the centroid.  The fan puts the
    root at the origin and ring k on rays at +- (k/d) * apex/2 around the
    vertical, radius ring_ratio**k; for d = 1 the rays sit at +- apex/4
    instead, so the root angle (not the base angles of the triangle) is the
    minimum and resolution * d stays level with larger d.  Every glued
    frame is then fanned into its host triangle recursively.  Local scale
    shrinks by a bounded factor per nesting level, so deep families stay
    representable where a pure centroid replay would collapse to coincident
    points."""
    config = config or LayoutConfig()
    config.validate()
    coords = np.zeros((fam.graph.n, 2))
    if fam.roles is not None:
        roles = fam.roles
        d = len(roles.u)
        half = config.apex_angle / 2.0
        for k in range(1, d + 1):
            theta = (k / d) * half if d > 1 else half / 2.0
            rad = config.ring_ratio ** k
            base = math.pi / 2.0
            coords[roles.u[k - 1]] = (rad * math.cos(base + theta), rad * math.sin(base + theta))
            coords[roles.v[k - 1]] = (rad * math.cos(base - theta), rad * math.sin(base - theta))
    else:
        outer = outer_triangle_coords()
        for pos, vid in zip(outer, fam.embedding.outer_face):
            coords[vid] = pos
        on_outer = set(fam.embedding.outer_face)
        inner = next(v for v in fam.corners.values() if v not in on_outer)
        coords[inner] = coords[list(fam.embedding.outer_face)].mean(axis=0)
    depth = 1 if fam.roles is not None else 0
    _place_subtree(fam, {i: i for i in range(fam.graph.n)}, coords, config.ring_ratio, depth)
    return coords


_REPLAY_ERRORS = {
    "face": "replay: {tri} is not a bounded face when inserting {x}",
    "range": "replay: inserted vertex {x} is out of range for {n} vertices",
    "placed": "replay: vertex {x} is already placed",
}


class _ReplayPlan:
    """A build sequence checked for replay, with its steps grouped by level.

    Built once per (graph, embedding, sequence); ``place`` then draws any
    number of centroid or jittered replays from it."""

    def __init__(self, graph: LabeledGraph, emb: Embedding, seq: BuildSequence):
        if set(seq.base) != set(emb.outer_face):
            raise StructureError("build sequence is not rooted at the embedding's outer face")
        check = _check_build_sequence(seq, graph.n, base_uses=1)
        if check.bad >= 0:
            x, tri = seq.steps[check.bad]
            raise StructureError(_REPLAY_ERRORS[check.reason].format(x=x, tri=tri, n=graph.n))
        placed = np.zeros(graph.n, dtype=bool)
        placed[list(seq.base)] = True
        placed[check.xs] = True
        if not placed.all():
            raise StructureError(f"replay: vertex {int(np.argmin(placed))} is never placed")
        self.n = graph.n
        self.outer_face = emb.outer_face
        self.xs, self.tris = check.xs, check.tris
        by_level = np.argsort(check.level, kind="stable")
        self.levels = np.split(by_level, np.flatnonzero(np.diff(check.level[by_level])) + 1)

    def place(
        self, outer_coords: np.ndarray | None = None, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """The replay drawing: the outer face at ``outer_coords``, then each
        level in one array operation, the centroid as ``(p0 + p1 + p2) / 3.0``
        (the operation order of ``mean(axis=0)``) or, with ``rng``, one
        batched product with rows of one ``rng.dirichlet`` draw taken in step
        order.  The coordinates equal a step-by-step replay bit for bit."""
        coords = np.zeros((self.n, 2))
        outer = outer_coords if outer_coords is not None else outer_triangle_coords()
        for i, v in enumerate(self.outer_face):
            coords[v] = outer[i]
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
    """Centroid-replay drawing of a planar 3-tree: the base triangle is the
    embedding's outer face at ``outer_triangle_coords()``, every inserted
    vertex goes to the centroid of its containing face.  Always valid in
    exact arithmetic (interior insertion preserves the orientation of every
    face it creates).  The optimizer's jittered restarts come from the same
    replay plan (``_ReplayPlan.place`` with a generator).

    The build sequence is checked by the array kernel
    ``graphs._check_build_sequence``, which also gives each inserted vertex
    its level, one more than the deepest vertex of its triangle.  Every step
    must target a bounded face of the partial embedding, and every non-base
    vertex must be inserted exactly once; otherwise a StructureError names
    the first bad step or the first vertex never placed.  A level's vertices
    depend only on lower levels, so each level is placed in one array
    operation, bit for bit as a step-by-step replay would place them."""
    if seq is None:
        seq = verify_planar_3tree(graph, keep=emb.outer_face)
    return _ReplayPlan(graph, emb, seq).place()
