"""Constructive drawings: fan layouts with resolution proportional to 1/d,
and a centroid-replay seed drawing for any planar 3-tree.

The fan rule spreads the two chains of a frame over equal angular increments
of ``APEX_ANGLE`` at the root, ring k at radius ``RING_RATIO**k``.  The
geometry is fixed: its resolution floor ``resolution * d >=
FAN_RESOLUTION_FLOOR`` (and the analogous floor for the three-level
assembly) is an artifact of this layout, measured once by
``scripts/calibrate_fan_floor.py`` and frozen here, so the floors hold for
every drawing the package makes.

``layout_nested`` places the glued copies level by level: all copies of one
sub-family at one fan depth one level down are one (K, sub.n) matrix of
global indices, composed from their hosts' matrices and the stacked vertex
maps by one gather, and their rings are placed in one batch.  The per-host
arithmetic is numpy's IEEE operations and the angles and ring ratios libm's,
so the coordinates equal a copy-by-copy, ring-by-ring placement bit for bit.
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


def _libm(f, *args: np.ndarray) -> np.ndarray:
    """``f`` of ``math`` on each element, rounded as libm rounds it.  With
    numpy 2.4 on an AVX-512 host, ``np.arctan2`` differed from
    ``math.atan2`` on 73,404 of 10^6 standard normal pairs and ``np.power``
    from ``**`` on 51,676 of 10^6 bases in [1, 2) to integer powers -64..0;
    ``np.cos`` and ``np.sin`` agreed there, but nothing pins them to libm."""
    values = map(f, *(a.ravel().tolist() for a in args))
    return np.fromiter(values, dtype=np.float64, count=args[0].size).reshape(args[0].shape)


@np.errstate(divide="ignore", invalid="ignore")
def _fan_into_corners(coords: np.ndarray, sub: Family, copies: np.ndarray, span: float) -> None:
    """Place the interior rings of every copy of the (d+1)-frame ``sub``, one
    copy per row of ``copies`` (global indices, (K, sub.n)), whose root and
    outermost ring are its already placed host triangle corners.

    Ring k sits on the ray interpolated between the angle bisector and the
    corner directions, at geometrically growing radii below the root's
    distance to the opposite side.  The per-host scalars are numpy's IEEE
    operations and ``np.remainder`` (Python's float ``%``), the angles and
    ``ratio ** (k - d)`` libm's, so each copy equals a copy-by-copy
    placement bit for bit.  A host whose corners coincide divides 0 by 0 and
    draws its rings at nan, quietly.
    """
    roles = sub.roles
    d = len(roles.u) - 1
    root, corner_u, corner_v = (
        coords[copies[:, x]] for x in (roles.root, roles.u[-1], roles.v[-1])
    )
    eu = corner_u - root
    ev = corner_v - root
    phi_u = _libm(math.atan2, eu[:, 1], eu[:, 0])
    phi_v = _libm(math.atan2, ev[:, 1], ev[:, 0])
    delta = np.remainder(phi_u - phi_v + math.pi, 2.0 * math.pi) - math.pi  # signed corner angle
    mid = phi_v + delta / 2.0
    # distance from the root to the opposite side keeps every ring inside
    side = corner_u - corner_v
    cross = side[:, 0] * (root[:, 1] - corner_v[:, 1]) - side[:, 1] * (root[:, 0] - corner_v[:, 0])
    h = np.abs(cross) / np.hypot(side[:, 0], side[:, 1])
    # min(h, |eu|, |ev|) as Python's min takes it: the first of equals, nan
    # only when h is nan
    rho = h
    for length in (np.hypot(eu[:, 0], eu[:, 1]), np.hypot(ev[:, 0], ev[:, 1])):
        rho = np.where(length < rho, length, rho)
    rho = 0.9 * rho
    # All 2d+1 root gaps (between the 2d interior rays and the two corner
    # rays) are exactly |delta|/(2d+1), so both the root angles and the
    # grazing chord angles at the far corners scale as 1/d with
    # d-independent constants.
    gap = delta / (2.0 * d + 1.0)
    # Ring d keeps a fixed fraction of the corner scale for every d; the
    # inner radial ratio shrinks with d so the innermost ring stays around
    # e^-span of that (a fixed ratio would underflow double precision).
    ratio = min(RING_RATIO, 1.0 + span / max(d, 1))
    k = np.arange(1, d + 1)
    s = ((2 * k - 1) / 2.0)[None, :] * gap[:, None]
    rad = (0.5 * rho)[:, None] * np.array([ratio ** int(e) for e in k - d])[None, :]
    for ids, t in ((roles.u[:-1], mid[:, None] + s), (roles.v[:-1], mid[:, None] - s)):
        x = root[:, :1] + rad * _libm(math.cos, t)
        y = root[:, 1:] + rad * _libm(math.sin, t)
        coords[copies[:, ids]] = np.stack([x, y], axis=-1)


def outer_triangle_coords() -> np.ndarray:
    """Equilateral positions, circumradius 1, for an outer face cycle
    (o1, o2, o3) traced clockwise: angles 90, -30, 210 degrees."""
    angles = [math.pi / 2.0, -math.pi / 6.0, math.pi * 7.0 / 6.0]
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


def _centroids(coords: np.ndarray, sub: Family, copies: np.ndarray) -> None:
    """Place the interior labeled vertex of every copy of the base K4 ``sub``
    (one copy per row of ``copies``) at the centroid of its three outer
    ones, as ``(p0 + p1 + p2) / 3.0``, the operation order of
    ``mean(axis=0)``."""
    p = coords[copies[:, list(sub.embedding.outer_face)]]
    coords[copies[:, _inner(sub)]] = ((p[:, 0] + p[:, 1] + p[:, 2]) / 3.0)[:, None]


def _inner(fam: Family) -> list[int]:
    """The vertices a copy of ``fam`` places itself: a frame's rings inside
    its outer ring, or a base K4's interior labeled vertex."""
    if fam.roles is not None:
        return fam.roles.u[:-1] + fam.roles.v[:-1]
    outer = fam.embedding.outer_face
    return [next(v for v in fam.graph.labels if v not in outer)]


def _glued(host: Family, depth: int, copies: np.ndarray) -> list[tuple[Family, int, np.ndarray]]:
    """``(sub, depth, sub_copies)`` per sub-family glued into ``host``: the
    vertex maps of its copies, stacked and composed through ``copies`` (the
    host's copies, (K, host.n) global indices) by one gather into one
    (K * copies per host, sub.n) matrix."""
    maps: dict[int, tuple[Family, list[np.ndarray]]] = {}
    for p in host.placements:
        maps.setdefault(id(p.sub), (p.sub, []))[1].append(p.vmap)
    return [
        (sub, depth, copies[:, np.stack(vm)].reshape(-1, sub.graph.n)) for sub, vm in maps.values()
    ]


def layout_nested(fam: Family) -> np.ndarray:
    """Structural drawing of any constructed family, at any nesting depth.

    The top level is a fan (frame-rooted families) or an equilateral outer
    triangle with the interior base vertex at the centroid.  The fan puts the
    root at the origin and ring k on rays at +- (k/d) * APEX_ANGLE/2 around
    the vertical, radius RING_RATIO**k; for d = 1 the rays sit at
    +- APEX_ANGLE/4 instead, so the root angle (not the base angles of the
    triangle) is the minimum and resolution * d stays level with larger d.
    Every glued frame is then fanned into its host triangle, level by level:
    the copies one level down, grouped by sub-family and fan depth, are
    placed one batch per group, each copy's vertex map composed through its
    host's as one gather.  A copy whose corners another copy of the same
    level places (one glued into a face of an earlier copy) waits for the
    next level, so every corner is placed before it is read, as in a
    copy-by-copy depth-first placement, which the drawing equals bit for
    bit.  Local scale shrinks by a bounded factor per nesting level, so deep
    families stay representable where a pure centroid replay would collapse
    to coincident points.  The frozen floors hold for every such drawing.
    A top fan of more than ``MAX_FAN_RINGS`` rings raises ParameterError."""
    n = fam.graph.n
    coords = np.zeros((n, 2))
    placed = np.zeros(n, dtype=bool)
    top = np.arange(n)[None, :]
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
        placed[[roles.root, *roles.u, *roles.v]] = True
    else:
        coords[list(fam.embedding.outer_face)] = outer_triangle_coords()
        _centroids(coords, fam, top)
        placed[list(fam.embedding.outer_face) + _inner(fam)] = True
    # The fan depth counts fan ancestors: fans nested inside other fans use a
    # narrower radial span, since the per-level scale shrink (sliver-face
    # thinness times the radial span) compounds and would otherwise push the
    # innermost features below double-precision resolvability.
    pending = _glued(fam, 1 if fam.roles is not None else 0, top)
    while pending:
        groups: dict[tuple[int, int], tuple[Family, int, list[np.ndarray]]] = {}
        for sub, depth, copies in pending:
            groups.setdefault((id(sub), depth), (sub, depth, []))[2].append(copies)
        pending, progress = [], False
        for sub, depth, parts in groups.values():
            copies = np.concatenate(parts)
            ready = placed[copies[:, list(sub.embedding.outer_face)]].all(axis=1)
            if not ready.all():
                pending.append((sub, depth, copies[~ready]))
                copies = copies[ready]
            if sub.roles is None:
                _centroids(coords, sub, copies)
            else:
                span = 6.0 if depth == 0 else (3.0 if depth == 1 else 2.0)
                _fan_into_corners(coords, sub, copies, span)
                depth += 1
            placed[copies[:, _inner(sub)]] = True
            pending += _glued(sub, depth, copies)
            progress |= copies.size > 0
        if not progress and pending:
            raise StructureError("layout: a glued copy's corners are never placed")
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
