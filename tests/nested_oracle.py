"""Reference implementation of ``angres.layout.layout_nested``: vertex
maps composed as one dict per placement and every ring of a fan placed row
by row, used to check the array version byte for byte."""

from __future__ import annotations

import math

import numpy as np

from angres.families import Family
from angres.layout import outer_triangle_coords

# the fan geometry, spelled here so that the oracle pins it
APEX_ANGLE = math.pi / 3.0
RING_RATIO = 2.0


def _fan_into_corner(
    coords: np.ndarray,
    u_ids: list[int],
    v_ids: list[int],
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
    for k in range(1, d + 1):
        s = (2 * k - 1) / 2.0 * gap
        rad = 0.5 * rho * ratio ** (k - d)
        tu = mid + s
        tv = mid - s
        coords[u_ids[k - 1]] = root + rad * np.array([math.cos(tu), math.sin(tu)])
        coords[v_ids[k - 1]] = root + rad * np.array([math.cos(tv), math.sin(tv)])


def _place_subtree(
    fam: Family,
    gmap: dict[int, int],
    coords: np.ndarray,
    fan_depth: int,
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
                span=6.0 if fan_depth == 0 else (3.0 if fan_depth == 1 else 2.0),
            )
            depth = fan_depth + 1
        else:
            # base-4 copy: the interior corner goes to the centroid of the
            # three shared ones
            on_outer = set(sub.embedding.outer_face)
            inner = next(v for v in sub.graph.labels if v not in on_outer)
            shared = [sm[v] for v in sub.embedding.outer_face]
            coords[sm[inner]] = coords[shared].mean(axis=0)
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
    to coincident points."""
    coords = np.zeros((fam.graph.n, 2))
    if fam.roles is not None:
        roles = fam.roles
        d = len(roles.u)
        half = APEX_ANGLE / 2.0
        for k in range(1, d + 1):
            theta = (k / d) * half if d > 1 else half / 2.0
            rad = RING_RATIO ** k
            base = math.pi / 2.0
            coords[roles.u[k - 1]] = (rad * math.cos(base + theta), rad * math.sin(base + theta))
            coords[roles.v[k - 1]] = (rad * math.cos(base - theta), rad * math.sin(base - theta))
    else:
        outer = outer_triangle_coords()
        for pos, vid in zip(outer, fam.embedding.outer_face):
            coords[vid] = pos
        on_outer = set(fam.embedding.outer_face)
        inner = next(v for v in fam.graph.labels if v not in on_outer)
        coords[inner] = coords[list(fam.embedding.outer_face)].mean(axis=0)
    depth = 1 if fam.roles is not None else 0
    _place_subtree(fam, {i: i for i in range(fam.graph.n)}, coords, depth)
    return coords
