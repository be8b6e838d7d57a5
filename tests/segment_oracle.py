"""Independent reference for drawing validity, used to cross-check the
orientation-based ``validate_drawing``.

It works from the geometry of the edges instead of face orientations: the
points are distinct, no two edges meet except at a shared endpoint, every
vertex's drawn clockwise neighbor order is its rotation, and the outer face
is drawn clockwise.  The pairwise segment test is O(m^2), so use it on small
graphs only.
"""

from __future__ import annotations

import math

import numpy as np

from angres.graphs import Embedding, LabeledGraph
from angres.metrics import Violation


def _segment_violations(graph: LabeledGraph, coords: np.ndarray) -> list[Violation]:
    """Pairwise segment tests: non-adjacent edges must not intersect,
    adjacent edges must meet only at their shared endpoint."""
    E = graph.edges
    m = len(E)
    if m == 0:
        return []
    P = coords[E[:, 0]]
    Q = coords[E[:, 1]]
    out: list[Violation] = []

    def orient(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def on_segment(ax, ay, bx, by, cx, cy):
        # c collinear with a-b assumed; is c within the closed bounding box?
        return (
            (np.minimum(ax, bx) <= cx) & (cx <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= cy) & (cy <= np.maximum(ay, by))
        )

    block = max(1, int(4e6 / max(m, 1)))
    for i0 in range(0, m, block):
        i1 = min(m, i0 + block)
        ii, jj = np.meshgrid(np.arange(i0, i1), np.arange(m), indexing="ij")
        mask = jj > ii
        # bounding-box prefilter
        bb = (
            (np.minimum(P[ii, 0], Q[ii, 0]) <= np.maximum(P[jj, 0], Q[jj, 0]))
            & (np.minimum(P[jj, 0], Q[jj, 0]) <= np.maximum(P[ii, 0], Q[ii, 0]))
            & (np.minimum(P[ii, 1], Q[ii, 1]) <= np.maximum(P[jj, 1], Q[jj, 1]))
            & (np.minimum(P[jj, 1], Q[jj, 1]) <= np.maximum(P[ii, 1], Q[ii, 1]))
        )
        mask &= bb
        ii, jj = ii[mask], jj[mask]
        if ii.size == 0:
            continue
        a, b = E[ii, 0], E[ii, 1]
        c, d = E[jj, 0], E[jj, 1]
        ax, ay = coords[a, 0], coords[a, 1]
        bx, by = coords[b, 0], coords[b, 1]
        cx, cy = coords[c, 0], coords[c, 1]
        dx, dy = coords[d, 0], coords[d, 1]
        d1 = orient(ax, ay, bx, by, cx, cy)
        d2 = orient(ax, ay, bx, by, dx, dy)
        d3 = orient(cx, cy, dx, dy, ax, ay)
        d4 = orient(cx, cy, dx, dy, bx, by)
        shared = (a == c) | (a == d) | (b == c) | (b == d)
        proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
            ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
        )
        touch = (
            ((d1 == 0) & on_segment(ax, ay, bx, by, cx, cy))
            | ((d2 == 0) & on_segment(ax, ay, bx, by, dx, dy))
            | ((d3 == 0) & on_segment(cx, cy, dx, dy, ax, ay))
            | ((d4 == 0) & on_segment(cx, cy, dx, dy, bx, by))
        )
        bad_disjoint = ~shared & (proper | touch)
        # adjacent pair: collinear overlap means the non-shared endpoint of one
        # segment lies on the other segment
        overlap = (
            ((d1 == 0) & (c != a) & (c != b) & on_segment(ax, ay, bx, by, cx, cy))
            | ((d2 == 0) & (d != a) & (d != b) & on_segment(ax, ay, bx, by, dx, dy))
            | ((d3 == 0) & (a != c) & (a != d) & on_segment(cx, cy, dx, dy, ax, ay))
            | ((d4 == 0) & (b != c) & (b != d) & on_segment(cx, cy, dx, dy, bx, by))
        )
        bad_shared = shared & overlap
        for k in np.nonzero(bad_disjoint | bad_shared)[0]:
            out.append(
                Violation(
                    "crossing",
                    f"edges ({a[k]},{b[k]}) and ({c[k]},{d[k]}) intersect",
                )
            )
            if len(out) >= 50:
                return out
    return out


def _drawn_rotation_matches(graph: LabeledGraph, emb: Embedding, coords: np.ndarray) -> bool:
    """Every vertex's neighbors, sorted clockwise by drawn direction, form a
    cyclic shift of its rotation."""
    adj = graph.adjacency()
    for v in range(graph.n):
        nbrs = sorted(adj[v])
        drawn = sorted(
            nbrs,
            key=lambda u: -math.atan2(coords[u, 1] - coords[v, 1], coords[u, 0] - coords[v, 0]),
        )
        rot = emb.row(v).tolist()
        if len(drawn) > 2:
            k = rot.index(drawn[0])
            if drawn != rot[k:] + rot[:k]:
                return False
    return True


def reference_valid(graph: LabeledGraph, emb: Embedding, coords: np.ndarray) -> bool:
    coords = np.asarray(coords, dtype=float)
    if len({(float(x), float(y)) for x, y in coords}) != graph.n:
        return False
    if _segment_violations(graph, coords):
        return False
    if not _drawn_rotation_matches(graph, emb, coords):
        return False
    o = coords[list(emb.outer_face)] - coords[emb.outer_face[0]]
    return float(np.sum(o[:, 0] * np.roll(o[:, 1], -1) - np.roll(o[:, 0], -1) * o[:, 1])) < 0.0
