"""Reference implementation of ``angres.metrics.angular_resolution``: the
per-vertex loop, used to check the vectorized version report for report,
sign included: a zero resolution takes the sign of the last zero gap, in
vertex, then clockwise, order."""

from __future__ import annotations

import math

import numpy as np

from angres.graphs import LabeledGraph, StructureError
from angres.metrics import AngleReport


def angular_resolution(graph: LabeledGraph, coords: np.ndarray) -> AngleReport:
    """Smallest angle between two edges meeting at a vertex, over the drawing."""
    coords = np.asarray(coords, dtype=float)
    adj = graph.adjacency()
    best = math.inf
    for v in range(graph.n):
        nbrs = sorted(adj[v])
        if len(nbrs) < 2:
            continue
        vec = coords[nbrs] - coords[v]
        if np.any((vec == 0).all(axis=1)):
            raise StructureError(f"zero-length edge at vertex {v}")
        ang = np.arctan2(vec[:, 1], vec[:, 0])
        a = sorted(ang, reverse=True)
        for i in range(len(a)):
            gap = a[i] - a[(i + 1) % len(a)]
            if gap < 0:  # at the branch cut, where edges point more than one way
                gap += 2.0 * math.pi
            if gap == 0:
                zero = gap
            best = min(best, gap)
    return AngleReport(zero if best == 0 else best)
