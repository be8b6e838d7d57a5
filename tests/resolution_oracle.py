"""Reference implementation of ``angres.metrics.angular_resolution``: the
per-vertex loop, used to check the vectorized version report for report."""

from __future__ import annotations

import math

import numpy as np

from angres.graphs import LabeledGraph, StructureError
from angres.metrics import TOL, AngleReport


def angular_resolution(graph: LabeledGraph, coords: np.ndarray) -> AngleReport:
    """Smallest angle between two edges meeting at a vertex, over the drawing."""
    coords = np.asarray(coords, dtype=float)
    adj = graph.adjacency()
    gaps: list[list[float]] = []
    order: list[list[int]] = []
    best = math.inf
    witness = (-1, (-1, -1))
    for v in range(graph.n):
        nbrs = sorted(adj[v])
        if len(nbrs) < 2:
            gaps.append([])
            order.append(list(nbrs))
            continue
        vec = coords[nbrs] - coords[v]
        if np.any((vec == 0).all(axis=1)):
            raise StructureError(f"zero-length edge at vertex {v}")
        ang = np.arctan2(vec[:, 1], vec[:, 0])
        idx = sorted(range(len(nbrs)), key=lambda k: (-ang[k], nbrs[k]))
        cw = [nbrs[k] for k in idx]
        a = [ang[k] for k in idx]
        g = []
        for i in range(len(cw)):
            j = (i + 1) % len(cw)
            diff = a[i] - a[j] if j > 0 else a[i] - a[j] + 2.0 * math.pi
            g.append(diff)
        gaps.append(g)
        order.append(cw)
        for i, val in enumerate(g):
            pair = (cw[i], cw[(i + 1) % len(cw)])
            pair = (min(pair), max(pair))
            if val < best - TOL:
                best = val
                witness = (v, pair)
            elif val <= best + TOL:
                best = min(best, val)
    return AngleReport(gaps, order, best, witness)
