"""Deterministic SVG rendering of validated drawings."""

from __future__ import annotations

import html

import numpy as np

from .graphs import Embedding, LabeledGraph
from .metrics import validate_drawing


WIDTH = 800.0
VERTEX_RADIUS = 3.0


class InvalidDrawingError(ValueError):
    """The drawing failed validation; rendering refused."""


def export_svg(graph: LabeledGraph, emb: Embedding, coords: np.ndarray) -> str:
    """SVG document, ``WIDTH`` units wide: one line per edge, one circle of
    radius ``VERTEX_RADIUS`` per vertex (labeled when the vertex carries a
    role label, with ``&``, ``<`` and ``>`` escaped; ``graph.validate()``
    rejects a label XML cannot hold).  Viewport fits the drawing with a 5%
    margin; output bytes are deterministic for identical inputs."""
    graph.validate()
    viols = validate_drawing(graph, emb, coords)
    if viols:
        raise InvalidDrawingError(f"drawing has {len(viols)} violations: {viols[0]}")
    pts = np.asarray(coords, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    margin = 0.05 * float(span.max())
    lo = lo - margin
    hi = hi + margin
    span = hi - lo
    s = WIDTH / float(span[0])
    height = float(span[1]) * s

    def tx(p):
        # y flipped: SVG's y axis points down
        return (p[0] - lo[0]) * s, (hi[1] - p[1]) * s

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {WIDTH:.1f} {height:.1f}">',
        '<g stroke="black" stroke-width="0.8" fill="none">',
    ]
    for i, j in graph.edges.tolist():
        x1, y1 = tx(pts[i])
        x2, y2 = tx(pts[j])
        out.append(f'<line x1="{x1:.4f}" y1="{y1:.4f}" x2="{x2:.4f}" y2="{y2:.4f}"/>')
    out.append("</g>")
    out.append('<g fill="black" font-size="10" font-family="monospace">')
    for v in range(graph.n):
        x, y = tx(pts[v])
        out.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="{VERTEX_RADIUS:.1f}"/>')
        name = graph.labels.get(v)
        if name:
            text = html.escape(name, quote=False)
            out.append(f'<text x="{x + 4.0:.4f}" y="{y - 4.0:.4f}">{text}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
