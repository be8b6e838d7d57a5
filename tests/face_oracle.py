"""Reference implementation of ``angres.graphs.internal_triangles``: a
per-half-edge Python loop that traces every face (``trace_faces``), used to
check the array kernel face for face and error for error.  ``rotation_rows``
reads an embedding's CSR rotation back as one Python list per vertex, the
form the loops here and in the other oracles index."""

from __future__ import annotations

import numpy as np

from angres.graphs import Embedding, LabeledGraph, StructureError, canonical_cycle, euler_check


def rotation_rows(emb: Embedding) -> list[list[int]]:
    """Each vertex's clockwise row of ``emb``, as a list of Python ints."""
    return [emb.row(v).tolist() for v in range(len(emb.offset) - 1)]


def trace_faces(graph: LabeledGraph, rotation: list[list[int]]) -> list[tuple[int, ...]]:
    """Trace all faces of a rotation system.

    Every directed edge lies on exactly one returned face.  Raises
    StructureError when some vertex's rotation does not match its incident
    edges.
    """
    adj = graph.adjacency()
    if len(rotation) != graph.n:
        raise StructureError(f"rotation covers {len(rotation)} vertices, graph has {graph.n}")
    pos: list[dict[int, int]] = []
    for v in range(graph.n):
        rot = rotation[v]
        if sorted(rot) != sorted(adj[v]):
            raise StructureError(f"rotation at vertex {v} does not match its incident edges")
        pos.append({u: k for k, u in enumerate(rot)})

    # used[u][k] marks the directed edge from u to rotation[u][k] as traced
    used = [[False] * len(rot) for rot in rotation]
    faces: list[tuple[int, ...]] = []
    for start_v in range(graph.n):
        for start_k in range(len(rotation[start_v])):
            if used[start_v][start_k]:
                continue
            cycle: list[int] = []
            u, k = start_v, start_k
            while not used[u][k]:
                used[u][k] = True
                cycle.append(u)
                v = rotation[u][k]
                u, k = v, (pos[v][u] + 1) % len(rotation[v])
            faces.append(canonical_cycle(tuple(cycle)))
    return faces


def internal_triangles(graph: LabeledGraph, emb: Embedding) -> np.ndarray:
    """(F, 3) array of the bounded faces of a triangulated embedding, one
    counterclockwise (canonical) vertex cycle per row, in face-tracing order.

    Raises StructureError unless every face is a triangle, Euler's formula
    holds and the embedding's outer face is among the traced faces.
    """
    faces = trace_faces(graph, rotation_rows(emb))
    for f in faces:
        if len(f) != 3:
            raise StructureError(f"face of length {len(f)} starting {f[:3]} is not a triangle")
    if not euler_check(graph, faces):
        raise StructureError(
            f"not a plane embedding: V - E + F = {graph.n - len(graph.edges) + len(faces)}, not 2"
        )
    outer = canonical_cycle(tuple(emb.outer_face))
    if outer not in faces:
        raise StructureError(f"outer face {outer} not found among traced faces")
    return np.asarray([f for f in faces if f != outer], dtype=np.int64).reshape(-1, 3)
