"""Reference implementation of ``angres.layout.layout_seed_any``: the
per-step replay loop, used to check the level-by-level kernel byte for byte,
and ``replay``, the package's kernel called the same way."""

from __future__ import annotations

import numpy as np

from angres.graphs import BuildSequence, Embedding, LabeledGraph, StructureError, verify_planar_3tree
from angres.layout import _ReplayPlan, outer_triangle_coords


def layout_seed_any(
    graph: LabeledGraph,
    emb: Embedding,
    seq: BuildSequence | None = None,
    outer_coords: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Centroid-replay drawing of a planar 3-tree: the base triangle is the
    embedding's outer face, every inserted vertex goes to the centroid of its
    containing face.  Always valid (interior insertion preserves the
    orientation of every face it creates).

    With ``rng``, each inserted vertex instead gets random interior
    barycentric coordinates, giving a diverse family of valid drawings for
    optimizer restarts."""
    if seq is None:
        seq = verify_planar_3tree(graph, keep=emb.outer_face)
    if set(seq.base) != set(emb.outer_face):
        raise StructureError("build sequence is not rooted at the embedding's outer face")
    coords = np.zeros((graph.n, 2))
    outer = outer_coords if outer_coords is not None else outer_triangle_coords()
    place = {v: outer[i] for i, v in enumerate(emb.outer_face)}
    for v, p in place.items():
        coords[v] = p
    faces: set[frozenset[int]] = {frozenset(seq.base)}
    for x, tri in seq.steps:
        fs = frozenset(tri)
        if fs not in faces:
            raise StructureError(f"replay: {tri} is not a bounded face when inserting {x}")
        faces.remove(fs)
        if rng is None:
            coords[x] = coords[list(tri)].mean(axis=0)
        else:
            # Dirichlet(3,3,3) keeps the point away from the face boundary
            w = rng.dirichlet((3.0, 3.0, 3.0))
            coords[x] = w @ coords[list(tri)]
        for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            faces.add(frozenset((pair[0], pair[1], x)))
    return coords


def replay(
    graph: LabeledGraph,
    emb: Embedding,
    seq: BuildSequence | None = None,
    outer_coords: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The level-by-level replay the package runs (``layout._ReplayPlan``),
    with the signature of the loop above: ``layout_seed_any`` fixes the
    outer coordinates and the optimizer passes only a generator."""
    if seq is None:
        seq = verify_planar_3tree(graph, keep=emb.outer_face)
    return _ReplayPlan(graph, emb, seq).place(outer_coords, rng)
