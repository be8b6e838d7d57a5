"""Reference implementation of the face check in
``angres.graphs.verify_planar_3tree``: the per-step replay that inserts each
vertex into a rotation system and keeps the faces in a dictionary, used to
check the array kernel ``graphs._check_build_sequence`` verdict for verdict."""

from __future__ import annotations

from angres.graphs import BuildSequence, LabeledGraph, NotPlanar3TreeError


def _replay_planarity(graph: LabeledGraph, seq: BuildSequence) -> None:
    """Replay a build sequence as embedding insertions; raise if some
    insertion triangle is not a face of the partial embedding."""
    a, b, c = seq.base
    rotation: dict[int, list[int]] = {a: [b, c], b: [c, a], c: [a, b]}
    # The bare triangle bounds two faces with the same vertex set.
    faces: dict[frozenset[int], list[tuple[int, int, int]]] = {
        frozenset(seq.base): [(a, b, c), (a, c, b)]
    }
    for x, tri in seq.steps:
        fs = frozenset(tri)
        avail = faces.get(fs)
        if not avail:
            raise NotPlanar3TreeError(
                f"not planar: insertion of vertex {x} targets triangle {tri}, "
                "which is not a face of the partial embedding"
            )
        p, q, r = avail.pop(0)
        if not avail:
            del faces[fs]
        rotation[p].insert(rotation[p].index(r) + 1, x)
        rotation[q].insert(rotation[q].index(p) + 1, x)
        rotation[r].insert(rotation[r].index(q) + 1, x)
        rotation[x] = [p, r, q]
        for f in ((p, q, x), (q, r, x), (r, p, x)):
            faces.setdefault(frozenset(f), []).append(f)
