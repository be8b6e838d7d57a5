"""Reference implementation of the face check in
``angres.graphs.verify_planar_3tree``: the per-step replay that inserts each
vertex into a rotation system and keeps the faces in a dictionary, used to
check the array kernel ``graphs._check_build_sequence`` verdict for verdict;
and the tests' helpers that write a build sequence and read its steps."""

from __future__ import annotations

import numpy as np

from angres.graphs import BuildSequence, LabeledGraph, NotPlanar3TreeError


def sequence(base, steps) -> BuildSequence:
    """The build sequence that inserts each ``(x, tri)`` of ``steps`` in turn
    from the triangle ``base``, in the package's int64 arrays; the one way
    the tests write a sequence by hand."""
    xs = np.array([x for x, _ in steps], dtype=np.int64)
    tris = np.array([tri for _, tri in steps], dtype=np.int64).reshape(-1, 3)
    return BuildSequence(tuple(base), xs, tris)


def step_list(seq: BuildSequence) -> list[tuple[int, tuple[int, int, int]]]:
    """The steps of ``seq`` as ``(x, tri)`` pairs of Python ints."""
    return list(zip(seq.xs.tolist(), map(tuple, seq.tris.tolist())))


def _replay_planarity(graph: LabeledGraph, seq: BuildSequence) -> None:
    """Replay a build sequence as embedding insertions; raise if some
    insertion triangle is not a face of the partial embedding."""
    a, b, c = seq.base
    rotation: dict[int, list[int]] = {a: [b, c], b: [c, a], c: [a, b]}
    # The bare triangle bounds two faces with the same vertex set.
    faces: dict[frozenset[int], list[tuple[int, int, int]]] = {
        frozenset(seq.base): [(a, b, c), (a, c, b)]
    }
    for x, tri in step_list(seq):
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
