"""Reference implementation of ``angres.graphs.verify_planar_3tree``: the
smallest-first simplicial elimination on one Python set of neighbours per
vertex, probing each vertex's triangle whenever it may have become
simplicial.  Listed as the package lists a rooted sequence
(``verify_canonically``), it checks the array version sequence for sequence
and error for error."""

from __future__ import annotations

import heapq

from angres.graphs import (
    BuildSequence,
    LabeledGraph,
    NotPlanar3TreeError,
    StructureError,
    _check_build_sequence,
    _PLANARITY_ERRORS,
)
from planarity_oracle import sequence, step_list


def verify_planar_3tree(
    graph: LabeledGraph, keep: tuple[int, int, int] | None = None
) -> BuildSequence:
    """Verify that ``graph`` is a planar 3-tree; return its build sequence.

    Runs greedy simplicial elimination (remove a degree-3 vertex whose
    neighborhood is a triangle, smallest vertex first) and then checks the
    reversed sequence with the array kernel ``_check_build_sequence``: every
    step must insert its vertex into a face of the partial embedding (the
    bare base triangle bounds two), which certifies planarity.  When ``keep``
    is given, those three mutually adjacent vertices are never eliminated, so
    the returned sequence is rooted at that triangle.
    """
    n = graph.n
    if n < 3:
        raise NotPlanar3TreeError(f"need at least 3 vertices, got {n}")
    if len(graph.edges) != 3 * n - 6:
        raise NotPlanar3TreeError(
            f"not a 3-tree: E={len(graph.edges)} but a 3-tree on {n} vertices has {3 * n - 6}"
        )
    edge_set = set(map(tuple, graph.edges.tolist()))

    def has_edge(i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in edge_set

    protected = set(keep) if keep is not None else set()
    if keep is not None:
        a, b, c = keep
        if not (has_edge(a, b) and has_edge(b, c) and has_edge(a, c)):
            raise StructureError(f"keep triple {keep} is not a triangle")

    adj = graph.adjacency()
    alive = [True] * n
    remaining = n

    def simplicial3(v: int) -> bool:
        if len(adj[v]) != 3 or v in protected:
            return False
        a, b, c = adj[v]
        return b in adj[a] and c in adj[a] and c in adj[b]

    heap = [v for v in range(n) if simplicial3(v)]
    heapq.heapify(heap)
    removed: list[tuple[int, tuple[int, int, int]]] = []
    while remaining > 3 and heap:
        v = heapq.heappop(heap)
        if not alive[v] or not simplicial3(v):
            continue
        tri = tuple(sorted(adj[v]))
        removed.append((v, tri))
        alive[v] = False
        remaining -= 1
        for u in adj[v]:
            adj[u].discard(v)
            if simplicial3(u):
                heapq.heappush(heap, u)
        adj[v] = set()
    if remaining != 3:
        stuck = [v for v in range(n) if alive[v]]
        raise NotPlanar3TreeError(
            f"not a 3-tree: elimination stuck with {remaining} vertices remaining "
            f"(first few: {stuck[:8]})"
        )
    base_vs = tuple(v for v in range(n) if alive[v])
    a, b, c = base_vs
    if not (has_edge(a, b) and has_edge(b, c) and has_edge(a, c)):
        raise NotPlanar3TreeError(f"not a 3-tree: final three vertices {base_vs} are not a triangle")
    if keep is not None and set(base_vs) != protected:
        raise NotPlanar3TreeError(f"elimination ended at {base_vs}, expected {keep}")

    seq = sequence(base_vs, removed[::-1])
    _check_build_sequence(seq, n, 2, _PLANARITY_ERRORS, NotPlanar3TreeError)
    return seq


def verify_canonically(
    graph: LabeledGraph, keep: tuple[int, int, int] | None = None
) -> BuildSequence:
    """The oracle's elimination listed as the package lists a rooted build
    sequence: its steps by level, then by vertex, each triangle sorted and
    the base sorted.  A step's level, one more than its triangle's deepest
    corner's (the base is 0), is computed step by step."""
    seq = verify_planar_3tree(graph, keep)
    level = dict.fromkeys(seq.base, 0)
    steps = []
    for x, tri in step_list(seq):
        level[x] = 1 + max(level[t] for t in tri)
        steps.append((level[x], x, tuple(sorted(tri))))
    return sequence(tuple(sorted(seq.base)), [(x, tri) for _, x, tri in sorted(steps)])
