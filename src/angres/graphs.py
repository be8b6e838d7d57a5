"""Simple undirected labeled graphs, rotation systems and 3-tree machinery.

Conventions used throughout the package:

* vertices are dense integer indices ``0 .. n-1``;
* edges are unordered pairs stored as ``(i, j)`` with ``i < j``;
* a rotation system lists, for every vertex, its neighbors in *clockwise*
  order.  With clockwise rotations the face walk
  ``next(u -> v) = (v, successor of u in rotation[v])`` traces every bounded
  face as a counterclockwise vertex cycle and the outer face as a clockwise
  cycle.

Faces are traced on half-edge arrays, not per-vertex dictionaries: the
half-edges of vertex ``v`` are numbered consecutively in rotation order, and
one NumPy kernel (``_half_edges``) checks the rotation against the edges and
builds the face-successor permutation ``nxt``.  ``internal_triangles``, the
package's one face reader, reads a triangulation's faces from ``nxt`` with
array operations alone.

Build sequences of planar 3-trees are checked without a replay: a second
kernel (``_check_build_sequence``) gives every face of the partial embedding
an integer key from the step that made it, so finding the first step that
does not target a face, and each step's level, takes array operations over
all steps at once.  ``verify_planar_3tree`` and the replay plan in
``layout`` both use it.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np


class StructureError(ValueError):
    """A graph or embedding violates a structural precondition."""


class NotPlanar3TreeError(StructureError):
    """The graph failed planar 3-tree verification."""


Edge = tuple[int, int]


def edge(i: int, j: int) -> Edge:
    if i == j:
        raise StructureError(f"self-loop at vertex {i}")
    return (i, j) if i < j else (j, i)


@dataclass
class LabeledGraph:
    """Simple undirected graph with optional role labels on vertices."""

    n: int
    edges: set[Edge] = field(default_factory=set)
    labels: dict[int, str] = field(default_factory=dict)

    def add_edge(self, i: int, j: int) -> None:
        e = edge(i, j)
        if e[1] >= self.n:
            raise StructureError(f"edge {e} exceeds vertex count {self.n}")
        self.edges.add(e)

    def has_edge(self, i: int, j: int) -> bool:
        return edge(i, j) in self.edges

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def edge_array(self) -> np.ndarray:
        """(m, 2) int64 array of the edges, in the order the set yields them."""
        ends = itertools.chain.from_iterable(self.edges)
        return np.fromiter(ends, dtype=np.int64, count=2 * len(self.edges)).reshape(-1, 2)

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def validate(self) -> None:
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise StructureError(f"bad edge ({i}, {j}) for n={self.n}")
        for v in self.labels:
            if not 0 <= v < self.n:
                raise StructureError(f"label on unknown vertex {v}")
        names = list(self.labels.values())
        if len(names) != len(set(names)):
            raise StructureError("duplicate vertex labels")


def max_degree(graph: LabeledGraph) -> int:
    if not graph.edges:
        return 0
    return max(graph.degree_sequence())


@dataclass
class Embedding:
    """Rotation system (clockwise neighbor order per vertex) + outer face.

    ``outer_face`` is the outer face's vertex cycle as produced by the face
    walk, i.e. in clockwise order.
    """

    rotation: list[list[int]]
    outer_face: tuple[int, ...]


def canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a cyclic sequence so its smallest element comes first."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def _half_edges(graph: LabeledGraph, rotation: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Half-edge arrays ``(src, nxt)`` of a rotation system.

    Half-edge ``h = offset[v] + k`` runs from ``v`` to ``rotation[v][k]``;
    ``src[h]`` is ``v`` and ``nxt[h]`` is the next half-edge of its face,
    ``offset[dst] + (position of src in rotation[dst] + 1) % deg[dst]``.  The
    twin positions come from one sorted lookup of ``src * n + dst`` keys.
    Raises StructureError, naming the smallest such vertex, when some
    vertex's rotation does not list its incident edges exactly once each.
    """
    n = graph.n
    if len(rotation) != n:
        raise StructureError(f"rotation covers {len(rotation)} vertices, graph has {graph.n}")
    deg = np.fromiter(map(len, rotation), dtype=np.int64, count=n)
    offset = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offset[1:])
    total = int(offset[-1])
    try:
        dst = np.fromiter(itertools.chain.from_iterable(rotation), dtype=np.int64, count=total)
    except OverflowError:
        flat = itertools.chain.from_iterable(rotation)
        dst = np.fromiter((u if 0 <= u < n else -1 for u in flat), dtype=np.int64, count=total)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)

    ends = graph.edge_array()
    bad = deg != np.bincount(ends.ravel(), minlength=n)
    # range-check before forming keys: an entry outside 0..n-1 could
    # otherwise alias the key of a real edge
    in_range = (dst >= 0) & (dst < n)
    bad[src[~in_range]] = True
    keys = np.where(in_range, src * n + dst, -1)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeated = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
    bad[src[repeated]] = True
    edge_keys = np.sort(np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]]))
    if edge_keys.size:  # without edges, any rotation entry fails the degree test
        at = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
        bad[src[edge_keys[at] != keys]] = True
    if bad.any():
        v = int(np.argmax(bad))
        raise StructureError(f"rotation at vertex {v} does not match its incident edges")

    twin = order[np.searchsorted(sorted_keys, dst * n + src)]
    start = offset[dst]
    return src, start + (twin - start + 1) % deg[dst]


def face_cycle_from(rotation: list[list[int]], u: int, v: int) -> tuple[int, ...]:
    """Trace the single face containing the directed edge (u, v)."""
    cycle = [u]
    a, b = u, v
    while True:
        rot = rotation[b]
        k = rot.index(a)
        a, b = b, rot[(k + 1) % len(rot)]
        if (a, b) == (u, v):
            break
        cycle.append(a)
    return tuple(cycle)


def euler_check(graph: LabeledGraph, faces: list[tuple[int, ...]]) -> bool:
    return graph.n - len(graph.edges) + len(faces) == 2


def internal_triangles(graph: LabeledGraph, emb: Embedding) -> np.ndarray:
    """(F, 3) array of the bounded faces of a triangulated embedding, one
    counterclockwise (canonical) vertex cycle per row, in face-tracing order.

    Works on the half-edge arrays of ``_half_edges`` without a walk: every
    face is a triangle exactly when ``nxt`` applied three times is the
    identity; each face is read at its smallest half-edge ``h`` as
    ``src[h], src[nxt[h]], src[nxt[nxt[h]]]`` (so rows come in the order of
    each face's smallest half-edge) and rotated to start at its smallest
    vertex.  Raises StructureError unless every face is a triangle, Euler's
    formula holds and the embedding's outer face is among the traced faces.
    """
    src, nxt = _half_edges(graph, emb.rotation)
    nxt2 = nxt[nxt]
    h = np.arange(nxt.size)
    off = np.flatnonzero(nxt[nxt2] != h)
    if off.size:
        # the smallest half-edge off a triangle starts the first such face
        first = int(off[0])
        face = face_cycle_from(emb.rotation, int(src[first]), int(src[nxt[first]]))
        raise StructureError(f"face {canonical_cycle(face)} is not a triangle")
    lead = np.flatnonzero((h < nxt) & (h < nxt2))
    verts = src[np.stack([lead, nxt[lead], nxt2[lead]], axis=1)]
    shift = np.argmin(verts, axis=1)[:, None] + np.arange(3)
    faces = np.take_along_axis(verts, shift % 3, axis=1)
    if not euler_check(graph, faces):
        raise StructureError(
            f"not a plane embedding: V - E + F = {graph.n - len(graph.edges) + len(faces)}, not 2"
        )
    outer = canonical_cycle(tuple(emb.outer_face))
    hit = np.zeros(len(faces), dtype=bool)
    if len(outer) == 3:
        hit = (faces[:, 0] == outer[0]) & (faces[:, 1] == outer[1]) & (faces[:, 2] == outer[2])
    if not hit.any():
        raise StructureError(f"outer face {outer} not found among traced faces")
    return faces[~hit]


@dataclass
class BuildSequence:
    """Certificate that a graph is a planar 3-tree.

    ``base`` is the initial triangle; ``steps`` lists, in insertion order,
    each added vertex with the face triangle it was joined to.
    """

    base: tuple[int, int, int]
    steps: list[tuple[int, tuple[int, int, int]]]


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
    protected = set(keep) if keep is not None else set()
    if keep is not None:
        a, b, c = keep
        if not (graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c)):
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
    if not (graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c)):
        raise NotPlanar3TreeError(f"not a 3-tree: final three vertices {base_vs} are not a triangle")
    if keep is not None and set(base_vs) != protected:
        raise NotPlanar3TreeError(f"elimination ended at {base_vs}, expected {keep}")

    seq = BuildSequence(base_vs, removed[::-1])
    _check_planarity(seq, n)
    return seq


_PLANARITY_ERRORS = {
    "face": "not planar: insertion of vertex {x} targets triangle {tri}, "
    "which is not a face of the partial embedding",
    "range": "not a 3-tree: inserted vertex {x} is out of range for {n} vertices",
    "placed": "not a 3-tree: vertex {x} is already placed",
}


def _check_planarity(seq: BuildSequence, n: int) -> None:
    """Raise NotPlanar3TreeError at the first step of ``seq`` that does not
    insert a new vertex into a face of the partial embedding; either side of
    the bare base triangle is a face."""
    check = _check_build_sequence(seq, n, base_uses=2)
    if check.bad >= 0:
        x, tri = seq.steps[check.bad]
        raise NotPlanar3TreeError(_PLANARITY_ERRORS[check.reason].format(x=x, tri=tri, n=n))


@dataclass
class _StepCheck:
    """A build sequence as arrays, with the first step that fails."""

    xs: np.ndarray  # (S,) inserted vertices
    tris: np.ndarray  # (S, 3) their triangles
    level: np.ndarray  # (S,) one more than the deepest corner's level; the base is level 0
    bad: int  # the first failing step, -1 when every step passes
    reason: str  # "face", "range" or "placed" for the failing step, else ""


def _check_build_sequence(seq: BuildSequence, n: int, base_uses: int) -> _StepCheck:
    """Check each step of ``seq`` against the faces of the partial embedding,
    with array operations only.

    A step fails with reason "face" when its triangle is not a face at that
    point, else "range" when it inserts a vertex outside ``0..n-1``, else
    "placed" when it inserts a base vertex or one an earlier step inserted.

    The face test is exact whenever the earlier steps pass.  Every face but
    the base is made by the step that inserts its newest corner ``y``: it is
    ``y`` plus two corners of ``y``'s own triangle, and it gets the key
    ``3*y + (position of the corner of y's triangle it leaves out)``.  So a
    triangle is a face if and only if its corners are distinct, its newest
    corner was inserted at an earlier step, its other two corners lie on that
    corner's triangle (or all three are the base), and no earlier step took
    the same key.  The base may be taken ``base_uses`` times: 2 when both
    sides of the bare triangle count, 1 for its bounded side alone.

    The newest corner is one level deeper than the corners of its own
    triangle, so a step's level is one more than the level of the step that
    inserted its newest corner.  Those parent steps form a forest, and its
    depths come from pointer doubling.
    """
    count = len(seq.steps)
    step = np.arange(count)
    xs = np.fromiter((x for x, _ in seq.steps), dtype=np.int64, count=count)
    tris = np.array([tri for _, tri in seq.steps], dtype=np.int64).reshape(count, 3)
    x_in = (xs >= 0) & (xs < n)
    # the first step inserting each vertex: -1 for the base vertices, and
    # ``count`` for the rest and for the sentinel n standing in for every
    # vertex out of range
    first = np.full(n + 1, count)
    inserted, at = np.unique(xs[x_in], return_index=True)
    first[inserted] = np.flatnonzero(x_in)[at]
    first[list(seq.base)] = -1
    first[n] = count
    corners = np.where((tris >= 0) & (tris < n), tris, n)
    born = first[corners]
    newest = born.argmax(axis=1)
    parent = born[step, newest]
    y = corners[step, newest]
    older = corners[step[:, None], (newest[:, None] + [1, 2]) % 3]
    host = corners[np.where((parent >= 0) & (parent < step), parent, 0)]
    on_host = older[:, :, None] == host[:, None, :]
    left_out = 3 - on_host.argmax(axis=2).sum(axis=1)
    on_base = parent == -1
    distinct = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])
    face = distinct & (parent < step) & (on_base | on_host.any(axis=2).all(axis=1))
    key = np.where(on_base, -1, 3 * y + left_out)
    # a face is used up once its key has been taken as often as allowed
    takers = np.flatnonzero(face)
    takers = takers[np.argsort(key[takers], kind="stable")]
    taken = key[takers]
    group = np.ones(taken.size, dtype=bool)
    group[1:] = taken[1:] != taken[:-1]
    rank = np.arange(taken.size) - np.maximum.accumulate(np.where(group, np.arange(taken.size), 0))
    face[takers[rank >= np.where(taken == -1, base_uses, 1)]] = False

    fails = np.stack([~face, ~x_in, first[np.where(x_in, xs, n)] < step])
    failing = np.flatnonzero(fails.any(axis=0))
    bad = int(failing[0]) if failing.size else -1
    reason = ("face", "range", "placed")[int(np.argmax(fails[:, bad]))] if bad >= 0 else ""

    level = np.ones(count, dtype=np.int64)
    up = np.where(face, parent, -1)  # a failing step starts a tree, so no cycle forms
    while (below := np.flatnonzero(up >= 0)).size:
        level[below] += level[up[below]]
        up[below] = up[up[below]]
    return _StepCheck(xs, tris, level, bad, reason)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def write_graph(graph: LabeledGraph) -> str:
    lines = [f"graph {graph.n}"]
    for i, j in sorted(graph.edges):
        lines.append(f"e {i} {j}")
    for v in sorted(graph.labels):
        lines.append(f"l {v} {graph.labels[v]}")
    return "\n".join(lines) + "\n"


def text_records(text: str, arity: dict[str, int]) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, tag, fields) for each record of a line-based text
    format, skipping blank and ``#`` lines.  ``arity`` maps every known tag
    to its minimum field count; other tags and short records raise a
    StructureError naming the line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        tag, fields = parts[0], parts[1:]
        if tag not in arity:
            raise StructureError(f"line {lineno}: unknown record {tag!r}")
        if len(fields) < arity[tag]:
            raise StructureError(
                f"line {lineno}: {tag!r} record needs {arity[tag]} fields, got {len(fields)}"
            )
        yield lineno, tag, fields


def parse_numbers(lineno: int, fields: list[str], kind: type) -> list:
    """``kind`` applied to each field of the record on line ``lineno``; a
    field that does not parse raises a StructureError naming the line."""
    try:
        return [kind(f) for f in fields]
    except ValueError as exc:
        raise StructureError(f"line {lineno}: {exc}") from None


def read_graph(text: str) -> LabeledGraph:
    graph: LabeledGraph | None = None
    for lineno, tag, fields in text_records(text, {"graph": 1, "e": 2, "l": 2}):
        if tag == "graph":
            (n,) = parse_numbers(lineno, fields[:1], int)
            if n < 0:
                raise StructureError(f"line {lineno}: negative vertex count {n}")
            graph = LabeledGraph(n)
        elif graph is None:
            raise StructureError(f"line {lineno}: {tag!r} record before the 'graph' header")
        elif tag == "e":
            graph.add_edge(*parse_numbers(lineno, fields[:2], int))
        else:
            (v,) = parse_numbers(lineno, fields[:1], int)
            graph.labels[v] = fields[1]
    if graph is None:
        raise StructureError("missing 'graph <V>' header")
    graph.validate()
    return graph


def write_embedding(emb: Embedding) -> str:
    lines = []
    for v, rot in enumerate(emb.rotation):
        lines.append("rot " + str(v) + " " + " ".join(str(u) for u in rot))
    lines.append("outer " + " ".join(str(v) for v in emb.outer_face))
    return "\n".join(lines) + "\n"


def read_embedding(text: str) -> Embedding:
    rot: dict[int, list[int]] = {}
    outer: tuple[int, ...] | None = None
    for lineno, tag, fields in text_records(text, {"rot": 1, "outer": 3}):
        vertices = parse_numbers(lineno, fields, int)
        if tag == "rot":
            rot[vertices[0]] = vertices[1:]
        else:
            outer = tuple(vertices)
    if outer is None:
        raise StructureError("missing 'outer' line")
    n = max(rot) + 1 if rot else 0
    if sorted(rot) != list(range(n)):
        raise StructureError("rotation lines do not cover a dense vertex range")
    return Embedding([rot[v] for v in range(n)], outer)
