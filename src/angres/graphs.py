"""Simple undirected labeled graphs, rotation systems and 3-tree machinery.

Conventions used throughout the package:

* vertices are dense integer indices ``0 .. n-1``, with ``n`` at most
  ``MAX_VERTICES``, so that edge keys ``v * n + u`` fit int64;
* a graph's edges are the rows ``(i, j)``, ``i < j``, of a sorted (m, 2)
  int64 array without repeats; ``LabeledGraph`` builds it from any pairs;
* a rotation system lists, for every vertex, its neighbors in *clockwise*
  order, stored as two int64 CSR arrays: vertex ``v``'s row is
  ``nbr[offset[v]:offset[v+1]]``, and half-edge ``offset[v] + k`` runs from
  ``v`` to ``nbr[offset[v] + k]``.  With clockwise rotations the face walk
  ``next(u -> v) = (v, successor of u in row v)`` traces every bounded face
  as a counterclockwise vertex cycle and the outer face as a clockwise
  cycle.

The edges of a plane graph are exactly the neighbour pairs of its rotation
system, so the family builders write rotations alone and read each edge
array off one with ``rotation_edges``.

One NumPy kernel (``_half_edges``) checks the rotation against the edges
and builds the face-successor permutation ``nxt`` over the half-edges;
``internal_triangles``, the package's one face reader, reads a
triangulation's faces from ``nxt`` with array operations alone.

A planar 3-tree's build sequence is a base triangle and two int64 arrays,
inserted vertices ``xs`` (S,) and their triangles ``tris`` (S, 3), written
once by the elimination (CSR neighbour lists, integer degree counters, int
edge keys) and read as they are.  A second kernel (``_check_build_sequence``)
checks it without a replay: it gives every face of the partial embedding an
integer key from the step that made it, so finding the first step that does
not target a face, and each step's level, takes array operations over all
steps at once.  ``verify_planar_3tree`` and ``layout``'s replay plan use it,
each passing the messages and the error type it raises at the first bad step.

The family builders record the order they stacked a graph in as its
``certificate``.  Rooted at the triangle the caller keeps, a certificate
that passes the same kernel and implies exactly the graph's edges
(``_certified``) stands in for the elimination; any other graph is
eliminated.  ``_rooted_sequence`` lists either by level, then by vertex.

The text formats (``.graph`` and ``.emb`` here, ``.drawing`` in
``metrics``) are read by one array tokenizer, ``Records``: each check runs
over all records at once, and the earliest failing line is reported.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np


class StructureError(ValueError):
    """A graph or embedding violates a structural precondition."""


class NotPlanar3TreeError(StructureError):
    """The graph failed planar 3-tree verification."""


# The most vertices a graph may have: every edge and half-edge key
# v * n + u, with v and u below n, is then below n * n and fits int64.
MAX_VERTICES = math.isqrt(2**63 - 1)


def _pair_error(i: int, j: int, n: int) -> str:
    """Why the pair ``(i, j)`` is not an edge of a simple graph on ``n``
    vertices: a negative end, a self-loop or an end of ``n`` or more."""
    if i < 0 or j < 0:
        return f"bad edge ({i}, {j}) for n={n}"
    if i == j:
        return f"self-loop at vertex {i}"
    return f"edge ({min(i, j)}, {max(i, j)}) exceeds vertex count {n}"


def _canonical_edges(pairs, n: int) -> np.ndarray:
    """The edges ``pairs`` name (any iterable of pairs or an (m, 2) array, in
    any order and orientation, repeats allowed) as the sorted (m, 2) int64
    array of rows ``(i, j)``, ``i < j``, without repeats.  Raises a
    StructureError for the first pair that is not an edge on ``n`` vertices."""
    if not isinstance(pairs, np.ndarray):
        pairs = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64)
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    bad = (lo < 0) | (lo == hi) | (hi >= n)
    if bad.any():
        raise StructureError(_pair_error(*ends[np.argmax(bad)].tolist(), n))
    keys = np.sort(lo * n + hi)
    keys = keys[np.diff(keys, prepend=-1) > 0]  # every key is positive
    return np.stack(np.divmod(keys, max(n, 1)), axis=1)


# the code points no label may hold: XML 1.0 allows none of them in a
# document but tab, LF and CR, and those split a label's token in ``.graph``
_NOT_XML = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(eq=False)
class LabeledGraph:
    """Simple undirected graph with optional role labels on vertices.  The
    constructor stores any ``edges`` pairs in the package's edge format (see
    the module docstring).  ``==`` is identity, as ``edges`` is an array.

    ``certificate``, when set, is the build sequence the graph was stacked
    by (the family builders record theirs); verification checks it exactly
    before using it, so a stale or wrong one only costs the elimination."""

    n: int
    edges: np.ndarray = ()
    labels: dict[int, str] = field(default_factory=dict)
    certificate: BuildSequence | None = None

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise StructureError(_count_error(self.n))
        self.edges = _canonical_edges(self.edges, self.n)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges.tolist():
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def validate(self) -> None:
        for v, name in self.labels.items():
            if not 0 <= v < self.n:
                raise StructureError(f"label on unknown vertex {v}")
            if bad := _NOT_XML.search(name):
                raise StructureError(
                    f"label on vertex {v} holds U+{ord(bad.group()):04X}, "
                    "a control, surrogate or noncharacter code point"
                )
        names = list(self.labels.values())
        if len(names) != len(set(names)):
            raise StructureError("duplicate vertex labels")


def max_degree(graph: LabeledGraph) -> int:
    return int(np.bincount(graph.edges.ravel(), minlength=graph.n).max(initial=0))


@dataclass(eq=False)
class Embedding:
    """Rotation system in the package's CSR format (``offset`` (n+1,) and
    ``nbr`` (2m,), both int64) + outer face, the face walk's clockwise vertex
    cycle.  ``==`` is identity, as the rotation is arrays."""

    offset: np.ndarray
    nbr: np.ndarray
    outer_face: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows: list[list[int]], outer_face: tuple[int, ...]) -> Embedding:
        """The embedding whose vertex ``v`` has the clockwise row ``rows[v]``.
        An entry beyond int64 is stored as -1: out of range either way, it
        fails the same check against the edges."""
        offset = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
        flat = [u for row in rows for u in row]
        try:
            nbr = np.array(flat, dtype=np.int64)
        except OverflowError:
            nbr = np.array([u if -(2**63) <= u < 2**63 else -1 for u in flat], dtype=np.int64)
        return cls(offset, nbr, outer_face)

    def row(self, v: int) -> np.ndarray:
        """Vertex ``v``'s clockwise neighbours, a view into ``nbr``."""
        return self.nbr[self.offset[v] : self.offset[v + 1]]


def canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a cyclic sequence so its smallest element comes first."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def rotation_edges(emb: Embedding) -> np.ndarray:
    """The edges of a rotation system over vertices ``0 .. n-1``, in the
    package's edge format: each pair ``(v, u)`` with ``v < u`` and ``u`` in
    row ``v``, read as one sort of ``v * n + u`` keys.  An entry of ``n`` or
    more raises a StructureError."""
    n = len(emb.offset) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(emb.offset))
    return _canonical_edges(np.stack([src, emb.nbr], axis=1)[src < emb.nbr], n)


def _half_edges(graph: LabeledGraph, emb: Embedding) -> tuple[np.ndarray, np.ndarray]:
    """Half-edge arrays ``(src, nxt)`` of a rotation system.

    Half-edge ``h = offset[v] + k`` runs from ``v`` to ``dst[h] = nbr[h]``;
    ``src[h]`` is ``v`` and ``nxt[h]`` is the next half-edge of its face,
    ``offset[dst] + (position of src in row dst + 1) % deg[dst]``.  The
    twin positions come from one sorted lookup of ``src * n + dst`` keys.
    Raises StructureError, naming the smallest such vertex, when some
    vertex's rotation does not list its incident edges exactly once each.
    """
    n = graph.n
    offset, dst = emb.offset, emb.nbr
    if len(offset) - 1 != n:
        raise StructureError(f"rotation covers {len(offset) - 1} vertices, graph has {n}")
    deg = np.diff(offset)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)

    ends = graph.edges
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


def face_cycle_from(emb: Embedding, u: int, v: int) -> tuple[int, ...]:
    """Trace the single face containing the directed edge (u, v)."""
    cycle = [u]
    a, b = u, v
    while True:
        rot = emb.row(b).tolist()
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
    src, nxt = _half_edges(graph, emb)
    nxt2 = nxt[nxt]
    h = np.arange(nxt.size)
    off = np.flatnonzero(nxt[nxt2] != h)
    if off.size:
        # the smallest half-edge off a triangle starts the first such face
        first = int(off[0])
        face = canonical_cycle(face_cycle_from(emb, int(src[first]), int(src[nxt[first]])))
        raise StructureError(f"face of length {len(face)} starting {face[:3]} is not a triangle")
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


@dataclass(eq=False)
class BuildSequence:
    """Certificate that a graph is a planar 3-tree: from the triangle
    ``base``, step ``k`` joins vertex ``xs[k]`` to the face ``tris[k]``, in
    int64 arrays (S,) and (S, 3).  ``==`` is identity, as the steps are arrays.
    """

    base: tuple[int, int, int]
    xs: np.ndarray
    tris: np.ndarray


def verify_planar_3tree(
    graph: LabeledGraph, keep: tuple[int, int, int] | None = None
) -> BuildSequence:
    """Verify that ``graph`` is a planar 3-tree; return its build sequence,
    its steps listed by level, then by vertex (``_rooted_sequence``).

    Runs greedy simplicial elimination (remove a degree-3 vertex whose
    neighborhood is a triangle, smallest vertex first) and then checks the
    reversed sequence with the array kernel ``_check_build_sequence``: every
    step must insert its vertex into a face of the partial embedding (the
    bare base triangle bounds two), which certifies planarity.  When
    ``keep`` is given, those three mutually adjacent vertices are never
    eliminated, so the returned sequence is rooted at that triangle.

    A built family records the order it was stacked in.  When ``keep`` is
    given and that certificate, rooted at ``keep``, passes ``_certified``'s
    exact check, it stands in for the elimination, with the same result.
    """
    return _rooted_sequence(graph, keep, 2, _PLANARITY_ERRORS, NotPlanar3TreeError)[0]


def _rooted_sequence(
    graph: LabeledGraph, keep: tuple[int, int, int] | None, base_uses: int, errors, error
) -> tuple[BuildSequence, np.ndarray]:
    """The build sequence of ``graph`` rooted at ``keep`` (at the
    elimination's last triangle when ``keep`` is None) and its steps'
    levels: the certificate when ``_certified`` passes it, else the
    elimination's sequence, which ``_check_build_sequence`` checks with
    ``base_uses``, ``errors`` and ``error``.  Rooted at one triangle, each
    vertex's triangle and level are fixed and only the steps' order is
    free, so both are listed by level, then by vertex, each triangle and the
    base sorted: the same bytes either way."""
    level, seq = _certified(graph, keep, base_uses), graph.certificate
    if level is None:
        seq = _eliminate(graph, keep)
        level = _check_build_sequence(seq, graph.n, base_uses, errors, error)
    order = np.lexsort((seq.xs, level))
    base = tuple(sorted(int(v) for v in seq.base))
    return BuildSequence(base, seq.xs[order], np.sort(seq.tris[order], axis=1)), level[order]


def _certified(
    graph: LabeledGraph, keep: tuple[int, int, int] | None, base_uses: int
) -> np.ndarray | None:
    """The levels of the steps of ``graph``'s certificate (as
    ``_check_build_sequence`` returns them); None, to eliminate, unless
    ``keep`` is given and the certificate is a build sequence of exactly
    this graph rooted at it: based on three distinct vertices of ``keep`` as
    a set, one int64 step per other vertex, passing
    ``_check_build_sequence`` with ``base_uses``, and with its 3S + 3 edges,
    sorted, equal to ``graph.edges``.  A certificate that fails only by
    ``base_uses`` fails the elimination's sequence too, with its own error.
    The certificate is trusted in nothing."""
    cert, n = graph.certificate, graph.n
    if cert is None or keep is None or set(cert.base) != set(keep):
        return None
    base = sorted(int(v) for v in keep)
    xs, tris = cert.xs, cert.tris
    if (
        len(base) != 3
        or not 0 <= base[0] < base[1] < base[2] < n
        or xs.dtype != np.int64
        or tris.dtype != np.int64
        or xs.shape != (n - 3,)
        or tris.shape != (n - 3, 3)
    ):
        return None
    try:
        level = _check_build_sequence(cert, n, base_uses, _PLANARITY_ERRORS, NotPlanar3TreeError)
    except NotPlanar3TreeError:
        return None
    # every corner is now in range and no edge repeats in a valid sequence
    a, b, c = base
    x = np.concatenate([[a, a, b], np.repeat(xs, 3)])
    y = np.concatenate([[b, c, c], tris.ravel()])
    keys = np.sort(np.minimum(x, y) * n + np.maximum(x, y))
    if not np.array_equal(keys, graph.edges[:, 0] * n + graph.edges[:, 1]):
        return None
    return level


def _eliminate(graph: LabeledGraph, keep: tuple[int, int, int] | None) -> BuildSequence:
    """``verify_planar_3tree``'s elimination, on CSR neighbour lists and
    integer degree counters: its build sequence, with faces not checked yet."""
    n = graph.n
    if n < 3:
        raise NotPlanar3TreeError(f"need at least 3 vertices, got {n}")
    if len(graph.edges) != 3 * n - 6:
        raise NotPlanar3TreeError(
            f"not a 3-tree: E={len(graph.edges)} but a 3-tree on {n} vertices has {3 * n - 6}"
        )
    ends = graph.edges
    edge_keys = set((ends[:, 0] * n + ends[:, 1]).tolist())  # i < j in every edge

    def is_triangle(tri: tuple[int, ...]) -> bool:
        a, b, c = sorted(tri) if len(tri) == 3 else (0, 0, 0)
        return 0 <= a < b < c < n and {a * n + b, a * n + c, b * n + c} <= edge_keys

    protected = set(keep) if keep is not None else set()
    if keep is not None and not is_triangle(keep):
        raise StructureError(f"keep triple {keep} is not a triangle")

    # neighbour lists (CSR) from one argsort of the edge array; a vertex's
    # live neighbours are the alive entries of its row
    src = ends.T.ravel()
    nbr = ends[:, ::-1].T.ravel()[np.argsort(src)].tolist()
    counts = np.bincount(src, minlength=n)
    offset = np.concatenate([[0], np.cumsum(counts)]).tolist()
    deg = counts.tolist()
    alive = [True] * n
    remaining = n

    # A vertex is pushed once, when its degree is 3 at the start or drops to
    # 3, and its triangle is tested when it is popped: while its degree stays
    # 3 its neighbourhood, and so the test, cannot change.  So the vertices
    # accepted, and their order, are those of a probe after every removal.
    heap = [v for v in np.flatnonzero(counts == 3).tolist() if v not in protected]
    heapq.heapify(heap)
    removed: list[int] = []  # each removed vertex, then its sorted triangle
    while remaining > 3 and heap:
        v = heapq.heappop(heap)
        if deg[v] != 3:
            continue
        a, b, c = sorted(u for u in nbr[offset[v] : offset[v + 1]] if alive[u])
        if a * n + b not in edge_keys or a * n + c not in edge_keys or b * n + c not in edge_keys:
            continue
        removed += v, a, b, c
        alive[v] = False
        remaining -= 1
        for u in (a, b, c):
            deg[u] -= 1
            if deg[u] == 3 and u not in protected:
                heapq.heappush(heap, u)
    if remaining != 3:
        stuck = [v for v in range(n) if alive[v]]
        raise NotPlanar3TreeError(
            f"not a 3-tree: elimination stuck with {remaining} vertices remaining "
            f"(first few: {stuck[:8]})"
        )
    base_vs = tuple(v for v in range(n) if alive[v])
    if not is_triangle(base_vs):
        raise NotPlanar3TreeError(f"not a 3-tree: final three vertices {base_vs} are not a triangle")

    steps = np.array(removed, dtype=np.int64).reshape(-1, 4)[::-1]
    return BuildSequence(base_vs, steps[:, 0].copy(), steps[:, 1:].copy())


_PLANARITY_ERRORS = {
    "face": "not planar: insertion of vertex {x} targets triangle {tri}, "
    "which is not a face of the partial embedding",
    "range": "not a 3-tree: inserted vertex {x} is out of range for {n} vertices",
    "placed": "not a 3-tree: vertex {x} is already placed",
}


def _check_build_sequence(
    seq: BuildSequence, n: int, base_uses: int, errors: dict[str, str], error: type[StructureError]
) -> np.ndarray:
    """Check each step of ``seq`` against the faces of the partial embedding,
    with array operations only, on the sequence's own arrays; return each
    step's level (S,), one more than the deepest corner's (the base is 0).

    A step fails with reason "face" when its triangle is not a face at that
    point, else "range" when it inserts a vertex outside ``0..n-1``, else
    "placed" when it inserts a base vertex or one an earlier step inserted.
    The first failing step raises ``error`` with the message
    ``errors[reason]``, formatted with the step's ``x`` and ``tri`` and ``n``.

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
    xs, tris = seq.xs, seq.tris
    count = xs.size
    step = np.arange(count)
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
    if failing.size:
        bad = int(failing[0])
        reason = ("face", "range", "placed")[int(np.argmax(fails[:, bad]))]
        x, tri = int(xs[bad]), tuple(tris[bad].tolist())
        raise error(errors[reason].format(x=x, tri=tri, n=n))

    # every step passed, so each parent is -1 or an earlier step
    level = np.ones(count, dtype=np.int64)
    while (below := np.flatnonzero(parent >= 0)).size:
        level[below] += level[parent[below]]
        parent[below] = parent[parent[below]]
    return level


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

# The code points str.split() splits at (those of str.isspace) and those at
# which str.splitlines() ends a line; it reads "\r\n" as one line end.
_SPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_BREAK = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
# the class of each code point up to the last space, and of the one after it,
# which stands for every later one: 0 in a token, 1 a space, 2 a line break
_CLASS = np.zeros(ord(_SPACE[-1]) + 2, dtype=np.uint8)
_CLASS[[ord(c) for c in _SPACE]] = 1
_CLASS[[ord(c) for c in _BREAK]] = 2


class Records:
    """The records of a line-based text format as arrays, and the first
    fault found in them.

    A record is the whitespace-separated tokens of one line, a tag and then
    its fields; blank lines and lines whose first token starts with ``#``
    hold none.  ``text.split()`` gives every token, and one pass over the
    code points gives each token's line.  A reader runs each check over all
    records at once and reports the records that fail it with ``fault``, in
    the order a line-by-line reader checks one record; ``raise_first`` then
    raises the fault that reader would meet first: the one on the earliest
    line, and of one line's faults the one reported first.
    """

    def __init__(self, text: str):
        self.tokens = np.array(text.split(), dtype=object)
        if text.isascii():
            codes = np.frombuffer(text.encode(), dtype=np.uint8)
        else:  # a code point past the table reads as the table's last
            codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
            codes = np.minimum(codes, _CLASS.size - 1)
        kind = _CLASS[codes]
        space = kind > 0
        begins = np.flatnonzero(~space & np.insert(space[:-1], 0, True))  # each token's
        breaks = np.flatnonzero(kind == 2)
        crlf = (np.diff(breaks) == 1) & (codes[breaks[:-1]] == 13) & (codes[breaks[1:]] == 10)
        breaks = np.delete(breaks, np.flatnonzero(crlf) + 1)
        # line i + 1 holds tokens cut[i] .. cut[i + 1] - 1
        cut = np.concatenate([[0], np.searchsorted(begins, breaks), [begins.size]])
        lines = np.flatnonzero(np.diff(cut))
        heads = cut[lines]
        kept = codes[begins[heads]] != ord("#")
        self.start = heads[kept]  # each record's tag, an index into ``tokens``
        self.size = (cut[lines + 1] - heads - 1)[kept]  # its field count
        self.line = (lines + 1)[kept]  # its line number, ascending
        self.tag = self.tokens[self.start]
        self._first = None  # (line, message, k) of the first fault reported

    def select(self, arity: dict[str, int], exact: bool = True) -> dict[str, np.ndarray]:
        """For each tag of ``arity``, the indices of its records with
        ``arity[tag]`` fields, or at least that many unless ``exact``.
        Reports each record with another tag or field count."""
        tags = list(arity)
        which = np.full(self.tag.size, len(tags))
        for i, tag in enumerate(tags):
            which[self.tag == tag] = i
        need = np.array([*arity.values(), 0])[which]
        fits = (self.size == need) if exact else (self.size >= need)
        self.fault(self.line, which == len(tags), lambda k: f"unknown record {self.tag[k]!r}")
        self.fault(
            self.line,
            ~fits,
            lambda k: f"{self.tag[k]!r} record needs {need[k]} fields, got {self.size[k]}",
        )
        return {tag: np.flatnonzero(fits & (which == i)) for i, tag in enumerate(tags)}

    def fields(self, which: np.ndarray, columns: list[int] | None = None):
        """The fields of the records ``which``, record by record, as an
        object array: those at ``columns`` (0 is the first field), or all;
        and the line of each."""
        if columns is None:
            size = self.size[which]
            ends = np.cumsum(size)
            at = np.arange(ends[-1] if ends.size else 0)
            at += np.repeat(self.start[which] + 1 - (ends - size), size)
        else:
            size = np.full(which.size, len(columns))
            at = (self.start[which][:, None] + 1 + np.array(columns, dtype=np.int64)).ravel()
        return self.tokens[at], np.repeat(self.line[which], size)

    def numbers(self, tokens: np.ndarray, lines: np.ndarray, kind: type) -> np.ndarray:
        """``tokens``, on ``lines``, as ``kind`` (int or float) in an int64
        or float64 array; an int beyond int64 reads as -1.  Reports each
        token that does not parse, worded by the error of ``kind``; it
        reads as 0.  Only a column that fails to convert whole is parsed
        again token by token, to find those tokens."""
        dtype = np.int64 if kind is int else np.float64
        try:
            return tokens.astype(dtype)
        except (ValueError, OverflowError):
            pass
        values = np.zeros(tokens.size, dtype=dtype)
        why: dict[int, str] = {}
        for k, token in enumerate(tokens.tolist()):
            try:
                value = kind(token)
            except ValueError as exc:
                why[k] = str(exc)
            else:
                values[k] = value if kind is float or -(2**63) <= value < 2**63 else -1
        bad = np.zeros(tokens.size, dtype=bool)
        bad[list(why)] = True
        self.fault(lines, bad, why.__getitem__)
        return values

    def fault(self, lines: np.ndarray, bad: np.ndarray, message) -> None:
        """Report the records or fields on ``lines`` (ascending) that
        ``bad`` flags; ``message(k)`` words the fault of the k-th."""
        if bad.any():
            k = int(np.argmax(bad))
            if self._first is None or lines[k] < self._first[0]:
                self._first = (int(lines[k]), message, k)

    def repeated(self, lines: np.ndarray, keys: np.ndarray, message) -> None:
        """Report each record on ``lines`` whose key (a row of ``keys``,
        or one entry) equals an earlier record's."""
        if keys.ndim == 1:
            keys = keys[:, None]
        order = np.lexsort(keys.T[::-1])  # stable: equal keys stay in line order
        later = order[1:][(keys[order[1:]] == keys[order[:-1]]).all(axis=1)]
        bad = np.zeros(lines.size, dtype=bool)
        bad[later] = True
        self.fault(lines, bad, message)

    def raise_first(self) -> None:
        """Raise the first fault reported as a StructureError naming its line."""
        if self._first is not None:
            line, message, k = self._first
            raise StructureError(f"line {line}: {message(k)}")

    @staticmethod
    def by_vertex(vertices: np.ndarray, missing: str) -> np.ndarray:
        """Where each vertex ``0 .. len(vertices) - 1`` is in ``vertices``,
        distinct non-negative ints; raises a StructureError of ``missing``
        and the first vertex not there, when one is not."""
        at = np.full(vertices.size + 1, -1)
        at[np.minimum(vertices, vertices.size)] = np.arange(vertices.size)
        if (at[:-1] < 0).any():
            raise StructureError(f"{missing} for vertex {int(np.argmax(at[:-1] < 0))}")
        return at[:-1]


def write_graph(graph: LabeledGraph) -> str:
    edges = "e %d %d\n" * len(graph.edges) % tuple(graph.edges.ravel().tolist())
    labels = "".join(f"l {v} {graph.labels[v]}\n" for v in sorted(graph.labels))
    return f"graph {graph.n}\n" + edges + labels


def parse_numbers(lineno: int, fields: list[str], kind: type) -> list:
    """``kind`` applied to each field of the record on line ``lineno``; a
    field that does not parse raises a StructureError naming the line."""
    try:
        return [kind(f) for f in fields]
    except ValueError as exc:
        raise StructureError(f"line {lineno}: {exc}") from None


def _count_error(count: int) -> str:
    """Why ``count`` is not a vertex count: it is negative, beyond int64, or
    beyond ``MAX_VERTICES``."""
    if count < 0:
        return f"negative vertex count {count}"
    if count >= 2**63:
        return f"vertex count {count} beyond int64"
    return f"vertex count {count} exceeds {MAX_VERTICES}: edge keys would overflow int64"


def read_graph(text: str) -> LabeledGraph:
    """The graph of a ``graph``/``e``/``l`` text.  Each bad record, a
    repeated ``e`` record in either orientation among them, raises a
    StructureError naming its line; of several, the earliest line's."""
    rec = Records(text)
    picked = rec.select({"graph": 1, "e": 2, "l": 2})
    heads = np.flatnonzero(rec.tag == "graph")
    first = heads[0] if heads.size else rec.tag.size
    rec.fault(rec.line[heads], np.arange(heads.size) > 0, lambda k: "repeated 'graph' header")
    counts, lines = rec.fields(heads[:1][rec.size[heads[:1]] == 1], [0])
    count = rec.numbers(counts, lines, int)
    rec.fault(lines, (count < 0) | (count > MAX_VERTICES), lambda k: _count_error(int(counts[k])))
    n = max(int(count[0]), 0) if count.size else 0
    rec.fault(
        rec.line[:first],
        np.ones(first, dtype=bool),
        lambda k: f"{rec.tag[k]!r} record before the 'graph' header",
    )

    ends, lines = rec.fields(picked["e"])
    i, j = rec.numbers(ends, lines, int).reshape(-1, 2).T
    lines = lines[::2]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    rec.fault(
        lines,
        (lo < 0) | (lo == hi) | (hi >= n),
        lambda k: _pair_error(int(ends[2 * k]), int(ends[2 * k + 1]), n),
    )
    pairs = np.stack([lo, hi], axis=1)
    rec.repeated(lines, pairs, lambda k: f"repeated 'e' record for edge ({lo[k]}, {hi[k]})")

    labeled, lines = rec.fields(picked["l"], [0])
    v = rec.numbers(labeled, lines, int)
    rec.fault(lines, (v < 0) | (v >= n), lambda k: f"label on unknown vertex {int(labeled[k])}")
    rec.repeated(lines, v, lambda k: f"repeated 'l' record for vertex {v[k]}")
    rec.raise_first()
    if not heads.size:
        raise StructureError("missing 'graph <V>' header")
    names = rec.fields(picked["l"], [1])[0]
    graph = LabeledGraph(n, pairs, dict(zip(v.tolist(), names.tolist())))
    graph.validate()
    return graph


def write_embedding(emb: Embedding) -> str:
    deg = np.diff(emb.offset).tolist()
    rows = {k: "rot %d " + " ".join(["%d"] * k) + "\n" for k in set(deg)}
    # each vertex, then its row
    words = np.insert(emb.nbr, emb.offset[:-1], np.arange(len(deg)))
    text = "".join(map(rows.__getitem__, deg)) % tuple(words.tolist())
    return text + "outer " + " ".join(str(v) for v in emb.outer_face) + "\n"


def read_embedding(text: str) -> Embedding:
    """The embedding of a ``rot``/``outer`` text.  Each bad record raises a
    StructureError naming its line; of several, the earliest line's.  An
    entry beyond int64 reads as -1, so it fails the check against the
    edges."""
    rec = Records(text)
    picked = rec.select({"rot": 1, "outer": 3}, exact=False)
    rows, outers = picked["rot"], picked["outer"]
    tokens, lines = rec.fields(rows)
    entries = rec.numbers(tokens, lines, int)
    rec.numbers(*rec.fields(outers), int)
    size = rec.size[rows]
    head = np.cumsum(size) - size  # each row's vertex, an index into entries
    v = entries[head]
    lines = rec.line[rows]
    rec.fault(
        lines, v < 0, lambda k: f"'rot' record for vertex {int(tokens[head[k]])} out of range"
    )
    rec.repeated(lines, v, lambda k: f"repeated 'rot' record for vertex {v[k]}")
    rec.fault(rec.line[outers], np.arange(outers.size) > 0, lambda k: "repeated 'outer' record")
    rec.raise_first()
    if not outers.size:
        raise StructureError("missing 'outer' line")
    at = rec.by_vertex(v, "embedding has no 'rot' record")
    count = size[at] - 1
    offset = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(count, out=offset[1:])
    nbr = entries[np.repeat(head[at] + 1 - offset[:-1], count) + np.arange(offset[-1])]
    return Embedding(offset, nbr, tuple(int(u) for u in rec.fields(outers[:1])[0]))
