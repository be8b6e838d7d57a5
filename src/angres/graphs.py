"""Simple undirected labeled graphs, rotation systems and 3-tree machinery.

Conventions used throughout the package:

* vertices are dense integer indices ``0 .. n-1``, with ``n`` at most
  ``MAX_VERTICES``, so that edge keys ``v * n + u`` fit int64;
* a graph's edges are the rows ``(i, j)``, ``i < j``, of a sorted (m, 2)
  int64 array without repeats; ``LabeledGraph`` builds it from any pairs,
  and ``read_graph`` through it, by one sort of the keys ``i * n + j`` in
  place (``_canonical_edges``, ``_key_edges``);
* a rotation system lists, for every vertex, its neighbors in *clockwise*
  order, stored as two int64 CSR arrays: vertex ``v``'s row is
  ``nbr[offset[v]:offset[v+1]]``, and half-edge ``offset[v] + k`` runs from
  ``v`` to ``nbr[offset[v] + k]``.  With clockwise rotations the face walk
  ``next(u -> v) = (v, successor of u in row v)`` traces every bounded face
  as a counterclockwise vertex cycle and the outer face as a clockwise
  cycle.

The edges of a plane graph are exactly the neighbour pairs of its rotation
system, so the family builders write rotations alone and read each edge
array off one with ``rotation_edges``, by the same one sort of keys.

One NumPy kernel (``_half_edges``) checks the rotation against the edges
and pairs each half-edge with its twin by one sort of undirected edge keys,
then builds the face-successor permutation ``nxt`` over the half-edges;
``internal_triangles``, the package's one face reader, reads a
triangulation's faces from ``nxt`` with array operations alone and returns
the faces alone, with no map from half-edges to faces: every face is a
triangle, so the faces at a vertex are the rows that hold it.

The kernels that build, compile and check a graph hold at most a couple of
temporaries the size of their output at once: they form keys in place,
free what they no longer read before they allocate, and run the passes
whose temporaries would otherwise be that large ``_BLOCK`` half-edges,
edges or steps at a time.

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
over all records at once, and the earliest failing line is reported.  It
classifies the text's code points a chunk at a time and holds int32 (or
int64) columns of token and record positions, never a Python object per
token; number columns are parsed by ``np.fromstring`` from the tokens'
code points, and only a token its grammar refuses goes through ``int`` or
``float``.  The writers format a block of rows at a time.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import NoReturn

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
    StructureError for the first pair that is not an edge on ``n`` vertices.
    Besides the pairs and the edges it holds two int64 columns at once: each
    pair's lower end, which becomes its key ``i * n + j``, and its upper
    end (``_key_edges``)."""
    if not isinstance(pairs, np.ndarray):
        pairs = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64)
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    keys = np.minimum(ends[:, 0], ends[:, 1])
    hi = np.maximum(ends[:, 0], ends[:, 1])
    bad = (keys < 0) | (keys == hi) | (hi >= n)
    if bad.any():
        raise StructureError(_pair_error(*ends[np.argmax(bad)].tolist(), n))
    keys *= n
    keys += hi
    del hi
    return _key_edges(keys, n)


def _key_edges(keys: np.ndarray, n: int) -> np.ndarray:
    """The edge array of ``keys``, an int64 array of edge keys ``i * n + j``,
    ``0 <= i < j < n``, in any order, repeats allowed, which it sorts in
    place: the keys without repeats split by one divmod into the rows of
    the new (m, 2) array.  A repeat costs one copy of the keys."""
    keys.sort()
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    if not new.all():
        keys = keys[new]
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, max(n, 1), out=(edges[:, 0], edges[:, 1]))
    return edges


# Steps, edges or half-edges per block of the passes whose temporaries would
# otherwise be the size of the whole graph.
_BLOCK = 1 << 12


def _blocks(size: int):
    """Slices of ``range(size)``, ``_BLOCK`` at a time."""
    return (slice(a, min(a + _BLOCK, size)) for a in range(0, size, _BLOCK))


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
            if name.split() != [name]:  # ``read_graph`` reads a label as one token
                raise StructureError(f"label on vertex {v} is empty or holds a space: {name!r}")
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
    more raises a StructureError.  Besides the rotation and the edges it
    holds one int64 entry per half-edge, each one's source and then its
    key, and the keys of the pairs kept (``_key_edges``)."""
    n = len(emb.offset) - 1
    nbr = emb.nbr
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(emb.offset))
    far = nbr >= n
    if far.any():
        h = int(np.argmax(far))
        raise StructureError(_pair_error(int(keys[h]), int(nbr[h]), n))
    kept = keys < nbr
    keys *= n
    keys += nbr
    keys = keys[kept]
    del kept
    return _key_edges(keys, n)


def _half_edges(graph: LabeledGraph, emb: Embedding) -> np.ndarray:
    """The face-successor permutation ``nxt`` of a rotation system's
    half-edges.

    Half-edge ``h = offset[v] + k`` runs from ``v`` to ``dst[h] = nbr[h]``,
    and ``nxt[h]`` is the next half-edge of its face,
    ``offset[dst] + (position of v in row dst + 1) % deg[dst]``.  One sort
    of the undirected keys ``min(v, dst) * n + max(v, dst)`` both checks
    the rotation and pairs each half-edge with its twin: the rotation lists
    every vertex's incident edges exactly once each when its entries are in
    range and the sorted keys come in equal pairs, equal to the edges' own
    keys, of two half-edges with different ends.  Raises StructureError,
    naming the smallest such vertex, when some vertex's rotation does not.

    Besides the rotation it holds two int64 entries per half-edge at once:
    the keys and their order, then the order and ``nxt``; the keys are
    checked against the edges ``_BLOCK`` pairs at a time.
    """
    n = graph.n
    offset, dst = emb.offset, emb.nbr
    if len(offset) - 1 != n:
        raise StructureError(f"rotation covers {len(offset) - 1} vertices, graph has {n}")
    ends = graph.edges
    # range-check before forming keys: an entry outside 0..n-1 could
    # otherwise alias the key of a real edge
    if dst.size != 2 * len(ends) or not ((dst >= 0) & (dst < n)).all():
        _rotation_fault(graph, emb)
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(offset))  # each half-edge's source
    lo = np.minimum(keys, dst)
    np.maximum(keys, dst, out=keys)
    lo *= n
    keys += lo
    del lo
    order = np.argsort(keys)
    first, second = order[0::2], order[1::2]
    if not _twinned(keys, first, second, dst, ends, n):
        _rotation_fault(graph, emb)
    del keys
    nxt = np.empty_like(order)
    nxt[first], nxt[second] = second, first  # each half-edge's twin, in row dst
    del order, first, second
    # the twin's successor in its row, wrapping at the row's end
    last = np.zeros(nxt.size, dtype=bool)
    last[offset[1:][np.diff(offset) > 0] - 1] = True
    wrap = last[nxt]
    nxt += 1
    nxt[wrap] = offset[dst[wrap]]
    return nxt


def _twinned(keys, first, second, dst, ends, n: int) -> bool:
    """Whether the half-edges ``first`` and ``second`` have the keys of the
    edges ``ends``, edge by edge, and different ends ``dst``, which for
    equal keys means different sources; ``_BLOCK`` edges at a time."""
    for b in _blocks(len(ends)):
        want = ends[b, 0] * n + ends[b, 1]
        f, s = first[b], second[b]
        if not (
            np.array_equal(keys[f], want)
            and np.array_equal(keys[s], want)
            and (dst[f] != dst[s]).all()
        ):
            return False
    return True


def _rotation_fault(graph: LabeledGraph, emb: Embedding) -> NoReturn:
    """Raise the StructureError for a rotation that fails ``_half_edges``'
    check, naming the smallest vertex whose row does not list its incident
    edges exactly once each: a degree that is not the vertex's edge count,
    an entry out of range, a repeated entry or one that is no edge."""
    n, dst, ends = graph.n, emb.nbr, graph.edges
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(emb.offset))
    bad = np.diff(emb.offset) != np.bincount(ends.ravel(), minlength=n)
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
    v = int(np.argmax(bad))
    raise StructureError(f"rotation at vertex {v} does not match its incident edges")


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

    Works on ``_half_edges``' successor permutation ``nxt`` without a walk:
    every face is a triangle exactly when ``nxt`` applied three times is
    the identity; each face is read at its smallest half-edge ``h`` as the
    ends ``dst[nxt[nxt[h]]], dst[h], dst[nxt[h]]`` of its three half-edges
    (so rows come in the order of each face's smallest half-edge), which
    starts at its smallest vertex: sources ascend with ``h`` and a
    triangle's three vertices are distinct.  Raises StructureError unless
    every face is a triangle, Euler's formula holds and the embedding's
    outer face is among the traced faces.
    """
    return _triangles(graph, emb, 0)


def _triangles(graph: LabeledGraph, emb: Embedding, spare: int) -> np.ndarray:
    """``internal_triangles`` below ``spare`` rows left unset, for the
    caller to fill.  Besides the rotation and the rows it holds ``nxt`` and
    one bool per half-edge, marking each face's smallest; both passes over
    the half-edges run ``_BLOCK`` at a time."""
    nxt = _half_edges(graph, emb)
    dst = emb.nbr
    lead = np.empty(nxt.size, dtype=bool)
    for b in _blocks(nxt.size):
        h = np.arange(b.start, b.stop)
        n1 = nxt[b]
        n2 = nxt[n1]
        off = np.flatnonzero(nxt[n2] != h)
        if off.size:
            # the smallest half-edge off a triangle starts the first such face
            first = b.start + int(off[0])
            v = int(np.searchsorted(emb.offset, first, side="right")) - 1
            face = canonical_cycle(face_cycle_from(emb, v, int(dst[first])))
            raise StructureError(f"face of length {len(face)} starting {face[:3]} is not a triangle")
        np.less(h, n1, out=lead[b])
        lead[b] &= h < n2
    count = int(np.count_nonzero(lead))
    if graph.n - len(graph.edges) + count != 2:
        raise StructureError(
            f"not a plane embedding: V - E + F = {graph.n - len(graph.edges) + count}, not 2"
        )
    # the outer face's row (a, b, c) is read at the one half-edge a -> b
    # whose face is a triangle with c
    outer = canonical_cycle(tuple(emb.outer_face))
    hit = np.zeros(0, dtype=np.int64)
    if len(outer) == 3:
        hit = np.flatnonzero(dst == outer[1])
        n1 = nxt[hit]
        hit = hit[lead[hit] & (dst[nxt[n1]] == outer[0]) & (dst[n1] == outer[2])]
    if not hit.size:
        raise StructureError(f"outer face {outer} not found among traced faces")
    lead[hit] = False
    faces = np.empty((spare + count - hit.size, 3), dtype=np.int64)
    row = spare
    for b in _blocks(nxt.size):
        h = np.flatnonzero(lead[b])
        h += b.start
        n1 = nxt[h]
        rows = faces[row : row + h.size]
        rows[:, 0] = dst[nxt[n1]]
        rows[:, 1] = dst[h]
        rows[:, 2] = dst[n1]
        row += h.size
    return faces


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
    base sorted: the same bytes either way.  Besides the sequence and its
    levels it holds their order and the reordered copies, whose rows are
    sorted in place."""
    level, seq = _certified(graph, keep, base_uses), graph.certificate
    if level is None:
        seq = _eliminate(graph, keep)
        level = _check_build_sequence(seq, graph.n, base_uses, errors, error)
    key = level * graph.n
    key += seq.xs
    order = np.argsort(key)  # unique keys: each x is inserted once
    del key
    level = level[order]
    base = tuple(sorted(int(v) for v in seq.base))
    xs, tris = seq.xs[order], seq.tris[order]
    del order
    _sort_rows(tris)
    return BuildSequence(base, xs, tris), level


def _sort_rows(tris: np.ndarray) -> None:
    """Sort each row of the (S, 3) array ``tris`` in place, as
    ``np.sort(tris, axis=1)`` does, by a three-comparator network on its
    columns; it holds two columns more."""
    a, b, c = tris.T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    np.minimum(hi, c, out=a)  # the middle of hi and c, for now
    np.maximum(hi, c, out=c)
    del hi
    np.maximum(lo, a, out=b)
    np.minimum(lo, a, out=a)


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
    The certificate is trusted in nothing.  Besides the check's arrays it
    holds the certificate's 3S + 3 edge keys, sorted in place and compared
    with the edges' ``_BLOCK`` at a time."""
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
    keys = np.empty(3 * xs.size + 3, dtype=np.int64)
    keys[:3] = a * n + b, a * n + c, b * n + c
    for s in _blocks(xs.size):
        x, t = xs[s, None], tris[s]
        block = keys[3 + 3 * s.start : 3 + 3 * s.stop].reshape(-1, 3)
        np.minimum(x, t, out=block)
        block *= n
        block += np.maximum(x, t)
    keys.sort()
    ends = graph.edges
    if len(ends) != keys.size:
        return None
    for s in _blocks(keys.size):
        if not np.array_equal(keys[s], ends[s, 0] * n + ends[s, 1]):
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

    Besides the sequence it holds the first step of each vertex and each
    step's parent, key and face test, and then the keys' sort; the test
    runs ``_BLOCK`` steps at a time.
    """
    xs, tris = seq.xs, seq.tris
    count = xs.size
    x_in = (xs >= 0) & (xs < n)
    # the first step inserting each vertex: -1 for the base vertices, and
    # ``count`` for the rest and for the sentinel n standing in for every
    # vertex out of range
    first = np.full(n + 1, count)
    np.minimum.at(first, np.where(x_in, xs, n), np.arange(count))
    first[list(seq.base)] = -1
    first[n] = count
    parent = np.empty(count, dtype=np.int64)
    key = np.empty(count, dtype=np.int64)
    face, placed = np.empty(count, dtype=bool), np.empty(count, dtype=bool)
    for b in _blocks(count):
        step = np.arange(b.start, b.stop)
        np.less(first[np.where(x_in[b], xs[b], n)], step, out=placed[b])
        t = tris[b]
        corners = np.where((t >= 0) & (t < n), t, n)
        # column by column: the newest corner y is the first latest-born
        # one, as argmax picks it, and the other two follow it cyclically
        b0, b1, b2 = first[corners].T
        c0, c1, c2 = corners.T
        at0 = (b0 >= b1) & (b0 >= b2)
        at1 = ~at0 & (b1 >= b2)
        p = parent[b]
        np.maximum(np.maximum(b0, b1), b2, out=p)
        y = np.where(at0, c0, np.where(at1, c1, c2))
        host = tris[np.where((p >= 0) & (p < step), p, 0)]
        host = np.where((host >= 0) & (host < n), host, n).T
        on_host, left_out = True, 3
        for other in (np.where(at0, c1, np.where(at1, c2, c0)), np.where(at0, c2, np.where(at1, c0, c1))):
            # its first column on the host triangle (0 if none), as argmax
            hit = [other == column for column in host]
            on_host = on_host & (hit[0] | hit[1] | hit[2])
            left_out = left_out - np.where(hit[0], 0, np.where(hit[1], 1, 2 * hit[2]))
        on_base = p == -1
        t0, t1, t2 = t.T
        distinct = (t0 != t1) & (t1 != t2) & (t0 != t2)
        face[b] = distinct & (p < step) & (on_base | on_host)
        key[b] = np.where(on_base, -1, 3 * y + left_out)
    del first
    # a face is used up once its key has been taken as often as allowed: the
    # base's ``base_uses`` times, which sort first, and any other's once
    takers = np.flatnonzero(face)
    taken = key[takers]
    del key
    order = np.argsort(taken, kind="stable")
    taken = taken[order]
    again = np.zeros(taken.size, dtype=bool)
    np.equal(taken[1:], taken[:-1], out=again[1:])
    bases = int(np.searchsorted(taken, 0))
    del taken
    again[:bases] = False
    again[base_uses:bases] = True
    face[takers[order[again]]] = False
    del takers, order, again

    fails = (~face, ~x_in, placed)
    failing = np.flatnonzero(fails[0] | fails[1] | fails[2])
    if failing.size:
        bad = int(failing[0])
        reason = next(r for r, f in zip(("face", "range", "placed"), fails) if f[bad])
        x, tri = int(xs[bad]), tuple(tris[bad].tolist())
        raise error(errors[reason].format(x=x, tri=tri, n=n))

    # every step passed, so each parent is -1 or an earlier step
    level = np.ones(count, dtype=np.int64)
    below = np.flatnonzero(parent >= 0)
    while below.size:
        up = parent[below]
        level[below] += level[up]
        parent[below] = parent[up]
        below = below[parent[below] >= 0]
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
# which stands for every later one (``np.take(..., mode="clip")``): 0 in a
# token, 1 a space, 2 a line break
_CLASS = np.zeros(ord(_SPACE[-1]) + 2, dtype=np.uint8)
_CLASS[[ord(c) for c in _SPACE]] = 1
_CLASS[[ord(c) for c in _BREAK]] = 2


# Code points per chunk that ``Records`` classifies, and per window whose
# tokens ``Records.numbers`` parses: besides the text's codes, no array a
# reader builds per code point covers more than one chunk and one token.
_CHUNK = 1 << 16
_MAX_DIGITS = 18  # an int of at most this many digits fits int64
# Rows per block that a writer formats at once: a writer holds one block's
# values as Python objects, never the whole file's.
_ROWS = 1 << 12


def _accepted(c: np.ndarray, first: np.ndarray, kind: type) -> np.ndarray:
    """Which tokens of ``c``, side by side from each ``first`` and each
    followed by one space, the fast parse takes: for int an optional ``-``
    and 1 to ``_MAX_DIGITS`` ASCII digits; for float an optional ``-``,
    digits, optionally ``.`` and digits, and optionally ``e`` or ``E``, an
    optional sign and digits.  ``int()`` and ``float()`` read each of these
    as ``np.fromstring`` does."""
    digit = (c - 48) < 10  # wraps below "0"
    space = c == 32
    if kind is int:
        other = ~(digit | space)
        lead = c[first] == 45  # "-"
        other[first[lead]] = False
        digits = np.diff(first, append=c.size) - 1 - lead
        return ~np.logical_or.reduceat(other, first) & (digits >= 1) & (digits <= _MAX_DIGITS)
    sign = (c == 45) | (c == 43)
    dot = c == 46
    mark = (c | 32) == 101  # "e" or "E"
    # whether the next or the previous code point is a digit, and so on;
    # a space (or the start of ``c``) is none of these
    next_digit = np.append(digit[1:], False)
    prev_digit = np.insert(digit[:-1], 0, False)
    good = (
        digit
        | space
        | ((c == 45) & np.insert(space[:-1], 0, True) | sign & np.insert(mark[:-1], 0, False))
        & next_digit
        | dot & prev_digit & next_digit
        | mark & prev_digit & (next_digit | np.append(sign[1:], False))
    )
    ok = ~np.logical_or.reduceat(~good, first)
    # of the dots and marks of one token, only a dot then a mark may follow
    # each other
    at = np.flatnonzero(dot | mark)
    token = np.searchsorted(first, at, side="right") - 1
    after_dot = dot[at[:-1]] & mark[at[1:]]
    ok[token[1:][(token[1:] == token[:-1]) & ~after_dot]] = False
    return ok


class Records:
    """The records of a line-based text format as arrays, and the first
    fault found in them.

    A record is the whitespace-separated tokens of one line, a tag and then
    its fields; blank lines and lines whose first token starts with ``#``
    hold none.  The text's code points are classified ``_CHUNK`` at a time
    into each token's span, ``begin .. end - 1``, and each record's tag
    (``start``, an index into those), field count and line; no token is
    held as a Python object.  ``numbers`` parses a column of fields into an
    int64 or float64 array, and ``word`` gives one token's text, for a
    message or a label.

    A reader runs each check over all records at once and reports the
    records that fail it with ``fault``, in the order a line-by-line reader
    checks one record; ``raise_first`` then raises the fault that reader
    would meet first: the one on the earliest line, and of one line's
    faults the one reported first.
    """

    def __init__(self, text: str):
        self.text = text
        # the text's code points, uint8 when it is ASCII
        if text.isascii():
            codes = np.frombuffer(text.encode(), dtype=np.uint8)
        else:
            codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        self.codes = codes
        # positions, counts and line numbers: int32 unless the text is longer
        index = np.int32 if codes.size < 2**31 else np.int64
        begins, ends, heads, lines = ([np.zeros(0, dtype=index)] for _ in range(4))
        found = 0  # tokens before the chunk
        line = 1  # the line the chunk starts on
        last = 0  # the line of the last token before the chunk, 0 for none
        space_before = True  # whether the chunk follows a space, or starts the text
        for a in range(0, codes.size, _CHUNK):
            c = codes[a : a + _CHUNK]
            kind = np.take(_CLASS, c, mode="clip")
            space = kind > 0
            # where a token begins or ends, the two alternating: a begin
            # comes first unless the chunk starts inside a token
            flip = np.empty(c.size, dtype=bool)
            flip[0] = space[0] != space_before
            np.not_equal(space[1:], space[:-1], out=flip[1:])
            edge = np.flatnonzero(flip).astype(index)
            edge += a
            begin = edge[not space_before :: 2]
            begins.append(begin)
            ends.append(edge[space_before::2])
            breaks = np.flatnonzero(kind == 2).astype(index)
            breaks += a
            # "\r\n" is one line end: drop each "\n" that follows a "\r"
            crlf = (codes[breaks] == 10) & (breaks > 0) & (codes[np.maximum(breaks - 1, 0)] == 13)
            breaks = breaks[~crlf]
            on = line + np.searchsorted(breaks, begin)  # each token's line
            new = on != np.insert(on[:-1], 0, last)  # the first token of its line
            heads.append((np.flatnonzero(new) + found).astype(index))
            lines.append(on[new].astype(index))
            found += begin.size
            line += breaks.size
            last = on[-1] if on.size else last
            space_before = bool(space[-1])
        if not space_before:
            ends.append(np.array([codes.size], dtype=index))
        self.begin, self.end, heads, lines = map(np.concatenate, (begins, ends, heads, lines))
        kept = codes[self.begin[heads]] != ord("#")
        self.start = heads[kept]  # each record's tag, an index into ``begin``
        self.size = (np.diff(heads, append=index(found)) - 1)[kept]  # its field count
        self.line = lines[kept]  # its line number, ascending
        self._first = None  # (line, message, k) of the first fault reported

    def word(self, k: int) -> str:
        """The text of token ``k``."""
        return self.text[self.begin[k] : self.end[k]]

    def tagged(self, tag: str) -> np.ndarray:
        """Whether each record's tag is ``tag``."""
        first = self.begin[self.start]
        hit = self.end[self.start] - first == len(tag)
        for j, char in enumerate(tag):
            hit[hit] = self.codes[first[hit] + j] == ord(char)
        return hit

    def select(self, arity: dict[str, int], exact: bool = True) -> dict[str, np.ndarray]:
        """For each tag of ``arity``, the indices of its records with
        ``arity[tag]`` fields, or at least that many unless ``exact``.
        Reports each record with another tag or field count."""
        tags = list(arity)
        which = np.full(self.start.size, len(tags))
        for i, tag in enumerate(tags):
            which[self.tagged(tag)] = i
        need = np.array([*arity.values(), 0])[which]
        fits = (self.size == need) if exact else (self.size >= need)
        name = lambda k: self.word(self.start[k])
        self.fault(self.line, which == len(tags), lambda k: f"unknown record {name(k)!r}")
        self.fault(
            self.line,
            ~fits,
            lambda k: f"{name(k)!r} record needs {need[k]} fields, got {self.size[k]}",
        )
        return {tag: np.flatnonzero(fits & (which == i)) for i, tag in enumerate(tags)}

    def fields(self, which: np.ndarray, columns: list[int] | None = None) -> np.ndarray:
        """The fields of the records ``which``, record by record, as token
        indices: those at ``columns`` (0 is the first field), or all."""
        index = self.start.dtype
        if columns is None:
            size = self.size[which]
            ends = np.cumsum(size, dtype=index)
            at = np.arange(ends[-1] if ends.size else 0, dtype=index)
            at += np.repeat(self.start[which] + 1 - (ends - size), size)
        else:
            at = (self.start[which][:, None] + 1 + np.array(columns, dtype=index)).ravel()
        return at

    def numbers(self, at: np.ndarray, kind: type) -> np.ndarray:
        """Tokens ``at`` (ascending) as ``kind`` (int or float) in an int64
        or float64 array; an int beyond int64 reads as -1.  The tokens
        ``_accepted`` takes are parsed from their code points a window at a
        time; each other one goes through ``kind``, and is reported, worded
        by the error of ``kind``, when it does not parse; it reads as 0."""
        dtype = np.int64 if kind is int else np.float64
        values = np.zeros(at.size, dtype=dtype)
        # the tokens of ``at`` that begin in each window of _CHUNK code points
        windows = np.arange(0, self.codes.size + _CHUNK, _CHUNK, dtype=self.begin.dtype)
        windows = np.searchsorted(self.begin, windows)
        cuts = np.searchsorted(at, windows)
        # repeats dropped without np.unique, whose first plain call imports numpy.ma
        cuts = cuts[np.diff(cuts, prepend=-1) > 0].tolist()
        refused = []
        for i, j in zip(cuts, cuts[1:]):
            # the window's tokens side by side, each followed by a space
            begin = self.begin[at[i:j]]
            width = self.end[at[i:j]] - begin + 1
            stop = np.cumsum(width)
            first = stop - width
            # (the space after a token that ends the text lies past it:
            # clipped, then set)
            c = self.codes.take(np.repeat(begin - first, width) + np.arange(stop[-1]), mode="clip")
            c[stop - 1] = 32
            ok = _accepted(c, first, kind)
            if not ok.all():
                c[np.repeat(~ok, width)] = 32
            if ok.any():
                buf = c.astype(np.uint8).tobytes()
                values[i:j][ok] = np.fromstring(buf, dtype, int(ok.sum()), sep=" ")
            refused.append(np.flatnonzero(~ok) + i)
        why: dict[int, str] = {}
        for k in np.concatenate([np.zeros(0, dtype=np.int64), *refused]).tolist():
            try:
                value = kind(self.word(at[k]))
            except ValueError as exc:
                why[k] = str(exc)
            else:
                values[k] = value if kind is float or -(2**63) <= value < 2**63 else -1
        bad = np.array(list(why), dtype=np.int64)
        # each bad token's line, that of the record it is in
        lines = self.line[np.searchsorted(self.start, at[bad], side="right") - 1]
        self.fault(lines, np.ones(bad.size, dtype=bool), lambda k: why[bad[k]])
        return values

    def fault(self, lines: np.ndarray, bad: np.ndarray, message) -> None:
        """Report the records or fields on ``lines`` (ascending) that
        ``bad`` flags; ``message(k)`` words the fault of the k-th."""
        if bad.any():
            k = int(np.argmax(bad))
            if self._first is None or lines[k] < self._first[0]:
                self._first = (int(lines[k]), message, k)

    def repeated(self, lines: np.ndarray, keys: np.ndarray, message) -> None:
        """Report each record on ``lines`` whose key equals an earlier
        record's."""
        order = np.argsort(keys, kind="stable")  # equal keys stay in line order
        keys = keys[order]
        later = order[1:][keys[1:] == keys[:-1]]
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
    graph.validate()  # so that ``read_graph`` reads the text back
    edges = [
        "e %d %d\n" * len(block) % tuple(block.ravel().tolist())
        for block in np.split(graph.edges, range(_ROWS, len(graph.edges), _ROWS))
    ]
    labels = "".join(f"l {v} {graph.labels[v]}\n" for v in sorted(graph.labels))
    return "".join([f"graph {graph.n}\n", *edges, labels])


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
    graph = LabeledGraph(*_graph_records(text))
    graph.validate()
    return graph


def _graph_records(text: str) -> tuple[int, np.ndarray, dict[int, str]]:
    """``read_graph``'s vertex count, edge pairs and labels.  Its records
    are let go before the graph is built from them."""
    rec = Records(text)
    word = rec.word
    picked = rec.select({"graph": 1, "e": 2, "l": 2})
    heads = np.flatnonzero(rec.tagged("graph"))
    first = heads[0] if heads.size else rec.start.size
    rec.fault(rec.line[heads], np.arange(heads.size) > 0, lambda k: "repeated 'graph' header")
    head = heads[:1][rec.size[heads[:1]] == 1]  # the first header, with its one field
    counts = rec.fields(head, [0])
    count = rec.numbers(counts, int)
    rec.fault(
        rec.line[head],
        (count < 0) | (count > MAX_VERTICES),
        lambda k: _count_error(int(word(counts[k]))),
    )
    n = max(int(count[0]), 0) if count.size else 0
    rec.fault(
        rec.line[:first],
        np.ones(first, dtype=bool),
        lambda k: f"{word(rec.start[k])!r} record before the 'graph' header",
    )

    ends = rec.fields(picked["e"])
    pairs = rec.numbers(ends, int).reshape(-1, 2)
    lines = rec.line[picked["e"]]
    lo = pairs.min(axis=1)  # each pair ordered in place
    np.maximum(pairs[:, 0], pairs[:, 1], out=pairs[:, 1])
    pairs[:, 0] = lo
    lo, hi = pairs.T
    rec.fault(
        lines,
        (lo < 0) | (lo == hi) | (hi >= n),
        lambda k: _pair_error(int(word(ends[2 * k])), int(word(ends[2 * k + 1])), n),
    )
    # an edge's key; a pair out of range may share one, but it fails above
    # on its own line
    rec.repeated(lines, lo * n + hi, lambda k: f"repeated 'e' record for edge ({lo[k]}, {hi[k]})")

    labeled = rec.fields(picked["l"], [0])
    v = rec.numbers(labeled, int)
    lines = rec.line[picked["l"]]
    rec.fault(
        lines, (v < 0) | (v >= n), lambda k: f"label on unknown vertex {int(word(labeled[k]))}"
    )
    rec.repeated(lines, v, lambda k: f"repeated 'l' record for vertex {v[k]}")
    rec.raise_first()
    if not heads.size:
        raise StructureError("missing 'graph <V>' header")
    names = rec.fields(picked["l"], [1])
    return n, pairs, dict(zip(v.tolist(), map(word, names.tolist())))


def write_embedding(emb: Embedding) -> str:
    deg = np.diff(emb.offset)
    # the degrees there are, without np.unique (see ``Records.numbers``)
    degrees = np.flatnonzero(np.bincount(deg)).tolist()
    rows = {k: "rot %d " + " ".join(["%d"] * k) + "\n" for k in degrees}
    blocks = []
    for a in range(0, deg.size, _ROWS):
        b = min(a + _ROWS, deg.size)
        lo, hi = emb.offset[a], emb.offset[b]
        # each vertex, then its row
        words = np.insert(emb.nbr[lo:hi], emb.offset[a:b] - lo, np.arange(a, b))
        blocks.append("".join(map(rows.__getitem__, deg[a:b].tolist())) % tuple(words.tolist()))
    outer = "outer " + " ".join(str(v) for v in emb.outer_face) + "\n"
    return "".join([*blocks, outer])


def read_embedding(text: str) -> Embedding:
    """The embedding of a ``rot``/``outer`` text.  Each bad record raises a
    StructureError naming its line; of several, the earliest line's.  An
    entry beyond int64 reads as -1, so it fails the check against the
    edges."""
    v, entries, head, face = _embedding_records(text)
    at = Records.by_vertex(v, "embedding has no 'rot' record")
    count = np.diff(head, append=entries.size)[at] - 1
    offset = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(count, out=offset[1:])
    nbr = entries[np.repeat(head[at] + 1 - offset[:-1], count) + np.arange(offset[-1])]
    return Embedding(offset, nbr, face)


def _embedding_records(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """``read_embedding``'s row vertices, the entries of its rows (each
    row's vertex, then its neighbours), where each row starts in them, and
    the outer face.  Its records are let go before the rows are gathered."""
    rec = Records(text)
    picked = rec.select({"rot": 1, "outer": 3}, exact=False)
    rows, outers = picked["rot"], picked["outer"]
    tokens = rec.fields(rows)
    entries = rec.numbers(tokens, int)
    face = rec.fields(outers)
    outer = rec.numbers(face, int)
    size = rec.size[rows]
    head = np.cumsum(size) - size  # each row's vertex, an index into entries
    v = entries[head]
    lines = rec.line[rows]
    rec.fault(
        lines,
        v < 0,
        lambda k: f"'rot' record for vertex {int(rec.word(tokens[head[k]]))} out of range",
    )
    rec.repeated(lines, v, lambda k: f"repeated 'rot' record for vertex {v[k]}")
    rec.fault(rec.line[outers], np.arange(outers.size) > 0, lambda k: "repeated 'outer' record")
    rec.raise_first()
    if not outers.size:
        raise StructureError("missing 'outer' line")
    # the first 'outer' record's entries, one beyond int64 as it was written
    face, outer = face[: rec.size[outers[0]]].tolist(), outer.tolist()
    return v, entries, head, tuple(int(rec.word(k)) if u == -1 else u for k, u in zip(face, outer))
