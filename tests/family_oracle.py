"""Reference implementation of the family builders: ``build_frame`` and
``_base_k4`` add their edges one by one beside their rotations, ``insert_copy``
glues one copy at a time, element by element through Python dicts and sets,
and ``build_G``/``build_H``/``build_Htilde`` call it once per copy.  Used to
check ``angres.families``, which reads every edge array off its rotation and
glues all copies of a sub-family at once, field for field.

The builders keep each edge set as a Python set of tuples in a ``SetGraph``
and each rotation as one Python list per vertex in a ``ListEmbedding``;
``with_arrays`` turns a finished family into ``LabeledGraph`` and
``Embedding`` arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

from angres.families import CopyPlacement, Family, FrameRoles, ParameterError
from angres.graphs import Embedding, LabeledGraph, StructureError


def edge(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise StructureError(f"self-loop at vertex {i}")
    return (i, j) if i < j else (j, i)


@dataclass
class SetGraph:
    """A graph under construction: its edges as a set of ``(i, j)`` tuples,
    ``i < j``."""

    n: int
    edges: set[tuple[int, int]] = field(default_factory=set)
    labels: dict[int, str] = field(default_factory=dict)

    def add_edge(self, i: int, j: int) -> None:
        e = edge(i, j)
        if e[1] >= self.n:
            raise StructureError(f"edge {e} exceeds vertex count {self.n}")
        self.edges.add(e)


@dataclass
class ListEmbedding:
    """An embedding under construction: one clockwise list per vertex."""

    rotation: list[list[int]]
    outer_face: tuple[int, ...]


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


def with_arrays(fam: Family) -> Family:
    """``fam``, with the SetGraph and ListEmbedding of it and of every
    sub-family it placed replaced by the LabeledGraph of the same edges and
    labels and the Embedding of the same rotation."""
    if isinstance(fam.graph, SetGraph):
        fam.graph = LabeledGraph(fam.graph.n, fam.graph.edges, fam.graph.labels)
    if isinstance(fam.embedding, ListEmbedding):
        fam.embedding = Embedding.from_rows(fam.embedding.rotation, fam.embedding.outer_face)
    for placement in fam.placements:
        with_arrays(placement.sub)
    return fam


def build_frame(d: int) -> Family:
    """The d-frame graph: root w plus chains u_1..u_d, v_1..v_d.

    Besides the base triangle and, per ring k >= 2, the edges
    w u_k, w v_k, u_k v_k, u_k u_{k-1}, u_k v_{k-1}, the construction also
    carries the ring edges v_k v_{k-1}, so that every bounded face is a
    triangle and the graph is maximal planar with maximum degree exactly 2d.
    """
    if d < 1:
        raise ParameterError(f"frame needs d >= 1, got {d}")
    w = 0
    u = [2 * k - 1 for k in range(1, d + 1)]
    v = [2 * k for k in range(1, d + 1)]
    g = SetGraph(2 * d + 1)
    g.labels[w] = "w"
    for k in range(1, d + 1):
        g.labels[u[k - 1]] = f"u{k}"
        g.labels[v[k - 1]] = f"v{k}"
    g.add_edge(w, u[0])
    g.add_edge(w, v[0])
    g.add_edge(u[0], v[0])
    for k in range(2, d + 1):
        uk, vk, up, vp = u[k - 1], v[k - 1], u[k - 2], v[k - 2]
        g.add_edge(w, uk)
        g.add_edge(w, vk)
        g.add_edge(uk, vk)
        g.add_edge(uk, up)
        g.add_edge(uk, vp)
        g.add_edge(vk, vp)

    # Canonical rotations of the nested fan drawing (clockwise order).
    rot: list[list[int]] = [[] for _ in range(g.n)]
    rot[w] = list(reversed(u)) + v
    if d == 1:
        rot[u[0]] = [v[0], w]
        rot[v[0]] = [w, u[0]]
    else:
        for k in range(1, d + 1):
            i = k - 1
            if k == 1:
                rot[u[i]] = [u[1], v[0], w]
                rot[v[i]] = [v[1], w, u[0], u[1]]
            elif k == d:
                rot[u[i]] = [v[i], v[i - 1], u[i - 1], w]
                rot[v[i]] = [w, v[i - 1], u[i]]
            else:
                rot[u[i]] = [u[i + 1], v[i], v[i - 1], u[i - 1], w]
                rot[v[i]] = [v[i + 1], w, v[i - 1], u[i], u[i + 1]]
    emb = ListEmbedding(rot, (w, u[-1], v[-1]))
    return Family(g, emb, roles=FrameRoles(w, u, v))


def _base_k4(names: tuple[str, str, str, str]) -> Family:
    """K4 with corners named, the fourth vertex interior, outer face
    (n1, n3, n2) in clockwise trace order."""
    g = SetGraph(4)
    for v, name in enumerate(names):
        g.labels[v] = name
    for i in range(4):
        for j in range(i + 1, 4):
            g.add_edge(i, j)
    rot = [[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]]
    emb = ListEmbedding(rot, (0, 2, 1))
    return Family(g, emb)


def insert_copy(
    host: Family,
    face: tuple[int, int, int],
    root_target: int,
    copy: Family,
    copy_root: int,
    mirror: bool = False,
) -> dict[int, int]:
    """Glue ``copy`` into a triangular face of ``host``.

    The copy's outer face (a triangle through ``copy_root``) is identified
    with the host face: ``copy_root`` goes to ``root_target``, and the two
    outer corners go to the remaining face vertices in the orientation that
    keeps the spliced rotation system planar.  With ``mirror`` the reflected
    copy (all rotations reversed) is glued instead, which swaps the two
    non-root corner identifications; this controls which copy corner's
    degree lands on which face vertex.  Duplicate boundary edges are merged;
    all interior copy vertices get fresh host indices.  Returns the full
    vertex map and records it on ``host.placements``.
    """
    fset = set(face)
    if len(fset) != 3:
        raise StructureError(f"face {face} is not a triangle")
    if root_target not in fset:
        raise StructureError(f"root target {root_target} is not on face {face}")

    rot = host.embedding.rotation
    cycle = None
    for a in rot[root_target]:
        if a in fset:
            cand = face_cycle_from(rot, root_target, a)
            if len(cand) == 3 and set(cand) == fset:
                cycle = cand
                break
    if cycle is None:
        raise StructureError(f"{tuple(sorted(fset))} is not a face of the host embedding")
    r, A, B = cycle  # host face traced from the root

    outer = copy.embedding.outer_face
    if len(outer) != 3:
        raise StructureError("copy outer face is not a triangle")
    if copy_root not in outer:
        raise StructureError(f"copy root {copy_root} is not on the copy's outer face")
    crot = copy.embedding.rotation
    if mirror:
        outer = tuple(reversed(outer))
        crot = [list(reversed(lst)) for lst in crot]
    k = outer.index(copy_root)
    croot, N, P = outer[k:] + outer[:k]

    vmap: dict[int, int] = {croot: r, P: A, N: B}
    fresh = host.graph.n
    for i in range(copy.graph.n):
        if i not in vmap:
            vmap[i] = fresh
            fresh += 1
    host.graph.n = fresh

    boundary = {r, A, B}
    for i, j in sorted(copy.graph.edges):
        a, b = vmap[i], vmap[j]
        if a in boundary and b in boundary:
            continue  # outer-triangle edge, merged with the host face edge
        host.graph.edges.add(edge(a, b))

    def fan(center: int, start: int, end: int) -> list[int]:
        seq = crot[center]
        k0 = seq.index(start)
        lin = seq[k0:] + seq[:k0]
        if lin[-1] != end:
            raise StructureError("copy rotation inconsistent with its outer face")
        return [vmap[x] for x in lin[1:-1]]

    # Interior fans at the three shared vertices, clockwise between the two
    # boundary edges of the host face corner.
    splices = [
        (r, B, fan(croot, N, P)),   # corner of the face at r: between B and A
        (A, r, fan(P, croot, N)),   # corner at A: between r and B
        (B, A, fan(N, P, croot)),   # corner at B: between A and r
    ]
    for at, after, ins in splices:
        pos = rot[at].index(after)
        rot[at][pos + 1 : pos + 1] = ins

    for i in range(copy.graph.n):
        h = vmap[i]
        if h in boundary:
            continue
        mapped = [vmap[x] for x in crot[i]]
        if h < len(rot):
            rot[h] = mapped
        else:
            rot.extend([[]] * (h - len(rot) + 1))
            rot[h] = mapped
    host.placements.append(CopyPlacement(copy, dict(vmap)))
    return vmap



def build_G(c: int, d: int) -> Family:
    """G^(c)_d: the (d+1)-frame with, for c >= 2, copies of G^(c-1)_d glued
    into the faces (w, v_k, v_{k+1}) rooted at v_{k+1} and
    (v_{k+1}, u_{k+1}, v_k) rooted at u_{k+1}, for k = 1..d-1."""
    if c < 1 or d < 1:
        raise ParameterError(f"need c >= 1 and d >= 1, got c={c}, d={d}")
    host = build_frame(d + 1)
    if c == 1:
        return host
    sub = build_G(c - 1, d)
    roles = host.roles
    w, u, v = roles.root, roles.u, roles.v
    for k in range(1, d):
        # mirrored: the copy's degree-3 outer corner (not the degree-4 one)
        # lands on w, keeping deg(w) = 3d+1 instead of 4d and the composite
        # family inside its degree bound
        insert_copy(host, (w, v[k - 1], v[k]), v[k], sub, sub.roles.root, mirror=True)
        insert_copy(host, (v[k], u[k], v[k - 1]), u[k], sub, sub.roles.root)
    return host


def build_H(c: int, d: int) -> Family:
    """H^(c)_d: K4 on s1..s4 (s4 interior) with a copy of G^(c)_d in each
    internal face, rooted so the copies' apex angles sit at s3, s1, s2."""
    if c < 1 or d < 1:
        raise ParameterError(f"need c >= 1 and d >= 1, got c={c}, d={d}")
    fam = _base_k4(("s1", "s2", "s3", "s4"))
    s1, s2, s3, s4 = 0, 1, 2, 3
    sub = build_G(c, d)
    croot = sub.roles.root
    insert_copy(fam, (s1, s3, s4), s3, sub, croot)
    insert_copy(fam, (s1, s2, s4), s1, sub, croot)
    insert_copy(fam, (s2, s3, s4), s2, sub, croot)
    return fam


def build_Htilde(c: int, d: int) -> Family:
    """H~^(c)_d: K4 on t1..t4 (t4 interior) with a copy of H^(c)_d in each
    internal face; the copy's s1 goes to the smallest-index face vertex."""
    if c < 1 or d < 1:
        raise ParameterError(f"need c >= 1 and d >= 1, got c={c}, d={d}")
    fam = _base_k4(("t1", "t2", "t3", "t4"))
    sub = build_H(c, d)
    s1 = next(v for v, name in sub.graph.labels.items() if name == "s1")
    for face in ((0, 1, 3), (0, 2, 3), (1, 2, 3)):
        insert_copy(fam, face, min(face), sub, s1)
    return fam


def stacking(fam: Family) -> tuple[tuple[int, ...], list[tuple[int, tuple[int, int, int]]]]:
    """The order the builders record as a family's certificate, step by
    step as ``(x, tri)``, from the family's outer face: a frame's rings
    inward, vertex k into (w, k+1, k+2) for k = 2d-2 down to 1, or the base
    K4's one step, and then each glued copy's steps through its vertex map,
    copy by copy."""
    if fam.roles is not None:
        w, d = fam.roles.root, len(fam.roles.u)
        steps = [(k, (w, k + 1, k + 2)) for k in range(2 * d - 2, 0, -1)]
    else:
        steps = [(3, (0, 1, 2))]
    for placement in fam.placements:
        vmap = placement.vmap
        for x, tri in stacking(placement.sub)[1]:
            steps.append((vmap[x], tuple(vmap[t] for t in tri)))
    return tuple(fam.embedding.outer_face), steps


# (family, c, d) cases for the oracle comparisons: frames d = 1..24, g, h and
# htilde over c <= 3 with small d, and the two large benchmark families
ORACLE_CASES = (
    [("frame", None, d) for d in range(1, 25)]
    + [("g", c, d) for c in (1, 2, 3) for d in range(1, 6)]
    + [(fam, c, d) for fam in ("h", "htilde") for c in (1, 2, 3) for d in (1, 2, 3)]
    + [("htilde", 2, 32), ("htilde", 3, 8)]
)


def list_family(name: str, c: int | None, d: int) -> Family:
    """The family as the copy-by-copy builders above make it, with its
    SetGraph and ListEmbedding."""
    if name == "frame":
        return build_frame(d)
    return {"g": build_G, "h": build_H, "htilde": build_Htilde}[name](c, d)


def oracle_family(name: str, c: int | None, d: int) -> Family:
    """``list_family`` with its graphs and embeddings as arrays."""
    return with_arrays(list_family(name, c, d))


def embedding_text(emb: ListEmbedding) -> str:
    """The embedding text format, written row by row from the lists."""
    lines = []
    for v, rot in enumerate(emb.rotation):
        lines.append("rot " + str(v) + " " + " ".join(str(u) for u in rot))
    lines.append("outer " + " ".join(str(v) for v in emb.outer_face))
    return "\n".join(lines) + "\n"
