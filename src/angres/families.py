"""Construction of the nested-frame graph families and the eps -> c mapping.

All constructions are deterministic: equal parameters give identical vertex
indexing, edge arrays and rotations.  Every builder writes the rotation
system alone and reads the edge array off it (``graphs.rotation_edges``):
the edges of a plane graph are exactly the neighbour pairs of its rotation.
Copies are glued into triangular faces by identifying the copy's outer
triangle with the face corners and splicing the rotation systems, so the
three boundary edges the copy shares with the face are not duplicated.
All copies of one sub-family at one level are glued by one ``glue_copies``
call, into faces of the host as it stands before the call, through the
copies' int64 vertex maps.  Rotations are never copied entry by entry:
the copies' fans and rows go into the host's CSR arrays in one pass.

Every builder also records the order it stacked its graph in, a
``graphs.BuildSequence`` rooted at the outer face, as the graph's
``certificate``: a frame's ring formula, the base K4's one step, and each
glued copy's steps through its vertex map after the host's.  Verification
and the replay plan check it exactly (``graphs._certified``) and then use
it in place of the elimination, listed by level, then by vertex, as the
elimination's sequence is (``graphs._rooted_sequence``); a graph read from
a file carries none and is eliminated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    BuildSequence,
    Embedding,
    LabeledGraph,
    StructureError,
    face_cycle_from,
    rotation_edges,
)


class ParameterError(ValueError):
    """A family parameter is out of range."""


@dataclass(frozen=True)
class FamilySpec:
    family: str  # one of "frame", "g", "h", "htilde"
    c: int | None
    d: int

    def __post_init__(self):
        if self.family not in ("frame", "g", "h", "htilde"):
            raise ParameterError(f"unknown family {self.family!r}")
        if self.d < 1:
            raise ParameterError(f"d must be >= 1, got {self.d}")
        if self.family == "frame":
            if self.c is not None:
                raise ParameterError("frame takes no c parameter")
        elif self.c is None or self.c < 1:
            raise ParameterError(f"c must be >= 1, got {self.c}")


@dataclass
class FrameRoles:
    """Root and chain indices of a frame: root w, chains u_1..u_d, v_1..v_d."""

    root: int
    u: list[int]
    v: list[int]


@dataclass
class CopyPlacement:
    """Record of one glued copy: the source family and the vertex map, an
    int64 array whose entry i is the host index of copy vertex i (the three
    outer corners map to the host face they were identified with)."""

    sub: "Family"
    vmap: np.ndarray


@dataclass
class Family:
    graph: LabeledGraph
    embedding: Embedding
    roles: FrameRoles | None = None
    placements: list[CopyPlacement] = field(default_factory=list)


def build_frame(d: int) -> Family:
    """The d-frame graph: root w plus chains u_1..u_d, v_1..v_d.

    Its rotation (clockwise, the nested fan drawing's) is one ring formula,
    read with the ring indices outside 1..d dropped:
    rot[w] = u_d .. u_1 v_1 .. v_d,
    rot[u_k] = u_{k+1} v_k v_{k-1} u_{k-1} w and
    rot[v_k] = v_{k+1} w v_{k-1} u_k u_{k+1}.  Besides the base triangle and,
    per ring k >= 2, the edges w u_k, w v_k, u_k v_k, u_k u_{k-1}, u_k v_{k-1},
    it carries the ring edges v_k v_{k-1}, so every bounded face is a
    triangle and the graph is maximal planar with maximum degree exactly 2d.
    The edges are read off the rotation.  Its certificate stacks ring by
    ring inward from the outer face (w, u_d, v_d): vertex k goes into
    (w, k+1, k+2) for k = 2d-2 down to 1.
    """
    if d < 1:
        raise ParameterError(f"frame needs d >= 1, got {d}")
    w = 0
    u = [2 * k - 1 for k in range(1, d + 1)]
    v = [2 * k for k in range(1, d + 1)]
    U, V = [None, *u, None], [None, *v, None]  # ring k at index k, none at 0 and d+1
    rot = [list(reversed(u)) + v]
    labels = {w: "w"}
    for k in range(1, d + 1):
        rot.append([x for x in (U[k + 1], V[k], V[k - 1], U[k - 1], w) if x is not None])
        rot.append([x for x in (V[k + 1], w, V[k - 1], U[k], U[k + 1]) if x is not None])
        labels[U[k]], labels[V[k]] = f"u{k}", f"v{k}"
    emb = Embedding.from_rows(rot, (w, u[-1], v[-1]))
    k = np.arange(2 * d - 2, 0, -1, dtype=np.int64)
    stacked = BuildSequence(emb.outer_face, k, np.stack([np.full_like(k, w), k + 1, k + 2], 1))
    g = LabeledGraph(2 * d + 1, rotation_edges(emb), labels, stacked)
    return Family(g, emb, roles=FrameRoles(w, u, v))


Gluing = tuple[tuple[int, int, int], int, int, bool]  # (face, root_target, copy_root, mirror)


def _host_face(emb: Embedding, face: tuple[int, int, int], root_target: int) -> tuple[int, ...]:
    """The host face with vertex set ``face``, traced from ``root_target``."""
    fset = set(face)
    if len(fset) != 3:
        raise StructureError(f"face {face} is not a triangle")
    if root_target not in fset:
        raise StructureError(f"root target {root_target} is not on face {face}")
    if 0 <= root_target < len(emb.offset) - 1:
        for a in emb.row(root_target).tolist():
            if a in fset:
                cand = face_cycle_from(emb, root_target, a)
                if len(cand) == 3 and set(cand) == fset:
                    return cand
    raise StructureError(f"{tuple(sorted(fset))} is not a face of the host embedding")


def _corner_fans(sub: Family, copy_root: int, mirror: bool) -> tuple[tuple[int, int, int], list]:
    """The copy's outer corners ``(croot, N, P)``, traced from ``copy_root``,
    and its interior fans at them, each read clockwise from one outer
    neighbour to the other, as copy-index arrays."""
    outer = sub.embedding.outer_face[::-1] if mirror else sub.embedding.outer_face
    k = outer.index(copy_root)
    croot, N, P = outer[k:] + outer[:k]
    fans = []
    for center, start, end in ((croot, N, P), (P, croot, N), (N, P, croot)):
        seq = sub.embedding.row(center)[:: -1 if mirror else 1]
        lin = np.roll(seq, -int(np.argmax(seq == start)))
        if lin[0] != start or lin[-1] != end:
            raise StructureError("copy rotation inconsistent with its outer face")
        fans.append(lin[1:-1])
    return (croot, N, P), fans


def glue_copies(host: Family, sub: Family, gluings: list[Gluing]) -> None:
    """Glue one copy of ``sub`` into a triangular face of ``host`` per
    gluing ``(face, root_target, copy_root, mirror)``.

    The copy's outer face (a triangle through ``copy_root``) is identified
    with the host face: ``copy_root`` goes to ``root_target``, and the two
    outer corners go to the remaining face vertices in the orientation that
    keeps the spliced rotation system planar.  With ``mirror`` the reflected
    copy (all rotations reversed) is glued instead, which swaps the two
    non-root corner identifications; this controls which copy corner's
    degree lands on which face vertex.  The copy's outer edges are the host
    face's; the interior copy vertices get fresh host indices in copy-index
    order, copy after copy.  Each copy's vertex map, a row of one
    ``(copies, sub.n)`` matrix, is recorded on ``host.placements``, and
    its stacking order, the sub's certificate through that map, is
    appended to the host graph's certificate (which is dropped when either
    carries none).

    Each face must be a face of the host before the call, a different one
    per gluing; all are checked before the host changes.  One ``np.insert``
    puts all corner fans into the host's ``nbr``, and the copies' interior
    rows are appended as one gather through the vertex maps.
    """
    emb, outer = host.embedding, sub.embedding.outer_face
    if len(outer) != 3:
        raise StructureError("copy outer face is not a triangle")
    n0, copies = host.graph.n, len(gluings)
    interior = np.ones(sub.graph.n, dtype=bool)
    interior[list(outer)] = False
    inner = np.flatnonzero(interior)
    vmaps = np.empty((copies, sub.graph.n), dtype=np.int64)
    vmaps[:, inner] = n0 + inner.size * np.arange(copies)[:, None] + np.arange(inner.size)
    seen, fan_pos, fans = set(), [], []
    for vmap, (face, root_target, copy_root, mirror) in zip(vmaps, gluings):
        r, A, B = _host_face(emb, face, root_target)
        if frozenset((r, A, B)) in seen:
            raise StructureError(f"{tuple(sorted(face))} is not a face of the host embedding")
        seen.add(frozenset((r, A, B)))
        if copy_root not in outer:
            raise StructureError(f"copy root {copy_root} is not on the copy's outer face")
        (croot, N, P), corner_fans = _corner_fans(sub, copy_root, mirror)
        vmap[[croot, P, N]] = (r, A, B)
        # Interior fans at the three shared vertices, clockwise between the
        # two boundary edges of the host face corner: at r between B and A,
        # at A between r and B, at B between A and r.
        for at, after, fan in zip((r, A, B), (B, r, A), corner_fans):
            fan_pos.append(emb.offset[at] + int(np.argmax(emb.row(at) == after)) + 1)
            fans.append(vmap[fan])

    at = np.repeat(np.array(fan_pos, dtype=np.int64), [fan.size for fan in fans])
    spliced = np.insert(emb.nbr, at, np.concatenate(fans or [at]))
    # the sub's interior rows, plain or each reversed, through each vmap
    sub_off, sub_nbr = sub.embedding.offset, sub.embedding.nbr
    row_of = np.repeat(np.arange(sub.graph.n), np.diff(sub_off))
    flipped = sub_nbr[sub_off[row_of] + sub_off[row_of + 1] - 1 - np.arange(sub_nbr.size)]
    mirrors = np.array([mirror for *_, mirror in gluings], dtype=bool)[:, None]
    rows = np.where(mirrors, flipped[interior[row_of]], sub_nbr[interior[row_of]])

    # an entry inserted before old index p, offset[v] < p <= offset[v + 1], joins row v
    grown = np.bincount(np.searchsorted(emb.offset, at) - 1, minlength=n0)
    deg = np.concatenate([np.diff(emb.offset) + grown, np.tile(np.diff(sub_off)[inner], copies)])
    emb.offset = np.concatenate([[0], np.cumsum(deg)])
    emb.nbr = np.concatenate([spliced, np.take_along_axis(vmaps, rows, axis=1).ravel()])
    host.graph.n = n0 + copies * inner.size
    host.placements.extend(CopyPlacement(sub, vmap) for vmap in vmaps)
    host.graph.edges = rotation_edges(emb)
    cert, steps = host.graph.certificate, sub.graph.certificate
    host.graph.certificate = None
    if cert is not None and steps is not None:
        xs = np.concatenate([cert.xs, vmaps[:, steps.xs].ravel()])
        tris = np.concatenate([cert.tris, vmaps[:, steps.tris].reshape(-1, 3)])
        host.graph.certificate = BuildSequence(cert.base, xs, tris)


def vertex_count_G(c: int, d: int) -> int:
    """Recurrence N(1,d) = 2d+3; N(c,d) = (2d+3) + 2(d-1)(N(c-1,d) - 3)."""
    n = 2 * d + 3
    for _ in range(2, c + 1):
        n = (2 * d + 3) + 2 * (d - 1) * (n - 3)
    return n


def build_G(c: int, d: int) -> Family:
    """G^(c)_d: the (d+1)-frame with, for c >= 2, copies of G^(c-1)_d glued
    into the faces (w, v_k, v_{k+1}) rooted at v_{k+1} and
    (v_{k+1}, u_{k+1}, v_k) rooted at u_{k+1}, for k = 1..d-1.  With d = 1
    there are no such faces, so G^(c)_1 is the 2-frame for every c."""
    if c < 1 or d < 1:
        raise ParameterError(f"need c >= 1 and d >= 1, got c={c}, d={d}")
    host = build_frame(d + 1)
    if c == 1 or d == 1:
        return host
    sub = build_G(c - 1, d)
    roles = host.roles
    w, u, v = roles.root, roles.u, roles.v
    gluings: list[Gluing] = []
    for k in range(1, d):
        # mirrored: the copy's degree-3 outer corner (not the degree-4 one)
        # lands on w, keeping deg(w) = 3d+1 instead of 4d and the composite
        # family inside its degree bound
        gluings.append(((w, v[k - 1], v[k]), v[k], sub.roles.root, True))
        gluings.append(((v[k], u[k], v[k - 1]), u[k], sub.roles.root, False))
    glue_copies(host, sub, gluings)
    return host


def _base_k4(names: tuple[str, str, str, str]) -> Family:
    """K4 with corners named, the fourth vertex interior, outer face
    (n1, n3, n2) in clockwise trace order; its certificate is that one
    step."""
    emb = Embedding.from_rows([[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]], (0, 2, 1))
    stacked = BuildSequence(emb.outer_face, np.array([3]), np.array([[0, 1, 2]]))
    return Family(LabeledGraph(4, rotation_edges(emb), dict(enumerate(names)), stacked), emb)


def build_H(c: int, d: int) -> Family:
    """H^(c)_d: K4 on s1..s4 (s4 interior) with a copy of G^(c)_d in each
    internal face, rooted so the copies' apex angles sit at s3, s1, s2."""
    if c < 1 or d < 1:
        raise ParameterError(f"need c >= 1 and d >= 1, got c={c}, d={d}")
    fam = _base_k4(("s1", "s2", "s3", "s4"))
    s1, s2, s3, s4 = 0, 1, 2, 3
    sub = build_G(c, d)
    croot = sub.roles.root
    gluings = [
        ((s1, s3, s4), s3, croot, False),
        ((s1, s2, s4), s1, croot, False),
        ((s2, s3, s4), s2, croot, False),
    ]
    glue_copies(fam, sub, gluings)
    return fam


def build_Htilde(c: int, d: int) -> Family:
    """H~^(c)_d: K4 on t1..t4 (t4 interior) with a copy of H^(c)_d in each
    internal face; the copy's s1 goes to the smallest-index face vertex."""
    if c < 1 or d < 1:
        raise ParameterError(f"need c >= 1 and d >= 1, got c={c}, d={d}")
    fam = _base_k4(("t1", "t2", "t3", "t4"))
    sub = build_H(c, d)
    s1 = next(v for v, name in sub.graph.labels.items() if name == "s1")
    faces = ((0, 1, 3), (0, 2, 3), (1, 2, 3))
    glue_copies(fam, sub, [(face, min(face), s1, False) for face in faces])
    return fam


def build_family(spec: FamilySpec) -> Family:
    if spec.family == "frame":
        return build_frame(spec.d)
    if spec.family == "g":
        return build_G(spec.c, spec.d)
    if spec.family == "h":
        return build_H(spec.c, spec.d)
    return build_Htilde(spec.c, spec.d)


def epsilon_to_c(eps: float) -> tuple[int, float]:
    """Map a target exponent eps to the smallest c >= 2 whose realized
    exponent 1/(2*3^(c-2)) is <= eps (c = max(2, 2 - floor(log_3(2 eps))))."""
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    t = math.log(2.0 * eps) / math.log(3.0)
    c = max(2, 2 - math.floor(t + 1e-12))
    return c, 1.0 / (2.0 * 3.0 ** (c - 2))
