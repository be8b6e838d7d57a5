import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres.families import build_frame, build_G, build_H, build_Htilde
from angres.graphs import (
    BuildSequence,
    Embedding,
    LabeledGraph,
    NotPlanar3TreeError,
    StructureError,
    canonical_cycle,
    edge,
    euler_check,
    face_cycle_from,
    internal_triangles,
    max_degree,
    read_embedding,
    read_graph,
    verify_planar_3tree,
    write_embedding,
    write_graph,
)
from angres.graphs import _check_build_sequence, _check_planarity
from face_oracle import internal_triangles as reference_triangles
from planarity_oracle import _replay_planarity as reference_planarity
from replay_oracle import layout_seed_any as reference_seed_any
from replay_oracle import replay


def k4():
    g = LabeledGraph(4)
    for i in range(4):
        for j in range(i + 1, 4):
            g.add_edge(i, j)
    rot = [[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]]
    return g, Embedding(rot, (0, 2, 1))


def triangle():
    g = LabeledGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g, Embedding([[1, 2], [2, 0], [0, 1]], (0, 1, 2))


def insert_vertex_in_face(
    graph: LabeledGraph, rotation: list[list[int]], face: tuple[int, int, int]
) -> int:
    """3-tree step: add a vertex inside a triangular face, joined to its corners.

    ``face`` must be the face's traced cycle (a, b, c).  Returns the new
    vertex index.  The three new faces are traced (a, b, x), (b, c, x),
    (c, a, x).
    """
    a, b, c = face
    x = graph.n
    graph.n += 1
    for t in face:
        graph.edges.add(edge(t, x))
    # The corner of face (a,b,c) at a lies between the edges to c and to b.
    rotation[a].insert(rotation[a].index(c) + 1, x)
    rotation[b].insert(rotation[b].index(a) + 1, x)
    rotation[c].insert(rotation[c].index(b) + 1, x)
    rotation.append([a, c, b])
    return x


def all_faces(g, emb):
    """Every face of a triangulated embedding: the internal triangles and the
    outer face."""
    return [tuple(f) for f in internal_triangles(g, emb).tolist()] + [emb.outer_face]


def random_3tree(seed, steps):
    """Grow a random planar 3-tree by repeated face insertion."""
    rng = random.Random(seed)
    g, emb = triangle()
    faces = [(0, 2, 1)]  # bounded face of the bare triangle
    for _ in range(steps):
        tri = rng.choice(faces)
        faces.remove(tri)
        x = insert_vertex_in_face(g, emb.rotation, tri)
        faces.extend([(tri[0], tri[1], x), (tri[1], tri[2], x), (tri[2], tri[0], x)])
    return g, emb


class TestLabeledGraph:
    def test_edge_normalizes(self):
        assert edge(3, 1) == (1, 3)
        with pytest.raises(StructureError):
            edge(2, 2)

    def test_degree_and_validate(self):
        g, _ = k4()
        assert g.degree_sequence() == [3, 3, 3, 3]
        assert max_degree(g) == 3
        g.validate()

    def test_out_of_range_edge(self):
        g = LabeledGraph(2)
        with pytest.raises(StructureError):
            g.add_edge(0, 5)


class TestFaces:
    def test_triangle_faces(self):
        g, emb = triangle()
        assert internal_triangles(g, emb).tolist() == [[0, 2, 1]]
        assert euler_check(g, all_faces(g, emb))

    def test_k4_faces(self):
        g, emb = k4()
        faces = all_faces(g, emb)
        assert len(faces) == 4
        assert euler_check(g, faces)

    def test_face_cycle_from_walks_one_face(self):
        _, emb = k4()
        cyc = face_cycle_from(emb.rotation, 0, 1)
        assert len(cyc) == 3 and 0 in cyc and 1 in cyc

    def test_rotation_mismatch_rejected(self):
        g, emb = k4()
        rot = [list(r) for r in emb.rotation]
        rot[0] = [2, 1]  # missing neighbor 3
        with pytest.raises(StructureError, match="rotation at vertex 0"):
            internal_triangles(g, Embedding(rot, emb.outer_face))

    def test_canonical_cycle_rotation_invariant(self):
        assert canonical_cycle((2, 0, 1)) == canonical_cycle((0, 1, 2))

    def test_internal_triangles_drop_the_outer_face(self):
        g, emb = k4()
        tri = internal_triangles(g, emb)
        assert sorted(map(tuple, tri.tolist())) == [(0, 1, 3), (0, 3, 2), (1, 2, 3)]

    def test_internal_triangles_need_a_traced_outer_face(self):
        g, emb = k4()
        with pytest.raises(StructureError):
            internal_triangles(g, Embedding(emb.rotation, (0, 1, 2)))


def shuffled_3tree(seed, steps):
    """``random_3tree`` with its vertices renamed at random and each rotation
    list and the outer face started at a random entry: the same embedding
    with a new half-edge numbering."""
    rng = random.Random(seed)
    g, emb = random_3tree(seed, steps)
    perm = list(range(g.n))
    rng.shuffle(perm)
    shuffled = LabeledGraph(g.n, {edge(perm[i], perm[j]) for i, j in g.edges})
    rotation = [[] for _ in range(g.n)]
    for v, rot in enumerate(emb.rotation):
        k = rng.randrange(len(rot))
        rotation[perm[v]] = [perm[u] for u in rot[k:] + rot[:k]]
    k = rng.randrange(3)
    outer = tuple(perm[v] for v in emb.outer_face[k:] + emb.outer_face[:k])
    return shuffled, Embedding(rotation, outer)


def k7_on_the_torus():
    """K7 with its triangular torus embedding: every face is a triangle but
    V - E + F = 0."""
    g = LabeledGraph(7, {edge(i, j) for i in range(7) for j in range(i + 1, 7)})
    rotation = [[(v + k) % 7 for k in (1, 3, 2, 6, 4, 5)] for v in range(7)]
    return g, Embedding(rotation, (0, 1, 3))


def outcome(fn, *args):
    """What ``fn`` returns (an array as its dtype, shape and bytes), or the
    type and message of the StructureError it raises."""
    try:
        out = fn(*args)
    except StructureError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, np.ndarray):
        return out.dtype, out.shape, out.tobytes()
    return out


def assert_matches_loop(g, emb, rejected=False):
    """``internal_triangles`` returns or raises exactly what the loop in
    face_oracle does, and raises if and only if ``rejected`` (None: either
    way)."""
    got = outcome(internal_triangles, g, emb)
    assert got == outcome(reference_triangles, g, emb)
    if rejected is not None:
        assert (got[0] == "StructureError") == rejected


def with_rotation(emb, v, rot):
    rotation = [list(r) for r in emb.rotation]
    rotation[v] = rot
    return Embedding(rotation, emb.outer_face)


class TestFaceKernel:
    """The half-edge kernel against the per-half-edge loop in face_oracle."""

    @given(st.integers(0, 10_000), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_random_3trees_match_the_loop(self, seed, steps):
        assert_matches_loop(*shuffled_3tree(seed, steps))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_frame(1),
            lambda: build_frame(7),
            lambda: build_G(1, 3),
            lambda: build_G(3, 2),
            lambda: build_H(1, 2),
            lambda: build_H(2, 3),
            lambda: build_Htilde(1, 5),
            lambda: build_Htilde(2, 4),
            lambda: build_Htilde(3, 2),
        ],
    )
    def test_families_match_the_loop(self, build):
        fam = build()
        assert_matches_loop(fam.graph, fam.embedding)

    @pytest.mark.parametrize(
        "v, rot",
        [
            (0, [2, 3, 6]),  # out of range: 0 * 4 + 6 is the key of 1 -> 2
            (2, [1, 3, -1]),  # negative: 2 * 4 - 1 is the key of 1 -> 3
            (1, [0, 3, 2**70]),  # beyond int64
            (2, [1, 1, 0]),  # duplicated, 3 missing
            (2, [1, 3, 0, 1]),  # duplicated on top of the full list
            (0, [2, 1]),  # missing neighbour
            (3, [0, 2, 1, 3]),  # a self-loop entry
        ],
    )
    def test_bad_rotation_entries_match_the_loop(self, v, rot):
        g, emb = k4()
        assert_matches_loop(g, with_rotation(emb, v, rot), rejected=True)

    def test_first_bad_vertex_is_named(self):
        g, emb = k4()
        emb = with_rotation(with_rotation(emb, 3, [0, 2]), 1, [0, 3, 7])
        assert_matches_loop(g, emb, rejected=True)

    def test_rotation_length_mismatch(self):
        g, emb = k4()
        assert_matches_loop(g, Embedding(emb.rotation[:3], emb.outer_face), rejected=True)

    @given(st.integers(0, 10_000), st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_first_non_triangular_face_matches_the_loop(self, seed, steps):
        # dropping edges of a triangulation merges faces into longer ones
        g, emb = shuffled_3tree(seed, steps)
        rng = random.Random(seed)
        for i, j in rng.sample(sorted(g.edges), rng.randint(1, 3)):
            g.edges.discard((i, j))
            emb.rotation[i].remove(j)
            emb.rotation[j].remove(i)
        assert_matches_loop(g, emb, rejected=True)

    @given(st.integers(0, 10_000), st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_scrambled_rotation_matches_the_loop(self, seed, steps):
        # a shuffled rotation at one vertex mostly leaves a non-plane embedding
        g, emb = shuffled_3tree(seed, steps)
        rng = random.Random(seed)
        v = rng.choice([u for u in range(g.n) if len(emb.rotation[u]) >= 4] or [0])
        rng.shuffle(emb.rotation[v])
        assert_matches_loop(g, emb, rejected=None)

    def test_euler_failure_matches_the_loop(self):
        assert_matches_loop(*k7_on_the_torus(), rejected=True)

    @pytest.mark.parametrize("outer", [(0, 1, 2), (0, 2, 1, 3), (0, 2), (0, 2, 9), (0, 2, -1)])
    def test_untraced_outer_face_matches_the_loop(self, outer):
        g, emb = k4()
        assert_matches_loop(g, Embedding(emb.rotation, outer), rejected=True)


class TestInsertion:
    def test_insert_updates_faces(self):
        g, emb = triangle()
        x = insert_vertex_in_face(g, emb.rotation, (0, 2, 1))
        assert x == 3
        faces = all_faces(g, emb)
        assert len(faces) == 4
        assert euler_check(g, faces)

    @given(st.integers(0, 10_000), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_random_growth_stays_triangulated(self, seed, steps):
        g, emb = random_3tree(seed, steps)
        # internal_triangles raises unless every face is a triangle
        assert euler_check(g, all_faces(g, emb))
        assert len(g.edges) == 3 * g.n - 6


class TestVerify3Tree:
    def test_k4_verifies(self):
        g, _ = k4()
        seq = verify_planar_3tree(g)
        assert len(seq.steps) == 1

    @given(st.integers(0, 10_000), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_random_3tree_verifies_and_replays(self, seed, steps):
        g, emb = random_3tree(seed, steps)
        seq = verify_planar_3tree(g, keep=emb.outer_face)
        assert set(seq.base) == set(emb.outer_face)
        a, b, c = seq.base
        rebuilt = {edge(a, b), edge(b, c), edge(a, c)}
        rebuilt |= {edge(t, x) for x, tri in seq.steps for t in tri}
        assert rebuilt == g.edges

    def test_octahedron_rejected(self):
        # 4-regular maximal planar graph: no degree-3 vertex at all
        g = LabeledGraph(6)
        for i, j in [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4),
                     (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)]:
            g.add_edge(i, j)
        assert len(g.edges) == 3 * 6 - 6
        with pytest.raises(NotPlanar3TreeError):
            verify_planar_3tree(g)

    def test_wrong_edge_count_rejected(self):
        g = LabeledGraph(4)
        g.add_edge(0, 1)
        with pytest.raises(NotPlanar3TreeError):
            verify_planar_3tree(g)

    def test_triangle_with_three_apexes_fails_the_face_check(self):
        # elimination removes all three apexes, but the bare triangle has
        # only two sides to insert them into
        g = LabeledGraph(6)
        for i, j in [(0, 1), (1, 2), (0, 2)] + [(t, x) for x in (3, 4, 5) for t in (0, 1, 2)]:
            g.add_edge(i, j)
        assert len(g.edges) == 3 * 6 - 6
        with pytest.raises(NotPlanar3TreeError) as exc:
            verify_planar_3tree(g)
        assert str(exc.value) == (
            "not planar: insertion of vertex 3 targets triangle (0, 1, 2), "
            "which is not a face of the partial embedding"
        )


def grown_sequence(rng, steps, base_uses):
    """A random build sequence of ``steps`` insertions on ``steps + 3``
    shuffled labels, each triangle's corners in random order; with
    ``base_uses=2`` the outer side of the base triangle is a face too."""
    labels = rng.sample(range(steps + 3), steps + 3)
    base = tuple(labels[:3])
    faces = [base] * base_uses
    out = []
    for x in labels[3:]:
        tri = faces.pop(rng.randrange(len(faces)))
        out.append((x, tuple(rng.sample(tri, 3))))
        a, b, c = tri
        faces += [(a, b, x), (b, c, x), (a, c, x)]
    return steps + 3, BuildSequence(base, out)


MUTATIONS = [
    "none", "swap", "duplicate", "reinsert", "reinsert-base", "unplaced-corner",
    "placed-corner", "repeated-corner", "corner-out-of-range", "x-out-of-range",
    "extra-base-use", "drop", "empty",
]


def mutate(rng, n, seq, kind, base_uses):
    """``seq`` with one defect of the given kind; returns (n, sequence)."""
    steps = list(seq.steps)
    k = rng.randrange(len(steps)) if steps else 0
    if kind == "empty":
        steps = []
    elif not steps or kind == "none":
        pass
    elif kind == "swap":
        j = rng.randrange(len(steps))
        steps[k], steps[j] = steps[j], steps[k]
    elif kind == "duplicate":
        steps.insert(rng.randint(k + 1, len(steps)), steps[k])
    elif kind == "reinsert":
        steps[k] = (rng.choice([x for x, _ in steps[:k]] or seq.base), steps[k][1])
    elif kind == "reinsert-base":
        steps[k] = (rng.choice(seq.base), steps[k][1])
    elif "corner" in kind:
        x, tri = steps[k]
        tri = list(tri)
        i = rng.randrange(3)
        if kind == "unplaced-corner":
            tri[i] = rng.choice([y for y, _ in steps[k:]])
        elif kind == "placed-corner":
            # mostly a triangle of placed vertices that is not a face
            tri[i] = rng.choice([y for y, _ in steps[:k]] + list(seq.base))
        elif kind == "repeated-corner":
            tri[i] = tri[(i + 1) % 3]
        else:
            tri[i] = rng.choice([n, n + 7, -1])
        steps[k] = (x, tuple(tri))
    elif kind == "x-out-of-range":
        steps[k] = (rng.choice([n, n + 3, -1]), steps[k][1])
    elif kind == "extra-base-use":
        # fresh vertices taking the base face once more than allowed
        extra = [(n + i, tuple(rng.sample(seq.base, 3))) for i in range(base_uses + 1)]
        steps[k:k] = extra
        n += len(extra)
    elif kind == "drop":
        del steps[k]
    return n, BuildSequence(seq.base, steps)


def loop_verdict(run_loop, seq, n, error, messages):
    """What the step loop ``run_loop`` makes of ``seq``, read step by step:
    (its own error at the first step it rejects, else the first step that
    inserts a vertex out of range or one already placed, with ``messages``
    in the type ``error``, else None; the vertices placed before that)."""
    placed = set(seq.base)
    for k, (x, tri) in enumerate(seq.steps):
        try:
            run_loop(BuildSequence(seq.base, seq.steps[: k + 1]))
        except StructureError as exc:
            return (type(exc).__name__, str(exc)), placed
        except IndexError:
            pass  # the replay loop writes the coordinates of x after its face check
        if not 0 <= x < n:
            return (error, messages["range"].format(x=x, n=n)), placed
        if x in placed:
            return (error, messages["placed"].format(x=x)), placed
        placed.add(x)
    return None, placed


class TestSequenceKernel:
    """The build-sequence kernel against the step loops of
    planarity_oracle (verification) and replay_oracle (replay)."""

    @given(st.integers(0, 10_000), st.integers(0, 40), st.sampled_from(MUTATIONS))
    @settings(max_examples=300, deadline=None)
    def test_verification_matches_the_loop(self, seed, steps, kind):
        rng = random.Random(seed)
        n, seq = mutate(rng, *grown_sequence(rng, steps, 2), kind, 2)
        want, _ = loop_verdict(
            lambda s: reference_planarity(LabeledGraph(n), s), seq, n, "NotPlanar3TreeError",
            {"range": "not a 3-tree: inserted vertex {x} is out of range for {n} vertices",
             "placed": "not a 3-tree: vertex {x} is already placed"},
        )
        assert outcome(_check_planarity, seq, n) == want
        if kind == "none":
            assert want is None

    @given(st.integers(0, 10_000), st.integers(0, 40), st.sampled_from(MUTATIONS))
    @settings(max_examples=300, deadline=None)
    def test_replay_matches_the_loop(self, seed, steps, kind):
        rng = random.Random(seed)
        n, seq = mutate(rng, *grown_sequence(rng, steps, 1), kind, 1)
        g, emb = LabeledGraph(n), Embedding([], seq.base)
        want, placed = loop_verdict(
            lambda s: reference_seed_any(g, emb, s), seq, n, "StructureError",
            {"range": "replay: inserted vertex {x} is out of range for {n} vertices",
             "placed": "replay: vertex {x} is already placed"},
        )
        missing = sorted(set(range(n)) - placed)
        if want is None and missing:
            want = "StructureError", f"replay: vertex {missing[0]} is never placed"
        for rng_seed in (None, seed):
            rngs = [None if rng_seed is None else np.random.default_rng(rng_seed) for _ in "ab"]
            got = outcome(replay, g, emb, seq, None, rngs[0])
            if want is None:
                assert got == outcome(reference_seed_any, g, emb, seq, None, rngs[1])
                assert rng_seed is None or rngs[0].random() == rngs[1].random()
            else:
                assert got == want
        if kind == "none":
            assert want is None

    @given(st.integers(0, 10_000), st.integers(0, 40), st.sampled_from([1, 2]))
    @settings(max_examples=50, deadline=None)
    def test_levels_match_the_loop(self, seed, steps, base_uses):
        n, seq = grown_sequence(random.Random(seed), steps, base_uses)
        check = _check_build_sequence(seq, n, base_uses)
        assert (check.bad, check.reason) == (-1, "")
        level = dict.fromkeys(seq.base, 0)
        for x, (a, b, c) in seq.steps:
            level[x] = 1 + max(level[a], level[b], level[c])
        assert check.level.tolist() == [level[x] for x, _ in seq.steps]
        assert check.xs.tolist() == [x for x, _ in seq.steps]
        assert check.tris.tolist() == [list(tri) for _, tri in seq.steps]


class TestSerialization:
    def test_graph_roundtrip(self):
        g, _ = k4()
        g.labels[0] = "root"
        back = read_graph(write_graph(g))
        assert back.n == g.n and back.edges == g.edges and back.labels == g.labels

    def test_embedding_roundtrip(self):
        _, emb = k4()
        back = read_embedding(write_embedding(emb))
        assert back.rotation == emb.rotation
        assert back.outer_face == emb.outer_face

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(StructureError, match="^line 2: negative vertex count -3$"):
            read_graph("# header\ngraph -3\n")

    def test_bad_graph_text(self):
        with pytest.raises(StructureError):
            read_graph("graph 3\nq 0 1\n")
