import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres import graphs
from angres.families import FamilySpec, build_family, build_frame, build_G, build_H, build_Htilde
from angres.graphs import (
    MAX_VERTICES,
    BuildSequence,
    Embedding,
    LabeledGraph,
    NotPlanar3TreeError,
    StructureError,
    canonical_cycle,
    euler_check,
    face_cycle_from,
    internal_triangles,
    max_degree,
    read_embedding,
    read_graph,
    rotation_edges,
    verify_planar_3tree,
    write_embedding,
    write_graph,
)
from angres.graphs import (
    _PLANARITY_ERRORS,
    _certified,
    _check_build_sequence,
    _rooted_sequence,
    _sorted_rows,
)
from angres.metrics import Triangulation
from elimination_oracle import verify_canonically as reference_verify
from face_oracle import internal_triangles as reference_triangles
from face_oracle import rotation_rows
from family_oracle import ORACLE_CASES
from planarity_oracle import _replay_planarity as reference_planarity
from planarity_oracle import sequence, step_list
from replay_oracle import layout_seed_any as reference_seed_any
from replay_oracle import replay


def k4():
    g = LabeledGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    rot = [[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]]
    return g, Embedding.from_rows(rot, (0, 2, 1))


def triangle():
    g = LabeledGraph(3, [(0, 1), (1, 2), (0, 2)])
    return g, Embedding.from_rows([[1, 2], [2, 0], [0, 1]], (0, 1, 2))


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
    grown = LabeledGraph(x + 1, np.vstack([graph.edges, [(t, x) for t in face]]))
    graph.n, graph.edges = grown.n, grown.edges
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
    rotation = rotation_rows(emb)
    faces = [(0, 2, 1)]  # bounded face of the bare triangle
    for _ in range(steps):
        tri = rng.choice(faces)
        faces.remove(tri)
        x = insert_vertex_in_face(g, rotation, tri)
        faces.extend([(tri[0], tri[1], x), (tri[1], tri[2], x), (tri[2], tri[0], x)])
    return g, Embedding.from_rows(rotation, emb.outer_face)


class TestLabeledGraph:
    def test_edge_normalizes(self):
        assert LabeledGraph(4, [(3, 1)]).edges.tolist() == [[1, 3]]
        with pytest.raises(StructureError):
            LabeledGraph(4, [(2, 2)])

    def test_degree_and_validate(self):
        g, _ = k4()
        assert max_degree(g) == 3
        assert max_degree(LabeledGraph(3)) == max_degree(LabeledGraph(0)) == 0
        g.validate()

    def test_out_of_range_edge(self):
        with pytest.raises(StructureError):
            LabeledGraph(2, [(0, 5)])

    def test_label_on_unknown_vertex(self):
        with pytest.raises(StructureError, match="^label on unknown vertex 5$"):
            LabeledGraph(3, [], {0: "a", 5: "b"}).validate()

    @pytest.mark.parametrize("label", ["a\u3000", " a"])
    def test_label_with_an_outer_space(self, label):
        # read back, its 'l' record would name another label
        assert read_graph(f"graph 3\nl 0 {label}\n").labels == {0: "a"}
        want = f"^label on vertex 0 is empty or holds a space: {re.escape(repr(label))}$"
        with pytest.raises(StructureError, match=want):
            write_graph(LabeledGraph(3, [], {0: label}))

    def test_duplicate_labels(self):
        with pytest.raises(StructureError, match="^duplicate vertex labels$"):
            LabeledGraph(3, [], {0: "a", 2: "a"}).validate()

    def test_reader_needs_a_header(self):
        with pytest.raises(StructureError, match="^missing 'graph <V>' header$"):
            read_graph("# only a comment\n")

    def test_negative_vertex_count(self):
        with pytest.raises(StructureError, match="^negative vertex count -2$"):
            LabeledGraph(-2)

    def test_vertex_count_whose_edge_keys_overflow(self):
        # up to MAX_VERTICES every edge key v * n + u fits int64, so the
        # edge of the two highest vertices is kept; one more vertex, or a
        # count whose keys wrap (once the edge was silently dropped), is
        # rejected
        n = MAX_VERTICES
        assert LabeledGraph(n, [(n - 1, n - 2), (0, 1)]).edges.tolist() == [[0, 1], [n - 2, n - 1]]
        with pytest.raises(StructureError, match=f"^vertex count {n + 1} exceeds {n}: "):
            LabeledGraph(n + 1, [(n, n - 1), (0, 1)])
        with pytest.raises(StructureError, match="^line 1: vertex count 4000000000 exceeds "):
            read_graph("graph 4000000000\ne 3999999998 3999999999\ne 0 1\n")


class TestEdgeFormat:
    """Any pairs become the one edge format: the sorted (m, 2) int64 array
    of rows (i, j), i < j, without repeats."""

    def test_any_pairs_give_the_canonical_array(self):
        g = build_Htilde(1, 3).graph
        pairs = [tuple(p) for p in g.edges.tolist()]
        want = np.array(sorted(pairs), dtype=np.int64)
        rng = random.Random(7)
        shuffled = rng.sample(pairs, len(pairs))
        flipped = [(j, i) for i, j in shuffled]
        repeated = shuffled + flipped + rng.sample(pairs, 10)
        for given_pairs in (shuffled, flipped, repeated, set(flipped), np.array(repeated),
                            iter(flipped)):
            edges = LabeledGraph(g.n, given_pairs).edges
            assert edges.dtype == np.int64 and edges.shape == want.shape
            assert np.array_equal(edges, want)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_empty_graph(self, n):
        for pairs in ((), [], set(), np.empty((0, 2), dtype=np.int64)):
            edges = LabeledGraph(n, pairs).edges
            assert edges.shape == (0, 2) and edges.dtype == np.int64
        assert LabeledGraph(n).edges.shape == (0, 2)

    @pytest.mark.parametrize(
        "pair, message",
        [
            ((2, 2), "self-loop at vertex 2"),
            ((-1, 2), "bad edge (-1, 2) for n=4"),
            ((2, -3), "bad edge (2, -3) for n=4"),
            ((1, 4), "edge (1, 4) exceeds vertex count 4"),
            ((9, 0), "edge (0, 9) exceeds vertex count 4"),
        ],
    )
    def test_bad_pair_rejected(self, pair, message):
        for pairs in ([(0, 1), pair, (1, 2)], np.array([(0, 1), pair])):
            with pytest.raises(StructureError) as exc:
                LabeledGraph(4, pairs)
            assert str(exc.value) == message


class TestRotationEdges:
    def test_k4_and_empty(self):
        g, emb = k4()
        edges = rotation_edges(emb)
        assert edges.dtype == np.int64 and np.array_equal(edges, g.edges)
        empty = [Embedding.from_rows(rows, ()) for rows in ([], [[], []])]
        assert rotation_edges(empty[0]).shape == (0, 2) == rotation_edges(empty[1]).shape

    def test_vertex_no_row_lists(self):
        # each pair comes from the row of its smaller end; vertex 0 is in no row
        emb = Embedding.from_rows([[1, 2], [], [1]], ())
        assert rotation_edges(emb).tolist() == [[0, 1], [0, 2]]

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(StructureError, match=r"^edge \(0, 5\) exceeds vertex count 2$"):
            rotation_edges(Embedding.from_rows([[5], []], ()))


class TestEmbeddingFormat:
    """Rotation rows become the CSR arrays ``offset`` and ``nbr`` in
    ``Embedding.from_rows`` alone."""

    @pytest.mark.parametrize(
        "rows", [[], [[]], [[1, 2], [], [0]], [[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]]]
    )
    def test_from_rows_round_trips(self, rows):
        emb = Embedding.from_rows(rows, (0, 2, 1))
        assert emb.offset.dtype == emb.nbr.dtype == np.int64
        assert emb.offset.tolist() == [sum(map(len, rows[:v])) for v in range(len(rows) + 1)]
        assert [emb.row(v).tolist() for v in range(len(rows))] == rows
        assert emb.outer_face == (0, 2, 1)

    @pytest.mark.parametrize("big", [2**70, -(2**70)])
    def test_only_entries_beyond_int64_read_as_minus_one(self, big):
        # an entry within int64 but out of range is kept as written
        emb = Embedding.from_rows([[big, 1, 4], [7, -5, 0]], (0, 1))
        assert emb.nbr.tolist() == [-1, 1, 4, 7, -5, 0]

    def test_empty_row_text(self):
        emb = Embedding.from_rows([[], [0]], (0, 1))
        assert write_embedding(emb) == "rot 0 \nrot 1 0\nouter 0 1\n"

    def test_entry_beyond_int64_fails_the_edge_check(self):
        g, emb = k4()
        message = "^rotation at vertex 1 does not match its incident edges$"
        bad = with_rotation(emb, 1, [0, 3, 2**70])
        assert bad.nbr[bad.offset[1] + 2] == -1
        with pytest.raises(StructureError, match=message):
            internal_triangles(g, bad)
        text = write_embedding(emb).replace("rot 1 0 3 2", f"rot 1 0 3 {2**70}")
        with pytest.raises(StructureError, match=message):
            internal_triangles(g, read_embedding(text))


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
        cyc = face_cycle_from(emb, 0, 1)
        assert len(cyc) == 3 and 0 in cyc and 1 in cyc

    def test_rotation_mismatch_rejected(self):
        g, emb = k4()
        rot = rotation_rows(emb)
        rot[0] = [2, 1]  # missing neighbor 3
        with pytest.raises(StructureError, match="rotation at vertex 0"):
            internal_triangles(g, Embedding.from_rows(rot, emb.outer_face))

    def test_canonical_cycle_rotation_invariant(self):
        assert canonical_cycle((2, 0, 1)) == canonical_cycle((0, 1, 2))

    def test_internal_triangles_drop_the_outer_face(self):
        g, emb = k4()
        tri = internal_triangles(g, emb)
        assert sorted(map(tuple, tri.tolist())) == [(0, 1, 3), (0, 3, 2), (1, 2, 3)]

    def test_internal_triangles_need_a_traced_outer_face(self):
        g, emb = k4()
        with pytest.raises(StructureError):
            internal_triangles(g, Embedding(emb.offset, emb.nbr, (0, 1, 2)))


def shuffled_3tree(seed, steps):
    """``random_3tree`` with its vertices renamed at random and each rotation
    list and the outer face started at a random entry: the same embedding
    with a new half-edge numbering."""
    rng = random.Random(seed)
    g, emb = random_3tree(seed, steps)
    perm = list(range(g.n))
    rng.shuffle(perm)
    shuffled = LabeledGraph(g.n, [(perm[i], perm[j]) for i, j in g.edges.tolist()])
    rotation = [[] for _ in range(g.n)]
    for v, rot in enumerate(rotation_rows(emb)):
        k = rng.randrange(len(rot))
        rotation[perm[v]] = [perm[u] for u in rot[k:] + rot[:k]]
    k = rng.randrange(3)
    outer = tuple(perm[v] for v in emb.outer_face[k:] + emb.outer_face[:k])
    return shuffled, Embedding.from_rows(rotation, outer)


def k7_on_the_torus():
    """K7 with its triangular torus embedding: every face is a triangle but
    V - E + F = 0."""
    g = LabeledGraph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
    rotation = [[(v + k) % 7 for k in (1, 3, 2, 6, 4, 5)] for v in range(7)]
    return g, Embedding.from_rows(rotation, (0, 1, 3))


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
    rotation = rotation_rows(emb)
    rotation[v] = rot
    return Embedding.from_rows(rotation, emb.outer_face)


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
            # the sizes the one-sort twin pairing is timed on
            lambda: build_Htilde(2, 32),
            lambda: build_Htilde(3, 8),
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

    def test_edges_listed_twice_from_one_end_are_rejected(self):
        # every edge key comes twice, as in a valid rotation, but each pair
        # of half-edges leaves the same vertex: 0 -> 1 twice, 1 -> 0 never
        g, emb = k4()
        rows = [[1, 1, 2], [2, 2, 3], [0, 3, 3], [0, 0, 1]]
        assert_matches_loop(g, Embedding.from_rows(rows, emb.outer_face), rejected=True)

    def test_out_of_range_entry_standing_in_for_a_moved_one_is_rejected(self):
        # 0 -> 6 has the undirected key 0 * 4 + 6 of edge (1, 2), and 1 -> 2
        # is gone: every edge key comes twice, from two different vertices
        g, emb = k4()
        rows = [[2, 3, 1, 6], [0, 3], [1, 3, 0], [0, 2, 1]]
        assert_matches_loop(g, Embedding.from_rows(rows, emb.outer_face), rejected=True)

    def test_first_bad_vertex_is_named(self):
        g, emb = k4()
        emb = with_rotation(with_rotation(emb, 3, [0, 2]), 1, [0, 3, 7])
        assert_matches_loop(g, emb, rejected=True)

    def test_rotation_length_mismatch(self):
        g, emb = k4()
        rows = rotation_rows(emb)[:3]
        assert_matches_loop(g, Embedding.from_rows(rows, emb.outer_face), rejected=True)

    @given(st.integers(0, 10_000), st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_first_non_triangular_face_matches_the_loop(self, seed, steps):
        # dropping edges of a triangulation merges faces into longer ones
        g, emb = shuffled_3tree(seed, steps)
        rng = random.Random(seed)
        dropped = rng.sample(range(len(g.edges)), rng.randint(1, 3))
        rotation = rotation_rows(emb)
        for i, j in g.edges[dropped].tolist():
            rotation[i].remove(j)
            rotation[j].remove(i)
        g = LabeledGraph(g.n, np.delete(g.edges, dropped, axis=0))
        assert_matches_loop(g, Embedding.from_rows(rotation, emb.outer_face), rejected=True)

    @given(st.integers(0, 10_000), st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_scrambled_rotation_matches_the_loop(self, seed, steps):
        # a shuffled rotation at one vertex mostly leaves a non-plane embedding
        g, emb = shuffled_3tree(seed, steps)
        rng = random.Random(seed)
        rotation = rotation_rows(emb)
        v = rng.choice([u for u in range(g.n) if len(rotation[u]) >= 4] or [0])
        rng.shuffle(rotation[v])
        assert_matches_loop(g, Embedding.from_rows(rotation, emb.outer_face), rejected=None)

    def test_long_face_is_named_in_one_short_line(self):
        # shuffled rotation rows make faces of hundreds of vertices; the error
        # names the first by its length and its first three vertices
        fam = build_Htilde(2, 4)
        rows = rotation_rows(fam.embedding)
        rng = random.Random(0)
        for v in rng.sample(range(len(rows)), 200):
            rng.shuffle(rows[v])
        emb = Embedding.from_rows(rows, fam.embedding.outer_face)
        assert_matches_loop(fam.graph, emb, rejected=True)
        with pytest.raises(StructureError) as exc:
            internal_triangles(fam.graph, emb)
        assert str(exc.value) == "face of length 186 starting (0, 67, 4) is not a triangle"

    def test_euler_failure_matches_the_loop(self):
        assert_matches_loop(*k7_on_the_torus(), rejected=True)

    @pytest.mark.parametrize("outer", [(0, 1, 2), (0, 2, 1, 3), (0, 2), (0, 2, 9), (0, 2, -1)])
    def test_untraced_outer_face_matches_the_loop(self, outer):
        g, emb = k4()
        assert_matches_loop(g, Embedding(emb.offset, emb.nbr, outer), rejected=True)


class TestInsertion:
    def test_insert_updates_faces(self):
        g, emb = triangle()
        rotation = rotation_rows(emb)
        x = insert_vertex_in_face(g, rotation, (0, 2, 1))
        assert x == 3
        faces = all_faces(g, Embedding.from_rows(rotation, emb.outer_face))
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
        assert (seq.xs.shape, seq.tris.shape) == ((1,), (1, 3))

    @given(st.integers(0, 10_000), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_random_3tree_verifies_and_replays(self, seed, steps):
        g, emb = random_3tree(seed, steps)
        seq = verify_planar_3tree(g, keep=emb.outer_face)
        assert set(seq.base) == set(emb.outer_face)
        a, b, c = seq.base
        joins = np.stack([np.repeat(seq.xs, 3), seq.tris.ravel()], axis=1)
        rebuilt = np.vstack([[(a, b), (b, c), (a, c)], joins])
        assert np.array_equal(LabeledGraph(g.n, rebuilt).edges, g.edges)

    def test_octahedron_rejected(self):
        # 4-regular maximal planar graph: no degree-3 vertex at all
        g = octahedron()
        assert len(g.edges) == 3 * 6 - 6
        with pytest.raises(NotPlanar3TreeError):
            verify_planar_3tree(g)

    def test_wrong_edge_count_rejected(self):
        g = LabeledGraph(4, [(0, 1)])
        with pytest.raises(NotPlanar3TreeError):
            verify_planar_3tree(g)

    def test_triangle_with_three_apexes_fails_the_face_check(self):
        # elimination removes all three apexes, but the bare triangle has
        # only two sides to insert them into
        g = LabeledGraph(
            6, [(0, 1), (1, 2), (0, 2)] + [(t, x) for x in (3, 4, 5) for t in (0, 1, 2)]
        )
        assert len(g.edges) == 3 * 6 - 6
        with pytest.raises(NotPlanar3TreeError) as exc:
            verify_planar_3tree(g)
        assert str(exc.value) == (
            "not planar: insertion of vertex 3 targets triangle (0, 1, 2), "
            "which is not a face of the partial embedding"
        )


def octahedron():
    """The 4-regular maximal planar graph on 6 vertices: no degree-3 vertex."""
    return LabeledGraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4),
                            (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)])


def verify_outcome(fn, graph, keep=None):
    """The build sequence ``fn`` returns, as the repr of its base (so int
    types count) and its arrays' dtypes, shapes and bytes; or the type and
    message of the StructureError it raises."""
    try:
        seq = fn(graph, keep)
    except StructureError as exc:
        return type(exc).__name__, str(exc)
    arrays = [(a.dtype, a.shape, a.tobytes()) for a in (seq.xs, seq.tris)]
    return type(seq).__name__, repr(seq.base), *arrays


class TestEliminationAgainstOracle:
    """The elimination on index arrays against the set-based loop in
    elimination_oracle: the same sequence, listed by level, then by vertex,
    and the same errors."""

    @pytest.mark.parametrize("name, c, d", ORACLE_CASES)
    def test_families(self, name, c, d):
        fam = build_family(FamilySpec(name, c, d))
        for keep in (None, fam.embedding.outer_face):
            got = verify_outcome(verify_planar_3tree, fam.graph, keep)
            assert got == verify_outcome(reference_verify, fam.graph, keep)
            assert got[0] == "BuildSequence"

    @given(st.integers(0, 10_000), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_random_3trees(self, seed, steps):
        g, emb = shuffled_3tree(seed, steps)
        inner = internal_triangles(g, emb)[random.Random(seed).randrange(2 * g.n - 5)]
        for keep in (None, emb.outer_face, tuple(inner.tolist())):
            got = verify_outcome(verify_planar_3tree, g, keep)
            assert got == verify_outcome(reference_verify, g, keep)

    def test_errors(self):
        octahedron_edges = octahedron().edges.tolist()
        # plus a degree-3 vertex in the face (0, 1, 2)
        stuck = LabeledGraph(7, octahedron_edges + [(t, 6) for t in (0, 1, 2)])
        # plus a degree-3 vertex whose neighbours 0, 5 are apart
        loose = LabeledGraph(7, octahedron_edges + [(t, 6) for t in (0, 1, 5)])
        apexes = LabeledGraph(
            6, [(0, 1), (1, 2), (0, 2)] + [(t, x) for x in (3, 4, 5) for t in (0, 1, 2)]
        )
        short = LabeledGraph(4, [(0, 1)])
        cases = [
            (octahedron(), None, "elimination stuck with 6"),
            (stuck, None, "elimination stuck with 6"),
            (loose, None, "elimination stuck with 7"),
            (short, None, "E=1"),
            (apexes, None, "not planar"),
            (k4()[0], (0, 1, 2), None),
            (octahedron(), (0, 1, 5), "keep triple (0, 1, 5) is not a triangle"),
            (k4()[0], (0, 0, 1), "keep triple (0, 0, 1) is not a triangle"),
            (LabeledGraph(2), None, "need at least 3 vertices"),
        ]
        for graph, keep, message in cases:
            got = verify_outcome(verify_planar_3tree, graph, keep)
            assert got == verify_outcome(reference_verify, graph, keep)
            if message is not None:
                assert message in got[1]


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
    return steps + 3, sequence(base, out)


MUTATIONS = [
    "none", "swap", "duplicate", "reinsert", "reinsert-base", "unplaced-corner",
    "placed-corner", "repeated-corner", "corner-out-of-range", "x-out-of-range",
    "extra-base-use", "drop", "empty",
]


def mutate(rng, n, seq, kind, base_uses):
    """``seq`` with one defect of the given kind; returns (n, sequence)."""
    steps = step_list(seq)
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
    return n, sequence(seq.base, steps)


def loop_verdict(run_loop, seq, n, error, messages):
    """What the step loop ``run_loop`` makes of ``seq``, read step by step:
    (its own error at the first step it rejects, else the first step that
    inserts a vertex out of range or one already placed, with ``messages``
    in the type ``error``, else None; the vertices placed before that)."""
    placed = set(seq.base)
    done = step_list(seq)
    for k, (x, tri) in enumerate(done):
        try:
            run_loop(sequence(seq.base, done[: k + 1]))
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
        got = outcome(_check_build_sequence, seq, n, 2, _PLANARITY_ERRORS, NotPlanar3TreeError)
        assert got[1] == (len(seq.xs),) if want is None else got == want
        if kind == "none":
            assert want is None

    @given(st.integers(0, 10_000), st.integers(0, 40), st.sampled_from(MUTATIONS))
    @settings(max_examples=300, deadline=None)
    def test_replay_matches_the_loop(self, seed, steps, kind):
        rng = random.Random(seed)
        n, seq = mutate(rng, *grown_sequence(rng, steps, 1), kind, 1)
        g, emb = LabeledGraph(n), Embedding.from_rows([], seq.base)
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
            got = outcome(replay, g, emb, seq, rngs[0])
            if want is None:
                assert got == outcome(reference_seed_any, g, emb, seq, rngs[1])
                assert rng_seed is None or rngs[0].random() == rngs[1].random()
            else:
                assert got == want
        if kind == "none":
            assert want is None

    @given(st.integers(0, 10_000), st.integers(0, 40), st.sampled_from([1, 2]))
    @settings(max_examples=50, deadline=None)
    def test_levels_match_the_loop(self, seed, steps, base_uses):
        n, seq = grown_sequence(random.Random(seed), steps, base_uses)
        got = _check_build_sequence(seq, n, base_uses, _PLANARITY_ERRORS, NotPlanar3TreeError)
        level = dict.fromkeys(seq.base, 0)
        for x, (a, b, c) in step_list(seq):
            level[x] = 1 + max(level[a], level[b], level[c])
        assert got.tolist() == [level[x] for x in seq.xs.tolist()]


CERTIFIED_CASES = [("frame", None, d) for d in (1, 2, 3, 4, 6)] + [
    (name, c, d) for name in ("g", "h", "htilde") for c in (1, 2, 3) for d in (1, 2, 3)
]


def uncertified(graph):
    """``graph``'s vertices, edges and labels, without its certificate."""
    return LabeledGraph(graph.n, graph.edges, graph.labels)


def stacked_graph(seq):
    """The graph that the build sequence ``seq`` stacks: its base triangle
    and each step's three edges."""
    a, b, c = seq.base
    pairs = [(a, b), (a, c), (b, c)] + [(x, t) for x, tri in step_list(seq) for t in tri]
    return LabeledGraph(len(seq.xs) + 3, pairs)


def placements(mesh):
    """The bytes of a mesh's centroid replay and of its jittered replays at
    ``rng([42, r])`` for r = 2..4, the starts of restarts 0 and 2..4."""
    rngs = [None] + [np.random.default_rng([42, r]) for r in (2, 3, 4)]
    return [mesh.replay.place(rng=rng).tobytes() for rng in rngs]


class TestCertificate:
    """The builders' stacking orders, listed without the elimination, give
    the elimination's sequence bit for bit; any certificate that fails the
    exact check leaves the elimination's result or error."""

    @pytest.mark.parametrize("name, c, d", CERTIFIED_CASES)
    def test_builders_record_an_exact_certificate(self, name, c, d):
        fam = build_family(FamilySpec(name, c, d))
        g, emb = fam.graph, fam.embedding
        cert = g.certificate
        assert set(cert.base) == set(emb.outer_face)
        _check_build_sequence(cert, g.n, 1, _PLANARITY_ERRORS, NotPlanar3TreeError)
        assert len(cert.xs) == g.n - 3
        assert np.array_equal(stacked_graph(cert).edges, g.edges)
        assert _certified(g, emb.outer_face, 1) is not None

    @pytest.mark.parametrize("name, c, d", CERTIFIED_CASES)
    def test_verification_and_replay_equal_the_elimination(self, name, c, d):
        fam = build_family(FamilySpec(name, c, d))
        g, emb = fam.graph, fam.embedding
        keep = emb.outer_face
        got = verify_outcome(verify_planar_3tree, g, keep)
        assert got[0] == "BuildSequence"
        assert got == verify_outcome(verify_planar_3tree, uncertified(g), keep)
        assert got == verify_outcome(reference_verify, g, keep)
        assert placements(Triangulation(g, emb)) == placements(Triangulation(uncertified(g), emb))

    @pytest.mark.parametrize("name, c, d", CERTIFIED_CASES)
    def test_listing_order_does_not_matter(self, name, c, d):
        """The certificate re-listed in random parent-first orders, each
        triangle's corners and the base shuffled, verifies and replays as
        the graph without it, jittered replays included."""
        fam = build_family(FamilySpec(name, c, d))
        g, emb = fam.graph, fam.embedding
        keep, cert = emb.outer_face, g.certificate
        want = verify_outcome(verify_planar_3tree, uncertified(g), keep)
        drawn = placements(Triangulation(uncertified(g), emb))
        level = _check_build_sequence(cert, g.n, 1, _PLANARITY_ERRORS, NotPlanar3TreeError)
        rng = np.random.default_rng([c or 0, d])
        for _ in range(3):
            order = np.lexsort((rng.random(level.size), level))
            base = tuple(rng.permutation(cert.base).tolist())
            g.certificate = BuildSequence(base, cert.xs[order], rng.permuted(cert.tris[order], axis=1))
            assert _certified(g, keep, 2) is not None
            assert verify_outcome(verify_planar_3tree, g, keep) == want
            assert placements(Triangulation(g, emb)) == drawn

    @pytest.mark.parametrize("name, c, d", [("g", 2, 3), ("htilde", 2, 4), ("frame", None, 6)])
    def test_rooted_sequence_is_the_two_key_lexsort(self, name, c, d):
        """On a certificate whose steps are shuffled (parent first) and
        whose triangles' corners are too, ``_rooted_sequence``'s one
        argsort of level * n + x and its sorting network give the order of
        ``np.lexsort((xs, level))`` and ``np.sort(tris, axis=1)``."""
        fam = build_family(FamilySpec(name, c, d))
        g, keep, cert = fam.graph, fam.embedding.outer_face, fam.graph.certificate
        level = _check_build_sequence(cert, g.n, 2, _PLANARITY_ERRORS, NotPlanar3TreeError)
        rng = np.random.default_rng([c or 0, d, 7])
        for _ in range(3):
            shuffle = np.lexsort((rng.random(level.size), level))
            g.certificate = shuffled = BuildSequence(
                cert.base, cert.xs[shuffle], rng.permuted(cert.tris[shuffle], axis=1)
            )
            seq, got = _rooted_sequence(g, keep, 2, _PLANARITY_ERRORS, NotPlanar3TreeError)
            assert _certified(g, keep, 2) is not None
            order = np.lexsort((shuffled.xs, level[shuffle]))
            assert np.array_equal(got, level[shuffle][order])
            assert np.array_equal(seq.xs, shuffled.xs[order])
            assert np.array_equal(seq.tris, np.sort(shuffled.tris[order], axis=1))

    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_sorted_rows_is_the_row_sort(self, rows):
        tris = np.array(rows, dtype=np.int64).reshape(-1, 3)
        assert np.array_equal(_sorted_rows(tris), np.sort(tris, axis=1))

    @pytest.mark.parametrize("name, c, d", [("g", 2, 3), ("htilde", 2, 2), ("frame", None, 4)])
    def test_verification_lists_steps_by_level_then_vertex(self, name, c, d):
        fam = build_family(FamilySpec(name, c, d))
        g, keep = fam.graph, fam.embedding.outer_face
        for graph, root in ((g, keep), (uncertified(g), keep), (g, None)):
            seq = verify_planar_3tree(graph, root)
            level = _check_build_sequence(seq, g.n, 2, _PLANARITY_ERRORS, NotPlanar3TreeError)
            assert (np.diff(level) >= 0).all()
            assert (np.diff(seq.xs)[np.diff(level) == 0] > 0).all()
            assert (np.diff(seq.tris, axis=1) > 0).all()
            assert list(seq.base) == sorted(seq.base)

    def test_built_families_skip_the_elimination(self, monkeypatch):
        def refused(graph, keep):
            raise AssertionError("eliminated a certified graph")

        monkeypatch.setattr(graphs, "_eliminate", refused)
        fam = build_family(FamilySpec("htilde", 2, 3))
        verify_planar_3tree(fam.graph, fam.embedding.outer_face)
        Triangulation(fam.graph, fam.embedding).replay.place()
        with pytest.raises(AssertionError, match="eliminated"):
            verify_planar_3tree(fam.graph)

    def assert_eliminated(self, g, keep):
        """``g`` verifies, or fails, as it does without its certificate and
        as the oracle's elimination does, and its certificate is not used."""
        assert _certified(g, keep, 2) is None
        got = verify_outcome(verify_planar_3tree, g, keep)
        assert got == verify_outcome(verify_planar_3tree, uncertified(g), keep)
        assert got == verify_outcome(reference_verify, g, keep)
        return got

    def test_edge_flips_leave_the_certificate_stale(self):
        fam = build_family(FamilySpec("htilde", 2, 2))
        g, emb = fam.graph, fam.embedding
        faces = internal_triangles(g, emb).tolist()
        edges = set(map(tuple, g.edges.tolist()))
        verdicts = set()
        for (a, b, c), (p, q, r) in zip(faces, faces[1:]):
            shared = {a, b, c} & {p, q, r}
            if len(shared) != 2:
                continue
            (x,), (y,) = {a, b, c} - shared, {p, q, r} - shared
            if (min(x, y), max(x, y)) in edges:
                continue
            flipped = (edges - {tuple(sorted(shared))}) | {(min(x, y), max(x, y))}
            stale = LabeledGraph(g.n, sorted(flipped), g.labels, g.certificate)
            verdicts.add(self.assert_eliminated(stale, emb.outer_face)[0])
        assert verdicts == {"BuildSequence", "NotPlanar3TreeError"}

    def test_changed_vertex_count_leaves_the_certificate_stale(self):
        fam = build_family(FamilySpec("h", 2, 2))
        g, emb = fam.graph, fam.embedding
        keep = emb.outer_face
        isolated = LabeledGraph(g.n + 1, g.edges, g.labels, g.certificate)
        assert "E=" in self.assert_eliminated(isolated, keep)[1]
        # one more vertex stacked into a face: a planar 3-tree the old
        # certificate no longer covers
        face = internal_triangles(g, emb)[0].tolist()
        grown = np.vstack([g.edges, [(t, g.n) for t in face]])
        stacked = LabeledGraph(g.n + 1, grown, g.labels, g.certificate)
        assert self.assert_eliminated(stacked, keep)[0] == "BuildSequence"

    def test_altered_triangle_is_rejected(self):
        fam = build_family(FamilySpec("g", 2, 3))
        g, emb = fam.graph, fam.embedding
        cert = g.certificate
        for k in (0, len(cert.xs) // 2, len(cert.xs) - 1):
            tris = cert.tris.copy()
            tris[k, 0] = next(v for v in range(g.n) if v not in tris[k] and v != cert.xs[k])
            g.certificate = type(cert)(cert.base, cert.xs, tris)
            assert self.assert_eliminated(g, emb.outer_face)[0] == "BuildSequence"

    def test_other_roots_are_eliminated(self):
        fam = build_family(FamilySpec("htilde", 2, 2))
        g, emb = fam.graph, fam.embedding
        inner = tuple(internal_triangles(g, emb)[5].tolist())
        for keep in (None, inner):
            assert self.assert_eliminated(g, keep)[0] == "BuildSequence"
        assert verify_outcome(verify_planar_3tree, g, (0, 0, 1)) == verify_outcome(
            reference_verify, g, (0, 0, 1)
        )

    def test_a_graph_read_back_carries_none(self):
        fam = build_family(FamilySpec("htilde", 2, 3))
        g, keep = fam.graph, fam.embedding.outer_face
        back = read_graph(write_graph(g))
        assert back.certificate is None
        assert verify_outcome(verify_planar_3tree, back, keep) == verify_outcome(
            verify_planar_3tree, g, keep
        )

    @given(st.integers(0, 10_000), st.integers(0, 30), st.sampled_from([1, 2]),
           st.sampled_from(MUTATIONS))
    @settings(max_examples=200, deadline=None)
    def test_random_certificates(self, seed, steps, base_uses, kind):
        """A random stacking as the certificate of the graph it stacks, with
        one defect of each kind: the certificate is used exactly when it
        passes the check, and the result never differs from the
        elimination's."""
        rng = random.Random(seed)
        n, seq = grown_sequence(rng, steps, base_uses)
        g = stacked_graph(seq)
        g.certificate = mutate(rng, n, seq, kind, base_uses)[1]
        for keep in (None, seq.base, seq.base[::-1]):
            got = verify_outcome(verify_planar_3tree, g, keep)
            assert got == verify_outcome(verify_planar_3tree, uncertified(g), keep)
            assert got == verify_outcome(reference_verify, g, keep)
        if kind == "none":
            assert _certified(g, seq.base, 2) is not None


class TestSerialization:
    def test_graph_roundtrip(self):
        g, _ = k4()
        g.labels[0] = "root"
        back = read_graph(write_graph(g))
        assert back.n == g.n and np.array_equal(back.edges, g.edges) and back.labels == g.labels

    def test_embedding_roundtrip(self):
        for emb in (k4()[1], build_frame(5).embedding, build_Htilde(2, 3).embedding):
            back = read_embedding(write_embedding(emb))
            assert np.array_equal(back.offset, emb.offset) and np.array_equal(back.nbr, emb.nbr)
            assert back.outer_face == emb.outer_face

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(StructureError, match="^line 2: negative vertex count -3$"):
            read_graph("# header\ngraph -3\n")

    def test_bad_graph_text(self):
        with pytest.raises(StructureError):
            read_graph("graph 3\nq 0 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph 3\ne 0 1\ngraph 5\n", "line 3: repeated 'graph' header"),
            ("graph 3\nl 7 x\n", "line 2: label on unknown vertex 7"),
            ("graph 3\nl -1 x\n", "line 2: label on unknown vertex -1"),
            ("graph 3\nl 0 a\nl 0 b\n", "line 3: repeated 'l' record for vertex 0"),
            ("graph 3\ne 0 5\n", "line 2: edge (0, 5) exceeds vertex count 3"),
            ("graph 3\ne 1 1\n", "line 2: self-loop at vertex 1"),
            ("graph 3\ne -1 2\n", "line 2: bad edge (-1, 2) for n=3"),
            ("graph 3\ne 0 1\ne 1 2\ne 0 1\n", "line 4: repeated 'e' record for edge (0, 1)"),
            ("graph 3\ne 0 1\ne 1 0\n", "line 3: repeated 'e' record for edge (0, 1)"),
            ("graph 3\ne 2 1\ne 0 2\ne 1 2\ne 2 1\n",
             "line 4: repeated 'e' record for edge (1, 2)"),
            ("graph 3 9\ne 0 1\ne 1 2\ne 0 2\n", "line 1: 'graph' record needs 1 fields, got 2"),
            ("graph 3\ne 0 1 2\ne 1 2\ne 0 2\n", "line 2: 'e' record needs 2 fields, got 3"),
            ("graph 3\nl 0 a b\n", "line 2: 'l' record needs 2 fields, got 3"),
        ],
    )
    def test_bad_graph_record_names_its_line(self, text, message):
        with pytest.raises(StructureError) as exc:
            read_graph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rot 0 1 2\nrot 1 2 0\nrot 0 2 1\nrot 2 0 1\nouter 0 1 2\n",
             "line 3: repeated 'rot' record for vertex 0"),
            ("rot 0 1 2\nrot 1 2 0\nrot 2 0 1\nouter 0 1 2\nouter 0 2 1\n",
             "line 5: repeated 'outer' record"),
        ],
    )
    def test_repeated_embedding_record_rejected(self, text, message):
        with pytest.raises(StructureError) as exc:
            read_embedding(text)
        assert str(exc.value) == message
