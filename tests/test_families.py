import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres.families import (
    FamilySpec,
    ParameterError,
    build_family,
    build_frame,
    build_G,
    build_H,
    build_Htilde,
    epsilon_to_c,
    insert_copy,
    vertex_count_G,
)
from angres.graphs import internal_triangles, max_degree, verify_planar_3tree


def check_structure(fam):
    g, emb = fam.graph, fam.embedding
    assert len(g.edges) == 3 * g.n - 6
    # raises unless every face is a triangle, V - E + F = 2 and the outer
    # face is traced; a triangulation has 2n - 4 faces
    assert len(internal_triangles(g, emb)) == 2 * g.n - 5
    verify_planar_3tree(g, keep=emb.outer_face)


class TestFrame:
    @given(st.integers(1, 24))
    @settings(max_examples=24, deadline=None)
    def test_structure_and_degree(self, d):
        fam = build_frame(d)
        check_structure(fam)
        assert fam.graph.n == 2 * d + 1
        assert max_degree(fam.graph) == 2 * d
        assert len(fam.graph.adjacency()[fam.roles.root]) == 2 * d

    def test_labels(self):
        fam = build_frame(3)
        labels = set(fam.graph.labels.values())
        assert labels == {"w", "u1", "u2", "u3", "v1", "v2", "v3"}

    def test_bad_d(self):
        with pytest.raises(ParameterError):
            build_frame(0)


class TestG:
    def test_vertex_count_recurrence(self):
        for c in range(1, 4):
            for d in range(1, 9):
                fam = build_G(c, d)
                assert fam.graph.n == vertex_count_G(c, d)

    @given(st.integers(1, 3), st.integers(1, 8))
    @settings(max_examples=24, deadline=None)
    def test_structure_and_degree_bound(self, c, d):
        fam = build_G(c, d)
        check_structure(fam)
        assert max_degree(fam.graph) <= 4 * d + 13

    def test_c1_is_frame(self):
        fam = build_G(1, 4)
        assert fam.graph.n == 2 * 5 + 1  # the (d+1)-frame


class TestHAndHtilde:
    @given(st.integers(1, 2), st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_h_structure(self, c, d):
        fam = build_H(c, d)
        check_structure(fam)

    @given(st.integers(1, 2), st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_htilde_structure_and_degree_bound(self, c, d):
        fam = build_Htilde(c, d)
        check_structure(fam)
        assert max_degree(fam.graph) <= 8 * d + 31

    def test_htilde_1_2_counts(self):
        fam = build_Htilde(1, 2)
        assert fam.graph.n == 43
        assert len(fam.graph.edges) == 3 * 43 - 6

    def test_determinism(self):
        a = build_Htilde(2, 3)
        b = build_Htilde(2, 3)
        assert a.graph.edges == b.graph.edges
        assert a.embedding.rotation == b.embedding.rotation


class TestInsertCopy:
    def test_rejects_non_face(self):
        host = build_frame(3)
        sub = build_frame(2)
        with pytest.raises(Exception):
            insert_copy(host, (0, 1, 6), 0, sub, sub.roles.root)

    def test_merges_boundary_edges(self):
        host = build_frame(2)
        n0, e0 = host.graph.n, len(host.graph.edges)
        sub = build_frame(2)
        w, u, v = host.roles.root, host.roles.u, host.roles.v
        insert_copy(host, (w, v[0], v[1]), v[1], sub, sub.roles.root)
        assert host.graph.n == n0 + sub.graph.n - 3
        assert len(host.graph.edges) == e0 + len(sub.graph.edges) - 3
        check_structure(host)


class TestSpecAndMapping:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            FamilySpec("frame", 2, 3)  # frame takes no c
        with pytest.raises(ParameterError):
            FamilySpec("htilde", None, 3)
        with pytest.raises(ParameterError):
            FamilySpec("nope", 1, 3)

    def test_build_family_dispatch(self):
        assert build_family(FamilySpec("frame", None, 3)).graph.n == 7
        assert build_family(FamilySpec("g", 1, 3)).graph.n == 9
        assert build_family(FamilySpec("h", 1, 2)).graph.n == 16
        assert build_family(FamilySpec("htilde", 1, 2)).graph.n == 43

    def test_epsilon_half_exact(self):
        c, expo = epsilon_to_c(0.5)
        assert c == 2 and expo == 0.5

    @given(st.floats(min_value=1e-6, max_value=0.5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_epsilon_mapping_bound(self, eps):
        c, expo = epsilon_to_c(eps)
        assert c >= 2
        assert expo == 1.0 / (2.0 * 3.0 ** (c - 2))
        assert expo <= eps + 1e-12
        if c > 2:
            # c is minimal: one level less would overshoot eps
            assert 1.0 / (2.0 * 3.0 ** (c - 3)) > eps

    def test_epsilon_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            epsilon_to_c(0.0)
