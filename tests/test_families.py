import math
import re
from fractions import Fraction

import numpy as np
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
    glue_copies,
    vertex_count_G,
)
from angres.graphs import (
    MAX_VERTICES,
    StructureError,
    internal_triangles,
    max_degree,
    verify_planar_3tree,
    write_embedding,
    write_graph,
)
from angres.layout import layout_nested
from angres.metrics import Triangulation, angular_resolution
from angres.svg import export_svg
from family_oracle import (
    ORACLE_CASES,
    embedding_text,
    list_family,
    oracle_family,
    stacking,
    with_arrays,
)
from family_oracle import build_frame as reference_frame
from family_oracle import insert_copy as reference_insert_copy


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

    @pytest.mark.parametrize("build", [build_G, build_H, build_Htilde])
    @pytest.mark.parametrize("c, d", [(0, 2), (2, 0)])
    def test_bad_c_or_d(self, build, c, d):
        with pytest.raises(ParameterError, match=f"^need c >= 1 and d >= 1, got c={c}, d={d}$"):
            build(c, d)

    def test_c1_is_frame(self):
        fam = build_G(1, 4)
        assert fam.graph.n == 2 * 5 + 1  # the (d+1)-frame

    def test_d1_is_frame_without_recursion(self):
        # d = 1 glues no copy, so any c gives G^(1)_1 without recursing c
        # levels (c = 5000 would exceed Python's recursion limit)
        got, want = build_G(5000, 1), build_G(1, 1)
        assert got.graph.n == want.graph.n == vertex_count_G(5000, 1)
        for a, b in ((got.graph.edges, want.graph.edges),
                     (got.embedding.offset, want.embedding.offset),
                     (got.embedding.nbr, want.embedding.nbr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.embedding.outer_face == want.embedding.outer_face
        assert got.graph.labels == want.graph.labels
        assert got.roles == want.roles
        assert got.placements == want.placements == []


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
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert np.array_equal(a.embedding.offset, b.embedding.offset)
        assert np.array_equal(a.embedding.nbr, b.embedding.nbr)


def assert_same_family(got, want):
    """Equal fields, vertex maps and sub-families, and the certificate the
    oracle's stacking order."""
    assert got.graph.n == want.graph.n
    assert got.graph.edges.dtype == np.int64
    assert np.array_equal(got.graph.edges, want.graph.edges)
    base, steps = stacking(want)
    cert = got.graph.certificate
    assert cert.xs.dtype == cert.tris.dtype == np.int64 and cert.base == base
    assert list(zip(cert.xs.tolist(), map(tuple, cert.tris.tolist()))) == steps
    assert got.graph.labels == want.graph.labels
    for name in ("offset", "nbr"):
        got_array, want_array = getattr(got.embedding, name), getattr(want.embedding, name)
        assert got_array.dtype == np.int64 and np.array_equal(got_array, want_array)
    assert got.embedding.outer_face == want.embedding.outer_face
    assert (got.roles and vars(got.roles)) == (want.roles and vars(want.roles))
    assert len(got.placements) == len(want.placements)
    for p, q in zip(got.placements, want.placements):
        assert p.vmap.dtype == np.int64
        assert p.vmap.tolist() == [q.vmap[i] for i in range(q.sub.graph.n)]
        assert_same_family(p.sub, q.sub)


class TestGlueCopies:
    def test_rejects_non_face(self):
        host = build_frame(3)
        sub = build_frame(2)
        with pytest.raises(StructureError, match="is not a face of the host embedding"):
            glue_copies(host, sub, [((0, 1, 6), 0, sub.roles.root, False)])

    def test_merges_boundary_edges(self):
        host = build_frame(2)
        n0, e0 = host.graph.n, len(host.graph.edges)
        sub = build_frame(2)
        w, u, v = host.roles.root, host.roles.u, host.roles.v
        glue_copies(host, sub, [((w, v[0], v[1]), v[1], sub.roles.root, False)])
        assert host.graph.n == n0 + sub.graph.n - 3
        assert len(host.graph.edges) == e0 + len(sub.graph.edges) - 3
        check_structure(host)

    @pytest.mark.parametrize("name, c, d", ORACLE_CASES)
    def test_matches_copy_by_copy_gluing(self, name, c, d):
        got = build_family(FamilySpec(name, c, d))
        want = list_family(name, c, d)
        # the embedding text, from the arrays and from the oracle's lists
        assert write_embedding(got.embedding) == embedding_text(want.embedding)
        assert_same_family(got, with_arrays(want))

    def test_later_gluing_sees_earlier_copies(self):
        # the second call glues into a face of the first call's fresh vertices
        sub = build_frame(2)
        host = build_frame(2)
        want, reference_sub = reference_frame(2), reference_frame(2)
        first = ((host.roles.root, host.roles.v[0], host.roles.v[1]), host.roles.v[1])
        reference_insert_copy(want, *first, reference_sub, reference_sub.roles.root, mirror=True)
        face = tuple(want.embedding.rotation[want.graph.n - 1][:2]) + (want.graph.n - 1,)
        reference_insert_copy(want, face, face[2], reference_sub, reference_sub.roles.root)
        with_arrays(want)
        glue_copies(host, sub, [(*first, sub.roles.root, True)])
        glue_copies(host, sub, [(face, face[2], sub.roles.root, False)])
        assert_same_family(host, want)
        check_structure(host)

    @staticmethod
    def failing_gluings(host, sub):
        """Gluing lists of frame(2) copies into ``host``, a frame(2) with or
        without earlier copies, that fail only at their second gluing: the
        same face twice, and a face the first copy makes."""
        root, (v0, v1) = host.roles.root, host.roles.v
        first = ((root, v0, v1), v1, sub.roles.root, True)
        n = host.graph.n  # the first copy's interior vertices become n and n + 1
        return [[first, first], [first, ((v1, n, n + 1), n, sub.roles.root, False)]]

    @pytest.mark.parametrize("case", [0, 1], ids=["face-twice", "face-of-earlier-copy"])
    def test_gluing_into_a_face_made_in_the_same_call_is_rejected(self, case):
        sub = build_frame(2)
        first, second = self.failing_gluings(build_frame(2), sub)[case]
        # one call per gluing: the first always works, and the second only
        # when it targets a face the first copy made
        host = build_frame(2)
        glue_copies(host, sub, [first])
        if case == 1:
            glue_copies(host, sub, [second])
            check_structure(host)
        message = f"{tuple(sorted(second[0]))} is not a face of the host embedding"
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            glue_copies(build_frame(2), sub, [first, second])

    @pytest.mark.parametrize("case", [0, 1], ids=["face-twice", "face-of-earlier-copy"])
    def test_failing_gluing_leaves_the_host_untouched(self, case):
        host, sub = build_frame(2), build_frame(2)
        glue_copies(host, sub, [((0, 1, 2), 0, sub.roles.root, False)])
        n, offset, nbr = host.graph.n, host.embedding.offset.copy(), host.embedding.nbr.copy()
        edges, placements = host.graph.edges.copy(), list(host.placements)
        with pytest.raises(StructureError, match="is not a face of the host embedding"):
            glue_copies(host, sub, self.failing_gluings(host, sub)[case])
        assert host.graph.n == n and host.placements == placements
        assert np.array_equal(host.embedding.offset, offset)
        assert np.array_equal(host.embedding.nbr, nbr)
        assert np.array_equal(host.graph.edges, edges)

    @pytest.mark.parametrize(
        "gluing, message",
        [
            (((0, 0, 1), 0, 0, False), "face (0, 0, 1) is not a triangle"),
            (((0, 1, 2), 3, 0, False), "root target 3 is not on face (0, 1, 2)"),
            (((0, 1, 2), 0, 1, False), "copy root 1 is not on the copy's outer face"),
        ],
    )
    def test_errors_match_copy_by_copy_gluing(self, gluing, message):
        face, root_target, copy_root, mirror = gluing
        with pytest.raises(StructureError) as want:
            reference_insert_copy(
                reference_frame(1), face, root_target, reference_frame(2), copy_root, mirror
            )
        with pytest.raises(StructureError) as got:
            glue_copies(build_frame(1), build_frame(2), [gluing])
        assert str(got.value) == str(want.value) == message


class TestEdgeOrder:
    """The package reads each edge array off the rotation; the oracle adds
    edges to a set copy by copy and turns it into the array at the end.
    Every output agrees."""

    @pytest.mark.parametrize("name, c, d", [("g", 2, 4), ("htilde", 2, 3)])
    def test_outputs_do_not_depend_on_edge_order(self, name, c, d):
        got = build_family(FamilySpec(name, c, d))
        want = oracle_family(name, c, d)
        assert np.array_equal(got.graph.edges, want.graph.edges)
        emb = got.embedding
        coords = layout_nested(got)
        for keep in (None, emb.outer_face):
            a = verify_planar_3tree(got.graph, keep=keep)
            b = verify_planar_3tree(want.graph, keep=keep)
            assert a.base == b.base
            assert np.array_equal(a.xs, b.xs) and np.array_equal(a.tris, b.tris)
        assert np.array_equal(internal_triangles(got.graph, emb), internal_triangles(want.graph, emb))
        assert np.array_equal(
            Triangulation(got.graph, emb).corners, Triangulation(want.graph, emb).corners
        )
        a = angular_resolution(got.graph, coords)
        b = angular_resolution(want.graph, coords)
        assert a.resolution.hex() == b.resolution.hex()
        assert max_degree(got.graph) == max_degree(want.graph)
        assert write_graph(got.graph) == write_graph(want.graph)
        assert export_svg(got.graph, emb, coords) == export_svg(want.graph, emb, coords)


class TestSpecAndMapping:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            FamilySpec("frame", 2, 3)  # frame takes no c
        with pytest.raises(ParameterError):
            FamilySpec("htilde", None, 3)
        with pytest.raises(ParameterError):
            FamilySpec("nope", 1, 3)

    @pytest.mark.parametrize("name, c, d, want", [
        ("frame", None, 2.5, "d must be an integer, got 2.5"),
        ("htilde", 2.0, 4, "c must be an integer, got 2.0"),
        ("h", 1, "3", "d must be an integer, got '3'"),
        ("g", True, 3, "c must be an integer, got True"),
        ("frame", None, False, "d must be an integer, got False"),
        ("g", 2, None, "d must be an integer, got None"),
        ("frame", None, np.int64(2**62), f"frame\\(4611686018427387904\\) has more than {MAX_VERTICES}"),
    ])
    def test_spec_refuses_what_it_cannot_build(self, name, c, d, want):
        # a numpy integer is taken as the int it holds, so 2 * d + 1 cannot wrap
        with pytest.raises(ParameterError, match=f"^{want}"):
            FamilySpec(name, c, d)

    def test_spec_takes_numpy_integers_as_ints(self):
        spec = FamilySpec("g", np.int32(2), np.int64(3))
        assert (type(spec.c), type(spec.d)) == (int, int) and spec == FamilySpec("g", 2, 3)

    @pytest.mark.parametrize("name,c,d", [
        ("frame", None, 1), ("frame", None, 9), ("g", 1, 4), ("g", 3, 3), ("g", 9, 1), ("h", 1, 2),
        ("h", 2, 4), ("htilde", 1, 1), ("htilde", 2, 3), ("htilde", 3, 2),
    ])
    def test_vertex_count_is_the_built_count(self, name, c, d):
        spec = FamilySpec(name, c, d)
        assert spec.vertex_count() == build_family(spec).graph.n

    @pytest.mark.parametrize("name,c,d,n", [
        # 2d + 1 = MAX_VERTICES, built by no test
        ("frame", None, (MAX_VERTICES - 1) // 2, MAX_VERTICES),
        ("g", 10**12, 1, 5),  # G^(c)_1 is the 2-frame for every c, counted at once
        ("g", 2, 4000, 63_992_003),
        ("htilde", 2, 5000, 899_910_007),
    ])
    def test_largest_specs_taken_without_building(self, name, c, d, n):
        assert FamilySpec(name, c, d).vertex_count() == n

    @pytest.mark.parametrize("name,c,d,args", [
        ("frame", None, (MAX_VERTICES + 1) // 2, (MAX_VERTICES + 1) // 2),
        ("g", 40, 3, "40,3"),  # about 2.4e24 vertices
        ("g", 10**12, 2, f"{10**12},2"),
        ("h", 3, 1000, "3,1000"),
        ("htilde", 30, 2, "30,2"),
        ("htilde", 3, 5000, "3,5000"),
    ])
    def test_spec_past_max_vertices(self, name, c, d, args):
        # refused from the parameters alone, before anything is built
        want = f"^{name}\\({args}\\) has more than {MAX_VERTICES} vertices$"
        with pytest.raises(ParameterError, match=want):
            FamilySpec(name, c, d)

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

    @pytest.mark.parametrize("eps", [0.5, 1e308, 2.0**1023, math.inf, 10**400])
    def test_epsilon_from_one_half_up_is_c_2(self, eps):
        assert epsilon_to_c(eps) == (2, 0.5)

    @pytest.mark.parametrize("eps, want", [
        (5e-324, r"^eps 5e-324 is below 1/\(2\*3\^645\), the least exponent a double holds$"),
        (3e-309, r"^eps 3e-309 is below 1/\(2\*3\^645\)"),
        (Fraction(1, 10**400), r"^eps Fraction\(1, 1000"),  # 2 * eps is 0.0 as a double
        ("0.1", r"^eps must be a real number, got '0.1'$"),
        (True, r"^eps must be a real number, got True$"),
    ])
    def test_epsilon_refuses_what_it_cannot_map(self, eps, want):
        with pytest.raises(ParameterError, match=want):
            epsilon_to_c(eps)

    def test_epsilon_smallest_representable_exponent(self):
        # 1/(2*3^645) is the smallest exponent a double holds
        c, expo = epsilon_to_c(1e-308)
        assert c == 647 and expo == 1.0 / (2.0 * 3.0 ** 645) > 0.0
