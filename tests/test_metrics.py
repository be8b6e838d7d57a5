import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres.families import build_frame, build_G, build_H, build_Htilde
from angres.graphs import Embedding, LabeledGraph, StructureError
from angres.geometry import angle_at
from angres.graphs import verify_planar_3tree
from angres.layout import LayoutConfig, layout_frame_fan, layout_nested, layout_seed_any
from angres.metrics import (
    angular_resolution,
    claim_quantities,
    frame_profile,
    orientation_signs,
    read_drawing,
    telescoping_product,
    validate_drawing,
    write_drawing,
)
from resolution_oracle import angular_resolution as reference_resolution
from segment_oracle import reference_valid

TOL = 1e-9


def triangle_drawing():
    g = LabeledGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    emb = Embedding([[1, 2], [2, 0], [0, 1]], (0, 1, 2))
    coords = np.array([[0.0, 1.0], [math.sqrt(3) / 2, -0.5], [-math.sqrt(3) / 2, -0.5]])
    return g, emb, coords


class TestValidate:
    def test_equilateral_triangle_valid(self):
        g, emb, coords = triangle_drawing()
        assert validate_drawing(g, emb, coords) == []

    def test_flipped_face_detected(self):
        g, emb, coords = triangle_drawing()
        bad = coords[[0, 2, 1]]  # mirrors the drawing, outer face flips
        viols = validate_drawing(g, emb, bad)
        assert viols
        kinds = {v.kind for v in viols}
        assert "flipped-face" in kinds or "rotation-mismatch" in kinds

    def test_coincident_points_detected(self):
        g, emb, coords = triangle_drawing()
        bad = coords.copy()
        bad[1] = bad[0]
        viols = validate_drawing(g, emb, bad)
        assert any(v.kind == "coincident" for v in viols)

    @pytest.mark.parametrize(
        "points, coincident",
        [
            ([(0.0, 1.0), (-0.0, 0.5), (1.0, 0.0), (-0.0, 1.0)], True),  # -0.0 == 0.0
            ([(0.0, 1.0), (-0.0, 0.5), (1.0, 0.0), (-0.0, 2.0)], False),
            ([(1.0, -0.0), (2.0, 0.0), (1.0, 0.0), (0.0, 1.0)], True),
            ([(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (2.0, 2.0)], False),
        ],
    )
    def test_coincident_means_equal_as_floats(self, points, coincident):
        g = LabeledGraph(4)
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(i, j)
        emb = Embedding([[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]], (0, 2, 1))
        viols = validate_drawing(g, emb, np.array(points))
        assert any(v.kind == "coincident" for v in viols) == coincident

    def test_crossing_detected(self):
        # K4 with the interior vertex dragged outside: edges must cross
        g = LabeledGraph(4)
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(i, j)
        emb = Embedding([[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]], (0, 2, 1))
        coords = np.array([[0.0, 1.0], [0.87, -0.5], [-0.87, -0.5], [0.0, 5.0]])
        viols = validate_drawing(g, emb, coords)
        assert viols

    def test_fan_layouts_valid(self):
        for d in (1, 2, 5, 9):
            fam, coords = layout_frame_fan(d)
            assert validate_drawing(fam.graph, fam.embedding, coords) == []

    def test_non_triangulated_embedding_rejected(self):
        g = LabeledGraph(4)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4)
        emb = Embedding([[3, 1], [0, 2], [1, 3], [2, 0]], (0, 1, 2, 3))
        coords = np.array([[-1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        with pytest.raises(StructureError):
            validate_drawing(g, emb, coords)

    @given(
        st.sampled_from(["frame1", "frame2", "frame3", "frame5", "g12", "h12", "htilde12", "htilde22"]),
        st.sampled_from(["valid", "jitter", "swap", "mirror", "collapse"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_segment_oracle(self, name, perturbation, seed):
        fam = _ORACLE_FAMILIES[name]()
        g, emb = fam.graph, fam.embedding
        coords = layout_nested(fam)
        rng = np.random.default_rng(seed)
        edges = np.asarray(sorted(g.edges))
        if perturbation == "jitter":
            # up to one shortest incident edge: sometimes valid, sometimes not
            length = np.hypot(*(coords[edges[:, 0]] - coords[edges[:, 1]]).T)
            near = np.full(g.n, np.inf)
            np.minimum.at(near, edges[:, 0], length)
            np.minimum.at(near, edges[:, 1], length)
            scale = rng.choice([0.05, 0.3, 1.0]) * near
            coords = coords + rng.normal(0.0, 1.0, coords.shape) * scale[:, None]
        elif perturbation == "swap":
            i, j = rng.choice(g.n, 2, replace=False)
            coords[[i, j]] = coords[[j, i]]
        elif perturbation == "mirror":
            coords[:, 0] = -coords[:, 0]
        elif perturbation == "collapse":
            i, j = edges[rng.integers(len(edges))]
            coords[i] = coords[j]
        expected = reference_valid(g, emb, coords)
        assert (validate_drawing(g, emb, coords) == []) == expected
        if perturbation == "valid":
            assert expected


_ORACLE_FAMILIES = {
    "frame1": lambda: build_frame(1),
    "frame2": lambda: build_frame(2),
    "frame3": lambda: build_frame(3),
    "frame5": lambda: build_frame(5),
    "g12": lambda: build_G(1, 2),
    "h12": lambda: build_H(1, 2),
    "htilde12": lambda: build_Htilde(1, 2),
    "htilde22": lambda: build_Htilde(2, 2),
}
_RESOLUTION_FAMILIES = {
    **_ORACLE_FAMILIES,
    "htilde18": lambda: build_Htilde(1, 8),
    "htilde24": lambda: build_Htilde(2, 4),
    "htilde32": lambda: build_Htilde(3, 2),
}


class TestOrientationSigns:
    def test_near_collinear_triples_match_exact_arithmetic(self):
        # a sits within a few ulps of the line through b and c; the naive
        # float determinant reads many of these as collinear and flips some
        ulp = math.ulp(0.5)
        pts = []
        for i in range(64):
            for j in range(64):
                pts += [(0.5 + i * ulp, 0.5 + j * ulp), (12.0, 12.0), (24.0, 24.0)]
        coords = np.array(pts)
        # (b, c, a): the float determinant is then taken relative to a, the
        # same rounding as the naive one below
        tri = np.arange(len(pts)).reshape(-1, 3)[:, [1, 2, 0]]
        exact, naive = [], []
        for a, b, c in coords.reshape(-1, 3, 2):
            (ax, ay), (bx, by), (cx, cy) = (map(Fraction, p) for p in (a, b, c))
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            exact.append((det > 0) - (det < 0))
            fdet = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            naive.append(int(np.sign(fdet)))
        assert any(n * e < 0 for n, e in zip(naive, exact))
        assert orientation_signs(coords, tri).tolist() == exact


class TestAngularResolution:
    def test_equilateral_triangle(self):
        g, _, coords = triangle_drawing()
        rep = angular_resolution(g, coords)
        assert rep.resolution == pytest.approx(math.pi / 3)

    def test_witness_matches_minimum(self):
        fam, coords = layout_frame_fan(4)
        rep = angular_resolution(fam.graph, coords)
        v, (a, b) = rep.witness
        assert fam.graph.has_edge(v, a) and fam.graph.has_edge(v, b)
        assert angle_at(coords[a], coords[v], coords[b]) == pytest.approx(rep.resolution)

    def test_zero_length_edge_raises(self):
        g, _, coords = triangle_drawing()
        coords = coords.copy()
        coords[1] = coords[0]
        with pytest.raises(StructureError):
            angular_resolution(g, coords)

    @pytest.mark.parametrize("name", sorted(_RESOLUTION_FAMILIES))
    @pytest.mark.parametrize("drawing", ["nested", "centroid", "jitter"])
    def test_matches_loop_oracle(self, name, drawing):
        fam = _RESOLUTION_FAMILIES[name]()
        g, emb = fam.graph, fam.embedding
        if drawing == "centroid":
            coords = layout_seed_any(g, emb, verify_planar_3tree(g, keep=emb.outer_face))
        else:
            coords = layout_nested(fam)
        if drawing == "jitter":
            rng = np.random.default_rng(len(name))
            coords = coords + rng.normal(0.0, 1e-3, coords.shape)
        assert angular_resolution(g, coords) == reference_resolution(g, coords)

    @given(
        st.integers(1, 7),
        st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=21),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=7, max_size=7),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracle_on_grid_graphs(self, n, pairs, points):
        # grid points give collinear edges (equal angles, zero gaps), ties
        # within TOL and zero-length edges; small n gives isolated vertices
        g = LabeledGraph(n)
        for i, j in pairs:
            if i != j and max(i, j) < n:
                g.add_edge(i, j)
        coords = np.array(points[:n], dtype=float) * 0.1
        try:
            want = reference_resolution(g, coords)
        except StructureError as exc:
            with pytest.raises(StructureError, match=str(exc)):
                angular_resolution(g, coords)
        else:
            assert angular_resolution(g, coords) == want


class TestFrameProfile:
    @given(st.integers(2, 12), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_additivity_and_telescoping_on_jittered_fans(self, d, seed):
        fam, coords = layout_frame_fan(d)
        rng = np.random.default_rng(seed)
        jit = coords + rng.normal(0.0, 0.01, coords.shape) * np.abs(coords).max(axis=1, keepdims=True)
        jit[fam.roles.root] = coords[fam.roles.root]
        prof = frame_profile(fam.roles, jit)
        # additivity: the composite gap sums agree with directly measured
        # chord angles (all composites stay below pi at this apex angle)
        w = fam.roles.root
        for k in range(2, d + 1):
            u_k = fam.roles.u[k - 1]
            v_prev = fam.roles.v[k - 2]
            v_k = fam.roles.v[k - 1]
            assert prof.alpha1[k] == pytest.approx(
                angle_at(jit[v_prev], jit[w], jit[v_k]), abs=TOL
            )
            assert prof.alpha2[k] == pytest.approx(
                angle_at(jit[u_k], jit[w], jit[v_prev]), abs=TOL
            )
        lhs, rhs = telescoping_product(prof)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_fan_profile_values(self):
        d = 6
        fam, coords = layout_frame_fan(d)
        cfg = LayoutConfig()
        prof = frame_profile(fam.roles, coords)
        # uniform fan: each v-gap is apex/(2d)
        for k in range(2, d + 1):
            assert prof.alpha1[k] == pytest.approx(cfg.apex_angle / (2 * d))
        assert prof.apex_total == pytest.approx(cfg.apex_angle)

    def test_claim_bound_on_fans(self):
        for d in (2, 4, 6, 8, 12):
            fam, coords = layout_frame_fan(d)
            q = claim_quantities(fam.roles, coords)
            assert q.averaging_bound_holds
            assert max(2, (d + 1) // 2) <= q.j <= d


class TestSerialization:
    def test_drawing_roundtrip_exact(self):
        fam, coords = layout_frame_fan(3)
        back = read_drawing(write_drawing(coords))
        assert np.array_equal(back, coords)

    def test_signed_area_orientation(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        tri = np.array([[0, 1, 2], [0, 2, 1], [0, 1, 3]])
        assert orientation_signs(coords, tri).tolist() == [1, -1, 0]
