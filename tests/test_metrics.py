import functools
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from angres import metrics
from angres.families import build_frame, build_G, build_H, build_Htilde
from angres.graphs import Embedding, LabeledGraph, StructureError
from angres.geometry import angle_at
from angres.graphs import canonical_cycle, internal_triangles, verify_planar_3tree
from angres.layout import APEX_ANGLE, layout_frame_fan, layout_nested, layout_seed_any
from angres.metrics import (
    Triangulation,
    _ORIENT_BOUND,
    _UNDERFLOW_MARGIN,
    _float_orientations,
    _rotation_order,
    Violation,
    angular_resolution,
    drawn_embedding,
    claim_quantities,
    frame_profile,
    read_drawing,
    telescoping_product,
    validate_drawing,
    write_drawing,
)
from angres.optimize import OptimizeConfig, maximize_resolution
from frame_profile_oracle import frame_profile as reference_frame_profile
from objective_oracle import internal_corner_index
from replay_oracle import replay
from resolution_oracle import angular_resolution as reference_resolution
from segment_oracle import reference_valid
from test_graphs import random_3tree

TOL = 1e-9


def triangle_drawing():
    g = LabeledGraph(3, [(0, 1), (1, 2), (0, 2)])
    emb = Embedding.from_rows([[1, 2], [2, 0], [0, 1]], (0, 1, 2))
    coords = np.array([[0.0, 1.0], [math.sqrt(3) / 2, -0.5], [-math.sqrt(3) / 2, -0.5]])
    return g, emb, coords


def k3_drawings(points, rows):
    """A Triangulation of K3, its outer face clockwise, and for each row of
    three indices into ``points`` the drawing that puts those points on its
    one internal face, in the face's order: the drawing is valid exactly
    when that triangle is counterclockwise, and then its reversal, the outer
    face, is clockwise."""
    g, emb, _ = triangle_drawing()
    mesh = Triangulation(g, emb)
    drawings = np.empty((len(rows), 3, 2))
    drawings[:, mesh.faces[0]] = np.asarray(points)[np.asarray(rows)]
    return mesh, drawings


def k4():
    g = LabeledGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    emb = Embedding.from_rows([[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]], (0, 2, 1))
    return g, emb


@functools.lru_cache(maxsize=None)
def _family_and_sequence(name):
    fam = _ORACLE_FAMILIES[name]()
    return fam, verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)


@st.composite
def coincident_drawings(draw):
    """A nested, centroid or jittered drawing of a small family with one
    vertex moved onto another, whose zero coordinates may take the other
    sign."""
    fam, seq = _family_and_sequence(draw(st.sampled_from(sorted(_ORACLE_FAMILIES))))
    kind = draw(st.sampled_from(["nested", "centroid", "jitter"]))
    if kind == "nested":
        coords = layout_nested(fam)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1))) if kind == "jitter" else None
        coords = replay(fam.graph, fam.embedding, seq, rng=rng)
    i = draw(st.integers(0, fam.graph.n - 1))
    j = draw(st.integers(0, fam.graph.n - 2))
    j += j >= i
    coords[i] = coords[j]
    if draw(st.booleans()):
        coords[i] = np.where(coords[i] == 0.0, -coords[i], coords[i])
    return fam.graph, fam.embedding, coords


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
        assert viols and any(v.kind == "flipped-face" for v in viols)

    @given(coincident_drawings())
    @example((*k4(), np.array([(0.0, 1.0), (-0.0, 0.5), (1.0, 0.0), (-0.0, 1.0)])))
    @example((*k4(), np.array([(1.0, -0.0), (2.0, 0.0), (1.0, 0.0), (0.0, 1.0)])))
    @settings(max_examples=200, deadline=None)
    def test_coincident_points_flip_a_face(self, case):
        # strictly counterclockwise internal faces inside a strictly
        # clockwise outer triangle make a drawing one-to-one (Floater 2003),
        # so the orientation signs alone reject two equal points, -0.0 and
        # 0.0 being equal
        graph, emb, coords = case
        assert (coords[:, None] == coords[None]).all(axis=2).sum() > graph.n
        viols = validate_drawing(graph, emb, coords)
        assert any(v.kind == "flipped-face" for v in viols)

    def test_crossing_detected(self):
        # K4 with the interior vertex dragged outside: edges must cross
        g, emb = k4()
        coords = np.array([[0.0, 1.0], [0.87, -0.5], [-0.87, -0.5], [0.0, 5.0]])
        viols = validate_drawing(g, emb, coords)
        assert viols

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_drawing_names_its_first_vertex(self, value):
        fam, coords = layout_frame_fan(3)
        coords[3, 0] = value
        coords[5, 1] = value
        viols = Triangulation(fam.graph, fam.embedding).violations(coords)
        assert viols == [Violation("non-finite", "non-finite coordinates at vertex 3")]
        assert str(viols[0]) == "non-finite: non-finite coordinates at vertex 3"

    def test_fan_layouts_valid(self):
        for d in (1, 2, 5, 9):
            fam, coords = layout_frame_fan(d)
            assert validate_drawing(fam.graph, fam.embedding, coords) == []

    @pytest.mark.parametrize("rows", [2, 4])
    def test_wrong_size_drawing_rejected(self, rows):
        # one shape check for validation, the compiled pair and the edge walk
        g, emb, coords = triangle_drawing()
        coords = np.resize(coords, (rows, 2))
        message = re.escape(f"drawing covers ({rows}, 2), expected (3, 2)")
        for check in (
            lambda: validate_drawing(g, emb, coords),
            lambda: Triangulation(g, emb).violations(coords),
            lambda: angular_resolution(g, coords),
        ):
            with pytest.raises(StructureError, match=message):
                check()

    def test_shape_checked_before_faces(self):
        g = LabeledGraph(4, [(i, (i + 1) % 4) for i in range(4)])
        emb = Embedding.from_rows([[3, 1], [0, 2], [1, 3], [2, 0]], (0, 1, 2, 3))
        with pytest.raises(StructureError, match="drawing covers"):
            validate_drawing(g, emb, np.zeros((3, 2)))

    def test_non_triangulated_embedding_rejected(self):
        g = LabeledGraph(4, [(i, (i + 1) % 4) for i in range(4)])
        emb = Embedding.from_rows([[3, 1], [0, 2], [1, 3], [2, 0]], (0, 1, 2, 3))
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
        edges = g.edges
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


def _row_orientations(coords, tri):
    """``_float_orientations`` as it read the three vertices' rows of the
    drawing, (F, 2) gathers: the reference its column gathers match."""
    a, b, c = coords[tri[:, 0]], coords[tri[:, 1]], coords[tri[:, 2]]
    with np.errstate(over="ignore", invalid="ignore"):
        left = (a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
        right = (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0])
        det = left - right
        certain = np.abs(det) > _ORIENT_BOUND * (np.abs(left) + np.abs(right)) + _UNDERFLOW_MARGIN
    return det, certain


class TestOrientationSigns:
    @pytest.mark.parametrize("case", ["nested", "collapsed", "1e308"])
    def test_float_orientations_match_the_row_gathers(self, case):
        # the same determinant and verdict bytes on nested drawings, the
        # collapsed replays of a deep row and the overflowing triangle
        if case == "1e308":
            g, emb, _ = triangle_drawing()
            drawings = [np.array(TestOverflowingDifferences.POINTS)]
            drawings.append(drawings[0][::-1].copy())
        elif case == "nested":
            fams = [build_Htilde(2, 16), build_G(2, 8), build_frame(5)]
            drawings = [layout_nested(fam) for fam in fams]
        else:
            fam = build_Htilde(2, 16)
            seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
            rngs = (None, *(np.random.default_rng([42, r]) for r in range(2, 5)))
            drawings = [replay(fam.graph, fam.embedding, seq, rng=rng) for rng in rngs]
        for k, coords in enumerate(drawings):
            if case == "nested":
                g, emb = fams[k].graph, fams[k].embedding
            elif case == "collapsed":
                g, emb = fam.graph, fam.embedding
            tri = Triangulation(g, emb).oriented
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _float_orientations(coords, tri)
            want = _row_orientations(coords, tri)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_near_collinear_triples_match_exact_arithmetic(self):
        # a sits within a few ulps of the line through b and c; the naive
        # float determinant reads many of these as collinear and flips some
        ulp = math.ulp(0.5)
        pts = []
        for i in range(64):
            for j in range(64):
                pts += [(0.5 + i * ulp, 0.5 + j * ulp), (12.0, 12.0), (24.0, 24.0)]
        coords = np.array(pts)
        # (b, c, a): the internal face's float determinant is then taken
        # relative to a, the same rounding as the naive one below
        tri = np.arange(len(pts)).reshape(-1, 3)[:, [1, 2, 0]]
        mesh, drawings = k3_drawings(coords, tri)
        exact, naive, got = [], [], []
        for (a, b, c), drawing in zip(coords.reshape(-1, 3, 2), drawings):
            (ax, ay), (bx, by), (cx, cy) = (map(Fraction, p) for p in (a, b, c))
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            exact.append((det > 0) - (det < 0))
            fdet = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            naive.append(int(np.sign(fdet)))
            got.append((mesh.valid(drawing), [v.kind for v in mesh.violations(drawing)]))
        assert any(n * e < 0 for n, e in zip(naive, exact))
        # collinear counts as flipped, for the internal face and the outer one
        assert got == [(e > 0, [] if e > 0 else ["flipped-face"] * 2) for e in exact]


class TestAngularResolution:
    def test_equilateral_triangle(self):
        g, _, coords = triangle_drawing()
        rep = angular_resolution(g, coords)
        assert rep.resolution == pytest.approx(math.pi / 3)

    def test_matches_the_smallest_corner_angle(self):
        fam, coords = layout_frame_fan(4)
        rep = angular_resolution(fam.graph, coords)
        corners = Triangulation(fam.graph, fam.embedding).corners.T.tolist()
        smallest = min(angle_at(coords[a], coords[b], coords[c]) for a, b, c in corners)
        assert smallest == pytest.approx(rep.resolution)

    def test_zero_length_edge_raises(self):
        g, _, coords = triangle_drawing()
        coords = coords.copy()
        coords[1] = coords[0]
        with pytest.raises(StructureError):
            angular_resolution(g, coords)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_raise(self, value):
        # a nan gap would be skipped by the running minimum and an inf one
        # would give -0.0, so the walk refuses such drawings outright
        fam, coords = layout_frame_fan(3)
        coords[3, 0] = value
        coords[5, 1] = value
        with pytest.raises(StructureError, match=r"^non-finite coordinates at vertex 3$"):
            angular_resolution(fam.graph, coords)

    @pytest.mark.parametrize("edges, points, sign", [
        # vertex 0's edges to 1, 2 and 3 on one ray give the gaps 0.0, -0.0
        ([(0, 1), (0, 2), (0, 3), (0, 4)],
         [(0.0, 0.0), (1.0, 0.0), (2.0, -0.0), (3.0, 0.0), (0.0, -1.0)], -1.0),
        # zero gaps -0.0 and then 0.0
        ([(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 4)],
         [(0.1, -0.0), (-0.1, 0.0), (-0.1, -0.1), (-0.1, -0.2), (0.2, 0.0)], 1.0),
    ])
    def test_zero_resolution_has_the_last_zero_gaps_sign(self, edges, points, sign):
        # in vertex, then clockwise, order, whatever order a vectorized min takes
        rep = angular_resolution(LabeledGraph(len(points), edges), np.array(points))
        assert rep.resolution == 0.0 and math.copysign(1.0, rep.resolution) == sign

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
    # vertex 1's three edges all point one way: its wrap gap is 0, as are
    # its others, so the value does not move
    @example(4, {(1, 0), (1, 2), (1, 3), (0, 2)}, [(0, 0), (-2, 0), (1, 0), (2, 0)] + [(0, 0)] * 3)
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracle_on_grid_graphs(self, n, pairs, points):
        # grid points give collinear edges (equal angles, zero gaps), ties
        # within TOL and zero-length edges; small n gives isolated vertices
        g = LabeledGraph(n, [(i, j) for i, j in pairs if i != j and max(i, j) < n])
        coords = np.array(points[:n], dtype=float) * 0.1
        try:
            want = reference_resolution(g, coords)
        except StructureError as exc:
            with pytest.raises(StructureError, match=str(exc)):
                angular_resolution(g, coords)
        else:
            assert angular_resolution(g, coords) == want


def listed_half_edges(g, coords):
    """``angular_resolution``'s half-edges (src, dst) and their angles, each
    vertex's listed by ascending neighbour."""
    ends = g.edges
    src = np.concatenate([ends[:, 1], ends[:, 0]])
    dst = np.concatenate([ends[:, 0], ends[:, 1]])
    vx, vy = (coords[dst] - coords[src]).T
    return src, dst, np.arctan2(vy, vx)


# stars at vertex 0: the points of vertices 0..k
_STAR_CASES = {
    # 1, 2 and 4 on one ray: the tie-break by neighbour puts 1 before 2
    "equal angles": [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (3.0, 0.0)],
    # angles +0.0, -0.0 and +0.0 tie as equal, kept in neighbour order
    "signed zeros": [(0.0, 0.0), (1.0, 0.0), (2.0, -0.0), (3.0, 0.0), (0.0, -1.0)],
    # atan2(-0.0, -1) = -pi and atan2(+0.0, -1) = pi sit on both sides of
    # the branch cut: 2 comes first, 1 last, and the wrap gap 1 -> 2 is 0
    "branch cut": [(0.0, 0.0), (-1.0, -0.0), (-2.0, 0.0), (0.0, 1.0)],
}


class TestRotationOrder:
    """``angular_resolution``'s rotation, one stable sort of integer keys,
    against the three-key lexsort it replaced, and its report against the
    loop oracle."""

    @pytest.mark.parametrize("case", sorted(_STAR_CASES))
    def test_stars(self, case):
        points = _STAR_CASES[case]
        g = LabeledGraph(len(points), [(0, v) for v in range(1, len(points))])
        coords = np.array(points)
        src, dst, ang = listed_half_edges(g, coords)
        perm = _rotation_order(src, ang, g.n)
        want = np.lexsort((dst, -ang, src))
        assert np.array_equal(src[perm], src[want]) and np.array_equal(dst[perm], dst[want])
        rep = angular_resolution(g, coords)
        assert rep == reference_resolution(g, coords) and rep.resolution == 0.0

    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(
        [0.0, -0.0, math.pi, -math.pi, 1.0, -1.0, 2.5, math.nextafter(1.0, 2.0)]
    )), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_lexsort_with_list_order_ties(self, rows):
        src = np.array([v for v, _ in rows], dtype=np.int64)
        ang = np.array([a for _, a in rows], dtype=float)
        perm = _rotation_order(src, ang, 5)
        assert perm.tolist() == np.lexsort((np.arange(src.size), -ang, src)).tolist()

    @pytest.mark.parametrize("name", sorted(_RESOLUTION_FAMILIES))
    def test_matches_lexsort_on_families(self, name):
        fam = _RESOLUTION_FAMILIES[name]()
        coords = layout_nested(fam)
        src, dst, ang = listed_half_edges(fam.graph, coords)
        perm = _rotation_order(src, ang, fam.graph.n)
        want = np.lexsort((dst, -ang, src))
        assert np.array_equal(src[perm], src[want]) and np.array_equal(dst[perm], dst[want])

    def test_key_past_int64_refused(self):
        # 2 half-edges on 2**62 vertices: keys up to 2**63 would wrap
        with pytest.raises(StructureError, match=r"^2 half-edges on 4611686018427387904 vertices"):
            _rotation_order(np.zeros(2, dtype=np.int64), np.zeros(2), 2**62)


class TestResolutionPins:
    """The nested drawings' resolutions on the two large rows, as recorded
    before the rotation became one integer sort, and
    ``Triangulation.resolution`` equal to each."""

    @pytest.mark.parametrize("c, d", [(2, 32), (3, 8)])
    def test_nested(self, c, d, pins):
        fam = build_Htilde(c, d)
        coords = layout_nested(fam)
        rep = angular_resolution(fam.graph, coords)
        value = pins["nested_resolution"][f"htilde {c} {d}"]
        assert repr(float(rep.resolution)) == value
        assert repr(Triangulation(fam.graph, fam.embedding).resolution(coords)) == value


class TestBlockedPasses:
    """``Triangulation`` takes its orientation determinants ``FACE_BLOCK``
    faces at a time and measures its rows by blocks (``row_blocks``).  On
    htilde(2,16), 17,866 oriented faces (five blocks of 2**12) and 8,935
    rows (three blocks of 2**12), and at other sizes, each pass equals the
    pass over one block."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _case():
        fam = build_Htilde(2, 16)
        return fam.graph, fam.embedding, layout_nested(fam)

    # the faces at the vertices of row 17500 are all in the last block of
    # 2**12 faces (and of 2**14), from row 16384 on
    @pytest.mark.parametrize("rows", [(5, 9000, 17500), (17500,)], ids=["spread", "last"])
    @pytest.mark.parametrize("block", [None, 1000, 2**14])
    def test_violations_and_valid(self, monkeypatch, rows, block):
        # each face row in rows flipped by reflecting a free vertex of it
        # through the midpoint of the face's other two
        g, emb, coords = self._case()
        mesh = Triangulation(g, emb)
        coords = coords.copy()
        for row in rows:
            face = mesh.oriented[row].tolist()
            v = next(u for u in face if u in set(mesh.free.tolist()))
            a, b = (u for u in face if u != v)
            coords[v] = coords[a] + coords[b] - coords[v]
        if block is not None:
            monkeypatch.setattr(metrics, "FACE_BLOCK", block)
        size = metrics.FACE_BLOCK
        calls, orientations = [], metrics._float_orientations

        def counted(coords, tri):
            calls.append(len(tri))
            return orientations(coords, tri)

        monkeypatch.setattr(metrics, "_float_orientations", counted)
        flipped, violations = list(mesh._flipped(coords)), mesh.violations(coords)
        del calls[:]
        assert mesh.valid(coords) is False
        # valid stops at the block of the first flipped face
        assert len(calls) == flipped[0] // size + 1
        monkeypatch.setattr(metrics, "FACE_BLOCK", len(mesh.oriented))
        assert list(mesh._flipped(coords)) == flipped and mesh.violations(coords) == violations
        assert set(rows) <= set(flipped) and len(violations) == len(flipped)
        if len(rows) > 1:
            assert len({row // size for row in flipped}) > 1  # flips in several blocks
        else:
            assert flipped[0] >= size  # valid reads more than one block

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("block", [None, 64])
    def test_resolution(self, monkeypatch, scaled, block):
        # scaled, the drawing's largest coordinate lies in [2**1023, 2**1024),
        # where its spread overflows and the whole drawing is measured at
        # half scale, though some blocks' own spreads do not overflow: the
        # test is taken once, over the whole drawing
        g, emb, coords = self._case()
        mesh = Triangulation(g, emb)
        if scaled:
            coords = coords - (coords.max(axis=0) + coords.min(axis=0)) / 2
            coords = np.ldexp(coords, 1024 - math.frexp(np.abs(coords).max())[1])
        if block is not None:
            monkeypatch.setattr(metrics, "ROW_BLOCK", block)
        blocks = list(mesh.row_blocks())
        assert len(blocks) == -(-g.n // metrics.ROW_BLOCK) > 2
        if scaled and block is not None:
            with np.errstate(over="ignore"):
                spreads = [np.ptp(coords[rows], axis=0) for rows, *_ in blocks]
            assert not all(np.isinf(s).any() for s in spreads)
        scales, measured = [], metrics._measured
        monkeypatch.setattr(metrics, "_measured", lambda c: scales.append(1) or measured(c))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocked = mesh.resolution(coords)
            assert len(scales) == 1  # one scale for the whole drawing
            monkeypatch.setattr(metrics, "ROW_BLOCK", g.n)
            whole = mesh.resolution(coords)
            want = angular_resolution(g, coords).resolution
        assert repr(blocked) == repr(whole) == repr(float(want))


def resolution_outcome(measure, g, coords):
    """``repr`` of the resolution ``measure`` gives, sign included, or the
    message of the StructureError it raises."""
    try:
        return repr(float(measure(g, coords).resolution))
    except StructureError as exc:
        return f"StructureError: {exc}"


# stars whose leaves lie on one ray from the centre, (dx, dy) of each leaf
# by ascending vertex, and a last leaf below keeps the wrap gap apart: the
# gaps at the centre, in clockwise order, are 0.0 and then -0.0 at "minus",
# and 0.0 at "plus", where leaves listed by descending vertex would give -0.0
_ZERO_STARS = {
    "minus": [(1.0, 0.0), (2.0, -0.0), (3.0, 0.0), (0.0, -1.0)],
    "plus": [(1.0, 0.0), (2.0, -0.0), (0.0, -1.0)],
}


def zero_star_drawing(n, stars):
    """A graph on ``n`` vertices and its drawing: for each ``(centre, kind,
    side)`` of ``stars`` a star of ``_ZERO_STARS[kind]`` centred at vertex
    ``centre``, its leaves the vertices right after the centre (side 1) or
    right before it (side -1), so that they are its higher or its lower
    neighbours.  Every other vertex is isolated, on a point of its own."""
    coords = np.stack([np.arange(n) * 10.0, np.full(n, 100.0)], axis=1)
    edges = []
    for centre, kind, side in stars:
        leaves = [centre + side * k for k in range(1, len(_ZERO_STARS[kind]) + 1)]
        coords[centre] = (10.0 * centre, 0.0)
        for leaf, (dx, dy) in zip(sorted(leaves), _ZERO_STARS[kind]):
            coords[leaf] = (10.0 * centre + dx, dy)  # 0.0 + -0.0 would be 0.0
            edges.append((centre, leaf))
    return LabeledGraph(n, edges), coords


class TestBlockedAngularResolution:
    """``angular_resolution`` walks the rotation a drawing realizes
    ``ROW_BLOCK`` vertices at a time (``metrics._drawn_rows``).  With the
    block patched to 1, 7 and n, its value, sign included, or its error is
    the one-block value's and the loop oracle's."""

    @staticmethod
    def _blocked(g, coords):
        """The outcomes at blocks of 1, 7, n and the package's own size."""
        got, size = [], metrics.ROW_BLOCK
        try:
            for block in (1, 7, max(g.n, 1), size):
                metrics.ROW_BLOCK = block
                got.append(resolution_outcome(angular_resolution, g, coords))
        finally:
            metrics.ROW_BLOCK = size
        return got

    @pytest.mark.parametrize("stars, sign", [
        ([(0, "minus", 1), (10, "plus", 1)], "0.0"),
        ([(0, "plus", 1), (10, "minus", 1)], "-0.0"),
        ([(2, "minus", 1), (9, "plus", 1), (14, "minus", 1)], "-0.0"),
        ([(4, "minus", -1), (13, "plus", -1)], "0.0"),
        ([(3, "plus", -1), (21, "minus", -1)], "-0.0"),
    ])
    def test_the_last_zero_gap_gives_the_sign(self, stars, sign):
        # zero gaps in several blocks of 1 and of 7; isolated vertices
        # between the stars and after them fill whole blocks of their own
        g, coords = zero_star_drawing(22, stars)
        got = self._blocked(g, coords)
        assert got == [sign] * 4
        assert resolution_outcome(reference_resolution, g, coords) == sign

    @pytest.mark.parametrize("first, second, named", [(2, 12, 2), (12, 2, 2), (5, 12, 12)])
    def test_zero_length_edges_in_two_blocks(self, first, second, named):
        # a path but for the lone edge (5, 6); each zero-length edge joins
        # v to v + 1, on v's point, and only a vertex of degree 2 or more
        # at one counts, so (5, 6) does not and the error names 12
        n = 16
        coords = np.stack([np.arange(n, dtype=float), np.arange(n, dtype=float) ** 2], axis=1)
        edges = [(v, v + 1) for v in range(n - 1) if v == 5 or not {v, v + 1} & {5, 6}]
        for v in (first, second):
            coords[v + 1] = coords[v]
        g = LabeledGraph(n, edges)
        want = f"StructureError: zero-length edge at vertex {named}"
        assert self._blocked(g, coords) == [want] * 4
        assert resolution_outcome(reference_resolution, g, coords) == want

    @pytest.mark.parametrize("n, edges", [(0, []), (1, []), (2, []), (2, [(0, 1)])])
    def test_graphs_of_at_most_two_vertices(self, n, edges):
        g, coords = LabeledGraph(n, edges), np.arange(2.0 * n).reshape(n, 2)
        assert self._blocked(g, coords) == ["inf"] * 4
        assert resolution_outcome(reference_resolution, g, coords) == "inf"

    @given(
        st.integers(1, 20).flatmap(lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
            st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=n, max_size=n),
        )),
        st.sampled_from([-0.0, 0.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_grid_graphs(self, case, zero):
        # grid points give collinear edges (equal angles, zero gaps of
        # either sign), zero-length edges and isolated vertices
        n, pairs, points = case
        g = LabeledGraph(n, [(i, j) for i, j in pairs if i != j])
        coords = np.array(points, dtype=float) * 0.1
        coords[coords == 0] = zero
        got = self._blocked(g, coords)
        assert got == [resolution_outcome(reference_resolution, g, coords)] * 4

    @pytest.mark.parametrize("name", ["htilde24", "htilde32"])
    def test_families(self, name):
        fam = _RESOLUTION_FAMILIES[name]()
        coords = layout_nested(fam)
        got = self._blocked(fam.graph, coords)
        assert got == [resolution_outcome(reference_resolution, fam.graph, coords)] * 4
        assert got[0] == repr(Triangulation(fam.graph, fam.embedding).resolution(coords))


class TestOverflowingDifferences:
    """A finite drawing whose coordinate differences overflow is measured at
    half scale, without a warning; any other drawing as it is."""

    # clockwise, so the outer face (0, 1, 2) of ``triangle_drawing`` holds
    POINTS = [(1e308, 0.0), (0.0, -1e308), (-1e308, 5e307)]

    def test_triangle(self, pins):
        g, emb, _ = triangle_drawing()
        coords = np.array(self.POINTS)
        mesh = Triangulation(g, emb)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mesh.violations(coords) == []
            rep = angular_resolution(g, coords)
            small = angular_resolution(g, coords * 2.0**-600)
            assert mesh.resolution(coords) == rep.resolution
        # overflowed differences read pi / 4 = 0.7853981633974483
        assert repr(float(rep.resolution)) == pins["overflowing_triangle_resolution"]
        assert rep == small

    @pytest.mark.parametrize("name", ["htilde24", "g12", "frame3"])
    def test_spread_past_the_largest_double(self, name):
        fam = _RESOLUTION_FAMILIES[name]()
        g, emb = fam.graph, fam.embedding
        coords = layout_nested(fam)
        coords -= (coords.max(axis=0) + coords.min(axis=0)) / 2
        big = np.ldexp(coords, 1024 - math.frexp(np.abs(coords).max())[1])
        with np.errstate(over="ignore"):
            assert np.isinf(big[g.edges[:, 0]] - big[g.edges[:, 1]]).any()
        mesh = Triangulation(g, emb)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = angular_resolution(g, big)
            assert rep == angular_resolution(g, big / 2)
            assert mesh.resolution(big) == mesh.resolution(big / 2) == rep.resolution
        assert rep.resolution == pytest.approx(angular_resolution(g, coords).resolution, rel=1e-9)


@st.composite
def perturbed_drawings(draw):
    """(graph, embedding, drawing): a nested or jittered drawing of a small
    family, as it is, fuzzed, with a vertex put on the midpoint of its
    face's far side (collinear), a few ulps off it (near-degenerate) or on
    another vertex (coincident), with a non-finite coordinate, or moved by
    a power of two that rounds its small faces away."""
    fam, seq = _family_and_sequence(draw(st.sampled_from(sorted(_ORACLE_FAMILIES))))
    g, emb = fam.graph, fam.embedding
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = layout_nested(fam) if draw(st.booleans()) else replay(g, emb, seq, rng=rng)
    kind = draw(st.sampled_from(
        ["as is", "fuzzed", "collinear", "near-degenerate", "coincident", "non-finite", "offset"]
    ))
    faces = internal_triangles(g, emb)
    a, b, c = faces[rng.integers(len(faces))]
    if kind == "fuzzed":
        edges = g.edges
        length = np.hypot(*(coords[edges[:, 0]] - coords[edges[:, 1]]).T)
        near = np.full(g.n, np.inf)
        np.minimum.at(near, edges[:, 0], length)
        np.minimum.at(near, edges[:, 1], length)
        scale = draw(st.sampled_from([1e-3, 0.1, 0.5])) * near
        coords = coords + rng.normal(0.0, 1.0, coords.shape) * scale[:, None]
    elif kind in ("collinear", "near-degenerate"):
        coords[a] = (coords[b] + coords[c]) / 2.0
        if kind == "near-degenerate":
            coords[a] += np.spacing(coords[a]) * rng.integers(-4, 5, 2)
    elif kind == "coincident":
        coords[a] = coords[b]
    elif kind == "non-finite":
        coords[a, rng.integers(2)] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "offset":
        coords = coords + 2.0 ** draw(st.sampled_from([20, 40, 52]))
    return g, emb, coords


class TestTriangulation:
    @given(perturbed_drawings())
    @settings(max_examples=300, deadline=None)
    def test_valid_is_the_verdict_of_violations(self, case):
        g, emb, coords = case
        mesh = Triangulation(g, emb)
        assert mesh.valid(coords) is (not mesh.violations(coords))

    def test_valid_rejects_the_collapsed_replays_of_a_deep_row(self):
        # the starts the optimizer discards: thousands of flipped faces
        fam = build_Htilde(2, 16)
        g, emb = fam.graph, fam.embedding
        mesh = Triangulation(g, emb)
        seq = verify_planar_3tree(g, keep=emb.outer_face)
        for rng in (None, *(np.random.default_rng([42, r]) for r in range(2, 5))):
            coords = replay(g, emb, seq, rng=rng)
            assert len(mesh.violations(coords)) > 100
            assert mesh.valid(coords) is False
        assert mesh.valid(layout_nested(fam)) is True

    @pytest.mark.parametrize("name", sorted(_RESOLUTION_FAMILIES))
    def test_compiled_arrays(self, name):
        # the faces in face-tracing order, the corners in the objective
        # oracle's order and the off-outer vertices ascending
        fam = _RESOLUTION_FAMILIES[name]()
        g, emb = fam.graph, fam.embedding
        mesh = Triangulation(g, emb)
        idx = internal_corner_index(g, emb)
        assert np.array_equal(mesh.faces, internal_triangles(g, emb))
        assert mesh.corners.shape == (3, len(idx)) and np.array_equal(mesh.corners, idx.T)
        # each face's corner 0, the oracle's penalty vertices
        assert np.array_equal(mesh.corners[:, 0::3], idx[::3].T)
        assert mesh.free.dtype == np.int64
        assert mesh.free.tolist() == [v for v in range(g.n) if v not in emb.outer_face]
        # every face is a triangle, so the internal faces at a free vertex
        # v are one per entry of its rotation row, v with its k-th and
        # (k+1)-th neighbours, as the optimizer's moved faces count them;
        # an outer vertex lies on one face fewer, the outer face
        at = {v: set() for v in range(g.n)}
        for t in mesh.faces.tolist():
            for v in t:
                at[v].add(frozenset(t))
        assert sum(map(len, at.values())) == 3 * len(mesh.faces)
        for v in range(g.n):
            row = emb.nbr[emb.offset[v] : emb.offset[v + 1]].tolist()
            if v in mesh.free:
                assert at[v] == {frozenset((v, u, w)) for u, w in zip(row, row[1:] + row[:1])}
                assert len(at[v]) == len(row)
            else:
                assert len(at[v]) == len(row) - 1

    def test_validation_leaves_the_corner_index_unbuilt(self):
        fam = build_Htilde(1, 2)
        mesh = Triangulation(fam.graph, fam.embedding)
        # nor does compiling keep an array with one entry per half-edge
        arrays = [a for a in vars(mesh).values() if isinstance(a, np.ndarray)]
        assert arrays and not any(fam.embedding.nbr.size in a.shape for a in arrays)
        coords = layout_nested(fam)
        assert mesh.violations(coords) == [] and mesh.valid(coords) is True
        assert "corners" not in mesh.__dict__
        assert mesh.corners is mesh.corners  # built once, on first read
        assert mesh.resolution(coords) > 0.0
        assert "replay" not in mesh.__dict__  # no check or measurement builds the plan
        assert mesh.replay is mesh.replay


class TestCornerResolution:
    """``Triangulation.resolution``, the per-corner minimum that measures
    every validated drawing, equals ``angular_resolution``'s resolution bit
    for bit on valid drawings."""

    @staticmethod
    def assert_matches(g, emb, coords):
        mesh = Triangulation(g, emb)
        assert mesh.violations(coords) == []
        want = angular_resolution(g, coords).resolution
        assert np.float64(mesh.resolution(coords)).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_frame(1),
            lambda: build_frame(6),
            lambda: build_G(1, 3),
            lambda: build_G(2, 3),
            lambda: build_H(1, 3),
            lambda: build_H(2, 2),
            lambda: build_Htilde(1, 8),
            lambda: build_Htilde(2, 8),
            lambda: build_Htilde(3, 2),
            # the deep row whose nested start and result every sweep measures
            lambda: build_Htilde(2, 16),
            lambda: build_Htilde(2, 32),
            lambda: build_Htilde(3, 8),
            lambda: build_G(2, 8),
            lambda: build_H(3, 4),
            lambda: build_frame(64),
        ],
    )
    def test_nested_drawings(self, build):
        fam = build()
        self.assert_matches(fam.graph, fam.embedding, layout_nested(fam))

    @pytest.mark.parametrize(
        "build", [lambda: build_frame(3), lambda: build_Htilde(1, 4), lambda: build_G(2, 4)]
    )
    def test_optimized_drawings(self, build):
        fam = build()
        config = OptimizeConfig(restarts=3, max_iters=200, seed=3)
        result = maximize_resolution(fam.graph, fam.embedding, config)
        self.assert_matches(fam.graph, fam.embedding, result.coords)

    @pytest.mark.parametrize("build", [lambda: build_frame(5), lambda: build_G(2, 3),
                                       lambda: build_Htilde(2, 2)])
    def test_each_corner_is_a_half_edge_and_its_row_successor(self, build):
        # at b, the internal corner (a, b, c) is b->a followed by b->c; the
        # other half-edge pairs are the three outer corners
        fam = build()
        mesh = Triangulation(fam.graph, fam.embedding)
        blocks = list(mesh.row_blocks())
        src = np.concatenate([src for _, _, src, _ in blocks])
        nxt = np.concatenate([nxt + h.start for _, h, _, nxt in blocks])
        dst = fam.embedding.nbr
        pairs = set(zip(dst.tolist(), src.tolist(), dst[nxt].tolist()))
        corners = set(map(tuple, mesh.corners.T.tolist()))
        outer = fam.embedding.outer_face
        outer_corners = {(outer[i - 1], outer[i], outer[(i + 1) % 3]) for i in range(3)}
        assert corners | outer_corners == pairs and not corners & outer_corners
        assert len(src) == len(pairs) == mesh.corners.shape[1] + 3

    @given(st.integers(0, 10_000), st.integers(0, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_jittered_replays_of_random_3trees(self, seed, steps, draw):
        g, emb = random_3tree(seed, steps)
        rng = np.random.default_rng(draw)
        coords = replay(g, emb, rng=rng)
        coords += rng.normal(0.0, 1e-3, coords.shape)
        assume(not Triangulation(g, emb).violations(coords))
        self.assert_matches(g, emb, coords)


# the depths of gate-small's 40 fans, frame and htilde(1, d), each of which
# it validates and measures on every pass
_GATE_DS = list(range(1, 17)) + [24, 32, 48, 64]


class TestDrawnEmbedding:
    """``drawn_embedding`` of a valid drawing is the family's embedding: its
    outer cycle and its face set, which ``violations`` proves, and whose
    ``Triangulation.resolution`` is ``angular_resolution``'s bit for bit."""

    @staticmethod
    def assert_drawn(fam, coords):
        g, emb = fam.graph, fam.embedding
        drawn = drawn_embedding(g, coords)
        mesh = Triangulation(g, drawn)
        assert canonical_cycle(drawn.outer_face) == canonical_cycle(emb.outer_face)
        assert sorted(mesh.faces.tolist()) == sorted(internal_triangles(g, emb).tolist())
        assert mesh.violations(coords) == []
        want = angular_resolution(g, coords).resolution
        assert np.float64(mesh.resolution(coords)).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("name", sorted(_RESOLUTION_FAMILIES))
    def test_nested_drawings(self, name):
        fam = _RESOLUTION_FAMILIES[name]()
        self.assert_drawn(fam, layout_nested(fam))

    @pytest.mark.parametrize("d", _GATE_DS)
    def test_gate_small_fans(self, d):
        self.assert_drawn(*layout_frame_fan(d))
        fam = build_Htilde(1, d)
        self.assert_drawn(fam, layout_nested(fam))

    def test_mirrored_drawing_gives_the_mirrored_embedding(self):
        # every row and the outer cycle reversed
        fam, coords = layout_frame_fan(3)
        drawn = drawn_embedding(fam.graph, coords * [-1.0, 1.0])
        emb = fam.embedding
        assert canonical_cycle(drawn.outer_face) == canonical_cycle(emb.outer_face[::-1])
        for v in range(fam.graph.n):
            row, want = drawn.row(v).tolist(), emb.row(v).tolist()[::-1]
            assert row in [want[k:] + want[:k] for k in range(len(want))]

    @pytest.mark.parametrize("n, edges, points, want", [
        (2, [(0, 1)], [(0, 0), (1, 0)], "a drawn embedding needs 3 or more vertices, got 2"),
        # the lowest vertex, 0, ends one edge only or none
        (3, [(0, 1), (1, 2)], [(0, -1), (0, 0), (1, 1)], "lowest vertex 0 has degree 1, below 2"),
        (4, [(1, 2), (2, 3), (1, 3)], [(0, -1), (0, 0), (1, 1), (0, 1)],
         "lowest vertex 0 has degree 0, below 2"),
        (3, [(0, 1), (1, 2), (0, 2)], [(0, 0), (math.nan, 0), (1, 1)],
         "non-finite coordinates at vertex 1"),
        (3, [(0, 1), (1, 2), (0, 2)], [(0, 0), (0, 0), (1, 1)], "zero-length edge at vertex 0"),
        (3, [(0, 1), (1, 2), (0, 2)], [(0, 0), (1, 1)], r"drawing covers \(2, 2\), expected \(3, 2\)"),
    ])
    def test_refusals(self, n, edges, points, want):
        with pytest.raises(StructureError, match=f"^{want}$"):
            drawn_embedding(LabeledGraph(n, edges), np.array(points, dtype=float))


def _jittered_fan(d: int, seed: int):
    """The frame fan of depth ``d`` with every point but the root moved by
    1% of its largest coordinate, at random."""
    fam, coords = layout_frame_fan(d)
    rng = np.random.default_rng(seed)
    jit = coords + rng.normal(0.0, 0.01, coords.shape) * np.abs(coords).max(axis=1, keepdims=True)
    jit[fam.roles.root] = coords[fam.roles.root]
    return fam, jit


class TestFrameProfile:
    @given(st.integers(2, 12), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_additivity_and_telescoping_on_jittered_fans(self, d, seed):
        fam, jit = _jittered_fan(d, seed)
        # frame_profile measures valid drawings only
        assume(not validate_drawing(fam.graph, fam.embedding, jit))
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

    def test_jitter_can_flip_a_face(self):
        # the case the test above must skip: a flipped face turns the gap
        # alpha1[6] the other way round the root, to nearly 2 pi
        fam, jit = _jittered_fan(10, 324)
        assert validate_drawing(fam.graph, fam.embedding, jit) == [
            Violation("flipped-face", "internal face (0, 12, 10) not counterclockwise")
        ]
        assert frame_profile(fam.roles, jit).alpha1[6] > 6.28

    def test_matches_generator_sum_oracle(self):
        # fan, jittered and optimized frames, d = 1..32, field for field.
        # Up to Python 3.11 sum() adds floats left to right, as the running
        # sums do, so every field is equal bit for bit; from 3.12 on sum()
        # compensates its rounding, and the oracle's last bits may differ.
        def same(x, y):
            if sys.version_info < (3, 12):
                return float(x).hex() == float(y).hex()
            return x == pytest.approx(y, rel=1e-12, abs=1e-15)

        drawings = []
        for d in range(1, 33):
            fam, coords = layout_frame_fan(d)
            drawings.append((fam.roles, coords))
            for seed in range(4):
                rng = np.random.default_rng([d, seed])
                scale = np.abs(coords).max(axis=1, keepdims=True)
                drawings.append((fam.roles, coords + rng.normal(0.0, 0.01, coords.shape) * scale))
        for d in range(1, 9):
            fam = build_frame(d)
            cfg = OptimizeConfig(restarts=1, max_iters=100)
            result = maximize_resolution(fam.graph, fam.embedding, cfg)
            drawings.append((fam.roles, result.coords))
        for roles, coords in drawings:
            got = frame_profile(roles, coords)
            want = reference_frame_profile(roles, coords)
            for name in ("alpha1", "alpha2", "alpha3", "r"):
                a, b = getattr(got, name), getattr(want, name)
                assert list(a) == list(b)
                assert all(same(a[k], b[k]) for k in a), name
            assert same(got.apex_v, want.apex_v)
            assert same(got.apex_total, want.apex_total)

    def test_fan_profile_values(self):
        d = 6
        fam, coords = layout_frame_fan(d)
        prof = frame_profile(fam.roles, coords)
        # uniform fan: each v-gap is apex/(2d)
        for k in range(2, d + 1):
            assert prof.alpha1[k] == pytest.approx(APEX_ANGLE / (2 * d))
        assert prof.apex_total == pytest.approx(APEX_ANGLE)

    def test_needs_frame_roles(self):
        _, coords = layout_frame_fan(2)
        with pytest.raises(StructureError, match="^frame_profile needs frame roles$"):
            frame_profile(None, coords)

    def test_claim_needs_two_rings(self):
        _, coords = layout_frame_fan(1)
        with pytest.raises(StructureError, match="^claim_quantities needs d >= 2$"):
            claim_quantities(build_frame(1).roles, coords)

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

    @staticmethod
    def row_by_row(coords):
        """The drawing formatter that iterated numpy rows."""
        lines = []
        for i, (x, y) in enumerate(np.asarray(coords, dtype=float)):
            lines.append(f"p {i} {float(x)!r} {float(y)!r}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "coords",
        [
            np.zeros((0, 2)),
            np.array([[-0.0, 5e-324], [1e300, -1e-300], [0.1, -2.5], [np.pi, 1.0 / 3.0]]),
            layout_nested(build_Htilde(2, 3)),
            layout_nested(build_G(2, 4)),
        ],
        ids=["empty", "special", "htilde23", "g24"],
    )
    def test_drawing_text_matches_row_by_row(self, coords):
        assert write_drawing(coords) == self.row_by_row(coords)

    def test_empty_drawing_text(self):
        assert write_drawing(np.zeros((0, 2))) == "\n"

    def test_repeated_point_rejected(self):
        with pytest.raises(StructureError) as exc:
            read_drawing("p 0 0.0 1.0\np 1 0.8 -0.5\np 1 0.0 0.0\np 2 -0.8 -0.5\n")
        assert str(exc.value) == "line 3: repeated 'p' record for vertex 1"

    def test_extra_point_field_rejected(self):
        with pytest.raises(StructureError) as exc:
            read_drawing("p 0 1.0 2.0 7.5\n")
        assert str(exc.value) == "line 1: 'p' record needs 3 fields, got 4"

    def test_signed_area_orientation(self):
        # counterclockwise, clockwise and collinear
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        mesh, drawings = k3_drawings(coords, [[0, 1, 2], [0, 2, 1], [0, 1, 3]])
        assert [mesh.valid(d) for d in drawings] == [True, False, False]
        assert [len(mesh.violations(d)) for d in drawings] == [0, 2, 2]
