import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres.families import ParameterError, build_G, build_H, build_frame, build_Htilde
from angres.graphs import BuildSequence, StructureError, verify_planar_3tree
from angres.layout import (
    FAN_RESOLUTION_FLOOR,
    HTILDE1_RESOLUTION_FLOOR,
    LayoutConfig,
    layout_frame_fan,
    layout_nested,
    layout_seed_any,
    outer_triangle_coords,
)
from angres.metrics import angular_resolution, validate_drawing
from replay_oracle import layout_seed_any as reference_seed_any
from replay_oracle import replay


class TestConfig:
    def test_defaults_valid(self):
        LayoutConfig().validate()

    def test_bad_apex(self):
        with pytest.raises(ParameterError):
            LayoutConfig(apex_angle=4.0).validate()

    def test_bad_ratio(self):
        with pytest.raises(ParameterError):
            LayoutConfig(ring_ratio=0.9).validate()


class TestFrameFan:
    @given(st.integers(1, 32))
    @settings(max_examples=32, deadline=None)
    def test_valid_and_floor(self, d):
        fam, coords = layout_frame_fan(d)
        assert validate_drawing(fam.graph, fam.embedding, coords) == []
        res = angular_resolution(fam.graph, coords).resolution
        assert res * d >= FAN_RESOLUTION_FLOOR

    def test_trivial_upper_bound_at_root(self):
        # degree-2d root: resolution can be at most 2*pi/(2d)
        for d in (2, 5, 11):
            fam, coords = layout_frame_fan(d)
            res = angular_resolution(fam.graph, coords).resolution
            assert res <= 2 * math.pi / (2 * d)

    def test_custom_config(self):
        fam, coords = layout_frame_fan(4, LayoutConfig(apex_angle=math.pi / 4, ring_ratio=3.0))
        assert validate_drawing(fam.graph, fam.embedding, coords) == []

    def test_deterministic(self):
        _, a = layout_frame_fan(6)
        _, b = layout_frame_fan(6)
        assert np.array_equal(a, b)


class TestHtilde1:
    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_valid_and_floor(self, d):
        fam = build_Htilde(1, d)
        coords = layout_nested(fam)
        assert validate_drawing(fam.graph, fam.embedding, coords) == []
        res = angular_resolution(fam.graph, coords).resolution
        assert res * d >= HTILDE1_RESOLUTION_FLOOR

    def test_d2_graph_size(self):
        fam = build_Htilde(1, 2)
        coords = layout_nested(fam)
        assert fam.graph.n == 43
        assert coords.shape == (43, 2)

    def test_outer_is_equilateral(self):
        fam = build_Htilde(1, 3)
        coords = layout_nested(fam)
        o = coords[list(fam.embedding.outer_face)]
        sides = [np.linalg.norm(o[i] - o[(i + 1) % 3]) for i in range(3)]
        assert sides[0] == pytest.approx(sides[1]) == pytest.approx(sides[2])

    def test_factor_two_band_on_doublings(self):
        vals = {}
        for d in (2, 4, 8, 16):
            fam = build_Htilde(1, d)
            coords = layout_nested(fam)
            vals[d] = angular_resolution(fam.graph, coords).resolution * d
        assert max(vals.values()) / min(vals.values()) < 2.0


class TestNested:
    def test_frame_top_level_is_the_fan(self):
        fam, coords = layout_frame_fan(6)
        assert np.allclose(layout_nested(fam), coords)

    @pytest.mark.parametrize("c,d", [(2, 4), (2, 16), (3, 4), (3, 8)])
    def test_deep_families_valid(self, c, d):
        fam = build_Htilde(c, d)
        coords = layout_nested(fam)
        assert validate_drawing(fam.graph, fam.embedding, coords) == []
        assert angular_resolution(fam.graph, coords).resolution > 0.0

    def test_deep_G_valid(self):
        fam = build_G(3, 6)
        coords = layout_nested(fam)
        assert validate_drawing(fam.graph, fam.embedding, coords) == []


class TestSeedAny:
    def test_k4_centroid(self):
        fam = build_Htilde(1, 1)
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        coords = layout_seed_any(fam.graph, fam.embedding, seq)
        assert validate_drawing(fam.graph, fam.embedding, coords) == []

    def test_htilde24_valid(self):
        fam = build_Htilde(2, 4)
        coords = layout_seed_any(fam.graph, fam.embedding)
        assert validate_drawing(fam.graph, fam.embedding, coords) == []

    def test_deterministic(self):
        fam = build_frame(5)
        a = layout_seed_any(fam.graph, fam.embedding)
        b = layout_seed_any(fam.graph, fam.embedding)
        assert np.array_equal(a, b)

    def test_no_coincident_points(self):
        fam = build_Htilde(1, 3)
        coords = layout_seed_any(fam.graph, fam.embedding)
        n = fam.graph.n
        d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
        d2[np.arange(n), np.arange(n)] = np.inf
        assert d2.min() > 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_randomized_replay_always_valid(self, seed):
        fam = build_Htilde(1, 2)
        rng = np.random.default_rng(seed)
        coords = replay(fam.graph, fam.embedding, rng=rng)
        assert validate_drawing(fam.graph, fam.embedding, coords) == []

    def test_custom_outer_coords(self):
        fam = build_frame(3)
        outer = 2.5 * outer_triangle_coords()
        coords = replay(fam.graph, fam.embedding, outer_coords=outer)
        assert validate_drawing(fam.graph, fam.embedding, coords) == []
        np.testing.assert_allclose(coords[list(fam.embedding.outer_face)], outer)


def replay_outcome(fn, fam, seq, rng_seed=None, outer=None):
    """The drawing's bytes and the generator's next draw, or the message of
    the StructureError raised."""
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    try:
        coords = fn(fam.graph, fam.embedding, seq, outer_coords=outer, rng=rng)
    except StructureError as exc:
        return "StructureError", str(exc)
    return coords.dtype, coords.shape, coords.tobytes(), rng and rng.random()


_REPLAY_FAMILIES = {
    "frame1": lambda: build_frame(1),
    "frame6": lambda: build_frame(6),
    "g23": lambda: build_G(2, 3),
    "h22": lambda: build_H(2, 2),
    "htilde16": lambda: build_Htilde(1, 6),
    "htilde24": lambda: build_Htilde(2, 4),
    "htilde32": lambda: build_Htilde(3, 2),
}


class TestSeedAnyKernel:
    """The level-by-level replay against the step loop in replay_oracle."""

    @pytest.mark.parametrize("name", sorted(_REPLAY_FAMILIES))
    def test_families_match_the_loop(self, name):
        fam = _REPLAY_FAMILIES[name]()
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        outer = 2.5 * outer_triangle_coords()[::-1]
        for args in ((seq,), (seq, None, outer), (None,), (seq, 7), (seq, 7, outer)):
            assert replay_outcome(replay, fam, *args) == replay_outcome(
                reference_seed_any, fam, *args
            )
        for s in (seq, None):
            want = reference_seed_any(fam.graph, fam.embedding, s)
            assert layout_seed_any(fam.graph, fam.embedding, s).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(50))
    def test_jitter_matches_the_loop(self, seed):
        fam = build_Htilde(2, 4)
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        for rng_seed in ([seed, 2], seed):
            got = replay_outcome(replay, fam, seq, rng_seed)
            assert got == replay_outcome(reference_seed_any, fam, seq, rng_seed)

    def test_invalid_steps_match_the_loop(self):
        fam = build_Htilde(1, 3)
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        (x0, tri0), (x1, tri1) = seq.steps[:2]
        a, b, _ = seq.base
        bad = [
            BuildSequence(seq.base, [(x1, tri1)] + seq.steps[2:]),  # a face not made yet
            BuildSequence(seq.base, [(x0, tri0), (x1, tri0)] + seq.steps[2:]),  # a used face
            BuildSequence((a, b, x0), seq.steps),  # not rooted at the outer face
        ]
        for s in bad:
            for rng_seed in (None, 3):
                want = replay_outcome(reference_seed_any, fam, s, rng_seed)
                assert want[0] == "StructureError"
                assert replay_outcome(replay, fam, s, rng_seed) == want

    def test_vertex_placed_twice_is_rejected(self):
        # a level-by-level fill needs every vertex placed once; the step loop
        # silently moved a re-inserted vertex
        fam = build_Htilde(1, 3)
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        x0, tri0 = seq.steps[0]
        again = BuildSequence(seq.base, [(x0, tri0), (x0, (tri0[0], tri0[1], x0))])
        with pytest.raises(StructureError, match=f"vertex {x0} is already placed"):
            layout_seed_any(fam.graph, fam.embedding, again)

    @pytest.mark.parametrize("x", [-1, 43, 50])
    def test_inserted_vertex_out_of_range_is_rejected(self, x):
        # the step loop let -1 overwrite the last vertex and raised an
        # IndexError for 43 and above
        fam = build_Htilde(1, 2)
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        last, tri = seq.steps[-1]
        bad = BuildSequence(seq.base, seq.steps[:-1] + [(x, tri)])
        with pytest.raises(StructureError) as exc:
            layout_seed_any(fam.graph, fam.embedding, bad)
        assert str(exc.value) == f"replay: inserted vertex {x} is out of range for 43 vertices"

    def test_vertex_never_placed_is_rejected(self):
        # the step loop left such a vertex at the origin
        fam = build_Htilde(1, 2)
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        short = BuildSequence(seq.base, seq.steps[:-1])
        with pytest.raises(StructureError) as exc:
            layout_seed_any(fam.graph, fam.embedding, short)
        assert str(exc.value) == f"replay: vertex {seq.steps[-1][0]} is never placed"
