import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres.families import (
    FamilySpec,
    ParameterError,
    _base_k4,
    build_family,
    build_frame,
    build_G,
    build_H,
    build_Htilde,
    glue_copies,
)
from angres.graphs import Embedding, LabeledGraph, StructureError, verify_planar_3tree
from angres.layout import (
    FAN_RESOLUTION_FLOOR,
    HTILDE1_RESOLUTION_FLOOR,
    MAX_FAN_RINGS,
    check_fan_spec,
    layout_frame_fan,
    layout_nested,
    layout_seed_any,
)
from angres.metrics import Triangulation, angular_resolution, validate_drawing
import nested_oracle
from family_oracle import ORACLE_CASES, oracle_family
from planarity_oracle import sequence, step_list
from replay_oracle import layout_seed_any as reference_seed_any
from replay_oracle import replay


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

    def test_deterministic(self):
        _, a = layout_frame_fan(6)
        _, b = layout_frame_fan(6)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("fam", [build_frame(MAX_FAN_RINGS), build_G(1, MAX_FAN_RINGS - 1)])
    def test_widest_top_fan_is_valid(self, fam):
        # 2.0**1023 is the largest power of two a double holds
        coords = layout_nested(fam)
        assert np.isfinite(coords).all()
        assert Triangulation(fam.graph, fam.embedding).violations(coords) == []

    @pytest.mark.parametrize("fam", [build_frame(MAX_FAN_RINGS + 1), build_frame(1100),
                                     build_G(1, MAX_FAN_RINGS)])
    def test_top_fan_past_double_range_is_refused(self, fam):
        d = len(fam.roles.u)
        want = f"^fan layout needs a top frame of d <= 1023 rings, got d={d}: "
        with pytest.raises(ParameterError, match=want):
            layout_nested(fam)
        with pytest.raises(ParameterError, match=want):
            layout_frame_fan(d)

    @pytest.mark.parametrize("spec", [FamilySpec("frame", None, MAX_FAN_RINGS),
                                      FamilySpec("frame", None, MAX_FAN_RINGS + 1),
                                      FamilySpec("g", 1, MAX_FAN_RINGS - 1),
                                      FamilySpec("g", 1, MAX_FAN_RINGS)])
    def test_spec_check_agrees_with_layout(self, spec):
        # the spec-level check refuses exactly the specs whose layout_nested
        # refuses, with the same message
        try:
            layout_nested(build_family(spec))
        except ParameterError as exc:
            with pytest.raises(ParameterError, match=f"^{re.escape(str(exc))}$"):
                check_fan_spec(spec)
        else:
            check_fan_spec(spec)

    @pytest.mark.parametrize("spec,rings", [
        (FamilySpec("g", 2, MAX_FAN_RINGS), MAX_FAN_RINGS + 1),
        (FamilySpec("g", 2, 4000), 4001),
        (FamilySpec("g", 2, MAX_FAN_RINGS - 1), None),
        (FamilySpec("h", 2, 5000), None),
        (FamilySpec("htilde", 2, 5000), None),
    ])
    def test_spec_check_builds_nothing(self, spec, rings):
        # h and htilde have no top fan; g's top frame has d + 1 rings
        if rings is None:
            check_fan_spec(spec)
        else:
            with pytest.raises(ParameterError, match=f"got d={rings}: "):
                check_fan_spec(spec)


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


def test_fan_floor_calibration(python_dev, pins):
    """The calibration script imports ``layout_nested`` and ``Triangulation``;
    a short range checks it still runs and still finds the minima the frozen
    floors in ``angres.layout`` were set from."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_fan_floor.py"
    out = python_dev(script, "--frame-dmax", "8", "--htilde-dmax", "4")
    for line in pins["fan_floor_calibration"]:
        assert line in out
    assert "INVALID" not in out


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

    def test_corner_no_copy_places_is_rejected(self):
        # labels that make a copy's ring vertex the base K4's interior one
        # leave that K4's real interior corner unplaced for good
        fam = _base_k4(("t1", "t2", "t3", "t4"))
        sub = build_frame(2)
        glue_copies(fam, sub, [((0, 1, 3), 0, sub.roles.root, False)])
        fam.graph.labels = {0: "t1", 1: "t2", 2: "t3", fam.graph.n - 1: "x"}
        message = "layout: a glued copy's corners are never placed"
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            layout_nested(fam)

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

    def test_outer_face_not_three_vertices(self):
        # the build sequence is rooted at the outer face, which must be a
        # triangle; a longer cycle fails with a StructureError, not an unpack
        fam = build_frame(3)
        emb = Embedding(fam.embedding.offset, fam.embedding.nbr, (0, 5, 6, 1))
        with pytest.raises(StructureError, match=r"^keep triple \(0, 5, 6, 1\) is not a triangle$"):
            layout_seed_any(fam.graph, emb)

    def test_no_planar_3tree_fails_in_the_replay(self):
        # K3 with 3, 4 and 5 each joined to all of it: a 3-tree, not planar;
        # without a sequence the one check is the replay's bounded-face check
        edges = [(0, 1), (0, 2), (1, 2)] + [(x, a) for x in (3, 4, 5) for a in range(3)]
        g = LabeledGraph(6, edges)
        emb = Embedding.from_rows([[] for _ in range(6)], (0, 1, 2))
        with pytest.raises(StructureError) as exc:
            layout_seed_any(g, emb)
        assert (type(exc.value), str(exc.value)) == (
            StructureError,
            "replay: (0, 1, 2) is not a bounded face when inserting 4",
        )


def replay_outcome(fn, fam, seq, rng_seed=None):
    """The drawing's bytes and the generator's next draw, or the message of
    the StructureError raised."""
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    try:
        coords = fn(fam.graph, fam.embedding, seq, rng=rng)
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
        for args in ((seq,), (None,), (seq, 7)):
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
        steps = step_list(seq)
        (x0, tri0), (x1, tri1) = steps[:2]
        a, b, _ = seq.base
        bad = [
            sequence(seq.base, [(x1, tri1)] + steps[2:]),  # a face not made yet
            sequence(seq.base, [(x0, tri0), (x1, tri0)] + steps[2:]),  # a used face
            sequence((a, b, x0), steps),  # not rooted at the outer face
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
        x0, tri0 = step_list(seq)[0]
        again = sequence(seq.base, [(x0, tri0), (x0, (tri0[0], tri0[1], x0))])
        with pytest.raises(StructureError, match=f"vertex {x0} is already placed"):
            layout_seed_any(fam.graph, fam.embedding, again)

    @pytest.mark.parametrize("x", [-1, 43, 50])
    def test_inserted_vertex_out_of_range_is_rejected(self, x):
        # the step loop let -1 overwrite the last vertex and raised an
        # IndexError for 43 and above
        fam = build_Htilde(1, 2)
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        steps = step_list(seq)
        bad = sequence(seq.base, steps[:-1] + [(x, steps[-1][1])])
        with pytest.raises(StructureError) as exc:
            layout_seed_any(fam.graph, fam.embedding, bad)
        assert str(exc.value) == f"replay: inserted vertex {x} is out of range for 43 vertices"

    def test_vertex_never_placed_is_rejected(self):
        # the step loop left such a vertex at the origin
        fam = build_Htilde(1, 2)
        seq = verify_planar_3tree(fam.graph, keep=fam.embedding.outer_face)
        short = sequence(seq.base, step_list(seq)[:-1])
        with pytest.raises(StructureError) as exc:
            layout_seed_any(fam.graph, fam.embedding, short)
        assert str(exc.value) == f"replay: vertex {seq.xs[-1]} is never placed"


class TestNestedAgainstOracle:
    """Nested drawings against the dict-composing, ring-by-ring placement
    in nested_oracle, drawn on the copy-by-copy families."""

    @pytest.mark.parametrize("name, c, d", ORACLE_CASES)
    def test_same_bytes(self, name, c, d):
        fam = build_family(FamilySpec(name, c, d))
        ref = oracle_family(name, c, d)
        assert layout_nested(fam).tobytes() == nested_oracle.layout_nested(ref).tobytes()

    def test_four_fan_levels(self):
        # htilde(4,4): frames nested four deep below the H copies
        fam = build_Htilde(4, 4)
        coords = layout_nested(fam)
        assert fam.graph.n == 18_655
        want = nested_oracle.layout_nested(oracle_family("htilde", 4, 4))
        assert coords.tobytes() == want.tobytes()
        assert validate_drawing(fam.graph, fam.embedding, coords) == []

    def test_degenerate_host_draws_nan_quietly(self):
        # htilde(7,2) has a host whose two far corners coincide: its rings
        # divide 0 by 0, and the drawing keeps those nan positions
        fam = build_Htilde(7, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coords = layout_nested(fam)
        with np.errstate(invalid="ignore"):
            want = nested_oracle.layout_nested(oracle_family("htilde", 7, 2))
        assert np.isnan(coords).any()
        assert np.array_equal(coords, want, equal_nan=True)
        assert coords.tobytes() == want.tobytes()

    def test_one_sub_family_at_two_fan_depths(self):
        # one frame(5) object glued under a frame (one fan level down) and
        # under a base K4 (none), both one level below the top K4: the batch
        # groups copies by sub-family and fan depth together, as the two
        # depths' radial spans give its four rings different ratios
        sub = build_frame(5)
        framed = build_frame(3)
        w, v = framed.roles.root, framed.roles.v
        glue_copies(framed, sub, [((w, v[0], v[1]), v[1], sub.roles.root, True)])
        based = _base_k4(("b1", "b2", "b3", "b4"))
        glue_copies(based, sub, [((0, 1, 3), 0, sub.roles.root, False)])
        top = _base_k4(("t1", "t2", "t3", "t4"))
        glue_copies(top, framed, [((0, 1, 3), 0, framed.roles.root, False)])
        glue_copies(top, based, [((0, 2, 3), 0, 0, False)])
        placed_twice = [p for p in (*framed.placements, *based.placements) if p.sub is sub]
        assert len(placed_twice) == 2
        assert layout_nested(top).tobytes() == nested_oracle.layout_nested(top).tobytes()

    @pytest.mark.parametrize("first", [lambda: build_frame(2), lambda: build_G(2, 2)],
                             ids=["frame", "nested-frame"])
    def test_copy_glued_into_a_face_of_an_earlier_copy(self, first):
        # the second copy's corner is the first copy's last vertex: a ring of
        # its fan, or for G(2,2) a ring of the frame nested inside it, so the
        # second copy waits until that level is placed
        host = build_frame(2)
        sub = first()
        root, (v0, v1) = host.roles.root, host.roles.v
        glue_copies(host, sub, [((root, v0, v1), v1, sub.roles.root, True)])
        last = host.graph.n - 1
        face = tuple(host.embedding.row(last)[:2].tolist()) + (last,)
        later = build_frame(2)
        glue_copies(host, later, [(face, last, later.roles.root, False)])
        assert layout_nested(host).tobytes() == nested_oracle.layout_nested(host).tobytes()
