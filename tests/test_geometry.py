import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres.geometry import (
    LEMMA_CONSTANT,
    DegenerateInputError,
    LemmaAngles,
    angle_at,
    lemma_angles,
    lemma_bound_check,
    lemma_fuzz,
    orientation,
    sine_product,
)
from fuzz_oracle import lemma_fuzz as reference_lemma_fuzz

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def interior_point(A, B, C, wa, wb, wc):
    s = wa + wb + wc
    return (
        (wa * A[0] + wb * B[0] + wc * C[0]) / s,
        (wa * A[1] + wb * B[1] + wc * C[1]) / s,
    )


class TestPrimitives:
    def test_right_angle(self):
        assert angle_at((1.0, 0.0), (0.0, 0.0), (0.0, 1.0)) == pytest.approx(math.pi / 2)

    def test_angle_symmetry(self):
        a, b, c = (2.0, 1.0), (0.5, -0.3), (-1.0, 4.0)
        assert angle_at(a, b, c) == pytest.approx(angle_at(c, b, a))

    def test_coincident_raises(self):
        with pytest.raises(DegenerateInputError):
            angle_at((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))

    def test_orientation_sign(self):
        assert orientation((0, 0), (1, 0), (0, 1)) > 0
        assert orientation((0, 0), (0, 1), (1, 0)) < 0


class TestLemmaAngles:
    def test_equilateral_center(self):
        A, B, C = (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)
        D = interior_point(A, B, C, 1, 1, 1)
        ang = lemma_angles(A, B, C, D)
        for val in (ang.a1, ang.a2, ang.b1, ang.b2, ang.c1, ang.c2):
            assert val == pytest.approx(math.pi / 6)

    def test_zero_sub_angle_has_no_sine_product(self):
        ang = LemmaAngles(0.0, math.pi / 3, math.pi / 6, math.pi / 6, math.pi / 6, math.pi / 6)
        with pytest.raises(DegenerateInputError, match="^sine_product: zero sine in sub-angle$"):
            sine_product(ang)

    def test_outside_point_rejected(self):
        A, B, C = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
        with pytest.raises(DegenerateInputError):
            lemma_angles(A, B, C, (2.0, 2.0))

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(DegenerateInputError):
            lemma_angles((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 0.0))

    @given(
        st.tuples(coord, coord),
        st.tuples(coord, coord),
        st.tuples(coord, coord),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_angle_sum_and_sine_product(self, A, B, C, wa, wb, wc):
        if abs(orientation(A, B, C)) < 1e-3:
            return
        D = interior_point(A, B, C, wa, wb, wc)
        try:
            ang = lemma_angles(A, B, C, D)
        except DegenerateInputError:
            return
        total = ang.a1 + ang.a2 + ang.b1 + ang.b2 + ang.c1 + ang.c2
        assert total == pytest.approx(math.pi, abs=1e-7)
        if min(ang.a1, ang.a2, ang.b1, ang.b2, ang.c1, ang.c2) > 1e-4:
            assert sine_product(ang) == pytest.approx(1.0, abs=1e-6)

    @given(
        st.tuples(coord, coord),
        st.tuples(coord, coord),
        st.tuples(coord, coord),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_holds_when_applicable(self, A, B, C, wa, wb, wc):
        if abs(orientation(A, B, C)) < 1e-3:
            return
        D = interior_point(A, B, C, wa, wb, wc)
        try:
            ang = lemma_angles(A, B, C, D)
        except DegenerateInputError:
            return
        if min(ang.a1, ang.a2, ang.b1, ang.b2, ang.c1, ang.c2) < 1e-6:
            return
        result = lemma_bound_check(ang)
        if result.applicable:
            assert result.holds


class TestFuzz:
    def test_small_fuzz_all_hold(self):
        report = lemma_fuzz(2000, seed=7)
        assert report.n == 2000
        assert report.bound_holds == 2000
        assert report.worst_ratio <= 1.0
        assert report.max_sine_product_error < 1e-9
        assert report.max_angle_sum_error < 1e-9

    @pytest.mark.parametrize(
        "n,seed",
        [(1, 1), (1000, 1), (65536, 2), (65537, 2), (262144, 4), (300000, 9), (100000, 20240817)],
    )
    def test_fuzz_matches_oracle(self, n, seed):
        """Every report field equals the concatenating loop's, floats bit for
        bit: the 1024-row floor, one batch, a batch boundary, several batches
        ending in a partial one, and criterion 1's case."""
        got, want = lemma_fuzz(n, seed), reference_lemma_fuzz(n, seed)
        assert (got.n, got.bound_holds) == (want.n, want.bound_holds) == (n, n)
        for name in ("worst_ratio", "max_sine_product_error", "max_angle_sum_error"):
            assert getattr(got, name).hex() == getattr(want, name).hex(), name

    def test_fuzz_deterministic(self):
        a = lemma_fuzz(500, seed=3)
        b = lemma_fuzz(500, seed=3)
        assert a == b

    def test_fuzz_rejects_bad_n(self):
        with pytest.raises(ValueError):
            lemma_fuzz(0, seed=1)

    def test_constant_value(self):
        assert LEMMA_CONSTANT == pytest.approx(math.pi**2 / 4)
