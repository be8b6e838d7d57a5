import functools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres import geometry
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

_oracle_report = functools.lru_cache(maxsize=None)(reference_lemma_fuzz)

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

    def test_underflowed_sub_angle_has_no_bound_check(self):
        # D passes the strict-interior test, but atan2 underflows to 0.0
        ang = lemma_angles((0.0, 0.0), (1e10, 0.0), (0.0, 1e10), (1e-320, 1e9))
        assert (ang.a2, ang.c1) == (0.0, 0.0)
        with pytest.raises(DegenerateInputError, match="^lemma_bound_check: zero sub-angle$"):
            lemma_bound_check(ang)

    @pytest.mark.parametrize("name", ["a2", "b1", "c1"])
    def test_zero_divisor_sub_angle_has_no_bound_check(self, name):
        ang = LemmaAngles(*[math.pi / 6] * 6)
        setattr(ang, name, 0.0)
        with pytest.raises(DegenerateInputError, match="^lemma_bound_check: zero sub-angle$"):
            lemma_bound_check(ang)

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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [4096, 3000])
    @pytest.mark.parametrize("n", [1, 1000, "chunk-1", "chunk+1", 65537, 262145, 300000])
    def test_fuzz_matches_oracle_chunked(self, monkeypatch, workers, chunk, n):
        """The report does not depend on the chunk size or the worker count:
        4096 rows divide the 2^18-row batch and 3000 do not; n = chunk +- 1
        ends in a partial chunk, 65537 in a cut batch, 262145 and 300000
        run several batches."""
        if isinstance(n, str):
            n = chunk + int(n[len("chunk"):])
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(geometry, "_worker_count", lambda: workers)
        got, want = lemma_fuzz(n, 11), _oracle_report(n, 11)
        assert (got.n, got.bound_holds) == (want.n, want.bound_holds) == (n, n)
        for name in ("worst_ratio", "max_sine_product_error", "max_angle_sum_error"):
            assert getattr(got, name).hex() == getattr(want, name).hex(), name

    def test_fuzz_holds_one_batch_at_a_time(self):
        # 300000 accepted rows take several 2^18-row batches; one batch's
        # samples, Dirichlet's working arrays and the joined rows peak at
        # about 1.4 times the samples' 18.9 MB, and a batch still alive when
        # the next is drawn took it to about 1.9
        batch = (1 << 18) * 9 * 8
        tracemalloc.start()
        try:
            lemma_fuzz(300_000, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * batch

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_fuzz_holds_only_the_chunks_in_flight(self, monkeypatch, workers):
        # at most workers + 1 chunks are in flight, each drawing its samples
        # when it is sent; with the whole batch drawn first the peak was
        # 22-23 chunks' samples
        monkeypatch.setattr(geometry, "_worker_count", lambda: workers)
        chunk = geometry._CHUNK_ROWS * 9 * 8
        lemma_fuzz(1, 0)  # the thread pool's modules load outside the trace
        tracemalloc.start()
        try:
            lemma_fuzz(300_000, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * workers + 2) * chunk

    def test_fuzz_chunks_run_in_callers_context(self, monkeypatch):
        seen = []

        def record(P, w):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["over"]))
            return evaluate(P, w)

        evaluate = geometry._fuzz_rows
        monkeypatch.setattr(geometry, "_fuzz_rows", record)
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", 1024)
        monkeypatch.setattr(geometry, "_worker_count", lambda: 2)
        with np.errstate(over="raise"):
            lemma_fuzz(1000, 3)
        assert len(seen) == 4  # 4000 rows in chunks of 1024
        assert seen == [(False, "raise")] * 4

    def test_fuzz_joins_its_threads(self, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", 1024)
        monkeypatch.setattr(geometry, "_worker_count", lambda: 3)
        before = threading.active_count()
        assert lemma_fuzz(5000, 4).n == 5000
        assert threading.active_count() == before

        calls = []

        def fail_third(P, w):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("chunk failed")
            return evaluate(P, w)

        evaluate = geometry._fuzz_rows
        monkeypatch.setattr(geometry, "_fuzz_rows", fail_third)
        with pytest.raises(RuntimeError, match="^chunk failed$"):
            lemma_fuzz(5000, 4)
        assert threading.active_count() == before

    def test_fuzz_deterministic(self):
        a = lemma_fuzz(500, seed=3)
        b = lemma_fuzz(500, seed=3)
        assert a == b

    def test_fuzz_rejects_bad_n(self):
        with pytest.raises(ValueError):
            lemma_fuzz(0, seed=1)

    @pytest.mark.parametrize(
        "name, n, seed",
        [("n", 10.5, 1), ("n", True, 1), ("n", "10", 1), ("seed", 10, 1.5), ("seed", 10, False)],
    )
    def test_fuzz_rejects_non_integer(self, name, n, seed):
        # a float n failed deep in slicing, a float seed in numpy's
        # SeedSequence, and True ran as n = 1
        value = {"n": n, "seed": seed}[name]
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            lemma_fuzz(n, seed)

    def test_fuzz_takes_numpy_integers(self):
        assert lemma_fuzz(np.int64(500), np.uint8(3)) == lemma_fuzz(500, 3)

    def test_fuzz_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            lemma_fuzz(10, seed=-1)

    def test_constant_value(self):
        assert LEMMA_CONSTANT == pytest.approx(math.pi**2 / 4)
