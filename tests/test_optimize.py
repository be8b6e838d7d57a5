import csv
import functools
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp

import lbfgsb_oracle
import objective_oracle
from angres import graphs, layout, metrics, optimize
from angres.families import FamilySpec, build_family, build_frame, build_G, build_Htilde
from angres.graphs import Embedding, LabeledGraph, NotPlanar3TreeError, StructureError
from angres.layout import layout_frame_fan, layout_nested, layout_seed_any
from angres.metrics import Triangulation, angular_resolution, validate_drawing
from angres.optimize import (
    CSV_COLUMNS,
    ExponentFit,
    OptimizeConfig,
    SweepRecord,
    fit_exponent,
    maximize_resolution,
    objective_and_gradient,
    read_sweep_csv,
    sweep,
    sweep_csv_text,
    write_sweep_csv,
)
from angres.optimize import _lse, _objective, _quiet, _Workspace

FAST = OptimizeConfig(restarts=4, max_iters=400, seed=7)


def triangle():
    g = LabeledGraph(3, [(0, 1), (1, 2), (0, 2)])
    return g, Embedding.from_rows([[1, 2], [2, 0], [0, 1]], (0, 1, 2))


class TestConfig:
    def test_defaults_valid(self):
        OptimizeConfig().validate()

    def test_bad_restarts(self):
        with pytest.raises(ValueError):
            OptimizeConfig(restarts=0).validate()

    def test_bad_penalty_init(self):
        with pytest.raises(ValueError):
            OptimizeConfig(penalty_init=0.0).validate()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_penalty_init(self, value):
        # an infinite weight makes every stage a 0-iteration ABNORMAL with a
        # nan objective, and the call would return the starting drawing
        with pytest.raises(ValueError, match=f"^penalty_init must be finite and > 0, got {value}$"):
            OptimizeConfig(penalty_init=value).validate()

    def test_bad_max_iters(self):
        with pytest.raises(ValueError, match="^max_iters must be >= 1, got 0$"):
            OptimizeConfig(max_iters=0).validate()

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            OptimizeConfig(restarts=2, seed=-1).validate()

    @pytest.mark.parametrize(
        "name, value", [("restarts", 2.0), ("max_iters", 10.5), ("seed", 1.5), ("seed", "1")]
    )
    def test_non_integer_count(self, name, value):
        # a float passes the range checks, then fails inside range() or numpy
        want = f"^{name} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=want):
            OptimizeConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name", ["restarts", "max_iters", "seed"])
    def test_bool_count(self, name):
        # True passed as 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
            OptimizeConfig(**{name: True}).validate()

    @pytest.mark.parametrize("value", ["1", True, None, 1j])
    def test_non_real_penalty_init(self, value):
        # "1" failed in the range check with a TypeError, True passed as 1.0
        want = f"^penalty_init must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=want):
            OptimizeConfig(penalty_init=value).validate()

    def test_numpy_penalty_init(self):
        OptimizeConfig(penalty_init=np.float32(2.0)).validate()
        OptimizeConfig(penalty_init=3).validate()

    def test_numpy_integer_counts(self):
        OptimizeConfig(restarts=np.int64(2), max_iters=np.int32(5), seed=np.uint8(3)).validate()

    def test_extra_seed_of_wrong_shape(self):
        g, emb = triangle()
        config = OptimizeConfig(restarts=2, max_iters=10, extra_seeds=[np.zeros((4, 2))])
        with pytest.raises(ValueError, match=r"^extra seed 0 has shape \(4, 2\), want \(3, 2\)$"):
            maximize_resolution(g, emb, config)

    def test_extra_seed_shapes_checked_before_any_restart(self, monkeypatch):
        # seed 1 is malformed: neither restart 0 nor seed 0 (restart 1) runs
        monkeypatch.setattr(optimize, "_worker_count", lambda: 1)
        ran = []
        run = optimize._run_restart
        monkeypatch.setattr(optimize, "_run_restart", lambda *args: ran.append(1) or run(*args))
        fam = build_frame(2)
        nested = layout_nested(fam)
        config = OptimizeConfig(restarts=4, max_iters=10, extra_seeds=[nested, nested[:-1]])
        n = fam.graph.n
        want = rf"^extra seed 1 has shape \({n - 1}, 2\), want \({n}, 2\)$"
        with pytest.raises(ValueError, match=want):
            maximize_resolution(fam.graph, fam.embedding, config)
        assert ran == []


class TestGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sharp,weight", [(5.0, 0.0), (40.0, 2.0)])
    def test_matches_central_differences(self, seed, sharp, weight):
        fam, coords = layout_frame_fan(4)
        rng = np.random.default_rng(seed)
        coords = coords + rng.normal(0.0, 0.05, coords.shape)
        _, grad = objective_and_gradient(fam.graph, fam.embedding, coords, sharp, weight)
        free = [v for v in range(fam.graph.n) if v not in set(fam.embedding.outer_face)]
        h = 1e-6
        k = 0
        for v in free:
            for ax in range(2):
                cp = coords.copy()
                cp[v, ax] += h
                cm = coords.copy()
                cm[v, ax] -= h
                vp, _ = objective_and_gradient(fam.graph, fam.embedding, cp, sharp, weight)
                vm, _ = objective_and_gradient(fam.graph, fam.embedding, cm, sharp, weight)
                num = (vp - vm) / (2 * h)
                assert grad[k] == pytest.approx(num, rel=1e-5, abs=1e-9)
                k += 1

    @pytest.mark.parametrize("cut", ["rows", "column", "widened"])
    def test_refuses_a_drawing_that_is_not_n_by_2(self, cut):
        g, emb, coords = _oracle_case("htilde12")
        assert coords.shape == (43, 2)
        bad = {
            "rows": coords[:-1],
            "column": coords[:, :1],
            "widened": np.c_[coords, np.zeros(43)],
        }[cut]
        want = rf"^drawing covers \({bad.shape[0]}, {bad.shape[1]}\), expected \(43, 2\)$"
        with pytest.raises(StructureError, match=want):
            objective_and_gradient(g, emb, bad, 5.0)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _record_scatters(monkeypatch) -> list:
    """Record the index of every ``np.bincount`` scatter in ``optimize``: two
    per objective call, one per coordinate."""
    indices = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def bincount(index, **kwargs):
            indices.append(index)
            return np.bincount(index, **kwargs)

    monkeypatch.setattr(optimize, "np", Numpy())
    return indices


def _selection(index, corners, P, idx, weight) -> tuple[str, bool]:
    """The terms an objective call's scatter ``index`` holds, as ("dense" or
    "sparse", whether it holds face terms), checking its layout: the a, b
    and c columns of every corner, or of fewer corners; then corner 0's
    columns of the faces whose penalty factor is nonzero in the oracle's
    arithmetic at the (n, 2) drawing ``P``, or of every face when a
    coordinate is beyond 1e100 or not finite."""
    if np.abs(P).max() <= 1e100:
        g = objective_oracle.corner_angles(P, idx)[3]
        faces = np.flatnonzero((2.0 * weight) * np.minimum(0.5 * g[2::3], 0.0) != 0)
    else:
        faces = np.arange(len(idx) // 3)
    face_index = corners[:, 0::3][:, faces].ravel()
    corner_index = index[: index.size - face_index.size]
    assert np.array_equal(index[corner_index.size :], face_index)
    if corner_index.size < corners.size:
        assert corner_index.size % 3 == 0
        return "sparse", bool(faces.size)
    assert np.array_equal(corner_index, corners.ravel())
    return "dense", bool(faces.size)


def _lse_buffers(size: int) -> SimpleNamespace:
    """The one buffer of ``size`` lanes that ``_lse`` writes, without a mesh:
    ``exp``, all +0.0 as a workspace holds it between calls."""
    return SimpleNamespace(exp=np.zeros(size))


def _embedded(a: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """(longer, lanes): ``a`` at the lanes ``lanes`` of a longer array whose
    other lanes are -inf or at most max(a) + EXP_FLOOR, each exp of which,
    shifted by max(a), is +0.0, as ``_lse``'s lanes form assumes; where
    max(a) + EXP_FLOOR rounds back to max(a), only -inf."""
    top = a.max()
    low = top + optimize.EXP_FLOOR
    size = 3 * a.size + 5
    lanes = np.sort(rng.choice(size, a.size, replace=False))
    longer = np.full(size, -np.inf)
    if low - top <= optimize.EXP_FLOOR:
        others = np.ones(size, bool)
        others[lanes] = False
        k = np.flatnonzero(others)[::2]
        longer[k] = low - rng.uniform(0.0, 1e3, k.size) * rng.integers(0, 2, k.size)
    longer[lanes] = a
    return longer, lanes


def _with_floors(*names):
    """(name, floor) cases: each mesh with ``KEEP_FLOOR`` as it is (None)
    and, unless it already keeps its geometry, at 0, so that the area and
    penalty sides of the kept path are checked on it too."""
    return [(n, f) for n in names for f in ((None,) if n == "htilde216" else (None, 0))]


def _set_floor(monkeypatch, floor) -> None:
    """Set ``optimize.KEEP_FLOOR`` to ``floor`` for one test, unless None."""
    if floor is not None:
        monkeypatch.setattr(optimize, "KEEP_FLOOR", floor)


@functools.lru_cache(maxsize=None)
def _oracle_case(name: str):
    fam = {
        "frame4": lambda: build_frame(4),
        "g12": lambda: build_G(1, 2),
        "htilde12": lambda: build_Htilde(1, 2),
        "htilde24": lambda: build_Htilde(2, 4),
        "htilde216": lambda: build_Htilde(2, 16),
    }[name]()
    return fam.graph, fam.embedding, layout_nested(fam)


class TestObjectiveOracle:
    """The bincount objective against the six-``np.add.at`` reference in
    ``tests/objective_oracle.py``: value and gradient equal bit for bit."""

    @pytest.mark.parametrize(
        "name, floor", _with_floors("frame4", "g12", "htilde12", "htilde24", "htilde216")
    )
    @pytest.mark.parametrize("sharp", [5.0, 1e3, 1e7, "stage 3", "stage 12"])
    @pytest.mark.parametrize("weight", [0.0, 10.0])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_bit_identical(self, monkeypatch, name, floor, sharp, weight, jitter):
        _set_floor(monkeypatch, floor)
        g, emb, coords = _oracle_case(name)
        rng = np.random.default_rng(len(name))
        idx = objective_oracle.internal_corner_index(g, emb)
        mesh = Triangulation(g, emb)
        work = _Workspace(mesh, coords.T, 1.0)
        free = mesh.free
        staged = isinstance(sharp, str)
        if staged:
            # a restart's sharpness at that stage, over the drawing's smallest corner angle
            theta = optimize._corner_angles(coords[:, 0], coords[:, 1], work)
            sharp = 4.0 * 2.0 ** int(sharp.split()[1]) / abs(float(theta.min()))
        if jitter:
            # moves of up to a third of the shortest incident edge flip some faces
            length = np.hypot(*(coords[idx[:, 0]] - coords[idx[:, 1]]).T)
            near = np.full(g.n, np.inf)
            np.minimum.at(near, idx[:, 1], length)
            coords = coords + rng.normal(0.0, jitter, coords.shape) * near[:, None]
        a, b, c = (coords[idx[::3, i]] for i in range(3))
        area = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        assert (area < 0).any() == bool(jitter)  # penalty active exactly when jittered

        scatters = _record_scatters(monkeypatch)
        want = objective_oracle.objective(
            coords[free].ravel(), g.n, free, idx, idx[::3], sharp, weight, coords
        )
        got = objective_and_gradient(g, emb, coords, sharp, weight)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        assert len(scatters) == 2 and scatters[0] is scatters[1]
        selection = _selection(scatters[0], mesh.corners, coords, idx, weight)
        if sharp == 5.0:
            # no corner angle is near enough to pi for its weight to underflow
            assert selection == ("dense", bool(jitter and weight))
        if name == "htilde216" and staged:
            # at stage 3 and later the softmax weights of more than 99% of
            # the corners are exactly 0, and exp is taken on the others only
            z = -sharp * optimize._corner_angles(coords[:, 0], coords[:, 1], work)
            assert np.count_nonzero(z - logsumexp(z) < -745.1332191019412) > 0.99 * z.size
            assert selection == ("sparse", bool(jitter and weight))

        # the rescaled variables the restarts optimize over
        origin = coords[free]
        scale = rng.uniform(0.5, 2.0, free.size) * 1e-3
        y = rng.normal(0.0, 1.0, 2 * free.size)
        want = objective_oracle.objective(
            y, g.n, free, idx, idx[::3], sharp, weight, coords, origin, scale
        )
        got = _objective(y, sharp, weight, _Workspace(mesh, coords.T, scale))
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])

    @pytest.mark.parametrize("name, floor", _with_floors("g12", "htilde24", "htilde216"))
    @pytest.mark.parametrize("bad", [1e150, 1e200, np.nan])
    @pytest.mark.parametrize("sharp", [5.0, 1e7])
    @pytest.mark.parametrize("weight", [0.0, 10.0])
    def test_bit_identical_with_a_wide_or_nan_coordinate(
        self, monkeypatch, name, floor, bad, sharp, weight
    ):
        # beyond 1e100 a corner's factors overflow and its dropped term would
        # be 0 * inf = nan, not zero; a nan spreads to every weight and makes
        # the soft-min nan.  Both keep every term, and a nan soft-min takes
        # exp on every corner.
        _set_floor(monkeypatch, floor)
        g, emb, coords = _oracle_case(name)
        mesh = Triangulation(g, emb)
        coords = coords.copy()
        coords[mesh.free[0], 1] = bad
        idx = objective_oracle.internal_corner_index(g, emb)
        scatters = _record_scatters(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            want = objective_oracle.objective(
                coords[mesh.free].ravel(), g.n, mesh.free, idx, idx[::3], sharp, weight, coords
            )
            got = objective_and_gradient(g, emb, coords, sharp, weight)
        assert not np.isfinite(want[1]).all()
        # every corner and every face, whatever the weight
        assert _selection(scatters[-1], mesh.corners, coords, idx, weight) == ("dense", True)
        if math.isnan(bad):
            # IEEE 754 leaves a nan's sign to the operation, and the oracle's
            # loops over strided columns and the kernel's over contiguous
            # arrays do not agree on it: compare nans by position
            got, want = (tuple(np.where(np.isnan(v), np.nan, v) for v in r) for r in (got, want))
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])

    @pytest.mark.parametrize("floor", [None, 0])
    @pytest.mark.parametrize("case", ["zero area", "nan", "weight overflow"])
    @pytest.mark.parametrize("sharp", [5.0, 1e7])
    def test_bit_identical_at_zero_area_faces(self, monkeypatch, case, sharp, floor):
        # htilde(1,2)'s nested drawing with a degree-3 vertex moved onto each
        # of its neighbours: two faces of area +0.0 or -0.0 and none below,
        # so no face is selected and the penalty pass is skipped.  A nan
        # coordinate, or a weight whose double overflows (inf * 0.0 is nan),
        # selects every face
        _set_floor(monkeypatch, floor)
        g, emb, coords = _oracle_case("htilde12")
        mesh = Triangulation(g, emb)
        idx = objective_oracle.internal_corner_index(g, emb)
        leaf = next(v for v in mesh.free[::-1] if np.count_nonzero(idx[:, 1] == v) == 3)
        weight = 1e308 if case == "weight overflow" else 10.0
        zero_signs = set()
        for u in idx[idx[:, 1] == leaf][:, 0]:
            P = coords.copy()
            P[leaf] = P[u]
            area = objective_oracle.corner_angles(P, idx)[3][2::3]
            assert (area >= 0).all() and np.count_nonzero(area == 0) == 2
            zero_signs |= set(np.signbit(area[area == 0]))
            if case == "nan":
                P[mesh.free[0], 0] = np.nan
            scatters = _record_scatters(monkeypatch)
            with np.errstate(invalid="ignore"):
                want = objective_oracle.objective(
                    P[mesh.free].ravel(), g.n, mesh.free, idx, idx[::3], sharp, weight, P
                )
                got = objective_and_gradient(g, emb, P, sharp, weight)
                faces = _selection(scatters[-1], mesh.corners, P, idx, weight)[1]
            assert faces == (case != "zero area")
            if case != "zero area":  # nans by position, as above
                got, want = (tuple(np.where(np.isnan(v), np.nan, v) for v in r) for r in (got, want))
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        assert zero_signs == {False, True}

    @staticmethod
    def _scaled_call(name, work, sharp, weight, seed, bad=None):
        """The (value, gradient) of one ``_objective`` call on ``work``, the
        workspace of case ``name``, at a random point of its rescaled
        variables, checked against the oracle bit for bit; ``bad`` replaces
        the first free vertex's y variable."""
        g, emb, coords = _oracle_case(name)
        free = work.mesh.free
        idx = objective_oracle.internal_corner_index(g, emb)
        y = np.random.default_rng(seed).normal(0.0, 1.0, 2 * free.size)
        if bad is not None:
            y[1] = bad  # origin + scale * bad is beyond 1e100, or nan
        with np.errstate(over="ignore", invalid="ignore"):
            want = objective_oracle.objective(
                y, g.n, free, idx, idx[::3], sharp, weight, coords, coords[free], work.scale
            )
        with _quiet():
            got = _objective(y, sharp, weight, work)
        if bad is not None and math.isnan(bad):  # nans by position, as above
            got, want = (tuple(np.where(np.isnan(v), np.nan, v) for v in r) for r in (got, want))
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        return got

    @staticmethod
    def _workspace(name):
        """The workspace of case ``name``'s drawing at random scales."""
        g, emb, coords = _oracle_case(name)
        mesh = Triangulation(g, emb)
        scale = np.random.default_rng(len(name)).uniform(0.5, 2.0, mesh.free.size) * 1e-3
        return _Workspace(mesh, coords.T, scale)

    def test_workspaces_of_two_meshes_alternate(self):
        # a restart owns its workspace: calls on two meshes of different
        # sizes, interleaved, each match the oracle
        works = {name: self._workspace(name) for name in ("htilde24", "htilde216")}
        for seed in range(3):
            for name, work in works.items():
                for sharp in (5.0, 1e7):
                    self._scaled_call(name, work, sharp, 10.0, seed)

    def test_workspace_reused_across_sharpness_and_weight(self):
        # one workspace through a continuation's changing sharpness and
        # weight; each gradient is the caller's, untouched by later calls
        work = self._workspace("htilde216")
        kept = []
        for k, (sharp, weight) in enumerate([(5.0, 0.0), (1e3, 10.0), (1e7, 100.0), (5.0, 10.0),
                                             (1e7, 0.0), (1e3, 1e4)]):
            grad = self._scaled_call("htilde216", work, sharp, weight, k)[1]
            kept.append((grad, grad.copy()))
        assert all(_bits(grad) == _bits(copy) for grad, copy in kept)

    @pytest.mark.parametrize("bad", [1e150, -1e150, np.nan])
    def test_workspace_after_a_wide_or_nan_call(self, bad):
        # a call that keeps every term leaves nothing the next call reads
        work = self._workspace("htilde216")
        for sharp, weight in [(5.0, 10.0), (1e7, 10.0)]:
            grad = self._scaled_call("htilde216", work, sharp, weight, 0, bad)[1]
            copy = grad.copy()
            self._scaled_call("htilde216", work, sharp, weight, 1)
            assert _bits(grad) == _bits(copy)

    def test_objective_call_allocates_no_full_size_array(self):
        """A second call on one workspace, at htilde(2,16)'s nested drawing
        and a restart's stage-0 sharpness, allocates under four arrays of
        3F floats at its peak (the gradient, the bincount sums and the
        live-corner arrays); with its temporaries allocated per call it
        peaked at 10.7."""
        g, emb, coords = _oracle_case("htilde216")
        mesh = Triangulation(g, emb)
        work = _Workspace(mesh, coords.T, 1.0)
        theta = optimize._corner_angles(*work.pinned, work)
        span = abs(float(theta.min()))
        args = (4.0 / span, 10.0, work)
        y = np.zeros(2 * mesh.free.size)
        with _quiet():
            _objective(y, *args)
            tracemalloc.start()
            try:
                _objective(y, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 * 8 * mesh.corners.shape[1]

    def test_bit_identical_along_restarts(self, monkeypatch):
        """Every objective call of three short optimizations against the
        oracle, sparse selections with flipped faces among them.  On
        htilde(1,16), calls with no flipped face, which skip the penalty
        pass, and calls with one both occur."""
        monkeypatch.setattr(optimize, "_worker_count", lambda: 1)  # every restart in this process
        objective = optimize._objective
        scatters = _record_scatters(monkeypatch)
        selections = {}
        for c, d in ((1, 16), (2, 4), (2, 16)):
            fam = build_Htilde(c, d)
            g, emb = fam.graph, fam.embedding
            idx = objective_oracle.internal_corner_index(g, emb)

            def checked_objective(y, sharp, weight, work):
                got = objective(y, sharp, weight, work)
                mesh, pinned, origin, scale = work.mesh, work.pinned, work.origin, work.scale
                want = objective_oracle.objective(
                    y, g.n, mesh.free, idx, idx[::3], sharp, weight, pinned.T, origin.T, scale
                )
                assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
                assert scatters[-1] is scatters[-2]  # one index per call
                P = pinned.T.copy()
                P[mesh.free] = origin.T + scale[:, None] * y.reshape(-1, 2)
                selection = _selection(scatters[-1], mesh.corners, P, idx, weight)
                selections.setdefault((c, d), []).append(selection)
                return got

            monkeypatch.setattr(optimize, "_objective", checked_objective)
            config = OptimizeConfig(
                restarts=3, max_iters=60, seed=1, penalty_init=10.0, extra_seeds=[layout_nested(fam)]
            )
            maximize_resolution(g, emb, config)
        assert len(scatters) == 2 * sum(map(len, selections.values()))  # one index per call
        assert {face for _, face in selections[1, 16]} == {False, True}  # both penalty paths
        assert ("sparse", True) in selections[2, 4] + selections[2, 16]  # flipped faces selected too

    @pytest.mark.parametrize(
        "a",
        [
            [0.0],
            [1.0, 1.0, 0.0],
            [5.0, 5.0, 5.0],
            [-3.0, 2.5, 2.5, -1.0, 2.5],
            [1e308, 1e308, -1e308],
            [-np.inf, 0.0, -np.inf],
            # non-finite results take the log(sum(exp(a))) fallback
            [np.inf, 1.0],
            [np.inf, np.inf, 0.0],
            [-np.inf, -np.inf],
            [np.nan, 1.0],
            [1.0, -np.inf, np.nan],
            # exp's underflow edge: 5e-324 just above -745.1332191019412, 0
            # from there down, a subnormal at -708.5
            [0.0, -745.1332191019411],
            [0.0, -745.1332191019412],
            [0.0, -746.0],
            [0.0, -708.5],
            [0.0, -745.1332191019411, -745.1332191019411, -746.0, -708.5],
            # one live lane among thousands whose exp underflows
            np.r_[np.full(2000, -1000.0), 0.0, -3.0, np.full(2000, -800.0)],
            # tied maxima, everything else underflowing
            np.r_[5.0, np.full(3000, -900.0), 5.0, np.full(1000, -741.0), 5.0],
        ],
    )
    def test_logsumexp_matches_scipy(self, a):
        a = np.array(a)
        with np.errstate(over="ignore"):  # scipy's a - max(a) overflows on [1e308, -1e308]
            want = logsumexp(a)
        with _quiet():
            got = _lse(a, _lse_buffers(a.size))
        assert _bits(got) == _bits(want)
        if math.isfinite(want):
            self._check_lanes(a, np.random.default_rng(a.size))

    @staticmethod
    def _check_lanes(a, rng) -> None:
        """``_lse``'s lanes form of ``a`` embedded in a longer array
        (``_embedded``) against scipy's logsumexp of that array, bit for bit."""
        longer, lanes = _embedded(a, rng)
        with np.errstate(over="ignore"):
            want = logsumexp(longer)
        with _quiet():
            got = _lse(longer[lanes], _lse_buffers(longer.size), lanes)
        assert _bits(got) == _bits(want)

    def test_logsumexp_matches_scipy_on_random_inputs(self):
        rng, embed = np.random.default_rng(0), np.random.default_rng(1)
        for size in [1, 2, 3, 7, 8, 9, 127, 128, 129, 1000, 4099]:
            for spread in [1e-3, 1.0, 1e3, 1e7]:
                a = rng.normal(0.0, spread, size)
                a[rng.integers(size, size=size // 3)] = a.max()  # tied maxima
                with _quiet():
                    got = _lse(a, _lse_buffers(a.size))
                assert _bits(got) == _bits(logsumexp(a))
                self._check_lanes(a, embed)


def _nan_bits(value) -> bytes:
    """``_bits`` with every nan made the same (see the oracle tests)."""
    value = np.asarray(value, dtype=np.float64)
    return _bits(np.where(np.isnan(value), np.nan, value))


class TestKeptGeometry:
    """On a mesh of at least ``KEEP_FLOOR`` corners a workspace keeps the
    geometry of its last drawing (the drawing ``P``, each corner's angle and
    each face's doubled area), and a call computes again only the faces at
    the vertices whose variables moved: each call's value, gradient and
    kept geometry equal a cold workspace's bit for bit."""

    @staticmethod
    def _frame():
        """(mesh, pinned, scale, y): the frame of a workspace on htilde(2,16)
        at random scales and a point of its rescaled variables."""
        g, emb, coords = _oracle_case("htilde216")
        mesh = Triangulation(g, emb)
        assert mesh.corners.shape[1] >= optimize.KEEP_FLOOR
        rng = np.random.default_rng(3)
        scale = rng.uniform(0.5, 2.0, mesh.free.size) * 1e-3
        return mesh, np.array(coords.T), scale, rng.normal(0.0, 1.0, 2 * mesh.free.size)

    @staticmethod
    def _paths(monkeypatch, work) -> list:
        """Record each geometry pass on ``work``: ("full",) or ("moved", the
        free-vertex numbers k)."""
        passes = []
        full, move = optimize._corner_angles, optimize._move

        def recorded_full(*args):
            if args[-1] is work:
                passes.append(("full",))
            return full(*args)

        def recorded_move(k, *args):
            if args[-1] is work:
                passes.append(("moved", k.tolist()))
            return move(k, *args)

        monkeypatch.setattr(optimize, "_corner_angles", recorded_full)
        monkeypatch.setattr(optimize, "_move", recorded_move)
        return passes

    @staticmethod
    def _call(work, y, sharp=1e3, weight=10.0, same=_bits):
        """``_objective`` on ``work``, checked against the oracle and against
        a cold workspace of its frame: value, gradient and the geometry both
        keep."""
        mesh = work.mesh
        cold = _Workspace(mesh, work.pinned, work.scale)
        idx = mesh.corners.T
        with _quiet():
            got = _objective(y, sharp, weight, work)
            want = _objective(y, sharp, weight, cold)
            oracle = objective_oracle.objective(
                y, mesh.n, mesh.free, idx, idx[::3], sharp, weight, work.pinned.T, work.origin.T,
                work.scale,
            )
        for a, b in ((got, want), (got, oracle)):
            assert same(a[0]) == same(b[0]) and same(a[1]) == same(b[1])
        for name in ("P", "angle", "area"):
            assert same(getattr(work, name)) == same(getattr(cold, name))
        return got

    def test_only_the_highest_degree_vertex_moves(self, monkeypatch):
        mesh, pinned, scale, y = self._frame()
        start, _ = mesh.vertex_faces
        top = int(np.argmax(np.diff(start)[mesh.free]))
        moved = y.copy()
        moved[2 * top] += 0.5
        moved[2 * top + 1] -= 0.25
        work = _Workspace(mesh, pinned, scale)
        passes = self._paths(monkeypatch, work)
        for point in (y, moved, y, moved):
            self._call(work, point)
        assert passes == [("full",)] + [("moved", [top])] * 3

    def test_a_signed_zero_flip_is_a_move(self, monkeypatch):
        # a degree-3 vertex v placed on a neighbour u at the origin: v at
        # origin -0.0 plus scale * y, which is +0.0 or -0.0 as y is; the
        # sides between u and v then differ only in the sign of their
        # zeros, which can turn an angle at u by pi.  The first such (v, u)
        # whose objective value moves
        mesh, pinned, scale, _ = self._frame()
        start, faces = mesh.vertex_faces
        plus = np.zeros(2 * mesh.free.size)  # the drawing itself, v on u
        for k, v in enumerate(mesh.free):
            if start[v + 1] - start[v] != 3:
                continue
            for u in sorted(set(mesh.faces[faces[start[v] : start[v + 1]]].ravel()) - {v}):
                at = pinned - pinned[:, [u]]  # u at +0.0, +0.0
                at[:, v] = -0.0
                minus = plus.copy()
                minus[2 * k : 2 * k + 2] = -0.0
                with _quiet():
                    cold = [_objective(p, 5.0, 10.0, _Workspace(mesh, at, scale))[0]
                            for p in (plus, minus)]
                if _bits(cold[0]) != _bits(cold[1]):
                    break
            else:
                continue
            break
        assert _bits(cold[0]) != _bits(cold[1])
        work = _Workspace(mesh, at, scale)
        passes = self._paths(monkeypatch, work)
        for point in (plus, minus, plus):
            self._call(work, point, sharp=5.0)
        assert passes == [("full",)] + [("moved", [k])] * 2

    @pytest.mark.parametrize("bad", [np.nan, 1e150])
    def test_a_wide_or_nan_entry(self, monkeypatch, bad):
        # one coordinate beyond 1e100 or nan takes the full pass, as the
        # dense code keeps every corner and face, and the next call brings
        # the vertex back
        mesh, pinned, scale, y = self._frame()
        wide = y.copy()
        wide[7] = bad
        work = _Workspace(mesh, pinned, scale)
        passes = self._paths(monkeypatch, work)
        for point in (y, wide, y):
            self._call(work, point, same=_nan_bits)
        assert passes == [("full",), ("full",), ("moved", [3])]

    def test_an_unchanged_point_computes_nothing(self, monkeypatch):
        mesh, pinned, scale, y = self._frame()
        work = _Workspace(mesh, pinned, scale)
        passes = self._paths(monkeypatch, work)
        first = self._call(work, y)
        # the same bits in another array, at another sharpness and weight
        again = self._call(work, y.copy())
        other = self._call(work, y, 1e7, 100.0)
        assert passes == [("full",)]
        assert _bits(first[0]) == _bits(again[0]) and _bits(first[1]) == _bits(again[1])
        assert _bits(first[0]) != _bits(other[0])

    @pytest.mark.parametrize("field", ["pinned", "scale"])
    def test_the_callers_frame_arrays_may_change(self, monkeypatch, field):
        # the workspace holds copies: the caller's arrays, changed in place
        # after it is built, change no later call, full or moved
        mesh, pinned, scale, y = self._frame()
        work = _Workspace(mesh, pinned, scale)
        same = _Workspace(mesh, pinned.copy(), scale.copy())
        if field == "pinned":
            pinned += 1.0  # the outer vertices, which every full pass copies, included
        else:
            scale *= 1.5
        moved = y.copy()
        moved[:2] += 0.5
        passes = self._paths(monkeypatch, work)
        for point in (y, moved, -y):
            with _quiet():
                got, want = _objective(point, 1e3, 10.0, work), _objective(point, 1e3, 10.0, same)
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
            for name in ("P", "angle", "area"):
                assert _bits(getattr(work, name)) == _bits(getattr(same, name))
        assert passes == [("full",), ("moved", [0]), ("full",)]

    def test_moved_call_allocates_less_than_a_corner_array(self, monkeypatch):
        """A call that computes again the faces of one vertex, at a deep
        stage's sharpness where few corners are live, allocates less than
        one array of 3F floats at its peak."""
        mesh, pinned, scale, _ = self._frame()
        work = _Workspace(mesh, pinned, scale)
        theta = optimize._corner_angles(*work.pinned, work)
        sharp = 4.0 * 2.0**3 / abs(float(theta.min()))
        y = np.zeros(2 * mesh.free.size)  # the nested drawing itself
        moved = y.copy()
        moved[0] = 1e-6
        passes = self._paths(monkeypatch, work)
        with _quiet():
            _objective(y, sharp, 10.0, work)
            tracemalloc.start()
            try:
                _objective(moved, sharp, 10.0, work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert passes == [("full",), ("moved", [0])]
        assert peak < 8 * mesh.corners.shape[1]

    @pytest.mark.parametrize("zero, kept", [(0.0, True), (-0.0, False)])
    def test_the_start_pass_is_kept_for_y_zero(self, monkeypatch, zero, kept):
        # stage 0's full pass at the start drawing serves y = 0 unless a
        # free coordinate is -0.0, which origin + scale * 0.0 makes +0.0
        mesh, pinned, scale, _ = self._frame()
        pinned = pinned - pinned[:, [mesh.free[0]]]
        pinned[0, mesh.free[0]] = zero
        work = _Workspace(mesh, pinned, scale)
        passes = self._paths(monkeypatch, work)
        optimize._start_angles(work)
        assert work.kept is kept
        self._call(work, np.zeros(2 * mesh.free.size))
        assert passes == [("full",)] * (2 - kept)

    @pytest.mark.parametrize("c, d", [(2, 16), (3, 8)])
    def test_nested_restarts_match_a_cold_workspace(self, monkeypatch, c, d, pins):
        """Every objective call of sweep-deep's nested restart of each deep
        row (3 restarts, seed 42, ``max_iters=3000``, ``penalty_init=10``)
        against a cold workspace, most of them computing only moved faces;
        the stages, the closing objective and the counts are the ones
        ``TestNestedRestartTraces`` pins, and the calls are the stages'
        evaluations plus the closing one.  On htilde(2,16) two stages that
        take no step end the restart."""
        fam = build_Htilde(c, d)
        mesh = Triangulation(fam.graph, fam.embedding)
        objective, run = optimize._objective, optimize._run_restart
        calls = []

        def checked_objective(y, sharp, weight, work):
            calls.append(None)
            got = objective(y, sharp, weight, work)
            cold = _Workspace(mesh, work.pinned, work.scale)
            want = objective(y, sharp, weight, cold)
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
            for name in ("P", "angle", "area"):
                assert _bits(getattr(work, name)) == _bits(getattr(cold, name))
            return got

        def recorded_run(work, config):
            paths.append(self._paths(monkeypatch, work))
            return run(work, config)

        paths = []
        monkeypatch.setattr(optimize, "_run_restart", recorded_run)
        monkeypatch.setattr(optimize, "_objective", checked_objective)
        config = OptimizeConfig(restarts=3, seed=42, max_iters=3000, penalty_init=10.0)
        _, trace = optimize._restart(1, mesh, [layout_nested(fam)], config)
        (passes,) = paths
        pin = pins["nested_restart"][f"htilde {c} {d}"]
        calls_pinned, full_pinned = pin["counts"][1]
        # stage 0's full pass at the start drawing is kept for y = 0: one per restart
        assert [p for p in passes if p[0] == "full"] == [("full",)] * full_pinned
        assert sum(p[0] == "moved" for p in passes) > 2
        assert repr(trace.final_objective) == pin["final_objective"]
        assert trace.stages == [tuple(stage) for stage in pin["stages"]]
        assert len(calls) == calls_pinned


class TestCandidatePool:
    """A deep call's soft-min over its pool of candidate corners
    (``optimize._kept_softmin``), each call checked by
    ``TestKeptGeometry._call`` against the oracle and a cold workspace, bit
    for bit: through rebuilds of the pool, flipped faces, a wide or nan
    coordinate, tied maxima and subnormal live lanes."""

    @staticmethod
    def _events(monkeypatch, work) -> list:
        """Record, on ``work``, each full pass ("full"), each pool built
        ("pool", sharpness) and each soft-min, over the pool ("kept") or
        over every corner ("dense")."""
        events = []
        full, build, lse = optimize._corner_angles, optimize._build_pool, optimize._lse

        def recorded_full(*args):
            if args[-1] is work:
                events.append("full")
            return full(*args)

        def recorded_build(sharp, on):
            if on is work:
                events.append(("pool", sharp))
            return build(sharp, on)

        def recorded_lse(a, on, lanes=None):
            if on is work:
                events.append("dense" if lanes is None else "kept")
            return lse(a, on, lanes)

        monkeypatch.setattr(optimize, "_corner_angles", recorded_full)
        monkeypatch.setattr(optimize, "_build_pool", recorded_build)
        monkeypatch.setattr(optimize, "_lse", recorded_lse)
        return events

    @staticmethod
    def _angles(work, y) -> np.ndarray:
        """The corner angles at ``y`` in a cold workspace of ``work``'s frame."""
        cold = _Workspace(work.mesh, work.pinned, work.scale)
        optimize._angles_at(y, cold)
        return cold.angle

    @pytest.mark.parametrize("spread, empty", [(1000.0, False), (3000.0, True)])
    def test_a_rise_of_the_smallest_angle_rebuilds_the_pool(self, monkeypatch, spread, empty):
        # vertices 0 and 5 moved flip faces, vertex 0's the deepest; bringing
        # vertex 0 back raises the smallest angle by rise.  At sharpness
        # spread / rise the bound T = min + 1492 / sharp is 1.49 or 0.50
        # rises above the first smallest angle, so the new smallest is in
        # the pool or the pool is empty; either way it rose by more than
        # 746 / sharp, and the pool is built again
        mesh, pinned, scale, _ = TestKeptGeometry._frame()
        work = _Workspace(mesh, pinned, scale)
        both = np.zeros(2 * mesh.free.size)
        both[0] = both[10] = 1.0
        back = both.copy()
        back[0] = 0.0
        low, high = (float(self._angles(work, y).min()) for y in (both, back))
        sharp = spread / (high - low)
        events = self._events(monkeypatch, work)
        TestKeptGeometry._call(work, both, sharp)
        assert (high <= work.bound) != empty and high - low > 746.0 / sharp
        TestKeptGeometry._call(work, back, sharp)
        assert events == ["full", ("pool", sharp), "kept", ("pool", sharp), "kept"]
        assert work.pool.size and high <= work.bound

    def test_a_new_sharpness_rebuilds_the_pool(self, monkeypatch):
        # a restart's stages: the same point at a doubled sharpness, then
        # moved points; a pool is built once per sharpness
        mesh, pinned, scale, _ = TestKeptGeometry._frame()
        work = _Workspace(mesh, pinned, scale)
        y = np.zeros(2 * mesh.free.size)
        span = abs(float(self._angles(work, y).min()))
        events = self._events(monkeypatch, work)
        for stage, moved in ((0, None), (0, 7), (1, None), (1, 9), (2, 9)):
            if moved is not None:
                y = y.copy()
                y[moved] += 1e-3
            TestKeptGeometry._call(work, y, 4.0 * 2.0**stage / span)
        s0, s1, s2 = (4.0 * 2.0**stage / span for stage in range(3))
        assert events == [
            "full", ("pool", s0), "kept", "kept", ("pool", s1), "kept", "kept", ("pool", s2), "kept"
        ]

    def test_flipped_faces(self, monkeypatch):
        # the frame's random point flips thousands of faces: their penalty
        # terms take the sides of the flipped faces only
        mesh, pinned, scale, y = TestKeptGeometry._frame()
        work = _Workspace(mesh, pinned, scale)
        events = self._events(monkeypatch, work)
        moved = y.copy()
        moved[40:60] *= 1.5
        for point in (y, moved, y):
            TestKeptGeometry._call(work, point, 1e3, 10.0)
            assert (work.area < 0).sum() > 1000
        assert events == ["full", ("pool", 1e3), "kept", "kept", "kept"]

    @pytest.mark.parametrize("bad", [1e150, np.nan])
    def test_a_wide_or_nan_coordinate_after_a_kept_call(self, monkeypatch, bad):
        # the dense fallback's full pass leaves the pool stale: the next
        # kept call builds it again
        mesh, pinned, scale, y = TestKeptGeometry._frame()
        work = _Workspace(mesh, pinned, scale)
        wide = y.copy()
        wide[7] = bad
        events = self._events(monkeypatch, work)
        for point in (y, y.copy(), wide, y):
            TestKeptGeometry._call(work, point, 1e7, 10.0, same=_nan_bits)
        pool = [("pool", 1e7), "kept"]
        assert events == ["full", *pool, "kept", "full", "dense", *pool]

    def test_a_tie_at_the_maximum(self, monkeypatch):
        # htilde(2,16)'s nested drawing with a degree-3 vertex on a
        # neighbour: six corners of angle +-0.0 tie for the smallest, the
        # largest lane of z; then the vertex moves off and back
        mesh, pinned, scale, _ = TestKeptGeometry._frame()
        start, faces = mesh.vertex_faces
        k = next(k for k, v in enumerate(mesh.free) if start[v + 1] - start[v] == 3)
        v = mesh.free[k]
        u = min(set(mesh.faces[faces[start[v] : start[v + 1]]].ravel()) - {v})
        at = pinned.copy()
        at[:, v] = at[:, u]
        work = _Workspace(mesh, at, scale)
        y = np.zeros(2 * mesh.free.size)
        angle = self._angles(work, y)
        assert np.count_nonzero(angle == angle.min()) == 6
        off = y.copy()
        off[2 * k] = 1e-3
        events = self._events(monkeypatch, work)
        for point in (y, off, y):
            TestKeptGeometry._call(work, point, 1e3)
        assert events == ["full", ("pool", 1e3), "kept", "kept", "kept"]

    def test_subnormal_live_lanes(self, monkeypatch):
        # at a sharpness that puts a corner's shifted lane near -725, its
        # exp and its gradient factor are subnormal doubles
        mesh, pinned, scale, _ = TestKeptGeometry._frame()
        work = _Workspace(mesh, pinned, scale)
        y = np.zeros(2 * mesh.free.size)
        angle = self._angles(work, y)
        gap = np.unique(angle)[50] - angle.min()
        sharp = 725.0 / gap
        z = -sharp * angle
        shifted = z - z.max()
        assert ((shifted > -745.1) & (shifted < -708.4)).any()
        events = self._events(monkeypatch, work)
        moved = y.copy()
        moved[3] = 1e-9
        for point in (y, moved):
            TestKeptGeometry._call(work, point, sharp)
        assert events == ["full", ("pool", sharp), "kept", "kept"]


class TestStallRule:
    """``_run_restart`` ends its stages after two in a row without progress,
    and a stage that took no step (``nit`` 0) makes none, whatever its
    ``res.fun`` reads: ``minimize`` is scripted to return each stage's
    (fun, nit) at unmoved variables."""

    @pytest.mark.parametrize(
        "script, ran",
        [
            # from value inf at stage 0 too; a test of res.fun alone runs 4 stages
            ([(5.0, 0), (4.0, 0), (4.0, 3), (4.0, 3)], 2),
            # a zero-step stage below the last value keeps the count (res.fun alone: 5)
            ([(5.0, 3), (5.0, 3), (1.0, 0), (1.0, 3), (1.0, 3)], 3),
            # a stage that steps and drops resets it
            ([(5.0, 0), (4.0, 2), (4.0, 2), (4.0, 2)], 4),
            ([(5.0, 2), (4.0, 2), (4.0, 0), (3.0, 2), (3.0, 0), (2.0, 0), (1.0, 2)], 6),
        ],
    )
    def test_stages_run(self, monkeypatch, script, ran):
        fam = build_Htilde(1, 2)
        work = _Workspace(Triangulation(fam.graph, fam.embedding), layout_nested(fam).T, 1.0)
        asked = []

        def scripted(fun, x0, args, maxiter):
            fx, nit = script[len(asked)]
            asked.append(args[1])  # the stage's penalty weight
            return optimize.LbfgsbResult(np.array(x0), fx, nit, nit + 1, f"stage {len(asked)}")

        monkeypatch.setattr(optimize, "minimize", scripted)
        config = OptimizeConfig(max_iters=3000, penalty_init=10.0)
        _, value, stages = optimize._run_restart(work, config)
        assert stages == [(f"stage {k + 1}", nit, nit + 1) for k, (_, nit) in enumerate(script[:ran])]
        assert asked == [10.0**k for k in range(1, ran + 1)]
        assert math.isfinite(value)  # the closing objective at the unmoved drawing


class TestMinimize:
    """``optimize.minimize`` against scipy's L-BFGS-B wrapper in
    ``tests/lbfgsb_oracle.py``: the same point to the byte, the same value
    bits, iteration and evaluation counts and message."""

    @staticmethod
    def assert_same(got, want):
        assert got.x.tobytes() == want.x.tobytes()
        assert float(got.fun).hex() == float(want.fun).hex()
        assert (got.nit, got.nfev, got.message) == (want.nit, want.nfev, want.message)

    @pytest.mark.parametrize(
        "maxiter, message",
        [
            (3, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
            (15000, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"),
        ],
    )
    def test_quadratic(self, maxiter, message):
        a, c = np.linspace(1.0, 50.0, 12), np.sin(np.arange(12.0))

        def fun(x, a, c):
            r = x - c
            return 0.5 * float(np.sum(a * r * r)), a * r

        x0 = np.zeros(12)
        got = optimize.minimize(fun, x0, (a, c), maxiter)
        self.assert_same(got, lbfgsb_oracle.minimize(fun, x0, (a, c), maxiter))
        assert got.message == message and not x0.any()

    @pytest.mark.parametrize(
        "c, d, max_iters, nested, message, nit",
        [
            (1, 4, 100, False, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT", 50),
            (1, 2, 400, False, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", None),
            # the nested seed of htilde(2,16): every line search fails at once
            (2, 16, 3000, True, "ABNORMAL: ", 0),
        ],
    )
    def test_restart_stages(self, monkeypatch, c, d, max_iters, nested, message, nit):
        monkeypatch.setattr(optimize, "_worker_count", lambda: 1)  # every restart in this process
        drive = optimize.minimize
        stages = []

        def checked(fun, x0, args, maxiter):
            got = drive(fun, x0, args, maxiter)
            self.assert_same(got, lbfgsb_oracle.minimize(fun, x0, args, maxiter))
            stages.append((got.message, got.nit))
            return got

        monkeypatch.setattr(optimize, "minimize", checked)
        fam = build_Htilde(c, d)
        config = OptimizeConfig(
            restarts=1 + nested,
            max_iters=max_iters,
            seed=42,
            penalty_init=10.0,
            extra_seeds=[layout_nested(fam)] if nested else [],
        )
        maximize_resolution(fam.graph, fam.embedding, config)
        nits = [n for m, n in stages if m == message]
        assert nits and (nit is None or nit in nits)

    def test_message_tables_match_scipy(self):
        # every stop code, not just the three the stages above reach: a scipy
        # release that renames one fails here, not in RestartTrace.stages
        from scipy.optimize import _lbfgsb_py

        assert optimize.status_messages == _lbfgsb_py.status_messages
        assert optimize.task_messages == _lbfgsb_py.task_messages


# Each runs in a fresh interpreter, since this one has imported scipy.optimize
# through the oracles.  ``out`` is a scratch directory.
SHARED_LBFGSB = """
import numpy as np
lbfgsb = sys.modules["scipy.optimize._lbfgsb"]
assert angres.optimize.setulb is lbfgsb.setulb
assert scipy.optimize._lbfgsb_py._lbfgsb is lbfgsb
res = scipy.optimize.minimize(lambda x: (x @ x, 2 * x), np.ones(3), jac=True, method="L-BFGS-B")
assert res.success and np.abs(res.x).max() < 1e-6, res
"""
COLD_START = {
    "no-scipy-optimize": """
import angres, angres.cli
from angres import cli
assert cli.main(["gen", "--family", "htilde", "--c", "1", "--d", "2",
                 "-o", os.path.join(out, "h.graph")]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
assert loaded == ["scipy.optimize._lbfgsb"], loaded
assert "concurrent.futures" not in sys.modules  # lemma_fuzz imports it when run
""",
    "angres-first": "import angres.optimize, scipy.optimize\n" + SHARED_LBFGSB,
    "scipy-first": "import scipy.optimize, angres.optimize\n" + SHARED_LBFGSB,
}


@pytest.mark.parametrize("script", COLD_START.values(), ids=COLD_START.keys())
def test_cold_start_loads_only_lbfgsb(tmp_path, script):
    """``angres`` loads scipy's compiled L-BFGS-B extension without
    ``scipy.optimize``, and shares it with a ``scipy.optimize`` imported
    before or after."""
    src = os.path.dirname(os.path.dirname(optimize.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import os, sys\nout = {str(tmp_path)!r}\n" + script
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestMaximize:
    def test_triangle_optimum(self):
        g, emb = triangle()
        result = maximize_resolution(g, emb, OptimizeConfig(restarts=2, max_iters=50))
        assert result.resolution == pytest.approx(math.pi / 3, abs=1e-3)

    def test_no_free_vertex(self, pins):
        # K3 is its own outer face: every restart reports its start as is,
        # with no L-BFGS-B stage run
        g, _ = triangle()
        emb = Embedding.from_rows([[1, 2], [2, 0], [0, 1]], (0, 2, 1))
        result = maximize_resolution(g, emb, OptimizeConfig(restarts=3))
        value = float(pins["k3_resolution"])
        assert result.resolution == value
        assert len(result.traces) == 3
        for trace in result.traces:
            assert trace.resolution == trace.start_resolution == value
            assert trace.stages == [] and trace.final_objective == 0.0

    def test_k4_bounds(self):
        fam = build_Htilde(1, 1)  # contains K4-level structure; use plain K4 instead
        g = LabeledGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        emb = Embedding.from_rows([[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]], (0, 2, 1))
        result = maximize_resolution(g, emb, FAST)
        assert result.resolution <= 2 * math.pi / 3 + 1e-9
        assert result.resolution >= math.pi / 6 - 1e-6  # centroid seed value

    def test_f2_range(self):
        fam = build_frame(2)
        fan_res = angular_resolution(fam.graph, layout_frame_fan(2)[1]).resolution
        result = maximize_resolution(fam.graph, fam.embedding, FAST)
        assert fan_res - 1e-9 <= result.resolution <= math.pi / 2 + 1e-9

    def test_self_consistency_and_validity(self):
        fam = build_frame(3)
        result = maximize_resolution(fam.graph, fam.embedding, FAST)
        assert validate_drawing(fam.graph, fam.embedding, result.coords) == []
        remeasured = angular_resolution(fam.graph, result.coords).resolution
        assert abs(remeasured - result.resolution) <= 1e-9

    def test_deterministic(self):
        fam = build_frame(3)
        a = maximize_resolution(fam.graph, fam.embedding, FAST)
        b = maximize_resolution(fam.graph, fam.embedding, FAST)
        assert np.array_equal(a.coords, b.coords)
        assert a.resolution == b.resolution

    def test_monotone_in_restarts(self):
        fam = build_frame(3)
        few = maximize_resolution(
            fam.graph, fam.embedding, OptimizeConfig(restarts=2, max_iters=400, seed=7)
        )
        more = maximize_resolution(
            fam.graph, fam.embedding, OptimizeConfig(restarts=4, max_iters=400, seed=7)
        )
        assert more.resolution >= few.resolution - 1e-12

    def test_traces_record_start_resolution(self):
        fam = build_Htilde(1, 4)
        g, emb = fam.graph, fam.embedding
        nested = layout_nested(fam)
        mirrored = nested * [-1.0, 1.0]  # every face flipped: discarded
        config = OptimizeConfig(restarts=4, max_iters=100, seed=7, extra_seeds=[nested, mirrored])
        traces = maximize_resolution(g, emb, config).traces
        for t, start in zip(traces, [layout_seed_any(g, emb), nested]):
            assert t.start_resolution == angular_resolution(g, start).resolution
        assert not traces[2].valid and math.isnan(traces[2].start_resolution)
        for t in (traces[0], traces[1], traces[3]):
            assert t.valid and t.resolution >= t.start_resolution > 0.0

    @pytest.mark.parametrize("name, extra", [("plain", None), ("replay-42-31", [42, 31])],
                             ids=["plain", "replay-42-31"])
    def test_frame_result_pinned(self, name, extra, pins):
        """Everything ``maximize_resolution`` reports on frame(8), 2 restarts
        at seed 42 with ``max_iters=300``, as recorded when the restarts took
        their scales from the corner sides.  The frame lists its outer u_8
        and v_8 last; with the replay of ``rng([42, 31])`` as extra seed an
        edge in their rows is shorter than every edge at v_7, the last free
        vertex, so a scale pass that reduced only at the free rows' starts
        would move restart 1."""
        fam = build_frame(8)
        mesh = Triangulation(fam.graph, fam.embedding)
        seeds = [] if extra is None else [mesh.replay.place(rng=np.random.default_rng(extra))]
        config = OptimizeConfig(restarts=2, seed=42, max_iters=300, extra_seeds=seeds)
        result = maximize_resolution(fam.graph, fam.embedding, config)
        digest = hashlib.sha256(repr(_result_bytes(result)).encode()).hexdigest()
        assert digest == pins["frame_8_result_sha256"][name]

    def test_restart_optimizes_its_own_start(self):
        """The nested drawing of G(2,8) places the outer triangle elsewhere
        than the centroid replay; its restart optimizes that drawing, outer
        triangle included, and so improves on it."""
        fam = build_G(2, 8)
        nested = layout_nested(fam)
        outer = list(fam.embedding.outer_face)
        assert not np.array_equal(nested[outer], layout_seed_any(fam.graph, fam.embedding)[outer])
        config = OptimizeConfig(restarts=2, max_iters=300, seed=42, extra_seeds=[nested])
        result = maximize_resolution(fam.graph, fam.embedding, config)
        t = result.traces[1]
        assert t.start_resolution == angular_resolution(fam.graph, nested).resolution
        assert t.resolution > t.start_resolution
        assert result.resolution == t.resolution
        assert np.array_equal(result.coords[outer], nested[outer])
        assert validate_drawing(fam.graph, fam.embedding, result.coords) == []

    def test_checks_the_build_sequence_once(self, monkeypatch):
        # the compiled Triangulation proves the pair a plane triangulation,
        # so the family's certificate, checked once with the replay plan's
        # bounded-face rule (base_uses=1), gives the plan its sequence
        calls = []
        check = graphs._check_build_sequence

        def counted(seq, n, base_uses, errors, error):
            calls.append(base_uses)
            return check(seq, n, base_uses, errors, error)

        for module in (graphs, layout):
            monkeypatch.setattr(module, "_check_build_sequence", counted)
        fam = build_Htilde(1, 2)
        maximize_resolution(fam.graph, fam.embedding, OptimizeConfig(restarts=2, max_iters=10))
        assert calls == [1]
        # so does a seed drawing without a sequence
        layout_seed_any(fam.graph, fam.embedding)
        assert calls == [1, 1]

    def test_triangulation_that_is_no_3tree_fails_as_verification(self, monkeypatch):
        g = LabeledGraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1),
                             (1, 5), (2, 5), (3, 5), (4, 5)])  # the octahedron
        rows = [[2, 3, 4, 1], [0, 4, 5, 2], [1, 5, 3, 0], [4, 0, 2, 5], [0, 3, 5, 1], [4, 3, 2, 1]]
        emb = Embedding.from_rows(rows, (0, 2, 1))
        assert Triangulation(g, emb).faces.shape == (7, 3)
        with pytest.raises(NotPlanar3TreeError) as want:
            graphs.verify_planar_3tree(g, keep=emb.outer_face)
        # the calling process raises while building its replay plan, and
        # waits for no child: a forked restart would sleep until killed
        here, restart = os.getpid(), optimize._restart

        def slow_in_a_child(r, *args):
            if os.getpid() != here:
                time.sleep(60)
            return restart(r, *args)

        monkeypatch.setattr(optimize, "_restart", slow_in_a_child)
        config = replace(FAST, extra_seeds=[np.zeros((6, 2))])
        for workers in (1, 2):
            monkeypatch.setattr(optimize, "_worker_count", lambda: workers)
            t0 = time.perf_counter()
            with pytest.raises(NotPlanar3TreeError) as got:
                maximize_resolution(g, emb, config)
            assert time.perf_counter() - t0 < 30
            assert str(got.value) == str(want.value)
            _assert_no_child()

    @pytest.mark.parametrize("c, d, winner", [(1, 2, 0), (2, 16, 1)])
    def test_winner_of_two_restart_rows(self, c, d, winner):
        """The two-restart rows CI pins (seed 42, ``max_iters=3000``,
        ``penalty_init=10``, the nested drawing as restart 1): the centroid
        replay wins htilde(1,2), and the nested drawing htilde(2,16), whose
        centroid replay collapses."""
        fam = build_Htilde(c, d)
        config = OptimizeConfig(
            restarts=2, max_iters=3000, seed=42, penalty_init=10.0, extra_seeds=[layout_nested(fam)]
        )
        assert maximize_resolution(fam.graph, fam.embedding, config).winner == winner

    def test_winner_is_the_lowest_of_tied_restarts(self):
        traces = [optimize.RestartTrace(r, 0.0, res, res) for r, res in enumerate([math.nan, 0.5, 0.5])]
        assert optimize.OptimizeResult(np.zeros((3, 2)), 0.5, traces).winner == 1

    def test_deep_trace_records_abnormal_stages(self):
        """On htilde(2,16) every stage of the nested start exits ABNORMAL
        without moving, and its res.fun is a rejected trial near pi; the
        trace reports the objective at the returned variables instead."""
        fam = build_Htilde(2, 16)
        config = OptimizeConfig(
            restarts=2, max_iters=3000, seed=42, penalty_init=10.0, extra_seeds=[layout_nested(fam)]
        )
        traces = maximize_resolution(fam.graph, fam.embedding, config).traces
        assert traces[0].stages == [] and traces[0].final_objective == math.inf
        t = traces[1]
        assert t.valid and t.iterations == 0 and t.stages
        assert all(msg.startswith("ABNORMAL") and nit == 0 for msg, nit, _ in t.stages)
        # minus a soft-min of the corner angles of the unmoved (valid) start
        assert 0.0 < -t.final_objective <= t.resolution

    def test_shallow_trace_objective_is_last_stage_value(self, monkeypatch):
        monkeypatch.setattr(optimize, "_worker_count", lambda: 1)  # every restart in this process
        funs = []
        minimize = optimize.minimize

        def recording_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            funs.append(float(res.fun))
            return res

        monkeypatch.setattr(optimize, "minimize", recording_minimize)
        fam = build_Htilde(1, 4)
        config = OptimizeConfig(
            restarts=2, max_iters=400, seed=42, penalty_init=10.0, extra_seeds=[layout_nested(fam)]
        )
        traces = maximize_resolution(fam.graph, fam.embedding, config).traces
        for t in traces:
            assert t.stages and not any(msg.startswith("ABNORMAL") for msg, _, _ in t.stages)
            assert sum(nit for _, nit, _ in t.stages) == t.iterations
            last = funs[len(t.stages) - 1]
            del funs[: len(t.stages)]
            assert t.final_objective.hex() == last.hex()
        assert funs == []

    def test_traces_cover_restarts(self):
        fam = build_frame(2)
        result = maximize_resolution(fam.graph, fam.embedding, FAST)
        assert [t.index for t in result.traces] == list(range(FAST.restarts))


def _worker_case(name: str):
    """(graph, embedding, extra seeds) of a worker-count case."""
    if name == "k3":  # no free vertex
        g, _ = triangle()
        return g, Embedding.from_rows([[1, 2], [2, 0], [0, 1]], (0, 2, 1)), []
    fam = {"htilde12": lambda: build_Htilde(1, 2), "htilde24": lambda: build_Htilde(2, 4),
           "htilde216": lambda: build_Htilde(2, 16), "g28": lambda: build_G(2, 8)}[name]()
    return fam.graph, fam.embedding, [layout_nested(fam)]


def _result_bytes(result) -> tuple:
    """Everything an ``OptimizeResult`` or ``OptimizeFailure`` reports, floats by ``hex``."""
    traces = [
        (t.index, float(t.final_objective).hex(), float(t.resolution).hex(),
         float(t.start_resolution).hex(), t.stages)
        for t in result.traces
    ]
    if isinstance(result, optimize.OptimizeFailure):
        return str(result), traces
    return result.coords.tobytes(), float(result.resolution).hex(), traces


_SETULB_BLAS = optimize._blas_thread_control()  # looked up once, before any test patches it


def _blas_threads() -> int:
    """The thread count of ``setulb``'s OpenBLAS."""
    return _SETULB_BLAS[0]()


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """Restarts split over worker shares, share 0 in this process and the
    others in forked children."""

    @pytest.mark.parametrize(
        "name, restarts",
        [("htilde12", 1), ("htilde12", 5), ("htilde24", 16), ("htilde216", 16),
         ("htilde216", 1), ("g28", 2), ("k3", 5)],
    )
    def test_result_does_not_depend_on_the_worker_count(self, monkeypatch, name, restarts):
        # htilde(2,16) discards its collapsed replay starts, and with one
        # restart, only the centroid's, fails
        g, emb, seeds = _worker_case(name)
        config = OptimizeConfig(restarts=restarts, max_iters=200, seed=42, penalty_init=10.0,
                                extra_seeds=seeds)
        blas = _blas_threads()
        seen = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(optimize, "_worker_count", lambda: workers)
            try:
                seen.append(_result_bytes(maximize_resolution(g, emb, config)))
            except optimize.OptimizeFailure as failure:
                seen.append(_result_bytes(failure))
            _assert_no_child()
            assert _blas_threads() == blas
        assert seen[0] == seen[1] == seen[2]
        assert [t[0] for t in seen[0][-1]] == list(range(restarts))
        assert (name, restarts) != ("htilde216", 1) or isinstance(seen[0][0], str)

    @staticmethod
    def _failing(monkeypatch, fail):
        """Make ``_restart`` call ``fail(r)`` first, and run 6 restarts of
        frame(2) on 3 workers: shares (0, 3), (1, 4) and (2, 5)."""
        restart = optimize._restart

        def failing(r, *args):
            fail(r)
            return restart(r, *args)

        monkeypatch.setattr(optimize, "_restart", failing)
        monkeypatch.setattr(optimize, "_worker_count", lambda: 3)
        fam = build_frame(2)
        return lambda: maximize_resolution(fam.graph, fam.embedding,
                                           OptimizeConfig(restarts=6, max_iters=20))

    @pytest.mark.parametrize("bad, first", [({2, 4}, 2), ({3, 4}, 3), ({4, 5}, 4), ({1, 3}, 1),
                                            ({0}, 0), ({5}, 5)])
    def test_lowest_failing_restart_raises(self, monkeypatch, bad, first):
        def fail(r):
            if r in bad:
                raise (LookupError if r % 2 else ArithmeticError)(f"restart {r} failed")

        run = self._failing(monkeypatch, fail)
        blas = _blas_threads()
        with pytest.raises(Exception) as info:
            run()
        assert type(info.value) is (LookupError if first % 2 else ArithmeticError)
        assert str(info.value) == f"restart {first} failed"
        _assert_no_child()
        assert _blas_threads() == blas

    def test_unpicklable_exception_keeps_its_type(self, monkeypatch):
        def fail(r):
            if r == 1:  # OptimizeFailure takes its traces as a second argument
                raise optimize.OptimizeFailure("no", [])

        with pytest.raises(optimize.OptimizeFailure, match="^no$") as info:
            self._failing(monkeypatch, fail)()
        assert info.value.traces == []
        assert not hasattr(info.value, "__notes__")
        _assert_no_child()

    def test_restart_that_raises_only_in_its_worker(self, monkeypatch):
        here = os.getpid()

        def fail(r):
            if r == 4 and os.getpid() != here:
                raise LookupError("only in the child")

        run = self._failing(monkeypatch, fail)
        blas = _blas_threads()
        want = "^restart 4 raised in its worker but not when run again$"
        with pytest.raises(RuntimeError, match=want):
            run()
        _assert_no_child()
        assert _blas_threads() == blas

    def test_child_that_dies_without_a_result(self, monkeypatch):
        def fail(r):
            if r == 4:
                os._exit(3)

        want = r"^the worker of restarts \[1, 4\] exited with code 3$"
        with pytest.raises(RuntimeError, match=want):
            self._failing(monkeypatch, fail)()
        _assert_no_child()

    def test_interrupt_kills_the_children(self, monkeypatch):
        def fail(r):
            if r == 0:
                raise KeyboardInterrupt
            time.sleep(60)  # in a child, until killed

        run = self._failing(monkeypatch, fail)
        blas = _blas_threads()
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run()
        assert time.perf_counter() - t0 < 30
        _assert_no_child()
        assert _blas_threads() == blas

    def test_forks_with_blas_already_at_one_thread(self, monkeypatch):
        # as under OPENBLAS_NUM_THREADS=1, which perfbench/run.py sets
        get, put = _SETULB_BLAS
        threads = get()
        here = []
        restart = optimize._restart
        monkeypatch.setattr(optimize, "_restart", lambda r, *args: here.append(r) or restart(r, *args))
        monkeypatch.setattr(optimize, "_worker_count", lambda: 3)
        fam = build_frame(2)
        put(1)
        try:
            maximize_resolution(fam.graph, fam.embedding, OptimizeConfig(restarts=5, max_iters=20))
            assert get() == 1
        finally:
            put(threads)
        assert here == [0, 3]  # restarts 1, 4 and 2 ran in forked children
        _assert_no_child()

    @pytest.mark.parametrize("restarts, seeded", [(2, True), (4, False)])
    def test_each_process_builds_the_replay_plan_it_needs_once(
        self, monkeypatch, tmp_path, restarts, seeded
    ):
        # 2 workers: restart 1 (the extra seed, if any) and 3 in a child;
        # only restarts from a replay (0 and the jittered ones) need the plan
        log = tmp_path / "plans"
        plan = metrics._ReplayPlan

        def logged(*args):
            with open(log, "a") as fh:  # a forked child appends to the same file
                fh.write(f"{os.getpid()}\n")
            return plan(*args)

        monkeypatch.setattr(metrics, "_ReplayPlan", logged)
        fam = build_frame(2)
        config = OptimizeConfig(restarts=restarts, max_iters=20, seed=42,
                                extra_seeds=[layout_nested(fam)] if seeded else [])
        seen = []
        for workers in (1, 2):
            monkeypatch.setattr(optimize, "_worker_count", lambda: workers)
            seen.append(_result_bytes(maximize_resolution(fam.graph, fam.embedding, config)))
            _assert_no_child()
            pids = log.read_text().split()
            log.unlink()
            here = str(os.getpid())
            if workers == 1 or seeded:
                assert pids == [here]
            else:
                assert here in pids and len(pids) == len(set(pids)) == 2
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("why", ["no fork", "no openblas", "a thread", "not linux"])
    def test_fallback_runs_every_restart_here(self, monkeypatch, why):
        import threading

        here, blas = [], []
        restart = optimize._restart

        def recorded(r, *args):
            here.append(r)  # a forked child's list is its own
            blas.append(_blas_threads())
            return restart(r, *args)

        monkeypatch.setattr(optimize, "_restart", recorded)
        monkeypatch.setattr(optimize, "_worker_count", lambda: 3)
        fam = build_frame(2)
        config = OptimizeConfig(restarts=5, max_iters=20)
        maximize_resolution(fam.graph, fam.embedding, config)
        assert here == [0, 3]
        assert blas and all(threads == 1 for threads in blas)  # held while restarts run
        here.clear()
        if why == "no fork":
            monkeypatch.delattr(os, "fork")
        elif why == "no openblas":
            monkeypatch.setattr(optimize, "_blas_thread_control", lambda: None)
        elif why == "not linux":
            monkeypatch.setattr(sys, "platform", "darwin")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        if why == "a thread":
            thread.start()
        try:
            maximize_resolution(fam.graph, fam.embedding, config)
        finally:
            stop.set()
            if why == "a thread":
                thread.join(10)
                assert not thread.is_alive()
        assert here == [0, 1, 2, 3, 4]


class TestSweep:
    def test_empty(self):
        assert sweep([], FAST) == []

    def test_rows_in_order_and_csv_roundtrip(self, tmp_path):
        specs = [FamilySpec("frame", None, 2), FamilySpec("htilde", 1, 1)]
        records = sweep(specs, FAST)
        assert [r.family for r in records] == ["frame", "htilde"]
        assert all(r.valid_restarts >= 1 for r in records)
        path = tmp_path / "out.csv"
        write_sweep_csv(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        back = read_sweep_csv(str(path))
        assert [r.best_resolution for r in back] == [r.best_resolution for r in records]

    def test_determinism_modulo_runtime(self, tmp_path):
        specs = [FamilySpec("frame", None, 2)]
        a, b = sweep(specs, FAST), sweep(specs, FAST)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, str(pa))
        write_sweep_csv(b, str(pb))

        def strip_runtime(p):
            rows = [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
            return "\n".join(rows)

        assert strip_runtime(pa) == strip_runtime(pb)

    def test_nested_seed_built_only_when_a_restart_tries_it(self, monkeypatch):
        # the nested drawing is restart 1 + len(extra_seeds); one restart
        # never reaches it, so it is not built, and every row is what
        # maximize_resolution gives with it appended and never tried: on
        # htilde(2,16) the centroid replay collapses and the row fails
        built = []

        def counted(fam):
            built.append(fam.graph.n)
            return layout_nested(fam)

        monkeypatch.setattr(optimize, "layout_nested", counted)
        specs = [FamilySpec("htilde", 1, 2), FamilySpec("htilde", 2, 16)]
        config = OptimizeConfig(restarts=1, max_iters=50, seed=42)
        records = sweep(specs, config)
        assert built == []
        for spec, record in zip(specs, records):
            fam = build_family(spec)
            row_cfg = replace(config, extra_seeds=[layout_nested(fam)])
            try:
                traces = maximize_resolution(fam.graph, fam.embedding, row_cfg).traces
            except optimize.OptimizeFailure as failure:
                traces = failure.traces
            best = max((t.resolution for t in traces if t.valid), default=math.nan)
            assert _bits(record.best_resolution) == _bits(best)
            assert record.valid_restarts == sum(t.valid for t in traces)
        assert math.isnan(records[1].best_resolution) and records[1].valid_restarts == 0
        # a second restart tries it, so it is built, once per row
        sweep(specs[:1], replace(config, restarts=2))
        assert built == [records[0].vertices]


class TestPinnedSweeps:
    """``angres sweep --restarts 2 --seed 42`` on each spec file, every CSV
    column but ``runtime_s`` against ``sweep_rows``, one row per spec line:
    the best resolutions, digit for digit, recorded before the L-BFGS-B loop
    moved into ``angres.optimize``, so a change that moves them fails here
    until their pins are updated on purpose."""

    @pytest.mark.parametrize("lines", [
        # sweep-shallow's rows, where calls with no flipped face skip the
        # penalty pass
        ["htilde 1 2", "htilde 1 4", "htilde 1 8", "htilde 1 16", "htilde 2 4"],
        # the deep rows, where more than 99% of the soft-min weights
        # underflow to zero and the objective takes exp on the others only;
        # the shallow rows above never reach that case.  ROADMAP item 3's
        # step A will change these rows on purpose, and update their pins.
        ["htilde 2 16", "htilde 3 8"],
        # a fan-rooted row: the nested drawing of G(2,8) places the outer
        # triangle elsewhere than the centroid replay, and its restart must
        # optimize that drawing as it is, outer triangle included.  Pinned
        # to the replay's outer triangle instead, it found
        # 9.163858510641276e-05.
        ["g 2 8"],
    ], ids=["shallow", "deep", "g28"])
    def test_rows(self, tmp_path, python_dev, pins, lines):
        spec, out = tmp_path / "spec.txt", tmp_path / "sweep.csv"
        spec.write_text("".join(f"{line}\n" for line in lines))
        python_dev("-m", "angres.cli", "sweep", "--spec", spec, "--restarts", "2", "--seed", "42",
                   "-o", out)
        rows = [row.rsplit(",", 1)[0] for row in out.read_text().splitlines()[1:]]
        assert rows == [pins["sweep_rows"][line] for line in lines]


class TestNestedRestartTraces:
    """sweep-deep's nested restart (restart 1; 3 restarts, seed 42,
    ``max_iters=3000``, ``penalty_init=10``) of each deep row, where most
    objective calls compute again only the faces at the vertices that moved:
    its closing objective, its resolution and every stage's (message, nit,
    nfev), digit for digit.  The sweep CSV pins only the best resolution,
    which a stray bit need not move.  On htilde(2,16) and htilde(2,32) every
    stage exits ABNORMAL without a step, and two such stages end the
    restart.  Every restart runs in this process and counts its objective
    calls and its full angle passes (calls of ``optimize._corner_angles``):
    a restart that runs takes one, at its start, and a deep call that fell
    back to the full pass would add one each; its objective calls are its
    stages' evaluations plus the closing one.  The replays of these rows
    collapse and never run."""

    @pytest.mark.parametrize("c, d", [(2, 16), (2, 32), (3, 8)])
    def test_trace(self, monkeypatch, pins, c, d):
        counts, current = {}, []  # restart -> [objective calls, full passes]
        restart, objective, full = optimize._restart, optimize._objective, optimize._corner_angles

        def counted_restart(r, *args):
            counts[r] = [0, 0]
            current[:] = [r]
            return restart(r, *args)

        def counted_objective(*args):
            counts[current[0]][0] += 1
            return objective(*args)

        def counted_full(*args):
            counts[current[0]][1] += 1
            return full(*args)

        monkeypatch.setattr(optimize, "_worker_count", lambda: 1)
        monkeypatch.setattr(optimize, "_restart", counted_restart)
        monkeypatch.setattr(optimize, "_objective", counted_objective)
        monkeypatch.setattr(optimize, "_corner_angles", counted_full)
        fam = build_family(FamilySpec("htilde", c, d))
        cfg = OptimizeConfig(
            restarts=3, seed=42, max_iters=3000, penalty_init=10.0, extra_seeds=[layout_nested(fam)]
        )
        trace = maximize_resolution(fam.graph, fam.embedding, cfg).traces[1]
        pin = pins["nested_restart"][f"htilde {c} {d}"]
        assert repr(trace.final_objective) == pin["final_objective"]
        assert repr(trace.resolution) == pin["resolution"]
        assert trace.stages == [tuple(stage) for stage in pin["stages"]]
        assert counts == dict(enumerate(pin["counts"]))


# a row without c, a numpy resolution and a failed (nan) row
CSV_RECORDS = [
    SweepRecord("frame", None, 2, 5, 9, 4, 0.5, 2, 2, 1, 0.0125),
    SweepRecord("htilde", 2, 4, 511, 1527, 12, np.float64(0.1) * 3, 16, 16, 42, 12.3456),
    SweepRecord("htilde", 3, 8, 30391, 91167, 24, math.nan, 3, 0, 7, 99.9995),
]


def csv_column_by_column(records) -> str:
    """The sweep CSV writer that listed every column by hand."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["family", "c", "d", "vertices", "edges", "max_degree", "best_resolution",
                "restarts", "valid_restarts", "seed", "runtime_s"])
    for r in records:
        w.writerow([r.family, "" if r.c is None else r.c, r.d, r.vertices, r.edges, r.max_degree,
                    repr(float(r.best_resolution)), r.restarts, r.valid_restarts, r.seed,
                    f"{r.runtime_s:.3f}"])
    return buf.getvalue()


class TestSweepCsv:
    def test_text_matches_column_by_column_writer(self):
        assert sweep_csv_text(CSV_RECORDS) == csv_column_by_column(CSV_RECORDS)
        assert sweep_csv_text([]) == csv_column_by_column([])

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        write_sweep_csv(CSV_RECORDS, str(path))
        back = read_sweep_csv(str(path))
        assert [r.c for r in back] == [None, 2, 3]
        assert repr(back) == repr(
            [SweepRecord(**{**r.__dict__, "best_resolution": float(r.best_resolution),
                            "runtime_s": round(r.runtime_s, 3)}) for r in CSV_RECORDS]
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace(",d,", ",depth,", 1), "sweep CSV has no 'd' column"),
            (lambda t: "", "sweep CSV has no 'family' column"),
            (lambda t: t.replace(",12,", ",", 1), "line 3: 10 fields, expected 11"),
            (lambda t: t.replace(",12,", ",12,0,", 1), "line 3: 12 fields, expected 11"),
            (lambda t: t.replace(",30391,", ",3e4,", 1),
             "line 4: invalid literal for int() with base 10: '3e4'"),
            (lambda t: t.replace(",0.5,", ",half,", 1),
             "line 2: could not convert string to float: 'half'"),
            (lambda t: t + "x" * 200_000 + "\r\n",
             "line 5: field larger than field limit (131072)"),
        ],
        ids=["missing-column", "empty", "short-row", "long-row", "bad-int", "bad-float",
             "huge-field"],
    )
    def test_malformed_csv_one_line_error(self, tmp_path, edit, message):
        path = tmp_path / "bad.csv"
        path.write_text(edit(sweep_csv_text(CSV_RECORDS)), newline="")
        with pytest.raises(StructureError) as exc:
            read_sweep_csv(str(path))
        assert str(exc.value) == message


class TestFit:
    def _records(self, fn, ds=(2, 4, 8, 16)):
        return [
            SweepRecord("htilde", 2, d, 0, 0, 0, fn(d), 4, 4, 0, 0.0) for d in ds
        ]

    def test_exact_power_law(self):
        fit = fit_exponent(self._records(lambda d: d**-1.5), "htilde", 2)
        assert fit.slope == pytest.approx(-1.5)
        assert fit.r2 == pytest.approx(1.0)

    def test_inverse_law(self):
        fit = fit_exponent(self._records(lambda d: 7.0 / d), "htilde", 2)
        assert fit.slope == pytest.approx(-1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponent(self._records(lambda d: 1.0 / d, ds=(2, 4)), "htilde", 2)
        # three rows at one d leave the slope undetermined
        with pytest.raises(ValueError) as exc:
            fit_exponent(self._records(lambda d: 1.0 / d, ds=(4, 4, 4)), "htilde", 2)
        assert str(exc.value) == "need >= 2 distinct d for htilde c=2, got d=4 only"

    def test_non_positive_or_infinite_resolution(self):
        for bad in (0.0, -0.5, math.inf):
            records = self._records(lambda d: bad if d == 4 else 1.0 / d)
            with pytest.raises(ValueError) as exc:
                fit_exponent(records, "htilde", 2)
            assert str(exc.value) == "all resolutions must be positive and finite for a log-log fit"

    def test_filter_mismatch(self):
        with pytest.raises(ValueError):
            fit_exponent(self._records(lambda d: 1.0 / d), "htilde", 3)
