import csv
import functools
import io
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

import lbfgsb_oracle
import objective_oracle
from angres import graphs, layout, optimize
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
from angres.optimize import _lse, _objective, _quiet

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

    def test_bad_max_iters(self):
        with pytest.raises(ValueError, match="^max_iters must be >= 1, got 0$"):
            OptimizeConfig(max_iters=0).validate()

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            OptimizeConfig(restarts=2, seed=-1).validate()

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
    and c columns of every corner, the view ``corners.ravel()`` when no face
    term follows, or of fewer corners; then corner 0's columns of the faces
    whose penalty factor is nonzero in the oracle's arithmetic at the (n, 2)
    drawing ``P``, or of every face when a coordinate is beyond 1e100 or not
    finite."""
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
    assert faces.size or not index.flags.owndata  # a view, not a copy
    return "dense", bool(faces.size)


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

    @pytest.mark.parametrize("name", ["frame4", "g12", "htilde12", "htilde24", "htilde216"])
    @pytest.mark.parametrize("sharp", [5.0, 1e3, 1e7, "stage 3", "stage 12"])
    @pytest.mark.parametrize("weight", [0.0, 10.0])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_bit_identical(self, monkeypatch, name, sharp, weight, jitter):
        g, emb, coords = _oracle_case(name)
        rng = np.random.default_rng(len(name))
        idx = objective_oracle.internal_corner_index(g, emb)
        mesh = Triangulation(g, emb)
        free = mesh.free
        staged = isinstance(sharp, str)
        if staged:
            # a restart's sharpness at that stage, over the drawing's smallest corner angle
            theta = optimize._corner_angles(coords[:, 0], coords[:, 1], mesh.corners)[0]
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
            z = -sharp * optimize._corner_angles(coords[:, 0], coords[:, 1], mesh.corners)[0]
            assert np.count_nonzero(z - logsumexp(z) < -745.1332191019412) > 0.99 * z.size
            assert selection == ("sparse", bool(jitter and weight))

        # the rescaled variables the restarts optimize over
        origin = coords[free]
        scale = rng.uniform(0.5, 2.0, free.size) * 1e-3
        y = rng.normal(0.0, 1.0, 2 * free.size)
        want = objective_oracle.objective(
            y, g.n, free, idx, idx[::3], sharp, weight, coords, origin, scale
        )
        got = _objective(y, mesh, np.array(coords.T), sharp, weight, np.array(origin.T), scale)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])

    @pytest.mark.parametrize("name", ["g12", "htilde24", "htilde216"])
    @pytest.mark.parametrize("bad", [1e150, 1e200, np.nan])
    @pytest.mark.parametrize("sharp", [5.0, 1e7])
    @pytest.mark.parametrize("weight", [0.0, 10.0])
    def test_bit_identical_with_a_wide_or_nan_coordinate(self, monkeypatch, name, bad, sharp, weight):
        # beyond 1e100 a corner's factors overflow and its dropped term would
        # be 0 * inf = nan, not zero; a nan spreads to every weight and makes
        # the soft-min nan.  Both keep every term, and a nan soft-min takes
        # exp on every corner.
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

    def test_bit_identical_along_restarts(self, monkeypatch):
        """Every objective call of two short optimizations against the
        oracle; together they take the dense selection and the sparse one,
        flipped faces included."""
        monkeypatch.setattr(optimize, "_worker_count", lambda: 1)  # every restart in this process
        objective = optimize._objective
        scatters = _record_scatters(monkeypatch)
        selections = []
        for d in (4, 16):
            fam = build_Htilde(2, d)
            g, emb = fam.graph, fam.embedding
            idx = objective_oracle.internal_corner_index(g, emb)

            def checked_objective(y, mesh, pinned, sharp, weight, origin, scale):
                got = objective(y, mesh, pinned, sharp, weight, origin, scale)
                want = objective_oracle.objective(
                    y, g.n, mesh.free, idx, idx[::3], sharp, weight, pinned.T, origin.T, scale
                )
                assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
                assert scatters[-1] is scatters[-2]  # one index per call
                P = pinned.T.copy()
                P[mesh.free] = origin.T + scale[:, None] * y.reshape(-1, 2)
                selections.append(_selection(scatters[-1], mesh.corners, P, idx, weight))
                return got

            monkeypatch.setattr(optimize, "_objective", checked_objective)
            config = OptimizeConfig(
                restarts=3, max_iters=60, seed=1, penalty_init=10.0, extra_seeds=[layout_nested(fam)]
            )
            maximize_resolution(g, emb, config)
        assert len(scatters) == 2 * len(selections)  # one index per call
        assert {kind for kind, _ in selections} == {"sparse", "dense"}
        assert ("sparse", True) in selections  # flipped faces selected too

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
            got = _lse(a)
        assert _bits(got) == _bits(want)

    def test_logsumexp_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for size in [1, 2, 3, 7, 8, 9, 127, 128, 129, 1000, 4099]:
            for spread in [1e-3, 1.0, 1e3, 1e7]:
                a = rng.normal(0.0, spread, size)
                a[rng.integers(size, size=size // 3)] = a.max()  # tied maxima
                with _quiet():
                    got = _lse(a)
                assert _bits(got) == _bits(logsumexp(a))


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

    def test_no_free_vertex(self):
        # K3 is its own outer face: every restart reports its start as is,
        # with no L-BFGS-B stage run
        g, _ = triangle()
        emb = Embedding.from_rows([[1, 2], [2, 0], [0, 1]], (0, 2, 1))
        result = maximize_resolution(g, emb, OptimizeConfig(restarts=3))
        assert result.resolution == 1.0471975511965974
        assert len(result.traces) == 3
        for trace in result.traces:
            assert trace.resolution == trace.start_resolution == 1.0471975511965974
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
        # so the elimination's sequence goes straight to the replay plan,
        # whose bounded-face check (base_uses=1) is the only one
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
        # so does a seed drawing without a sequence: the elimination's goes
        # straight to the replay plan
        layout_seed_any(fam.graph, fam.embedding)
        assert calls == [1, 1]

    def test_triangulation_that_is_no_3tree_fails_as_verification(self):
        g = LabeledGraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1),
                             (1, 5), (2, 5), (3, 5), (4, 5)])  # the octahedron
        rows = [[2, 3, 4, 1], [0, 4, 5, 2], [1, 5, 3, 0], [4, 0, 2, 5], [0, 3, 5, 1], [4, 3, 2, 1]]
        emb = Embedding.from_rows(rows, (0, 2, 1))
        assert Triangulation(g, emb).faces.shape == (7, 3)
        with pytest.raises(NotPlanar3TreeError) as want:
            graphs.verify_planar_3tree(g, keep=emb.outer_face)
        with pytest.raises(NotPlanar3TreeError) as got:
            maximize_resolution(g, emb, FAST)
        assert str(got.value) == str(want.value)

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


def _blas_threads() -> list[int]:
    return [get() for get, _, _ in optimize._openblas_thread_controls()]


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

    def test_unpicklable_exception_in_a_child(self, monkeypatch):
        def fail(r):
            if r == 1:  # OptimizeFailure takes its traces as a second argument
                raise optimize.OptimizeFailure("no", [])

        with pytest.raises(RuntimeError, match="^restart 1 raised OptimizeFailure: no$"):
            self._failing(monkeypatch, fail)()
        _assert_no_child()

    def test_child_that_dies_without_a_result(self, monkeypatch):
        def fail(r):
            if r == 4:
                os._exit(3)

        want = r"^the worker of restarts \[1, 4\] exited with code 3$"
        with pytest.raises(RuntimeError, match=want):
            self._failing(monkeypatch, fail)()
        _assert_no_child()

    def test_interrupt_kills_the_children(self, monkeypatch):
        import time

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

    @pytest.mark.parametrize("why", ["no fork", "no openblas", "a thread"])
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
        assert blas[0] and all(set(threads) == {1} for threads in blas)  # held while restarts run
        here.clear()
        if why == "no fork":
            monkeypatch.delattr(os, "fork")
        elif why == "no openblas":
            monkeypatch.setattr(optimize, "_openblas_thread_controls", lambda: [])
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
