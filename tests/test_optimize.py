import functools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

import objective_oracle
from angres.families import FamilySpec, build_frame, build_G, build_Htilde
from angres.graphs import Embedding, LabeledGraph
from angres.layout import layout_frame_fan, layout_nested
from angres.metrics import angular_resolution, validate_drawing
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
    write_sweep_csv,
)
from angres.optimize import _Instance, _logsumexp, _objective

FAST = OptimizeConfig(restarts=4, max_iters=400, seed=7)


def triangle():
    g = LabeledGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g, Embedding([[1, 2], [2, 0], [0, 1]], (0, 1, 2))


class TestConfig:
    def test_defaults_valid(self):
        OptimizeConfig().validate()

    def test_bad_restarts(self):
        with pytest.raises(ValueError):
            OptimizeConfig(restarts=0).validate()

    def test_bad_penalty_init(self):
        with pytest.raises(ValueError):
            OptimizeConfig(penalty_init=0.0).validate()


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
    @pytest.mark.parametrize("sharp", [5.0, 1e3, 1e7])
    @pytest.mark.parametrize("weight", [0.0, 10.0])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_bit_identical(self, name, sharp, weight, jitter):
        g, emb, coords = _oracle_case(name)
        rng = np.random.default_rng(len(name))
        idx = objective_oracle.internal_corner_index(g, emb)
        if jitter:
            # moves of up to a third of the shortest incident edge flip some faces
            length = np.hypot(*(coords[idx[:, 0]] - coords[idx[:, 1]]).T)
            near = np.full(g.n, np.inf)
            np.minimum.at(near, idx[:, 1], length)
            coords = coords + rng.normal(0.0, jitter, coords.shape) * near[:, None]
        inst = _Instance(g, emb)
        free = inst.free
        a, b, c = (coords[idx[::3, i]] for i in range(3))
        area = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        assert (area < 0).any() == bool(jitter)  # penalty active exactly when jittered

        want = objective_oracle.objective(
            coords[free].ravel(), g.n, free, idx, idx[::3], sharp, weight, coords
        )
        got = objective_and_gradient(g, emb, coords, sharp, weight)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])

        # the rescaled variables the restarts optimize over
        origin = coords[free]
        scale = rng.uniform(0.5, 2.0, free.size) * 1e-3
        y = rng.normal(0.0, 1.0, 2 * free.size)
        want = objective_oracle.objective(
            y, g.n, free, idx, idx[::3], sharp, weight, coords, origin, scale
        )
        got = _objective(y, inst, np.array(coords.T), sharp, weight, np.array(origin.T), scale)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])

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
        ],
    )
    def test_logsumexp_matches_scipy(self, a):
        a = np.array(a)
        with np.errstate(over="ignore"):  # scipy's a - max(a) overflows on [1e308, -1e308]
            want = logsumexp(a)
        assert _bits(_logsumexp(a)) == _bits(want)

    def test_logsumexp_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for size in [1, 2, 3, 7, 8, 9, 127, 128, 129, 1000, 4099]:
            for spread in [1e-3, 1.0, 1e3, 1e7]:
                a = rng.normal(0.0, spread, size)
                a[rng.integers(size, size=size // 3)] = a.max()  # tied maxima
                assert _bits(_logsumexp(a)) == _bits(logsumexp(a))


class TestMaximize:
    def test_triangle_optimum(self):
        g, emb = triangle()
        result = maximize_resolution(g, emb, OptimizeConfig(restarts=2, max_iters=50))
        assert result.resolution == pytest.approx(math.pi / 3, abs=1e-3)

    def test_k4_bounds(self):
        fam = build_Htilde(1, 1)  # contains K4-level structure; use plain K4 instead
        g = LabeledGraph(4)
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(i, j)
        emb = Embedding([[2, 3, 1], [0, 3, 2], [1, 3, 0], [0, 2, 1]], (0, 2, 1))
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

    def test_traces_cover_restarts(self):
        fam = build_frame(2)
        result = maximize_resolution(fam.graph, fam.embedding, FAST)
        assert [t.index for t in result.traces] == list(range(FAST.restarts))


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

    def test_filter_mismatch(self):
        with pytest.raises(ValueError):
            fit_exponent(self._records(lambda d: 1.0 / d), "htilde", 3)
