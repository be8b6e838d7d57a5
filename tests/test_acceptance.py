"""Acceptance gate: one test per release criterion, one printed verdict each.

Each test prints ``[criterion N] PASS|FAIL -- summary`` with capture
suspended, so the verdict lines always appear in the run log, then asserts.  Criterion 6 runs a full optimizer sweep and dominates the runtime
of this module (target well under 30 minutes on one core).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from angres.families import (
    FamilySpec,
    build_G,
    build_Htilde,
    build_frame,
    epsilon_to_c,
    vertex_count_G,
)
from angres.geometry import lemma_fuzz
from angres.graphs import max_degree, verify_planar_3tree
from angres.layout import (
    FAN_RESOLUTION_FLOOR,
    HTILDE1_RESOLUTION_FLOOR,
    layout_frame_fan,
    layout_nested,
)
from angres.metrics import (
    angular_resolution,
    claim_quantities,
    frame_profile,
    telescoping_product,
    validate_drawing,
)
from angres.optimize import (
    OptimizeConfig,
    fit_exponent,
    maximize_resolution,
    objective_and_gradient,
    sweep,
    write_sweep_csv,
)

TOL = 1e-9


def report(capsys, n: int, ok: bool, summary: str) -> None:
    # capsys.disabled() suspends pytest's fd-level capture so the verdict
    # line always reaches the run log, pass or fail
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} -- {summary}", flush=True)


def test_criterion_1_lemma_fuzz(capsys):
    t0 = time.perf_counter()
    rep = lemma_fuzz(100_000, seed=20240817)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.bound_holds == rep.n == 100_000
        and rep.worst_ratio <= 1.0
        and rep.max_sine_product_error <= TOL
        and elapsed < 10.0
    )
    report(
        capsys,
        1,
        ok,
        f"bound {rep.bound_holds}/{rep.n}, sine-product err "
        f"{rep.max_sine_product_error:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_family_structure(capsys):
    t0 = time.perf_counter()
    notes = []
    for d in range(1, 9):
        fam = build_frame(d)
        g = fam.graph
        if len(g.edges) != 3 * g.n - 6 or max_degree(g) != 2 * d:
            notes.append(f"frame d={d}")
        verify_planar_3tree(g, keep=fam.embedding.outer_face)
    for c in range(1, 4):
        for d in range(1, 9):
            gfam = build_G(c, d)
            g = gfam.graph
            if len(g.edges) != 3 * g.n - 6:
                notes.append(f"G c={c} d={d} edges")
            if max_degree(g) > 4 * d + 13:
                notes.append(f"G c={c} d={d} degree")
            if g.n != vertex_count_G(c, d):
                notes.append(f"G c={c} d={d} count")
            expect = (2 * d + 3) if c == 1 else (
                (2 * d + 3) + 2 * (d - 1) * (vertex_count_G(c - 1, d) - 3)
            )
            if g.n != expect:
                notes.append(f"G c={c} d={d} recurrence")
            verify_planar_3tree(g, keep=gfam.embedding.outer_face)
            hfam = build_Htilde(c, d)
            h = hfam.graph
            if len(h.edges) != 3 * h.n - 6:
                notes.append(f"Htilde c={c} d={d} edges")
            if max_degree(h) > 8 * d + 31:
                notes.append(f"Htilde c={c} d={d} degree")
            verify_planar_3tree(h, keep=hfam.embedding.outer_face)
    elapsed = time.perf_counter() - t0
    ok = not notes and elapsed < 30.0
    report(capsys, 2, ok, f"c<=3, d<=8 all structural invariants, {elapsed:.2f}s"
           + (f"; failed: {notes}" if notes else ""))
    assert ok


def test_criterion_3_layout_floors(capsys):
    notes = []
    for name, build, floor in (
        ("fan", build_frame, FAN_RESOLUTION_FLOOR),
        ("htilde1", lambda d: build_Htilde(1, d), HTILDE1_RESOLUTION_FLOOR),
    ):
        for d in range(1, 65):
            fam = build(d)
            coords = layout_nested(fam)
            if validate_drawing(fam.graph, fam.embedding, coords):
                notes.append(f"{name} d={d} invalid")
                continue
            res = angular_resolution(fam.graph, coords).resolution
            if res * d < floor:
                notes.append(f"{name} d={d} res*d={res * d:.4f}")
        scaled = {}
        for d in (1, 2, 4, 8, 16, 32, 64):
            fam = build(d)
            coords = layout_nested(fam)
            scaled[d] = angular_resolution(fam.graph, coords).resolution * d
        for d in (1, 2, 4, 8, 16, 32):
            lo, hi = sorted((scaled[d], scaled[2 * d]))
            if (hi - lo) / lo >= 0.25:
                notes.append(f"{name} band {d}->{2 * d}: {(hi - lo) / lo:.2%}")
    ok = not notes
    report(capsys, 3, ok, "fan and htilde1 floors + <25% doubling bands, d=1..64"
           + (f"; failed: {notes}" if notes else ""))
    assert ok


def _frame_drawings(d: int):
    """Valid frame drawings of three provenances: the constructive fan,
    jittered fans, and optimizer outputs."""
    fam, coords = layout_frame_fan(d)
    out = [(fam, coords)]
    rng = np.random.default_rng(d)
    scale = np.abs(coords).max()
    for _ in range(4):
        for mag in (0.02, 0.005, 0.001):
            jit = coords + rng.normal(0.0, mag * scale, coords.shape)
            if not validate_drawing(fam.graph, fam.embedding, jit):
                out.append((fam, jit))
                break
    res = maximize_resolution(
        fam.graph,
        fam.embedding,
        OptimizeConfig(restarts=3, max_iters=400, seed=d),
    )
    out.append((fam, res.coords))
    return out


def test_criterion_4_proof_identities(capsys):
    notes = []
    checked = 0
    for d in (4, 8, 16):
        for fam, coords in _frame_drawings(d):
            checked += 1
            roles = fam.roles
            prof = frame_profile(roles, coords)
            w = roles.root
            seq = list(reversed(roles.u)) + list(roles.v)
            vec = coords[seq] - coords[w]
            ang = np.arctan2(vec[:, 1], vec[:, 0])
            pos = {v: i for i, v in enumerate(seq)}

            def turn(a: int, b: int) -> float:
                # CCW turn at w from edge (w,b) to edge (w,a), in [0, 2pi)
                return float((ang[pos[a]] - ang[pos[b]]) % (2.0 * math.pi))

            for k in range(2, d + 1):
                direct1 = turn(roles.v[k - 2], roles.v[k - 1])
                direct2 = turn(roles.u[k - 1], roles.v[k - 2])
                if abs(prof.alpha1[k] - direct1) > TOL or abs(prof.alpha2[k] - direct2) > TOL:
                    notes.append(f"additivity d={d} k={k}")
            lhs, rhs = telescoping_product(prof)
            if abs(lhs - rhs) > TOL:
                notes.append(f"telescoping d={d}: {lhs!r} vs {rhs!r}")
            if not claim_quantities(roles, coords).averaging_bound_holds:
                notes.append(f"averaging bound d={d}")
    ok = not notes
    report(capsys, 4, ok, f"additivity/telescoping/averaging on {checked} drawings, d in 4,8,16"
           + (f"; failed: {notes}" if notes else ""))
    assert ok


def test_criterion_5_optimizer_sanity(tmp_path, capsys):
    notes = []
    # (a) bare triangle (the 1-frame): optimum pi/3
    tri = build_frame(1)
    res = maximize_resolution(tri.graph, tri.embedding, OptimizeConfig(restarts=1, max_iters=50))
    if abs(res.resolution - math.pi / 3.0) > 1e-3:
        notes.append(f"triangle {res.resolution}")
    # (b) gradient vs central differences on random F_4 drawings
    fam, coords = layout_frame_fan(4)
    rng = np.random.default_rng(7)
    free = [v for v in range(fam.graph.n) if v not in set(fam.embedding.outer_face)]
    worst = 0.0
    for _ in range(5):
        pts = coords + rng.normal(0.0, 0.05, coords.shape)
        _, grad = objective_and_gradient(fam.graph, fam.embedding, pts, sharpness=9.0,
                                         penalty_weight=2.0)
        h = 1e-6
        for i, v in enumerate(free):
            for axis in range(2):
                hi = pts.copy()
                hi[v, axis] += h
                lo = pts.copy()
                lo[v, axis] -= h
                fh, _ = objective_and_gradient(fam.graph, fam.embedding, hi, 9.0, 2.0)
                fl, _ = objective_and_gradient(fam.graph, fam.embedding, lo, 9.0, 2.0)
                fd = (fh - fl) / (2.0 * h)
                denom = max(abs(fd), abs(grad[2 * i + axis]), 1e-8)
                worst = max(worst, abs(fd - grad[2 * i + axis]) / denom)
    if worst > 1e-5:
        notes.append(f"gradient rel err {worst:.2e}")
    # (c) every OptimizeResult re-validates and re-measures identically
    for d in (2, 4):
        fam = build_frame(d)
        r = maximize_resolution(fam.graph, fam.embedding,
                                OptimizeConfig(restarts=3, max_iters=300, seed=11))
        if validate_drawing(fam.graph, fam.embedding, r.coords):
            notes.append(f"revalidate d={d}")
        remeasured = angular_resolution(fam.graph, r.coords).resolution
        if abs(remeasured - r.resolution) > TOL:
            notes.append(f"remeasure d={d}")
    # (d) fixed seed -> bit-identical CSV (runtime_s column excluded)
    specs = [FamilySpec("frame", None, d) for d in (2, 3)]
    cfg = OptimizeConfig(restarts=4, max_iters=300, seed=3)
    payloads = []
    for run in range(2):
        path = tmp_path / f"sweep{run}.csv"
        write_sweep_csv(sweep(specs, cfg), str(path))
        rows = path.read_text().splitlines()
        payloads.append([",".join(r.split(",")[:-1]) for r in rows])
    if payloads[0] != payloads[1]:
        notes.append("csv determinism")
    ok = not notes
    report(capsys, 5, ok, f"triangle/gradient (rel err {worst:.1e})/revalidate/deterministic CSV"
           + (f"; failed: {notes}" if notes else ""))
    assert ok


@pytest.fixture(scope="module")
def criterion_6_sweep():
    """Criterion 6's grid, swept once for the trend and the row pins: its
    records and the seconds the sweep took."""
    t0 = time.perf_counter()
    cfg = OptimizeConfig(restarts=16, seed=42, max_iters=3000, penalty_init=10.0)
    specs = (
        [FamilySpec("htilde", 1, d) for d in (2, 4, 8, 16)]
        + [FamilySpec("htilde", 2, d) for d in (4, 8, 16, 32)]
        + [FamilySpec("htilde", 3, d) for d in (4, 8)]
    )
    records = sweep(specs, cfg)
    return records, time.perf_counter() - t0


def test_criterion_6_empirical_trend(tmp_path, capsys, criterion_6_sweep):
    t0 = time.perf_counter()
    records, swept = criterion_6_sweep
    write_sweep_csv(records, str(tmp_path / "trend.csv"))
    best = {(r.c, r.d): r.best_resolution for r in records}
    notes = []
    if any(math.isnan(v) for v in best.values()):
        notes.append(f"failed rows: {[k for k, v in best.items() if math.isnan(v)]}")
    fit1 = fit_exponent(records, "htilde", 1)
    fit2 = fit_exponent(records, "htilde", 2)
    if not (-1.3 <= fit1.slope <= -0.8):
        notes.append(f"c=1 slope {fit1.slope:.3f}")
    if not (fit2.slope <= -1.2):
        notes.append(f"c=2 slope {fit2.slope:.3f}")
    for d in (4, 8, 16):
        if not best[(2, d)] < best[(1, d)]:
            notes.append(f"c=2 !< c=1 at d={d}")
    for d in (4, 8):
        if not best[(3, d)] <= best[(2, d)]:
            notes.append(f"c=3 !<= c=2 at d={d}")
    elapsed = swept + time.perf_counter() - t0
    ok = not notes
    report(
        capsys,
        6,
        ok,
        f"slopes c=1 {fit1.slope:.3f}, c=2 {fit2.slope:.3f}; "
        f"ordering c=3<=c=2<c=1; {elapsed / 60.0:.1f} min"
        + (f"; failed: {notes}" if notes else ""),
    )
    assert ok


def test_criterion_6_rows(criterion_6_sweep, pins):
    # every row's best resolution, digit for digit, and its valid restarts,
    # so a change that moves a reported row fails here until its pin is
    # updated on purpose
    records, _ = criterion_6_sweep
    got = {
        f"htilde {r.c} {r.d}": [repr(float(r.best_resolution)), r.valid_restarts] for r in records
    }
    assert got == pins["criterion_6_rows"]


def test_criterion_7_epsilon_mapping(capsys):
    notes = []
    c, expo = epsilon_to_c(0.5)
    if (c, expo) != (2, 0.5):
        notes.append(f"eps=1/2 -> ({c}, {expo})")
    rng = np.random.default_rng(123)
    for eps in rng.uniform(1e-6, 0.5, size=100):
        c, expo = epsilon_to_c(float(eps))
        if not (c >= 2 and expo == 1.0 / (2.0 * 3.0 ** (c - 2)) and expo <= eps):
            notes.append(f"eps={eps}")
            break
    ok = not notes
    report(capsys, 7, ok, "exponent 1/(2*3^(c-2)) <= eps for 100 seeded eps, exact at 1/2"
           + (f"; failed: {notes}" if notes else ""))
    assert ok
