"""Planar angles and the interior-point angle-ratio inequality.

The six sub-angles of a triangle split by an interior point follow a cyclic
subscript convention: at each triangle vertex, sub-angle 1 is the one adjacent
to the next vertex in the cycle A -> B -> C -> A.  This is the assignment
under which the sine-ratio product

    (sin a2 / sin a1) * (sin b2 / sin b1) * (sin c2 / sin c1)

equals 1 for every genuine interior point, which pins the convention down.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

Point = tuple[float, float]

LEMMA_CONSTANT = math.pi * math.pi / 4.0
# Below this sub-angle, double-precision angle extraction is less accurate
# than the 1e-9 identity tolerance, so lemma_fuzz rejects such samples.
MIN_SUBANGLE = 1e-5


class DegenerateInputError(ValueError):
    """Coincident or collinear points where a nondegenerate figure is required."""


def orientation(a, b, c) -> float:
    """Twice the signed area of triangle (a, b, c); > 0 for counterclockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def angle_at(a, b, c) -> float:
    """Non-reflex angle between rays b->a and b->c, in [0, pi]."""
    ux, uy = a[0] - b[0], a[1] - b[1]
    vx, vy = c[0] - b[0], c[1] - b[1]
    if (ux == 0.0 and uy == 0.0) or (vx == 0.0 and vy == 0.0):
        raise DegenerateInputError("angle_at: coincident points")
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(abs(cross), dot)


@dataclass
class LemmaAngles:
    """Sub-angles (radians) of a triangle ABC split by an interior point D."""

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float


def lemma_angles(A: Point, B: Point, C: Point, D: Point) -> LemmaAngles:
    """Split the angles of triangle ABC by the rays to an interior point D.

    D must be strictly inside (three strict same-sign orientation tests).
    """
    oa = orientation(A, B, D)
    ob = orientation(B, C, D)
    oc = orientation(C, A, D)
    tri = orientation(A, B, C)
    if tri == 0.0:
        raise DegenerateInputError("triangle ABC is degenerate")
    s = 1.0 if tri > 0.0 else -1.0
    if not (s * oa > 0.0 and s * ob > 0.0 and s * oc > 0.0):
        raise DegenerateInputError("D is not strictly inside triangle ABC")
    return LemmaAngles(
        a1=angle_at(B, A, D),
        a2=angle_at(D, A, C),
        b1=angle_at(C, B, D),
        b2=angle_at(D, B, A),
        c1=angle_at(A, C, D),
        c2=angle_at(D, C, B),
    )


@dataclass
class LemmaBoundResult:
    applicable: bool
    lhs: float
    rhs: float
    holds: bool


def lemma_bound_check(angles: LemmaAngles) -> LemmaBoundResult:
    """Check min(b2/b1, c2/c1) <= (pi^2/4) sqrt(a1/a2).

    Applicable only when the full angle at A is at most pi/2 and a2 >= a1.
    A zero a2, b1 or c1, which ``lemma_angles`` returns when ``atan2``
    underflows, raises ``DegenerateInputError``.
    """
    if angles.a2 == 0.0 or angles.b1 == 0.0 or angles.c1 == 0.0:
        raise DegenerateInputError("lemma_bound_check: zero sub-angle")
    applicable = (angles.a1 + angles.a2 <= math.pi / 2.0) and (angles.a2 >= angles.a1)
    lhs = min(angles.b2 / angles.b1, angles.c2 / angles.c1)
    rhs = LEMMA_CONSTANT * math.sqrt(angles.a1 / angles.a2)
    return LemmaBoundResult(applicable, lhs, rhs, lhs <= rhs)


def sine_product(angles: LemmaAngles) -> float:
    """(sin a2 / sin a1)(sin b2 / sin b1)(sin c2 / sin c1); 1 for any genuine
    interior-point configuration under the package's subscript convention."""
    parts = [angles.a1, angles.a2, angles.b1, angles.b2, angles.c1, angles.c2]
    sines = [math.sin(x) for x in parts]
    if any(s == 0.0 for s in sines):
        raise DegenerateInputError("sine_product: zero sine in sub-angle")
    return (sines[1] / sines[0]) * (sines[3] / sines[2]) * (sines[5] / sines[4])


@dataclass
class FuzzReport:
    n: int
    bound_holds: int
    worst_ratio: float          # max over cases of lhs/rhs (<= 1 means all hold)
    max_sine_product_error: float
    max_angle_sum_error: float


def _batch_angle(ax, ay, bx, by, cx, cy):
    ux, uy = ax - bx, ay - by
    vx, vy = cx - bx, cy - by
    return np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy)


# Rows per evaluation chunk, chosen by timing 2^13..2^15 on a 2-core x86-64
# with 2 MiB of L2 per core: a chunk's temporaries (128 KiB at full length,
# most of them far shorter) stay near one core's cache, and the few dozen
# NumPy calls per chunk stay cheap next to the arithmetic.  A chunk is also
# the unit of memory: its samples, 9 * 8 bytes a row (1.2 MB at 2^14), are
# drawn only when it is sent to a worker and freed when it lands.
_CHUNK_ROWS = 1 << 14


def _worker_count() -> int:
    """The number of cores this process may run on."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _fuzz_rows(P: np.ndarray, w: np.ndarray):
    """Per-row results for samples ``P`` (k, 6) and interior-point weights
    ``w`` (k, 3): for each accepted row, in row order, whether the bound
    holds, lhs/rhs, |sine product - 1| and |angle sum - pi|.

    The A-angle test runs first; the other four sub-angles and the
    orientation are computed for its candidates only.
    """
    ax, ay, bx, by, cx, cy = P[:, 0], P[:, 1], P[:, 2], P[:, 3], P[:, 4], P[:, 5]
    dx = w[:, 0] * ax + w[:, 1] * bx + w[:, 2] * cx
    dy = w[:, 0] * ay + w[:, 1] * by + w[:, 2] * cy
    a1 = _batch_angle(bx, by, ax, ay, dx, dy)
    a2 = _batch_angle(dx, dy, ax, ay, cx, cy)
    cand = np.nonzero((a1 + a2 <= math.pi / 2.0) & (a2 >= a1))[0]
    ax, ay, bx, by, cx, cy = (P[cand, k] for k in range(6))
    dx, dy, a1, a2 = dx[cand], dy[cand], a1[cand], a2[cand]
    b1 = _batch_angle(cx, cy, bx, by, dx, dy)
    b2 = _batch_angle(dx, dy, bx, by, ax, ay)
    c1 = _batch_angle(ax, ay, cx, cy, dx, dy)
    c2 = _batch_angle(dx, dy, cx, cy, bx, by)
    ok = (
        (a1 >= MIN_SUBANGLE)
        & (a2 >= MIN_SUBANGLE)
        & (b1 >= MIN_SUBANGLE)
        & (b2 >= MIN_SUBANGLE)
        & (c1 >= MIN_SUBANGLE)
        & (c2 >= MIN_SUBANGLE)
        & (np.abs(orientation((ax, ay), (bx, by), (cx, cy))) > 1e-9)
    )
    idx = np.nonzero(ok)[0]
    a1, a2, b1, b2, c1, c2 = a1[idx], a2[idx], b1[idx], b2[idx], c1[idx], c2[idx]
    lhs = np.minimum(b2 / b1, c2 / c1)
    rhs = LEMMA_CONSTANT * np.sqrt(a1 / a2)
    sp = (np.sin(a2) / np.sin(a1)) * (np.sin(b2) / np.sin(b1)) * (np.sin(c2) / np.sin(c1))
    return lhs <= rhs, lhs / rhs, np.abs(sp - 1.0), np.abs(a1 + a2 + b1 + b2 + c1 + c2 - math.pi)


def _stream_at(state: dict, ahead: int) -> np.random.Generator:
    """A generator ``ahead`` 64-bit draws past the PCG64 ``state``; PCG64
    jumps there exactly, without drawing what it skips."""
    bits = np.random.PCG64(0)  # the seed is overwritten by ``state``
    bits.state = state
    return np.random.Generator(bits.advance(ahead))


def _fuzz_chunk(state: dict, lo: int, w: np.ndarray):
    """``_fuzz_rows`` on rows ``lo`` .. ``lo + len(w)`` of a batch whose
    uniforms start at the PCG64 ``state``: one double is one draw, so the
    chunk's uniforms start ``6 * lo`` draws in."""
    P = _stream_at(state, 6 * lo).random((w.shape[0], 6))
    return _fuzz_rows(P, w)


def lemma_fuzz(n: int, seed: int) -> FuzzReport:
    """Randomized check of the bound and the sine-product identity.

    Samples random triangles with a uniform interior point, conditioned on
    angle(BAC) <= pi/2, a2 >= a1, and all sub-angles >= ``MIN_SUBANGLE``.
    Returns counts over exactly ``n`` accepted configurations.

    The samples are those of ``rng = np.random.default_rng(seed)`` drawing,
    per batch of ``m`` rows, ``rng.random((m, 6))`` and then
    ``rng.dirichlet((1, 1, 1), size=m)``, but each batch streams in chunks of
    ``_CHUNK_ROWS`` rows spread over every core the process may run on.  The
    calling thread draws a chunk's Dirichlet rows, which take a variable
    number of draws, from a generator started ``6 * m`` draws into the
    batch; the worker draws the chunk's uniforms from its own copy of the
    stream, jumped to the chunk's first row, and evaluates the chunk in a
    copy of the caller's context (so ``np.errstate`` holds there).  At most
    one chunk more than there are workers is in flight.  Chunks land in
    order and are cut to the rows still needed and reduced at once (a
    count and three maxima); once ``n`` rows have landed no further chunk is
    sent.  So memory is bounded by the chunks in flight whatever ``n`` is,
    and the report depends on neither the chunk size nor the number of
    cores.
    """
    for name, value in (("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    n, seed = int(n), int(seed)  # PCG64.advance takes no numpy integer product
    if n <= 0:
        raise ValueError("n must be positive")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    state = np.random.default_rng(seed).bit_generator.state
    workers = _worker_count()
    pool = ThreadPoolExecutor(workers)
    holds = 0
    worst = []
    sp_err = []
    sum_err = []
    total = 0
    try:
        while total < n:
            # a bounded batch size keeps the sampled stream that of the
            # batch-drawing loop; the batch itself is never held
            m = min(max(4 * (n - total), 1024), 1 << 18)
            dirichlet = _stream_at(state, 6 * m)
            in_flight = deque()
            lo = 0
            while total < n and (lo < m or in_flight):
                while lo < m and len(in_flight) <= workers:
                    w = dirichlet.dirichlet((1.0, 1.0, 1.0), size=min(_CHUNK_ROWS, m - lo))
                    run = contextvars.copy_context().run
                    in_flight.append(pool.submit(run, _fuzz_chunk, state, lo, w))
                    lo += w.shape[0]
                hold, ratio, sp, sums = (col[: n - total] for col in in_flight.popleft().result())
                if hold.size == 0:
                    continue
                holds += int(hold.sum())
                worst.append(ratio.max())
                sp_err.append(sp.max())
                sum_err.append(sums.max())
                total += hold.size
            # the next batch starts where this one's Dirichlet rows ended
            state = dirichlet.bit_generator.state
    finally:
        # joins the workers, so a later fork sees one thread; a chunk sent
        # before the last rows landed still runs, so which chunks run does
        # not depend on timing, and only an error cancels the queued ones
        pool.shutdown(cancel_futures=total < n)
    return FuzzReport(
        n=total,
        bound_holds=holds,
        worst_ratio=float(np.max(worst)),
        max_sine_product_error=float(np.max(sp_err)),
        max_angle_sum_error=float(np.max(sum_err)),
    )
