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
    """
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


def lemma_fuzz(n: int, seed: int) -> FuzzReport:
    """Randomized check of the bound and the sine-product identity.

    Samples random triangles with a uniform interior point, conditioned on
    angle(BAC) <= pi/2, a2 >= a1, and all sub-angles >= ``MIN_SUBANGLE``.
    Returns counts over exactly ``n`` accepted configurations.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    acc_lhs = []
    acc_rhs = []
    acc_sp = []
    acc_sum = []
    total = 0
    while total < n:
        # a bounded batch keeps peak memory flat; one 4n-row batch is about
        # 1 GB at n = 1e6
        m = min(max(4 * (n - total), 1024), 1 << 18)
        P = rng.random((m, 8))
        ax, ay, bx, by, cx, cy = P[:, 0], P[:, 1], P[:, 2], P[:, 3], P[:, 4], P[:, 5]
        w = rng.dirichlet((1.0, 1.0, 1.0), size=m)
        dx = w[:, 0] * ax + w[:, 1] * bx + w[:, 2] * cx
        dy = w[:, 0] * ay + w[:, 1] * by + w[:, 2] * cy
        a1 = _batch_angle(bx, by, ax, ay, dx, dy)
        a2 = _batch_angle(dx, dy, ax, ay, cx, cy)
        b1 = _batch_angle(cx, cy, bx, by, dx, dy)
        b2 = _batch_angle(dx, dy, bx, by, ax, ay)
        c1 = _batch_angle(ax, ay, cx, cy, dx, dy)
        c2 = _batch_angle(dx, dy, cx, cy, bx, by)
        sub = np.stack([a1, a2, b1, b2, c1, c2], axis=1)
        ok = (
            (a1 + a2 <= math.pi / 2.0)
            & (a2 >= a1)
            & (sub.min(axis=1) >= MIN_SUBANGLE)
            & (np.abs(orientation((ax, ay), (bx, by), (cx, cy))) > 1e-9)
        )
        if not ok.any():
            continue
        take = min(int(ok.sum()), n - total)
        idx = np.nonzero(ok)[0][:take]
        lhs = np.minimum(b2[idx] / b1[idx], c2[idx] / c1[idx])
        rhs = LEMMA_CONSTANT * np.sqrt(a1[idx] / a2[idx])
        sp = (
            (np.sin(a2[idx]) / np.sin(a1[idx]))
            * (np.sin(b2[idx]) / np.sin(b1[idx]))
            * (np.sin(c2[idx]) / np.sin(c1[idx]))
        )
        acc_lhs.append(lhs)
        acc_rhs.append(rhs)
        acc_sp.append(np.abs(sp - 1.0))
        acc_sum.append(np.abs(sub[idx].sum(axis=1) - math.pi))
        total += take
    lhs = np.concatenate(acc_lhs)
    rhs = np.concatenate(acc_rhs)
    sp_err = np.concatenate(acc_sp)
    sum_err = np.concatenate(acc_sum)
    return FuzzReport(
        n=total,
        bound_holds=int((lhs <= rhs).sum()),
        worst_ratio=float((lhs / rhs).max()),
        max_sine_product_error=float(sp_err.max()),
        max_angle_sum_error=float(sum_err.max()),
    )
