"""Reference implementation of ``angres.geometry.lemma_fuzz``: the loop that
measures every sample's six sub-angles and concatenates the accepted rows,
used to check the candidate-first, batch-reducing version report for report."""

from __future__ import annotations

import math

import numpy as np

from angres.geometry import LEMMA_CONSTANT, MIN_SUBANGLE, FuzzReport, orientation


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
        P = rng.random((m, 6))
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
