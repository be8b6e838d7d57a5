"""Reference implementation of the optimizer objective, used to check that
``angres.optimize._objective`` gives the same value and gradient bit for bit.

This is the straightforward form: (3F, 3) corner and (F, 3) face index
arrays, ``scipy.special.logsumexp`` for the soft-min, and six
``np.add.at`` scatters for the gradient.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from angres.graphs import Embedding, LabeledGraph, internal_triangles


def internal_corner_index(graph: LabeledGraph, emb: Embedding) -> np.ndarray:
    """(F*3, 3) array of (a, b, c) per corner: angle measured at b between
    rays b->a and b->c, over all internal (counterclockwise) face corners."""
    tri = internal_triangles(graph, emb)
    # corner i of face (t0, t1, t2) is (t[i-1], t[i], t[i+1])
    return tri[:, [[2, 0, 1], [0, 1, 2], [1, 2, 0]]].reshape(-1, 3)


def corner_angles(P: np.ndarray, idx: np.ndarray):
    """Signed corner angles and the intermediates needed for the gradient."""
    A, B, C = P[idx[:, 0]], P[idx[:, 1]], P[idx[:, 2]]
    e1 = A - B
    e2 = C - B
    g = e2[:, 0] * e1[:, 1] - e2[:, 1] * e1[:, 0]
    h = e1[:, 0] * e2[:, 0] + e1[:, 1] * e2[:, 1]
    theta = np.arctan2(g, h)
    return theta, e1, e2, g, h


def objective(x, n, free, idx, fidx, sharp, weight, pinned, origin=None, scale=None):
    """Negative soft-min of corner angles plus orientation penalty; returns
    (value, gradient over free coordinates).

    With ``origin``/``scale`` the variables are per-vertex rescaled offsets
    (x_v = origin_v + scale_v * y_v)."""
    P = pinned.copy()
    if origin is None:
        P[free] = x.reshape(-1, 2)
    else:
        P[free] = origin + scale[:, None] * x.reshape(-1, 2)
    theta, e1, e2, g, h = corner_angles(P, idx)

    z = -sharp * theta
    lse = logsumexp(z)
    softmin = -lse / sharp
    wgt = np.exp(z - lse)  # softmax weights, sum to 1

    # d(softmin)/d(theta_i) = wgt_i; objective is -softmin
    denom = np.maximum(g * g + h * h, 1e-300)  # coincident points give 0/0
    coef = wgt / denom
    dA = np.stack([(-e2[:, 1]) * h - g * e2[:, 0], e2[:, 0] * h - g * e2[:, 1]], axis=1)
    dC = np.stack([e1[:, 1] * h - g * e1[:, 0], (-e1[:, 0]) * h - g * e1[:, 1]], axis=1)
    dA *= coef[:, None]
    dC *= coef[:, None]
    dB = -(dA + dC)

    grad = np.zeros_like(P)
    np.add.at(grad, idx[:, 0], -dA)
    np.add.at(grad, idx[:, 1], -dB)
    np.add.at(grad, idx[:, 2], -dC)
    value = -softmin

    # orientation penalty: sum of relu(-area)^2 over internal faces
    Fa, Fb, Fc = P[fidx[:, 0]], P[fidx[:, 1]], P[fidx[:, 2]]
    area = 0.5 * (
        (Fb[:, 0] - Fa[:, 0]) * (Fc[:, 1] - Fa[:, 1])
        - (Fb[:, 1] - Fa[:, 1]) * (Fc[:, 0] - Fa[:, 0])
    )
    neg = np.minimum(area, 0.0)
    value += weight * float(np.sum(neg * neg))
    pc = (2.0 * weight) * neg
    ga = np.stack([Fb[:, 1] - Fc[:, 1], Fc[:, 0] - Fb[:, 0]], axis=1) * 0.5
    gb = np.stack([Fc[:, 1] - Fa[:, 1], Fa[:, 0] - Fc[:, 0]], axis=1) * 0.5
    gc = np.stack([Fa[:, 1] - Fb[:, 1], Fb[:, 0] - Fa[:, 0]], axis=1) * 0.5
    np.add.at(grad, fidx[:, 0], pc[:, None] * ga)
    np.add.at(grad, fidx[:, 1], pc[:, None] * gb)
    np.add.at(grad, fidx[:, 2], pc[:, None] * gc)

    g_free = grad[free]
    if origin is not None:
        g_free = scale[:, None] * g_free
    return value, g_free.ravel()
