"""Reference implementation of ``metrics.frame_profile``: each composite
angle is a generator ``sum`` of consecutive root gaps, read through the
``ugap``/``vgap`` closures.  Used to check the running-sum version field for
field."""

from __future__ import annotations

import math

import numpy as np

from angres.families import FrameRoles
from angres.graphs import StructureError
from angres.metrics import FrameProfile


def _root_gaps(roles: FrameRoles, coords: np.ndarray) -> tuple[list[float], list[int]]:
    """Consecutive-edge gaps at the frame root in canonical rotation order
    u_d .. u_1 v_1 .. v_d; entry i is the angle between edges i and i+1."""
    w = roles.root
    seq = list(reversed(roles.u)) + list(roles.v)
    vec = coords[seq] - coords[w]
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    gaps = []
    for i in range(len(seq) - 1):
        diff = (ang[i] - ang[i + 1]) % (2.0 * math.pi)
        gaps.append(float(diff))
    return gaps, seq


def frame_profile(roles: FrameRoles, coords: np.ndarray) -> FrameProfile:
    """Fan-angle diagnostics at the root of a frame drawing.

    Composite angles are sums of consecutive rotation gaps at w (additive by
    construction), not chord angles.  The drawing must be valid; gaps are
    taken in the canonical rotation order.
    """
    if roles is None:
        raise StructureError("frame_profile needs frame roles")
    d = len(roles.u)
    gaps, _ = _root_gaps(roles, coords)
    # gap index: 0..d-2 between u_d..u_1, d-1 between u_1 and v_1,
    # d-1+i between v_i and v_{i+1} (i = 1..d-1 at positions d..2d-2)
    def vgap(i: int) -> float:  # angle(v_i w v_{i+1})
        return gaps[d - 1 + i]

    def ugap(k: int) -> float:  # angle(u_{k+1} w u_k)
        return gaps[d - 1 - k]

    alpha1: dict[int, float] = {}
    alpha2: dict[int, float] = {}
    alpha3: dict[int, float] = {}
    r: dict[int, float] = {}
    for k in range(2, d + 1):
        alpha1[k] = vgap(k - 1)
        alpha3[k] = sum(vgap(i) for i in range(1, k - 1))
        # u_k around through u_{k-1}..u_1 and v_1..v_{k-1}
        alpha2[k] = sum(ugap(j) for j in range(1, k)) + gaps[d - 1] + sum(
            vgap(i) for i in range(1, k - 1)
        )
        r[k] = alpha3[k] / alpha1[k] if alpha1[k] != 0.0 else math.inf
    apex_v = sum(vgap(i) for i in range(1, d))
    apex_total = sum(gaps)
    return FrameProfile(alpha1, alpha2, alpha3, r, apex_v, apex_total)
