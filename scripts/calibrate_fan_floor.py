#!/usr/bin/env python3
"""Measure the resolution * d floors of the constructive layouts.

The frozen constants FAN_RESOLUTION_FLOOR and HTILDE1_RESOLUTION_FLOOR in
angres.layout were set from this script's output (with a small safety
margin below the measured minima).  Re-run after any change to the fan
geometry and re-freeze if the minima move.
"""

import argparse

from angres.families import build_frame, build_Htilde
from angres.layout import layout_nested
from angres.metrics import Triangulation


def sweep(name, build, d_max):
    floor = float("inf")
    floor_d = None
    doubles = {}
    d = 1
    while d <= d_max:
        fam = build(d)
        coords = layout_nested(fam)
        mesh = Triangulation(fam.graph, fam.embedding)
        viols = mesh.violations(coords)
        if viols:
            print(f"{name} d={d}: INVALID ({len(viols)} violations)")
        scaled = mesh.resolution(coords) * d
        if scaled < floor:
            floor, floor_d = scaled, d
        if d & (d - 1) == 0:
            doubles[d] = scaled
        d += 1
    print(f"{name}: floor resolution*d = {floor:.6f} at d={floor_d} (d <= {d_max})")
    keys = sorted(doubles)
    for a, b in zip(keys, keys[1:]):
        band = abs(doubles[b] - doubles[a]) / doubles[a] * 100.0
        print(f"  {a:4d} -> {b:4d}: {doubles[a]:.5f} -> {doubles[b]:.5f}  ({band:.1f}%)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frame-dmax", type=int, default=128)
    ap.add_argument("--htilde-dmax", type=int, default=64)
    args = ap.parse_args()
    sweep("frame fan", build_frame, args.frame_dmax)
    sweep("three-level assembly", lambda d: build_Htilde(1, d), args.htilde_dmax)


if __name__ == "__main__":
    main()
