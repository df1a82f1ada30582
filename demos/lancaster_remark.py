#!/usr/bin/env python3
"""The worked two-block operator: closure decomposition and non-closedness.

T = diag(-1+i, 1+i) direct-summed with a diagonal tail running over the
rationals in (-1/2, 1/2) times i.  Its essential bild is the exact segment
[-i/2, i/2], the closure of its upper bild is the quadrilateral with corners
(-1, 1), (1, 1), (1/3, 0), (-1/3, 0), and the boundary edge from (-1/3, 0)
to (-1+i) is approached but never attained by finite sections.
"""

import numpy as np

import quatrange as qr

M = qr.remark_operator()

poly = qr.essential_bild(M)
print("essential bild (exact):", poly.tolist())

closure = np.array([(-1.0, 1.0), (1.0, 1.0), (1 / 3, 0.0), (-1 / 3, 0.0)])
print("\nclosure polygon of the upper bild:", closure.tolist())

print("\ninter-convex hull of the essential segment with the exact section bild,")
print("distance to the closure polygon per section size:")
report = qr.lancaster_check(M, sections=[50, 100, 200, 500], k=180, target=closure)
for row, bild in zip(report.rows, report.bilds):
    corner = max(a for a, b in bild.outer_polygon if b == 0.0)
    print(f"  N = {row.N:3d}: distance {row.hausdorff_target:.4f} "
          f"(section bild: {row.n_satellites}-vertex polygon, real corner {corner:.6f})")

print("\nnon-closedness probe on the edge (-1/3, 0) -- (-1, 1):")
probe = qr.nonclosedness_probe(M, [(-1 / 3, 0.0), (-1.0, 1.0)],
                               sections=[50, 100, 200, 500])
for row in probe.rows:
    print(f"  N = {row.N:3d}: residual {row.residual:.6f}  (> 0: edge unattained)")

print("\nsame probe on the attained top edge (-1, 1) -- (1, 1):")
probe_top = qr.nonclosedness_probe(M, [(-1.0, 1.0), (1.0, 1.0)],
                                   sections=[50, 200])
for row in probe_top.rows:
    print(f"  N = {row.N:3d}: residual {row.residual:.2e}  (~ 0: edge attained)")
