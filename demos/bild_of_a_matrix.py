#!/usr/bin/env python3
"""Upper bild of a small quaternionic matrix, from both directions.

The matrix has a dense 2x2 block and a diagonal third entry.  The inner
route samples values <Tx, x> of the block at random unit vectors and maps
them to bild coordinates (Re q, |Im q|); the diagonal entry's class is exact,
and upper_bild composes both into one polygon of attained values.  The outer
route bounds the region by its support function, one Hermitian eigenvalue
problem per direction for the block and a closed form for the diagonal
entry.  A unit vector attaining each problem's top eigenvalue has its value
on the support line, and those boundary points join the inner polygon.  The
gap between the two routes is the certificate of what remains unresolved.
"""

import numpy as np

import quatrange as qr
from quatrange import Quaternion

# a 3x3 matrix with a little of everything: a real entry, two imaginary
# classes and one off-diagonal coupling, which makes the leading 2x2 block dense
T = qr.QMatrix.from_quaternions([
    [Quaternion(1.0), Quaternion(0.0, 0.5, 0.0, 0.0), Quaternion()],
    [Quaternion(), Quaternion(-0.5, 0.0, 1.0, 0.0), Quaternion()],
    [Quaternion(), Quaternion(), Quaternion(0.2, 0.0, 0.0, 0.8)],
])

print("matrix size:", T.n, " dense block:", T.block_split(),
      " Frobenius norm:", round(T.frobenius(), 4))

region = qr.upper_bild(T, m=50000, k=360, seed=1)
outer = region.outer_polygon
print(f"\nouter support polygon: {len(outer)} vertices from 360 half-planes,")
print(f"  a in [{outer[:, 0].min():+.4f}, {outer[:, 0].max():+.4f}], "
      f"b up to {outer[:, 1].max():.4f}")

hull = region.inner_hull
print("inner polygon from 50000 sampled block values, the block's boundary points")
print(f"  and the diagonal entry's class: {len(hull)} vertices,")
print(f"  a in [{hull[:, 0].min():+.4f}, {hull[:, 0].max():+.4f}], "
      f"b up to {hull[:, 1].max():.4f}")

print(f"\nhausdorff gap between the hull and the outer polygon: "
      f"{region.hausdorff_gap:.4f}")
print(f"support-direction deficiency of the inner hull: {region.support_gap:.1e}")

# the attained real values form an interval strictly inside the outer width
section = qr.real_section(T, seed=1)
print(f"\nattained real section: [{section.lo:.4f}, {section.hi:.4f}]")
print(f"outer polygon width at b = 0: "
      f"[{region.outer_polygon[:, 0].min():.4f}, {region.outer_polygon[:, 0].max():.4f}]")

# every vertex of the attained polygon respects every support half-plane;
# those on a support line meet it up to rounding
dirs = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
slack = float((region.inner_points @ dirs.T - region.offsets[None, :]).max())
print(f"\nworst support violation over the polygon's vertices: {slack:.2e} "
      f"(rounding level expected)")
