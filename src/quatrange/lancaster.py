"""The inter-convex hull and closure decomposition of the numerical range.

The closure of the bild decomposes as the inter-convex hull of the essential
bild with the bild itself,

    iconv(A, B) = { alpha a + (1 - alpha) b : a in A, b in B, 0 <= alpha <= 1 },

a strictly weaker closure than conv(A u B) when B is not convex.  All
verification happens in bild coordinates: the essential polygon is exact by
construction, the other ingredient is a cloud of genuinely attained bild
values of a finite section, and the resulting region is a union of convex
hulls conv(base u {satellite}) handled piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    clip_polygon,
    convex_hull,
    points_in_polygon,
    points_polygon_distance,
    signed_inner_distance,
)
from .essential import ModelOperator, essential_bild, truncate
from .numrange import BildRegion, bild_points, nr_sample, refined_values, upper_bild

__all__ = [
    "IconvRegion",
    "iconv",
    "lancaster_check",
    "LancasterReport",
    "nonclosedness_probe",
    "ProbeReport",
    "hausdorff_union_convex",
]

_DEDUPE_STEP = 2e-3  # satellite grid snap; far below every reported tolerance


@dataclass
class IconvRegion:
    """Union of hulls conv(base u {s}) over the reduced satellite set."""

    base: np.ndarray
    satellites: np.ndarray  # reduced, region-equivalent satellite points
    pieces: list[np.ndarray]

    def contains(self, point, tol: float = 1e-9) -> bool:
        return any(signed_inner_distance(p, point) >= -tol for p in self.pieces)

    def distance_to(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        best = np.full(pts.shape[0], np.inf)
        for piece in self.pieces:
            active = np.flatnonzero(best > 1e-12)
            if active.size == 0:
                break
            best[active] = np.minimum(best[active],
                                      points_polygon_distance(piece, pts[active]))
        return best

    def upper(self) -> "IconvRegion":
        """Pieces clipped to the closed upper half-plane b >= 0."""
        clipped = []
        for piece in self.pieces:
            if len(piece) < 3:
                kept = piece[piece[:, 1] >= -1e-12]
                if len(kept):
                    clipped.append(kept)
                continue
            cut = clip_polygon(piece, (0.0, -1.0), 0.0)
            if len(cut):
                clipped.append(convex_hull(cut) if len(cut) >= 3 else cut)
        return IconvRegion(base=self.base, satellites=self.satellites, pieces=clipped)


def _snap_dedupe(points: np.ndarray, step: float) -> np.ndarray:
    keys = np.round(points / step).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return points[np.sort(idx)]


def iconv(P: np.ndarray, S) -> IconvRegion:
    """Inter-convex hull of a convex polygon with a finite satellite list.

    For convex P the pointwise inter-convex hull equals the union over
    satellites s of conv(P u {s}).  Satellites lying in the hull generated by
    an already-kept satellite add nothing and are dropped; the reduction is
    region-exact up to the snap grid.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 2)
    if len(P) == 0:
        raise ValueError("base polygon must be non-empty")
    sats = np.asarray(S, dtype=float).reshape(-1, 2)
    if len(sats):
        sats = _snap_dedupe(sats, _DEDUPE_STEP)
        dist = points_polygon_distance(P, sats)
        sats = sats[dist > 1e-12]
        order = np.lexsort((sats[:, 1], sats[:, 0], -points_polygon_distance(P, sats)))
        sats = sats[order]
    kept: list[np.ndarray] = []
    pieces: list[np.ndarray] = []
    alive = np.ones(len(sats), dtype=bool)
    for i in range(len(sats)):
        if not alive[i]:
            continue
        kept.append(sats[i])
        piece = convex_hull(np.vstack([P, sats[i][None, :]]))
        pieces.append(piece)
        if i + 1 < len(sats):
            rest = np.flatnonzero(alive[i + 1:]) + (i + 1)
            if rest.size:
                covered = points_polygon_distance(piece, sats[rest]) <= 1e-12
                alive[rest[covered]] = False
    if not pieces:
        pieces = [P]
    return IconvRegion(base=P, satellites=np.array(kept).reshape(-1, 2), pieces=pieces)


# -- distances between a piece union and a convex polygon -----------------------------

def _polygon_grid(poly: np.ndarray, res: float) -> np.ndarray:
    """Grid points of a convex polygon plus a dense boundary sampling."""
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    xs = np.arange(lo[0], hi[0] + res, res)
    ys = np.arange(lo[1], hi[1] + res, res)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = [grid[points_in_polygon(poly, grid)]]
    ring = np.vstack([poly, poly[:1]]) if len(poly) >= 3 else poly
    for i in range(len(ring) - 1):
        a, b = ring[i], ring[i + 1]
        steps = max(2, int(math.ceil(np.linalg.norm(b - a) / res)) + 1)
        t = np.linspace(0.0, 1.0, steps)
        pts.append(a[None, :] + t[:, None] * (b - a)[None, :])
    return np.vstack(pts)


def hausdorff_union_convex(region: IconvRegion, Q: np.ndarray, res: float = 0.005) -> float:
    """Conservative Hausdorff distance between a piece union and a convex polygon.

    The direction union -> Q is exact (vertex-attained); the direction
    Q -> union is evaluated on a grid of resolution res and padded by the
    grid covering radius, so the result is an upper bound.
    """
    Q = convex_hull(np.asarray(Q, dtype=float)) if len(Q) >= 3 else np.asarray(Q, dtype=float)
    d1 = 0.0
    for piece in region.pieces:
        d1 = max(d1, float(points_polygon_distance(Q, piece).max()))
    probes = _polygon_grid(Q, res)
    d2 = float(region.distance_to(probes).max()) if len(probes) else 0.0
    return max(d1, d2 + res / math.sqrt(2.0))


# -- the closure decomposition check ---------------------------------------------------

@dataclass
class LancasterRow:
    N: int
    hausdorff_outer: float
    hausdorff_target: float | None
    n_satellites: int
    gap: float


@dataclass
class LancasterReport:
    rows: list[LancasterRow]
    essential_polygon: np.ndarray
    regions: list[IconvRegion] = field(repr=False, default_factory=list)
    bilds: list[BildRegion] = field(repr=False, default_factory=list)

    def final(self) -> LancasterRow:
        return self.rows[-1]


def lancaster_check(M: ModelOperator, sections, m: int = 200000, k: int = 360,
                    seed: int = 0, target: np.ndarray | None = None,
                    grid_res: float = 0.005) -> LancasterReport:
    """Compare iconv(essential bild, section bild samples) with reference regions.

    For each section size N the region L_N = iconv(B_e, satellites) is built
    from the full (both-sign) essential polygon and satellites that are
    genuinely attained bild values of the truncation: the random inner cloud
    of its upper bild plus deterministic basis/pair values.  Reported per N:
    the distance from the upper clip of L_N to the truncation's outer support
    polygon, and to an optional analytic target polygon.
    """
    base = essential_bild(M)
    if target is not None:
        target = convex_hull(np.asarray(target, dtype=float))
    rows: list[LancasterRow] = []
    regions: list[IconvRegion] = []
    bilds: list[BildRegion] = []
    for idx, N in enumerate(sections):
        T = truncate(M, int(N)).matrix
        region_bild = upper_bild(T, m=m, k=k, seed=seed + idx)
        exact = bild_points(refined_values(T))
        satellites = np.vstack([region_bild.inner_points, exact])
        L = iconv(base, satellites)
        Lup = L.upper()
        # the outer polygon includes the support-unreachable under-region, so
        # its distance is structural; a coarse grid is enough for the report
        d_outer = hausdorff_union_convex(Lup, region_bild.outer_polygon,
                                         res=max(grid_res, 0.02))
        d_target = None
        if target is not None:
            d_target = hausdorff_union_convex(Lup, np.asarray(target, dtype=float),
                                              res=grid_res)
        rows.append(LancasterRow(N=int(N), hausdorff_outer=d_outer,
                                 hausdorff_target=d_target,
                                 n_satellites=len(L.satellites),
                                 gap=region_bild.hausdorff_gap))
        regions.append(Lup)
        bilds.append(region_bild)
    return LancasterReport(rows=rows, essential_polygon=base, regions=regions,
                           bilds=bilds)


# -- non-closedness probe ----------------------------------------------------------------

@dataclass
class ProbeRow:
    N: int
    residual: float
    attained: float  # best supporting-functional value among edge-facing samples


@dataclass
class ProbeReport:
    edge: np.ndarray
    normal: np.ndarray
    level: float
    rows: list[ProbeRow]


def nonclosedness_probe(M: ModelOperator, edge, sections, m: int = 20000,
                        seed: int = 0, interior_margin: float = 0.05) -> ProbeReport:
    """Residuals between a boundary edge and the attained bild of finite sections.

    The probe projects sampled bild values onto the edge and keeps those whose
    projection falls in the interior window [margin, 1 - margin]; the residual
    is the edge's supporting-functional level minus the best such sample.  An
    edge attained at finite sections drives the residual to rounding level; a
    non-attained edge keeps it strictly positive at every N.
    """
    edge = np.asarray(edge, dtype=float).reshape(2, 2)
    direction = edge[1] - edge[0]
    length = float(np.linalg.norm(direction))
    if length <= 0:
        raise ValueError("edge must have positive length")
    direction = direction / length
    normal = np.array([direction[1], -direction[0]])
    centroid = essential_bild(M).mean(axis=0)
    level = float(normal @ edge[0])
    if normal @ centroid > level:
        normal = -normal
        level = -level
    rows: list[ProbeRow] = []
    for idx, N in enumerate(sections):
        T = truncate(M, int(N)).matrix
        pts = np.vstack([
            bild_points(nr_sample(T, m, seed + idx)),
            bild_points(refined_values(T)),
        ])
        t = (pts - edge[0]) @ direction / length
        window = (t >= interior_margin) & (t <= 1.0 - interior_margin)
        if not np.any(window):
            rows.append(ProbeRow(N=int(N), residual=float("inf"), attained=-float("inf")))
            continue
        attained = float((pts[window] @ normal).max())
        rows.append(ProbeRow(N=int(N), residual=level - attained, attained=attained))
    return ProbeReport(edge=edge, normal=normal, level=level, rows=rows)
