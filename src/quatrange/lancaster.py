"""The inter-convex hull and closure decomposition of the numerical range.

The closure of the bild decomposes as the inter-convex hull of the essential
bild with the bild itself,

    iconv(A, B) = { alpha a + (1 - alpha) b : a in A, b in B, 0 <= alpha <= 1 },

a strictly weaker closure than conv(A u B) when B is not convex.  All
verification happens in bild coordinates: the essential polygon is exact by
construction.  The upper bild of a finite section is convex, so the other
ingredient is one convex polygon Q of attained values inside it, composed
from the section's dense block and its diagonal tail (numrange.upper_bild;
exact for a diagonal section).  For two convex sets the
inter-convex hull is their convex hull (iconv_polygon), so each Lancaster
region is one convex polygon and its Hausdorff distances are exact
(geometry.hausdorff_convex).  iconv keeps the union of convex pieces for a
finite satellite cloud, whose union is not convex in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    clip_polygon,
    convex_hull,
    hausdorff_convex,
    points_in_polygon,
    points_polygon_distance,
    signed_inner_distance,
)
from .essential import ModelOperator, essential_bild, truncate
from .numrange import BildRegion, upper_bild

__all__ = [
    "IconvRegion",
    "iconv",
    "iconv_polygon",
    "lancaster_check",
    "LancasterReport",
    "nonclosedness_probe",
    "ProbeReport",
    "hausdorff_union_convex",
]

_DEDUPE_STEP = 2e-3  # satellite grid snap; far below every reported tolerance
_PROBE_MARGIN = 0.05  # the probe window is [margin, 1 - margin] along the edge


@dataclass
class IconvRegion:
    """Union of convex pieces: conv(base u {s}) per kept satellite, or conv(base u Q)."""

    base: np.ndarray
    satellites: np.ndarray  # kept satellite points, or the vertices of the polygon
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
            if len(piece) == 2 and piece[:, 1].min() < -1e-12 and piece[:, 1].max() > 0.0:
                # a segment crossing b = 0: its lower end moves to the crossing
                lo, hi = piece[np.argsort(piece[:, 1])]
                t = lo[1] / (lo[1] - hi[1])
                piece = np.array([(lo[0] + t * (hi[0] - lo[0]), 0.0), hi])
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


def iconv_polygon(P: np.ndarray, Q: np.ndarray) -> IconvRegion:
    """Inter-convex hull of a convex polygon P with a convex polygon Q, exactly.

    For convex P and Q, iconv(P, Q) = conv(P u Q), returned as one piece.
    Every segment from P to Q lies in conv(P u Q).  Conversely, a point of
    conv(P u Q) is sum s_i p_i + sum t_j q_j with p_i in P, q_j in Q and
    nonnegative weights summing to one.  With alpha = sum s_i, the point is
    alpha p + (1 - alpha) q for p = sum s_i p_i / alpha in P and
    q = sum t_j q_j / (1 - alpha) in Q, by convexity (alpha = 0 or 1 leaves
    one part alone), so it lies on a segment from P to Q.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 2)
    Q = np.asarray(Q, dtype=float).reshape(-1, 2)
    if len(P) == 0 or len(Q) == 0:
        raise ValueError("both polygons must be non-empty")
    return IconvRegion(base=P, satellites=Q, pieces=[convex_hull(np.vstack([P, Q]))])


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


def _section_list(sections) -> list:
    """The section sizes as a list, which must not be empty."""
    sections = list(sections)
    if not sections:
        raise ValueError("sections must name at least one section size")
    return sections


def lancaster_check(M: ModelOperator, sections, m: int = 200000, k: int = 360,
                    seed: int = 0, target: np.ndarray | None = None) -> LancasterReport:
    """Compare iconv(essential bild, section bild) with reference regions.

    For each section size N the region is L_N = iconv_polygon(B_e, Q) =
    conv(B_e u Q), cut to b >= 0: one convex polygon.  B_e is the full
    (both-sign) essential polygon and Q = numrange.upper_bild(T, m, k,
    seed + index).inner_hull, a convex polygon of attained values inside the
    upper bild of the truncation T; n_satellites counts its vertices and gap
    is the section region's hausdorff_gap.

    * A diagonal section (every section of an operator with a diagonal
      block) has its bild in closed form, numrange.diagonal_bild, checked
      exact on the k-angle grid.  Q is that polygon, so L_N is exact: no
      vector is sampled, m and seed do not matter, and gap is the 1e-12
      rounding pad between Q and its outer polygon.
    * Any other section composes Q from its dense block, sampled m times,
      and its diagonal tail's exact polygon (upper_bild).

    Reported per N: the Hausdorff distance from L_N to the truncation's
    outer support polygon, and to an optional analytic target polygon.  All
    three are convex polygons, so both distances are exact
    (geometry.hausdorff_convex), attained at a vertex.  An empty sections
    or a target with a non-finite vertex raises ValueError.
    """
    sections = _section_list(sections)
    if target is not None:
        target = np.asarray(target, dtype=float)
        if not np.isfinite(target).all():
            raise ValueError("target vertices must be finite")
        target = convex_hull(target)
    base = essential_bild(M)
    rows: list[LancasterRow] = []
    regions: list[IconvRegion] = []
    bilds: list[BildRegion] = []
    for idx, N in enumerate(sections):
        region_bild = upper_bild(truncate(M, int(N)), m=m, k=k, seed=seed + idx)
        Q = region_bild.inner_hull
        Lup = iconv_polygon(base, Q).upper()
        L = Lup.pieces[0]
        d_outer = hausdorff_convex(L, region_bild.outer_polygon)
        d_target = None if target is None else hausdorff_convex(L, target)
        rows.append(LancasterRow(N=int(N), hausdorff_outer=d_outer,
                                 hausdorff_target=d_target,
                                 n_satellites=len(Q),
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
    attained: float  # best supporting-functional value over the window's bild points


@dataclass
class ProbeReport:
    edge: np.ndarray
    normal: np.ndarray
    level: float
    rows: list[ProbeRow]


def nonclosedness_probe(M: ModelOperator, edge, sections, m: int = 20000,
                        seed: int = 0) -> ProbeReport:
    """Residuals between a boundary edge and the attained bild of finite sections.

    The probe looks at the bild points whose projection onto the edge falls
    in the interior window [0.05, 0.95]; the residual is the edge's
    supporting-functional level minus the best such point, and inf when the
    window holds none.  An edge attained at finite sections drives the
    residual to rounding level; a non-attained edge keeps it strictly
    positive at every N.

    Each section's polygon of attained values,
    numrange.upper_bild(T, m, seed=seed + index).inner_hull, is clipped to
    the window strip and the best point is a vertex of the clipped polygon.
    A diagonal section's polygon is its exact upper bild, so m and seed do
    not matter there; any other section samples its dense block m times,
    and its residual can only overstate the exact one.  An empty sections
    or an edge with a non-finite endpoint raises ValueError.
    """
    sections = _section_list(sections)
    edge = np.asarray(edge, dtype=float).reshape(2, 2)
    if not np.isfinite(edge).all():
        raise ValueError("edge endpoints must be finite")
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
    start = float(direction @ edge[0])
    rows: list[ProbeRow] = []
    for idx, N in enumerate(sections):
        Q = upper_bild(truncate(M, int(N)), m=m, seed=seed + idx).inner_hull
        strip = clip_polygon(Q, -direction, -(start + _PROBE_MARGIN * length))
        pts = clip_polygon(strip, direction, start + (1.0 - _PROBE_MARGIN) * length)
        if len(pts) == 0:
            rows.append(ProbeRow(N=int(N), residual=float("inf"), attained=-float("inf")))
            continue
        attained = float((pts @ normal).max())
        rows.append(ProbeRow(N=int(N), residual=level - attained, attained=attained))
    return ProbeReport(edge=edge, normal=normal, level=level, rows=rows)
