"""Planar geometry: hulls, half-plane intersections, Hausdorff distances, an all-pairs near test.

Polygons are (V, 2) float arrays in counterclockwise order starting from the
lexicographically smallest vertex.  Degenerate polygons with one (point) or
two (segment) vertices are legal everywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "convex_hull",
    "halfplane_intersection",
    "upper_support_polygon",
    "clip_polygon",
    "signed_inner_distance",
    "points_polygon_distance",
    "points_in_polygon",
    "hausdorff_convex",
    "minkowski_sum",
    "near_any",
    "DegenerateRegionError",
]

class DegenerateRegionError(RuntimeError):
    """Raised when a half-plane intersection collapses to the empty set."""


def _canonical(vertices: np.ndarray) -> np.ndarray:
    """Rotate a CCW vertex list to start at the lexicographic minimum."""
    if len(vertices) <= 1:
        return vertices
    start = np.lexsort((vertices[:, 1], vertices[:, 0]))[0]
    return np.roll(vertices, -start, axis=0)


def _prune_interior(pts: np.ndarray) -> np.ndarray:
    """Drop points strictly inside the hull of eight directional extremes.

    Exact hull-preserving reduction (Akl-Toussaint): the extreme points span a
    convex polygon contained in the true hull, so its strict interior holds no
    hull vertex.
    """
    if len(pts) <= 16:
        return pts
    dirs = np.array([(1, 0), (0, 1), (1, 1), (1, -1),
                     (-1, 0), (0, -1), (-1, -1), (-1, 1)], dtype=float)
    proj = pts @ dirs.T
    corners = pts[np.unique(np.argmax(proj, axis=0))]
    if len(corners) < 3:
        return pts
    order = np.argsort(np.arctan2(corners[:, 1] - corners[:, 1].mean(),
                                  corners[:, 0] - corners[:, 0].mean()))
    ring = corners[order]
    d = np.roll(ring, -1, axis=0) - ring
    if np.any((d * d).sum(axis=1) < 1e-300):
        return pts
    cross = (d[None, :, 0] * (pts[:, 1:2] - ring[None, :, 1])
             - d[None, :, 1] * (pts[:, 0:1] - ring[None, :, 0]))
    orient = 1.0 if _ring_area(ring) > 0 else -1.0
    inside = np.all(orient * cross > 1e-12, axis=1)
    return pts[~inside]


def _ring_area(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _monotone_chain(pts: np.ndarray) -> np.ndarray:
    """Hull of lexicographically sorted distinct points (np.unique order), at least three."""

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] == 0:
        return pts[:1]
    if hull.shape[0] <= 2:
        uniq = np.unique(hull, axis=0)
        return uniq
    return _canonical(hull)


def convex_hull(points) -> np.ndarray:
    """Convex hull via the monotone chain, collinear points dropped."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("convex hull of an empty point set")
    pts = _prune_interior(pts)
    pts = np.unique(pts, axis=0)  # lexicographic sort + dedupe
    if pts.shape[0] <= 2:
        return pts
    # on one vertical or horizontal line with finite differences every
    # cross product of the chain is 0, so it keeps the first and last point
    if np.isfinite(pts[-1] - pts[0]).all() and (
            np.all(pts[:, 0] == pts[0, 0]) or np.all(pts[:, 1] == pts[0, 1])):
        return pts[[0, -1]]
    return _monotone_chain(pts)


def clip_polygon(poly: np.ndarray, normal, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by normal . p <= offset.

    Each vertex is kept where it lies inside, and followed by the meeting
    point of its outgoing edge with the line where that edge crosses it.
    """
    if len(poly) == 0:
        return poly
    n = np.asarray(normal, dtype=float)
    vals = poly @ n - offset
    if np.all(vals <= 0.0):
        return poly
    if np.all(vals > 0.0):
        return poly[:0]
    nxt, vnext = np.roll(poly, -1, axis=0), np.roll(vals, -1)
    inside = vals <= 0.0
    cross = inside != (vnext <= 0.0)
    # edges that do not cross may divide by zero; their points are dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        t = vals / (vals - vnext)
        meet = poly + t[:, None] * (nxt - poly)
    return np.stack([poly, meet], axis=1)[np.stack([inside, cross], axis=1)]


def _dedupe_ring(poly: np.ndarray, tol: float) -> np.ndarray:
    if len(poly) <= 1:
        return poly
    keep = [poly[0]]
    for p in poly[1:]:
        if np.max(np.abs(p - keep[-1])) > tol:
            keep.append(p)
    while len(keep) > 1 and np.max(np.abs(keep[0] - keep[-1])) <= tol:
        keep.pop()
    return np.array(keep)


def halfplane_intersection(constraints, bound: float) -> np.ndarray:
    """Intersect half-planes n . p <= c within a centered square of half-width bound.

    ``constraints`` is a sequence of (nx, ny, c).  The result is re-hulled to a
    canonical CCW polygon; collapses to a segment or point when the feasible
    set is lower-dimensional.  Raises DegenerateRegionError when empty.
    """
    r = float(bound)
    poly = np.array([(-r, -r), (r, -r), (r, r), (-r, r)], dtype=float)
    for nx, ny, c in constraints:
        poly = clip_polygon(poly, (nx, ny), float(c))
        if len(poly) == 0:
            raise DegenerateRegionError("half-plane intersection is empty")
    poly = _dedupe_ring(poly, 1e-12 * (1.0 + r))
    return convex_hull(poly) if len(poly) >= 3 else _canonical(np.unique(poly, axis=0))


def upper_support_polygon(thetas, offsets) -> np.ndarray:
    """Intersection of a cos(t) + b sin(t) <= h(t) with b >= 0, in closed form.

    The angles are sorted, 0 = t_0 < ... < t_{k-1} = pi, and every line must
    touch the convex set the offsets support.  Then the polygon is the hull
    of (h_0, 0), the meeting points of consecutive lines and (-h_{k-1}, 0):
    along the boundary b rises while t < pi/2 and falls after, so each
    meeting point lies above a touching point and b >= 0 cuts only the two
    end lines.  Meeting points are clamped to b >= 0 against rounding.
    Vertices within 1.5e-12 (1 + max |h|) of the previous kept one merge:
    this folds the rounding-sized arc of meeting points at each corner and
    collapses a rounding-thin region to a point or a segment, as the
    clipping reference ``halfplane_intersection`` does.
    """
    t = np.asarray(thetas, dtype=float)
    h = np.asarray(offsets, dtype=float)
    c, s = np.cos(t), np.sin(t)
    det = c[:-1] * s[1:] - s[:-1] * c[1:]  # sin(t_{j+1} - t_j) > 0
    meet = np.stack([(h[:-1] * s[1:] - h[1:] * s[:-1]) / det,
                     np.maximum((c[:-1] * h[1:] - c[1:] * h[:-1]) / det, 0.0)], axis=1)
    poly = convex_hull(np.vstack([(h[0], 0.0), meet, (-h[-1], 0.0)]))
    poly = _dedupe_ring(poly, 1.5e-12 * (1.0 + float(np.abs(h).max())))
    return poly if len(poly) >= 3 else _canonical(np.unique(poly, axis=0))


def _segment_distances(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points p (m, 2) to segments a->b (k, 2); returns (m, k)."""
    # one (m, k) array per coordinate: a trailing axis of 2 is slow to sweep
    d = b - a
    dd = np.maximum(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1], 1e-300)
    t = np.clip(((p[:, :1] - a[:, 0]) * d[:, 0] + (p[:, 1:] - a[:, 1]) * d[:, 1]) / dd,
                0.0, 1.0)
    ex = p[:, :1] - (a[:, 0] + t * d[:, 0])
    ey = p[:, 1:] - (a[:, 1] + t * d[:, 1])
    return np.sqrt(ex * ex + ey * ey)


def _edges(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(poly) == 1:
        return poly, poly
    if len(poly) == 2:
        return poly[:1], poly[1:]
    return poly, np.roll(poly, -1, axis=0)


def signed_inner_distance(poly: np.ndarray, point) -> float:
    """Distance to the boundary, positive inside, negative outside.

    For degenerate polygons the value is minus the distance to the set.
    """
    p = np.asarray(point, dtype=float).reshape(1, 2)
    if len(poly) <= 2:
        a, b = _edges(poly)
        return -float(_segment_distances(p, a, b).min())
    a = poly
    b = np.roll(poly, -1, axis=0)
    d = b - a
    lengths = np.linalg.norm(d, axis=1)
    lengths = np.maximum(lengths, 1e-300)
    cross = (d[:, 0] * (p[0, 1] - a[:, 1]) - d[:, 1] * (p[0, 0] - a[:, 0])) / lengths
    inside = float(np.min(cross))
    if inside >= 0.0:
        return inside
    return -float(_segment_distances(p, a, b).min())


def points_in_polygon(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Vectorized membership mask for a convex CCW polygon, boundary included."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(poly) < 3:
        a, b = _edges(poly)
        return _segment_distances(p, a, b).min(axis=1) <= 0.0
    d = np.roll(poly, -1, axis=0) - poly
    lengths = np.maximum(np.linalg.norm(d, axis=1), 1e-300)
    cross = (d[None, :, 0] * (p[:, 1:2] - poly[None, :, 1])
             - d[None, :, 1] * (p[:, 0:1] - poly[None, :, 0])) / lengths[None, :]
    return np.all(cross >= 0.0, axis=1)


def points_polygon_distance(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances from many points to a convex polygon (vectorized)."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    a, b = _edges(poly)
    if len(poly) < 3:
        return _segment_distances(p, a, b).min(axis=1)
    # points inside are at distance 0; only the others meet the edges
    dist = np.zeros(len(p))
    out = ~points_in_polygon(poly, p)
    dist[out] = _segment_distances(p[out], a, b).min(axis=1)
    return dist


def hausdorff_convex(P: np.ndarray, Q: np.ndarray) -> float:
    """Hausdorff distance between two convex polygons.

    dist(., Q) is convex, so the supremum over P is attained at a vertex;
    the same holds with the roles swapped.
    """
    d1 = float(points_polygon_distance(Q, P).max())
    d2 = float(points_polygon_distance(P, Q).max())
    return max(d1, d2)


def minkowski_sum(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Minkowski sum of convex polygons via the hull of pairwise vertex sums."""
    sums = (P[:, None, :] + Q[None, :, :]).reshape(-1, 2)
    return convex_hull(sums)


def near_any(points: np.ndarray, targets: np.ndarray, tol: float) -> np.ndarray:
    """Whether each point (p, 2) lies within tol of a target (t, 2).

    The all-pairs test sqrt(dx * dx + dy * dy) <= tol with
    dx, dy = target - point, one pass over the targets per point: O(p t)
    time and O(t) memory, meant for few points.
    """
    near = np.zeros(len(points), dtype=bool)
    for i, (a, b) in enumerate(points.tolist()):
        dx = targets[:, 0] - a
        dy = targets[:, 1] - b
        near[i] = (np.sqrt(dx * dx + dy * dy) <= tol).any()
    return near
