import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import quatrange as qr
from quatrange.geometry import (
    DegenerateRegionError,
    _monotone_chain,
    _prune_interior,
    _segment_distances,
    clip_polygon,
    convex_hull,
    halfplane_intersection,
    hausdorff_convex,
    minkowski_sum,
    near_any,
    points_in_polygon,
    points_polygon_distance,
    signed_inner_distance,
    sorted_rows_in,
    upper_support_polygon,
)

from conftest import seeded_model_operator


def test_hull_square():
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.7)])
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert {tuple(v) for v in hull} == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_collinear_collapses_to_segment():
    pts = np.stack([np.zeros(101), np.linspace(-0.5, 0.5, 101)], axis=1)
    hull = convex_hull(pts)
    assert hull.shape == (2, 2)
    assert np.array_equal(hull, np.array([(0.0, -0.5), (0.0, 0.5)]))


def test_axis_parallel_hull_matches_the_chain_byte_for_byte():
    # a set on one vertical or horizontal line keeps its lexicographic first
    # and last points without the chain; duplicates, one or two distinct
    # points, mixed 0.0 / -0.0 coordinates and non-finite ones included
    rng = np.random.default_rng(31)
    cases = [np.zeros((7, 2)), np.array([(1.0, 3.0), (1.0, 2.0), (1.0, 3.0)]),
             np.array([(2.0, 0.5), (-1.0, 0.5), (0.0, 0.5), (2.0, 0.5)]),
             np.array([(0.0, 1.0), (-0.0, 1.0), (0.0, 1.0)]),
             np.array([(0.0, 2.0), (-0.0, -1.0), (0.0, 2.0), (-0.0, -1.0)]),
             np.array([(0.0, 0.0), (-0.0, 0.5), (0.0, -0.0), (-0.0, -0.5), (0.0, 0.5)]),
             np.array([(1.0, -0.0), (-2.0, 0.0), (0.5, -0.0), (-0.0, 0.0), (0.0, -0.0)])]
    for trial in range(300):
        count = int(rng.integers(1, 40))
        line = rng.choice([0.0, -0.0], count) if trial % 5 == 0 \
            else rng.choice([0.0, -0.0, 0.5, -1.25])
        free = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 0.25]), count) \
            if trial % 2 else rng.standard_normal(count)
        pts = np.column_stack([np.full(count, line), free])
        if trial % 3 == 0:
            pts = pts[:, ::-1]
        cases.append(np.vstack([pts, pts[rng.integers(0, count, count // 2)]]))
    big, inf, nan = 1.5e308, np.inf, np.nan
    cases += [np.array([(0.0, -big), (0.0, 0.0), (0.0, big)]),
              np.array([(-big, 1.0), (0.0, 1.0), (big, 1.0)]),
              np.array([(0.0, -inf), (0.0, 0.0), (0.0, 1.0)]),
              np.array([(inf, 0.0), (inf, 1.0), (inf, 2.0)]),
              np.array([(0.0, 1.0), (nan, 1.0), (1.0, 1.0), (2.0, 1.0)]),
              np.array([(0.0, nan), (0.0, 1.0), (0.0, 2.0)])]
    # collinear but not axis-parallel: rounding decides, so the chain stays
    t = rng.standard_normal(50)
    cases.append(np.column_stack([t, 0.3 * t + 0.1]))
    for pts in cases:
        with np.errstate(over="ignore", invalid="ignore"):  # the non-finite cases
            want = _prune_interior(pts)
            want = want[np.lexsort((want[:, 1], want[:, 0]))]  # stable
            want = want[np.r_[True, np.any(want[1:] != want[:-1], axis=1)]]
            if len(want) > 2:
                want = _monotone_chain(want)
            got = convex_hull(pts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_equal_points_keep_the_first_in_input_order():
    # 40 rows (numpy's default sort is not stable past 16) on the unit
    # square's corners and edge midpoints, with mixed 0.0 / -0.0; of equal
    # rows the hull, the sphere set and the degenerate polygons keep the first
    rng = np.random.default_rng(np.random.SeedSequence(39, spawn_key=(1,)))
    base = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.0), (0.0, 0.5)]
    pts = np.array([base[i] for i in rng.integers(0, len(base), 40)])
    pts = np.where((pts == 0.0) & (rng.random(pts.shape) < 0.5), -0.0, pts)
    first = {}
    for row in map(tuple, pts.tolist()):
        first.setdefault(row, row)  # 0.0 == -0.0 and they hash alike
    want = np.array([first[c] for c in base[:4]])
    assert convex_hull(pts).tobytes() == want.tobytes()
    spheres = qr.SphereSet(pts).points()
    assert spheres.tobytes() == np.array(sorted(first.values())).tobytes()
    # the exact lookup in the sorted set: a zero matches either sign, and a
    # row that is not in the set matches nothing
    probe = np.array([(-0.0, -0.0), (0.5, 0.5), (1.0, -0.0), (2.0, 0.0)])
    assert sorted_rows_in(spheres, probe).tolist() == [
        row in [(0.0, 0.0), (1.0, 0.0)] for row in map(tuple, spheres.tolist())]
    # a degenerate upper support polygon: every offset a signed zero, so the
    # hull's input is (h_0, 0), meeting points at the origin and (-h_k, 0)
    h = np.where(rng.random(40) < 0.5, 0.0, -0.0)
    got = upper_support_polygon(np.linspace(0.0, np.pi, 40), h)
    assert got.tobytes() == np.array([(h[0], 0.0)]).tobytes()
    # a half-plane intersection that collapses to a segment on b = 0 is
    # returned as its two sorted ends, with the signs the clip made
    seg = halfplane_intersection([(0.0, 1.0, 0.0), (0.0, -1.0, 0.0)], 2.0)
    assert seg.tolist() == [[-2.0, 0.0], [2.0, 0.0]]
    assert seg.tobytes() == convex_hull(seg[::-1]).tobytes()


def test_hull_starts_at_its_least_vertex_counterclockwise():
    # what the sorted input gives every hull: the least vertex first, positive
    # area from three vertices on, one or two vertices sorted and distinct
    rng = np.random.default_rng(np.random.SeedSequence(39, spawn_key=(2,)))
    for trial in range(400):
        count = int(rng.integers(1, 60))
        kind = trial % 4
        if kind == 0:  # random
            pts = rng.standard_normal((count, 2))
        elif kind == 1:  # rounded to a coarse grid: ties and signed zeros
            pts = np.round(rng.uniform(-1.0, 1.0, (count, 2)) * 2.0) / 2.0
        elif kind == 2:  # on a line that is not axis-parallel, up to rounding
            t = rng.standard_normal(count)
            pts = np.column_stack([t, rng.uniform(-2.0, 2.0) * t + rng.standard_normal()])
        else:  # a few distinct points, each many times
            few = rng.standard_normal((int(rng.integers(1, 5)), 2))
            pts = few[rng.integers(0, len(few), count)]
        hull = convex_hull(pts)
        rows = list(map(tuple, hull.tolist()))
        assert rows[0] == min(rows)
        if len(hull) <= 2:
            assert rows == sorted(set(rows))
            continue
        x, y = hull[:, 0], hull[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if kind == 2:
            # the chain's rounded cross products can keep a sliver of points
            # a few ulps off the line, whose area has either sign
            assert abs(area) <= 1e-12 * (1.0 + np.abs(pts).max()) ** 2
        else:
            assert area > 0.0


def _exact_chain(pts):
    """Monotone chain in exact rational arithmetic, collinear points dropped."""
    q = sorted({(Fraction(a), Fraction(b)) for a, b in pts.tolist()})
    if len(q) <= 2:
        return q

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(q)[:-1] + chain(q[::-1])[:-1]


def test_hull_of_crowded_vertical_lines_is_the_exact_hull():
    # two to four vertical lines, each with a crowd of points a few ulps
    # apart at its bottom and at its top and a few points between; every
    # line's two ends are vertices.  In floating point the chain's cross
    # products cannot order points an ulp apart on one line, and only the
    # two ends of each line reach it
    rng = np.random.default_rng(np.random.SeedSequence(38, spawn_key=(2,)))

    def crowd(y, k):
        ys = [y]
        for step in rng.integers(-2, 3, k):
            ys.append(np.nextafter(ys[-1], np.inf * step) if step else ys[-1])
        return ys

    for _ in range(200):
        xs = rng.uniform(-1.0, 1.0, int(rng.integers(2, 5)))
        c = rng.uniform(0.2, 1.0, 2)
        pts = []
        for x in xs:
            lo, hi = c[0] * x * x - 1.0, 1.0 - c[1] * x * x
            ys = crowd(lo, int(rng.integers(1, 8))) + crowd(hi, int(rng.integers(1, 8)))
            pts += [(x, y) for y in ys + rng.uniform(lo, hi, int(rng.integers(0, 4))).tolist()]
        pts = np.array(pts)[rng.permutation(len(pts))]
        assert convex_hull(pts).tolist() == [[float(a), float(b)] for a, b in _exact_chain(pts)]


def test_hull_prune_keeps_the_interior_mask_and_linear_memory():
    def reference(pts):
        # the eight extremes and the strict-inside test as (N, 8) arrays
        dirs = np.array([(1, 0), (0, 1), (1, 1), (1, -1),
                         (-1, 0), (0, -1), (-1, -1), (-1, 1)], dtype=float)
        corners = pts[np.unique(np.argmax(pts @ dirs.T, axis=0))]
        ring = corners[np.argsort(np.arctan2(corners[:, 1] - corners[:, 1].mean(),
                                             corners[:, 0] - corners[:, 0].mean()))]
        d = np.roll(ring, -1, axis=0) - ring
        cross = (d[None, :, 0] * (pts[:, 1:2] - ring[None, :, 1])
                 - d[None, :, 1] * (pts[:, 0:1] - ring[None, :, 0]))
        x, y = ring[:, 0], ring[:, 1]
        orient = 1.0 if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0 else -1.0
        return pts[~np.all(orient * cross > 1e-12, axis=1)]

    rng = np.random.default_rng(np.random.SeedSequence(38, spawn_key=(3,)))
    sets = [rng.standard_normal((500, 2)) * 10 ** rng.uniform(-6, 6),
            np.round(rng.standard_normal((400, 2)), 1),
            qr.bild_points(qr.truncate(seeded_model_operator(1), 3000).diagonal_tail())]
    for pts in sets:
        assert _prune_interior(pts).tobytes() == reference(pts).tobytes()
    N = 200_000
    pts = rng.standard_normal((N, 2))
    tracemalloc.start()
    try:
        kept = _prune_interior(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) < N and peak <= 48 * N


def test_hull_single_point():
    hull = convex_hull(np.array([(2.0, 3.0)] * 5))
    assert hull.shape == (1, 2)


def test_hull_contains_all_inputs():
    rng = np.random.default_rng(0)
    for seed in range(5):
        pts = rng.standard_normal((300, 2))
        hull = convex_hull(pts)
        dists = points_polygon_distance(hull, pts)
        assert float(dists.max()) <= 1e-9


def test_hull_vertices_are_extreme():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((200, 2))
    hull = convex_hull(pts)
    for i in range(len(hull)):
        others = np.delete(hull, i, axis=0)
        assert points_polygon_distance(convex_hull(others), hull[i])[0] > 1e-9


def test_clip_polygon():
    square = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float)
    cut = clip_polygon(square, (1.0, 0.0), 1.0)  # a <= 1
    assert signed_inner_distance(convex_hull(cut), (0.5, 1.0)) >= 0.0
    assert not signed_inner_distance(convex_hull(cut), (1.5, 1.0)) >= 0.0


def _reference_clip(poly, normal, offset):
    """Sutherland-Hodgman clip vertex by vertex, the loop clip_polygon replaces."""
    if len(poly) == 0:
        return poly
    n = np.asarray(normal, dtype=float)
    vals = poly @ n - offset
    if np.all(vals <= 0.0):
        return poly
    if np.all(vals > 0.0):
        return poly[:0]
    out = []
    m = len(poly)
    for i in range(m):
        p, vp = poly[i], vals[i]
        q, vq = poly[(i + 1) % m], vals[(i + 1) % m]
        if vp <= 0.0:
            out.append(p)
        if (vp <= 0.0) != (vq <= 0.0):
            t = vp / (vp - vq)
            out.append(p + t * (q - p))
    return np.array(out)


def test_clip_polygon_matches_vertex_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    for trial in range(2400):
        poly = convex_hull(rng.standard_normal((int(rng.integers(1, 30)), 2)))
        normal = rng.standard_normal(2)
        # every third line passes through a vertex
        if trial % 3 == 0:
            offset = float(poly[rng.integers(len(poly))] @ normal)
        else:
            offset = float(rng.standard_normal())
        with np.errstate(all="raise"):
            got = clip_polygon(poly, normal, offset)
        want = _reference_clip(poly, normal, offset)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_segment_distances_match_the_stacked_formula_bit_for_bit():
    rng = np.random.default_rng(22)
    for trial in range(300):
        m, k = (int(v) for v in rng.integers(1, 40, 2))
        p = rng.standard_normal((m, 2)) * 10.0 ** int(rng.integers(-3, 3))
        a, b = rng.standard_normal((k, 2)), rng.standard_normal((k, 2))
        b[::3] = a[::3]  # degenerate segments
        if trial % 4 == 0:
            p[: min(m, k)] = a[: min(m, k)]  # points on segment ends
        # the (m, k, 2) formula the per-coordinate one replaces
        d = b - a
        dd = np.maximum(np.sum(d * d, axis=1), 1e-300)
        w = p[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("mkc,kc->mk", w, d) / dd[None, :], 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
        want = np.linalg.norm(p[:, None, :] - proj, axis=2)
        assert _segment_distances(p, a, b).tobytes() == want.tobytes()


def test_halfplane_intersection_matches_grid_oracle():
    rng = np.random.default_rng(3)
    angles = np.linspace(0, 2 * np.pi, 9, endpoint=False)
    constraints = [(np.cos(t), np.sin(t), 1.0 + 0.3 * rng.standard_normal())
                   for t in angles]
    poly = halfplane_intersection(constraints, 5.0)
    xs = np.linspace(-3, 3, 61)
    for x in xs:
        for y in xs:
            feasible = all(nx * x + ny * y <= c + 1e-12 for nx, ny, c in constraints)
            inside = signed_inner_distance(poly, (x, y)) >= -1e-9
            if feasible:
                assert inside
            elif not inside:
                pass  # both agree
            else:
                # polygon membership may only exceed feasibility at the boundary
                worst = max(nx * x + ny * y - c for nx, ny, c in constraints)
                assert worst <= 1e-6


def test_halfplane_intersection_empty_raises():
    with pytest.raises(DegenerateRegionError):
        halfplane_intersection([(1.0, 0.0, -1.0), (-1.0, 0.0, -1.0)], 5.0)


def test_halfplane_degenerate_point():
    poly = halfplane_intersection(
        [(1.0, 0.0, 1.0), (-1.0, 0.0, -1.0), (0.0, 1.0, 2.0), (0.0, -1.0, -2.0)], 5.0)
    assert len(poly) == 1
    assert np.allclose(poly[0], (1.0, 2.0))


def test_signed_inner_distance():
    square = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float)
    assert signed_inner_distance(square, (1, 1)) == pytest.approx(1.0)
    assert signed_inner_distance(square, (3, 1)) == pytest.approx(-1.0)
    assert signed_inner_distance(square, (1, 0)) == pytest.approx(0.0)


def test_points_in_polygon_vectorized():
    tri = np.array([(0, 0), (2, 0), (0, 2)], dtype=float)
    pts = np.array([(0.5, 0.5), (2, 2), (0, 0), (-0.1, 0.0)])
    mask = points_in_polygon(tri, pts)
    assert list(mask) == [True, False, True, False]


def test_hausdorff_matches_brute_force():
    rng = np.random.default_rng(5)
    for seed in range(5):
        P = convex_hull(rng.standard_normal((20, 2)))
        Q = convex_hull(rng.standard_normal((20, 2)) * 1.3 + 0.2)

        def boundary(poly, k=400):
            ring = np.vstack([poly, poly[:1]])
            pts = []
            for i in range(len(ring) - 1):
                t = np.linspace(0, 1, k // len(poly), endpoint=False)
                pts.append(ring[i][None, :] + t[:, None] * (ring[i + 1] - ring[i]))
            return np.vstack(pts)

        brute = max(points_polygon_distance(Q, boundary(P)).max(),
                    points_polygon_distance(P, boundary(Q)).max())
        fast = hausdorff_convex(P, Q)
        assert fast == pytest.approx(brute, abs=2e-2)
        assert fast >= brute - 1e-12  # vertex attained, so never below


def test_hausdorff_degenerate():
    seg = np.array([(0.0, 0.0), (0.0, 1.0)])
    pt = np.array([(0.0, 1.0)])
    assert hausdorff_convex(pt, seg) == pytest.approx(1.0)
    assert hausdorff_convex(seg, seg) == pytest.approx(0.0)


def test_minkowski_sum():
    sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    seg = np.array([(0.0, 0.0), (2.0, 0.0)])
    out = minkowski_sum(sq, seg)
    assert signed_inner_distance(out, (2.5, 0.5)) >= 0.0
    assert not signed_inner_distance(out, (3.2, 0.5)) >= 0.0
    assert (out @ np.array([1.0, 0.0])).max() == pytest.approx(3.0)


def _near_all_pairs(points, targets, tol):
    """The all-pairs test in one (p, t) array: every point against every target."""
    dx = targets[None, :, 0] - points[:, :1]
    dy = targets[None, :, 1] - points[:, 1:]
    return np.sqrt(dx * dx + dy * dy).min(axis=1, initial=np.inf) <= tol


def test_near_any_matches_all_pairs_on_seeded_sections():
    cases = []
    for seed in range(8):
        M = seeded_model_operator(seed)
        for N in (1, 30, 400):
            T = qr.truncate(M, N)
            cases.append((qr.s_spectrum(T).points(), qr.bild_points(T.diagonal()[M.block_size:])))
    T = qr.truncate(qr.remark_operator(), 2000)
    cases.append((qr.s_spectrum(T).points(), qr.bild_points(T.diagonal()[2:])))
    # points around tol from a target, and one or no target
    rng = np.random.default_rng(np.random.SeedSequence(28, spawn_key=(3,)))
    targets = np.round(rng.random((300, 2)) * 1e-4, 6)
    shift = rng.normal(size=(300, 2))
    shift *= rng.choice([0.5, 0.999999, 1.0, 1.000001, 2.0], (300, 1)) / np.hypot(*shift.T)[:, None]
    cases += [(targets + 1e-6 * shift, targets), (targets[:1] + 1e-6 * shift, targets[:1]),
              (targets, targets[:0]), (targets[:0], targets)]
    for points, targets in cases:
        for tol in (1e-6, 0.0, 1e-3):
            assert np.array_equal(near_any(points, targets, tol),
                                  _near_all_pairs(points, targets, tol))
