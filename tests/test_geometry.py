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
            want = np.unique(_prune_interior(pts), axis=0)
            if len(want) > 2:
                want = _monotone_chain(want)
            got = convex_hull(pts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
