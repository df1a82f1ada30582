import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion
from quatrange.essential import Tail
from quatrange.geometry import (
    clip_polygon,
    convex_hull,
    hausdorff_convex,
    points_polygon_distance,
)
from quatrange import lancaster, numrange
from quatrange.cli import main
from quatrange.lancaster import hausdorff_union_convex, iconv, iconv_polygon

from conftest import seeded_model_operator

I = Quaternion.i


def brute_iconv_contains(P, satellites, point, tol=1e-9):
    """Direct definition: point in conv(P u {s}) for some satellite s."""
    for s in np.asarray(satellites, dtype=float).reshape(-1, 2):
        piece = convex_hull(np.vstack([P, s[None, :]]))
        if points_polygon_distance(piece, point[None, :])[0] <= tol:
            return True
    return False


def test_iconv_singletons_give_segment():
    region = iconv(np.array([(0.0, 0.0)]), [(1.0, 1.0)])
    assert region.contains((0.5, 0.5))
    assert region.contains((0.0, 0.0))
    assert not region.contains((0.5, 0.0), tol=1e-6)


def test_iconv_absorbing_case():
    P = convex_hull(np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float))
    region = iconv(P, [(1.0, 1.0), (0.5, 0.5)])
    assert len(region.satellites) == 0
    assert len(region.pieces) == 1
    assert np.array_equal(region.pieces[0], P)


def test_iconv_empty_base_rejected():
    with pytest.raises(ValueError):
        iconv(np.zeros((0, 2)), [(0.0, 0.0)])


def test_iconv_matches_brute_force_union():
    # reduced region must agree with the direct union over all satellites
    rng = np.random.default_rng(12)
    P = convex_hull(rng.standard_normal((6, 2)) * 0.4)
    satellites = rng.standard_normal((40, 2)) * 1.5
    region = iconv(P, satellites)
    probes = rng.standard_normal((300, 2)) * 1.6
    for y in probes:
        direct = brute_iconv_contains(P, satellites, y)
        # snap dedupe may move satellites by up to the grid step
        if direct != region.contains(y, tol=1e-9):
            edge = min(np.min(region.distance_to(y[None, :])), 1.0)
            assert edge <= 6e-3 or brute_iconv_contains(P, satellites, y, tol=6e-3)


def test_iconv_remark_satellite_triangle():
    # base = full essential segment, satellites = the three extreme classes of
    # the worked block: the union is two triangles, whose upper half spans the
    # closure quadrilateral except the region above the segment endpoints
    P = np.array([(0.0, -0.5), (0.0, 0.5)])
    S = [(-1.0, 1.0), (1.0, 1.0), (0.0, 0.0)]
    region = iconv(P, S)
    for inside in [(0.5, 0.6), (1 / 3 + 1e-9, 1e-9), (-0.5, 0.3), (0.0, 0.5)]:
        assert region.contains(inside, tol=1e-7)
    # the closure quadrilateral point (0, 0.9) is NOT in the pointwise
    # inter-convex hull of these three satellites
    assert not region.contains((0.0, 0.9), tol=1e-6)
    assert not region.contains((0.8, 0.2), tol=1e-6)


def test_iconv_monotone():
    rng = np.random.default_rng(13)
    P_small = convex_hull(rng.standard_normal((5, 2)) * 0.3)
    P_big = convex_hull(np.vstack([P_small, rng.standard_normal((4, 2)) * 0.6]))
    sats = rng.standard_normal((25, 2))
    more_sats = np.vstack([sats, rng.standard_normal((10, 2)) * 1.2])
    base_region = iconv(P_small, sats)
    grown_p = iconv(P_big, sats)
    grown_s = iconv(P_small, more_sats)
    probes = rng.standard_normal((150, 2))
    for y in probes:
        if base_region.contains(y, tol=1e-9):
            assert grown_p.contains(y, tol=1e-6)
            assert grown_s.contains(y, tol=1e-6)


def test_upper_clip():
    P = np.array([(0.0, -0.5), (0.0, 0.5)])
    region = iconv(P, [(1.0, 1.0)]).upper()
    assert not region.contains((0.0, -0.25), tol=1e-9)
    assert region.contains((1 / 3, 1e-12), tol=1e-9)


def test_upper_clips_a_segment_at_its_crossing():
    # diag(i) over the rationals tail: B_e is the segment (0, -1/2)-(0, 1/2)
    # and the section's bild the segment (0, 0)-(0, 1), so the region is the
    # vertical segment from (0, -1/2) to (0, 1), cut to b >= 0 at (0, 0)
    M = qr.ModelOperator(qr.QMatrix.diag([I]), qr.RationalsITail(0.5),
                         [qr.LimitSegment(0.0, 0.0, 0.5)], bound=1.0)
    report = qr.lancaster_check(M, [20])
    assert np.array_equal(report.regions[0].pieces[0], [(0.0, 0.0), (0.0, 1.0)])
    outer = report.bilds[0].outer_polygon
    width = outer[:, 0].max() - outer[:, 0].min()
    assert 0.0 < width <= 1e-11
    assert report.final().hausdorff_outer <= width
    # a slanted segment crossing b = 0 is cut at the crossing, a point kept
    cut = iconv_polygon(np.array([(0.0, -1.0)]), np.array([(2.0, 1.0)])).upper()
    assert np.array_equal(cut.pieces[0], [(1.0, 0.0), (2.0, 1.0)])


@pytest.mark.parametrize("base", ["polygon", "point", "segment"])
@pytest.mark.parametrize("other", ["polygon", "segment"])
def test_iconv_polygon_matches_brute_force_union(base, other):
    # iconv(P, Q) is the union of conv(P u {q}) over every q in Q
    rng = np.random.default_rng(["polygon", "point", "segment"].index(base))
    P = {"polygon": convex_hull(rng.standard_normal((6, 2)) * 0.4),
         "point": np.array([(0.1, -0.2)]),
         "segment": np.array([(-0.3, -0.4), (0.2, 0.5)])}[base]
    Q = convex_hull(rng.standard_normal((7, 2)) * 0.6 + np.array([1.0, 0.3]))
    if other == "segment":
        Q = Q[:2]
    region = iconv_polygon(P, Q)
    assert len(region.pieces) == 1
    assert np.array_equal(region.pieces[0], convex_hull(np.vstack([P, Q])))
    assert np.array_equal(region.satellites, Q)
    step = 0.04
    dense = lancaster._polygon_grid(Q, step)  # grid inside Q plus its boundary at step
    probes = rng.uniform(np.vstack([P, Q]).min(axis=0) - 0.3,
                         np.vstack([P, Q]).max(axis=0) + 0.3, size=(400, 2))
    brute = np.full(len(probes), np.inf)
    for q in dense:
        piece = convex_hull(np.vstack([P, q[None, :]]))
        brute = np.minimum(brute, points_polygon_distance(piece, probes))
    got = region.distance_to(probes)
    # every conv(P u {q}) lies in the region; the samples of Q are step-dense
    assert float(np.max(got - brute)) <= 1e-12
    assert float(np.max(brute - got)) <= step
    assert np.any(got == 0.0) and np.any(got > step)


def test_iconv_polygon_rejects_empty():
    with pytest.raises(ValueError):
        iconv_polygon(np.zeros((0, 2)), np.array([(0.0, 0.0)]))


def test_hausdorff_union_convex_simple():
    P = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    region = iconv(convex_hull(P), [])
    d = hausdorff_union_convex(region, convex_hull(P), res=0.05)
    assert d <= 0.05


# -- closure decomposition reports -------------------------------------------------------


def test_lancaster_constant_tail_point():
    q = Quaternion(1.5, 0.0, 0.0, 0.0)
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(q), [qr.csim(q)],
                         bound=2.0)
    report = qr.lancaster_check(M, [10, 30], m=2000, k=60, seed=1,
                                target=np.array([(1.5, 0.0)]))
    for row in report.rows:
        assert row.hausdorff_target <= 0.02
        assert row.hausdorff_outer <= 0.05


def test_lancaster_block_with_vanishing_tail():
    # real tail decaying to zero: the closure of the bild is the real segment
    # [(0,0), (3,0)] and the essential part is the single class {(0,0)}
    class InverseRealTail(Tail):
        kind = "inverse_real"

        def _generate(self, count):
            out = np.zeros((count, 4))
            out[:, 0] = 0.5 / np.arange(1, count + 1)
            return out

    M = qr.ModelOperator(qr.QMatrix.diag([Quaternion(3.0)]), InverseRealTail(),
                         [qr.SimilaritySphere(0.0, 0.0)], bound=0.5)
    target = np.array([(0.0, 0.0), (3.0, 0.0)])
    report = qr.lancaster_check(M, [60], m=50000, k=180, seed=2, target=target)
    assert report.rows[0].hausdorff_target <= 0.02


def test_lancaster_pure_matrix_matches_padded_matrix():
    # zero tail: the closure region is iconv({origin}, matrix bild), which must
    # agree with the same construction run on the matrix padded by a zero
    # row/column through the plain matrix engine
    rng = np.random.default_rng(21)
    B = qr.QMatrix(rng.standard_normal((2, 2, 4)))
    M = qr.ModelOperator(B, qr.ConstantTail(Quaternion()),
                         [qr.SimilaritySphere(0.0, 0.0)], bound=0.0)
    report = qr.lancaster_check(M, [1], m=2000, k=120, seed=4)
    region_model = report.regions[0]

    # one zero tail entry is exactly the matrix padded by a zero row/column
    padded = qr.QMatrix.block_diag(B, np.zeros((1, 4)))
    Q = qr.upper_bild(padded, m=2000, k=120, seed=4).inner_hull
    region_matrix = iconv_polygon(np.array([(0.0, 0.0)]), Q).upper()

    probes = np.mgrid[-3:3:0.15, 0:3:0.15].reshape(2, -1).T
    d1 = region_model.distance_to(probes)
    d2 = region_matrix.distance_to(probes)
    assert float(np.max(np.abs(d1 - d2))) <= 1e-12


def _block_plus_tail():
    # a dense 2x2 block over a decaying periodic tail, scaled small so that
    # the satellite reference below stays cheap to build and probe
    rng = np.random.default_rng(5)
    targets = [Quaternion(0.075, 0.1), Quaternion(-0.125, 0.05)]
    return qr.ModelOperator(qr.QMatrix(rng.standard_normal((2, 2, 4)) * 0.25),
                            qr.DecayingPeriodicTail(targets, 0.025),
                            [qr.csim(t) for t in targets], bound=0.25)


def test_lancaster_dense_section_contains_satellite_reference():
    # a section with a dense block: the region over the composed polygon Q
    # contains the satellite union over the attained values Q is built from,
    # the block's samples (seed + index) and the tail's exact polygon, and
    # comes closer to the outer polygon
    M = _block_plus_tail()
    report = qr.lancaster_check(M, [1, 2], m=400, k=90, seed=1)
    base = qr.essential_bild(M)
    probes = np.mgrid[-1:1:0.04, 0:1:0.04].reshape(2, -1).T
    for idx, (row, region, bild) in enumerate(zip(report.rows, report.regions,
                                                  report.bilds)):
        T = qr.truncate(M, row.N)
        b = T.block_split()
        assert b > 0
        sampled = numrange._sampled_bild(qr.QMatrix(T.arr[:b, :b]), 400, 90, 1 + idx)
        tail = qr.diagonal_bild(qr.QMatrix.diag(T.diagonal()[b:]))
        values = np.vstack([sampled.inner_points, tail.inner_hull])
        assert points_polygon_distance(bild.inner_hull, values).max() <= 1e-12
        assert np.array_equal(bild.inner_points, bild.inner_hull)
        assert row.n_satellites == len(bild.inner_hull) == len(region.satellites)
        reference = iconv(base, values).upper()
        assert float(np.max(region.distance_to(probes)
                            - reference.distance_to(probes))) <= 1e-12
        reference_outer = hausdorff_union_convex(reference, bild.outer_polygon, res=0.02)
        assert row.hausdorff_outer < reference_outer


@pytest.mark.parametrize("case", ["remark", "block_plus_tail"])
def test_lancaster_region_is_one_polygon_with_exact_distances(case, remark):
    # L_N is the b >= 0 cut of conv(B_e u Q), one convex polygon, and its
    # distances are exact: the grid reference pads its Q -> region part by
    # res / sqrt(2), and its grid holds every vertex, where the convex
    # distance function peaks, so without the pad it must agree to rounding
    trapezoid = np.array([(-1.0, 1.0), (1.0, 1.0), (1 / 3, 0.0), (-1 / 3, 0.0)])
    if case == "remark":
        M, target = remark, trapezoid
        report = qr.lancaster_check(M, [50, 500], m=1, k=90, target=target)
    else:
        M, target = _block_plus_tail(), None
        report = qr.lancaster_check(M, [1, 2], m=400, k=90, seed=1)
    base = qr.essential_bild(M)
    for idx, (row, region, bild) in enumerate(zip(report.rows, report.regions,
                                                  report.bilds)):
        seed = 0 if case == "remark" else 1
        T = qr.truncate(M, row.N)
        Q = qr.upper_bild(T, m=400, k=90, seed=seed + idx).inner_hull
        assert np.array_equal(Q, bild.inner_hull)
        cut = convex_hull(clip_polygon(convex_hull(np.vstack([base, Q])), (0.0, -1.0), 0.0))
        assert len(region.pieces) == 1
        assert region.pieces[0].shape == cut.shape
        assert np.allclose(region.pieces[0], cut, rtol=0.0, atol=1e-12)
        checks = [(row.hausdorff_outer, bild.outer_polygon, 0.02)]
        if target is not None:
            checks.append((row.hausdorff_target, convex_hull(target), 0.005))
        for d, poly, res in checks:
            ref = hausdorff_union_convex(region, poly, res=res)
            assert ref - res / np.sqrt(2.0) - 1e-12 <= d <= ref + 1e-12
            to_poly = float(points_polygon_distance(poly, region.pieces[0]).max())
            to_region = float(region.distance_to(lancaster._polygon_grid(poly, res)).max())
            assert abs(d - max(to_poly, to_region)) <= 1e-12
    if target is not None:
        # the lines from (0, -1/2) to (+-1, 1) cross b = 0 at +-1/3: the cut
        # region is the trapezoid itself at every N
        assert all(row.hausdorff_target <= 1e-12 for row in report.rows)


@pytest.mark.parametrize("operator", ["block_plus_tail", 0, 1, 5, 8, 9, 11])
def test_composed_section_is_no_further_than_the_sampled_reference(operator):
    # the reference Q samples the whole section and adds the pair sweeps of
    # refined_values; the composed Q has the same outer polygon, lies inside
    # it and leaves the region no further from it
    M = _block_plus_tail() if operator == "block_plus_tail" else seeded_model_operator(operator)
    base = qr.essential_bild(M)
    sections = [1, 2, 20]
    report = qr.lancaster_check(M, sections, m=2000, k=180, seed=3)
    for idx, (N, row, bild) in enumerate(zip(sections, report.rows, report.bilds)):
        T = qr.truncate(M, N)
        assert T.block_split() > 0
        sampled = numrange._sampled_bild(T, 2000, 180, 3 + idx)
        assert np.array_equal(bild.outer_polygon, sampled.outer_polygon)
        assert points_polygon_distance(bild.outer_polygon, bild.inner_hull).max() == 0.0
        Q = convex_hull(np.vstack([sampled.inner_hull, qr.bild_points(qr.refined_values(T))]))
        L = convex_hull(clip_polygon(convex_hull(np.vstack([base, Q])), (0.0, -1.0), 0.0))
        assert row.hausdorff_outer <= hausdorff_convex(L, sampled.outer_polygon) + 1e-12


def test_probe_dense_section_residual_from_attained_values():
    # a section with a dense block is probed through its composed polygon Q
    # (block samples seeded with seed + index) clipped to the window strip;
    # the best clipped point is at least every attained vertex of Q in the
    # window, and it is attained: Q's edges join attained values
    M = _block_plus_tail()
    sections = [1, 2]
    for edge in ([(-0.6, 0.0), (-0.3, 0.5)], [(-0.25, 0.6), (0.25, 0.65)]):
        edge = np.array(edge)
        probe = qr.nonclosedness_probe(M, edge, sections, m=3000, seed=2)
        assert probe.level == pytest.approx(float(probe.normal @ edge[0]), abs=1e-15)
        for idx, (N, row) in enumerate(zip(sections, probe.rows)):
            T = qr.truncate(M, N)
            assert T.block_split() > 0
            Q = qr.upper_bild(T, m=3000, seed=2 + idx).inner_hull
            d = edge[1] - edge[0]
            t = (Q - edge[0]) @ d / (d @ d)
            window = Q[(t >= 0.05) & (t <= 0.95)]
            assert len(window) and row.attained >= float((window @ probe.normal).max())
            strip = clip_polygon(clip_polygon(Q, -d, -float(d @ (edge[0] + 0.05 * d))),
                                 d, float(d @ (edge[0] + 0.95 * d)))
            best = float((strip @ probe.normal).max())
            assert row.attained == pytest.approx(best, abs=1e-12)
            assert row.residual == pytest.approx(probe.level - best, abs=1e-12)
    far = qr.nonclosedness_probe(M, [(5.0, 5.0), (6.0, 6.0)], sections, m=3000)
    assert all(row.residual == np.inf for row in far.rows)


def test_diagonal_sections_are_exact_without_sampling(monkeypatch, remark):
    # every section of the worked operator is diagonal: its bild is the
    # closed-form polygon, so nothing is sampled and no pair sweep runs
    def forbidden(*args, **kwargs):
        raise AssertionError("a diagonal section was sampled")

    for name in ("nr_sample", "_sampled_bild", "refined_values"):
        monkeypatch.setattr(numrange, name, forbidden)
    trapezoid = np.array([(-1.0, 1.0), (1.0, 1.0), (1 / 3, 0.0), (-1 / 3, 0.0)])
    report = qr.lancaster_check(remark, [50, 500], m=1, k=90, target=trapezoid)
    probe = qr.nonclosedness_probe(remark, [(-1 / 3, 0.0), (-1.0, 1.0)], [50, 200], m=1)
    for row, bild in zip(report.rows, report.bilds):
        assert row.n_satellites == 4 and 0.0 < row.gap <= 1e-11
        assert bild.inner_hull.shape == (4, 2)
        assert row.hausdorff_target <= 0.005 / np.sqrt(2.0) + 1e-12
    assert all(row.residual > 0.0 for row in probe.rows)
    assert probe.rows[1].residual < probe.rows[0].residual


def test_exact_probe_residual_below_attained_values(remark):
    # the exact residual is a supremum over the window: no attained value,
    # sampled or from the pair sweeps, may come closer to the edge
    edge = np.array([(-1 / 3, 0.0), (-1.0, 1.0)])
    probe = qr.nonclosedness_probe(remark, edge, [30, 120])
    direction = (edge[1] - edge[0]) / np.linalg.norm(edge[1] - edge[0])
    for row in probe.rows:
        T = qr.truncate(remark, row.N)
        pts = np.vstack([qr.bild_points(qr.nr_sample(T, 20000, 5)),
                         qr.bild_points(qr.refined_values(T))])
        t = (pts - edge[0]) @ direction / np.linalg.norm(edge[1] - edge[0])
        best = float((pts[(t >= 0.05) & (t <= 0.95)] @ probe.normal).max())
        assert row.attained >= best - 1e-12
        assert row.attained - best <= 1e-3
        assert 0.0 < row.residual < probe.level - best + 1e-12


def test_probe_closed_case_attained_edges():
    # constant tail equal to a block entry: every boundary edge is attained
    block = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0)])
    M = qr.ModelOperator(block, qr.ConstantTail(Quaternion(1, 1, 0, 0)),
                         [qr.SimilaritySphere(1.0, 1.0)], bound=2.0)
    top = qr.nonclosedness_probe(M, [(-1.0, 1.0), (1.0, 1.0)], [20], m=2000, seed=3)
    assert top.rows[0].residual <= 1e-9
    side = qr.nonclosedness_probe(M, [(0.0, 0.0), (-1.0, 1.0)], [20], m=2000, seed=3)
    assert side.rows[0].residual <= 1e-9


def test_probe_requires_real_edge(remark):
    with pytest.raises(ValueError):
        qr.nonclosedness_probe(remark, [(0.0, 0.0), (0.0, 0.0)], [10])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_probe_rejects_a_non_finite_edge(remark, bad):
    # a NaN endpoint passes "length <= 0" and would give inf at every N
    with pytest.raises(ValueError, match="edge endpoints must be finite"):
        qr.nonclosedness_probe(remark, [(0.0, 0.0), (bad, 1.0)], [10])


def test_empty_sections_are_rejected(remark):
    with pytest.raises(ValueError, match="sections"):
        qr.lancaster_check(remark, [])
    with pytest.raises(ValueError, match="sections"):
        qr.nonclosedness_probe(remark, [(0.0, 0.0), (0.0, 0.5)], iter(()))


def _arr_builds(monkeypatch):
    """Sizes of the (n, n, 4) arrays that factored matrices build, in order."""
    built = []
    read = qr.QMatrix.arr.fget

    def arr(self):
        if self._arr is None:
            built.append(self.n)
        return read(self)

    monkeypatch.setattr(qr.QMatrix, "arr", property(arr))
    return built


def test_no_section_path_builds_the_section_array(monkeypatch, remark, tmp_path):
    # the section at N = 2000 would hold 128 MB as an (N, N, 4) array; the
    # lancaster check, the probe and verify read its block and diagonal only
    built = _arr_builds(monkeypatch)
    data = Path(__file__).resolve().parent.parent / "demos" / "data" / "remark_operator.json"
    runs = [lambda: qr.lancaster_check(remark, [2000], k=360),
            lambda: qr.nonclosedness_probe(remark, [(-1 / 3, 0.0), (-1.0, 1.0)], [2000]),
            lambda: main(["verify", str(data), "--section", "2000", "--out", str(tmp_path)])]
    for run in runs:
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
    assert result == 0
    assert all(n <= remark.block_size for n in built)


def test_lancaster_reaches_a_section_of_fifty_thousand(remark):
    report = qr.lancaster_check(remark, [500, 5000, 50000])
    assert [row.N for row in report.rows] == [500, 5000, 50000]
    assert all(row.n_satellites == 4 and 0.0 < row.gap <= 1e-11 for row in report.rows)
    # the section regions close in on the essential bild
    distances = [row.hausdorff_outer for row in report.rows]
    assert distances[0] > distances[1] > distances[2] > 0.0


# -- the operator's section-region slot ------------------------------------------------

_OPEN_EDGE = [(-1 / 3, 0.0), (-1.0, 1.0)]
_TOP_EDGE = [(-1.0, 1.0), (1.0, 1.0)]
_PROBE_SECTIONS = [50, 100, 200, 500]


def _count_builds(monkeypatch):
    """Keys (N, m, k, seed) of the section regions that lancaster builds, in order."""
    built = []
    build = lancaster.upper_bild

    def counted(T, m, k, seed):
        built.append((T.n, m, k, seed))
        return build(T, m=m, k=k, seed=seed)

    monkeypatch.setattr(lancaster, "upper_bild", counted)
    return built


def test_remark_calls_build_each_section_region_once(monkeypatch, remark):
    # the check at N = 500 and two probes over four sections name five
    # distinct regions: the second probe's keys are the first's
    built = _count_builds(monkeypatch)
    qr.lancaster_check(remark, [500], k=360)
    qr.nonclosedness_probe(remark, _OPEN_EDGE, _PROBE_SECTIONS)
    qr.nonclosedness_probe(remark, _TOP_EDGE, _PROBE_SECTIONS)
    assert [(n - remark.block_size, m, k, seed) for n, m, k, seed in built] == \
        [(500, 200000, 360, 0), (50, 20000, 180, 0), (100, 20000, 180, 1),
         (200, 20000, 180, 2), (500, 20000, 180, 3)]


def _bytes(report):
    """Every row number and every region array of a report, as bytes."""
    rows = [np.array([np.nan if v is None else v for v in vars(row).values()]).tobytes()
            for row in report.rows]
    regions = [getattr(bild, name).tobytes() for bild in getattr(report, "bilds", [])
               for name in ("inner_points", "inner_hull", "outer_polygon",
                            "boundary_points", "thetas", "offsets")]
    return rows, regions


def _slot_calls(M):
    """A check and three probes; the last probe's seed differs, so a dense block is re-sampled."""
    edge = qr.lancaster_check(M, [1, 2, 20], m=500, k=180, seed=1).bilds[0].inner_hull[:2]
    return [lambda M: qr.lancaster_check(M, [1, 2, 20], m=500, k=180, seed=1),
            lambda M: qr.nonclosedness_probe(M, edge, [1, 2, 20], m=500, seed=1),
            lambda M: qr.nonclosedness_probe(M, edge, [2, 20], m=500, seed=1),
            lambda M: qr.nonclosedness_probe(M, edge, [1, 2, 20], m=500, seed=2)]


@pytest.mark.parametrize("operator", ["remark", "block_plus_tail", 1, 5])
def test_reused_regions_match_fresh_operators_byte_for_byte(monkeypatch, operator):
    make = {"remark": qr.remark_operator, "block_plus_tail": _block_plus_tail}.get(
        operator, lambda: seeded_model_operator(operator))
    calls = _slot_calls(make())
    if operator == "remark":
        calls += [lambda M: qr.lancaster_check(M, [500], k=360),
                  lambda M: qr.nonclosedness_probe(M, _OPEN_EDGE, _PROBE_SECTIONS),
                  lambda M: qr.nonclosedness_probe(M, _TOP_EDGE, _PROBE_SECTIONS)]
    fresh = [_bytes(call(make())) for call in calls]
    built = _count_builds(monkeypatch)
    M = make()
    assert [_bytes(call(M)) for call in calls] == fresh
    # the same-seed probe reuses all three sections, [2, 20] shifts the
    # seeds, and seed 2 rebuilds every section; the remark calls add five
    assert len(built) == 3 + 0 + 2 + 3 + (5 if operator == "remark" else 0)
    assert built[5:8] == [(M.block_size + 1, 500, 180, 2), (M.block_size + 2, 500, 180, 3),
                          (M.block_size + 20, 500, 180, 4)]


def test_slot_holds_only_the_last_calls_keys():
    remark = qr.remark_operator()
    assert remark._regions == {}
    qr.lancaster_check(remark, [50, 500], k=90)
    assert set(remark._regions) == {(50, 200000, 90, 0), (500, 200000, 90, 1)}
    qr.nonclosedness_probe(remark, _OPEN_EDGE, [50, 200])
    assert set(remark._regions) == {(50, 20000, 180, 0), (200, 20000, 180, 1)}
    M = _block_plus_tail()
    qr.lancaster_check(M, [1, 2], m=400, k=90, seed=1)
    assert set(M._regions) == {(1, 400, 90, 1), (2, 400, 90, 2)}
    qr.nonclosedness_probe(M, _OPEN_EDGE, [2], m=300, seed=4)
    assert set(M._regions) == {(2, 300, 180, 4)}


def test_cached_regions_are_shared_and_read_only(remark):
    first = qr.lancaster_check(remark, [50], k=90)
    second = qr.lancaster_check(remark, [50], k=90)
    assert second.bilds[0] is first.bilds[0]
    for name in ("inner_points", "inner_hull", "outer_polygon",
                 "boundary_points", "thetas", "offsets"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(first.bilds[0], name)[0] = 0.0


def test_probe_grid_is_upper_bilds_default():
    default = inspect.signature(qr.upper_bild).parameters["k"].default
    assert lancaster._PROBE_ANGLES == default
