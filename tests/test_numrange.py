import math

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion
from quatrange.geometry import hausdorff_convex, points_polygon_distance
from quatrange import numrange
from quatrange.eigen import NumericalError
from quatrange.numrange import _CHUNK_BUDGET, _rng

from conftest import mirrored, random_qmatrix, random_unit_qvector, slow_nr_values

I = Quaternion.i
J = Quaternion.j


def reconstruct_sample_vectors(n, m, seed):
    """Re-draw the unit vectors exactly as nr_sample does (documented stream)."""
    rng = _rng(seed, 0)
    chunk = max(1, _CHUNK_BUDGET // (4 * n))
    out = []
    done = 0
    while done < m:
        take = min(chunk, m - done)
        X4 = rng.standard_normal((4, take, n))
        X4 /= np.sqrt(np.einsum("cmk,cmk->m", X4, X4))[None, :, None]
        out.append(X4.transpose(1, 2, 0))
        done += take
    return np.vstack(out)


def test_nr_sample_identity():
    vals = qr.nr_sample(qr.QMatrix.identity(3), 500, seed=1)
    assert np.allclose(vals[:, 0], 1.0, atol=1e-12)
    assert np.allclose(vals[:, 1:], 0.0, atol=1e-12)


def test_nr_sample_single_sphere():
    q = Quaternion(0.5, 1.0, -2.0, 0.25)
    vals = qr.nr_sample(qr.QMatrix.diag([q]), 400, seed=2)
    pts = qr.bild_points(vals)
    assert np.allclose(pts[:, 0], q.w, atol=1e-12)
    assert np.allclose(pts[:, 1], q.im_norm(), atol=1e-12)


def test_nr_sample_nilpotent_bound():
    # brute-force max of |conj(x1) x2| over the unit sphere is 1/2
    T = qr.QMatrix.from_quaternions([[Quaternion(), Quaternion(1.0)],
                                     [Quaternion(), Quaternion()]])
    vals = qr.nr_sample(T, 20000, seed=3)
    mags = np.sqrt(np.sum(vals ** 2, axis=1))
    assert float(mags.max()) <= 0.5 + 1e-12


def test_nr_sample_matches_scalar_oracle():
    for seed, n in [(1, 2), (2, 3), (3, 5)]:
        T = random_qmatrix(seed, n)
        m = 40
        vals = qr.nr_sample(T, m, seed=seed)
        vecs = reconstruct_sample_vectors(n, m, seed)
        oracle = slow_nr_values(T, vecs)
        for got, want in zip(vals, oracle):
            assert np.max(np.abs(got - want.to_array())) <= 1e-12


def test_nr_sample_block_structure_consistent():
    # block + diagonal routing must agree with the dense path
    block = random_qmatrix(4, 2)
    tail = np.array([[0.1, 0.2, 0.0, 0.0], [0.0, -0.3, 0.4, 0.0]])
    T = qr.QMatrix.block_diag(block, tail)
    dense = qr.QMatrix(T.arr + 0.0)
    jitter = dense.arr.copy()
    jitter[0, 3, :] = 1e-300  # force the dense path without changing values
    dense = qr.QMatrix(jitter)
    assert dense.block_split() == 4
    v1 = qr.nr_sample(T, 200, seed=9)
    v2 = qr.nr_sample(dense, 200, seed=9)
    assert np.max(np.abs(v1 - v2)) <= 1e-12


def test_nr_sample_deterministic():
    T = random_qmatrix(5, 3)
    a = qr.nr_sample(T, 1000, seed=42)
    b = qr.nr_sample(T, 1000, seed=42)
    assert np.array_equal(a, b)


# -- support function -----------------------------------------------------------------


def test_support_single_sphere():
    q = Quaternion(0.7, 0.3, -0.4, 1.2)
    T = qr.QMatrix.diag([q])
    for theta in np.linspace(0, math.pi, 13):
        want = q.w * math.cos(theta) + q.im_norm() * math.sin(theta)
        assert qr.upper_bild_support(T, float(theta)) == pytest.approx(want, abs=1e-9)


def test_support_identity():
    T = qr.QMatrix.identity(2)
    for theta in (0.0, 0.5, math.pi / 2, math.pi):
        assert qr.upper_bild_support(T, theta) == pytest.approx(math.cos(theta),
                                                                abs=1e-9)


def test_support_worked_block_at_right_angle():
    T = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0)])
    assert qr.upper_bild_support(T, math.pi / 2) == pytest.approx(1.0, abs=1e-9)


def test_support_rejects_out_of_range():
    T = qr.QMatrix.identity(2)
    with pytest.raises(ValueError):
        qr.upper_bild_support(T, -0.5)
    with pytest.raises(ValueError):
        qr.support_offsets(T, np.array([4.0]))


def test_support_batch_matches_scalar():
    T = random_qmatrix(6, 3)
    thetas = np.linspace(0, math.pi, 17)
    offsets = qr.support_offsets(T, thetas)
    for t, h in zip(thetas, offsets):
        assert h == pytest.approx(qr.upper_bild_support(T, float(t)), abs=1e-9)


def test_support_dominates_samples():
    T = random_qmatrix(7, 4)
    vals = qr.bild_points(qr.nr_sample(T, 5000, seed=0))
    thetas = np.linspace(0, math.pi, 90)
    offsets = qr.support_offsets(T, thetas)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    assert float((vals @ dirs.T - offsets[None, :]).max()) <= 1e-9


# -- the bild region ------------------------------------------------------------------


def test_upper_bild_scalar_point():
    region = qr.upper_bild(3.0 * qr.QMatrix.identity(2), m=2000, k=90, seed=1)
    assert region.hausdorff_gap <= 1e-9
    assert hausdorff_convex(region.outer_polygon, np.array([(3.0, 0.0)])) <= 1e-9


def test_upper_bild_single_imaginary_sphere():
    # true region is the point (0, 1); the outer polygon keeps the
    # support-unreachable stem down to b = 0, so the gap equals 1
    region = qr.upper_bild(qr.QMatrix.diag([I]), m=2000, k=90, seed=1)
    assert np.allclose(region.inner_hull, [[0.0, 1.0]], atol=1e-9)
    assert region.outer_polygon[:, 0] == pytest.approx(0.0, abs=1e-9)
    assert region.outer_polygon[:, 1].max() == pytest.approx(1.0, abs=1e-9)
    assert region.hausdorff_gap == pytest.approx(1.0, abs=1e-6)
    assert region.support_gap <= 1e-9
    # mirrored across b = 0, both polygons are the segment from -i to i
    assert hausdorff_convex(mirrored(region.inner_hull),
                            mirrored(region.outer_polygon)) <= 1e-9


def _block_plus_diagonal():
    arr = np.zeros((5, 5, 4))
    arr[:2, :2] = random_qmatrix(21, 2).arr
    arr[2, 2] = (3.0, 0.5, 0.0, 0.0)  # the tail attains the theta = 0 support
    arr[3, 3] = (-0.5, 0.0, 0.75, 0.0)
    arr[4, 4] = (0.2, 0.1, 0.1, -0.3)
    return qr.QMatrix(arr)


@pytest.mark.parametrize("T", [random_qmatrix(20, 3), _block_plus_diagonal()],
                         ids=["dense", "block_plus_diagonal"])
def test_upper_bild_boundary_points_attain_support(T):
    region = qr.upper_bild(T, m=500, k=120, seed=7)
    dirs = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
    reach = region.boundary_points @ dirs.T
    assert region.boundary_points.shape == (120, 2)
    assert np.max(np.abs(np.diag(reach) - region.offsets)) <= 1e-9
    assert float((reach - region.offsets[None, :]).max()) <= 1e-9
    assert region.support_gap <= 1e-9
    for j in range(0, 120, 17):
        want = qr.upper_bild_support(T, float(region.thetas[j]))
        assert region.offsets[j] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("shift", [(1e-6, 0.0), (0.0, 1e-6)], ids=["h_raised", "point_pushed"])
def test_upper_bild_rejects_boundary_points_off_their_lines(monkeypatch, shift):
    exact = numrange._support_points

    def perturbed(T, thetas):
        h, points = exact(T, thetas)
        return h + shift[0], points + np.array([0.0, shift[1]])

    monkeypatch.setattr(numrange, "_support_points", perturbed)
    with pytest.raises(NumericalError, match="support lines"):
        qr.upper_bild(random_qmatrix(20, 3), m=100, k=60, seed=7)


def test_upper_bild_tail_boundary_points_are_diagonal_classes():
    region = qr.upper_bild(_block_plus_diagonal(), m=500, k=120, seed=7)
    assert np.array_equal(region.boundary_points[0], [3.0, 0.5])


def test_upper_bild_inner_points_are_the_samples():
    T = _block_plus_diagonal()
    region = qr.upper_bild(T, m=777, k=60, seed=3)
    assert len(region.inner_points) == 777
    assert np.array_equal(region.inner_points, qr.bild_points(qr.nr_sample(T, 777, 3)))


def test_upper_bild_worked_block():
    # inner region approaches the triangle conv{(-1,1),(1,1),(0,0)}; the
    # support polygon is its upward-supported envelope [-1,1] x [0,1]
    T = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0)])
    # 3601 angles put pi/2 on the grid, so the flat top edge is cut exactly
    region = qr.upper_bild(T, m=100000, k=3601, seed=4)
    square = np.array([(-1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 1.0)])
    assert hausdorff_convex(region.outer_polygon, qr.convex_hull(square)) <= 1e-6
    triangle = qr.convex_hull(np.array([(-1.0, 1.0), (1.0, 1.0), (0.0, 0.0)]))
    # sampled inner hull sits inside the triangle and fills it
    assert float(points_polygon_distance(triangle, region.inner_hull).max()) <= 1e-9
    assert hausdorff_convex(region.inner_hull, triangle) <= 0.08


def test_upper_bild_inner_within_outer():
    T = random_qmatrix(8, 3)
    region = qr.upper_bild(T, m=20000, k=180, seed=5)
    dirs = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
    slack = float((region.inner_points @ dirs.T - region.offsets[None, :]).max())
    assert slack <= 1e-9
    assert region.inner_points[:, 1].min() >= 0.0


def test_upper_bild_nested_angle_grids():
    # a refinement containing the coarse angles can only shrink the polygon
    T = random_qmatrix(9, 3)
    coarse = qr.upper_bild(T, m=100, k=60, seed=6)
    fine = qr.upper_bild(T, m=100, k=119, seed=6)  # contains the 60-angle grid
    dirs = np.stack([np.cos(coarse.thetas), np.sin(coarse.thetas)], axis=1)
    fine_support = (fine.outer_polygon @ dirs.T).max(axis=0)
    assert float((fine_support - coarse.offsets).max()) <= 1e-9


def test_upper_bild_real_affine_scaling():
    # region of aT + bI is the (a, b)-affine image of the region of T
    T = random_qmatrix(10, 3)
    thetas = np.linspace(0, math.pi, 45)
    h = qr.support_offsets(T, thetas)
    for a, b in [(2.0, -1.0), (0.5, 3.0)]:
        S = a * T + b * qr.QMatrix.identity(3)
        hs = qr.support_offsets(S, thetas)
        want = a * h + b * np.cos(thetas)
        assert np.max(np.abs(hs - want)) <= 1e-9
    # negative a reflects the angle grid
    a, b = -1.5, 0.25
    S = a * T + b * qr.QMatrix.identity(3)
    hs = qr.support_offsets(S, thetas)
    want = abs(a) * qr.support_offsets(T, math.pi - thetas) + b * np.cos(thetas)
    assert np.max(np.abs(hs - want)) <= 1e-9


def test_refined_values_are_genuine():
    T = random_qmatrix(11, 4)
    vals = qr.refined_values(T, gammas=17, psis=9)
    thetas = np.linspace(0, math.pi, 60)
    offsets = qr.support_offsets(T, thetas)
    pts = qr.bild_points(vals)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    assert float((pts @ dirs.T - offsets[None, :]).max()) <= 1e-9


@pytest.mark.parametrize("pair", [(0, 1), (2, 4)], ids=["dense", "diagonal"])
def test_pair_values_match_scalar_oracle(monkeypatch, pair):
    T = _block_plus_diagonal()
    exact = numrange.rotation_aligning
    us = []

    def recording(v_from, v_to):
        u = exact(v_from, v_to)
        us.append(u.to_array())
        return u

    monkeypatch.setattr(numrange, "rotation_aligning", recording)
    gammas = np.linspace(0.0, math.pi / 2.0, 7)
    psis = np.linspace(0.0, math.pi, 5)
    vals = numrange._pair_values(T, *pair, gammas, psis)
    assert vals.shape == (len(gammas) * len(psis), 4) and len(us) == len(psis)
    vecs = []
    for g in gammas:
        for u in us:
            x = np.zeros((T.n, 4))
            x[pair[0], 0] = math.cos(g)
            x[pair[1]] = math.sin(g) * u
            vecs.append(x)
    oracle = np.array([q.to_array() for q in slow_nr_values(T, vecs)])
    assert np.max(np.abs(vals - oracle)) <= 1e-12


@pytest.mark.parametrize("T", [random_qmatrix(22, 3), _block_plus_diagonal()],
                         ids=["dense", "block_plus_diagonal"])
def test_value_and_grad_match_oracle_and_differences(T):
    chi = T.complex_rep()
    x = random_unit_qvector(23, T.n).arr
    val, grads = numrange._value_and_grad(chi, x)
    assert np.max(np.abs(val - slow_nr_values(T, [x])[0].to_array())) <= 1e-12
    step = 1e-6
    for idx in np.ndindex(x.shape):
        dx = np.zeros_like(x)
        dx[idx] = step
        diff = (slow_nr_values(T, [x + dx])[0].to_array()
                - slow_nr_values(T, [x - dx])[0].to_array()) / (2.0 * step)
        assert np.max(np.abs(grads[idx] - diff)) <= 1e-6


def test_refined_values_reach_diagonal_classes():
    T = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0),
                         Quaternion(0, 0.3, 0, 0)])
    pts = qr.bild_points(qr.refined_values(T, gammas=33, psis=17))
    for corner in [(-1.0, 1.0), (1.0, 1.0), (0.0, 0.3)]:
        assert float(np.min(np.linalg.norm(pts - np.array(corner), axis=1))) <= 1e-12


# -- real section ---------------------------------------------------------------------


def test_real_section_identity():
    rs = qr.real_section(qr.QMatrix.identity(3), m=2000, seed=0)
    assert rs.lo == pytest.approx(1.0, abs=1e-9)
    assert rs.hi == pytest.approx(1.0, abs=1e-9)


def test_real_section_opposed_imaginaries():
    # two copies of the same imaginary class cancel at equal weights
    T = qr.QMatrix.diag([I, I])
    rs = qr.real_section(T, m=2000, seed=0)
    assert rs.lo == pytest.approx(0.0, abs=1e-9)
    assert rs.hi == pytest.approx(0.0, abs=1e-9)


def test_real_section_worked_block():
    T = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0)])
    rs = qr.real_section(T, m=2000, seed=0)
    assert rs.lo == pytest.approx(0.0, abs=1e-6)
    assert rs.hi == pytest.approx(0.0, abs=1e-6)


def test_real_section_impossible_for_single_imaginary_sphere():
    # W(diag(i)) is the unit imaginary sphere, which misses the real axis
    with pytest.raises(qr.RealSectionError):
        qr.real_section(qr.QMatrix.diag([I]), m=500, seed=0)


def test_real_section_within_support_bounds():
    for seed in (1, 2, 3):
        T = random_qmatrix(30 + seed, 3)
        rs = qr.real_section(T, m=10000, seed=seed)
        hi = qr.upper_bild_support(T, 0.0)
        lo = -qr.upper_bild_support(T, math.pi)
        assert lo - 1e-9 <= rs.lo <= rs.hi <= hi + 1e-9
