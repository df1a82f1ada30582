import math

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion
from quatrange.geometry import (
    halfplane_intersection,
    hausdorff_convex,
    points_polygon_distance,
    upper_support_polygon,
)
from quatrange import numrange
from quatrange.eigen import NumericalError
from quatrange.numrange import _CHUNK_BUDGET, _rng
from quatrange.quaternion import CONJ_SIGNS, HAMILTON, qconj, qconjugator

from conftest import (
    mirrored,
    random_qmatrix,
    random_unit_qvector,
    seeded_model_operator,
    slow_nr_values,
)

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


def test_bild_points_sums_like_np_sum():
    # magnitudes 1e-12 .. 1e11 make any other summation order round differently
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4000, 4)) * 10.0 ** rng.integers(-12, 12, (4000, 4))
    want = np.stack([values[:, 0], np.sqrt(np.sum(values[:, 1:] ** 2, axis=1))], axis=1)
    assert qr.bild_points(values).tobytes() == want.tobytes()


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
    # a diagonal part is sampled on chi(T) like any block
    cases = [(seed, random_qmatrix(seed, n)) for seed, n in [(1, 2), (2, 3), (3, 5)]]
    cases += [(6, _block_plus_diagonal()), (6, qr.truncate(qr.remark_operator(), 12))]
    for seed, T in cases:
        m = 40
        vals = qr.nr_sample(T, m, seed=seed)
        vecs = reconstruct_sample_vectors(T.n, m, seed)
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


@pytest.mark.parametrize("T", [random_qmatrix(6, 3), qr.QMatrix.diag([I, Quaternion(1.0)])],
                         ids=["dense", "diagonal"])
@pytest.mark.parametrize("thetas", [[math.nan], [0.5, math.nan], [math.inf], [-math.inf],
                                    np.linspace(0.0, math.pi, 6).reshape(2, 3)],
                         ids=["nan", "nan_among_good", "inf", "minus_inf", "two_d"])
def test_support_rejects_bad_angle_arrays(T, thetas):
    with pytest.raises(ValueError, match="support angles"):
        qr.support_offsets(T, np.asarray(thetas))
    with pytest.raises(ValueError, match="support angles"):
        numrange._support_points(T, np.asarray(thetas))


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
    # true region is the point (0, 1); upper_bild gives it in closed form,
    # with only the rounding pad between the point and its outer polygon
    exact = qr.upper_bild(qr.QMatrix.diag([I]), m=2000, k=90, seed=1)
    assert np.array_equal(exact.inner_hull, [[0.0, 1.0]])
    assert exact.hausdorff_gap <= 1e-12 * 2.0 * math.sqrt(2.0) * (1.0 + 1e-9)
    # the sampled route's outer polygon keeps the support-unreachable stem
    # down to b = 0, so its gap equals 1
    region = numrange._sampled_bild(qr.QMatrix.diag([I]), 2000, 90, 1)
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


def _unfolded_support_points(T, thetas):
    """One eigh per angle on the dense block's H(t), top eigenpair only; tail in closed form."""
    b = T.block_split()
    h = np.full(len(thetas), -np.inf)
    points = np.zeros((len(thetas), 2))
    if b > 0:
        chi = qr.QMatrix(T.arr[:b, :b, :]).complex_rep()
        herm_re = 0.5 * (chi + chi.conj().T)
        herm_im = 0.5j * (chi.conj().T - chi)
        for j, t in enumerate(thetas):
            vals, vecs = np.linalg.eigh(math.cos(t) * herm_re + math.sin(t) * herm_im)
            top = vecs[:, -1]
            h[j] = vals[-1]
            points[j] = qr.bild_points(numrange._chi_values(top, chi @ top)[None, :])[0]
    if b < T.n:
        tail = qr.bild_points(T.diagonal()[b:, :])
        for j, t in enumerate(thetas):
            reach = math.cos(t) * tail[:, 0] + math.sin(t) * tail[:, 1]
            if reach.max() > h[j]:
                h[j] = reach.max()
                points[j] = tail[np.argmax(reach)]
    return h, points


def _remark_section_with_dense_block():
    arr = qr.truncate(qr.remark_operator(), 6).arr.copy()
    arr[0, 1, 0] = 1e-300  # route the 2 x 2 block through the eigen solve, values unchanged
    return qr.QMatrix(arr)


def _fold_angle_sets():
    grids = [np.linspace(0.0, math.pi, k) for k in (3, 4, 360, 361)]
    rng = np.random.default_rng(12)
    shuffled = rng.permutation(grids[2])[:97]
    duplicates = np.concatenate([grids[1], grids[1][::-1], [math.pi / 2] * 3, grids[0]])
    return grids + [g[::-1] for g in grids] + [
        shuffled, duplicates, np.array([math.pi / 2]), np.array([0.0]), np.array([math.pi]),
        np.array([])]


@pytest.mark.parametrize("T", [random_qmatrix(60 + n, n) for n in range(1, 7)]
                         + [_block_plus_diagonal(), _remark_section_with_dense_block(),
                            qr.truncate(qr.remark_operator(), 6)],
                         ids=[f"dense_{n}" for n in range(1, 7)]
                         + ["block_plus_diagonal", "remark_dense_block", "remark_diagonal"])
def test_folded_support_matches_unfolded_solve(T):
    for thetas in _fold_angle_sets():
        want, _ = _unfolded_support_points(T, thetas)
        h, points = numrange._support_points(T, thetas)
        assert h.shape == points.shape[:1] == thetas.shape
        if not len(thetas):
            continue
        scale = 1.0 + np.abs(want).max()
        assert np.abs(h - want).max() <= 1e-12 * scale
        assert np.abs(qr.support_offsets(T, thetas) - want).max() <= 1e-12 * scale
        reach = points[:, 0] * np.cos(thetas) + points[:, 1] * np.sin(thetas)
        assert np.abs(reach - h).max() <= 1e-9 * scale


def _solve_sizes(monkeypatch):
    """Stack sizes of every eigh, eigvalsh and solve call, by name."""
    sizes = {"eigh": [], "eigvalsh": [], "solve": []}
    for name, seen in sizes.items():
        solve = getattr(np.linalg, name)

        def counted(a, *args, _solve=solve, _seen=seen, **kwargs):
            _seen.append(a.shape[0] if a.ndim == 3 else 1)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return sizes


def test_support_solves_once_per_mirrored_angle_pair(monkeypatch):
    # h from eigvalsh, no eigenvectors; each end's vector from one shifted solve
    sizes = _solve_sizes(monkeypatch)
    T = random_qmatrix(23, 5)
    for k in (360, 361):
        for seen in sizes.values():
            seen.clear()
        qr.upper_bild(T, m=200, k=k, seed=1)
        assert sizes["eigh"] == []
        assert sum(sizes["eigvalsh"]) == (k + 1) // 2
        assert max(sizes["eigvalsh"]) <= numrange._ANGLE_CHUNK
        assert sizes["solve"] == [size for size in sizes["eigvalsh"] for _ in range(2)]
    for seen in sizes.values():
        seen.clear()
    unmirrored = np.random.default_rng(4).uniform(0.0, math.pi / 2, 70)
    qr.support_offsets(T, unmirrored)
    assert sizes["eigh"] == []
    assert sum(sizes["eigvalsh"]) == 70
    assert max(sizes["eigvalsh"]) <= numrange._ANGLE_CHUNK


def _doubled_block(A, shift=0.0):
    """diag(A, A + shift I) as one dense block.

    Each eigenvalue of H(t) has a twin shift cos(t) above it.
    """
    n = A.n
    arr = np.zeros((2 * n, 2 * n, 4))
    arr[:n, :n] = A.arr
    arr[n:, n:] = A.arr
    arr[n + np.arange(n), n + np.arange(n), 0] += shift
    return qr.QMatrix(arr)


def _clustered_block(width=1e-11):
    A = random_qmatrix(24, 3)
    h = qr.support_offsets(A, np.linspace(0.0, math.pi, 181))
    return _doubled_block(A, shift=width * (1.0 + np.abs(h).max()))


def _twice_identity_through_the_block():
    arr = 2.0 * qr.QMatrix.identity(3).arr
    arr[0, 2, 0] = 1e-300  # route all of it through the eigen solve, values unchanged
    return qr.QMatrix(arr)


@pytest.mark.parametrize("T, width", [(_twice_identity_through_the_block(), 0.0),
                                      (_doubled_block(random_qmatrix(24, 3)), 0.0),
                                      (_clustered_block(), 1e-11)],
                         ids=["twice_identity", "repeated_top", "clustered_top"])
def test_support_points_at_repeated_and_clustered_extreme_eigenvalues(T, width):
    # the shifted solve lands anywhere in a repeated or clustered end's
    # eigenspace, and any unit vector there attains h within the cluster's width
    thetas = np.linspace(0.0, math.pi, 181)
    want, _ = _unfolded_support_points(T, thetas)
    scale = 1.0 + np.abs(want).max()
    assert T.block_split() == T.n
    chi = T.complex_rep()
    t = thetas[1]  # off t = 0, where every eigenvalue of H(t) is doubled anyway
    top = np.linalg.eigvalsh(math.cos(t) * 0.5 * (chi + chi.conj().T)
                             + math.sin(t) * 0.5j * (chi.conj().T - chi))[-2:]
    assert top[1] - top[0] == pytest.approx(width * math.cos(t) * scale,
                                            rel=1e-3, abs=1e-14 * scale)
    region = qr.upper_bild(T, m=200, k=len(thetas), seed=5)
    assert np.abs(region.offsets - want).max() <= 1e-12 * scale
    reach = np.einsum("ij,ij->i", region.boundary_points,
                      np.stack([np.cos(thetas), np.sin(thetas)], axis=1))
    assert np.abs(reach - region.offsets).max() <= 1e-9 * scale


@pytest.mark.parametrize("k", [3, 4, 360, pytest.param(3601, marks=pytest.mark.slow)])
def test_upper_support_polygon_matches_clipping_reference(k):
    # the reference clips a box with k Sutherland-Hodgman passes, one to two
    # seconds per smooth region at k = 3601
    thetas = np.linspace(0.0, math.pi, k)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    point_regions = [3.0 * qr.QMatrix.identity(2), qr.QMatrix.zeros(2)]
    matrices = [random_qmatrix(40 + n, n) for n in range(1, 5)] + [
        _block_plus_diagonal(),
        qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0)]),
        qr.QMatrix.diag([I]),
    ] + point_regions
    cases = [(T.frobenius(), qr.support_offsets(T, thetas)) for T in matrices]
    # support values of a random convex point set in b >= 0
    pts = np.random.default_rng(8).uniform((-2.0, 0.0), (2.0, 3.0), size=(30, 2))
    cases.append((float(np.linalg.norm(pts, axis=1).max()), (pts @ dirs.T).max(axis=0)))
    for bound, h in cases:
        h = h + 1e-12 * (1.0 + np.abs(h).max())
        constraints = [(math.cos(t), math.sin(t), c) for t, c in zip(thetas, h)]
        constraints += [(0.0, -1.0, 0.0), (1.0, 0.0, bound), (-1.0, 0.0, bound)]
        want = halfplane_intersection(constraints, bound + 1.0)
        got = upper_support_polygon(thetas, h)
        assert hausdorff_convex(got, want) <= 1e-9 * (1.0 + np.abs(h).max())
    # a point region collapses to a point or a segment of rounding length
    for T in point_regions:
        h = qr.support_offsets(T, thetas)
        assert len(upper_support_polygon(thetas, h + 1e-12 * (1.0 + np.abs(h).max()))) <= 2


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
    # the sampled route samples the whole matrix, tail included
    T = _block_plus_diagonal()
    region = numrange._sampled_bild(T, 777, 60, 3)
    assert len(region.inner_points) == 777
    assert np.array_equal(region.inner_points, qr.bild_points(qr.nr_sample(T, 777, 3)))


def test_upper_bild_worked_block():
    # the region is the triangle conv{(-1,1),(1,1),(0,0)}, exact for this
    # diagonal matrix; the sampled route's inner region approaches it, and
    # its support polygon is the upward-supported envelope [-1,1] x [0,1]
    T = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0)])
    exact = qr.upper_bild(T, m=100000, k=3601, seed=4)
    # 3601 angles put pi/2 on the grid, so the flat top edge is cut exactly
    region = numrange._sampled_bild(T, 100000, 3601, 4)
    square = np.array([(-1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 1.0)])
    assert hausdorff_convex(region.outer_polygon, qr.convex_hull(square)) <= 1e-6
    triangle = qr.convex_hull(np.array([(-1.0, 1.0), (1.0, 1.0), (0.0, 0.0)]))
    # sampled inner hull sits inside the triangle and fills it
    assert float(points_polygon_distance(triangle, region.inner_hull).max()) <= 1e-9
    assert hausdorff_convex(region.inner_hull, triangle) <= 0.08
    assert np.array_equal(exact.inner_hull, triangle)
    assert hausdorff_convex(exact.outer_polygon, triangle) <= 1e-9


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


# -- the diagonal closed form -----------------------------------------------------------


def _seeded_diagonals(count=48):
    """Diagonal matrices with n = 2..8; some entries real (b_k = 0), some repeated."""
    out = []
    for seed in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(31,)))
        n = 2 + seed % 7
        d = rng.standard_normal((n, 4))
        d[rng.random(n) < 0.3, 1:] = 0.0
        if seed % 5 == 0:
            d[-1] = d[0]
        out.append(qr.QMatrix.diag(list(d)))
    return out


def test_diagonal_bild_pairs_distinct_indices():
    # one entry's values are its sphere: no (a, 0) from pairing k with itself
    assert np.array_equal(qr.diagonal_bild(qr.QMatrix.diag([I])).inner_hull, [[0.0, 1.0]])
    # two equal entries at different indices cancel their imaginary parts
    poly = qr.diagonal_bild(qr.QMatrix.diag([Quaternion(1, 1, 0, 0)] * 2)).inner_hull
    assert points_polygon_distance(poly, np.array([(1.0, 0.0)]))[0] == 0.0
    assert np.array_equal(poly, [[1.0, 0.0], [1.0, 1.0]])


def _diagonal_vertices(T):
    """numrange._diagonal_vertices on T's diagonal, its bild points and their hull."""
    d = T.diagonal()
    lam = qr.bild_points(d)
    return numrange._diagonal_vertices(d, lam, qr.convex_hull(lam))


def _reference_diagonal_vertices(T):
    """The former _diagonal_vertices: the hull of every candidate, each vertex looked up in a
    dict of them."""
    d = T.diagonal()
    lam = qr.bild_points(d)
    pairs = numrange._axis_pairs(lam)
    axis = [((lam[k, 0] * lam[l, 1] + lam[l, 0] * lam[k, 1]) / (lam[k, 1] + lam[l, 1]), 0.0)
            for k, l in pairs]
    cands = np.vstack([lam, np.array(axis).reshape(-1, 2)])
    poly = qr.convex_hull(cands)
    where = {tuple(p): i for i, p in enumerate(cands)}
    coords, xs = [], []
    for p in poly:
        i = where[tuple(p)]
        if i < len(lam):
            coords.append((i,))
            xs.append(np.array([[1.0, 0.0, 0.0, 0.0]]))
            continue
        k, l = pairs[i - len(lam)]
        w = lam[l, 1] / (lam[k, 1] + lam[l, 1])
        u = qconjugator(d[l], qconj(d[k]))
        coords.append((k, l))
        xs.append(np.array([[math.sqrt(w), 0.0, 0.0, 0.0], math.sqrt(1.0 - w) * u]))
    return poly, coords, xs


def test_diagonal_vertices_match_the_candidate_dict():
    # repeated entries, signed zeros and rounded values give equal candidates,
    # of which the dict kept the last
    rng = np.random.default_rng(np.random.SeedSequence(27, spawn_key=(2,)))
    for trial in range(400):
        n = int(rng.integers(1, 80))
        vals = rng.standard_normal((n, 4))
        if trial % 4 == 1:
            vals = vals[rng.integers(0, max(1, n // 3), n)]
        elif trial % 4 == 2:
            vals[:, 2:] = 0.0
            vals[rng.random(n) < 0.5, 1] = -0.0
            vals[rng.random(n) < 0.5, 0] = -0.0
        elif trial % 4 == 3:
            vals = np.round(vals, 1)
        T = qr.QMatrix.diag(vals)
        poly, coords, xs = _diagonal_vertices(T)
        want_poly, want_coords, want_xs = _reference_diagonal_vertices(T)
        assert poly.tobytes() == want_poly.tobytes() and coords == want_coords
        assert [x.tobytes() for x in xs] == [x.tobytes() for x in want_xs]


def test_diagonal_bild_contains_fixed_weight_intervals():
    # at weights w_k = |x_k|^2 the values fill a = sum w_k a_k and
    # b in [max(0, 2 max_k w_k b_k - sum w_k b_k), sum w_k b_k]
    checked = 0
    for seed, T in enumerate(_seeded_diagonals()):
        poly = qr.diagonal_bild(T, k=60).inner_hull
        lam = qr.bild_points(T.diagonal())
        n = T.n
        rng = np.random.default_rng(seed)
        for support in sorted({2, min(3, n), n}):
            for _ in range(60):
                idx = rng.choice(n, size=support, replace=False)
                w = np.zeros(n)
                w[idx] = rng.dirichlet(np.ones(support))
                r = w * lam[:, 1]
                a = float(w @ lam[:, 0])
                top = float(r.sum())
                bottom = max(0.0, 2.0 * float(r.max()) - top)
                ends = np.array([(a, top), (a, bottom)])
                assert points_polygon_distance(poly, ends).max() <= 1e-12
                checked += 1
    assert checked >= 40 * 60 * 2


def test_diagonal_bild_vertices_attained():
    matrices = _seeded_diagonals() + [
        qr.QMatrix.diag([Quaternion(1, 1, 0, 0)] * 2),
        qr.truncate(qr.remark_operator(), 50),
    ]
    pair_vertices = 0
    for T in matrices:
        poly, coords, xs = _diagonal_vertices(T)
        assert np.array_equal(qr.diagonal_bild(T).inner_hull, poly)
        for vertex, c, entries in zip(poly, coords, xs):
            x = np.zeros((T.n, 4))
            x[list(c)] = entries
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
            value = slow_nr_values(T, [x])[0].to_array()
            assert np.max(np.abs(qr.bild_points(value[None, :])[0] - vertex)) <= 1e-12
            pair_vertices += len(c) == 2
    assert pair_vertices >= 40


@pytest.mark.parametrize("fault", ["vertex_moved", "rotation_dropped"])
def test_diagonal_bild_rejects_inexact_vertex(monkeypatch, fault):
    exact = numrange._diagonal_vertices

    def perturbed(*args):
        poly, coords, xs = exact(*args)
        v = next(i for i, c in enumerate(coords) if len(c) == 2)
        if fault == "vertex_moved":
            poly = poly.copy()
            poly[v, 0] += 1e-9
        else:
            xs[v] = xs[v].copy()
            xs[v][1] = (np.linalg.norm(xs[v][1]), 0.0, 0.0, 0.0)
        return poly, coords, xs

    monkeypatch.setattr(numrange, "_diagonal_vertices", perturbed)
    T = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 0, 0.5, 0)])
    with pytest.raises(NumericalError, match="not exact"):
        qr.diagonal_bild(T)


def _diagonal_tail_sections():
    """Remark sections and the diagonal tails of seeded DecayingPeriodicTail sections."""
    remark = qr.remark_operator()
    out = [qr.truncate(remark, N) for N in (1, 2, 3, 50, 500)]
    for seed in range(3):
        T = qr.truncate(seeded_model_operator(seed), 40)
        out.append(qr.QMatrix.diag(T.diagonal()[T.block_split():]))
    return out


def test_vertex_check_catches_every_moved_vertex(monkeypatch):
    # a vertex moved by 1e-9, single-coordinate or pair, misses the value of
    # its vector by that much, far above the 1e-12 (1 + max |h|) threshold
    exact = numrange._diagonal_vertices
    for T in _diagonal_tail_sections():
        count = len(_diagonal_vertices(T)[1])
        for v in range(count):
            def moved(*args, v=v):
                poly, coords, xs = exact(*args)
                poly = poly.copy()
                poly[v, 1] += 1e-9
                return poly, coords, xs

            monkeypatch.setattr(numrange, "_diagonal_vertices", moved)
            with pytest.raises(NumericalError, match=r"value by 1\.0\d*e-09"):
                qr.diagonal_bild(T)
        monkeypatch.setattr(numrange, "_diagonal_vertices", exact)
        qr.diagonal_bild(T)


def test_diagonal_bild_region_is_exact():
    T = qr.truncate(qr.remark_operator(), 200)
    region = qr.diagonal_bild(T, k=90)
    pad = 1e-12 * (1.0 + np.abs(region.offsets).max())
    assert np.array_equal(region.inner_hull, region.inner_points)
    # the outer polygon is the inner one widened by the rounding pad, cut at b = 0
    assert 0.0 < region.hausdorff_gap <= pad * math.sqrt(2.0) * (1.0 + 1e-9)
    assert region.outer_polygon[:, 1].min() == 0.0
    assert points_polygon_distance(region.outer_polygon, region.inner_hull).max() == 0.0
    assert abs(region.support_gap) <= 1e-12
    assert np.max(np.abs(region.offsets - qr.support_offsets(T, region.thetas))) == 0.0
    with pytest.raises(ValueError, match="diagonal"):
        qr.diagonal_bild(_block_plus_diagonal())


# -- the axis pairs, against the former O(N^2) scan ----------------------------------

_PAIR_BUDGET = 1 << 18  # pair values per row chunk of the closed form


def _reference_axis_pairs(lam: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs k < l attaining the least and the largest c_kl.

    c_kl = (a_k b_l + a_l b_k) / (b_k + b_l) over the pairs with
    b_k + b_l > 0, scanned in row chunks of about _PAIR_BUDGET values.
    Empty when no pair qualifies.
    """
    a, b = lam[:, 0], lam[:, 1]
    n = len(lam)
    cols = np.arange(n)
    rows = max(1, _PAIR_BUDGET // n)
    best = {+1.0: (np.inf, None), -1.0: (np.inf, None)}  # sign -> (sign * c, pair)
    for lo in range(0, n - 1, rows):
        hi = min(lo + rows, n - 1)
        bk = b[lo:hi, None]
        s = bk + b[None, :]
        live = (cols[None, :] > cols[lo:hi, None]) & (s > 0.0)
        if not live.any():
            continue
        c = (a[lo:hi, None] * b[None, :] + a[None, :] * bk) / np.where(live, s, 1.0)
        for sign in best:
            masked = np.where(live, sign * c, np.inf)
            r, l = divmod(int(np.argmin(masked)), n)
            if masked[r, l] < best[sign][0]:
                best[sign] = (masked[r, l], (lo + r, l))
    return [pair for _, pair in best.values() if pair is not None]


def _axis_pair_inputs():
    """Remark sections, seeded tails, and random class sets with zero-b and tied rows."""
    remark = [qr.bild_points(qr.truncate(qr.remark_operator(), N).diagonal())
              for N in (50, 200, 500, 2000)]
    seeded = []
    for seed in range(20):
        M = seeded_model_operator(seed)
        for N in (50, 100, 200, 500):
            T = qr.truncate(M, N)
            seeded.append(qr.bild_points(T.diagonal()[T.block_split():]))
    rng = np.random.default_rng(44)
    random_sets = []
    for trial in range(300):
        lam = np.column_stack([rng.standard_normal(1 + trial % 13),
                               np.abs(rng.standard_normal(1 + trial % 13))])
        lam[rng.random(len(lam)) < 0.3, 1] = 0.0
        if trial % 3 == 0:
            lam[rng.integers(len(lam))] = lam[0]
        if trial % 7 == 0:
            lam[:, 0] = np.round(lam[:, 0])
        if trial % 50 == 0:
            lam[:, 1] = 0.0
        random_sets.append(lam)
    return remark, seeded + random_sets


def _axis_values(lam, pairs):
    return np.array([(lam[k, 0] * lam[l, 1] + lam[l, 0] * lam[k, 1]) / (lam[k, 1] + lam[l, 1])
                     for k, l in pairs])


def test_axis_pairs_match_the_pair_scan():
    # the one-pass rule finds the scan's extreme values; where equal classes
    # repeat, a tied pair may round differently, so values agree to a few ulps
    remark, others = _axis_pair_inputs()
    for lam in remark:
        assert numrange._axis_pairs(lam) == _reference_axis_pairs(lam)
    for lam in remark + others:
        got, want = numrange._axis_pairs(lam), _reference_axis_pairs(lam)
        assert len(got) == len(want)
        assert all(k < l for k, l in got)
        scale = 1.0 + np.abs(lam[:, 0]).max()
        assert np.abs(_axis_values(lam, got) - _axis_values(lam, want)).max(
            initial=0.0) <= 4e-16 * scale
    assert numrange._axis_pairs(np.array([(0.5, 0.0), (-1.0, 0.0)])) == []
    assert numrange._axis_pairs(np.array([(0.5, 2.0)])) == []


# -- the composed region of a block-plus-diagonal section ---------------------------


def test_section_bild_crossing_is_attained_by_two_summands():
    # x = (sqrt(t) y, sqrt(1 - t) u e_k), with u turning the imaginary part
    # of d_k against that of q1 = <By, y> and t b1 = (1 - t) b2, attains the
    # crossing of p1 -- mirror(p2) with b = 0
    T = _block_plus_diagonal()
    y = random_unit_qvector(5, 2).arr
    q1 = slow_nr_values(qr.QMatrix(T.arr[:2, :2]), [y])[0].to_array()
    for k in range(2, T.n):
        d = T.arr[k, k]
        p1, p2 = qr.bild_points(np.array([q1, d]))
        t = p2[1] / (p1[1] + p2[1])
        x = np.zeros((T.n, 4))
        x[:2] = math.sqrt(t) * y
        x[k] = math.sqrt(1.0 - t) * qconjugator(d, qconj(q1))
        value = slow_nr_values(T, [x])[0].to_array()
        crossing = (t * p1[0] + (1.0 - t) * p2[0], 0.0, 0.0, 0.0)
        assert np.abs(value - crossing).max() <= 1e-12


@pytest.mark.parametrize("T", [_block_plus_diagonal(), random_qmatrix(30, 3),
                               qr.truncate(seeded_model_operator(0), 20)],
                         ids=["block_plus_diagonal", "dense", "seeded_section"])
def test_section_bild_offsets_are_the_section_support(T):
    region = qr.upper_bild(T, m=500, k=90, seed=2)
    assert np.array_equal(region.offsets, qr.support_offsets(T, region.thetas))
    dirs = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
    reach = (region.inner_hull @ dirs.T).max(axis=0)
    assert np.abs(reach - region.offsets).max() <= 1e-9 * (1.0 + np.abs(region.offsets).max())
    # a composed region's inner points are its polygon; a dense T's are samples
    has_tail = T.block_split() < T.n
    assert np.array_equal(region.inner_points, region.inner_hull) == has_tail
    assert points_polygon_distance(region.outer_polygon, region.inner_hull).max() == 0.0


@pytest.mark.parametrize("T", [_block_plus_diagonal(), qr.truncate(seeded_model_operator(0), 20)],
                         ids=["block_plus_diagonal", "seeded_section"])
def test_section_bild_holds_every_crossing_of_its_parts(T):
    # Q holds the block's inner hull A, the tail's polygon P and the point
    # where each segment from a vertex of A to a mirrored vertex of P meets b = 0
    b = T.block_split()
    Q = qr.upper_bild(T, m=500, k=90, seed=2).inner_hull
    A = numrange._sampled_bild(qr.QMatrix(T.arr[:b, :b]), 500, 90, 2).inner_hull
    P = qr.diagonal_bild(qr.QMatrix.diag(T.diagonal()[b:])).inner_hull
    a, p = np.repeat(A, len(P), axis=0), np.tile(P, (len(A), 1))
    live = a[:, 1] + p[:, 1] > 0.0
    s = a[live, 1] / (a[live, 1] + p[live, 1])
    crossings = np.stack([a[live, 0] + s * (p[live, 0] - a[live, 0]), np.zeros(len(s))], axis=1)
    assert points_polygon_distance(Q, np.vstack([A, P, crossings])).max() <= 1e-12


def test_section_bild_of_a_diagonal_section_is_diagonal_bild(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal matrix was sampled")

    monkeypatch.setattr(numrange, "nr_sample", refuse)
    for T in (qr.truncate(qr.remark_operator(), 50), qr.QMatrix.diag([I]),
              random_qmatrix(4, 1), _seeded_diagonals()[3]):
        assert T.block_split() == 0
        region, exact = qr.upper_bild(T, m=1, k=90, seed=7), qr.diagonal_bild(T, k=90)
        for name in ("inner_points", "inner_hull", "outer_polygon", "boundary_points",
                     "thetas", "offsets"):
            assert np.array_equal(getattr(region, name), getattr(exact, name))


# "section_bild" composes a block-plus-diagonal section; "upper_bild" samples a dense T
@pytest.mark.parametrize("build", ["section_bild", "upper_bild"])
def test_region_certificates_are_computed_where_read(monkeypatch, build):
    hausdorff = numrange.hausdorff_convex
    calls = []

    def counted(P, Q):
        calls.append(1)
        return hausdorff(P, Q)

    monkeypatch.setattr(numrange, "hausdorff_convex", counted)
    if build == "section_bild":
        region = qr.upper_bild(_block_plus_diagonal(), m=200, k=60)
    else:
        region = qr.upper_bild(random_qmatrix(25, 3), m=200, k=60)
    assert not calls
    gap = region.hausdorff_gap
    assert len(calls) == 1
    assert gap == hausdorff(region.inner_hull, region.outer_polygon)
    region.offsets = region.offsets + 0.25
    dirs = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
    assert region.support_gap == float(
        (region.offsets - (region.inner_hull @ dirs.T).max(axis=0)).max())
    assert region.support_gap >= 0.25 - 1e-9


def test_section_bild_rejects_a_shifted_support(monkeypatch):
    # the tail's h comes from its classes' hull (_hull_support)
    support = numrange._hull_support

    def shifted(hull, thetas):
        h, points = support(hull, thetas)
        return h + 1e-6, points

    monkeypatch.setattr(numrange, "_hull_support", shifted)
    with pytest.raises(NumericalError):
        qr.upper_bild(_block_plus_diagonal(), m=200, k=60)


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_section_bild_rejects_a_region_off_its_support_lines(monkeypatch, shift):
    # the block's offsets moved either way: Q misses h, or leaves a half-plane
    sampled_bild = numrange._sampled_bild

    def shifted(B, *args):
        region = sampled_bild(B, *args)
        region.offsets = region.offsets + shift
        return region

    monkeypatch.setattr(numrange, "_sampled_bild", shifted)
    with pytest.raises(NumericalError, match="composed"):
        qr.upper_bild(_block_plus_diagonal(), m=200, k=60)


def test_upper_bild_samples_only_the_block_of_a_block_plus_tail(monkeypatch):
    sampled = []
    nr_sample = numrange.nr_sample

    def counted(T, m, seed=0):
        sampled.append((T.n, m, seed))
        return nr_sample(T, m, seed)

    monkeypatch.setattr(numrange, "nr_sample", counted)
    for T in (_block_plus_diagonal(), qr.truncate(seeded_model_operator(0), 20)):
        sampled.clear()
        qr.upper_bild(T, m=300, k=60, seed=4)
        assert 0 < T.block_split() < T.n
        assert sampled == [(T.block_split(), 300, 4)]


def test_upper_bild_of_a_dense_matrix_is_the_sampled_region():
    for T in (random_qmatrix(30, 3), _dense_blocks_matrix(0, 4)):
        assert T.block_split() == T.n
        region = qr.upper_bild(T, m=400, k=90, seed=5)
        sampled = numrange._sampled_bild(T, 400, 90, 5)
        for name in ("inner_points", "inner_hull", "outer_polygon", "boundary_points",
                     "thetas", "offsets"):
            assert np.array_equal(getattr(region, name), getattr(sampled, name))


def test_upper_bild_rejects_no_samples_on_every_route():
    for T in (qr.QMatrix.diag([I]), _block_plus_diagonal(), random_qmatrix(30, 3)):
        with pytest.raises(ValueError, match="m must be positive"):
            qr.upper_bild(T, m=0)


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
    forms = numrange._section_forms(T.complex_rep())
    x = random_unit_qvector(23, T.n).arr
    val, grads = numrange._value_and_grad(forms, numrange._to_u(x))
    assert np.max(np.abs(val - slow_nr_values(T, [x])[0].to_array())) <= 1e-12
    step = 1e-6
    for idx in np.ndindex(x.shape):
        dx = np.zeros_like(x)
        dx[idx] = step
        diff = (slow_nr_values(T, [x + dx])[0].to_array()
                - slow_nr_values(T, [x - dx])[0].to_array()) / (2.0 * step)
        slope = (grads.conj() @ numrange._to_u(dx)).real / step
        assert np.max(np.abs(slope - diff)) <= 1e-6


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


def test_real_section_of_a_diagonal_matrix_spans_its_vertices_within_tol():
    # the closed form ignores m and seed: the vertex (0.2, 1e-8) is within tol,
    # and the pair of entries crosses b = 0 at c = (0.2 * 2 + 3 * 1e-8) / (2 + 1e-8);
    # a single entry above tol is the whole region, and its |Im| is reported
    T = qr.QMatrix.diag([Quaternion(0.2, 1e-8, 0.0, 0.0), Quaternion(3.0, 2.0, 0.0, 0.0)])
    for m, seed in ((1, 0), (500, 7)):
        rs = qr.real_section(T, m=m, seed=seed)
        assert rs.lo == 0.2
        assert rs.hi == pytest.approx((0.4 + 3e-8) / (2.0 + 1e-8), rel=1e-15)
    with pytest.raises(qr.RealSectionError) as err:
        qr.real_section(qr.QMatrix.diag([Quaternion(0.3, 0.0, 0.5, 0.0)]), m=500, seed=0)
    assert err.value.best_im == 0.5
    with pytest.raises(ValueError):
        qr.real_section(qr.QMatrix.identity(2), m=0)


def test_real_section_samples_nothing(monkeypatch):
    # the ascent's ends are the interval; m is still checked
    def refuse(*args, **kwargs):
        raise AssertionError("real_section sampled")

    monkeypatch.setattr(numrange, "nr_sample", refuse)
    for T in (random_qmatrix(25, 4), _block_plus_diagonal()):
        assert T.block_split() > 0
        for m in (1, 20000):
            rs = qr.real_section(T, m=m, seed=3)
            assert rs.lo <= rs.hi
        with pytest.raises(ValueError, match="m must be positive"):
            qr.real_section(T, m=0)


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
def test_real_section_rejects_a_bad_tolerance(bad):
    for T in (qr.QMatrix.diag([I]), random_qmatrix(3, 3)):
        with pytest.raises(ValueError, match="tol"):
            qr.real_section(T, m=500, tol=bad)


# -- the former quaternion-coordinate ascent, kept as the reference ----------------

def _reference_from_u(u):
    """Inverse of _to_u for one column: the quaternion vector (n, 4)."""
    n = u.shape[-1] // 2
    return np.stack([u[:n].real, u[:n].imag, -u[n:].real, u[n:].imag], axis=-1)


def _reference_value_and_grad(chi, x):
    """<Tx, x> and its gradients (n, 4, 4) in the real coordinates of x, from quaternion arrays."""
    u = numrange._to_u(x)
    cu = chi @ u
    y = _reference_from_u(cu)
    w = _reference_from_u((u.conj() @ chi).conj())
    val = numrange._chi_values(u, cu)
    # d/dx_l <T dx, x> has component c equal to [conj((T*x)_l) e_b]_c,
    # and d/dx_l <Tx, dx> equals [conj(e_b) (Tx)_l]_c.
    g1 = np.einsum("a,la,abc->lbc", CONJ_SIGNS, w, HAMILTON)
    g2 = np.einsum("b,ld,bdc->lbc", CONJ_SIGNS, y, HAMILTON)
    return val, g1 + g2


def _reference_refine_real(chi, x0, sign, penalty):
    x = x0 / np.linalg.norm(x0)
    step = 0.1

    def objective(val):
        im = math.sqrt(val[1] ** 2 + val[2] ** 2 + val[3] ** 2)
        return sign * val[0] - penalty * im, im

    val, grads = _reference_value_and_grad(chi, x)
    fx, im = objective(val)
    for _ in range(numrange._REFINE_ITERS):
        imn = math.sqrt(val[1] ** 2 + val[2] ** 2 + val[3] ** 2)
        w = np.zeros(4)
        w[0] = sign
        if imn > 1e-15:
            w[1:] = -penalty * val[1:] / imn
        g = grads @ w
        g -= np.sum(g * x) * x
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        moved = False
        while step > 1e-12:
            cand = x + step * g / gn
            cand /= np.linalg.norm(cand)
            cval, cgrads = _reference_value_and_grad(chi, cand)
            cf, cim = objective(cval)
            if cf > fx + 1e-15:
                x, val, grads, fx, im = cand, cval, cgrads, cf, cim
                step = min(step * 1.6, 0.5)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return float(val[0]), im


def _reference_real_section(T, m, seed, tol=1e-6):
    """The former real_section: no closed form, eigenvector starts only for n <= 48."""
    n = T.n
    found, best_im = [], np.inf
    for vals in (qr.refined_values(T, gammas=65, psis=9), qr.nr_sample(T, m, seed)):
        ims = np.sqrt(np.sum(vals[:, 1:] ** 2, axis=1))
        found.extend(vals[ims <= tol, 0].tolist())
        best_im = min(best_im, float(ims.min()))
    penalty = numrange._PENALTY_SCALE * (1.0 + T.frobenius())
    rng = _rng(seed, 2)
    starts = [numrange._unit_samples(rng, 1, n)[0] for _ in range(4)]
    chi = T.complex_rep()
    if n <= 48:
        vecs = np.linalg.eigh(0.5 * (chi + chi.conj().T))[1]
        starts += [_reference_from_u(vecs[:, -1]), _reference_from_u(vecs[:, 0])]
    for sign in (1.0, -1.0):
        for x0 in starts:
            re, im = _reference_refine_real(chi, x0, sign, penalty)
            best_im = min(best_im, im)
            if im <= tol:
                found.append(re)
    if not found:
        raise qr.RealSectionError(best_im)
    return qr.RealSection(lo=float(min(found)), hi=float(max(found)))


def _dense_blocks_matrix(i, n):
    """Row i of the dense_blocks benchmark workload at its default seed 20260808."""
    rng = np.random.default_rng(np.random.SeedSequence(3 * 20260808 + i, spawn_key=(11,)))
    return qr.QMatrix(rng.standard_normal((n, n, 4)))


@pytest.mark.parametrize("T, seed", [(_dense_blocks_matrix(0, 4), 20260808),
                                     (_dense_blocks_matrix(1, 30), 20260809),
                                     *[(random_qmatrix(40 + n, n), n) for n in range(1, 7)],
                                     (_block_plus_diagonal(), 3)],
                         ids=["dense4", "dense30", *[f"seeded{n}" for n in range(1, 7)],
                              "block_plus_diagonal"])
def test_real_section_matches_the_quaternion_ascent(T, seed):
    try:
        ref = _reference_real_section(T, m=20000, seed=seed)
    except qr.RealSectionError as exc:
        with pytest.raises(qr.RealSectionError) as err:
            qr.real_section(T, m=20000, seed=seed)
        assert err.value.best_im == pytest.approx(exc.best_im, rel=1e-9)
        return
    rs = qr.real_section(T, m=20000, seed=seed)
    scale = 1e-12 * (1.0 + T.frobenius())
    assert abs(rs.lo - ref.lo) <= scale and abs(rs.hi - ref.hi) <= scale


def test_real_section_reaches_across_a_dense_n60_block():
    # the former n <= 48 guard left this section at [-0.4918, 0.5292]
    T = _dense_blocks_matrix(2, 60)
    ref = _reference_real_section(T, m=20000, seed=20260810)
    assert ref.lo == pytest.approx(-0.4918, abs=1e-4) and ref.hi == pytest.approx(0.5292, abs=1e-4)
    rs = qr.real_section(T, m=20000, seed=20260810)
    assert rs.lo <= ref.lo and rs.hi >= ref.hi
    eigs = np.linalg.eigvalsh(numrange._section_forms(T.complex_rep())[0])
    assert rs.hi - rs.lo >= 0.9 * (eigs[-1] - eigs[0])


@pytest.mark.parametrize("N", [20, 100])
def test_real_section_of_remark_sections_is_the_closed_form(N):
    T = qr.truncate(qr.remark_operator(), N)
    poly = qr.diagonal_bild(T).inner_hull
    axis = poly[poly[:, 1] == 0.0, 0]
    rs = qr.real_section(T, m=20000, seed=0)
    assert (rs.lo, rs.hi) == (axis.min(), axis.max())
    if N == 20:
        ref = _reference_real_section(T, m=20000, seed=0)
        assert rs.lo <= ref.lo and rs.hi >= ref.hi
