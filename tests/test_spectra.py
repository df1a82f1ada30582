import tracemalloc

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion, spectra

from conftest import random_qmatrix, seeded_model_operator

I = Quaternion.i
J = Quaternion.j


def test_mixed_units_single_sphere():
    # i and j are similar, so both diagonal entries lie on the class (0, 1)
    spheres = qr.s_spectrum(qr.QMatrix.diag([I, J]))
    assert len(spheres) == 1
    assert spheres.points()[0] == pytest.approx((0.0, 1.0))


def test_real_scalar_matrix():
    spheres = qr.s_spectrum(2.0 * qr.QMatrix.identity(3))
    assert len(spheres) == 1
    assert spheres.points()[0] == pytest.approx((2.0, 0.0))


def test_worked_block_two_spheres():
    T = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0)])
    spheres = qr.s_spectrum(T)
    assert np.allclose(spheres.points(), [(-1.0, 1.0), (1.0, 1.0)], atol=1e-9)
    # cross-check via pencil singularity at the representatives
    for s in spheres:
        D = qr.delta(T, s.representative())
        smallest = np.linalg.svd(D.complex_rep(), compute_uv=False)[-1]
        assert smallest <= 1e-8 * (1 + T.frobenius() ** 2)


def test_pencil_regular_away_from_spheres():
    for seed in range(6):
        n = 2 + seed % 4
        T = random_qmatrix(seed, n)
        spheres = qr.s_spectrum(T)
        pts = spheres.points()
        rng = np.random.default_rng(seed + 100)
        trials = 0
        while trials < 100:
            a = rng.uniform(-1.5, 1.5) * (1 + T.frobenius())
            b = rng.uniform(0.0, 1.5) * (1 + T.frobenius())
            if np.min(np.hypot(pts[:, 0] - a, pts[:, 1] - b)) < 0.1:
                continue
            trials += 1
            D = qr.delta(T, Quaternion(a, b, 0.0, 0.0))
            smallest = np.linalg.svd(D.complex_rep(), compute_uv=False)[-1]
            assert smallest >= 1e-4


def test_sphere_merging():
    # a block's eigenclasses 1e-9 apart merge into one sphere ...
    T = qr.QMatrix.from_quaternions([[I, Quaternion(1.0, 0.0, 0.0, 0.0)],
                                     [Quaternion(0.0, 0.0, 0.0, 0.0),
                                      Quaternion(1e-9, 1.0, 0.0, 0.0)]])
    assert T.block_split() == 2
    spheres = qr.s_spectrum(T)
    assert len(spheres) == 1
    assert spheres.points()[0] == pytest.approx((0.5e-9, 1.0), abs=1e-12)
    # ... while two tail classes 1e-9 apart are exact, distinct spheres
    T = qr.QMatrix.diag([I, Quaternion(1e-9, 1.0, 0.0, 0.0)])
    assert qr.s_spectrum(T).points().tolist() == [[0.0, 1.0], [1e-9, 1.0]]


def test_sspec_inside_outer_bild():
    for seed in range(10):
        n = 1 + seed % 5
        T = random_qmatrix(seed + 40, n)
        spheres = qr.s_spectrum(T)
        region = qr.upper_bild(T, m=100, k=180, seed=seed)
        dirs = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
        for s in spheres:
            slack = float((region.offsets - dirs @ np.array(s.point())).min())
            assert slack >= -1e-6


def test_complex_adjoint_of_pencil_is_pencil_of_adjoint():
    # s_spectrum's cross-check relies on chi(delta(T, q)) = C^2 - 2a C + |q|^2 I
    mats = [random_qmatrix(60 + n, n) for n in range(1, 6)]
    rng = np.random.default_rng(5)
    mats.append(qr.QMatrix.block_diag(random_qmatrix(66, 3), rng.standard_normal((6, 4))))
    for T in mats:
        C = T.complex_rep()
        nf = T.frobenius()
        for _ in range(4):
            a, b = rng.uniform(-1.0, 1.0) * nf, rng.uniform(0.0, 1.0) * nf
            ref = qr.delta(T, Quaternion(a, b, 0.0, 0.0)).complex_rep()
            pencil = C @ C - (2.0 * a) * C + (a * a + b * b) * np.eye(C.shape[0])
            err = np.max(np.abs(ref - pencil))
            assert err <= 1e-12 * (1.0 + nf * nf)


def _shift_eig(monkeypatch, shift):
    eig = np.linalg.eig

    def shifted(a):
        w, v = eig(a)
        return w + shift, v

    monkeypatch.setattr(np.linalg, "eig", shifted)


def _count_calls(monkeypatch, name, log):
    """Record the shape of every matrix passed to np.linalg.<name>."""
    func = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        log.append((name, np.shape(a)))
        return func(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)


def test_cross_check_rejects_off_spectrum_candidate(monkeypatch):
    T = random_qmatrix(3, 4)
    assert len(qr.s_spectrum(T)) == 4
    _shift_eig(monkeypatch, 0.5)
    with pytest.raises(qr.NumericalError, match="pencil singularity cross-check"):
        qr.s_spectrum(T)


def test_cross_check_rejects_a_block_candidate_with_one_block_svd(monkeypatch):
    # the tail classes pass in closed form; the shifted block candidate beats
    # both the tail minimum and the eigenvector bound, so one 2b x 2b SVD decides
    T = qr.QMatrix.block_diag(random_qmatrix(7, 3), np.array([[9.0, 0.0, 0.0, 0.0],
                                                              [9.0, 1.0, 0.0, 0.0],
                                                              [-9.0, 0.0, 2.0, 0.0]]))
    assert T.block_split() == 3
    assert len(qr.s_spectrum(T)) == 6
    _shift_eig(monkeypatch, 0.5)
    log = []
    _count_calls(monkeypatch, "svd", log)
    with pytest.raises(qr.NumericalError, match="pencil singularity cross-check"):
        qr.s_spectrum(T)
    assert log == [("svd", (6, 6))]


def test_cross_check_reports_the_full_pencil_minimum(monkeypatch):
    # (1, sqrt 3) is off the spectrum, but the real part of the pencil of the
    # entry 2i vanishes there: only its imaginary part 2 (alpha - a) v rejects it.
    # The candidate enters as one more block eigenvalue, with a copy of an
    # eigenvector, so the eigenvector bound fails and the block SVD and the
    # tail minimum decide
    T = qr.QMatrix.block_diag(random_qmatrix(8, 2), np.array([[0.0, 2.0, 0.0, 0.0],
                                                              [3.0, 0.0, 0.0, 1.0]]))
    a, b = 1.0, 3.0 ** 0.5
    eig = np.linalg.eig

    def injected(rep):
        w, v = eig(rep)
        return np.append(w, a + 1j * b), np.column_stack([v, v[:, 0]])

    monkeypatch.setattr(np.linalg, "eig", injected)
    C = T.complex_rep()
    pencil = C @ C - (2.0 * a) * C + (a * a + b * b) * np.eye(C.shape[0])
    smallest = np.linalg.svd(pencil, compute_uv=False)[-1]
    with pytest.raises(qr.NumericalError, match="pencil singularity cross-check") as info:
        qr.s_spectrum(T)
    assert f"({smallest:.3e} >" in str(info.value)


def _full_chi_s_spectrum(T, merge_tol=1e-6):
    """Reference: eigenvalues of the whole chi(T) and one 2n x 2n SVD per sphere.

    Each distinct tail class is a sphere.  The eigenvalues farther than
    merge_tol from every tail class merge first-fit into the others.
    """
    rep = T.complex_rep()
    eigs = np.linalg.eigvals(rep)
    pts = np.stack([eigs.real, np.abs(eigs.imag)], axis=1)
    classes = np.unique(qr.bild_points(T.diagonal()[T.block_split():]), axis=0)
    gaps = np.hypot(pts[:, None, 0] - classes[:, 0], pts[:, None, 1] - classes[:, 1])
    rest = pts[gaps.min(axis=1, initial=np.inf) > merge_tol]
    order = np.lexsort((rest[:, 1], rest[:, 0]))
    merged = np.vstack([classes, np.reshape(spectra._merge(rest[order], merge_tol), (-1, 2))])
    nf = T.frobenius()
    singular_tol = 1e-8 * (1.0 + nf * nf)
    rep2 = rep @ rep
    eye = np.eye(rep.shape[0])
    for a, b in merged:
        pencil = rep2 - (2.0 * a) * rep + (a * a + b * b) * eye
        assert np.linalg.svd(pencil, compute_uv=False)[-1] <= singular_tol
    return merged[np.lexsort((merged[:, 1], merged[:, 0]))]


def _block_plus_diagonal_cases():
    rng = np.random.default_rng(14)
    cases = []
    for b in range(1, 5):
        for k in (5, 13, 25):
            block = random_qmatrix(300 + 10 * b + k, b)
            cases.append(qr.QMatrix.block_diag(block, rng.standard_normal((k, 4))))
    return cases


def _reference_cases():
    remark = qr.remark_operator()
    return ([qr.truncate(remark, N) for N in (10, 50, 100)]
            + _block_plus_diagonal_cases()
            + [random_qmatrix(400 + n, n) for n in range(1, 7)]
            + [qr.QMatrix.diag([I, J]), 2.0 * qr.QMatrix.identity(3),
               qr.QMatrix.diag([I, Quaternion(1e-9, 1.0, 0.0, 0.0)]), qr.QMatrix.zeros(0)])


@pytest.mark.parametrize("T", _reference_cases())
def test_matches_the_full_chi_reference(T):
    new = qr.s_spectrum(T).points()
    ref = _full_chi_s_spectrum(T)
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= 1e-12 * (1.0 + T.frobenius()))


def test_no_svd_on_the_remark_section_or_the_dense_benchmark_blocks(monkeypatch):
    log = []
    _count_calls(monkeypatch, "svd", log)
    remark = qr.truncate(qr.remark_operator(), 100)
    assert remark.block_split() == 0
    assert len(qr.s_spectrum(remark)) == 53
    # the dense matrices of the benchmark's dense_blocks workload, default seed
    for i, n in enumerate((4, 30, 60)):
        assert len(qr.s_spectrum(random_qmatrix(3 * 20260808 + i, n))) == n
    assert log == []


def test_the_only_eigen_solve_is_the_block(monkeypatch):
    log = []
    for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd"):
        _count_calls(monkeypatch, name, log)
    splits = []
    for T in _block_plus_diagonal_cases():
        b = T.block_split()
        splits.append(b)
        log.clear()
        qr.s_spectrum(T)
        # a 1 x 1 block is a diagonal entry, so those sections split at b = 0
        assert log == ([("eig", (2 * b, 2 * b))] if b else [])
    assert sorted(set(splits)) == [0, 2, 3, 4]
    log.clear()
    qr.s_spectrum(qr.truncate(qr.remark_operator(), 100))
    assert log == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_an_overflowing_default_tolerance_is_a_numerical_failure():
    big = Quaternion(1e300, 0, 0, 0)
    T = qr.QMatrix.from_quaternions([[big, -big], [big, big]])
    with pytest.raises(qr.NumericalError, match="overflows"):
        qr.s_spectrum(T)


@pytest.mark.parametrize("where", [(1, 1, 0), (0, 2, 3)])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_rejects_a_non_finite_matrix_before_any_solve(monkeypatch, where, value):
    arr = qr.QMatrix.block_diag(random_qmatrix(5, 2), np.ones((3, 4))).arr.copy()
    arr[where] = value
    log = []
    for name in ("eig", "eigvals", "svd"):
        _count_calls(monkeypatch, name, log)
    with pytest.raises(ValueError, match="finite"):
        qr.s_spectrum(qr.QMatrix(arr))
    assert log == []


# -- the first-fit merge of the block's candidates -----------------------------------


def _reference_merge(points, tol):
    """The first-fit scan over points x spheres, one pair at a time."""
    out = []
    counts = []
    for a, b in points:
        placed = False
        for idx, (ca, cb) in enumerate(out):
            if np.hypot(ca - a, cb - b) <= tol:
                c = counts[idx]
                out[idx] = [(ca * c + a) / (c + 1), (cb * c + b) / (c + 1)]
                counts[idx] += 1
                placed = True
                break
        if not placed:
            out.append([a, b])
            counts.append(1)
    return [(a, b) for a, b in out]


def _merge_inputs(monkeypatch, matrices):
    """The (points, tol) pairs that s_spectrum hands to _merge on each matrix."""
    seen = []
    merge = spectra._merge

    def spy(points, tol):
        seen.append((points.copy(), tol))
        return merge(points, tol)

    monkeypatch.setattr(spectra, "_merge", spy)
    for T in matrices:
        qr.s_spectrum(T)
    monkeypatch.setattr(spectra, "_merge", merge)
    return seen


def test_merge_matches_the_scan_on_dense_blocks_not_remark_sections(monkeypatch):
    # a diagonal section's classes are exact, so only the dense blocks reach _merge
    remark = qr.remark_operator()
    sections = [qr.truncate(remark, N) for N in (100, 500, 2000)]
    # the dense matrices of the benchmark's dense_blocks workload, default seed
    dense = [random_qmatrix(3 * 20260808 + i, n) for i, n in enumerate((4, 30, 60))]
    inputs = _merge_inputs(monkeypatch, sections + dense)
    counts = []
    for points, tol in inputs:
        got = spectra._merge(points, tol)
        assert got == _reference_merge(points, tol)
        counts.append(len(got))
    assert counts == [4, 30, 60]


def test_merge_at_zero_tolerance_joins_only_equal_points():
    # the third 0.1 rounds the running mean to (0.1 * 2 + 0.1) / 3, one ulp
    # above 0.1, so the fourth starts a sphere of its own
    pts = np.array([[0.1, 0.3], [0.1, 0.3], [0.1, 0.3 + 2.0 ** -54], [-0.0, 0.0],
                    [0.0, 0.0], [0.1, 0.3], [1e300, -1e300], [1e300, -1e300],
                    [0.1, 0.3]])
    got = spectra._merge(pts, 0.0)
    assert got == _reference_merge(pts, 0.0)
    assert got == [(0.10000000000000002, 0.3), (0.1, 0.3 + 2.0 ** -54), (-0.0, 0.0),
                   (1e300, -1e300), (0.1, 0.3)]
    # equal points at zero tolerance share one sphere
    zeros = np.zeros((3, 2))
    assert spectra._merge(zeros, 0.0) == _reference_merge(zeros, 0.0) == [(0.0, 0.0)]


def test_merge_joins_points_exactly_tol_apart():
    # each pair sits exactly tol apart in binary (the diagonal one as a
    # 3-4-5 triangle)
    tol = 0.3125
    pts = np.array([[0.3125, 0.0], [0.625, 0.0], [3.0, 0.625], [3.0, 0.3125],
                    [-0.9375, -1.25], [-0.625, -1.25], [6.25, 6.25], [6.0625, 6.0]])
    got = spectra._merge(pts, tol)
    assert got == _reference_merge(pts, tol)
    assert got == [(0.46875, 0.0), (3.0, 0.46875), (-0.78125, -1.25), (6.15625, 6.125)]


def test_merge_follows_a_drifting_mean():
    # each point lies 0.9 tol to the right of the running mean, so the one
    # sphere drifts by several tol; a point near its final mean must still
    # find it although the sphere started two or more tol away
    tol = 0.25
    mean, count, pts = 0.0, 1, [(0.0, 0.0)]
    while mean < 4.0 * tol:
        a = mean + 0.9 * tol
        pts.append((a, 0.0))
        mean, count = (mean * count + a) / (count + 1), count + 1
    pts = np.array(pts + [(mean + 0.9 * tol, 0.1)])
    got = spectra._merge(pts, tol)
    assert got == _reference_merge(pts, tol)
    assert len(got) == 1 and got[0][0] > 4.0 * tol


def test_merge_matches_the_scan_on_seeded_clouds():
    rng = np.random.default_rng(16)
    for trial in range(200):
        n = int(rng.integers(1, 120))
        tol = (0.0, 1e-6, 0.05, 0.25, 1.0, 1e-300)[trial % 6]
        step = rng.choice([0.5, 0.25, 0.05, 1e-6])
        jitter = rng.choice([0.0, 1e-7, 1e-3, 0.1])
        pts = rng.integers(-4, 5, size=(n, 2)) * step + rng.standard_normal((n, 2)) * jitter
        if trial % 7 == 0:
            pts[rng.integers(n)] = (np.nan, 1.0)
        if trial % 11 == 0:
            pts[rng.integers(n)] = (np.inf, 1.0)
        if trial % 2:
            pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        got = spectra._merge(pts, tol)
        ref = _reference_merge(pts, tol)
        # == fails on NaN, so compare the float arrays with NaN equal to NaN
        assert np.array_equal(np.array(got, dtype=float), np.array(ref, dtype=float),
                              equal_nan=True)


def test_s_spectrum_of_a_seeded_section_with_nearby_tail_classes():
    # seed 2 is diagonal; at N = 50 its tail classes crowd within the merge
    # tolerance, and each distinct class is a sphere of its own
    T = qr.truncate(seeded_model_operator(2), 50)
    assert T.block_split() == 0
    classes = np.unique(qr.bild_points(T.diagonal()), axis=0)
    assert len(classes) == 50
    assert qr.s_spectrum(T).points().tobytes() == classes.tobytes()


def test_sphere_set_is_one_sorted_read_only_array():
    # sorted() of the (a, b) pairs gives the same order, ties included:
    # -0.0 and 0.0 tie in a, so the two (0, 1) rows are one class, and the
    # first in input order is kept
    pts = [(1.0, 0.5), (0.0, 1.0), (-1.0, 2.0), (1.0, 0.25), (-0.0, 1.0), (0.0, 0.5)]
    spheres = qr.SphereSet(pts)
    want = np.array([(-1.0, 2.0), (0.0, 0.5), (0.0, 1.0), (1.0, 0.25), (1.0, 0.5)])
    assert spheres.points().tobytes() == want.tobytes()
    assert spheres.points() is spheres.points()
    assert not spheres.points().flags.writeable
    assert len(spheres) == 5
    assert list(spheres) == [qr.SimilaritySphere(a, b) for a, b in want.tolist()]
    # an exactly repeated row is held once
    repeated = qr.SphereSet([(0.5, 1.0), (2.0, 0.0), (0.5, 1.0), (-0.0, 1.0), (0.5, 1.0)])
    assert repeated.points().tobytes() == np.array([(-0.0, 1.0), (0.5, 1.0), (2.0, 0.0)]).tobytes()
    assert repr(qr.SphereSet([(0.5, 1.0)])) == "SphereSet[(0.5, 1)]"
    assert len(qr.SphereSet(np.zeros((0, 2)))) == 0
    with pytest.raises(TypeError):
        qr.SimilaritySphere(0.0, 1.0) < qr.SimilaritySphere(1.0, 0.0)


def test_remark_section_keeps_every_distinct_class(monkeypatch):
    # from N of about 3e5 on, distinct classes of the remark tail lie within
    # the merge tolerance of each other; they stay apart
    T = qr.truncate(qr.remark_operator(), 400_000)
    built = []
    sphere = spectra.SimilaritySphere
    monkeypatch.setattr(spectra, "SimilaritySphere",
                        lambda *args: built.append(args) or sphere(*args))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spheres = qr.s_spectrum(T)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(spheres) == 200_191
    # the set is its (s, 2) float array, 16 bytes a sphere, and no sphere objects
    assert held <= 24 * len(spheres)
    assert built == []


def test_crowded_and_repeated_tail_classes_are_exact_spheres():
    # 40 classes 3e-7 apart on a line of slope 1/2, each entry repeated with
    # its imaginary part turned from i to j and k
    steps = 0.25 + 3e-7 * np.arange(40)
    entries = np.zeros((120, 4))
    entries[:, 0] = np.tile(steps, 3)
    for c in range(3):
        entries[40 * c:40 * (c + 1), 1 + c] = 0.5 * steps
    T = qr.QMatrix.diag(entries)
    want = np.stack([steps, 0.5 * steps], axis=1)
    assert np.array_equal(qr.bild_points(T.diagonal()[80:]), want)
    assert qr.s_spectrum(T).points().tobytes() == want.tobytes()


def test_a_block_sphere_near_a_tail_class_is_the_tail_class():
    # the block's eigenclasses are (0, 2) and (0.3, 0.4); the tail entry
    # 0.3 + 0.4 k has the second class exactly, so it stands for the block's
    block = np.zeros((2, 2, 4))
    block[0, 0] = (0.3, 0.4, 0.0, 0.0)
    block[0, 1] = (1.0, 0.0, 0.0, 0.0)
    block[1, 1] = (0.0, 2.0, 0.0, 0.0)
    for gap, count in ((0.0, 2), (2e-6, 3)):
        tail = np.array([[0.3, 0.0, 0.0, 0.4 + gap]])
        T = qr.QMatrix.block_diag(qr.QMatrix(block), tail)
        assert T.block_split() == 2
        pts = qr.s_spectrum(T).points()
        assert len(pts) == count
        assert pts[0] == pytest.approx((0.0, 2.0), abs=1e-12)
        # the tail's class is a sphere bit for bit; a block sphere 2e-6 away stays
        assert pts[-1].tobytes() == qr.bild_points(tail)[0].tobytes()
        if gap:
            assert pts[1] == pytest.approx((0.3, 0.4), abs=1e-12)
