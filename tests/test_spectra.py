import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion, spectra

from conftest import random_qmatrix

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
    T = qr.QMatrix.diag([I, Quaternion(1e-9, 1.0, 0.0, 0.0)])
    spheres = qr.s_spectrum(T, merge_tol=1e-6)
    assert len(spheres) == 1


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


@pytest.mark.parametrize("T", [
    qr.QMatrix.diag([2.0 * I, Quaternion(3.0, 0.0, 0.0, 1.0)]),
    qr.QMatrix.block_diag(random_qmatrix(8, 2), np.array([[0.0, 2.0, 0.0, 0.0],
                                                          [3.0, 0.0, 0.0, 1.0]])),
])
def test_cross_check_reports_the_full_pencil_minimum(monkeypatch, T):
    # (1, sqrt 3) is off the spectrum, but the real part of the pencil of the
    # entry 2i vanishes there: only its imaginary part 2 (alpha - a) v rejects it
    a, b = 1.0, 3.0 ** 0.5
    merge = spectra._merge
    monkeypatch.setattr(spectra, "_merge", lambda pts, tol: merge(pts, tol) + [(a, b)])
    C = T.complex_rep()
    pencil = C @ C - (2.0 * a) * C + (a * a + b * b) * np.eye(C.shape[0])
    smallest = np.linalg.svd(pencil, compute_uv=False)[-1]
    with pytest.raises(qr.NumericalError, match="pencil singularity cross-check") as info:
        qr.s_spectrum(T)
    assert f"({smallest:.3e} >" in str(info.value)


def _full_chi_s_spectrum(T, merge_tol=1e-6):
    """Reference: eigenvalues of the whole chi(T) and one 2n x 2n SVD per sphere."""
    rep = T.complex_rep()
    eigs = np.linalg.eigvals(rep)
    pts = np.stack([eigs.real, np.abs(eigs.imag)], axis=1)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    merged = spectra._merge(pts[order], merge_tol)
    nf = T.frobenius()
    singular_tol = 1e-8 * (1.0 + nf * nf)
    rep2 = rep @ rep
    eye = np.eye(rep.shape[0])
    for a, b in merged:
        pencil = rep2 - (2.0 * a) * rep + (a * a + b * b) * eye
        assert np.linalg.svd(pencil, compute_uv=False)[-1] <= singular_tol
    return np.array(merged, dtype=float).reshape(-1, 2)


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
    return ([qr.truncate(remark, N).matrix for N in (10, 50, 100)]
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
    remark = qr.truncate(qr.remark_operator(), 100).matrix
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
    qr.s_spectrum(qr.truncate(qr.remark_operator(), 100).matrix)
    assert log == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_an_overflowing_default_tolerance_is_a_numerical_failure():
    big = Quaternion(1e300, 0, 0, 0)
    T = qr.QMatrix.from_quaternions([[big, -big], [big, big]])
    with pytest.raises(qr.NumericalError, match="overflows"):
        qr.s_spectrum(T)


@pytest.mark.parametrize("singular_tol", [float("nan"), float("inf"), -1e-8])
def test_rejects_a_bad_singular_tol(singular_tol):
    with pytest.raises(ValueError, match="singular_tol"):
        qr.s_spectrum(random_qmatrix(3, 3), singular_tol=singular_tol)


@pytest.mark.parametrize("merge_tol", [float("nan"), float("inf"), -1e-6])
def test_rejects_a_bad_merge_tol(merge_tol):
    with pytest.raises(ValueError, match="merge_tol"):
        qr.s_spectrum(random_qmatrix(3, 3), merge_tol=merge_tol)


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
