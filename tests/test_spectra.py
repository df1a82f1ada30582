import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion

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


def test_cross_check_rejects_off_spectrum_candidate(monkeypatch):
    T = random_qmatrix(3, 4)
    assert len(qr.s_spectrum(T)) == 4
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) + 0.5)
    with pytest.raises(qr.NumericalError, match="pencil singularity cross-check"):
        qr.s_spectrum(T)
