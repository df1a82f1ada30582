import numpy as np
import pytest

from quatrange.eigen import NumericalError, jacobi_eig, sym_eig


def _sym(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A + A.T


def test_diagonal_examples():
    assert sym_eig(np.diag([1.0, 2.0, 3.0])).eigenvalues[-1] == pytest.approx(3.0)
    assert sym_eig(np.zeros((3, 3))).eigenvalues[-1] == pytest.approx(0.0)
    assert sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvalues[-1] == pytest.approx(1.0)


def test_rejects_nonsymmetric():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError):
        sym_eig(M)


def test_residual_certificate():
    spec = sym_eig(_sym(1, 12))
    assert spec.residual <= 1e-9 * (1 + np.max(np.abs(spec.eigenvalues)))
    assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_jacobi_cross_checks_lapack():
    # the two independent symmetric solvers must agree
    for seed in range(8):
        n = 2 + seed
        M = _sym(seed, n)
        lam_j = jacobi_eig(M, tol=1e-12)
        lam_l = sym_eig(M).eigenvalues
        scale = 1 + np.max(np.abs(lam_l))
        assert np.max(np.abs(lam_j - lam_l)) <= 1e-9 * scale


def test_jacobi_trace_and_frobenius_preserved():
    M = _sym(5, 9)
    lam = jacobi_eig(M)
    assert np.sum(lam) == pytest.approx(np.trace(M), rel=1e-10, abs=1e-10)
    assert np.sum(lam ** 2) == pytest.approx(np.sum(M * M), rel=1e-10)
