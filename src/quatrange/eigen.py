"""Symmetric eigenvalue machinery with residual certificates.

The production path delegates to LAPACK (numpy.linalg.eigh); every result is
certified by an explicit residual bound.  A self-contained cyclic Jacobi
sweep is kept as an independent cross-check oracle for small matrices and is
exercised against the LAPACK path in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SymSpectrum", "sym_eig", "jacobi_eig", "NumericalError"]

_SYMMETRY_TOL = 1e-12  # largest |M - M^T| per unit of 1 + max |M| taken as symmetric
_RESIDUAL_TOL = 1e-9  # largest eigh residual per unit of 1 + max |eigenvalue|
_JACOBI_SWEEPS = 60  # Jacobi sweeps before jacobi_eig gives up


class NumericalError(RuntimeError):
    """A numerical contract (symmetry, residual, convergence) was violated."""


@dataclass(frozen=True)
class SymSpectrum:
    """Sorted eigenvalues of a real symmetric matrix plus a residual bound."""

    eigenvalues: np.ndarray  # nondecreasing
    residual: float  # max ||M v - lambda v|| over the returned pairs


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    scale = 1.0 + float(np.max(np.abs(M))) if M.size else 1.0
    if float(np.max(np.abs(M - M.T), initial=0.0)) > _SYMMETRY_TOL * scale:
        raise NumericalError("matrix is not symmetric within tolerance")
    return M


def sym_eig(M: np.ndarray) -> SymSpectrum:
    """Full spectrum of a real symmetric matrix, residual-certified."""
    M = _check_symmetric(M)
    vals, vecs = np.linalg.eigh(M)
    res = float(np.max(np.linalg.norm(M @ vecs - vecs * vals, axis=0), initial=0.0))
    bound = _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(vals), initial=0.0)))
    if res > bound:
        raise NumericalError(f"eigh residual {res:.3e} above tolerance {bound:.3e}")
    return SymSpectrum(eigenvalues=vals, residual=res)


def jacobi_eig(M: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Row-cyclic sweeps with vectorized row/column updates; iterates until the
    off-diagonal Frobenius norm falls below tol * (1 + ||M||_F).  Intended as
    an independent oracle for n up to a few dozen.
    """
    A = _check_symmetric(M).copy()
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    scale = 1.0 + float(np.linalg.norm(A))
    for _ in range(_JACOBI_SWEEPS):
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off <= tol * scale:
            return np.sort(np.diag(A))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300 * scale:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 0.5 / theta
                elif theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = 0.0
                A[q, p] = 0.0
    raise NumericalError("Jacobi iteration did not converge")


def batched_eig_max(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalues of a stack (..., d, d) of symmetric matrices."""
    if stack.size == 0:
        return np.full(stack.shape[:-2], -np.inf)
    return np.linalg.eigvalsh(stack)[..., -1]
