"""The matrix S-spectrum as a finite union of similarity spheres.

s_spectrum works from the summands of T = B + D, a dense leading block and a
diagonal tail: one eigen solve of the block's complex adjoint chi(B), the
tail's classes in closed form, and a pencil certificate that needs an SVD
only for the block, and only when an eigenvector bound cannot settle it.
Each distinct tail class is a sphere; only the block's candidates merge.
"""

from __future__ import annotations

import math

import numpy as np

from .eigen import NumericalError
from .geometry import near_any
from .numrange import bild_points
from .qmatrix import QMatrix
from .quaternion import SimilaritySphere

__all__ = ["SphereSet", "s_spectrum"]

_MERGE_TOL = 1e-6  # certified block classes chained within this distance share a sphere
_SINGULAR_TOL = 1e-8  # pencil singularity threshold per unit of 1 + ||T||_F^2


class SphereSet:
    """Similarity spheres as one read-only (s, 2) array of classes, stably sorted by (a, b).

    Each class is held once: of a run of equal rows (0.0 and -0.0 are equal)
    the first in input order is kept.
    """

    def __init__(self, points):
        # a row as one complex key a + bi: complex numbers sort by the real
        # part, then the imaginary part
        keys = np.ascontiguousarray(points, dtype=float).reshape(-1, 2).view(complex).ravel()
        keys = np.sort(keys, kind="stable")
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self._points = keys[first].view(float).reshape(-1, 2)
        self._points.setflags(write=False)

    def __iter__(self):
        return (SimilaritySphere(a, b) for a, b in self._points.tolist())

    def __len__(self):
        return len(self._points)

    def points(self) -> np.ndarray:
        return self._points

    def __repr__(self) -> str:
        inner = ", ".join(f"({a:.6g}, {b:.6g})" for a, b in self._points.tolist())
        return f"SphereSet[{inner}]"


def _merge(points: np.ndarray, tol: float) -> list[tuple[float, float]]:
    """First-fit merge: each point joins the least-index sphere whose running
    mean lies within tol (np.hypot), else it starts a new sphere.

    One np.hypot row tests a point against every mean so far.  A non-finite
    point or mean fails the test against anything.
    """
    means = np.empty((len(points), 2))
    counts: list[int] = []
    for a, b in points:
        k = len(counts)
        hit = np.flatnonzero(np.hypot(means[:k, 0] - a, means[:k, 1] - b) <= tol)
        if len(hit):
            idx = hit[0]
            c = counts[idx]
            means[idx] = (means[idx, 0] * c + a) / (c + 1), (means[idx, 1] * c + b) / (c + 1)
            counts[idx] += 1
        else:
            means[k] = a, b
            counts.append(1)
    return [(a, b) for a, b in means[:len(counts)].tolist()]


def s_spectrum(T: QMatrix) -> SphereSet:
    """Similarity spheres on which the pencil T^2 - 2 Re(q) T + |q|^2 I is singular.

    T is read as B + D, the leading b x b block B = T[:b, :b] with
    b = T.block_split() plus the diagonal tail D = diag(d_1, ..., d_k); b = 0
    means T is diagonal.

    Candidates.  chi(T) (QMatrix.complex_rep) is permutation-similar to
    chi(B) + chi(d_1) + ... + chi(d_k), so its eigenvalues are those of
    chi(B) and of each 2 x 2 block chi(d_k).  With d_k = alpha_k + v_k,
    chi(d_k) has the eigenvalues alpha_k +- i beta_k, beta_k = |v_k|: each
    tail entry gives its class (alpha_k, beta_k) in closed form.  The
    block's candidates are the eigenvalues of the 2b x 2b matrix C = chi(B),
    one np.linalg.eig call, none when b = 0; their conjugate pairs map to
    (Re, |Im|).

    Certificate.  Every candidate (a, b) is checked at its own class, before
    any merge: the pencil P(a, b) = chi(T)^2 - 2a chi(T) + (a^2 + b^2) I
    must be singular up to singular_tol = _SINGULAR_TOL (1 + ||T||_F^2),
    since the pencil is quadratic in T, else NumericalError is raised.  chi
    is a unital ring homomorphism, so P is permutation-similar to

        (C^2 - 2aC + (a^2 + b^2) I)  +  chi(p_1) + ... + chi(p_k),
        p_k = d_k^2 - 2a d_k + a^2 + b^2,

    and for a quaternion p, chi(p) is |p| times a unitary matrix.  Hence

        sigma_min(P) = min(sigma_min(P_B), min_k |p_k|),
        |p_k| = hypot((alpha_k - a)^2 + b^2 - beta_k^2, 2 (alpha_k - a) beta_k),

    which is d_k^2 = alpha_k^2 - beta_k^2 + 2 alpha_k v_k expanded.  A tail
    class has p_k = 0 at its own (a, b), so it passes in closed form.  For a
    block eigenvalue, sigma_min(P_B) <= ||P_B v|| for every unit vector v;
    the unit eigenvectors V of C give these bounds from CV and C^2 V, formed
    once, and the candidate passes when the least bound is at most
    singular_tol.  Only when it exceeds it is the 2b x 2b SVD of P_B taken,
    and then min(sigma_min(P_B), min_k |p_k|) = sigma_min(P) decides.  No
    2n x 2n matrix is formed.  Each comparison with singular_tol passes only
    on "<=", so a NaN from an overflow fails it.

    Spheres.  Each distinct tail class is one sphere, the class itself, held
    once by SphereSet.  The block's certified candidates are lexsorted and
    merged (_merge): a block sphere is the running mean of candidates
    chained within _MERGE_TOL, and is not checked again.  A block sphere
    within _MERGE_TOL of a tail class (geometry.near_any, over at most 2b
    block spheres) is dropped, as the exact tail class stands for it.

    A QMatrix holds finite entries by construction; NumericalError is
    raised when singular_tol overflows.
    """
    nf = T.frobenius()
    singular_tol = _SINGULAR_TOL * (1.0 + nf * nf)
    if not math.isfinite(singular_tol):
        raise NumericalError("the pencil cross-check overflows: ||T||_F^2 is not finite")

    nb = T.block_split()
    spheres = bild_points(T.diagonal()[nb:])
    if nb:
        alpha, beta = spheres.T  # min_k |p_k| over the tail classes
        rep = T.leading_block(nb).complex_rep()
        eigs, vecs = np.linalg.eig(rep)
        block = np.stack([eigs.real, np.abs(eigs.imag)], axis=1)
        rep_v = rep @ vecs
        rep2_v = rep @ rep_v
        for a, b in block:
            shift = a * a + b * b
            bound = np.linalg.norm(rep2_v - (2.0 * a) * rep_v + shift * vecs, axis=0).min()
            if bound <= singular_tol:
                continue
            pencil = rep @ rep - (2.0 * a) * rep + shift * np.eye(2 * nb)
            da = alpha - a
            smallest = float(np.min(np.hypot(da * da + b * b - beta * beta, 2.0 * da * beta),
                                    initial=np.linalg.svd(pencil, compute_uv=False)[-1]))
            if not smallest <= singular_tol:
                raise NumericalError(
                    f"eigenvalue candidate ({a:.6g}, {b:.6g}) fails the pencil "
                    f"singularity cross-check ({smallest:.3e} > {singular_tol:.3e})")
        order = np.lexsort((block[:, 1], block[:, 0]))
        merged = np.array(_merge(block[order], _MERGE_TOL))
        spheres = np.vstack([spheres, merged[~near_any(merged, spheres, _MERGE_TOL)]])
    return SphereSet(spheres)
