"""The matrix S-spectrum as a finite union of similarity spheres.

s_spectrum works from the summands of T = B + D, a dense leading block and a
diagonal tail: one eigen solve of the block's complex adjoint chi(B), the
tail's classes in closed form, and a pencil certificate that needs an SVD
only for the block, and only when an eigenvector bound cannot settle it.
"""

from __future__ import annotations

import math

import numpy as np

from .eigen import NumericalError
from .qmatrix import QMatrix
from .quaternion import SimilaritySphere

__all__ = ["SphereSet", "s_spectrum"]


class SphereSet:
    """A finite union of similarity spheres, canonically sorted by (a, b)."""

    def __init__(self, spheres):
        self.spheres = tuple(sorted(spheres))

    def __iter__(self):
        return iter(self.spheres)

    def __len__(self):
        return len(self.spheres)

    def points(self) -> np.ndarray:
        return np.array([s.point() for s in self.spheres]).reshape(-1, 2)

    def __repr__(self) -> str:
        inner = ", ".join(f"({s.a:.6g}, {s.b:.6g})" for s in self.spheres)
        return f"SphereSet[{inner}]"


def _merge(points: np.ndarray, tol: float) -> list[tuple[float, float]]:
    out: list[list[float]] = []
    counts: list[int] = []
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


def s_spectrum(T: QMatrix, merge_tol: float = 1e-6,
               singular_tol: float | None = None) -> SphereSet:
    """Similarity spheres on which the pencil T^2 - 2 Re(q) T + |q|^2 I is singular.

    T is read as B + D, the leading b x b block B = T[:b, :b] with
    b = T.block_split() plus the diagonal tail D = diag(d_1, ..., d_k); b = 0
    means T is diagonal.

    Candidates.  chi(T) (QMatrix.complex_rep) is permutation-similar to
    chi(B) + chi(d_1) + ... + chi(d_k), so its eigenvalues are those of
    chi(B) and of each 2 x 2 block chi(d_k).  With d_k = alpha_k + v_k,
    chi(d_k) has the eigenvalues alpha_k +- i beta_k, beta_k = |v_k|: each
    tail entry gives its class (alpha_k, beta_k) in closed form, counted
    twice as in chi(T).  The block's candidates are the eigenvalues of the
    2b x 2b matrix C = chi(B), one np.linalg.eig call, none when b = 0;
    their conjugate pairs map to (Re, |Im|).  The points are lexsorted and
    merged within merge_tol into their running means.

    Certificate.  Every merged representative (a, b) must make the pencil
    P(a, b) = chi(T)^2 - 2a chi(T) + (a^2 + b^2) I singular up to
    singular_tol (default 1e-8 (1 + ||T||_F^2), since the pencil is
    quadratic in T): NumericalError is raised iff its smallest singular
    value exceeds singular_tol.  chi is a unital ring homomorphism, so P is
    permutation-similar to

        (C^2 - 2aC + (a^2 + b^2) I)  +  chi(p_1) + ... + chi(p_k),
        p_k = d_k^2 - 2a d_k + a^2 + b^2,

    and for a quaternion p, chi(p) is |p| times a unitary matrix.  Hence

        sigma_min(P) = min(sigma_min(P_B), min_k |p_k|),
        |p_k| = hypot((alpha_k - a)^2 + b^2 - beta_k^2, 2 (alpha_k - a) beta_k),

    which is d_k^2 = alpha_k^2 - beta_k^2 + 2 alpha_k v_k expanded.  For the
    block, sigma_min(P_B) <= ||P_B v|| for every unit vector v; the unit
    eigenvectors V of C give these bounds from CV and C^2 V, formed once.
    A sphere passes when the tail minimum or the least bound is at most
    singular_tol; only when both exceed it is the 2b x 2b SVD of P_B taken,
    and then min(sigma_min(P_B), min_k |p_k|) = sigma_min(P) decides.  No
    2n x 2n matrix is formed.

    Each comparison with singular_tol passes only on "<=", so a NaN from an
    overflow fails it.

    ValueError is raised, before any solve, unless merge_tol and (when
    given) singular_tol are finite and >= 0 and every entry of T is finite;
    NumericalError is raised when the default singular_tol overflows.
    """
    if not (math.isfinite(merge_tol) and merge_tol >= 0.0):
        raise ValueError("merge_tol must be finite and >= 0")
    if singular_tol is not None and not (math.isfinite(singular_tol) and singular_tol >= 0.0):
        raise ValueError("singular_tol must be finite and >= 0")
    if not np.isfinite(T.arr).all():
        raise ValueError("s_spectrum needs a matrix with finite entries")
    if singular_tol is None:
        nf = T.frobenius()
        singular_tol = 1e-8 * (1.0 + nf * nf)
        if not math.isfinite(singular_tol):
            raise NumericalError("the pencil cross-check overflows: ||T||_F^2 is not finite")

    nb = T.block_split()
    tail = T.diagonal()[nb:]
    alpha = tail[:, 0]
    beta = np.sqrt(np.sum(tail[:, 1:] ** 2, axis=1))
    pts = np.repeat(np.stack([alpha, beta], axis=1), 2, axis=0)
    if nb:
        rep = QMatrix(T.arr[:nb, :nb]).complex_rep()
        eigs, vecs = np.linalg.eig(rep)
        pts = np.vstack([np.stack([eigs.real, np.abs(eigs.imag)], axis=1), pts])
        rep_v = rep @ vecs
        rep2_v = rep @ rep_v
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    merged = _merge(pts[order], merge_tol)

    spheres = []
    for a, b in merged:
        da = alpha - a
        smallest = float(np.min(np.hypot(da * da + b * b - beta * beta, 2.0 * da * beta),
                                initial=np.inf))
        if not smallest <= singular_tol and nb:
            shift = a * a + b * b
            bound = float(np.linalg.norm(rep2_v - (2.0 * a) * rep_v + shift * vecs, axis=0).min())
            if bound <= singular_tol:
                smallest = bound
            else:
                pencil = rep @ rep - (2.0 * a) * rep + shift * np.eye(2 * nb)
                block = float(np.linalg.svd(pencil, compute_uv=False)[-1])
                smallest = float(np.minimum(smallest, block))
        if not smallest <= singular_tol:
            raise NumericalError(
                f"eigenvalue candidate ({a:.6g}, {b:.6g}) fails the pencil "
                f"singularity cross-check ({smallest:.3e} > {singular_tol:.3e})")
        spheres.append(SimilaritySphere(float(a), float(b)))
    return SphereSet(spheres)
