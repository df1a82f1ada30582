"""The matrix S-spectrum as a finite union of similarity spheres.

s_spectrum works from the summands of T = B + D, a dense leading block and a
diagonal tail: one eigen solve of the block's complex adjoint chi(B), the
tail's classes in closed form, and a pencil certificate that needs an SVD
only for the block, and only when an eigenvector bound cannot settle it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .eigen import NumericalError
from .qmatrix import QMatrix
from .quaternion import SimilaritySphere

__all__ = ["SphereSet", "s_spectrum"]

_MERGE_TOL = 1e-6  # certified classes chained within this distance share a sphere
_SINGULAR_TOL = 1e-8  # pencil singularity threshold per unit of 1 + ||T||_F^2


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
    """First-fit merge: each point joins the least-index sphere whose running
    mean lies within tol (np.hypot), else it starts a new sphere.

    A grid index keeps the scan near each point.  Every sphere with a finite
    mean is binned by the cell floor(mean / side), re-binned when its mean
    moves, and a point tests only the spheres of its 3 x 3 block of cells,
    in index order.  side >= 2 tol, so a mean within tol of the point lies
    at most half a cell away; side >= 2^-49 max |point|, so every quotient
    is below 2^50 and its rounding moves it by at most 1/8 of a cell.  The
    block therefore holds every sphere the test can accept, and the result
    is the full scan's, mean for mean and bit for bit.  A non-finite point
    or mean fails the test against anything, so it stays out of the index.
    At tol = 0 the cells shrink to 2^-49 max |point|; equal points share one.
    """
    finite = np.isfinite(points).all(axis=1)
    scale = float(np.abs(points[finite]).max(initial=0.0))
    side = max(2.0 * tol, scale * 2.0 ** -49, sys.float_info.min)
    cells: dict[tuple[int, int], list[int]] = {}

    def cell(a, b):
        if math.isfinite(a) and math.isfinite(b):
            return math.floor(a / side), math.floor(b / side)
        return None

    out: list[list[float]] = []
    counts: list[int] = []
    for a, b in points:
        key = cell(a, b)
        near = [] if key is None else sorted(
            idx for di in (-1, 0, 1) for dj in (-1, 0, 1)
            for idx in cells.get((key[0] + di, key[1] + dj), ()))
        for idx in near:
            ca, cb = out[idx]
            if np.hypot(ca - a, cb - b) <= tol:
                c = counts[idx]
                out[idx] = [(ca * c + a) / (c + 1), (cb * c + b) / (c + 1)]
                counts[idx] += 1
                old, new = cell(ca, cb), cell(*out[idx])
                if new != old:
                    cells[old].remove(idx)
                    if new is not None:
                        cells.setdefault(new, []).append(idx)
                break
        else:
            if key is not None:
                cells.setdefault(key, []).append(len(out))
            out.append([a, b])
            counts.append(1)
    return [(a, b) for a, b in out]


def s_spectrum(T: QMatrix) -> SphereSet:
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
    their conjugate pairs map to (Re, |Im|).

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

    Spheres.  The certified points are lexsorted and merged (_merge): each
    sphere is the running mean of certified classes chained within
    _MERGE_TOL, and is not checked again.

    A QMatrix holds finite entries by construction; NumericalError is
    raised when singular_tol overflows.
    """
    nf = T.frobenius()
    singular_tol = _SINGULAR_TOL * (1.0 + nf * nf)
    if not math.isfinite(singular_tol):
        raise NumericalError("the pencil cross-check overflows: ||T||_F^2 is not finite")

    nb = T.block_split()
    tail = T.diagonal()[nb:]
    alpha = tail[:, 0]
    beta = np.sqrt(np.sum(tail[:, 1:] ** 2, axis=1))
    pts = np.repeat(np.stack([alpha, beta], axis=1), 2, axis=0)
    if nb:
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
        pts = np.vstack([block, pts])
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return SphereSet(SimilaritySphere(float(a), float(b))
                     for a, b in _merge(pts[order], _MERGE_TOL))
