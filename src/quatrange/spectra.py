"""The matrix S-spectrum as a finite union of similarity spheres."""

from __future__ import annotations

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

    Eigenvalues of the complex adjoint representation C = chi(T) come in
    conjugate pairs; those with nonnegative imaginary part are the canonical
    representatives.  Every representative (a, b) is cross-checked by the
    smallest singular value of the pencil, which must fall below singular_tol
    (default scales with ||T||_F^2 because the pencil is quadratic in T).
    chi is a unital ring homomorphism, so the pencil's adjoint is
    C^2 - 2a C + (a^2 + b^2) I exactly; C^2 is formed once.
    """
    rep = T.complex_rep()
    eigs = np.linalg.eigvals(rep)
    pts = np.stack([eigs.real, np.abs(eigs.imag)], axis=1)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    merged = _merge(pts[order], merge_tol)

    if singular_tol is None:
        nf = T.frobenius()
        singular_tol = 1e-8 * (1.0 + nf * nf)
    rep2 = rep @ rep
    eye = np.eye(rep.shape[0])
    spheres = []
    for a, b in merged:
        pencil = rep2 - (2.0 * a) * rep + (a * a + b * b) * eye
        smallest = np.linalg.svd(pencil, compute_uv=False)[-1]
        if smallest > singular_tol:
            raise NumericalError(
                f"eigenvalue candidate ({a:.6g}, {b:.6g}) fails the pencil "
                f"singularity cross-check ({smallest:.3e} > {singular_tol:.3e})")
        spheres.append(SimilaritySphere(float(a), float(b)))
    return SphereSet(spheres)
