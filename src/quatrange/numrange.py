"""Numerical range, bild and upper bild of quaternionic matrices.

Two independent routes are combined:

* an inner route of attained values <Tx, x> mapped to bild coordinates
  (a, b) = (Re q, |Im q|): values at sampled unit vectors, plus the value at
  a unit vector attaining each support angle's extreme eigenvalue, which
  lies on the support line;
* an outer route computing the support function of the upper bild: for the
  dense block the top eigenvalue of a Hermitian form on the complex adjoint
  matrix chi(T), exact up to eigensolver precision and solved once per
  mirrored angle pair theta, pi - theta, and for the diagonal tail a closed
  form.

The gap between the convex hull of the inner values and the outer polygon is
reported as an explicit certificate; the outer polygon is only supported in
upward directions, so the part of the plane below the region and above b = 0
is never excluded by construction.

A diagonal matrix has its upper bild in closed form (diagonal_bild).
upper_bild is the one region builder: it samples only a dense block
(_sampled_bild) and composes a block-plus-diagonal matrix's region from the
block's sampled region and the tail's closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import NumericalError, sym_eig
from .geometry import (
    clip_polygon,
    convex_hull,
    hausdorff_convex,
    minkowski_sum,
    upper_support_polygon,
)
from .qmatrix import QMatrix
from .quaternion import CONJ_SIGNS, TRIPLE, qconj, qconjugator, rotation_aligning

__all__ = [
    "BildRegion",
    "nr_sample",
    "upper_bild_support",
    "support_offsets",
    "upper_bild",
    "diagonal_bild",
    "refined_values",
    "bild_points",
    "real_section",
    "RealSection",
    "RealSectionError",
]

_CHUNK_BUDGET = 4_000_000  # floats per sampling chunk, keeps peak memory modest
_ANGLE_CHUNK = 32  # folded angles per dense eigen solve, each serving t and pi - t
_ANGLE_MERGE = 2e-15  # folded angles this close to their group's least share its solve
_INTEREST_LIMIT = 18  # coordinates in the pair sweeps of refined_values
_REFINE_ITERS = 120  # ascent steps per start in real_section
_PENALTY_SCALE = 20.0  # real_section's |Im| penalty per unit of 1 + |T|_F


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def _unit_samples(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    x = rng.standard_normal((m, n, 4))
    norms = np.sqrt(np.sum(x * x, axis=(1, 2)))
    return x / norms[:, None, None]


def _to_u(x: np.ndarray) -> np.ndarray:
    """First column of chi(x) for quaternion vectors x (..., n, 4), shape (..., 2n).

    Writing x = A + B j with complex A = x0 + i x1 and B = x2 + i x3, the
    column is (A, -conj(B)).
    """
    n = x.shape[-2]
    u = np.empty(x.shape[:-2] + (2 * n,), dtype=complex)
    u.real[..., :n] = x[..., 0]
    u.imag[..., :n] = x[..., 1]
    np.negative(x[..., 2], out=u.real[..., n:])
    u.imag[..., n:] = x[..., 3]
    return u


def _chi_values(u: np.ndarray, cu: np.ndarray) -> np.ndarray:
    """Values <Tx, x> (..., 4) from u = _to_u(x) and cu = chi(T) u.

    chi(x)^H chi(T) chi(x) = [[z1, z2], [-conj(z2), conj(z1)]] is chi of
    <Tx, x> = z1 + z2 j.  Here z1 = u^H cu, formed from the real and imaginary
    views so that no conjugated copy of u is made, and the second column w of
    chi(x) has conj(w) = (-u2, u1), so w^H cu = -conj(z2) needs no conjugation.
    """
    n = u.shape[-1] // 2
    ur, ui, cr, ci = u.real, u.imag, cu.real, cu.imag
    z1_re = np.einsum("...k,...k->...", ur, cr) + np.einsum("...k,...k->...", ui, ci)
    z1_im = np.einsum("...k,...k->...", ur, ci) - np.einsum("...k,...k->...", ui, cr)
    wcu = (np.einsum("...k,...k->...", u[..., :n], cu[..., n:])
           - np.einsum("...k,...k->...", u[..., n:], cu[..., :n]))
    return np.stack([z1_re, z1_im, -wcu.real, wcu.imag], axis=-1)


def nr_sample(T: QMatrix, m: int, seed: int = 0) -> np.ndarray:
    """Values <Tx, x> at m uniformly sampled unit vectors, shape (m, 4).

    Unit vectors are normalized Gaussian coordinate tuples, drawn in chunks
    of _CHUNK_BUDGET // (4n); the output is deterministic for a fixed
    (T, m, seed), but depends on the chunk size and is no prefix of a larger
    m's.  Every value is taken on the complex adjoint matrix chi(T).
    """
    if m < 1:
        raise ValueError("m must be positive")
    n = T.n
    chi_t = T.complex_rep().T
    rng = _rng(seed, 0)
    chunk = max(1, _CHUNK_BUDGET // (4 * n))
    out = np.empty((m, 4))
    done = 0
    while done < m:
        take = min(chunk, m - done)
        X4 = rng.standard_normal((4, take, n))
        norms = np.sqrt(np.einsum("cmk,cmk->m", X4, X4))
        X4 /= norms[None, :, None]
        u = _to_u(np.moveaxis(X4, 0, -1))
        out[done:done + take] = _chi_values(u, u @ chi_t)
        done += take
    return out


def bild_points(values: np.ndarray) -> np.ndarray:
    """Map quaternion values (m, 4) to bild coordinates (a, b), b >= 0."""
    # the left-to-right sum np.sum takes over a row, without its slow short-axis reduction
    b = values[:, 1] ** 2 + values[:, 2] ** 2 + values[:, 3] ** 2
    return np.stack([values[:, 0], np.sqrt(b, out=b)], axis=1)


# -- support function of the upper bild -----------------------------------------

def _component_forms(T: np.ndarray) -> np.ndarray:
    """Real symmetric forms M_c with <Tx, x>_c = vec(x)^T M_c vec(x), shape (4, 4n, 4n)."""
    n = T.shape[0]
    raw = np.einsum("a,adbc,kld->kalbc", CONJ_SIGNS, TRIPLE, T)
    raw = raw.reshape(4 * n, 4 * n, 4)
    sym = 0.5 * (raw + raw.transpose(1, 0, 2))
    return np.moveaxis(sym, -1, 0)


def _end_vectors(stack: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Unit vectors near the bottom and top eigenvectors of a Hermitian stack, (s, 2, N).

    stack is (s, N, N) with extreme eigenvalues ends (s, 2).  Each end takes
    one step of inverse iteration (Ipsen 1997, SIAM Review 39): the solve
    (H - sigma I) y = start with sigma = lambda_min - delta or
    lambda_max + delta, where delta = 1e-10 (1 + max |lambda|), from a
    fixed seeded start, so the vectors depend on the stack alone.  sigma
    lies outside the spectrum, so H - sigma I is definite and the solve
    meets no zero pivot, and y weighs each eigenvector by
    1 / |lambda - sigma|, favouring the end's eigenspace by gap / delta.
    The stack's diagonal is overwritten.
    """
    n = stack.shape[-1]
    start = (1.0, 1j) @ _rng(0, 4).standard_normal((2, n))
    idx = np.arange(n)
    diag = stack[:, idx, idx]
    delta = 1e-10 * (1.0 + np.abs(ends).max(axis=1))
    out = np.empty((len(stack), 2, n), dtype=complex)
    for col, sigma in enumerate((ends[:, 0] - delta, ends[:, 1] + delta)):
        stack[:, idx, idx] = diag - sigma[:, None]
        y = np.linalg.solve(stack, start[:, None])[..., 0]
        out[:, col] = y / np.linalg.norm(y, axis=1, keepdims=True)
    return out


def _support_points(T: QMatrix, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support values h(theta) and, per angle, a bild point that attains h(theta).

    For the dense block B, h(theta) is the top eigenvalue of
    H(theta) = cos(theta) Hr + sin(theta) Hi, the Hermitian part of
    exp(-i theta) chi(B), with Hr = herm(chi) and Hi = herm(-i chi) on the
    complex adjoint matrix chi = chi(B).  One solve serves two angles.
    chi is quaternionic: J conj(chi) J^-1 = chi for J = [[0, I], [-I, 0]],
    so J conj(Hr) J^-1 = Hr and J conj(Hi) J^-1 = -Hi.  Hence, for real c
    and s, c Hr + s Hi and c Hr - s Hi have the same spectrum, and since
    H(pi - theta) = -(cos(theta) Hr - sin(theta) Hi),

        h(pi - theta) = -lambda_min(H(theta)).

    Each angle t is folded to phi = min(t, pi - t) (pi - t is exact in
    floating point for t >= pi/2), the folded angles are sorted, and those
    within _ANGLE_MERGE of the least angle of their group share that angle's
    solve; linspace(0, pi, k) thus needs ceil(k/2) solves.  The merge moves
    the solved angle by at most 2e-15, and h by at most 2e-15 max |h|
    (|h'| is at most the norm of a bild point), far inside _sampled_bild's
    1e-12 (1 + max |h|) pad.  The stacks are solved in chunks of
    _ANGLE_CHUNK folded angles, which bounds the eigen stack.  Each chunk's
    h comes from one eigvalsh call, which computes no eigenvectors.

    Boundary points (Johnson's): a unit vector u attaining the top
    eigenvalue of H(phi) is the column _to_u(x) of a unit vector x, so
    <Bx, x> attains h(phi) for t <= pi/2.  For t > pi/2 a unit vector w
    attaining the bottom eigenvalue serves: with q = <Bx, x> = z1 + z2 j its
    value, w^H H(phi) w = lambda_min = cos(phi) Re z1 + sin(phi) Im z1, and
    |Im q| >= |Im z1| >= -Im z1, so the bild point (a, b) of q has
    (-cos(phi), sin(phi)) . (a, b) >= -lambda_min = h(pi - phi); being
    attained, it cannot exceed h, so it lies on the support line.  Each
    end's vector comes from one shifted solve (_end_vectors), and its point
    is the value <Bx, x> at that explicit unit vector, so it is attained
    whatever the solve's accuracy; how close it comes to h is what
    _sampled_bild checks.

    A diagonal tail entry d has the similarity sphere of d as its values, so
    the tail's support is the closed form max_k a_k cos(theta) + b_k sin(theta)
    over its bild points (a_k, b_k), on their convex hull (_hull_support).
    Any 1-D angle array in [0, pi] is accepted, unsorted, with duplicates or
    empty; anything else, NaN included, raises ValueError.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or not np.all((thetas >= -1e-12) & (thetas <= math.pi + 1e-12)):
        raise ValueError("support angles must be a 1-D array in [0, pi]")
    n = T.n
    b = T.block_split()
    h = np.full(thetas.shape, -np.inf)
    points = np.zeros((len(thetas), 2))
    if b > 0 and len(thetas):
        chi = T.leading_block(b).complex_rep()
        herm_re = 0.5 * (chi + chi.conj().T)
        herm_im = 0.5j * (chi.conj().T - chi)
        mirror = thetas > 0.5 * math.pi  # served by the bottom end of pi - t
        folded = np.where(mirror, math.pi - thetas, thetas)
        order = np.argsort(folded, kind="stable")
        ranked = folded[order].tolist()
        first = [0]
        for i, phi in enumerate(ranked):
            if phi - ranked[first[-1]] > _ANGLE_MERGE:
                first.append(i)
        group = np.empty(len(thetas), dtype=np.intp)
        group[order] = np.searchsorted(first, np.arange(len(thetas)), side="right") - 1
        phis = folded[order[first]]
        ends = np.empty((len(phis), 2))  # (lambda_min, lambda_max) per solve
        end_points = np.empty((len(phis), 2, 2))
        for lo in range(0, len(phis), _ANGLE_CHUNK):
            hi = min(lo + _ANGLE_CHUNK, len(phis))
            stack = (np.cos(phis[lo:hi])[:, None, None] * herm_re
                     + np.sin(phis[lo:hi])[:, None, None] * herm_im)
            ends[lo:hi] = np.linalg.eigvalsh(stack)[:, [0, -1]]
            pair = _end_vectors(stack, ends[lo:hi])  # (chunk, 2, 2n)
            values = _chi_values(pair, pair @ chi.T).reshape(-1, 4)
            end_points[lo:hi] = bild_points(values).reshape(-1, 2, 2)
        h = np.where(mirror, -ends[group, 0], ends[group, 1])
        points = end_points[group, np.where(mirror, 0, 1)]
    if b < n:
        tail_h, tail_points = _hull_support(convex_hull(bild_points(T.diagonal_tail())), thetas)
        take = tail_h > h
        h = np.where(take, tail_h, h)
        points[take] = tail_points[take]
    return h, points


def _hull_support(hull: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support h(theta) of a point set from its convex hull, and a vertex attaining it.

    A linear functional peaks at a hull vertex, so only the vertices are
    evaluated, a (len(thetas), vertices) array; the best is the angle's point.
    """
    reach = np.outer(np.cos(thetas), hull[:, 0]) + np.outer(np.sin(thetas), hull[:, 1])
    best = np.argmax(reach, axis=1)
    return reach[np.arange(len(thetas)), best], hull[best]


def support_offsets(T: QMatrix, thetas: np.ndarray) -> np.ndarray:
    """Support values h(theta) = max over unit x of cos(theta) Re<Tx,x> + sin(theta) |Im<Tx,x>|.

    Because the set of values is closed under similarity rotations, the target
    equals the maximum of Re(exp(-i theta) u^H chi(T) u) over unit complex u,
    the top eigenvalue of H(theta), the Hermitian part of exp(-i theta) chi(T).
    Only the dense block is solved this way, by the eigvalsh call that
    _sampled_bild makes, so both report the same h bit for bit; its
    boundary vectors come from a shifted solve after it, which leaves h as
    it is.  One eigenvalue solve serves both theta and pi - theta: chi is
    quaternionic, so h(pi - theta) = -lambda_min(H(theta)) (proof in
    _support_points).  The diagonal tail contributes the closed
    form max_k a_k cos(theta) + b_k sin(theta) over its bild points.
    thetas must be a 1-D array in [0, pi]; NaN, infinities and other shapes
    raise ValueError.
    """
    return _support_points(T, np.asarray(thetas, dtype=float))[0]


def upper_bild_support(T: QMatrix, theta: float) -> float:
    """Single support value from the whole matrix's real 4n x 4n forms.

    The top eigenvalue of cos(theta) M_0 + sin(theta) M_1, with M_c the real
    symmetric form of component c of <Tx, x>, residual-certified by sym_eig.
    It ignores block structure and chi(T), so it is an independent reference
    for support_offsets.
    """
    if not (0.0 - 1e-12 <= theta <= math.pi + 1e-12):
        raise ValueError("theta must lie in [0, pi]")
    forms = _component_forms(T.arr)
    return float(sym_eig(math.cos(theta) * forms[0]
                         + math.sin(theta) * forms[1]).eigenvalues[-1])


# -- the bild region -------------------------------------------------------------

@dataclass
class BildRegion:
    """Inner hull and outer support polygon of an upper bild.

    The inner hull is the convex hull of attained values: on a dense matrix
    the sampled cloud plus, at every support angle, a boundary point
    attaining h(theta); on a matrix with a diagonal part the composed
    polygon itself (upper_bild).  The upper bild is convex, so the hull is a
    sound inner region.  The two certificates are computed from the fields
    each time they are read.
    """

    inner_points: np.ndarray  # (m, 2) sampled values, or the composed polygon
    inner_hull: np.ndarray  # hull vertices of inner_points and boundary_points
    outer_polygon: np.ndarray  # intersection of support half-planes with b >= 0
    boundary_points: np.ndarray  # (k, 2), row j attains h(thetas[j])
    thetas: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    @property
    def hausdorff_gap(self) -> float:
        """Hausdorff distance between inner_hull and outer_polygon."""
        return hausdorff_convex(self.inner_hull, self.outer_polygon)

    @property
    def support_gap(self) -> float:
        """Worst support deficiency of inner_hull: max over the grid of h(t) - its reach."""
        dirs = np.stack([np.cos(self.thetas), np.sin(self.thetas)], axis=1)
        return float((self.offsets - (self.inner_hull @ dirs.T).max(axis=0)).max())


def _sampled_bild(T: QMatrix, m: int, k: int, seed: int) -> BildRegion:
    """Inner hull of m sampled values plus support-function outer polygon.

    The outer polygon intersects the half-planes a cos(t) + b sin(t) <= h(t)
    for k equispaced angles in [0, pi] with b >= 0.  The inner hull spans the
    m sampled values and one boundary point per angle that attains h(t), so
    it meets every support line of the grid.  Each line therefore touches
    the convex upper bild, and the outer polygon is read off the lines in
    closed form (geometry.upper_support_polygon): the hull of (h(0), 0), the
    meeting points of consecutive lines and (-h(pi), 0).

    The grid is symmetric about pi/2, so the dense block needs ceil(k/2)
    eigenvalue solves (_support_points): eigvalsh on H(t) gives h(t) and
    h(pi - t) = -lambda_min(H(t)), and one shifted solve per end gives a
    unit vector whose value is that angle's boundary point.  The inner
    route's soundness rests on the check below, which compares each
    attained boundary value with h, not on the accuracy of that solve.

    Only upward support directions exist, so the outer polygon extends down
    to b = 0 even where the region does not, and hausdorff_gap includes that
    under-region.  The bild is closed under conjugation, so the support
    polygon proper is the outer polygon mirrored across b = 0; the distance
    between the mirrored inner hull and the mirrored outer polygon is the
    worst support deficiency over every upward direction.

    Raises NumericalError when a boundary point leaves a support half-plane
    or misses its own h(t) by more than 1e-9 (1 + max |h|).
    """
    if k < 3:
        raise ValueError("need at least three support angles")
    values = nr_sample(T, m, seed)
    inner = bild_points(values)
    thetas = np.linspace(0.0, math.pi, k)
    offsets, boundary = _support_points(T, thetas)
    scale = 1.0 + float(np.max(np.abs(offsets)))
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    # a linear functional peaks at a hull vertex, so the hull checks every point
    edge = convex_hull(boundary)
    outside = float((edge @ dirs.T - offsets[None, :]).max())
    missed = float(np.abs(np.einsum("ij,ij->i", boundary, dirs) - offsets).max())
    if max(outside, missed) > 1e-9 * scale:
        raise NumericalError(
            f"support boundary points off their support lines: outside by "
            f"{outside:.3e}, missing h by {missed:.3e}")
    # an outward pad keeps the polygon a superset when h(t) is rounded down
    outer = upper_support_polygon(thetas, offsets + 1e-12 * scale)
    hull = convex_hull(np.vstack([inner, edge]))
    return BildRegion(inner_points=inner, inner_hull=hull, outer_polygon=outer,
                      boundary_points=boundary, thetas=thetas, offsets=offsets)


# -- the upper bild of a diagonal matrix, in closed form ---------------------------

def _axis_pairs(lam: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs k < l attaining the least and the largest c_kl.

    c_kl = (a_k b_l + a_l b_k) / (b_k + b_l) over the pairs k != l with
    b_k + b_l > 0, a weighted mean of a_k and a_l.  Let p be the first
    index with the least a.  Then the least c_kl is the least c_pl over the
    qualifying pairs (p, l), so one pass over l finds it.

    Proof.  Take a qualifying pair (k, l) without p, with a_k <= a_l, so
    c_kl >= a_k.  If (p, k) qualifies, c_pk <= a_k, a mean of a_p <= a_k
    and a_k.  If it does not, b_p = b_k = 0, so b_l > 0, (p, l) qualifies
    and c_pl = a_p <= a_k = c_kl.  When no pair (p, l) qualifies, every b
    vanishes and no pair qualifies at all.  The largest c_kl follows in the
    same way from the first index with the largest a.  Empty when no pair
    qualifies.
    """
    a, b = lam[:, 0], lam[:, 1]
    pairs = []
    for sign, p in ((1.0, int(np.argmin(a))), (-1.0, int(np.argmax(a)))):
        s = b[p] + b
        live = s > 0.0
        live[p] = False
        if not live.any():
            continue
        c = (a[p] * b + a * b[p]) / np.where(live, s, 1.0)
        l = int(np.argmin(np.where(live, sign * c, np.inf)))
        pairs.append((min(p, l), max(p, l)))
    return pairs


def _diagonal_vertices(d: np.ndarray, lam: np.ndarray,
                       hull: np.ndarray) -> tuple[np.ndarray, list, list]:
    """Polygon of the upper bild of diag(d), and a vector attaining each vertex.

    lam = bild_points(d) and hull = convex_hull(lam), which with the axis
    points spans the polygon.  Returns (poly, coords, xs): vertex v is
    attained at the unit vector with entries xs[v] (shape
    (len(coords[v]), 4)) on the coordinates coords[v].
    """
    pairs = _axis_pairs(lam)
    axis = np.array([((lam[k, 0] * lam[l, 1] + lam[l, 0] * lam[k, 1])
                      / (lam[k, 1] + lam[l, 1]), 0.0) for k, l in pairs]).reshape(-1, 2)
    poly = convex_hull(np.vstack([hull, axis]))
    cands = np.vstack([lam, axis])
    # each vertex's candidate, the last of equal ones, read as complex keys
    keys = cands.view(complex).ravel()
    coords, xs = [], []
    for v in np.ascontiguousarray(poly).view(complex).ravel().tolist():
        i = int(np.flatnonzero(keys == v)[-1])
        if i < len(lam):
            coords.append((i,))
            xs.append(np.array([[1.0, 0.0, 0.0, 0.0]]))
            continue
        k, l = pairs[i - len(lam)]
        w = lam[l, 1] / (lam[k, 1] + lam[l, 1])
        # conj(u) d_l u has its imaginary part antiparallel to that of d_k
        u = qconjugator(d[l], qconj(d[k]))
        coords.append((k, l))
        xs.append(np.array([[math.sqrt(w), 0.0, 0.0, 0.0], math.sqrt(1.0 - w) * u]))
    return poly, coords, xs


def _subspace_values(T: QMatrix, coords, x: np.ndarray) -> np.ndarray:
    """Values <Tx, x> (..., 4) at vectors x (..., len(coords), 4) supported on coords.

    Taken on chi of the principal submatrix on coords.
    """
    chi = T.principal(coords).complex_rep()
    u = _to_u(x)
    return _chi_values(u, u @ chi.T)


def diagonal_bild(T: QMatrix, k: int = 180) -> BildRegion:
    """Upper bild of a diagonal matrix D in closed form, checked exact.

    With lambda_k = (a_k, b_k) the bild points of the diagonal entries,

        B(D) = conv({lambda_k} u {(c_min, 0), (c_max, 0)}),

    where c_min and c_max are the extreme values of
    c_kl = (a_k b_l + a_l b_k) / (b_k + b_l) over index pairs k != l with
    b_k + b_l > 0.  Equal entries at two indices still form a pair, while a
    single entry's values are its sphere alone, so k = l is excluded.

    Proof sketch.  <Dx, x> = sum_k w_k conj(u_k) d_k u_k with weights
    w_k = |x_k|^2 and unit u_k, and the rotations move the imaginary parts
    of the terms freely over spheres of radii r_k = w_k b_k.  So at fixed
    weights the values have a = sum_k w_k a_k and fill the b-interval
    [max(0, 2 max_k r_k - sum_k r_k), sum_k r_k].

    * The top end sum_k w_k lambda_k lies in conv(lambda).
    * A positive bottom end aligns every term against the largest one, k*:
      it is sum_k w_k lambda'_k with lambda'_k* = lambda_k* and
      lambda'_l = mirror(lambda_l), and it has b > 0.  The part of
      conv(lambda_k*, mirror(lambda_l) : l != k*) above b = 0 is spanned by
      lambda_k* and the crossings of the segments lambda_k*--mirror(lambda_l)
      with b = 0, which are the points (c_k*l, 0).
    * A bottom end of 0 needs max_k r_k <= sum_k r_k / 2, which is exactly
      when a symmetric zero-diagonal X >= 0 with row sums r_k exists.  Then
      sum_k w_k a_k = sum_{k<l} X_kl (1/b_k + 1/b_l) c_kl
      + sum_{b_k = 0} w_k a_k, a convex combination of points (c_kl, 0) and
      of lambda_k on b = 0.

    So B(D) lies in the polygon.  Conversely the upper bild is convex
    (Au-Yeung 1984; So and Thompson 1996) and attains every vertex:
    lambda_k at e_k, and c_kl at sqrt(w) e_k + sqrt(1 - w) u e_l with
    w = b_l / (b_k + b_l) and u from quaternion.qconjugator, so that the
    two imaginary parts, of equal length, are antiparallel.

    The region is exact by a check, not by the argument alone: each
    vertex's vector is evaluated on chi of its principal submatrix, and the
    polygon's support, axis points included, is compared with h, the
    support of lambda's convex hull as support_offsets takes it, on k
    equispaced angles in [0, pi]; that one hull also spans the polygon.
    NumericalError is raised unless both agree within 1e-12 (1 + max |h|).
    inner_points and the inner hull are then the polygon itself;
    boundary_points holds the vertex attaining each angle's support.  The
    outer polygon is the polygon widened by that tolerance (the Minkowski
    sum with a square of half-width 1e-12 (1 + max |h|), cut at b = 0), so
    it stays a superset when a vertex is rounded inward, as _sampled_bild
    pads its offsets; hausdorff_gap is that pad times sqrt(2) at most.  No
    vectors are sampled.
    """
    if T.block_split() != 0:
        raise ValueError("diagonal_bild needs a diagonal matrix")
    if k < 3:
        raise ValueError("need at least three support angles")
    d = T.diagonal_tail()
    lam = bild_points(d)
    hull = convex_hull(lam)
    poly, coords, xs = _diagonal_vertices(d, lam, hull)
    thetas = np.linspace(0.0, math.pi, k)
    offsets = _hull_support(hull, thetas)[0]
    scale = 1.0 + float(np.max(np.abs(offsets)))
    values = np.array([_subspace_values(T, c, x) for c, x in zip(coords, xs)])
    missed = float(np.abs(bild_points(values) - poly).max())
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    reach = poly @ dirs.T
    support = float(np.abs(reach.max(axis=0) - offsets).max())
    if max(missed, support) > 1e-12 * scale:
        raise NumericalError(
            f"diagonal closed form not exact: a vertex misses its vector's value by "
            f"{missed:.3e}, the support misses h by {support:.3e}")
    pad = 1e-12 * scale
    square = np.array([(-pad, -pad), (pad, -pad), (pad, pad), (-pad, pad)])
    outer = convex_hull(clip_polygon(minkowski_sum(poly, square), (0.0, -1.0), 0.0))
    return BildRegion(inner_points=poly, inner_hull=poly, outer_polygon=outer,
                      boundary_points=poly[np.argmax(reach, axis=0)],
                      thetas=thetas, offsets=offsets)


# -- the upper bild region of any matrix, composed ---------------------------------

def upper_bild(T: QMatrix, m: int = 20000, k: int = 180, seed: int = 0) -> BildRegion:
    """Upper bild region of T = B (+) D from its dense block B and diagonal tail D.

    B = T[:b, :b] with b = T.block_split(), and D is the rest of the
    diagonal.  A diagonal T (b = 0) returns diagonal_bild(T, k), exact and
    unsampled; a T without a diagonal tail (b = n) returns
    _sampled_bild(T, m, k, seed), whose inner_points are the m samples.
    Otherwise, with mirror(a, b) = (a, -b) and B(.) the upper bild,

        B(T) = conv(B(B) u B(D) u I x {0}),  I = conv(B(B) u mirror(B(D))) n R.

    Proof.  For a unit x = (y, z), <Tx, x> = t q1 + (1 - t) q2 with
    t = |y|^2, q1 in W(B) and q2 in W(D); replacing y, z by y u, z v for
    unit quaternions u, v rotates q1 and q2 independently over their
    similarity spheres.  So with p1 = (a1, b1), p2 = (a2, b2) their bild
    points, the values at fixed t have a = t a1 + (1 - t) a2 and fill the
    b-interval [|t b1 - (1 - t) b2|, t b1 + (1 - t) b2].  The top end
    t p1 + (1 - t) p2 lies in conv(B(B) u B(D)).  The bottom end is
    t p1 + (1 - t) mirror(p2) in C = conv(B(B) u mirror(B(D))), or its
    mirror in mirror(C).  Above b = 0 either set is spanned by its vertices
    there, which lie in B(B) u B(D), and by its crossings with b = 0, which
    span I x {0}.  The right side is convex and holds both ends, hence the
    interval.  Conversely B(B) (z = 0) and B(D) (y = 0) lie in B(T), and a
    point of I is t p1 + (1 - t) mirror(p2) with t b1 = (1 - t) b2 (as in
    lancaster.iconv_polygon), attained at x = (sqrt(t) y, sqrt(1 - t) z u)
    with u from quaternion.qconjugator turning the two imaginary parts, of
    equal length, antiparallel.  The upper bild is convex (So and Thompson
    1996), so it holds the right side.

    The region applies the lemma to attained parts: A, _sampled_bild(B)'s
    inner hull (m samples of the block only, with this seed) and the
    block's two real-section ends (_real_ends, the ascent's), each at its
    own attained b <= 1e-6; P, diagonal_bild(D)'s exact polygon; and
    I = conv(A u mirror(P)) n R.  So Q = conv(A u P u I x {0}) is attained
    and lies in B(T); it is both inner_points and inner_hull.  The offsets
    are the larger of the two parts' offsets, which is support_offsets(T)
    (I x {0} adds nothing upward, by the same convex combination), and the
    outer polygon is read off them with _sampled_bild's pad.  Raises
    NumericalError when Q leaves a support half-plane or misses h by more
    than 1e-9 (1 + max |h|).
    """
    if m < 1:
        raise ValueError("m must be positive")
    b = T.block_split()
    if b == 0:
        return diagonal_bild(T, k=k)
    if b == T.n:
        return _sampled_bild(T, m, k, seed)
    B = T.leading_block(b)
    block = _sampled_bild(B, m, k, seed)
    try:
        ends = _real_ends(B, seed, 1e-6)
    except RealSectionError:
        ends = np.empty((0, 2))
    tail = diagonal_bild(QMatrix.block_diag(QMatrix.zeros(0), T.diagonal_tail()), k=k)
    hull = convex_hull(np.vstack([block.inner_hull, ends, tail.inner_hull * (1.0, -1.0)]))
    cut = clip_polygon(clip_polygon(hull, (0.0, -1.0), 0.0), (0.0, 1.0), 0.0)
    Q = convex_hull(np.vstack([block.inner_hull, ends, tail.inner_hull,
                               np.column_stack([cut[:, 0], np.zeros(len(cut))])]))
    offsets = np.maximum(block.offsets, tail.offsets)
    thetas = block.thetas
    scale = 1.0 + float(np.max(np.abs(offsets)))
    reach = Q @ np.stack([np.cos(thetas), np.sin(thetas)], axis=1).T
    missed = float(np.abs(reach.max(axis=0) - offsets).max())
    if missed > 1e-9 * scale:
        raise NumericalError(f"composed section region misses h by {missed:.3e}")
    outer = upper_support_polygon(thetas, offsets + 1e-12 * scale)
    return BildRegion(inner_points=Q, inner_hull=Q, outer_polygon=outer,
                      boundary_points=Q[np.argmax(reach, axis=0)],
                      thetas=thetas, offsets=offsets)


# -- deterministic boundary-seeking samples ---------------------------------------

def _pair_values(T: QMatrix, i: int, j: int, gammas: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Exact values <Tx, x> for x supported on coordinates i and j.

    x = e_i cos(g) + e_j u(psi) sin(g) where u(psi) rotates the imaginary
    direction of T_jj across the great circle through the direction of T_ii,
    sweeping aligned to anti-aligned combinations.  The values are taken on
    chi of the 2 x 2 principal submatrix on i and j, in (g, psi) row order.
    """
    tii = T.entry(i, i)
    tjj = T.entry(j, j)

    bi, bj = tii.im_norm(), tjj.im_norm()
    if bi > 1e-14:
        v_ref = tii.im / bi
    else:
        v_ref = np.array([1.0, 0.0, 0.0])
    if bj > 1e-14:
        v_j = tjj.im / bj
    else:
        v_j = v_ref
    # orthonormal partner of v_ref to parametrize target directions
    probe = np.zeros(3)
    probe[int(np.argmin(np.abs(v_ref)))] = 1.0
    v_perp = np.cross(v_ref, probe)
    v_perp /= np.linalg.norm(v_perp)

    us = np.empty((len(psis), 4))
    for idx, psi in enumerate(psis):
        target = math.cos(psi) * v_ref + math.sin(psi) * v_perp
        us[idx] = rotation_aligning(v_j, target).to_array()

    x = np.zeros((len(gammas), len(psis), 2, 4))
    x[:, :, 0, 0] = np.cos(gammas)[:, None]
    x[:, :, 1, :] = np.sin(gammas)[:, None, None] * us[None, :, :]
    return _subspace_values(T, [i, j], x).reshape(-1, 4)


def _interest_coordinates(T: QMatrix) -> list[int]:
    """Coordinates worth pairing: the dense block plus extreme diagonal classes.

    Diagonal classes are picked by directional extremeness in two peeled
    layers: the second layer re-runs the direction sweep with the first
    layer's classes removed, which keeps the strongest cancellation partners
    (largest |Im| among non-extreme classes) in the pair sweep.
    """
    n = T.n
    b = T.block_split()
    chosen = list(range(min(b, 6)))
    if b < n:
        pts = bild_points(T.diagonal_tail())
        dirs = np.stack([np.cos(np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)),
                         np.sin(np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False))],
                        axis=1)
        proj = pts @ dirs.T
        layer1 = set(int(i) for i in np.argmax(proj, axis=0))
        picked_pts = pts[sorted(layer1)]
        away = np.ones(len(pts), dtype=bool)
        for p in picked_pts:
            away &= np.linalg.norm(pts - p[None, :], axis=1) > 1e-9
        picks = set(layer1)
        if np.any(away):
            rest = np.flatnonzero(away)
            picks.update(int(rest[i]) for i in np.argmax(proj[rest], axis=0))
        for p in sorted(picks):
            if len(chosen) >= _INTEREST_LIMIT:
                break
            chosen.append(b + p)
    return chosen


def refined_values(T: QMatrix, gammas: int = 257, psis: int = 33) -> np.ndarray:
    """Deterministic exact bild members targeting the boundary, shape (r, 4).

    Includes every diagonal value <T e_k, e_k> and two-coordinate sweeps
    x = e_i cos(g) + e_j u sin(g) over mixing angles g and relative imaginary
    alignments u, for a small set of interesting coordinate pairs.  Every
    output is an exactly evaluated <Tx, x> at an explicit unit vector, so the
    points are genuine members of the numerical range.
    """
    vals = [T.diagonal()]
    coords = _interest_coordinates(T)
    ggrid = np.linspace(0.0, math.pi / 2.0, gammas)
    pgrid = np.linspace(0.0, math.pi, psis)
    for ai in range(len(coords)):
        for aj in range(ai + 1, len(coords)):
            vals.append(_pair_values(T, coords[ai], coords[aj], ggrid, pgrid))
    return np.vstack(vals)


# -- the real section --------------------------------------------------------------

class RealSectionError(NumericalError):
    """No value with |Im <Tx, x>| below tolerance was found."""

    def __init__(self, best_im: float):
        super().__init__(f"no real value found; best |Im| = {best_im:.3e}")
        self.best_im = best_im


@dataclass(frozen=True)
class RealSection:
    lo: float
    hi: float


def _section_forms(chi: np.ndarray) -> np.ndarray:
    """The forms H_r, H_i and S of real_section on C = chi(T), shape (3, 2n, 2n).

    H_r = (C + C^H)/2 and H_i = (C - C^H)/(2i) are Hermitian, and
    S = KC + (KC)^T with K = [[0, I], [-I, 0]] is complex symmetric.
    """
    n = chi.shape[0] // 2
    kc = np.concatenate([chi[n:], -chi[:n]])  # K C
    return np.stack([0.5 * (chi + chi.conj().T), 0.5j * (chi.conj().T - chi), kc + kc.T])


def _value_and_grad(forms: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value <Tx, x> (4,) at u = _to_u(x) and its per-component gradients (4, 2n).

    forms = _section_forms(chi(T)).  By _chi_values, <Tx, x> = z1 + z2 j with
    z1 = u^H C u = u^H H_r u + i u^H H_i u, and its last two components are
    (-Re w, Im w) for w = u[:n]^T (Cu)[n:] - u[n:]^T (Cu)[:n] = u^T K C u
    = 1/2 u^T S u.  So

        <Tx, x> = (u^H H_r u, u^H H_i u, -Re w, Im w).

    A gradient g of a real function f of u is taken in the real inner product
    of C^2n, df = Re(g^H du).  For Hermitian H, d(u^H H u) = 2 Re((Hu)^H du),
    so g = 2 H u.  For symmetric S, dw = u^T S du = conj(Su)^H du, so
    Re w has g = conj(Su) and Im w = Re(-i dw) has g = i conj(Su).  The
    gradients are therefore 2 H_r u, 2 H_i u, -conj(Su) and i conj(Su),
    from the three mat-vecs forms @ u.  _to_u is a real-linear isometry of
    H^n onto C^2n, so these are the gradients in the real coordinates of x,
    carried over by _to_u.
    """
    hr_u, hi_u, s_u = forms @ u
    w = 0.5 * (u @ s_u)
    val = np.array([np.vdot(u, hr_u).real, np.vdot(u, hi_u).real, -w.real, w.imag])
    cs = s_u.conj()
    return val, np.stack([2.0 * hr_u, 2.0 * hi_u, -cs, 1j * cs])


def _refine_real(forms: np.ndarray, u0: np.ndarray, sign: float,
                 penalty: float) -> tuple[float, float]:
    """Projected ascent of sign * Re<Tx,x> - penalty * |Im<Tx,x>| on the unit sphere of C^2n.

    u0 = _to_u(x0) for a start x0, forms = _section_forms(chi(T)).  The tangent
    part of a gradient g at u is g - Re(u^H g) u.
    """
    u = u0 / np.linalg.norm(u0)
    step = 0.1

    def objective(val):
        im = math.sqrt(val[1] ** 2 + val[2] ** 2 + val[3] ** 2)
        return sign * val[0] - penalty * im, im

    val, grads = _value_and_grad(forms, u)
    fx, im = objective(val)
    for _ in range(_REFINE_ITERS):
        imn = math.sqrt(val[1] ** 2 + val[2] ** 2 + val[3] ** 2)
        w = np.zeros(4)
        w[0] = sign
        if imn > 1e-15:
            w[1:] = -penalty * val[1:] / imn
        g = w @ grads
        g -= np.vdot(u, g).real * u
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        moved = False
        while step > 1e-12:
            cand = u + step * g / gn
            cand /= np.linalg.norm(cand)
            cval, cgrads = _value_and_grad(forms, cand)
            cf, cim = objective(cval)
            if cf > fx + 1e-15:
                u, val, grads, fx, im = cand, cval, cgrads, cf, cim
                step = min(step * 1.6, 0.5)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return float(val[0]), im


def _real_ends(T: QMatrix, seed: int, tol: float) -> np.ndarray:
    """Attained bild points with b <= tol and the least and largest a, shape (2, 2).

    A diagonal T takes the vertices of diagonal_bild(T), a convex polygon in
    b >= 0 attained at explicit, checked vectors; where it meets b = 0 they
    include that edge's ends, among (c_min, 0), (c_max, 0) and the real
    entries, so the points span the exact real section, and seed does not
    matter.  Otherwise the candidates are the ends of a projected-gradient
    ascent toward both ends of the real axis, run on the forms of C = chi(T)
    formed once (_value_and_grad).  The ascent starts from four seeded
    random unit vectors and from the extreme eigenvectors of H_r, the
    Hermitian part of C, whose values have the extreme real parts of W(T).
    Each end keeps its own attained b, so it is a genuine bild point.
    Raises RealSectionError, with the least b seen, when no candidate has
    b <= tol.
    """
    if T.block_split() == 0:
        found = diagonal_bild(T).inner_hull
    else:
        penalty = _PENALTY_SCALE * (1.0 + T.frobenius())
        forms = _section_forms(T.complex_rep())
        vecs = np.linalg.eigh(forms[0])[1]
        starts = np.vstack([_to_u(_unit_samples(_rng(seed, 2), 4, T.n)), vecs[:, [-1, 0]].T])
        found = np.array([_refine_real(forms, u0, sign, penalty)
                          for sign in (1.0, -1.0) for u0 in starts])
    low = found[found[:, 1] <= tol]
    if not len(low):
        raise RealSectionError(float(found[:, 1].min()))
    return low[[np.argmin(low[:, 0]), np.argmax(low[:, 0])]]


def real_section(T: QMatrix, m: int = 20000, seed: int = 0,
                 tol: float = 1e-6) -> RealSection:
    """Attained interval of Re<Tx, x> over unit vectors with |Im<Tx, x>| <= tol.

    The interval spans the two ends of _real_ends.  A diagonal T gets the
    exact real section from diagonal_bild's closed form, and seed does not
    matter there; otherwise the ends are the ascent's, an inner (attained)
    estimate.  Nothing is sampled.  RealSectionError, when no candidate
    meets the tolerance, reports the least |Im| seen.  m is accepted and
    checked (m < 1 raises ValueError) but unused.  A tol that is not finite
    and >= 0 raises ValueError.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be finite and >= 0")
    ends = _real_ends(T, seed, tol)
    return RealSection(lo=float(ends[0, 0]), hi=float(ends[1, 0]))
