"""Numerical range, bild and upper bild of quaternionic matrices.

Two independent routes are combined:

* an inner route of attained values <Tx, x> mapped to bild coordinates
  (a, b) = (Re q, |Im q|): values at sampled unit vectors, plus the value at
  each support angle's top eigenvector, which lies on the support line;
* an outer route computing the support function of the upper bild: for the
  dense block the top eigenvalue of a Hermitian form on the complex adjoint
  matrix chi(T), exact up to eigensolver precision, and for the diagonal tail
  a closed form.

The gap between the convex hull of the inner values and the outer polygon is
reported as an explicit certificate; the outer polygon is only supported in
upward directions, so the part of the plane below the region and above b = 0
is never excluded by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import NumericalError, sym_eig
from .geometry import convex_hull, halfplane_intersection, hausdorff_convex
from .qmatrix import QMatrix
from .quaternion import CONJ_SIGNS, HAMILTON, TRIPLE, rotation_aligning

__all__ = [
    "BildRegion",
    "nr_sample",
    "upper_bild_support",
    "support_offsets",
    "upper_bild",
    "refined_values",
    "bild_points",
    "real_section",
    "RealSection",
    "RealSectionError",
]

_CHUNK_BUDGET = 4_000_000  # floats per sampling chunk, keeps peak memory modest
_ANGLE_CHUNK = 32  # support angles per dense eigen solve


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
    return np.concatenate([x[..., 0] + 1j * x[..., 1], -x[..., 2] + 1j * x[..., 3]],
                          axis=-1)


def _from_u(u: np.ndarray) -> np.ndarray:
    """Inverse of _to_u: quaternion vectors (..., n, 4) from columns (..., 2n)."""
    n = u.shape[-1] // 2
    return np.stack([u[..., :n].real, u[..., :n].imag, -u[..., n:].real, u[..., n:].imag],
                    axis=-1)


def _chi_values(u: np.ndarray, cu: np.ndarray) -> np.ndarray:
    """Values <Tx, x> (..., 4) from u = _to_u(x) and cu = chi(T) u.

    chi(x)^H chi(T) chi(x) = [[z1, z2], [-conj(z2), conj(z1)]] is chi of
    <Tx, x> = z1 + z2 j.  Here z1 = u^H cu, and the second column w of chi(x)
    has conj(w) = (-u2, u1), so w^H cu = -conj(z2) needs no conjugation.
    """
    n = u.shape[-1] // 2
    z1 = np.einsum("...k,...k->...", u.conj(), cu)
    wcu = (np.einsum("...k,...k->...", u[..., :n], cu[..., n:])
           - np.einsum("...k,...k->...", u[..., n:], cu[..., :n]))
    return np.stack([z1.real, z1.imag, -wcu.real, wcu.imag], axis=-1)


_PAIRS = [(a, b) for a in range(4) for b in range(a, 4)]


def _packed_diag_forms(d: np.ndarray) -> np.ndarray:
    """Symmetric forms of x -> conj(x) d x packed over coordinate pairs.

    Returns S with shape (10, k, 4): for each unordered component pair the
    per-coordinate coefficients of the four value components.
    """
    # A[k, c, a, b] with conj(p) d p = sum_ab A[., a, b] p_a p_b
    A = np.einsum("a,adbc,kd->kcab", CONJ_SIGNS, TRIPLE, d)
    k = d.shape[0]
    S = np.empty((10, k, 4))
    for idx, (a, b) in enumerate(_PAIRS):
        coeff = A[:, :, a, a] if a == b else A[:, :, a, b] + A[:, :, b, a]
        S[idx] = coeff
    return S


def _values_diag_fast(X4: np.ndarray, packed: np.ndarray, out: np.ndarray) -> None:
    """Accumulate <Dx, x> into out for component-major samples X4 (4, m, k)."""
    for idx, (a, b) in enumerate(_PAIRS):
        out += (X4[a] * X4[b]) @ packed[idx]


def nr_sample(T: QMatrix, m: int, seed: int = 0) -> np.ndarray:
    """Values <Tx, x> at m uniformly sampled unit vectors, shape (m, 4).

    Unit vectors are normalized Gaussian coordinate tuples; the output is
    deterministic for a fixed seed and independent of chunking.
    """
    if m < 1:
        raise ValueError("m must be positive")
    n = T.n
    b = T.block_split()
    diag_tail = T.diagonal()[b:, :]
    packed = _packed_diag_forms(diag_tail) if b < n else None
    chi_t = QMatrix(T.arr[:b, :b, :]).complex_rep().T if b > 0 else None
    rng = _rng(seed, 0)
    chunk = max(1, _CHUNK_BUDGET // (4 * n))
    out = np.empty((m, 4))
    done = 0
    while done < m:
        take = min(chunk, m - done)
        X4 = rng.standard_normal((4, take, n))
        norms = np.sqrt(np.einsum("cmk,cmk->m", X4, X4))
        X4 /= norms[None, :, None]
        vals = np.zeros((take, 4))
        if b > 0:
            u = _to_u(np.moveaxis(X4[:, :, :b], 0, -1))
            vals += _chi_values(u, u @ chi_t)
        if b < n:
            _values_diag_fast(X4[:, :, b:], packed, vals)
        out[done:done + take] = vals
        done += take
    return out


def bild_points(values: np.ndarray) -> np.ndarray:
    """Map quaternion values (m, 4) to bild coordinates (a, b), b >= 0."""
    a = values[:, 0]
    b = np.sqrt(np.sum(values[:, 1:] ** 2, axis=1))
    return np.stack([a, b], axis=1)


# -- support function of the upper bild -----------------------------------------

def _component_forms(T: np.ndarray) -> np.ndarray:
    """Real symmetric forms M_c with <Tx, x>_c = vec(x)^T M_c vec(x), shape (4, 4n, 4n)."""
    n = T.shape[0]
    raw = np.einsum("a,adbc,kld->kalbc", CONJ_SIGNS, TRIPLE, T)
    raw = raw.reshape(4 * n, 4 * n, 4)
    sym = 0.5 * (raw + raw.transpose(1, 0, 2))
    return np.moveaxis(sym, -1, 0)


def _support_points(T: QMatrix, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support values h(theta) and, per angle, a bild point that attains h(theta).

    For the dense block B, h(theta) is the top eigenvalue of the Hermitian
    part of exp(-i theta) chi(B), chi the complex adjoint matrix.  Its top
    eigenvector is the column _to_u(x) of a unit vector x, so <Bx, x> is an
    attained value on the support line (Johnson's boundary points).  Angles
    are solved in chunks, which bounds the eigen stack.  A diagonal tail
    entry d has the similarity sphere of d as its values, so the tail's
    support is the closed form max_k a_k cos(theta) + b_k sin(theta) over its
    bild points (a_k, b_k), attained at its best diagonal class.
    """
    thetas = np.asarray(thetas, dtype=float)
    if np.any(thetas < -1e-12) or np.any(thetas > math.pi + 1e-12):
        raise ValueError("support angles must lie in [0, pi]")
    n = T.n
    b = T.block_split()
    cos = np.cos(thetas)
    sin = np.sin(thetas)
    h = np.full(thetas.shape, -np.inf)
    points = np.zeros((len(thetas), 2))
    if b > 0:
        chi = QMatrix(T.arr[:b, :b, :]).complex_rep()
        herm_re = 0.5 * (chi + chi.conj().T)
        herm_im = 0.5j * (chi.conj().T - chi)
        for lo in range(0, len(thetas), _ANGLE_CHUNK):
            hi = min(lo + _ANGLE_CHUNK, len(thetas))
            stack = (cos[lo:hi, None, None] * herm_re
                     + sin[lo:hi, None, None] * herm_im)
            vals, vecs = np.linalg.eigh(stack)
            top = vecs[:, :, -1]
            h[lo:hi] = vals[:, -1]
            points[lo:hi] = bild_points(_chi_values(top, top @ chi.T))
    if b < n:
        tail = bild_points(T.diagonal()[b:, :])
        reach = np.outer(cos, tail[:, 0]) + np.outer(sin, tail[:, 1])
        best = np.argmax(reach, axis=1)
        tail_h = reach[np.arange(len(thetas)), best]
        take = tail_h > h
        h = np.where(take, tail_h, h)
        points[take] = tail[best[take]]
    return h, points


def support_offsets(T: QMatrix, thetas: np.ndarray) -> np.ndarray:
    """Support values h(theta) = max over unit x of cos(theta) Re<Tx,x> + sin(theta) |Im<Tx,x>|.

    Because the set of values is closed under similarity rotations, the target
    equals the maximum of Re(exp(-i theta) u^H chi(T) u) over unit complex u,
    the top eigenvalue of the Hermitian part of exp(-i theta) chi(T).  Only
    the dense block is solved this way; the diagonal tail contributes the
    closed form max_k a_k cos(theta) + b_k sin(theta) over its bild points.
    """
    h, _ = _support_points(T, np.asarray(thetas, dtype=float))
    return h


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

    The inner hull is the convex hull of attained values: the sampled cloud
    plus, at every support angle, a boundary point attaining h(theta).  The
    upper bild is convex, so the hull is a sound inner region.
    """

    inner_points: np.ndarray  # (m, 2) sampled values, b >= 0
    inner_hull: np.ndarray  # hull vertices of inner_points and boundary_points
    outer_polygon: np.ndarray  # intersection of support half-planes with b >= 0
    hausdorff_gap: float  # Hausdorff distance between inner_hull and outer_polygon
    support_gap: float  # worst support deficiency of the hull over the angle grid
    boundary_points: np.ndarray  # (k, 2), row j attains h(thetas[j])
    thetas: np.ndarray = field(repr=False, default=None)
    offsets: np.ndarray = field(repr=False, default=None)


def upper_bild(T: QMatrix, m: int = 20000, k: int = 180, seed: int = 0) -> BildRegion:
    """Inner hull of attained values plus support-function outer polygon.

    The outer polygon intersects the half-planes a cos(t) + b sin(t) <= h(t)
    for k equispaced angles in [0, pi] with b >= 0 and |a| <= ||T||_F.  The
    inner hull spans the m sampled values and one boundary point per angle
    that attains h(t), so it meets every support line of the grid.

    Only upward support directions exist, so the outer polygon extends down
    to b = 0 even where the region does not, and hausdorff_gap includes that
    under-region.  The bild is closed under conjugation, so the support
    polygon proper is the outer polygon mirrored across b = 0; the distance
    between the mirrored inner hull and the mirrored outer polygon is the
    worst support deficiency over every upward direction.

    Raises NumericalError when a boundary point leaves a support half-plane
    or misses its own h(t) by more than 1e-9 (1 + max |h|).
    """
    if m < 1:
        raise ValueError("m must be positive")
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
    bound = T.frobenius()
    # outward rounding pad keeps antipodal support cuts from crossing when
    # the region is a single point
    pad = 1e-12 * scale
    constraints = [(math.cos(t), math.sin(t), h + pad) for t, h in zip(thetas, offsets)]
    constraints.append((0.0, -1.0, 0.0))  # b >= 0
    constraints.append((1.0, 0.0, bound))
    constraints.append((-1.0, 0.0, bound))
    outer = halfplane_intersection(constraints, bound + 1.0)
    hull = convex_hull(np.vstack([inner, edge]))
    gap = hausdorff_convex(hull, outer)
    support_gap = float((offsets - (hull @ dirs.T).max(axis=0)).max())
    return BildRegion(inner_points=inner, inner_hull=hull, outer_polygon=outer,
                      hausdorff_gap=gap, support_gap=support_gap,
                      boundary_points=boundary, thetas=thetas, offsets=offsets)


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
    chi = QMatrix(T.arr[np.ix_([i, j], [i, j])]).complex_rep()
    u = _to_u(x)
    return _chi_values(u, u @ chi.T).reshape(-1, 4)


def _interest_coordinates(T: QMatrix, limit: int = 18) -> list[int]:
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
        pts = bild_points(T.diagonal()[b:, :])
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
            if len(chosen) >= limit:
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


def _value_and_grad(chi: np.ndarray, x: np.ndarray):
    """Value <Tx, x> and its per-component gradients in the real coordinates, chi = chi(T).

    With u = _to_u(x), chi u and chi^H u are the columns of Tx and T*x.
    """
    u = _to_u(x)
    cu = chi @ u
    y = _from_u(cu)
    w = _from_u((u.conj() @ chi).conj())
    val = _chi_values(u, cu)
    # d/dx_l <T dx, x> has component c equal to [conj((T*x)_l) e_b]_c,
    # and d/dx_l <Tx, dx> equals [conj(e_b) (Tx)_l]_c.
    g1 = np.einsum("a,la,abc->lbc", CONJ_SIGNS, w, HAMILTON)
    g2 = np.einsum("b,ld,bdc->lbc", CONJ_SIGNS, y, HAMILTON)
    return val, g1 + g2  # (n, 4, 4): last axis is the component


def _refine_real(chi: np.ndarray, x0: np.ndarray, sign: float, penalty: float,
                 iters: int = 120) -> tuple[float, float]:
    """Projected ascent of sign * Re<Tx,x> - penalty * |Im<Tx,x>| on the sphere, chi = chi(T)."""
    x = x0 / np.linalg.norm(x0)
    step = 0.1

    def objective(val):
        im = math.sqrt(val[1] ** 2 + val[2] ** 2 + val[3] ** 2)
        return sign * val[0] - penalty * im, im

    val, grads = _value_and_grad(chi, x)
    fx, im = objective(val)
    for _ in range(iters):
        imn = math.sqrt(val[1] ** 2 + val[2] ** 2 + val[3] ** 2)
        w = np.zeros(4)
        w[0] = sign
        if imn > 1e-15:
            w[1:] = -penalty * val[1:] / imn
        g = grads @ w
        g -= np.sum(g * x) * x
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        moved = False
        while step > 1e-12:
            cand = x + step * g / gn
            cand /= np.linalg.norm(cand)
            cval, cgrads = _value_and_grad(chi, cand)
            cf, cim = objective(cval)
            if cf > fx + 1e-15:
                x, val, grads, fx, im = cand, cval, cgrads, cf, cim
                step = min(step * 1.6, 0.5)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return float(val[0]), im


def real_section(T: QMatrix, m: int = 20000, seed: int = 0,
                 tol: float = 1e-6, penalty_scale: float = 20.0) -> RealSection:
    """Attained interval of Re<Tx, x> over unit vectors with |Im<Tx, x>| <= tol.

    Combines exact two-coordinate cancellation candidates, random samples and
    projected-gradient refinement toward both ends of the real axis; the
    returned interval is an inner (attained) estimate.  Raises
    RealSectionError when no candidate meets the tolerance.
    """
    n = T.n
    found: list[float] = []
    best_im = np.inf

    # exact candidates from diagonal entries and pair sweeps
    ref = refined_values(T, gammas=65, psis=9)
    ims = np.sqrt(np.sum(ref[:, 1:] ** 2, axis=1))
    ok = ims <= tol
    if np.any(ok):
        found.extend(ref[ok, 0].tolist())
    if ims.size:
        best_im = min(best_im, float(ims.min()))

    # random sampled values
    vals = nr_sample(T, m, seed)
    ims = np.sqrt(np.sum(vals[:, 1:] ** 2, axis=1))
    ok = ims <= tol
    if np.any(ok):
        found.extend(vals[ok, 0].tolist())
    best_im = min(best_im, float(ims.min()))

    # gradient refinement from deterministic starts
    penalty = penalty_scale * (1.0 + T.frobenius())
    rng = _rng(seed, 2)
    starts = [_unit_samples(rng, 1, n)[0] for _ in range(4)]
    chi = T.complex_rep()
    if n <= 48:
        # extreme eigenvectors of Re<Tx, x>, the Hermitian part of chi(T)
        vecs = np.linalg.eigh(0.5 * (chi + chi.conj().T))[1]
        starts.append(_from_u(vecs[:, -1]))
        starts.append(_from_u(vecs[:, 0]))
    for sign in (1.0, -1.0):
        for x0 in starts:
            re, im = _refine_real(chi, x0, sign, penalty)
            best_im = min(best_im, im)
            if im <= tol:
                found.append(re)

    if not found:
        raise RealSectionError(best_im)
    return RealSection(lo=float(min(found)), hi=float(max(found)))
