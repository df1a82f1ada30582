"""Model operators with diagonal tails and their essential bild.

A model operator is a finite quaternionic block direct-summed with a bounded
diagonal tail whose limit behaviour is declared up front.  Every limit class
admits an orthonormal sequence of (phase-rotated) basis vectors along the
tail, so limit classes certify membership in the essential numerical range;
the essential bild is then the convex hull of the declared classes together
with their conjugate reflections.  The declared limit set is validated
empirically against the generated tail, never inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import NumericalError
from .geometry import convex_hull, signed_inner_distance
from .numrange import bild_points
from .qmatrix import QMatrix
from .quaternion import (
    Quaternion,
    QVector,
    SimilaritySphere,
    csim,
    unit_conjugator,
)

__all__ = [
    "Tail",
    "ConstantTail",
    "PeriodicTail",
    "ExplicitTail",
    "RationalsITail",
    "DecayingPeriodicTail",
    "LimitSegment",
    "ModelOperator",
    "TruncatedOperator",
    "truncate",
    "essential_bild",
    "quasi_orth_select",
    "QuasiOrthSelection",
    "QuasiOrthExhausted",
    "SparseVec",
    "TailBasisSequence",
    "convex_combination_sequence",
    "CombinationResult",
    "we_membership",
    "remark_operator",
    "ValidationError",
    "MissingSequenceError",
]


class ValidationError(ValueError):
    """Declared operator data is inconsistent with the generated tail."""


class MissingSequenceError(ValueError):
    """No basis subsequence approaches the requested value."""


# -- tails -----------------------------------------------------------------------

class Tail:
    """A bounded diagonal symbol n -> s_n, generated lazily and cached."""

    kind = "abstract"

    def __init__(self):
        self._cache = np.zeros((0, 4))

    def _generate(self, count: int) -> np.ndarray:
        raise NotImplementedError

    def prefix(self, count: int) -> np.ndarray:
        """First ``count`` tail values s_1 .. s_count as a (count, 4) array."""
        if count > self._cache.shape[0]:
            self._cache = self._generate(count)
            self._cache.setflags(write=False)
        return self._cache[:count]

    def value(self, n: int) -> Quaternion:
        """s_n with 1-based n."""
        return Quaternion.from_array(self.prefix(n)[n - 1])

    def spec(self) -> dict:
        raise NotImplementedError


class ConstantTail(Tail):
    kind = "constant"

    def __init__(self, value: Quaternion):
        super().__init__()
        self.constant = value

    def _generate(self, count: int) -> np.ndarray:
        return np.tile(self.constant.to_array(), (count, 1))

    def spec(self) -> dict:
        return {"kind": self.kind, "value": list(self.constant.to_array())}


class PeriodicTail(Tail):
    kind = "periodic"

    def __init__(self, values):
        super().__init__()
        self.values = tuple(values)
        if not self.values:
            raise ValueError("periodic tail needs at least one value")

    def _generate(self, count: int) -> np.ndarray:
        base = np.array([q.to_array() for q in self.values])
        reps = -(-count // base.shape[0])
        return np.tile(base, (reps, 1))[:count]

    def spec(self) -> dict:
        return {"kind": self.kind, "values": [list(q.to_array()) for q in self.values]}


class ExplicitTail(Tail):
    """A finite prefix of values; the last value repeats forever."""

    kind = "explicit"

    def __init__(self, values):
        super().__init__()
        self.values = tuple(values)
        if not self.values:
            raise ValueError("explicit tail needs at least one value")

    def _generate(self, count: int) -> np.ndarray:
        base = np.array([q.to_array() for q in self.values])
        if count <= base.shape[0]:
            return base[:count].copy()
        pad = np.tile(base[-1], (count - base.shape[0], 1))
        return np.vstack([base, pad])

    def spec(self) -> dict:
        return {"kind": self.kind, "values": [list(q.to_array()) for q in self.values]}


class RationalsITail(Tail):
    """Enumeration of (-half, half) * i over the rationals, by denominator.

    For q = 1, 2, ... the reduced fractions p/q with |p/q| < half are emitted
    with p ascending; the closure of the emitted set is [-half, half] * i.
    """

    kind = "rationals_i"

    def __init__(self, half: float = 0.5):
        super().__init__()
        if half <= 0:
            raise ValueError("half-width must be positive")
        self.half = float(half)

    def _generate(self, count: int) -> np.ndarray:
        vals: list[float] = []
        q = 1
        while len(vals) < count:
            pmax = int(math.floor(self.half * q - 1e-12))
            for p in range(-pmax, pmax + 1):
                if p == 0 and q != 1:
                    continue
                if math.gcd(abs(p), q) != 1:
                    continue
                vals.append(p / q)
            q += 1
        out = np.zeros((len(vals), 4))
        out[:, 1] = vals
        return out[:count]

    def spec(self) -> dict:
        return {"kind": self.kind, "half": self.half}


class DecayingPeriodicTail(Tail):
    """Periodic sphere targets plus an O(amplitude / n) imaginary perturbation.

    Each target is approached along its residue class at an explicit 1/n rate,
    which gives the essential-sequence machinery a usable error schedule.
    """

    kind = "decaying_periodic"

    _AXES = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])

    def __init__(self, targets, amplitude: float = 0.1):
        super().__init__()
        self.targets = tuple(targets)
        if not self.targets:
            raise ValueError("need at least one target")
        self.amplitude = float(amplitude)

    def _generate(self, count: int) -> np.ndarray:
        base = np.array([q.to_array() for q in self.targets])
        L = base.shape[0]
        n = np.arange(1, count + 1)
        out = base[(n - 1) % L].copy()
        out += (self.amplitude / n)[:, None] * self._AXES[(n - 1) % 3]
        return out

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "targets": [list(q.to_array()) for q in self.targets],
            "amplitude": self.amplitude,
        }


# -- model operators ---------------------------------------------------------------

@dataclass(frozen=True)
class LimitSegment:
    """Canonical-representative segment {a + t*i : t in [b0, b1]}, 0 <= b0 <= b1."""

    a: float
    b0: float
    b1: float

    def __post_init__(self):
        if not (0.0 <= self.b0 <= self.b1):
            raise ValueError("segment needs 0 <= b0 <= b1")

    def points(self, step: float = 1e-4) -> np.ndarray:
        npts = max(2, int(math.ceil((self.b1 - self.b0) / step)) + 1)
        bs = np.linspace(self.b0, self.b1, npts)
        return np.stack([np.full_like(bs, self.a), bs], axis=1)

    def probes(self, count: int = 9) -> np.ndarray:
        bs = np.linspace(self.b0, self.b1, count)
        return np.stack([np.full_like(bs, self.a), bs], axis=1)


LimitPart = SimilaritySphere | LimitSegment


class ModelOperator:
    """Finite block direct-summed with a declared-limit diagonal tail."""

    def __init__(self, block: QMatrix, tail: Tail, limit_set, bound: float):
        if not limit_set:
            raise ValidationError("limit set must be non-empty")
        self.block = block
        self.tail = tail
        self.limit_set = tuple(limit_set)
        self.bound = float(bound)
        self._validated_to = 0

    @property
    def block_size(self) -> int:
        return self.block.n

    def opnorm_bound(self) -> float:
        """Cheap upper bound on the operator norm: max(||block||_F, tail bound)."""
        return max(self.block.frobenius(), self.bound)

    def adjoint(self) -> "ModelOperator":
        conj_tail = _MappedTail(self.tail, _conj_map, "adjoint")
        return ModelOperator(self.block.adjoint(), conj_tail, self.limit_set, self.bound)

    def affine(self, a: float, b: float) -> "ModelOperator":
        """The operator a * T + b * I with real a, b, limits transformed exactly."""
        new_block = a * self.block + b * QMatrix.identity(self.block_size) \
            if self.block_size else self.block
        new_tail = _MappedTail(self.tail, lambda v: _affine_map(v, a, b), "affine")
        parts = []
        for part in self.limit_set:
            if isinstance(part, SimilaritySphere):
                parts.append(SimilaritySphere(a * part.a + b, abs(a) * part.b))
            else:
                lo, hi = sorted((abs(a) * part.b0, abs(a) * part.b1))
                parts.append(LimitSegment(a * part.a + b, lo, hi))
        return ModelOperator(new_block, new_tail, parts, abs(a) * self.bound + abs(b))

    def entry(self, i: int, j: int) -> Quaternion:
        """Entry of the (infinite) matrix; tail coordinate k maps to s_{k - m0 + 1}."""
        m0 = self.block_size
        if i < m0 and j < m0:
            return self.block.entry(i, j)
        if i == j:
            return self.tail.value(i - m0 + 1)
        return Quaternion.zero

    def validate(self, n_check: int = 200000, tol: float = 1e-3) -> None:
        """Check the declared limit parts against the generated tail prefix.

        Scans geometrically growing prefixes; every declared sphere (and a
        probe grid on every declared segment) must be approached within tol,
        and no generated value may exceed the declared bound.
        """
        if self._validated_to >= n_check:
            return
        targets = []
        for part in self.limit_set:
            if isinstance(part, SimilaritySphere):
                targets.append(part.point())
            else:
                targets.extend(map(tuple, part.probes()))
        targets = np.array(targets)
        unmet = np.ones(len(targets), dtype=bool)
        window = 1024
        while True:
            window = min(window, n_check)
            pts = bild_points(self.tail.prefix(window))
            mags = np.sqrt(np.sum(self.tail.prefix(window) ** 2, axis=1))
            if float(mags.max(initial=0.0)) > self.bound + 1e-12:
                raise ValidationError("tail value exceeds the declared bound")
            if unmet.any():
                d = np.linalg.norm(pts[None, :, :] - targets[unmet][:, None, :], axis=2)
                unmet[np.flatnonzero(unmet)[d.min(axis=1) <= tol]] = False
            if not unmet.any():
                self._validated_to = n_check
                return
            if window == n_check:
                bad = targets[unmet][0]
                raise ValidationError(
                    f"declared limit point ({bad[0]:.6g}, {bad[1]:.6g}) not approached "
                    f"within {tol:g} by the first {n_check} tail values")
            window *= 8

    def __repr__(self) -> str:
        return (f"ModelOperator(block={self.block_size}, tail={self.tail.kind}, "
                f"limits={len(self.limit_set)}, bound={self.bound})")


def _conj_map(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[:, 1:] = -out[:, 1:]
    return out


def _affine_map(values: np.ndarray, a: float, b: float) -> np.ndarray:
    out = values * a
    out[:, 0] += b
    return out


class _MappedTail(Tail):
    def __init__(self, base: Tail, fn, label: str):
        super().__init__()
        self.base = base
        self.fn = fn
        self.kind = f"{label}({base.kind})"

    def _generate(self, count: int) -> np.ndarray:
        return self.fn(self.base.prefix(count).copy())

    def spec(self) -> dict:
        raise NotImplementedError("mapped tails are not serializable")


@dataclass(frozen=True)
class TruncatedOperator:
    """Finite section diag(block, s_1, ..., s_N) of a model operator."""

    matrix: QMatrix
    block_size: int
    n_tail: int
    model: ModelOperator = field(repr=False)

    @property
    def n(self) -> int:
        return self.matrix.n

    def apply(self, x: QVector) -> QVector:
        return self.matrix.apply(x)


def truncate(M: ModelOperator, N: int) -> TruncatedOperator:
    if N < 1:
        raise ValueError("section size must be at least 1")
    mat = QMatrix.block_diag(M.block, M.tail.prefix(N))
    return TruncatedOperator(matrix=mat, block_size=M.block_size, n_tail=N, model=M)


# -- the essential bild -------------------------------------------------------------

def essential_bild(M: ModelOperator, validate: bool = True,
                   n_check: int = 200000, seg_step: float = 1e-4) -> np.ndarray:
    """Essential bild polygon in (a, b) coordinates, b of both signs.

    The polygon is the convex hull of the declared limit classes together
    with their complex-conjugate reflections: each class certifies itself via
    an orthonormal tail subsequence, spheres contribute both half-planes, and
    convexity of the essential numerical range closes the hull.  The finite
    block never contributes (compact perturbations leave the set unchanged).
    Degenerate hulls are returned with one or two vertices.
    """
    if validate:
        M.validate(n_check=n_check)
    pts = []
    for part in M.limit_set:
        if isinstance(part, SimilaritySphere):
            pts.append(np.array([part.point()]))
        else:
            pts.append(part.points(step=seg_step))
    upper = np.vstack(pts)
    lower = upper * np.array([1.0, -1.0])
    return convex_hull(np.vstack([upper, lower]))


# -- quasi-orthogonal selection -------------------------------------------------------

@dataclass(frozen=True)
class QuasiOrthSelection:
    m: int
    bounds: tuple[float, float, float]


class QuasiOrthExhausted(RuntimeError):
    def __init__(self, best_index: int, best_bounds: tuple[float, float, float]):
        super().__init__(
            f"no index met the bound; best candidate {best_index} "
            f"with bounds {tuple(round(b, 3) for b in best_bounds)}")
        self.best_index = best_index
        self.best_bounds = best_bounds


def quasi_orth_select(T, xs, ys, N: int, eps: float) -> QuasiOrthSelection:
    """Smallest M >= N with |<x_N, y_M>|, |<T x_N, y_M>|, |<T* x_N, y_M>| all <= eps.

    ``T`` may be a QMatrix or a TruncatedOperator; ``xs`` and ``ys`` are
    sequences of unit QVectors indexed from zero.  Raises QuasiOrthExhausted
    with the best triple seen when the finite list runs out.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    A = T.matrix if isinstance(T, TruncatedOperator) else T
    x = xs[N]
    tx = A.apply(x)
    tsx = A.adjoint().apply(x)
    best = None
    for m in range(N, len(ys)):
        y = ys[m]
        bounds = (abs(x.inner(y)), abs(tx.inner(y)), abs(tsx.inner(y)))
        if max(bounds) <= eps:
            return QuasiOrthSelection(m=m, bounds=bounds)
        if best is None or max(bounds) < max(best[1]):
            best = (m, bounds)
    if best is None:
        raise QuasiOrthExhausted(-1, (np.inf, np.inf, np.inf))
    raise QuasiOrthExhausted(best[0], best[1])


# -- sparse vectors and essential sequences --------------------------------------------

@dataclass(frozen=True)
class SparseVec:
    """Finitely supported vector in the model coordinate space."""

    entries: tuple[tuple[int, Quaternion], ...]

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.entries)

    def norm(self) -> float:
        return math.sqrt(sum(q.norm_sq() for _, q in self.entries))

    def scaled(self, t: float) -> "SparseVec":
        return SparseVec(tuple((i, q * t) for i, q in self.entries))

    def add(self, other: "SparseVec") -> "SparseVec":
        acc: dict[int, Quaternion] = {}
        for i, q in self.entries + other.entries:
            acc[i] = acc[i] + q if i in acc else q
        return SparseVec(tuple(sorted(acc.items())))

    def inner(self, other: "SparseVec") -> Quaternion:
        """sum conj(other_k) self_k over the common support."""
        mine = dict(self.entries)
        total = Quaternion.zero
        for i, q in other.entries:
            if i in mine:
                total = total + q.conj() * mine[i]
        return total

    def quad_value(self, M: ModelOperator) -> Quaternion:
        """<T z, z> evaluated entrywise against the model operator."""
        total = Quaternion.zero
        for i, zi in self.entries:
            for j, zj in self.entries:
                t = M.entry(i, j)
                if t.norm_sq() != 0.0:
                    total = total + zi.conj() * t * zj
        return total

    def op_inner(self, M: ModelOperator, other: "SparseVec", adjoint: bool = False) -> Quaternion:
        """<T self, other> (or <T* self, other>) against the model operator."""
        total = Quaternion.zero
        for j, zj in self.entries:
            for i, oi in other.entries:
                t = M.entry(j, i).conj() if adjoint else M.entry(i, j)
                if t.norm_sq() != 0.0:
                    total = total + oi.conj() * t * zj
        return total

    def to_qvector(self, dim: int | None = None) -> QVector:
        top = max((i for i, _ in self.entries), default=-1) + 1
        if dim is None:
            dim = top
        if dim < top:
            raise ValueError("dimension too small for the support")
        arr = np.zeros((dim, 4))
        for i, q in self.entries:
            arr[i] = q.to_array()
        return QVector(arr)


def _part_distance(part: LimitPart, sphere: SimilaritySphere) -> float:
    if isinstance(part, SimilaritySphere):
        return part.distance(sphere)
    db = 0.0 if part.b0 <= sphere.b <= part.b1 else min(abs(sphere.b - part.b0),
                                                        abs(sphere.b - part.b1))
    return math.hypot(sphere.a - part.a, db)


class TailBasisSequence:
    """Essential sequence of phase-rotated tail basis vectors for a target value.

    Element p is e_{n_p} u_p where n_p runs along tail indices whose symbol
    class approaches csim(target) and u_p rotates the symbol onto target, so
    <T e u, e u> = conj(u) s u converges to the target at the scan rate.
    """

    MAX_SCAN = 2_000_000

    def __init__(self, M: ModelOperator, target: Quaternion):
        self.M = M
        self.target = target
        sphere = csim(target)
        if min(_part_distance(part, sphere) for part in M.limit_set) > 1e-9:
            raise MissingSequenceError(
                f"class ({sphere.a:.6g}, {sphere.b:.6g}) is not a declared limit")
        self._sphere = sphere

    def pick(self, eps: float, cursor: int, forbidden=frozenset()):
        """First tail index > cursor with error <= eps and coordinate allowed.

        Returns (index, SparseVec, value, error); the coordinate of tail index
        n is block_size + n - 1.
        """
        m0 = self.M.block_size
        window = max(2048, 2 * (cursor + 1))
        while True:
            window = min(window, self.MAX_SCAN)
            pref = self.M.tail.prefix(window)
            pts = bild_points(pref)
            d = np.hypot(pts[:, 0] - self._sphere.a, pts[:, 1] - self._sphere.b)
            for n0 in np.flatnonzero(d[cursor:] <= eps) + cursor:
                coord = m0 + int(n0)
                if coord in forbidden:
                    continue
                s = Quaternion.from_array(pref[n0])
                u = unit_conjugator(s, self.target)
                value = u.conj() * s * u
                err = abs(value - self.target)
                if err <= eps * (1.0 + 1e-9) + 1e-15:
                    vec = SparseVec(((coord, u),))
                    return int(n0) + 1, vec, value, err
            if window == self.MAX_SCAN:
                raise MissingSequenceError(
                    f"no tail index with error <= {eps:g} beyond cursor {cursor}")
            window *= 8


class _ResultSequence:
    """Adapter exposing a finished combination run as an essential sequence."""

    def __init__(self, result: "CombinationResult", M: ModelOperator):
        self.result = result
        self.M = M
        self.target = result.target

    def pick(self, eps: float, cursor: int, forbidden=frozenset()):
        for p in range(cursor, len(self.result.vectors)):
            if self.result.errors[p] <= eps and not (
                    self.result.vectors[p].support & forbidden):
                return p + 1, self.result.vectors[p], self.result.values[p], \
                    self.result.errors[p]
        raise MissingSequenceError(
            f"combination run exhausted before reaching error {eps:g}")


@dataclass
class CombinationResult:
    """Constructive essential sequence for a convex combination of two values."""

    target: Quaternion
    alpha: float
    beta: float
    vectors: list[SparseVec]
    values: list[Quaternion]
    errors: list[float]
    triples: list[tuple[float, float, float]]
    error_constant: float


def _combine(M: ModelOperator, seq1, seq2, alpha: float, depth: int) -> CombinationResult:
    om1, om2 = seq1.target, seq2.target
    beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    target = om1 * (alpha * alpha) + om2 * (beta * beta)
    vectors: list[SparseVec] = []
    values: list[Quaternion] = []
    errors: list[float] = []
    triples: list[tuple[float, float, float]] = []
    c1 = c2 = 0
    for p in range(1, depth + 1):
        eps = 1.0 / p
        if beta == 0.0:
            c1, vec, value, _ = seq1.pick(eps, c1)
        elif alpha == 0.0:
            c2, vec, value, _ = seq2.pick(eps, c2)
        else:
            c1, x, _, _ = seq1.pick(eps, c1)
            c2, y, _, _ = seq2.pick(eps, c2, forbidden=x.support)
            triple = (abs(x.inner(y)),
                      abs(x.op_inner(M, y)),
                      abs(x.op_inner(M, y, adjoint=True)))
            triples.append(triple)
            z = x.scaled(alpha).add(y.scaled(beta))
            vec = z.scaled(1.0 / z.norm())
            value = vec.quad_value(M)
        vectors.append(vec)
        values.append(value)
        errors.append(abs(value - target))
    return CombinationResult(target=target, alpha=alpha, beta=beta,
                             vectors=vectors, values=values, errors=errors,
                             triples=triples,
                             error_constant=2.0 + M.opnorm_bound())


def convex_combination_sequence(M: ModelOperator, om1: Quaternion, om2: Quaternion,
                                alpha: float, depth: int) -> CombinationResult:
    """Unit vectors z_p with <T z_p, z_p> -> alpha^2 om1 + beta^2 om2.

    At step p both ingredient sequences are advanced until their values sit
    within 1/p of their targets, the second pick is forced quasi-orthogonal to
    the first (disjoint support, so the selection triple vanishes exactly for
    diagonal tails), and z_p = alpha x + beta y is renormalized.  The value
    error at step p is bounded by (2 + ||T||) / p.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if depth < 1:
        raise ValueError("depth must be positive")
    return _combine(M, TailBasisSequence(M, om1), TailBasisSequence(M, om2),
                    alpha, depth)


# -- membership in the essential numerical range ----------------------------------------

def _barycentric(tri: np.ndarray, pt: np.ndarray) -> np.ndarray | None:
    mat = np.array([[tri[1, 0] - tri[0, 0], tri[2, 0] - tri[0, 0]],
                    [tri[1, 1] - tri[0, 1], tri[2, 1] - tri[0, 1]]])
    det = float(np.linalg.det(mat))
    if abs(det) < 1e-14:
        return None
    lam12 = np.linalg.solve(mat, pt - tri[0])
    lams = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
    if np.all(lams >= -1e-9):
        return np.clip(lams, 0.0, None)
    return None


def _decompose(poly: np.ndarray, pt: np.ndarray):
    """Express pt as a convex combination of at most three polygon vertices."""
    if len(poly) == 1:
        return [(poly[0], 1.0)]
    if len(poly) == 2:
        d = poly[1] - poly[0]
        t = float(np.dot(pt - poly[0], d) / np.dot(d, d))
        t = min(1.0, max(0.0, t))
        return [(poly[0], 1.0 - t), (poly[1], t)]
    for i in range(1, len(poly) - 1):
        tri = np.array([poly[0], poly[i], poly[i + 1]])
        lams = _barycentric(tri, pt)
        if lams is not None:
            return [(tri[k], float(lams[k])) for k in range(3)]
    raise NumericalError("interior point escaped the fan triangulation")


def we_membership(M: ModelOperator, q: Quaternion, eps: float = 1e-9,
                  depth: int = 60) -> bool:
    """Whether the class of q lies in the essential numerical range.

    Geometric test against the essential bild with boundary slack eps;
    strictly interior points are cross-validated by building a constructive
    essential sequence from the polygon vertices and checking its value
    converges to the canonical representative of q.
    """
    poly = essential_bild(M)
    pt = np.array(csim(q).point())
    sd = signed_inner_distance(poly, pt)
    if sd < -eps:
        return False
    if sd <= max(eps, 1e-6):
        return True

    parts = [(Quaternion(float(v[0]), float(v[1]), 0.0, 0.0), lam)
             for v, lam in _decompose(poly, pt) if lam > 1e-12]
    target = Quaternion(float(pt[0]), float(pt[1]), 0.0, 0.0)
    if len(parts) == 1:
        run = convex_combination_sequence(M, parts[0][0], parts[0][0], 1.0, depth)
    elif len(parts) == 2:
        (v1, l1), (v2, l2) = parts
        run = convex_combination_sequence(M, v1, v2, math.sqrt(l1 / (l1 + l2)), depth)
    else:
        (v1, l1), (v2, l2), (v3, l3) = parts
        stage1 = convex_combination_sequence(M, v1, v2, math.sqrt(l1 / (l1 + l2)),
                                             depth)
        run = _combine(M, _ResultSequence(stage1, M), TailBasisSequence(M, v3),
                       math.sqrt(l1 + l2), depth)
    final_err = abs(run.values[-1] - target)
    budget = 10.0 * (2.0 + M.opnorm_bound()) / depth
    if final_err > budget:
        raise NumericalError(
            f"membership construction error {final_err:.3e} exceeds budget {budget:.3e}")
    return True


# -- the worked model operator ------------------------------------------------------------

def remark_operator() -> ModelOperator:
    """diag(-1+i, 1+i) direct-summed with the rationals-in-(-1/2,1/2) imaginary tail.

    The declared limit set is the canonical segment {t*i : t in [0, 1/2]}, so
    the essential bild is the segment from -i/2 to i/2.
    """
    block = QMatrix.diag([Quaternion(-1.0, 1.0, 0.0, 0.0), Quaternion(1.0, 1.0, 0.0, 0.0)])
    return ModelOperator(block=block, tail=RationalsITail(0.5),
                         limit_set=[LimitSegment(0.0, 0.0, 0.5)], bound=0.5)
