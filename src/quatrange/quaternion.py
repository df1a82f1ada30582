"""Quaternion scalars, vectors over the quaternions, and similarity classes.

The scalar algebra follows the Hamilton convention i^2 = j^2 = k^2 = ijk = -1.
The inner product on H^n is

    inner(x, y) = sum_k conj(y_k) * x_k,

which is right-linear in the first argument: inner(x*q, y) = inner(x, y)*q and
inner(x, y*q) = conj(q)*inner(x, y).  Quadratic values transform by
inner(T(x*q), x*q) = conj(q) * inner(Tx, x) * q, so similarity classes of
quadratic-form values are invariant under right unit scaling of the vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "QVector",
    "SimilaritySphere",
    "csim",
    "polarization",
    "qmul",
    "qconj",
    "qabs",
    "qconjugator",
    "rotation_aligning",
    "unit_conjugator",
    "random_unit_quaternions",
]


@dataclass(frozen=True)
class Quaternion:
    """A real quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_array(arr) -> "Quaternion":
        return Quaternion(*np.asarray(arr, dtype=float).reshape(4).tolist())

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    # -- algebra ---------------------------------------------------------------

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    @property
    def re(self) -> float:
        return self.w

    @property
    def im(self) -> np.ndarray:
        """Imaginary part as a 3-vector (x, y, z)."""
        return np.array([self.x, self.y, self.z], dtype=float)

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b, c, d = self.w, self.x, self.y, self.z
            e, f, g, h = other.w, other.x, other.y, other.z
            return Quaternion(
                a * e - b * f - c * g - d * h,
                a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f,
                a * h + b * g - c * f + d * e,
            )
        if isinstance(other, (int, float)):
            t = float(other)
            return Quaternion(self.w * t, self.x * t, self.y * t, self.z * t)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            t = float(other)
            return Quaternion(t * self.w, t * self.x, t * self.y, t * self.z)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            t = float(other)
            return Quaternion(self.w / t, self.x / t, self.y / t, self.z / t)
        if isinstance(other, Quaternion):
            n = other.norm_sq()
            return self * Quaternion(other.w / n, -other.x / n, -other.y / n, -other.z / n)
        return NotImplemented

    def normalized(self) -> "Quaternion":
        n = abs(self)
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero quaternion")
        return self / n

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return abs(self - other) <= tol

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

Quaternion.zero = ZERO
Quaternion.one = ONE
Quaternion.i = I
Quaternion.j = J
Quaternion.k = K


# -- vectorized quaternion arrays (..., 4) ------------------------------------

def _mult_table() -> np.ndarray:
    """H[a, b, c] = component c of e_a * e_b for the basis (1, i, j, k)."""
    units = [ONE, I, J, K]
    table = np.zeros((4, 4, 4))
    for a, ea in enumerate(units):
        for b, eb in enumerate(units):
            table[a, b, :] = (ea * eb).to_array()
    return table


HAMILTON = _mult_table()
CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])

# E[a, d, b, c] = component c of e_a * e_d * e_b; used to expand the bilinear
# map (p, q) -> conj(p) * t * q into real coordinate forms.
TRIPLE = np.einsum("ade,ebc->adbc", HAMILTON, HAMILTON)

_HAMILTON_FLAT = HAMILTON.reshape(16, 4)


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays with shape (..., 4).

    The sixteen products p_a q_b are contracted with the multiplication table
    in one matrix product, which keeps small arrays cheap.
    """
    outer = np.einsum("...a,...b->...ab", p, q)
    return np.matmul(outer.reshape(outer.shape[:-2] + (16,)), _HAMILTON_FLAT)


def qconj(p: np.ndarray) -> np.ndarray:
    return p * CONJ_SIGNS


def qabs(p: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...a,...a->...", p, p))


# -- similarity classes --------------------------------------------------------

@dataclass(frozen=True)
class SimilaritySphere:
    """The class [q] = {u* q u : |u| = 1}, stored as (Re q, |Im q|) with b >= 0."""

    a: float
    b: float

    def point(self) -> tuple[float, float]:
        return (self.a, self.b)

    def representative(self) -> Quaternion:
        """Canonical complex representative a + b*i."""
        return Quaternion(self.a, self.b, 0.0, 0.0)

    def distance(self, other: "SimilaritySphere") -> float:
        return math.hypot(self.a - other.a, self.b - other.b)


def csim(q: Quaternion) -> SimilaritySphere:
    """Canonical representative (Re q, |Im q|) of the similarity class of q."""
    return SimilaritySphere(q.w, q.im_norm())


# -- vectors over H ------------------------------------------------------------

class QVector:
    """A column vector in H^n, stored as an (n, 4) real array."""

    __slots__ = ("_arr",)

    def __init__(self, arr):
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[1] != 4:
            raise ValueError("QVector expects an (n, 4) array")
        a = a.copy()
        a.setflags(write=False)
        self._arr = a

    @staticmethod
    def from_quaternions(entries) -> "QVector":
        return QVector(np.array([q.to_array() for q in entries]))

    @staticmethod
    def basis(n: int, k: int) -> "QVector":
        arr = np.zeros((n, 4))
        arr[k, 0] = 1.0
        return QVector(arr)

    @property
    def arr(self) -> np.ndarray:
        return self._arr

    def __len__(self) -> int:
        return self._arr.shape[0]

    def entry(self, k: int) -> Quaternion:
        return Quaternion.from_array(self._arr[k])

    def __add__(self, other: "QVector") -> "QVector":
        return QVector(self._arr + other._arr)

    def __sub__(self, other: "QVector") -> "QVector":
        return QVector(self._arr - other._arr)

    def __mul__(self, q):
        """Right scalar multiple x * q (entrywise right multiplication)."""
        if isinstance(q, Quaternion):
            return QVector(qmul(self._arr, q.to_array()[None, :]))
        if isinstance(q, (int, float)):
            return QVector(self._arr * float(q))
        return NotImplemented

    def __rmul__(self, t):
        if isinstance(t, (int, float)):
            return QVector(self._arr * float(t))
        return NotImplemented

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self._arr * self._arr)))

    def normalized(self) -> "QVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return QVector(self._arr / n)

    def inner(self, other: "QVector") -> Quaternion:
        """inner(x, y) = sum_k conj(y_k) x_k."""
        if len(self) != len(other):
            raise ValueError("dimension mismatch in inner product")
        prods = qmul(qconj(other._arr), self._arr)
        return Quaternion.from_array(prods.sum(axis=0))

    def __repr__(self) -> str:
        return f"QVector(n={len(self)})"


def polarization(op, x: QVector, y: QVector) -> Quaternion:
    """Recover inner(op(x), y) from eight quadratic evaluations.

    Evaluates the quaternionic polarization identity

        4 <Tx, y> = Q(x+y) - Q(x-y) + (Q(x+yi) - Q(x-yi)) i
                    + k (Q(x+yk) - Q(x-yk)) + k (Q(x+yj) - Q(x-yj)) i

    with Q(z) = <Tz, z>, and returns the right-hand side divided by 4.
    ``op`` only needs an ``apply(QVector) -> QVector`` method.
    """
    if len(x) != len(y):
        raise ValueError("dimension mismatch in polarization")

    def quad(z: QVector) -> Quaternion:
        return op.apply(z).inner(z)

    d1 = quad(x + y) - quad(x - y)
    di = quad(x + y * I) - quad(x - y * I)
    dk = quad(x + y * K) - quad(x - y * K)
    dj = quad(x + y * J) - quad(x - y * J)
    total = d1 + di * I + K * dk + (K * dj) * I
    return total * 0.25


# -- rotations of imaginary directions -----------------------------------------

_ALIGNED = 1.0 - 1e-14
_PURE = np.array([0.0, 1.0, 1.0, 1.0])
_ONE_ARRAY = ONE.to_array()


def qconjugator(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Unit quaternions u (..., 4) with conj(u) * source * u aligned with target.

    ``source`` has shape (..., 4) and ``target`` shape (4,).  Only imaginary
    directions are rotated, so conj(u) s u equals target wherever csim(s)
    equals csim(target).  Per row, with f and t the unit imaginary directions
    of source and target and d = f . t:

    * u = 1 where either imaginary part is zero or d >= 1 - 1e-14;
    * where d <= -1 + 1e-14, u is the rotation by pi about f x e_k, with k the
      component of f of least magnitude;
    * otherwise u = conj(r) for the half-angle rotation r taking f to t about
      f x t; conj(u) v u = r v conj(r).
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    bs = qabs(src[..., 1:])
    bt = float(qabs(tgt[1:]))
    live = (bs > 0.0) & (bt > 0.0)
    # unit imaginary directions as pure quaternions; dead rows stay zero
    f = src * _PURE / np.where(live, bs, 1.0)[..., None]
    t = tgt * _PURE / (bt if bt > 0.0 else 1.0)
    # f t = -(f . t) + f x t for pure f and t
    ft = qmul(f, t)
    d = -ft[..., 0]
    turn = live & (d < _ALIGNED) & (d > -_ALIGNED)
    axis = ft[..., 1:]
    s = qabs(axis)
    half = 0.5 * np.arctan2(s, d)
    u = np.empty(src.shape)
    u[..., 0] = np.cos(half)
    u[..., 1:] = -(np.sin(half)[..., None] * (axis / np.where(turn, s, 1.0)[..., None]))
    u = np.where(turn[..., None], u, _ONE_ARRAY)
    flip = live & (d <= -_ALIGNED)
    if flip.any():
        fa = f[flip]
        probe = np.zeros(fa.shape)
        probe[np.arange(len(fa)), 1 + np.argmin(np.abs(fa[:, 1:]), axis=1)] = 1.0
        # f e_k = -f_k + f x e_k
        perp = qmul(fa, probe)
        perp[:, 0] = 0.0
        u[flip] = perp / qabs(perp)[:, None]
    return u


def rotation_aligning(v_from, v_to) -> Quaternion:
    """Unit quaternion u with conj(u) * (v_from as imaginary) * u = v_to.

    Both arguments are unit 3-vectors; a one-row call of ``qconjugator``.
    """
    src = np.concatenate(([0.0], np.asarray(v_from, dtype=float)))
    tgt = np.concatenate(([0.0], np.asarray(v_to, dtype=float)))
    return Quaternion.from_array(qconjugator(src, tgt))


def unit_conjugator(source: Quaternion, target: Quaternion) -> Quaternion:
    """Unit u with conj(u) * source * u close to target.

    Requires csim(source) == csim(target) up to rounding; only the imaginary
    direction is rotated.  A one-row call of ``qconjugator``.
    """
    return Quaternion.from_array(qconjugator(source.to_array(), target.to_array()))


# -- random sampling -----------------------------------------------------------

def random_unit_quaternions(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform unit quaternions via normalized Gaussian 4-tuples, shape (size, 4)."""
    g = rng.standard_normal((size, 4))
    return g / qabs(g)[:, None]
