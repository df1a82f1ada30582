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

import functools
import math
import numbers
from dataclasses import dataclass

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
    qabs,
    qconj,
    qconjugator,
    qmul,
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
    """A bounded diagonal symbol n -> s_n, generated lazily and cached.

    The cache is component-major: ``_data[c, n - 1]`` holds component c of
    s_n for n <= ``_size``, in a (4, capacity) array of zeros.  A growth
    writes only the entries past ``_size``, through ``_fill``; one past the
    capacity first moves them into a larger array (see ``prefix``).
    A subclass defines ``_fill``, or only ``_generate(count)``, the first
    ``count`` values as a (count, 4) array, whose new rows the default
    ``_fill`` copies in.  ``prefix`` returns a read-only (count, 4) view.
    """

    kind = "abstract"

    def __init__(self):
        self._data = np.zeros((4, 0))
        self._size = 0

    def _generate(self, count: int) -> np.ndarray:
        raise NotImplementedError

    def _fill(self, start: int, out: np.ndarray) -> None:
        """Write s_(start + 1) .. s_(start + k) into out, a (4, k) block of the cache."""
        out[...] = self._generate(start + out.shape[1])[start:].T

    def prefix(self, count: int) -> np.ndarray:
        """First ``count`` tail values s_1 .. s_count as a read-only (count, 4) view."""
        if count < 0:
            raise ValueError(f"prefix count must be >= 0, got {count}")
        size = self._size
        if count > size:
            if count > self._data.shape[1]:
                # double the capacity; past an eighth of _N_CHECK reserve all
                # of it, so that validate's last window, 8-fold past the one
                # before, grows in place: a full validation moves 1024 and
                # then 8192 entries
                capacity = max(count, 2 * self._data.shape[1])
                if 8 * capacity > _N_CHECK:
                    capacity = max(capacity, _N_CHECK)
                data = np.zeros((4, capacity))
                data[:, :size] = self._data[:, :size]
                self._data = data
            self._fill(size, self._data[:, size:count])
            self._size = count
        view = self._data[:, :count].T
        view.flags.writeable = False
        return view

    def value(self, n: int) -> Quaternion:
        """s_n with 1-based n."""
        if n < 1:
            raise ValueError(f"tail index must be >= 1, got {n}")
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


@functools.lru_cache(maxsize=None)
def _prime_table(limit: int) -> np.ndarray:
    """The primes less than limit, ascending (sieve of Eratosthenes), read-only."""
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for r in range(2, math.isqrt(limit) + 1):
        if sieve[r]:
            sieve[r * r::r] = False
    primes = np.flatnonzero(sieve)
    primes.setflags(write=False)
    return primes


def _primes_below(n: int) -> np.ndarray:
    """The primes less than n, ascending, sliced from the sieve up to the next power of two.

    Each power of two is sieved once in a process, so the blocks of a
    growth up to denominator q share about log2(q) sieves.
    """
    table = _prime_table(1 << max(n - 1, 1).bit_length())
    return table[:np.searchsorted(table, n)]


def _reduced_fractions(half: float, q0: int, q1: int) -> np.ndarray:
    """The reduced p/q with |p| <= floor(half q - 1e-12) for q0 <= q < q1, by q then p.

    A (denominator x numerator) table of the block holds the numerators
    p = 0 .. width and starts with the cells inside each row's range; every
    prime r dividing some q of the block strikes the cells where r divides
    both q and p (p = 0 included, so 0 stays only in the row q = 1).  Only
    this half is sieved and divided: each row is mirrored, since
    (-p)/q = -(p/q) exactly in IEEE arithmetic, and the mirrored table read
    in row-major order keeps q ascending and p ascending within a row.
    """
    qs = np.arange(q0, q1)
    pmax = np.floor(half * qs - 1e-12).astype(np.int64)
    width = max(int(pmax[-1]), 0)  # pmax grows with q
    keep = np.arange(width + 1) <= pmax[:, None]
    primes = _primes_below(q1)
    for r in primes[(q1 - 1) // primes * primes >= q0].tolist():
        keep[-q0 % r::r, ::r] = False
    # column width + p holds p / q, for p = -width .. width
    values = np.empty((q1 - q0, 2 * width + 1))
    np.divide(np.arange(width + 1), qs[:, None], out=values[:, width:])
    np.negative(values[:, :width:-1], out=values[:, :width])
    # np.compress reads an irregular mask several times faster than indexing
    return np.compress(np.concatenate((keep[:, :0:-1], keep), axis=1).ravel(), values.ravel())


_SIEVE_ROWS = 32  # denominators one sieve block holds at most


class RationalsITail(Tail):
    """Enumeration of (-half, half) * i over the rationals, by denominator.

    For q = 1, 2, ... the reduced fractions p/q with |p/q| < half are emitted
    with p ascending; the closure of the emitted set is [-half, half] * i.
    Each growth sieves blocks of at most _SIEVE_ROWS denominators
    (``_reduced_fractions``), sized to the entries still missing, so no gcd
    is ever taken and no denominator is sieved twice.  A growth writes only
    the cache's imaginary row; the other three keep the zeros it starts with.
    """

    kind = "rationals_i"

    def __init__(self, half: float = 0.5):
        super().__init__()
        if not (math.isfinite(half) and half > 0):
            raise ValueError("half-width must be finite and positive")
        self.half = float(half)
        # the enumeration resumes at denominator _next_q; _pending holds the
        # fractions already enumerated that the cache does not hold yet
        self._next_q = 1
        self._pending = np.zeros(0)

    def _fill(self, start: int, out: np.ndarray) -> None:
        row = out[1]
        done = min(self._pending.size, row.size)
        row[:done] = self._pending[:done]
        self._pending = self._pending[done:]
        q = self._next_q
        while done < row.size:
            # rows q .. q_end - 1 hold about half (q_end^2 - q^2) cells, of
            # which a share 6 / pi^2 is reduced: size the block to what is missing
            cells = math.ceil((row.size - done) * math.pi ** 2 / (6.0 * self.half))
            q_end = min(max(q + 1, math.isqrt(q * q + cells) + 1), q + _SIEVE_ROWS)
            fresh = _reduced_fractions(self.half, q, q_end)
            k = min(fresh.size, row.size - done)
            row[done:done + k] = fresh[:k]
            self._pending = fresh[k:].copy()
            done += k
            q = q_end
        self._next_q = q

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
        if not math.isfinite(amplitude):
            raise ValueError("amplitude must be finite")
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

_SEGMENT_PROBES = 9  # evenly spaced points standing for a declared segment
_VALIDATE_TOL = 1e-3  # how near the tail must come to each declared limit point
_N_CHECK = 200000  # tail values validate reads before a declared limit counts as unmet
_BLOCK = 16384  # tail values validate scans at a time


def _squares(rows: np.ndarray) -> np.ndarray:
    """The sum of squares down the rows of a component block, added top to bottom."""
    total = rows[0] ** 2
    for row in rows[1:]:
        total += row ** 2
    return total


@dataclass(frozen=True)
class LimitSegment:
    """Canonical-representative segment {a + t*i : t in [b0, b1]}, 0 <= b0 <= b1."""

    a: float
    b0: float
    b1: float

    def __post_init__(self):
        if not (0.0 <= self.b0 <= self.b1):
            raise ValueError("segment needs 0 <= b0 <= b1")
        if not (math.isfinite(self.a) and math.isfinite(self.b1)):
            raise ValueError("segment needs a finite a and b1")


class ModelOperator:
    """Finite block direct-summed with a declared-limit diagonal tail.

    The limit set is read once into ``_segments``, one (a, b0, b1) float
    triple per part, a sphere (a, b) being the one-point segment (a, b, b);
    a part with a non-finite number raises ValidationError.
    """

    def __init__(self, block: QMatrix, tail: Tail, limit_set, bound: float):
        if not limit_set:
            raise ValidationError("limit set must be non-empty")
        if not (math.isfinite(bound) and bound >= 0.0):
            raise ValidationError(f"bound must be finite and >= 0, got {bound!r}")
        self.block = block
        self.tail = tail
        self.limit_set = tuple(limit_set)
        self._segments = tuple(
            (float(p.a), float(p.b), float(p.b)) if isinstance(p, SimilaritySphere)
            else (float(p.a), float(p.b0), float(p.b1)) for p in self.limit_set)
        if not all(math.isfinite(x) for seg in self._segments for x in seg):
            raise ValidationError("limit parts must be finite")
        self.bound = float(bound)
        self._validated = False
        self._sweep = None  # (key, _Sweep) of the last convex_combination_sequence call
        self._regions = {}  # key -> BildRegion of the last lancaster_check or probe call

    @property
    def block_size(self) -> int:
        return self.block.n

    def opnorm_bound(self) -> float:
        """Cheap upper bound on the operator norm: max(||block||_F, tail bound)."""
        return max(self.block.frobenius(), self.bound)

    def adjoint(self) -> "ModelOperator":
        conj_tail = _MappedTail(self.tail, "adjoint")
        return ModelOperator(self.block.adjoint(), conj_tail, self.limit_set, self.bound)

    def affine(self, a: float, b: float) -> "ModelOperator":
        """The operator a * T + b * I with real a, b, limits transformed exactly."""
        new_block = a * self.block + b * QMatrix.identity(self.block_size) \
            if self.block_size else self.block
        new_tail = _MappedTail(self.tail, "affine", a, b)
        parts = [SimilaritySphere(a * p.a + b, abs(a) * p.b) if isinstance(p, SimilaritySphere)
                 else LimitSegment(a * p.a + b, abs(a) * p.b0, abs(a) * p.b1)
                 for p in self.limit_set]
        return ModelOperator(new_block, new_tail, parts, abs(a) * self.bound + abs(b))

    def entries(self, rows, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero entries of the submatrix on coordinates rows x cols.

        Returns (i, j, values) with T[rows[i[k]], cols[j[k]]] = values[k]:
        block entries come from the block, tail coordinate n >= block_size
        carries s_{n - block_size + 1} on the diagonal, and every entry not
        listed is zero.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values, nonzero = self._lookup(rows[:, None], cols[None, :])
        i, j = nonzero.nonzero()
        return i, j, values[i, j]

    def _lookup(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """T[rows, cols] for broadcastable coordinate arrays, and where it may be nonzero.

        Returns the (..., 4) entries and the structure mask: block entries
        come from the block, the tail diagonal from the tail prefix, in one
        indexing each.  A negative coordinate pads a support and gives zero.
        """
        rows, cols = np.broadcast_arrays(np.asarray(rows, dtype=np.intp),
                                         np.asarray(cols, dtype=np.intp))
        m0 = self.block_size
        block = (rows >= 0) & (cols >= 0) & (rows < m0) & (cols < m0)
        diag = (rows == cols) & (rows >= m0)
        values = np.zeros(rows.shape + (4,))
        values[block] = self.block.arr[rows[block], cols[block]]
        k = rows[diag] - m0
        if k.size:
            values[diag] = self.tail.prefix(int(k.max()) + 1)[k]
        return values, block | diag

    def validate(self) -> None:
        """Check the declared limit parts against the first _N_CHECK tail values.

        Every one-point segment (a declared sphere) and _SEGMENT_PROBES evenly
        spaced points of every other segment must be approached within
        _VALIDATE_TOL, and every tail value must be finite and no larger than
        the declared bound.  The prefix is read in windows of 1024, 8192, ...
        entries (8-fold, the last one cut at _N_CHECK); each window reads only
        the entries past the previous one, so every entry is read once, and
        the scan stops early once every target is met.  A window is scanned
        in blocks of _BLOCK entries, first for the bound over the whole
        window, then for each target not yet met, whose least squared
        distance is the least over the blocks; so memory grows with the
        block alone, never with the window or the number of declared targets.
        """
        if self._validated:
            return
        unmet = []  # (a, b) targets not yet approached, in declared order
        for a, b0, b1 in self._segments:
            bs = [b0] if b0 == b1 else np.linspace(b0, b1, _SEGMENT_PROBES).tolist()
            unmet.extend((a, b) for b in bs)
        window, done = 1024, 0
        while True:
            window = min(window, _N_CHECK)
            # the earlier windows checked prefix(done), so only the new entries
            unmet = self._unmet_in(self.tail.prefix(window)[done:].T, unmet)
            done = window
            if not unmet:
                self._validated = True
                return
            if window == _N_CHECK:
                bad = unmet[0]
                raise ValidationError(
                    f"declared limit point ({bad[0]:.6g}, {bad[1]:.6g}) not approached "
                    f"within {_VALIDATE_TOL:g} by the first {_N_CHECK} tail values")
            window *= 8

    def _unmet_in(self, fresh: np.ndarray, unmet: list) -> list:
        """The targets of unmet that the (4, k) component block fresh does not approach.

        Raises ValidationError when an entry is not finite or exceeds the bound.
        """
        blocks = [fresh[:, lo:lo + _BLOCK] for lo in range(0, fresh.shape[1], _BLOCK)]
        # sqrt is monotone, so one root of the largest |s|^2 decides; a NaN
        # propagates through np.max and fails the "<=", as does an infinity
        if not math.sqrt(np.max([_squares(blk).max() for blk in blocks])) <= self.bound + 1e-12:
            if not np.isfinite(fresh).all():
                raise ValidationError("tail holds a non-finite value")
            raise ValidationError("tail value exceeds the declared bound")
        least = [math.inf] * len(unmet)
        for blk in blocks:
            # the bild point (a, b) of each entry, as bild_points gives it
            a, b = blk[0], np.sqrt(_squares(blk[1:]))
            least = [min(d, ((a - ta) ** 2 + (b - tb) ** 2).min())
                     for d, (ta, tb) in zip(least, unmet)]
        # the root of the least squared distance is the least distance
        return [t for t, d in zip(unmet, least) if math.sqrt(d) > _VALIDATE_TOL]

    def __repr__(self) -> str:
        return (f"ModelOperator(block={self.block_size}, tail={self.tail.kind}, "
                f"limits={len(self.limit_set)}, bound={self.bound})")


class _MappedTail(Tail):
    """A base tail mapped entrywise: conjugated ("adjoint") or a * s + b ("affine")."""

    def __init__(self, base: Tail, label: str, a: float = 1.0, b: float = 0.0):
        super().__init__()
        self.base = base
        self.label = label
        self.a = float(a)
        self.b = float(b)
        self.kind = f"{label}({base.kind})"

    def _fill(self, start: int, out: np.ndarray) -> None:
        base = self.base.prefix(start + out.shape[1])[start:].T
        if self.label == "adjoint":
            out[0] = base[0]
            np.negative(base[1:], out=out[1:])
        else:
            np.multiply(base, self.a, out=out)
            out[0] += self.b

    def spec(self) -> dict:
        spec = {"kind": self.label, "base": self.base.spec()}
        if self.label == "affine":
            spec.update(a=self.a, b=self.b)
        return spec


def truncate(M: ModelOperator, N: int) -> QMatrix:
    """Finite section diag(block, s_1, ..., s_N) of a model operator.

    The section is held as its factors (QMatrix.block_diag): the block's
    own leading block_split() rows, shared with it, and the diagonal tail
    past them, the block's then s_1 .. s_N, O(N) in all, which
    diagonal_tail() reads uncopied.  Its (n, n, 4) array is built only
    when arr is read.
    """
    if N < 1:
        raise ValueError("section size must be at least 1")
    return QMatrix.block_diag(M.block, M.tail.prefix(N))


# -- the essential bild -------------------------------------------------------------

def essential_bild(M: ModelOperator) -> np.ndarray:
    """Essential bild polygon in (a, b) coordinates, b of both signs.

    The polygon is the convex hull of the declared limit classes together
    with their complex-conjugate reflections: each class certifies itself via
    an orthonormal tail subsequence, spheres contribute both half-planes, and
    convexity of the essential numerical range closes the hull.  The finite
    block never contributes (compact perturbations leave the set unchanged).
    A segment enters through its two endpoints, which span its hull.
    Degenerate hulls are returned with one or two vertices.
    """
    M.validate()
    upper = np.array([(a, b) for a, b0, b1 in M._segments for b in (b0, b1)])
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


def quasi_orth_select(T: QMatrix, xs, ys, N: int, eps: float) -> QuasiOrthSelection:
    """Smallest M >= N with |<x_N, y_M>|, |<T x_N, y_M>|, |<T* x_N, y_M>| all <= eps.

    ``T`` is a QMatrix; ``xs`` and ``ys`` are sequences of unit QVectors
    indexed from zero, and 0 <= N < len(xs).
    Raises QuasiOrthExhausted with the best triple seen when the finite list
    runs out.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 <= N < len(xs):
        raise ValueError(f"N = {N} is not an index of xs (length {len(xs)})")
    x = xs[N]
    tx = T.apply(x)
    tsx = T.adjoint().apply(x)
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

class SparseVec:
    """Finitely supported vector in the model coordinate space.

    ``index`` holds the support coordinates in ascending order and ``coeffs``
    the matching entries as an (s, 4) quaternion array; both are read-only.

    ``scaled``, ``add``, ``inner``, ``op_inner`` and ``quad_value`` are the
    per-vector reference evaluator: one vector at a time, against the model
    operator's nonzero entries.  The library evaluates whole combination runs
    in closed form (``_pair_plan``): picks with disjoint tail supports have
    zero triples and errors within 1/p.  These methods have no library
    caller and are kept as the reference the tests compare against.
    """

    __slots__ = ("index", "coeffs")

    def __init__(self, index, coeffs):
        index = np.array(index, dtype=np.intp).reshape(-1)
        coeffs = np.array(coeffs, dtype=float).reshape(-1, 4)
        if index.size != coeffs.shape[0]:
            raise ValueError("one quaternion entry per support coordinate")
        if np.any(index[1:] <= index[:-1]):
            raise ValueError("support coordinates must be strictly increasing")
        index.setflags(write=False)
        coeffs.setflags(write=False)
        self.index = index
        self.coeffs = coeffs

    @classmethod
    def _of(cls, index: np.ndarray, coeffs: np.ndarray) -> "SparseVec":
        """Wrap arrays this module built: ascending index, (s, 4) float coeffs."""
        vec = cls.__new__(cls)
        index.setflags(write=False)
        coeffs.setflags(write=False)
        vec.index = index
        vec.coeffs = coeffs
        return vec

    def __repr__(self) -> str:
        return f"SparseVec(index={self.index.tolist()}, coeffs={self.coeffs.tolist()})"

    @property
    def entries(self) -> tuple[tuple[int, Quaternion], ...]:
        """The (coordinate, entry) pairs in coordinate order."""
        return tuple((int(i), Quaternion.from_array(q))
                     for i, q in zip(self.index, self.coeffs))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.index.tolist())

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.coeffs, self.coeffs))

    def scaled(self, t: float) -> "SparseVec":
        return SparseVec._of(self.index, self.coeffs * t)

    def add(self, other: "SparseVec") -> "SparseVec":
        index = self.index.tolist() + other.index.tolist()
        order = sorted(range(len(index)), key=index.__getitem__)
        coeffs = np.concatenate((self.coeffs, other.coeffs))[order]
        # one run per coordinate; a coordinate in both supports sums its two entries
        runs = [index[k] for k in order]
        starts = [k for k in range(len(runs)) if k == 0 or runs[k] != runs[k - 1]]
        if len(starts) < len(runs):
            coeffs = np.add.reduceat(coeffs, starts, axis=0)
        return SparseVec._of(np.array([runs[k] for k in starts], dtype=np.intp), coeffs)

    def inner(self, other: "SparseVec") -> Quaternion:
        """sum conj(other_k) self_k over the common support."""
        i, j = (self.index[:, None] == other.index).nonzero()
        if not i.size:
            return Quaternion.zero
        terms = qmul(qconj(other.coeffs[j]), self.coeffs[i])
        return Quaternion(*np.add.reduce(terms, axis=0).tolist())

    def quad_value(self, M: ModelOperator) -> Quaternion:
        """<T z, z> evaluated entrywise against the model operator."""
        return self.op_inner(M, self)

    def op_inner(self, M: ModelOperator, other: "SparseVec", adjoint: bool = False) -> Quaternion:
        """<T self, other> (or <T* self, other>) against the model operator.

        The sum of conj(other_i) T_ij self_j over the nonzero entries T_ij with
        i in other's support and j in self's, where T*_ij = conj(T_ji).
        """
        if adjoint:
            j, i, t = M.entries(self.index, other.index)
            t = qconj(t)
        else:
            i, j, t = M.entries(other.index, self.index)
        if not i.size:
            return Quaternion.zero
        terms = qmul(qmul(qconj(other.coeffs[i]), t), self.coeffs[j])
        return Quaternion(*np.add.reduce(terms, axis=0).tolist())

    def to_qvector(self, dim: int | None = None) -> QVector:
        top = int(self.index[-1]) + 1 if self.index.size else 0
        if dim is None:
            dim = top
        if dim < top:
            raise ValueError("dimension too small for the support")
        arr = np.zeros((dim, 4))
        arr[self.index] = self.coeffs
        return QVector(arr)


@dataclass(frozen=True)
class _Picks:
    """Consecutive picks of an essential sequence, one row per step.

    ``index`` (steps, s) holds each pick's support coordinates in ascending
    order, padded with -1 to one width s, ``coeffs`` (steps, s, 4) the
    matching entries (zero in the padding), ``values`` (steps, 4) the values
    <T v, v> and ``errors`` their distances to the target; ``cursor`` is
    where a further step would start.
    """

    cursor: int
    index: np.ndarray
    coeffs: np.ndarray
    values: np.ndarray
    errors: np.ndarray


def _chain_steps(eps, cursor: int, forbidden) -> list:
    """The tolerances of a ``chain`` call as floats, once its arguments are checked."""
    if cursor < 0:
        raise ValueError("cursor must be non-negative")
    tol = np.asarray(eps, dtype=float)
    if tol.ndim != 1 or not np.all(tol >= 0.0):
        raise ValueError("eps must be a sequence of tolerances >= 0, none NaN")
    if forbidden is not None and len(forbidden) != tol.size:
        raise ValueError(f"forbidden has {len(forbidden)} rows for {tol.size} tolerances")
    return tol.tolist()


class TailBasisSequence:
    """Essential sequence of phase-rotated tail basis vectors for a target value.

    Element p is e_{n_p} u_p where n_p runs along tail indices whose symbol
    class approaches csim(target) and u_p rotates the symbol onto target, so
    <T e u, e u> = conj(u) s u converges to the target at the scan rate.

    A pick depends on the class distance alone: the bild distances of the
    tail entries to the target class are kept in one flat ``array("d")``,
    grown to twice the entry the walk needs (2048 entries at least) up to
    ``MAX_SCAN`` and walked entry by entry, as a pick usually lies a few
    entries past the cursor.  As qconjugator turns only the imaginary
    direction, |conj(u) s u - target| equals the class distance up to
    rounding, so only the picked entries are rotated, in one qconjugator
    call per ``chain``; ``pick`` is its one-step case.
    """

    MAX_SCAN = 2_000_000

    def __init__(self, M: ModelOperator, target: Quaternion):
        self.M = M
        self.target = target
        sphere = csim(target)
        # the distance from the class to each segment; a NaN fails the "<="
        distance = min(math.hypot(sphere.a - a, 0.0 if b0 <= sphere.b <= b1
                                  else min(abs(sphere.b - b0), abs(sphere.b - b1)))
                       for a, b0, b1 in M._segments)
        if not (distance <= 1e-9):
            raise MissingSequenceError(
                f"class ({sphere.a:.6g}, {sphere.b:.6g}) is not a declared limit")
        self._sphere = sphere
        self._target = target.to_array()
        # imported here, so that paths which never chain do not load the extension
        from array import array
        self._dist = array("d")

    def _grow(self, n: int) -> int:
        """Extend the class distances past entry n: to max(2048, 2(n + 1)), up to MAX_SCAN."""
        done = len(self._dist)
        size = min(max(2 * (n + 1), 2048), self.MAX_SCAN)
        pts = bild_points(self.M.tail.prefix(size)[done:])
        self._dist.frombytes(
            np.hypot(pts[:, 0] - self._sphere.a, pts[:, 1] - self._sphere.b).tobytes())
        return size

    def chain(self, eps, cursor: int = 0, forbidden=None) -> _Picks:
        """Picks for the tolerances eps[0], eps[1], ..., each from where the last ended.

        Step p returns the first tail index n0 >= cursor whose class lies
        within eps[p] of the target class and whose coordinate block_size + n0
        is not in forbidden[p] (a collection per step, or None); the next
        step starts at n0 + 1.  Past MAX_SCAN entries, MissingSequenceError
        is raised.  The picked entries are then rotated onto the target; a
        rotated value farther than eps[p] (1 + 1e-9) + 1e-15 from the target
        raises NumericalError.  A negative cursor, a NaN or negative eps[p]
        or a forbidden with other than len(eps) rows raises ValueError.
        """
        steps = _chain_steps(eps, cursor, forbidden)
        m0 = self.M.block_size
        dist = self._dist
        size = len(dist)
        n = cursor
        hits = []
        for p, e in enumerate(steps):
            avoid = () if forbidden is None else forbidden[p]
            start = n
            while True:
                while n >= size:
                    if size >= self.MAX_SCAN:
                        raise MissingSequenceError(
                            f"no tail class within {e:g} of the target beyond cursor {start}")
                    size = self._grow(n)
                if dist[n] <= e and m0 + n not in avoid:
                    break
                n += 1
            hits.append(n)
            n += 1
        cursor = n
        hits = np.array(hits, dtype=np.intp)
        s = self.M.tail.prefix(cursor)[hits]
        u = qconjugator(s, self._target)
        values = qmul(qmul(qconj(u), s), u)
        errors = qabs(values - self._target)
        tol = np.array(steps) * (1.0 + 1e-9) + 1e-15
        miss = np.flatnonzero(~(errors <= tol))
        if miss.size:
            k = miss[0]
            raise NumericalError(f"rotated tail entry {hits[k] + 1} misses the target by "
                                 f"{errors[k]:g} > {tol[k]:g}")
        return _Picks(cursor=cursor, index=(m0 + hits).reshape(-1, 1),
                      coeffs=u.reshape(-1, 1, 4), values=values.reshape(-1, 4),
                      errors=errors)

    def pick(self, eps: float, cursor: int, forbidden=frozenset()):
        """One step of ``chain``: the first tail entry >= cursor within eps.

        Returns (index, SparseVec, value, error), where index is the 1-based
        tail index n0 + 1 of the pick, which is also the next cursor; its
        coordinate is block_size + n0.
        """
        step = self.chain([eps], cursor, [forbidden])
        return (step.cursor, SparseVec._of(step.index[0], step.coeffs[0]),
                Quaternion(*step.values[0].tolist()), float(step.errors[0]))


@dataclass
class CombinationResult:
    """Constructive essential sequence for a convex combination of two values.

    One row per step p = 1 .. depth: ``index`` (depth, s) holds the support
    coordinates of z_p in ascending order, padded with -1 to one width s,
    ``coeffs`` (depth, s, 4) the matching entries (zero in the padding),
    ``values`` (depth, 4) the values <T z_p, z_p>, ``errors`` their distances
    to the target and ``triples`` (depth, 3) the selection bounds |<x, y>|,
    |<T x, y>| and |<T* x, y>| (no rows when alpha is 0 or 1): exact zeros,
    as x and y have disjoint supports in the diagonal tail, which also gives
    errors[p - 1] <= alpha^2 e_x + beta^2 e_y <= 1/p for the picks' errors
    e_x, e_y, up to rounding.  Through ``chain`` a run is itself an
    essential sequence for its target.
    """

    target: Quaternion
    alpha: float
    beta: float
    index: np.ndarray
    coeffs: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    triples: np.ndarray
    error_constant: float

    def chain(self, eps, cursor: int = 0, forbidden=None) -> _Picks:
        """Picks over the run's steps, with the rule of TailBasisSequence.chain.

        Step p returns the first run step at or past the cursor whose error
        is at most eps[p] and whose support avoids forbidden[p]; bad
        arguments raise ValueError as there.
        """
        steps = _chain_steps(eps, cursor, forbidden)
        errors = self.errors.tolist()
        index = self.index.tolist()
        hits = []
        for p, e in enumerate(steps):
            avoid = () if forbidden is None else forbidden[p]
            n = cursor
            while n < len(errors) and not (
                    errors[n] <= e and not any(c in avoid for c in index[n] if c >= 0)):
                n += 1
            if n == len(errors):
                raise MissingSequenceError(
                    f"combination run exhausted before reaching error {e:g}")
            hits.append(n)
            cursor = n + 1
        return _Picks(cursor=cursor, index=self.index[hits], coeffs=self.coeffs[hits],
                      values=self.values[hits], errors=self.errors[hits])


_PAD = np.iinfo(np.intp).max  # sorts padding after every coordinate


@dataclass(frozen=True)
class _PairPlan:
    """The alpha-independent part of a run's array pass, one row per step.

    ``index`` (d, s + t) is the merged support of x_p and y_p sorted by
    coordinate, padding last, and ``coeffs`` (d, s + t, 4) their unscaled
    entries in that order, with ``from_x`` marking the columns that come
    from x_p; ``values`` holds the chains' (d, 4) values of x_p and of y_p.
    The supports are disjoint and in the diagonal tail, so no entry of T
    joins them: the selection triples are zeros, and the unnormalized
    <T z, z> of z = alpha x + beta y is alpha^2 <T x, x> + beta^2 <T y, y>,
    within alpha^2 e_x + beta^2 e_y <= 1/p of the target once normalized.
    """

    index: np.ndarray
    coeffs: np.ndarray
    from_x: np.ndarray
    values: tuple[np.ndarray, np.ndarray]


def _pair_plan(M: ModelOperator, x: _Picks, y: _Picks) -> _PairPlan:
    """Merged support order of x_p and y_p, all steps at once, and their values.

    Raises ValueError when a coordinate lies in the block or x_p and y_p
    share one, as the closed form of _PairPlan then fails.
    """
    s = x.index.shape[1]
    index = np.concatenate((x.index, y.index), axis=1)
    keys = np.where(index >= 0, index, _PAD)
    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    # sorted, a shared coordinate sits next to itself
    shared = (keys[:, 1:] == keys[:, :-1]) & (keys[:, 1:] < _PAD)
    if np.any(keys < M.block_size) or np.any(shared):
        raise ValueError("a pair plan needs disjoint supports in the diagonal tail")
    coeffs = np.concatenate((x.coeffs, y.coeffs), axis=1)
    return _PairPlan(index=np.take_along_axis(index, order, axis=1),
                     coeffs=np.take_along_axis(coeffs, order[:, :, None], axis=1),
                     from_x=order < s, values=(x.values, y.values))


def _pair_step(plan: _PairPlan, alpha: float, beta: float):
    """z_p = alpha x_p + beta y_p, normalized, with <T z_p, z_p>: (coeffs, values).

    The values weigh the picks' values by alpha^2 and beta^2; no quaternion
    product is taken.
    """
    coeffs = plan.coeffs * np.where(plan.from_x, alpha, beta)[:, :, None]
    norm = np.sqrt(np.einsum("psc,psc->p", coeffs, coeffs))
    scale = 1.0 / norm
    coeffs = coeffs * scale[:, None, None]
    vx, vy = plan.values
    values = (alpha * alpha * vx + beta * beta * vy) * (scale * scale)[:, None]
    return coeffs, values


class _Sweep:
    """The alpha-independent work of runs at one depth, each part made on first use.

    ``first`` is seq1's chain, which is the alpha = 1 run and the x of every
    interior alpha; ``alone`` is seq2's chain without forbidden rows, the
    alpha = 0 run; ``plan`` is the ``_PairPlan`` of x and of y, seq2's chain
    avoiding x's coordinates; the error constant 2 + ||T|| is taken on the
    first run.  At depth 200 the three parts take about 55 KB.  The
    sequences are passed on every call and never kept, so a sweep holds no
    reference to the operator that keeps it.  A chain that raises stores
    nothing.  Threads that share a sweep at worst make a part twice; both
    copies are equal, so either may be kept.
    """

    def __init__(self, depth: int):
        self.eps = [1.0 / p for p in range(1, depth + 1)]
        self._first = self._alone = self._plan = self._error_constant = None

    def first(self, seq1) -> _Picks:
        if self._first is None:
            self._first = seq1.chain(self.eps)
        return self._first

    def alone(self, seq2) -> _Picks:
        if self._alone is None:
            self._alone = seq2.chain(self.eps)
        return self._alone

    def plan(self, M: ModelOperator, seq1, seq2) -> _PairPlan:
        if self._plan is None:
            x = self.first(seq1)
            y = seq2.chain(self.eps, forbidden=x.index.tolist())
            self._plan = _pair_plan(M, x, y)
        return self._plan

    def run(self, M: ModelOperator, seq1, seq2, alpha: float) -> CombinationResult:
        """Steps p = 1 .. depth at eps = 1/p: one pick chain per sequence, one array pass.

        Only the scaling by alpha and beta, the normalization, the real
        combination of the picks' values and the errors depend on alpha; the
        operator is treated as immutable.  The returned arrays are copies,
        never the sweep's own.
        """
        om1, om2 = seq1.target, seq2.target
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        target = om1 * (alpha * alpha) + om2 * (beta * beta)
        if beta == 0.0 or alpha == 0.0:
            picks = self.first(seq1) if beta == 0.0 else self.alone(seq2)
            index, coeffs, values = picks.index.copy(), picks.coeffs.copy(), picks.values.copy()
            triples = np.zeros((0, 3))
        else:
            plan = self.plan(M, seq1, seq2)
            coeffs, values = _pair_step(plan, alpha, beta)
            # _pair_plan proved the supports disjoint in the diagonal tail
            index, triples = plan.index.copy(), np.zeros((len(plan.index), 3))
        if self._error_constant is None:
            self._error_constant = 2.0 + M.opnorm_bound()
        return CombinationResult(target=target, alpha=alpha, beta=beta, index=index,
                                 coeffs=coeffs, values=values,
                                 errors=qabs(values - target.to_array()), triples=triples,
                                 error_constant=self._error_constant)


def convex_combination_sequence(M: ModelOperator, om1: Quaternion, om2: Quaternion,
                                alpha: float, depth: int) -> CombinationResult:
    """Unit vectors z_p with <T z_p, z_p> -> alpha^2 om1 + beta^2 om2.

    At step p both ingredient sequences are advanced until their values sit
    within 1/p of their targets, the second pick is forced orthogonal to the
    first by a disjoint support, and z_p = alpha x + beta y is renormalized.
    Both picks lie in the diagonal tail, so the selection triple is exactly
    zero and, as alpha^2 + beta^2 = 1, the error at step p is at most
    alpha^2 e_x + beta^2 e_y <= 1/p (e_x, e_y the picks' errors) up to
    rounding, inside the (2 + ||T||) / p of error_constant.  alpha outside
    [0, 1] or NaN, and a depth that is not a positive integer, raise
    ValueError.

    A sweep over alpha shares its alpha-independent work: the two pick
    chains, the merged support order and the error constant.  Only the
    scaling, the normalization, the real combination
    alpha^2 <T x, x> + beta^2 <T y, y> and the errors depend on alpha.
    Each operator keeps its last sweep, about 55 KB at depth 200,
    for the last (om1, om2, depth), the endpoints compared by their bytes
    (so -0.0 and 0.0 differ).  Consecutive calls on M with the same three
    reuse it and any other call on M replaces it; the sweep lives as long
    as M.  M is treated as immutable, as ``ModelOperator.validate`` already
    assumes.  The results are identical to a call with a fresh sweep, each
    owns its arrays, and every argument check runs on every call.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if not isinstance(depth, numbers.Integral) or depth < 1:
        raise ValueError(f"depth must be a positive integer, got {depth!r}")
    seq1, seq2 = TailBasisSequence(M, om1), TailBasisSequence(M, om2)
    key = (om1.to_array().tobytes(), om2.to_array().tobytes(), depth)
    if M._sweep is None or M._sweep[0] != key:
        M._sweep = (key, _Sweep(depth))
    return M._sweep[1].run(M, seq1, seq2, alpha)


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


_MEMBERSHIP_EPS = 1e-9  # boundary slack of the geometric membership test
_MEMBERSHIP_DEPTH = 60  # steps of the essential sequence that cross-checks an interior point


def we_membership(M: ModelOperator, q: Quaternion) -> bool:
    """Whether the class of q lies in the essential numerical range.

    Geometric test against the essential bild with boundary slack
    _MEMBERSHIP_EPS outside and 1e-6 inside; points deeper inside are
    cross-validated by building a constructive essential sequence of
    _MEMBERSHIP_DEPTH steps from the polygon vertices and checking its value
    converges to the canonical representative of q.  A q with a NaN or
    infinite component raises ValueError.
    """
    if not np.isfinite(q.to_array()).all():
        raise ValueError(f"membership needs a finite quaternion, got {q}")
    depth = _MEMBERSHIP_DEPTH
    poly = essential_bild(M)
    pt = np.array(csim(q).point())
    sd = signed_inner_distance(poly, pt)
    if sd < -_MEMBERSHIP_EPS:
        return False
    if sd <= 1e-6:
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
        run = _Sweep(depth).run(M, stage1, TailBasisSequence(M, v3), math.sqrt(l1 + l2))
    final_err = float(qabs(run.values[-1] - target.to_array()))
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
