"""Dense quaternionic matrices with real and complex representations."""

from __future__ import annotations

import numpy as np

from .quaternion import HAMILTON, QVector, Quaternion, qconj

__all__ = ["QMatrix", "delta"]


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("QMatrix entries must be finite")


_SQUARES_PIECE = 1 << 16  # entries whose squares _sum_of_squares forms at once


def _sum_of_squares(flat: np.ndarray) -> float:
    """np.sum(flat * flat) bit for bit, squaring at most _SQUARES_PIECE entries at once.

    np.sum adds a contiguous array pairwise: above 128 entries the sum of n
    is the sum of its first n2 = n // 2 - (n // 2) % 8 entries plus the sum
    of the rest, so the two parts are summed apart in the same way.
    """
    n = flat.size
    if n <= _SQUARES_PIECE:
        return np.sum(flat * flat)
    n2 = n // 2 - n // 2 % 8
    return _sum_of_squares(flat[:n2]) + _sum_of_squares(flat[n2:])


class QMatrix:
    """An n x n matrix over the quaternions, held as its block and its diagonal tail.

    With b = block_split(), T holds the leading b x b block, (b, b, 4), and
    the diagonal past it, (n - b, 4), both read-only; every other entry is
    zero.  QMatrix(arr) finds b once, at construction, and keeps its array
    as the one arr returns; diag, block_diag, zeros and identity hold only
    the factors, and arr builds the (n, n, 4) array on its first read.
    diagonal, diagonal_tail, entry, leading_block, principal, block_split
    and frobenius read the factors and never build it.  Indices outside
    [0, n) raise IndexError.
    Matrices act on column vectors on the left; right H-linearity
    T(x q) = (T x) q holds entrywise because scalars multiply from the right.
    Every entry is finite: a NaN or infinite one raises ValueError.
    """

    __slots__ = ("_arr", "_block", "_tail")

    def __init__(self, arr):
        a = np.asarray(arr, dtype=float)
        if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[2] != 4:
            raise ValueError("QMatrix expects an (n, n, 4) array")
        _check_finite(a)
        self._hold(a.copy())

    def _hold(self, arr: np.ndarray) -> None:
        """Hold a fresh (n, n, 4) float array, read-only and uncopied, and its factors."""
        arr.setflags(write=False)
        n = arr.shape[0]
        flat = arr.reshape(n * n, 4)  # entry (i, j) is row i n + j, the diagonal every n + 1
        off = flat.any(axis=1)
        off[::n + 1] = False
        hit = np.flatnonzero(off)
        b = max(int(hit[-1]) // n, int((hit % n).max())) + 1 if hit.size else 0
        self._arr, self._block, self._tail = arr, arr[:b, :b], flat[b * (n + 1)::n + 1]

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "QMatrix":
        """Hold a fresh (n, n, 4) float array built in this module, read-only and uncopied."""
        out = cls.__new__(cls)
        out._hold(arr)
        return out

    @classmethod
    def _factored(cls, block: np.ndarray, tail: np.ndarray) -> "QMatrix":
        """Hold a read-only dense block (b, b, 4), b its block split, and tail (k, 4)."""
        block.setflags(write=False)
        tail.setflags(write=False)
        out = cls.__new__(cls)
        out._arr, out._block, out._tail = None, block, tail
        return out

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zeros(n: int) -> "QMatrix":
        return QMatrix._factored(np.zeros((0, 0, 4)), np.zeros((n, 4)))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        tail = np.zeros((n, 4))
        tail[:, 0] = 1.0
        return QMatrix._factored(np.zeros((0, 0, 4)), tail)

    @staticmethod
    def diag(entries) -> "QMatrix":
        vals = np.array([q.to_array() if isinstance(q, Quaternion) else np.asarray(q, dtype=float)
                         for q in entries], dtype=float)
        if not vals.size:
            vals = vals.reshape(0, 4)
        if vals.ndim != 2 or vals.shape[1] != 4:
            raise ValueError("diag expects quaternion entries")
        _check_finite(vals)
        return QMatrix._factored(np.zeros((0, 0, 4)), vals)

    @staticmethod
    def from_quaternions(rows) -> "QMatrix":
        arr = np.array([[q.to_array() for q in row] for row in rows])
        return QMatrix(arr)

    @staticmethod
    def block_diag(block: "QMatrix", tail_entries: np.ndarray) -> "QMatrix":
        """Direct sum of a dense block and a diagonal with entries (k, 4), held as factors.

        Every off-diagonal entry lies in the block, so T's split is the
        block's: the factors are the block's own, its tail followed by the
        given entries.
        """
        entries = np.asarray(tail_entries, dtype=float).reshape(-1, 4)
        _check_finite(entries)
        return QMatrix._factored(block._block, np.concatenate([block._tail, entries]))

    # -- basic accessors ---------------------------------------------------------

    @property
    def arr(self) -> np.ndarray:
        if self._arr is None:
            b, n = self.block_split(), self.n
            arr = np.zeros((n, n, 4))
            arr[:b, :b] = self._block
            idx = np.arange(b, n)
            arr[idx, idx] = self._tail
            arr.setflags(write=False)
            self._arr = arr
        return self._arr

    @property
    def n(self) -> int:
        return self._block.shape[0] + self._tail.shape[0]

    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """T[rows, cols] (..., 4) for broadcastable index arrays in [0, n)."""
        rows, cols = np.broadcast_arrays(rows, cols)
        if rows.size and not (min(rows.min(), cols.min()) >= 0
                              and max(rows.max(), cols.max()) < self.n):
            raise IndexError(f"matrix index out of range for n = {self.n}")
        b = self.block_split()
        out = np.zeros(rows.shape + (4,))
        block = (rows < b) & (cols < b)
        out[block] = self._block[rows[block], cols[block]]
        tail = (rows == cols) & (rows >= b)
        out[tail] = self._tail[rows[tail] - b]
        return out

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_array(self._entries(np.array([i]), np.array([j]))[0])

    def diagonal(self) -> np.ndarray:
        idx = np.arange(self.block_split())
        return np.concatenate([self._block[idx, idx, :], self._tail])

    def diagonal_tail(self) -> np.ndarray:
        """The diagonal past block_split(), (n - b, 4): the held read-only tail, uncopied."""
        return self._tail

    def leading_block(self, b: int) -> "QMatrix":
        """T[:b, :b], a QMatrix holding its own array."""
        if not 0 <= b <= self.n:
            raise IndexError(f"leading block size {b} out of range for n = {self.n}")
        return self.principal(np.arange(b))

    def principal(self, coords) -> "QMatrix":
        """The principal submatrix T[coords][:, coords], a QMatrix holding its own array."""
        c = np.asarray(coords, dtype=np.intp).reshape(-1)
        return QMatrix._adopt(self._entries(c[:, None], c[None, :]))

    # -- algebra -----------------------------------------------------------------

    def apply(self, x: QVector) -> QVector:
        if len(x) != self.n:
            raise ValueError("dimension mismatch in matrix application")
        y = np.einsum("abc,ija,jb->ic", HAMILTON, self.arr, x.arr)
        return QVector(y)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch in matrix product")
        prod = np.einsum("abc,ika,kjb->ijc", HAMILTON, self.arr, other.arr)
        return QMatrix(prod)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.arr + other.arr)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.arr - other.arr)

    def __mul__(self, t):
        if isinstance(t, (int, float)):
            return QMatrix(self.arr * float(t))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.arr)

    def adjoint(self) -> "QMatrix":
        return QMatrix(qconj(self.arr).transpose(1, 0, 2))

    def frobenius(self) -> float:
        """The Frobenius norm, sqrt(|T[:b, :b]|^2 + |diagonal past b|^2) with b = block_split().

        Every entry outside those two factors is zero.  Each is summed by
        _sum_of_squares, so a matrix with b = n gives sqrt(np.sum(arr * arr))
        bit for bit, without forming arr * arr.
        """
        return float(np.sqrt(_sum_of_squares(self._block.reshape(-1))
                             + _sum_of_squares(self._tail.reshape(-1))))

    def isclose(self, other: "QMatrix", tol: float = 1e-12) -> bool:
        return self.n == other.n and float(np.max(np.abs(self.arr - other.arr))) <= tol

    # -- representations over R and C ---------------------------------------------

    def real_rep(self) -> np.ndarray:
        """4n x 4n real matrix with real_rep(A) vec(x) = vec(A x).

        vec stacks each quaternion entry as four consecutive reals, and the
        representation is multiplicative: real_rep(AB) = real_rep(A) real_rep(B).
        """
        n = self.n
        rep = np.einsum("abc,ija->icjb", HAMILTON, self.arr)
        return rep.reshape(4 * n, 4 * n)

    def complex_rep(self) -> np.ndarray:
        """2n x 2n complex adjoint matrix.

        Writing T = A + B j with complex A, B, the representation is
        [[A, B], [-conj(B), conj(A)]]; it is multiplicative and sends the
        quaternionic adjoint to the conjugate transpose.
        """
        arr = self.arr
        a = arr[..., 0] + 1j * arr[..., 1]
        b = arr[..., 2] + 1j * arr[..., 3]
        top = np.hstack([a, b])
        bottom = np.hstack([-np.conj(b), np.conj(a)])
        return np.vstack([top, bottom])

    # -- structure ----------------------------------------------------------------

    def block_split(self) -> int:
        """Size of the smallest leading block outside which T is diagonal.

        Returns b such that all entries T[i, j] with i != j and max(i, j) >= b
        vanish; b = 0 means T is diagonal.  Used to route quadratic-form
        evaluation through the cheap block + diagonal-tail path.
        """
        return self._block.shape[0]

    def __repr__(self) -> str:
        return f"QMatrix(n={self.n})"


def delta(T: QMatrix, q: Quaternion) -> QMatrix:
    """The quadratic pencil T^2 - 2 Re(q) T + |q|^2 I.

    Depends on q only through (Re q, |q|), hence is constant on the
    similarity class of q.
    """
    n = T.n
    return T @ T - (2.0 * q.w) * T + q.norm_sq() * QMatrix.identity(n)
