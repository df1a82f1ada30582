"""Dense quaternionic matrices with real and complex representations."""

from __future__ import annotations

import numpy as np

from .quaternion import HAMILTON, QVector, Quaternion, qconj

__all__ = ["QMatrix", "delta"]


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("QMatrix entries must be finite")


class QMatrix:
    """An n x n matrix over the quaternions, stored as an (n, n, 4) real array.

    Matrices act on column vectors on the left; right H-linearity
    T(x q) = (T x) q holds entrywise because scalars multiply from the right.
    Every entry is finite: a NaN or infinite one raises ValueError.
    """

    __slots__ = ("_arr", "_block_size")

    def __init__(self, arr):
        a = np.asarray(arr, dtype=float)
        if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[2] != 4:
            raise ValueError("QMatrix expects an (n, n, 4) array")
        _check_finite(a)
        a = a.copy()
        a.setflags(write=False)
        self._arr = a
        self._block_size = None

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "QMatrix":
        """Hold a fresh (n, n, 4) float array built in this module, read-only and uncopied."""
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out._arr = arr
        out._block_size = None
        return out

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zeros(n: int) -> "QMatrix":
        return QMatrix._adopt(np.zeros((n, n, 4)))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        arr = np.zeros((n, n, 4))
        arr[np.arange(n), np.arange(n), 0] = 1.0
        return QMatrix._adopt(arr)

    @staticmethod
    def diag(entries) -> "QMatrix":
        vals = np.array([q.to_array() if isinstance(q, Quaternion) else np.asarray(q, dtype=float)
                         for q in entries])
        _check_finite(vals)
        n = vals.shape[0]
        arr = np.zeros((n, n, 4))
        arr[np.arange(n), np.arange(n), :] = vals
        out = QMatrix._adopt(arr)
        out._block_size = 0  # diagonal
        return out

    @staticmethod
    def from_quaternions(rows) -> "QMatrix":
        arr = np.array([[q.to_array() for q in row] for row in rows])
        return QMatrix(arr)

    @staticmethod
    def block_diag(block: "QMatrix", tail_entries: np.ndarray) -> "QMatrix":
        """Direct sum of a dense block and a diagonal with entries (k, 4)."""
        b = block.n
        tail = np.asarray(tail_entries, dtype=float).reshape(-1, 4)
        _check_finite(tail)
        k = tail.shape[0]
        arr = np.zeros((b + k, b + k, 4))
        arr[:b, :b, :] = block.arr
        idx = np.arange(b, b + k)
        arr[idx, idx, :] = tail
        out = QMatrix._adopt(arr)
        # every off-diagonal entry lies in the block, so its split is T's
        out._block_size = block.block_split()
        return out

    # -- basic accessors ---------------------------------------------------------

    @property
    def arr(self) -> np.ndarray:
        return self._arr

    @property
    def n(self) -> int:
        return self._arr.shape[0]

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_array(self._arr[i, j])

    def diagonal(self) -> np.ndarray:
        idx = np.arange(self.n)
        return self._arr[idx, idx, :]

    # -- algebra -----------------------------------------------------------------

    def apply(self, x: QVector) -> QVector:
        if len(x) != self.n:
            raise ValueError("dimension mismatch in matrix application")
        y = np.einsum("abc,ija,jb->ic", HAMILTON, self._arr, x.arr)
        return QVector(y)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch in matrix product")
        prod = np.einsum("abc,ika,kjb->ijc", HAMILTON, self._arr, other._arr)
        return QMatrix(prod)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self._arr + other._arr)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self._arr - other._arr)

    def __mul__(self, t):
        if isinstance(t, (int, float)):
            return QMatrix(self._arr * float(t))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self._arr)

    def adjoint(self) -> "QMatrix":
        return QMatrix(qconj(self._arr).transpose(1, 0, 2))

    def frobenius(self) -> float:
        return float(np.sqrt(np.sum(self._arr * self._arr)))

    def isclose(self, other: "QMatrix", tol: float = 1e-12) -> bool:
        return self.n == other.n and float(np.max(np.abs(self._arr - other._arr))) <= tol

    # -- representations over R and C ---------------------------------------------

    def real_rep(self) -> np.ndarray:
        """4n x 4n real matrix with real_rep(A) vec(x) = vec(A x).

        vec stacks each quaternion entry as four consecutive reals, and the
        representation is multiplicative: real_rep(AB) = real_rep(A) real_rep(B).
        """
        n = self.n
        rep = np.einsum("abc,ija->icjb", HAMILTON, self._arr)
        return rep.reshape(4 * n, 4 * n)

    def complex_rep(self) -> np.ndarray:
        """2n x 2n complex adjoint matrix.

        Writing T = A + B j with complex A, B, the representation is
        [[A, B], [-conj(B), conj(A)]]; it is multiplicative and sends the
        quaternionic adjoint to the conjugate transpose.
        """
        a = self._arr[..., 0] + 1j * self._arr[..., 1]
        b = self._arr[..., 2] + 1j * self._arr[..., 3]
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
        if self._block_size is None:
            nz = np.argwhere(np.any(self._arr != 0.0, axis=2))
            off = nz[nz[:, 0] != nz[:, 1]]
            b = 0 if off.size == 0 else int(off.max()) + 1
            self._block_size = b
        return self._block_size

    def __repr__(self) -> str:
        return f"QMatrix(n={self.n})"


def delta(T: QMatrix, q: Quaternion) -> QMatrix:
    """The quadratic pencil T^2 - 2 Re(q) T + |q|^2 I.

    Depends on q only through (Re q, |q|), hence is constant on the
    similarity class of q.
    """
    n = T.n
    return T @ T - (2.0 * q.w) * T + q.norm_sq() * QMatrix.identity(n)
