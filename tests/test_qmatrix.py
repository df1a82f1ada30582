import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion, qmatrix

from conftest import random_qmatrix, random_unit_qvector

I = Quaternion.i
J = Quaternion.j
K = Quaternion.k


def test_adjoint_involution():
    T = random_qmatrix(1, 4)
    assert T.adjoint().adjoint().isclose(T)


def test_adjoint_is_conjugate_transpose():
    T = qr.QMatrix.from_quaternions([[I, J], [Quaternion(1.0), K]])
    A = T.adjoint()
    assert A.entry(0, 1).isclose(Quaternion(1.0))
    assert A.entry(1, 0).isclose(-J)


def test_apply_matches_entrywise_products():
    T = random_qmatrix(2, 3)
    x = random_unit_qvector(3, 3)
    y = T.apply(x)
    for i in range(3):
        acc = Quaternion()
        for j in range(3):
            acc = acc + T.entry(i, j) * x.entry(j)
        assert y.entry(i).isclose(acc, tol=1e-12)


def test_matmul_matches_apply_composition():
    A = random_qmatrix(4, 3)
    B = random_qmatrix(5, 3)
    x = random_unit_qvector(6, 3)
    lhs = (A @ B).apply(x)
    rhs = A.apply(B.apply(x))
    assert np.allclose(lhs.arr, rhs.arr, atol=1e-12)


def test_real_rep_multiplicative():
    for seed in range(10):
        A = random_qmatrix(seed, 3)
        B = random_qmatrix(seed + 50, 3)
        lhs = (A @ B).real_rep()
        rhs = A.real_rep() @ B.real_rep()
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_real_rep_action_matches_apply():
    A = random_qmatrix(7, 3)
    x = random_unit_qvector(8, 3)
    vec = x.arr.reshape(-1)
    out = A.real_rep() @ vec
    assert np.allclose(out.reshape(3, 4), A.apply(x).arr, atol=1e-12)


def test_complex_rep_multiplicative_and_adjoint():
    A = random_qmatrix(9, 3)
    B = random_qmatrix(10, 3)
    assert np.allclose((A @ B).complex_rep(), A.complex_rep() @ B.complex_rep(),
                       atol=1e-10)
    assert np.allclose(A.adjoint().complex_rep(), A.complex_rep().conj().T,
                       atol=1e-12)


def test_frobenius():
    T = qr.QMatrix.diag([Quaternion(3.0), Quaternion(0.0, 4.0, 0.0, 0.0)])
    assert T.frobenius() == pytest.approx(5.0)


def test_block_split():
    assert qr.QMatrix.diag([I, J, K]).block_split() == 0
    block = random_qmatrix(11, 2)
    T = qr.QMatrix.block_diag(block, np.zeros((3, 4)))
    split = T.block_split()
    assert split <= 2
    full = random_qmatrix(12, 4)
    assert full.block_split() == 4


def test_block_diag_split_is_the_scanned_split():
    # block_diag takes its split from the block; a fresh QMatrix on the same
    # array scans every entry
    lower = np.zeros((3, 3, 4))
    lower[1, 0] = (1.0, 0.0, 2.0, 0.0)
    blocks = [random_qmatrix(13, 3), qr.QMatrix.diag([I, J]), qr.QMatrix(lower),
              qr.QMatrix.zeros(0)]
    for block in blocks:
        T = qr.QMatrix.block_diag(block, np.ones((4, 4)))
        assert T.block_split() == qr.QMatrix(T.arr).block_split()
    assert [qr.QMatrix.block_diag(b, np.ones((4, 4))).block_split() for b in blocks] \
        == [3, 0, 2, 0]


def test_diag_split_needs_no_scan(monkeypatch):
    # diag sets its split when it builds the matrix, so block_split never
    # scans the N x N array; a fresh QMatrix on the same array does
    T = qr.QMatrix.diag([Quaternion(float(k), 1.0, 0.0, 0.0) for k in range(300)]
                        + [Quaternion(0.0)])
    assert qr.QMatrix(T.arr).block_split() == 0

    def no_scan(*args, **kwargs):
        raise AssertionError("block_split scanned the matrix")

    monkeypatch.setattr(np, "argwhere", no_scan)
    assert T.block_split() == 0


def test_block_diag_layout():
    block = qr.QMatrix.diag([Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0)])
    tail = np.array([[0.0, 0.5, 0.0, 0.0]])
    T = qr.QMatrix.block_diag(block, tail)
    assert T.n == 3
    assert T.entry(2, 2).isclose(Quaternion(0.0, 0.5, 0.0, 0.0))
    assert T.entry(0, 2).isclose(Quaternion())


def test_built_matrices_hold_their_own_read_only_array():
    tail = np.ones((3, 4))
    T = qr.QMatrix.block_diag(random_qmatrix(14, 2), tail)
    before = T.arr.copy()
    tail[:] = 7.0
    assert np.array_equal(T.arr, before)
    for M in (T, qr.QMatrix.zeros(3), qr.QMatrix.identity(3), qr.QMatrix.diag([I, J])):
        assert not M.arr.flags.writeable
        with pytest.raises(ValueError):
            M.arr[0, 0, 0] = 1.0
    # the public constructor still copies what it is given
    arr = np.zeros((2, 2, 4))
    A = qr.QMatrix(arr)
    arr[0, 0, 0] = 1.0
    assert not A.arr.any() and not A.arr.flags.writeable


# -- the quadratic pencil --------------------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_matrix_holds_finite_entries_by_construction(bad):
    arr = random_qmatrix(1, 3).arr.copy()
    arr[2, 0, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        qr.QMatrix(arr)
    # before this check, these reached upper_bild as a KeyError, an empty hull
    # or a LinAlgError
    with pytest.raises(ValueError, match="finite"):
        qr.QMatrix.diag([Quaternion(bad), Quaternion(1, 1)])
    tail = np.ones((3, 4))
    tail[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        qr.QMatrix.block_diag(random_qmatrix(2, 2), tail)


def test_sections_check_only_the_entries_they_are_given(monkeypatch):
    # block_diag's block is a QMatrix already, so a section's check is O(N)
    checked = []
    real = qmatrix._check_finite
    monkeypatch.setattr(qmatrix, "_check_finite",
                        lambda values: (checked.append(values.shape), real(values)))
    T = qr.truncate(qr.remark_operator(), 40)
    assert T.n == 42
    assert checked == [(2, 4), (40, 4)]


def test_delta_kills_matching_diagonal():
    T = qr.QMatrix.diag([I])
    D = qr.delta(T, I)
    assert np.max(np.abs(D.arr)) <= 1e-15


def test_delta_scalar_example():
    T = qr.QMatrix.identity(2)
    D = qr.delta(T, Quaternion(2.0))
    assert D.isclose(qr.QMatrix.identity(2), tol=1e-14)


def test_delta_mixed_imaginary_units():
    # each diagonal unit u satisfies u^2 + 1 = 0
    T = qr.QMatrix.diag([I, J])
    D = qr.delta(T, K)
    assert np.max(np.abs(D.arr)) <= 1e-15


def test_delta_constant_on_similarity_classes():
    T = random_qmatrix(20, 3)
    q = Quaternion(0.3, 1.2, -0.4, 0.7)
    base = qr.delta(T, q)
    # axis units permute coordinates exactly
    for u in (I, J, K):
        rotated = u.conj() * q * u
        assert np.array_equal(qr.delta(T, rotated).arr, base.arr)
    rng = np.random.default_rng(4)
    u = Quaternion(*rng.standard_normal(4)).normalized()
    rotated = u.conj() * q * u
    assert qr.delta(T, rotated).isclose(base, tol=1e-12 * (1 + T.frobenius() ** 2))
