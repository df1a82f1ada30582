import math
import tracemalloc

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion, qmatrix

from conftest import random_qmatrix, random_unit_qvector, seeded_model_operator

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


def test_frobenius_matches_the_full_square_sum_without_its_copy():
    rng = np.random.default_rng(np.random.SeedSequence(27, spawn_key=(4,)))
    for n in [1, 2, 3, 7, 64, 127, 128, 129, 200, 300] + rng.integers(1, 260, 40).tolist():
        arr = rng.standard_normal((n, n, 4)) * 10 ** rng.uniform(-8, 8)
        assert qr.QMatrix(arr).frobenius() == float(np.sqrt(np.sum(arr * arr)))
    # a 300 x 300 matrix holds 2.9 MB; no second copy of it is formed
    T = qr.QMatrix(rng.standard_normal((300, 300, 4)))
    tracemalloc.start()
    try:
        T.frobenius()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * qmatrix._SQUARES_PIECE + 4096


def _frobenius_cases():
    """Matrices with b < n, dense and factored, and the edge sizes."""
    rng = np.random.default_rng(np.random.SeedSequence(33, spawn_key=(1,)))
    cases = [qr.QMatrix.zeros(0), qr.QMatrix(rng.standard_normal((1, 1, 4))),
             qr.QMatrix.diag([I, J, Quaternion(3.0, 0.0, 0.0, 1e-9)])]
    for n, b in [(2, 0), (5, 2), (40, 3), (300, 17)]:
        arr = np.zeros((n, n, 4))
        arr[:b, :b] = rng.standard_normal((b, b, 4))
        idx = np.arange(b, n)
        arr[idx, idx] = rng.standard_normal((n - b, 4)) * 10 ** rng.uniform(-6, 6, (n - b, 1))
        cases.append(qr.QMatrix(arr))
    cases += [qr.truncate(seeded_model_operator(s), N) for s in (0, 3) for N in (1, 60, 900)]
    cases += [qr.truncate(qr.remark_operator(), N) for N in (1, 50, 5000)]
    return cases


def test_frobenius_of_a_block_plus_tail_matches_the_exact_square_sum():
    for T in _frobenius_cases():
        # every entry of a dense matrix; the two factors of a section, whose array may not fit
        b = T.block_split()
        parts = [T.arr] if T._tail is None else [T.leading_block(b).arr, T.diagonal()[b:]]
        squares = np.concatenate([(x * x).ravel() for x in parts])
        exact = math.sqrt(math.fsum(squares))
        assert abs(T.frobenius() - exact) <= 1e-14 * exact, (T.n, T.block_split())


def test_frobenius_of_a_section_costs_memory_linear_in_its_size():
    N = 200_000
    T = qr.truncate(qr.remark_operator(), N)
    tracemalloc.start()
    try:
        T.frobenius()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * N
    assert T._arr is None


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
    # the scan of a dense array against the split read from its nonzero positions
    rng = np.random.default_rng(np.random.SeedSequence(33, spawn_key=(2,)))
    arrays = [np.zeros((0, 0, 4)), np.zeros((1, 1, 4)), rng.standard_normal((1, 1, 4)),
              qr.QMatrix.diag([I, J, K, Quaternion(2.0)]).arr, rng.standard_normal((6, 6, 4))]
    for i, j in [(0, 5), (5, 0), (2, 1)]:
        single = np.zeros((6, 6, 4))
        single[i, j] = (0.5, 0.0, 0.0, 0.0)
        arrays.append(single)
    k_only = np.zeros((6, 6, 4))
    k_only[3, 1, 3] = -1e-300  # the entry's only nonzero part is k
    arrays.append(k_only)
    hollow = np.zeros((7, 7, 4))
    hollow[:5, :5] = rng.standard_normal((5, 5, 4))
    hollow[2, :] = 0.0  # a zero row inside the block
    hollow[6, 6] = (1.0, 1.0, 0.0, 0.0)
    arrays.append(hollow)
    for arr in arrays:
        nz = np.argwhere(np.any(arr != 0.0, axis=2))
        off = nz[nz[:, 0] != nz[:, 1]]
        assert qr.QMatrix(arr).block_split() == (0 if off.size == 0 else int(off.max()) + 1)
    assert [qr.QMatrix(arr).block_split() for arr in arrays[-5:]] == [6, 6, 3, 4, 5]


def test_diag_split_needs_no_scan(monkeypatch):
    # diag sets its split when it builds the matrix, so block_split never
    # scans the N x N array; a fresh QMatrix on the same array does
    T = qr.QMatrix.diag([Quaternion(float(k), 1.0, 0.0, 0.0) for k in range(300)]
                        + [Quaternion(0.0)])
    assert qr.QMatrix(T.arr).block_split() == 0

    def no_scan(*args, **kwargs):
        raise AssertionError("block_split scanned the matrix")

    monkeypatch.setattr(np, "any", no_scan)
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


def _sections():
    """Seeded block-plus-tail sections and remark sections, by name."""
    rng = np.random.default_rng(np.random.SeedSequence(28, spawn_key=(1,)))
    lower = rng.standard_normal((3, 3, 4))
    lower[:, 2] = lower[2, :] = 0.0
    lower[2, 2] = (0.5, 0.0, 0.3, 0.0)  # the split is 2 in a 3-row block
    tail = qr.DecayingPeriodicTail([Quaternion(0.2, 0.7), Quaternion(-0.5, 0.1)], amplitude=0.1)
    out = {}
    for name, block in [("dense_3", qr.QMatrix(rng.standard_normal((3, 3, 4)))),
                        ("split_2_of_3", qr.QMatrix(lower)),
                        ("seeded_0", seeded_model_operator(0).block)]:
        M = qr.ModelOperator(block, tail, [qr.csim(Quaternion(0.2, 0.7)),
                                           qr.csim(Quaternion(-0.5, 0.1))], bound=1.0)
        for N in (1, 7, 40):
            out[f"{name}_N{N}"] = (M, N)
    for N in (1, 6, 50, 300):
        out[f"remark_N{N}"] = (qr.remark_operator(), N)
    return out


_SECTIONS = _sections()


def _region_bytes(region):
    return [np.ascontiguousarray(x).tobytes() for x in
            (region.offsets, region.outer_polygon, region.inner_hull, region.boundary_points)]


@pytest.mark.parametrize("name", sorted(_SECTIONS))
def test_factored_section_equals_its_dense_form(name):
    M, N = _SECTIONS[name]
    T = qr.truncate(M, N)
    D = qr.QMatrix(qr.truncate(M, N).arr)
    b = T.block_split()
    assert (T.n, b) == (D.n, D.block_split())
    assert T.diagonal().tobytes() == D.diagonal().tobytes()
    for size in sorted({0, b, min(b + 3, T.n), T.n}):
        assert T.leading_block(size).arr.tobytes() == D.leading_block(size).arr.tobytes()
    rng = np.random.default_rng(N)
    for coords in ([0], [T.n - 1, 0], rng.integers(0, T.n, 5), np.arange(min(T.n, 4))):
        assert T.principal(coords).arr.tobytes() == D.principal(coords).arr.tobytes()
        assert T.entry(coords[0], coords[-1]).to_array().tobytes() \
            == D.entry(coords[0], coords[-1]).to_array().tobytes()
    assert T.frobenius() == D.frobenius()
    for k in (180, 360):
        assert _region_bytes(qr.upper_bild(T, m=2000, k=k, seed=3)) \
            == _region_bytes(qr.upper_bild(D, m=2000, k=k, seed=3))
    assert qr.s_spectrum(T).points().tobytes() == qr.s_spectrum(D).points().tobytes()
    # none of the above built T's (n, n, 4) array
    assert T._arr is None
    sections = []
    for S in (T, D):
        try:
            section = qr.real_section(S, seed=3)
            sections.append((section.lo, section.hi))
        except qr.RealSectionError as exc:
            sections.append(exc.best_im)
    assert sections[0] == sections[1]


def test_factored_accessors_reject_indices_past_the_matrix():
    T = qr.truncate(qr.remark_operator(), 5)
    # both forms reject an index outside [0, n), a negative one included
    for S in (T, qr.QMatrix(T.arr)):
        with pytest.raises(IndexError):
            S.leading_block(8)
        for bad in ([7], [-1], [0, 7], [0, -5]):
            with pytest.raises(IndexError):
                S.principal(bad)
        for i, j in [(0, 7), (7, 0), (-1, -1), (0, -1)]:
            with pytest.raises(IndexError):
                S.entry(i, j)
        assert S.entry(6, 6).to_array().tolist() == [0.0, 0.25, 0.0, 0.0]
        assert S.principal([]).n == 0


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
