import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatrange as qr
from quatrange import Quaternion
from quatrange.quaternion import (
    I,
    J,
    K,
    ONE,
    qabs,
    qconj,
    qmul,
    rotation_aligning,
    unit_conjugator,
)

from conftest import random_qmatrix, random_unit_qvector

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_defining_relations():
    assert I * I == Quaternion(-1.0)
    assert J * J == Quaternion(-1.0)
    assert K * K == Quaternion(-1.0)
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K


def test_conjugate_product_is_norm_squared():
    q = Quaternion(1.0, 1.0, 0.0, 0.0)
    assert (q * q.conj()).isclose(Quaternion(2.0))


def test_square_of_all_ones():
    q = Quaternion(1.0, 1.0, 1.0, 1.0)
    # expanded by hand from the defining relations
    assert (q * q).isclose(Quaternion(-2.0, 2.0, 2.0, 2.0))


@settings(max_examples=150, derandomize=True)
@given(quats, quats)
def test_norm_is_multiplicative(p, q):
    assert abs(p * q) == pytest.approx(abs(p) * abs(q), abs=1e-9, rel=1e-9)


@settings(max_examples=150, derandomize=True)
@given(quats, quats)
def test_conj_antihomomorphism(p, q):
    assert (p * q).conj().isclose(q.conj() * p.conj(), tol=1e-9)


@settings(max_examples=100, derandomize=True)
@given(quats, quats, quats)
def test_associativity_and_distributivity(p, q, r):
    assert ((p * q) * r).isclose(p * (q * r), tol=1e-6)
    assert (p * (q + r)).isclose(p * q + p * r, tol=1e-6)


def test_re_im_split():
    q = Quaternion(2.0, -1.0, 3.0, 0.5)
    re = (q + q.conj()) * 0.5
    im = (q - q.conj()) * 0.5
    assert re == Quaternion(2.0)
    assert im.w == 0.0
    assert (re + im).isclose(q)


# -- similarity classes ----------------------------------------------------------


def test_csim_examples():
    assert qr.csim(Quaternion(3.0, 0.0, 4.0, 0.0)) == qr.SimilaritySphere(3.0, 4.0)
    assert qr.csim(Quaternion(5.0)) == qr.SimilaritySphere(5.0, 0.0)
    # block entry of the worked diagonal operator
    assert qr.csim(Quaternion(-1.0, 1.0, 0.0, 0.0)) == qr.SimilaritySphere(-1.0, 1.0)


def test_csim_orbit_invariance():
    rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(1,)))
    for _ in range(100):
        q = Quaternion(*rng.standard_normal(4))
        u = Quaternion(*rng.standard_normal(4)).normalized()
        rotated = u.conj() * q * u
        sphere = qr.csim(q)
        sphere2 = qr.csim(rotated)
        assert abs(sphere.a - sphere2.a) <= 1e-12 * (1 + abs(q))
        assert abs(sphere.b - sphere2.b) <= 1e-12 * (1 + abs(q))


def test_unit_conjugator_aligns():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = Quaternion(*rng.standard_normal(4))
        sph = qr.csim(s)
        target = Quaternion(sph.a, 0.0, -sph.b, 0.0)  # same class, -j direction
        u = unit_conjugator(s, target)
        moved = u.conj() * s * u
        assert moved.isclose(target, tol=1e-12 * (1 + abs(s)))


def test_rotation_aligning_antipodal():
    v = np.array([0.0, 0.0, 1.0])
    u = rotation_aligning(v, -v)
    q = Quaternion(0.0, 0.0, 0.0, 1.0)
    assert (u.conj() * q * u).isclose(Quaternion(0.0, 0.0, 0.0, -1.0), tol=1e-12)


# -- vectors and the inner product --------------------------------------------------


def test_inner_orthogonal_basis():
    x = qr.QVector.from_quaternions([ONE, Quaternion()])
    y = qr.QVector.from_quaternions([Quaternion(), ONE])
    assert x.inner(y).isclose(Quaternion())


def test_inner_single_entry_convention():
    # inner((i,), (j,)) = conj(j) * i = k
    x = qr.QVector.from_quaternions([I])
    y = qr.QVector.from_quaternions([J])
    assert x.inner(y).isclose(K)


def test_inner_unit_vector():
    r = 1.0 / math.sqrt(2.0)
    x = qr.QVector.from_quaternions([Quaternion(r), Quaternion(0.0, r, 0.0, 0.0)])
    assert x.inner(x).isclose(Quaternion(1.0), tol=1e-15)


def test_inner_right_linearity():
    rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2,)))
    for _ in range(30):
        x = qr.QVector(rng.standard_normal((4, 4)))
        y = qr.QVector(rng.standard_normal((4, 4)))
        q = Quaternion(*rng.standard_normal(4))
        lhs = (x * q).inner(y)
        rhs = x.inner(y) * q
        assert lhs.isclose(rhs, tol=1e-10)
        lhs2 = x.inner(y * q)
        rhs2 = q.conj() * x.inner(y)
        assert lhs2.isclose(rhs2, tol=1e-10)


def test_inner_positivity_and_cauchy_schwarz():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = qr.QVector(rng.standard_normal((5, 4)))
        y = qr.QVector(rng.standard_normal((5, 4)))
        g = x.inner(x)
        assert g.im_norm() <= 1e-12 * (1 + g.w)
        assert g.w >= 0.0
        assert abs(x.inner(y)) <= x.norm() * y.norm() * (1 + 1e-12)


def test_inner_dimension_mismatch():
    x = qr.QVector(np.zeros((2, 4)))
    y = qr.QVector(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        x.inner(y)


def test_quadratic_similarity_rotation():
    # <T(xq), xq> = conj(q) <Tx, x> q for unit q
    rng = np.random.default_rng(3)
    T = random_qmatrix(1, 3)
    x = random_unit_qvector(2, 3)
    q = Quaternion(*rng.standard_normal(4)).normalized()
    lhs = T.apply(x * q).inner(x * q)
    v = T.apply(x).inner(x)
    rhs = q.conj() * v * q
    assert lhs.isclose(rhs, tol=1e-12)


# -- polarization ---------------------------------------------------------------------


def test_polarization_identity_on_identity():
    T = qr.QMatrix.identity(3)
    x = random_unit_qvector(21, 3)
    assert qr.polarization(T, x, x).isclose(Quaternion(1.0), tol=1e-12)


def test_polarization_zero_operator():
    T = qr.QMatrix.zeros(3)
    x = random_unit_qvector(22, 3)
    y = random_unit_qvector(23, 3)
    assert abs(qr.polarization(T, x, y)) <= 1e-14


def test_polarization_matches_direct_inner():
    for seed in range(40):
        n = 2 + seed % 3
        T = random_qmatrix(100 + seed, n)
        x = random_unit_qvector(200 + seed, n)
        y = random_unit_qvector(300 + seed, n)
        direct = T.apply(x).inner(y)
        recovered = qr.polarization(T, x, y)
        assert abs(recovered - direct) <= 1e-10


def test_polarization_bulk_residual():
    # 1000 seeded triples with ||T|| <= 10 and unit vectors
    worst = 0.0
    for seed in range(1000):
        n = 1 + seed % 4
        T = random_qmatrix(seed, n)
        if T.frobenius() > 10.0:
            T = T * (10.0 / T.frobenius())
        x = random_unit_qvector(seed + 5000, n)
        y = random_unit_qvector(seed + 9000, n)
        worst = max(worst, abs(qr.polarization(T, x, y) - T.apply(x).inner(y)))
    assert worst <= 1e-10


# -- vectorized array helpers ---------------------------------------------------------


def test_qmul_matches_scalar():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    prod = qmul(a, b)
    for i in range(6):
        expected = Quaternion.from_array(a[i]) * Quaternion.from_array(b[i])
        assert np.allclose(prod[i], expected.to_array())
    assert np.allclose(qabs(prod), qabs(a) * qabs(b))
    assert np.allclose(qconj(a)[:, 0], a[:, 0])
    assert np.allclose(qconj(a)[:, 1:], -a[:, 1:])


def test_qconjugator_rows_match_scalar_and_land_on_target():
    rng = np.random.default_rng(31)
    targets = [Quaternion(0.3, -0.2, 0.5, 0.1), Quaternion(-1.0, 0.0, 0.0, 2.0),
               Quaternion(0.5, 0.7, 0.0, 0.0), Quaternion(0.0, 0.1, 0.9, -0.4)]
    for target in targets:
        t = target.to_array()
        # random members of the target's class, then an aligned, an antipodal
        # and a zero-imaginary source
        us = rng.standard_normal((60, 4))
        us /= qabs(us)[:, None]
        src = qmul(qmul(qconj(us), np.broadcast_to(t, us.shape)), us)
        src[0] = t
        src[1] = t * [1.0, -1.0, -1.0, -1.0]
        src[2] = [t[0], 0.0, 0.0, 0.0]
        u = qr.quaternion.qconjugator(src, t)
        assert u.shape == src.shape
        assert np.max(np.abs(qabs(u) - 1.0)) <= 1e-15
        for row, s in zip(u, src):
            one = unit_conjugator(Quaternion.from_array(s), target).to_array()
            assert np.max(np.abs(row - one)) <= 1e-15
        assert np.array_equal(u[0], ONE.to_array())
        assert np.array_equal(u[2], ONE.to_array())
        assert u[1, 0] == 0.0  # a rotation by pi
        moved = qmul(qmul(qconj(u), src), u)
        same_class = np.arange(len(src)) != 2
        assert np.max(np.abs(moved[same_class] - t)) <= 1e-14 * (1.0 + abs(target))
    # a target with zero imaginary part leaves every source as it is
    u = qr.quaternion.qconjugator(rng.standard_normal((5, 4)), np.array([0.7, 0.0, 0.0, 0.0]))
    assert np.array_equal(u, np.tile(ONE.to_array(), (5, 1)))
