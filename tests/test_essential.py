import copy
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion
from quatrange import essential
from quatrange.essential import Tail
from quatrange.geometry import minkowski_sum, signed_inner_distance
from quatrange.quaternion import qconj, qconjugator, qmul

from conftest import random_qmatrix, seeded_model_operator

I = Quaternion.i
J = Quaternion.j


class InverseTail(Tail):
    """s_n = i / n; limit class is the origin."""

    kind = "inverse"

    def _generate(self, count):
        out = np.zeros((count, 4))
        out[:, 1] = 1.0 / np.arange(1, count + 1)
        return out


# -- tails ------------------------------------------------------------------------


def test_constant_tail():
    t = qr.ConstantTail(Quaternion(2.0))
    assert np.allclose(t.prefix(5), [[2, 0, 0, 0]] * 5)


def test_periodic_tail():
    t = qr.PeriodicTail([I, -I])
    pref = t.prefix(4)
    assert np.allclose(pref[0], I.to_array())
    assert np.allclose(pref[1], (-I).to_array())
    assert np.allclose(pref[2], I.to_array())


def test_explicit_tail_repeats_last():
    t = qr.ExplicitTail([Quaternion(1.0), Quaternion(2.0)])
    assert np.allclose(t.prefix(4)[:, 0], [1.0, 2.0, 2.0, 2.0])


def test_rationals_tail_enumeration():
    t = qr.RationalsITail(0.5)
    pref = t.prefix(10)
    # starts 0, then -1/3, 1/3, -1/4, 1/4, ...
    assert np.allclose(pref[:5, 1], [0.0, -1 / 3, 1 / 3, -0.25, 0.25])
    big = t.prefix(5000)[:, 1]
    assert np.all(np.abs(big) < 0.5)
    # dense: every point of [-1/2, 1/2] is approached
    probes = np.linspace(-0.49, 0.49, 21)
    for p in probes:
        assert np.min(np.abs(big - p)) <= 2e-3
    # only the imaginary-i component is populated
    assert np.all(t.prefix(100)[:, [0, 2, 3]] == 0.0)


@pytest.mark.parametrize("half", [0.5, 0.37])
def test_rationals_tail_matches_fraction_reference(half):
    # by denominator q = 1, 2, ...: the reduced p/q with |p/q| < half, p ascending
    bound = Fraction(half)
    reference: list[Fraction] = []
    q = 1
    while len(reference) < 5000:
        top = int(bound * q) + 1
        reference.extend(f for f in (Fraction(p, q) for p in range(-top, top + 1))
                         if f.denominator == q and abs(f) < bound)
        q += 1
    got = qr.RationalsITail(half).prefix(5000)[:, 1].tolist()
    assert got == [float(f) for f in reference[:5000]]
    assert len(set(got)) == len(got)


def test_rationals_tail_resumes_its_enumeration():
    grown = qr.RationalsITail(0.5)
    for count in (10, 5000, 70000):
        grown.prefix(count)
    assert np.array_equal(grown.prefix(70000), qr.RationalsITail(0.5).prefix(70000))


def _reference_rationals(half, count):
    """The former generator: one gcd pass per denominator q = 1, 2, ..."""
    parts, have, q = [], 0, 1
    while have < count:
        pmax = int(math.floor(half * q - 1e-12))
        p = np.arange(-pmax, pmax + 1)
        # reduced only: gcd(0, q) = q also drops 0 after q = 1
        parts.append(p[np.gcd(p, q) == 1] / q)
        have += len(parts[-1])
        q += 1
    return np.concatenate(parts)[:count]


@pytest.mark.parametrize("half", [0.5, 0.37, 1.7, 0.01, 2.0])
def test_rationals_tail_sieve_matches_the_gcd_loop(half):
    want = _reference_rationals(half, 200000)
    one_shot = qr.RationalsITail(half).prefix(200000)
    assert one_shot[:, 1].tobytes() == want.tobytes()
    assert not one_shot[:, [0, 2, 3]].any()
    # a phantom target keeps validate growing the tail through all its
    # windows: 1024, 8192, 65536 and 200000 entries
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.RationalsITail(half),
                         [qr.SimilaritySphere(5.0, 0.0)], bound=half)
    with pytest.raises(qr.ValidationError, match="first 200000 tail values"):
        M.validate()
    assert M.tail.prefix(200000).tobytes() == one_shot.tobytes()


def test_decaying_periodic_rate():
    targets = [Quaternion(0.0, 0.5, 0, 0), Quaternion(1.0, 0.25, 0, 0)]
    t = qr.DecayingPeriodicTail(targets, amplitude=0.1)
    pref = t.prefix(1000)
    pts = qr.bild_points(pref)
    for k, target in enumerate(targets):
        idx = np.arange(k, 1000, 2)
        want = np.array(qr.csim(target).point())
        errs = np.linalg.norm(pts[idx] - want[None, :], axis=1)
        assert np.all(errs <= 0.1 / (idx + 1) + 1e-12)


@pytest.mark.parametrize("half", [float("inf"), float("nan"), -0.5, 0.0])
def test_rationals_tail_rejects_a_bad_half_width_at_construction(half):
    # an infinite half-width would make the first prefix enumerate forever
    with pytest.raises(ValueError, match="half-width must be finite and positive"):
        qr.RationalsITail(half)


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
def test_decaying_tail_rejects_a_non_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match="amplitude must be finite"):
        qr.DecayingPeriodicTail([I], amplitude=amplitude)


def test_tail_rejects_a_negative_count_and_an_index_below_one():
    t = qr.RationalsITail(0.5)
    t.prefix(10)
    with pytest.raises(ValueError, match="prefix count must be >= 0"):
        t.prefix(-3)
    for n in (0, -1):
        with pytest.raises(ValueError, match="tail index must be >= 1"):
            t.value(n)
    assert t.prefix(0).shape == (0, 4)
    assert t.value(10).to_array().tolist() == t.prefix(10)[9].tolist()


# -- model operators and truncation --------------------------------------------------


def test_truncate_inverse_tail():
    M = qr.ModelOperator(qr.QMatrix.zeros(0), InverseTail(),
                         [qr.SimilaritySphere(0.0, 0.0)], bound=1.0)
    T = qr.truncate(M, 2)
    assert T.n == 2
    assert T.entry(0, 0).isclose(I)
    assert T.entry(1, 1).isclose(Quaternion(0, 0.5, 0, 0))


def test_truncate_remark(remark):
    T = qr.truncate(remark, 1)
    assert T.n == 3
    assert T.entry(0, 0).isclose(Quaternion(-1, 1, 0, 0))
    assert T.entry(1, 1).isclose(Quaternion(1, 1, 0, 0))
    assert T.entry(2, 2).isclose(Quaternion())  # first rational is 0
    assert remark.block_size == 2 and T.block_split() == 0  # the block is diagonal


def test_truncate_constant():
    q = Quaternion(0.5, 0.5, 0, 0)
    M = qr.ModelOperator(qr.QMatrix.zeros(1), qr.ConstantTail(q),
                         [qr.csim(q)], bound=1.0)
    T = qr.truncate(M, 3)
    assert T.n == 4
    assert T.entry(0, 0).isclose(Quaternion())
    for k in (1, 2, 3):
        assert T.entry(k, k).isclose(q)


def test_truncate_requires_positive_section(remark):
    with pytest.raises(ValueError):
        qr.truncate(remark, 0)


def test_empty_limit_set_rejected():
    with pytest.raises(qr.ValidationError):
        qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(I), [], bound=1.0)


def test_validation_rejects_phantom_limit(monkeypatch):
    monkeypatch.setattr(essential, "_N_CHECK", 4096)
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(I),
                         [qr.SimilaritySphere(5.0, 0.0)], bound=1.5)
    with pytest.raises(qr.ValidationError):
        qr.essential_bild(M)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_validation_rejects_a_non_finite_tail_value(bad):
    # one bad value in a window would also make every target's least distance NaN
    values = [Quaternion(0.9)] * 50 + [Quaternion(bad)] + [Quaternion(0.9)]
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ExplicitTail(values),
                         [qr.SimilaritySphere(-0.5, 0.4)], bound=1.0)
    with pytest.raises(qr.ValidationError, match="non-finite"):
        qr.essential_bild(M)
    # the same tail without the bad value misses the declared class
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ExplicitTail(values[:50] + values[51:]),
                         [qr.SimilaritySphere(-0.5, 0.4)], bound=1.0)
    with pytest.raises(qr.ValidationError, match="not approached"):
        qr.essential_bild(M)


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -1.0])
def test_model_operator_rejects_a_bad_bound(bound):
    with pytest.raises(qr.ValidationError, match="bound must be finite and >= 0"):
        qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(I), [qr.csim(I)], bound=bound)


def test_validation_rejects_bound_violation():
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(Quaternion(2.0)),
                         [qr.SimilaritySphere(2.0, 0.0)], bound=1.0)
    with pytest.raises(qr.ValidationError):
        qr.essential_bild(M)


# The per-kind readers of the limit set that the library replaced by its
# canonical (a, b0, b1) segments: the references of the parity tests below.

def _reference_targets(limit_set):
    """validate's targets: each sphere's point, nine evenly spaced points of each segment."""
    targets = []
    for part in limit_set:
        if isinstance(part, qr.SimilaritySphere):
            targets.append(part.point())
        else:
            bs = np.linspace(part.b0, part.b1, 9)
            targets.extend(map(tuple, np.stack([np.full_like(bs, part.a), bs], axis=1)))
    return targets


def _reference_part_distance(part, sphere):
    """Distance from a class to a declared part, as TailBasisSequence reads it."""
    if isinstance(part, qr.SimilaritySphere):
        return part.distance(sphere)
    db = 0.0 if part.b0 <= sphere.b <= part.b1 else min(abs(sphere.b - part.b0),
                                                        abs(sphere.b - part.b1))
    return math.hypot(sphere.a - part.a, db)


def _reference_bild_points(M):
    """essential_bild's hull points in the upper half-plane: sphere points, segment ends."""
    pts = []
    for part in M.limit_set:
        if isinstance(part, qr.SimilaritySphere):
            pts.append(part.point())
        else:
            pts.extend([(part.a, part.b0), (part.a, part.b1)])
    return np.array(pts, dtype=float)


def _reference_validate(M, n_check=200000, tol=1e-3):
    """The former check, which rescanned every window from entry 0."""
    targets = np.array(_reference_targets(M.limit_set))
    unmet = np.ones(len(targets), dtype=bool)
    window = 1024
    while True:
        window = min(window, n_check)
        pts = qr.bild_points(M.tail.prefix(window))
        mags = np.sqrt(np.sum(M.tail.prefix(window) ** 2, axis=1))
        if float(mags.max(initial=0.0)) > M.bound + 1e-12:
            raise qr.ValidationError("tail value exceeds the declared bound")
        if unmet.any():
            d = np.linalg.norm(pts[None, :, :] - targets[unmet][:, None, :], axis=2)
            unmet[np.flatnonzero(unmet)[d.min(axis=1) <= tol]] = False
        if not unmet.any():
            return
        if window == n_check:
            bad = targets[unmet][0]
            raise qr.ValidationError(
                f"declared limit point ({bad[0]:.6g}, {bad[1]:.6g}) not approached "
                f"within {tol:g} by the first {n_check} tail values")
        window *= 8


def _validation_outcome(check):
    try:
        check()
    except qr.ValidationError as exc:
        return str(exc)
    return None


def _validation_cases():
    # targets met in a later window, phantom targets named in declared order,
    # a bound broken only past the first windows, and operators that pass
    slow = qr.ExplicitTail([Quaternion(0.0, 0.5 + 2.0 / n, 0, 0) for n in range(1, 3000)]
                           + [Quaternion(0.0, 0.5, 0, 0)])
    late = qr.ExplicitTail([Quaternion(0.0, 0.5 + 2.0 / n, 0, 0) for n in range(1, 5000)]
                           + [Quaternion(0.0, 4.0, 0, 0)])
    phantoms = [qr.SimilaritySphere(5.0, 0.0), qr.LimitSegment(0.0, 0.0, 0.5),
                qr.SimilaritySphere(-3.0, 1.0)]
    return [
        (qr.remark_operator(), 200000),
        (seeded_model_operator(3), 200000),
        (qr.ModelOperator(qr.QMatrix.zeros(0), slow, [qr.SimilaritySphere(0.0, 0.5)],
                          bound=3.0), 20000),
        (qr.ModelOperator(qr.QMatrix.zeros(0), slow, [qr.SimilaritySphere(0.0, 0.5)],
                          bound=3.0), 1500),
        (qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(I), phantoms, bound=6.0),
         70000),
        (qr.ModelOperator(qr.QMatrix.zeros(0), late, [qr.SimilaritySphere(0.0, 0.5)],
                          bound=3.0), 20000),
        (qr.ModelOperator(qr.QMatrix.zeros(0), late, [qr.SimilaritySphere(0.0, 0.5)],
                          bound=3.0), 4000),
    ]


def test_validate_matches_the_full_rescan(monkeypatch):
    outcomes = []
    for M, n_check in _validation_cases():
        expected = _validation_outcome(lambda: _reference_validate(M, n_check))
        monkeypatch.setattr(essential, "_N_CHECK", n_check)
        assert _validation_outcome(M.validate) == expected
        outcomes.append(expected)
    assert outcomes[:2] == [None, None]
    assert outcomes[2] is None
    assert outcomes[3].startswith("declared limit point (0, 0.5) not approached")
    assert outcomes[4].startswith("declared limit point (5, 0) not approached")
    assert outcomes[5] == "tail value exceeds the declared bound"
    assert outcomes[6] is None


def test_validate_reads_each_tail_entry_once(monkeypatch):
    # a phantom target is never met, so every window up to _N_CHECK runs:
    # 1024, 8192, 65536 and 200000 entries, each scanned from the last one's end
    scanned = []
    real = essential.bild_points

    def counted(values):
        scanned.append(len(values))
        return real(values)

    monkeypatch.setattr(essential, "bild_points", counted)
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(I),
                         [qr.SimilaritySphere(5.0, 0.0)], bound=1.5)
    with pytest.raises(qr.ValidationError, match="first 200000 tail values"):
        M.validate()
    assert scanned == [1024, 7168, 57344, 134464]


def test_validate_memory_does_not_grow_with_the_targets():
    # six segments give 54 probe targets, 46 of them still unmet in the last
    # window; a (targets x window x 2) distance array over its 134 464 entries
    # alone would take about 100 MB
    segments = [qr.LimitSegment(a, 0.0, 0.5) for a in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)]
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.RationalsITail(0.5), segments, bound=0.5)
    tracemalloc.start()
    try:
        with pytest.raises(qr.ValidationError) as err:
            M.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("declared limit point (0.01, 0) not approached within 0.001 "
                              "by the first 200000 tail values")
    assert peak < 16e6


def _mixed_limit_sets(count):
    """Random limit sets of one to eight parts: spheres, segments, point segments, b0 = 0."""
    rng = np.random.default_rng(np.random.SeedSequence(26, spawn_key=(3,)))
    sets = []
    for _ in range(count):
        parts = []
        for _ in range(int(rng.integers(1, 9))):
            a = rng.standard_normal() * 0.8
            b0, b1 = np.sort(np.abs(rng.standard_normal(2)) * 0.8)
            parts.append([qr.SimilaritySphere(a, b0), qr.LimitSegment(a, b0, b1),
                          qr.LimitSegment(a, b1, b1), qr.LimitSegment(a, 0.0, b1)]
                         [int(rng.integers(0, 4))])
        sets.append(parts)
    return sets


def _parity_operators():
    """Seeded operators 0-199, then mixed limit sets whose tail meets every target or some."""
    rng = np.random.default_rng(np.random.SeedSequence(26, spawn_key=(5,)))
    out = [(seeded_model_operator(seed), 200000) for seed in range(200)]
    for parts in _mixed_limit_sets(200):
        targets = _reference_targets(parts)
        # every other set meets only a random part of its targets
        kept = targets if len(out) % 2 else [t for t in targets if rng.random() < 0.7]
        values = [Quaternion(a, b, 0.0, 0.0) for a, b in kept or targets[:1]]
        bound = max(abs(q) for q in values) + 0.1
        out.append((qr.ModelOperator(qr.QMatrix.zeros(0), qr.ExplicitTail(values), parts,
                                     bound), 2048))
    return out


def _class_queries(M):
    """Quaternions at, near and off the declared parts, as (a, b) rotated into j or k."""
    queries = []
    for a, b in _reference_bild_points(M).tolist():
        for da, db in ((0.0, 0.0), (0.0, 5e-10), (0.0, -2e-9), (1e-9, 0.0), (-3e-10, 0.0),
                       (0.0, 0.01), (0.3, 0.0)):
            queries += [Quaternion(a + da, b + db, 0.0, 0.0), Quaternion(a + da, 0.0, 0.0, b + db)]
    return queries


def test_canonical_segments_match_the_per_kind_readers(monkeypatch):
    # validation, the hull and the declared-class test on 400 operators, each
    # against the per-kind readers above
    for M, n_check in _parity_operators():
        monkeypatch.setattr(essential, "_N_CHECK", n_check)
        expected = _validation_outcome(lambda: _reference_validate(M, n_check))
        assert _validation_outcome(M.validate) == expected
        if expected is None:
            upper = _reference_bild_points(M)
            hull = qr.convex_hull(np.vstack([upper, upper * np.array([1.0, -1.0])]))
            got = qr.essential_bild(M)
            assert got.shape == hull.shape and got.tobytes() == hull.tobytes()
        for q in _class_queries(M):
            sphere = qr.csim(q)
            declared = min(_reference_part_distance(p, sphere) for p in M.limit_set) <= 1e-9
            try:
                qr.TailBasisSequence(M, q)
                found = True
            except qr.MissingSequenceError:
                found = False
            assert found == declared, (M, q)


def _bare_segment(a, b0, b1):
    """A LimitSegment that skips its own check, so that ModelOperator's is reached."""
    seg = object.__new__(qr.LimitSegment)
    for name, value in (("a", a), ("b0", b0), ("b1", b1)):
        object.__setattr__(seg, name, value)
    return seg


def _with_part(part):
    return qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(I), [qr.csim(I), part],
                            bound=1.0)


_NON_FINITE_ENTRIES = {
    "sphere a": (qr.ValidationError, lambda x, M: _with_part(qr.SimilaritySphere(x, 0.5))),
    "sphere b": (qr.ValidationError, lambda x, M: _with_part(qr.SimilaritySphere(0.0, x))),
    "segment part": (qr.ValidationError, lambda x, M: _with_part(_bare_segment(0.0, 0.0, x))),
    "segment a": (ValueError, lambda x, M: qr.LimitSegment(x, 0.0, 0.5)),
    "segment b1": (ValueError, lambda x, M: qr.LimitSegment(0.5, 0.0, x)),
    "sequence": (qr.MissingSequenceError,
                 lambda x, M: qr.TailBasisSequence(M, Quaternion(x, 0.25, 0.0, 0.0))),
    "combination": (qr.MissingSequenceError,
                    lambda x, M: qr.convex_combination_sequence(
                        M, Quaternion(0.0, 0.25, 0.0, 0.0), Quaternion(0.0, 0.0, x, 0.0),
                        0.5, 10)),
    "membership real": (ValueError, lambda x, M: qr.we_membership(M, Quaternion(x))),
    "membership i": (ValueError,
                     lambda x, M: qr.we_membership(M, Quaternion(0.0, x, 0.0, 0.0))),
    "membership four-vertex bild": (
        ValueError, lambda x, M: qr.we_membership(seeded_model_operator(0), Quaternion(x))),
    "lancaster target": (ValueError, lambda x, M: qr.lancaster_check(
        M, [50], target=[[x, 0.0], [1.0, 1.0], [0.0, 1.0]])),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("entry", list(_NON_FINITE_ENTRIES))
def test_every_entry_point_rejects_a_non_finite_input(entry, bad):
    error, call = _NON_FINITE_ENTRIES[entry]
    M = qr.remark_operator()
    with pytest.raises(error):
        call(bad, M)
    # rejected before any tail is read or any geometry is built
    assert M.tail._cache.shape[0] == 0 and not M._validated


# -- essential bild -------------------------------------------------------------------


def test_essential_bild_remark_exact(remark):
    poly = qr.essential_bild(remark)
    assert np.array_equal(poly, np.array([(0.0, -0.5), (0.0, 0.5)]))


def test_essential_bild_constant():
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(Quaternion(2.0)),
                         [qr.SimilaritySphere(2.0, 0.0)], bound=2.0)
    poly = qr.essential_bild(M)
    assert np.array_equal(poly, np.array([(2.0, 0.0)]))


def test_essential_bild_alternating_units():
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.PeriodicTail([I, -I]),
                         [qr.SimilaritySphere(0.0, 1.0)], bound=1.0)
    poly = qr.essential_bild(M)
    assert np.array_equal(poly, np.array([(0.0, -1.0), (0.0, 1.0)]))


def test_essential_bild_ignores_block(remark):
    variants = [
        qr.ModelOperator(qr.QMatrix.zeros(0), remark.tail, remark.limit_set, 0.5),
        qr.ModelOperator(random_qmatrix(1, 3, scale=10.0), remark.tail,
                         remark.limit_set, 0.5),
        remark,
    ]
    polys = [qr.essential_bild(M) for M in variants]
    for p in polys[1:]:
        assert np.array_equal(polys[0], p)


def test_finite_sections_forget_contained_blocks():
    # blocks whose classes sit inside the essential polygon do not move the
    # support polygon of large sections
    targets = [Quaternion(0.0, 0.8, 0, 0), Quaternion(0.5, 0.3, 0, 0)]
    tail = qr.PeriodicTail(targets)
    limits = [qr.csim(t) for t in targets]
    inside_block = qr.QMatrix.diag([Quaternion(0.1, 0.2, 0.0, 0.0)])
    m1 = qr.ModelOperator(inside_block, tail, limits, bound=1.0)
    m2 = qr.ModelOperator(qr.QMatrix.zeros(0), tail, limits, bound=1.0)
    thetas = np.linspace(0, math.pi, 60)
    for N in (25, 100):
        h1 = qr.support_offsets(qr.truncate(m1, N), thetas)
        h2 = qr.support_offsets(qr.truncate(m2, N), thetas)
        assert np.max(np.abs(h1 - h2)) <= 1e-9


def test_adjoint_symmetry():
    M = seeded_model_operator(3)
    assert np.array_equal(qr.essential_bild(M), qr.essential_bild(M.adjoint()))


def test_affine_transform_exact():
    M = seeded_model_operator(4)
    poly = qr.essential_bild(M)
    for a, b in [(2.0, -1.0), (-1.5, 0.5)]:
        transformed = qr.essential_bild(M.affine(a, b))
        image = qr.convex_hull(np.stack([a * poly[:, 0] + b, a * poly[:, 1]], axis=1))
        assert np.array_equal(transformed, image)


def test_infinite_multiplicity_eigenvalue():
    q = Quaternion(0.3, 0.0, 1.2, 0.0)
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(q), [qr.csim(q)],
                         bound=abs(q))
    poly = qr.essential_bild(M)
    assert signed_inner_distance(poly, qr.csim(q).point()) >= 0.0


def test_sum_inclusion_synchronized_diagonals():
    p = Quaternion(0.2, 0.7, 0, 0)
    q = Quaternion(-0.4, 0.1, 0, 0)
    m1 = qr.ModelOperator(qr.QMatrix.zeros(0), qr.PeriodicTail([p]), [qr.csim(p)],
                          bound=1.0)
    m2 = qr.ModelOperator(qr.QMatrix.zeros(0), qr.PeriodicTail([q]), [qr.csim(q)],
                          bound=1.0)
    msum = qr.ModelOperator(qr.QMatrix.zeros(0), qr.PeriodicTail([p + q]),
                            [qr.csim(p + q)], bound=2.0)
    big = minkowski_sum(qr.essential_bild(m1), qr.essential_bild(m2))
    for v in qr.essential_bild(msum):
        assert signed_inner_distance(big, v) >= -1e-9


def test_block_diagonal_unitary_invariance():
    M = seeded_model_operator(6)
    rng = np.random.default_rng(60)

    class RotatedTail(Tail):
        kind = "rotated"

        def __init__(self, base, seed):
            super().__init__()
            self.base = base
            self.seed = seed

        def _generate(self, count):
            vals = self.base.prefix(count).copy()
            gen = np.random.default_rng(self.seed)
            us = qr.quaternion.random_unit_quaternions(gen, count)
            from quatrange.quaternion import qconj, qmul
            return qmul(qmul(us, vals), qconj(us))

    rotated = qr.ModelOperator(M.block, RotatedTail(M.tail, 60), M.limit_set, M.bound)
    # validation passes because classes are unchanged; the essential bild and
    # the section support polygons are identical
    assert np.array_equal(qr.essential_bild(M), qr.essential_bild(rotated))
    thetas = np.linspace(0, math.pi, 45)
    h1 = qr.support_offsets(qr.truncate(M, 40), thetas)
    h2 = qr.support_offsets(qr.truncate(rotated, 40), thetas)
    assert np.max(np.abs(h1 - h2)) <= 1e-9


def test_truncation_spectrum_accumulates_inside():
    M = seeded_model_operator(7)
    poly = qr.essential_bild(M)
    block_spec = qr.s_spectrum(M.block).points() if M.block_size else np.zeros((0, 2))
    T = qr.truncate(M, 200)
    tail_pts = qr.bild_points(T.diagonal()[M.block_size:])
    for pt in tail_pts[100:]:
        d_poly = -min(0.0, signed_inner_distance(poly, pt))
        d_block = np.min(np.linalg.norm(block_spec - pt[None, :], axis=1)) \
            if len(block_spec) else np.inf
        assert min(d_poly, d_block) <= 1e-3


# -- quasi-orthogonal selection --------------------------------------------------------


def test_quasi_orth_disjoint_basis():
    T = qr.truncate(qr.remark_operator(), 6)
    xs = [qr.QVector.basis(T.n, k) for k in range(0, 4)]
    ys = [qr.QVector.basis(T.n, k) for k in range(4, 8)]
    sel = qr.quasi_orth_select(T, xs, ys, N=1, eps=1e-12)
    assert sel.m == 1
    assert max(sel.bounds) == 0.0


def test_quasi_orth_large_eps_accepts_immediately():
    T = random_qmatrix(8, 4)
    xs = [qr.QVector.basis(4, 0)]
    ys = [qr.QVector.basis(4, 0)]
    sel = qr.quasi_orth_select(T, xs, ys, N=0, eps=T.frobenius() + 1.0)
    assert sel.m == 0


def test_quasi_orth_exhaustion_reports_best():
    T = qr.QMatrix.identity(2)
    xs = [qr.QVector.basis(2, 0)]
    ys = [qr.QVector.basis(2, 0), qr.QVector.basis(2, 0)]
    with pytest.raises(qr.QuasiOrthExhausted) as err:
        qr.quasi_orth_select(T, xs, ys, N=0, eps=1e-3)
    assert err.value.best_bounds[0] == pytest.approx(1.0)


def test_quasi_orth_rejects_an_index_outside_xs():
    T = qr.QMatrix.identity(4)
    basis = [qr.QVector.basis(4, k) for k in range(4)]
    # N = -1 would select x_3 silently, and N = 4 would raise a bare IndexError
    for N in (-1, -4, 4, 5):
        with pytest.raises(ValueError, match="not an index of xs"):
            qr.quasi_orth_select(T, basis, basis, N=N, eps=1e-12)
    assert qr.quasi_orth_select(T, basis, basis[1:] + basis[:1], N=3, eps=1e-12).m == 3


def test_quasi_orth_remark_subsequence(remark):
    T = qr.truncate(remark, 8)
    xs = [qr.QVector.basis(T.n, 2 + k) for k in range(4)]
    ys = xs
    sel = qr.quasi_orth_select(T, xs, ys, N=2, eps=1e-6)
    assert sel.m == 3  # first later position with disjoint support
    assert max(sel.bounds) <= 1e-6


# -- constructive convex combinations ---------------------------------------------------


def test_combination_alpha_one_returns_first_sequence(remark):
    target = Quaternion(0.0, 0.5, 0.0, 0.0)
    run = qr.convex_combination_sequence(remark, target, Quaternion(0.0, -0.5, 0, 0),
                                         1.0, 40)
    assert run.index.shape == (40, 1) and np.all(run.index >= 0)
    assert run.errors[-1] <= 1.0 / 40 + 1e-12


def test_combination_remark_midpoint(remark):
    run = qr.convex_combination_sequence(
        remark, Quaternion(0, 0.5, 0, 0), Quaternion(0, -0.5, 0, 0),
        math.sqrt(0.5), 200)
    assert abs(Quaternion.from_array(run.values[-1])) <= 5 * (2 + remark.opnorm_bound()) / 200
    assert all(max(t) <= 1 / (p + 1) for p, t in enumerate(run.triples))


def test_combination_constant_tail_fixed_point():
    q = Quaternion(0.5, 0.0, 0.75, 0.0)
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(q), [qr.csim(q)],
                         bound=1.0)
    run = qr.convex_combination_sequence(M, q, q, math.sqrt(0.5), 50)
    assert abs(Quaternion.from_array(run.values[-1]) - q) <= 1e-9


def test_combination_values_are_unit_vector_quadratics(remark):
    run = qr.convex_combination_sequence(
        remark, Quaternion(0, 0.5, 0, 0), Quaternion(0, -0.25, 0, 0),
        math.sqrt(0.3), 25)
    T = qr.truncate(remark, int(run.index.max()) + 1)
    for index, coeffs, value in zip(run.index[-3:], run.coeffs[-3:], run.values[-3:]):
        x = _run_step(index, coeffs).to_qvector(T.n)
        assert x.norm() == pytest.approx(1.0, abs=1e-12)
        direct = T.apply(x).inner(x)
        assert abs(direct - Quaternion.from_array(value)) <= 1e-10


def test_combination_rejects_unknown_target(remark):
    with pytest.raises(qr.MissingSequenceError):
        qr.convex_combination_sequence(remark, Quaternion(3.0), Quaternion(0, 0.5, 0, 0),
                                       0.5, 10)


# -- membership --------------------------------------------------------------------------


def test_membership_remark(remark):
    assert qr.we_membership(remark, Quaternion(0.0, 0.25, 0.0, 0.0))
    assert not qr.we_membership(remark, Quaternion(1.0))
    far = Quaternion(0.0, 0.0, remark.bound + remark.block.frobenius() + 1.0, 0.0)
    assert not qr.we_membership(remark, far)


def test_membership_uses_sphere_classes(remark):
    # any representative of a contained class is contained
    rng = np.random.default_rng(2)
    base = Quaternion(0.0, 0.3, 0.0, 0.0)
    for _ in range(5):
        u = Quaternion(*rng.standard_normal(4)).normalized()
        assert qr.we_membership(remark, u.conj() * base * u)


def test_membership_interior_triangle_decomposition(monkeypatch):
    monkeypatch.setattr(essential, "_MEMBERSHIP_DEPTH", 80)
    targets = [Quaternion(0.0, 1.0, 0, 0), Quaternion(-1.0, 0.0, 0, 0),
               Quaternion(1.0, 0.0, 0, 0)]
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.DecayingPeriodicTail(targets, 0.1),
                         [qr.csim(t) for t in targets], bound=1.3)
    assert qr.we_membership(M, Quaternion(0.1, 0.2, 0.0, 0.0))
    assert not qr.we_membership(M, Quaternion(0.9, 0.9, 0.0, 0.0))


# -- the essential-sequence engine against scalar references -------------------------------


def _scalar_conjugator(s: Quaternion, t: Quaternion) -> Quaternion:
    """Unit u with conj(u) s u = t, rotating imaginary directions one pair at a time."""
    bs, bt = s.im_norm(), t.im_norm()
    if bs == 0.0 or bt == 0.0:
        return Quaternion.one
    f, g = s.im / bs, t.im / bt
    d = float(np.dot(f, g))
    if d >= 1.0 - 1e-14:
        return Quaternion.one
    if d <= -1.0 + 1e-14:
        probe = np.zeros(3)
        probe[int(np.argmin(np.abs(f)))] = 1.0
        axis = np.cross(f, probe)
        return Quaternion(0.0, *(axis / np.linalg.norm(axis)))
    axis = np.cross(f, g)
    sn = float(np.linalg.norm(axis))
    half = 0.5 * math.atan2(sn, d)
    return Quaternion(math.cos(half), *(-math.sin(half) * axis / sn))


def _reference_pick(M, target, eps, cursor, forbidden=frozenset()):
    """The tail scan entry by entry: (index, coordinate, u, value, error)."""
    sphere = qr.csim(target)
    window = max(2048, 2 * (cursor + 1))
    while True:
        window = min(window, qr.TailBasisSequence.MAX_SCAN)
        pref = M.tail.prefix(window)
        pts = qr.bild_points(pref)
        d = np.hypot(pts[:, 0] - sphere.a, pts[:, 1] - sphere.b)
        for n0 in np.flatnonzero(d[cursor:] <= eps) + cursor:
            coord = M.block_size + int(n0)
            if coord in forbidden:
                continue
            s = Quaternion.from_array(pref[n0])
            u = _scalar_conjugator(s, target)
            value = u.conj() * s * u
            err = abs(value - target)
            if err <= eps * (1.0 + 1e-9) + 1e-15:
                return int(n0) + 1, coord, u, value, err
        if window == qr.TailBasisSequence.MAX_SCAN:
            raise qr.MissingSequenceError("reference scan exhausted")
        window *= 8


def test_pick_matches_scalar_reference_scan():
    cases = []
    for seed in (0, 5, 11):  # block_size 2, one to three limit classes
        M = seeded_model_operator(seed)
        assert M.block_size == 2
        for part in M.limit_set:
            cases.append((M, Quaternion(part.a, part.b, 0.0, 0.0)))
            # the reflected class representative: antipodal rotations
            cases.append((M, Quaternion(part.a, 0.0, -part.b, 0.0)))
    remark = qr.remark_operator()
    cases += [(remark, Quaternion(0.0, 0.25, 0.0, 0.0)),
              (remark, Quaternion(0.0, 0.0, -0.3, 0.1))]
    for M, target in cases:
        forbidden = frozenset(M.block_size + k for k in range(0, 400, 2))
        seq = qr.TailBasisSequence(M, target)
        # eps = 1/p with the cursor advancing, then a jump past the first
        # scan and one more step from there
        steps = [(1.0 / p, None) for p in range(1, 40)] + [(1 / 60, 3000), (1 / 60, None)]
        cursor = 0
        for eps, jump in steps:
            cursor = cursor if jump is None else jump
            got = seq.pick(eps, cursor, forbidden)
            want = _reference_pick(M, target, eps, cursor, forbidden)
            index, vec, value, err = got
            assert index == want[0]
            assert vec.index.tolist() == [want[1]]
            assert want[1] not in forbidden
            assert np.max(np.abs(vec.coeffs[0] - want[2].to_array())) <= 1e-15
            assert abs(value - want[3]) <= 1e-15 * (1.0 + abs(target))
            assert abs(err - want[4]) <= 1e-15 * (1.0 + abs(target))
            cursor = index
    # far hits: 49/100 is the first fraction within 1e-4 of 0.49, past the first
    # scan
    seq = qr.TailBasisSequence(remark, Quaternion(0.0, 0.0, 0.0, -0.49))
    got = seq.pick(1e-4, 0)
    want = _reference_pick(remark, Quaternion(0.0, 0.0, 0.0, -0.49), 1e-4, 0)
    assert got[0] == want[0] > 2048  # the first scan size
    assert np.max(np.abs(got[1].coeffs[0] - want[2].to_array())) <= 1e-15
    assert abs(got[2] - want[3]) <= 1e-15 and abs(got[3] - want[4]) <= 1e-15


def test_pick_raises_when_nothing_qualifies_before_the_cap(monkeypatch):
    class WatchedTail(qr.DecayingPeriodicTail):
        largest = 0

        def _generate(self, count):
            WatchedTail.largest = max(WatchedTail.largest, count)
            return super()._generate(count)

    monkeypatch.setattr(qr.TailBasisSequence, "MAX_SCAN", 5000)
    target = Quaternion(0.2, 0.5, 0.0, 0.0)
    M = qr.ModelOperator(qr.QMatrix.zeros(1), WatchedTail([target], amplitude=0.1),
                         [qr.csim(target)], bound=1.0)
    seq = qr.TailBasisSequence(M, target)
    # every class up to index 5000 is at least 4e-10 from the target's
    with pytest.raises(qr.MissingSequenceError):
        seq.pick(1e-12, 0)
    with pytest.raises(qr.MissingSequenceError):
        seq.pick(1.0, 5000)
    assert WatchedTail.largest == 5000
    assert seq.pick(1.0, 0)[0] == 1


def test_chain_rejects_a_negative_cursor():
    # a negative cursor would index the distance array from its end, so the
    # answer would depend on how far earlier calls had grown the scan
    target = Quaternion(0.0, 0.25, 0.0, 0.0)
    seq = qr.TailBasisSequence(qr.remark_operator(), target)
    for _ in range(2):
        with pytest.raises(ValueError, match="cursor"):
            seq.pick(0.01, -3)
    with pytest.raises(ValueError, match="cursor"):
        seq.chain([0.5, 0.5], cursor=-1)
    assert seq.pick(0.01, 0)[0] > 0
    run = qr.convex_combination_sequence(qr.remark_operator(), target, target, 1.0, 5)
    with pytest.raises(ValueError, match="cursor"):
        run.chain([1.0], cursor=-1)
    assert run.chain([1.0], cursor=4).cursor == 5


def _count_rotations(monkeypatch):
    rotated = []
    kernel = essential.qconjugator

    def counting(source, target):
        rotated.append(np.array(source))
        return kernel(source, target)

    monkeypatch.setattr(essential, "qconjugator", counting)
    return rotated


def test_pick_rotates_only_the_entry_it_returns(monkeypatch):
    rotated = _count_rotations(monkeypatch)
    target = Quaternion(0.0, 0.25, 0.0, 0.0)
    M = qr.remark_operator()
    seq = qr.TailBasisSequence(M, target)
    # the scan from cursor 20000 needs only distances; one entry is rotated
    index, vec, value, err = seq.pick(1e-3, 20000)
    assert index > 20000
    assert len(rotated) == 1 and rotated[0].shape == (1, 4)
    assert np.array_equal(rotated[0][0], M.tail.prefix(index)[index - 1])
    assert abs(err - abs(value - target)) <= 1e-15 and err <= 1e-3


def test_chain_rotates_exactly_its_picks_in_one_call(monkeypatch):
    rotated = _count_rotations(monkeypatch)
    target = Quaternion(0.0, 0.25, 0.0, 0.0)
    M = qr.remark_operator()
    seq = qr.TailBasisSequence(M, target)
    eps = [1e-3] * 40
    picks = seq.chain(eps, cursor=20000)
    hits = picks.index[:, 0] - M.block_size
    assert hits[-1] - hits[0] > 2 * 2048
    assert len(rotated) == 1 and rotated[0].shape == (len(eps), 4)
    assert np.array_equal(rotated[0], M.tail.prefix(picks.cursor)[hits])
    # the same picks as one step at a time
    single = qr.TailBasisSequence(M, target)
    cursor = 20000
    for hit, err in zip(hits.tolist(), picks.errors.tolist()):
        cursor, vec, value, got = single.pick(1e-3, cursor)
        assert cursor == hit + 1 and got == err


def test_chain_raises_when_a_rotated_pick_misses_the_target(monkeypatch):
    # u = 1 leaves an antipodal symbol at distance 2b from the target, though
    # its class matches; the pick is reported instead of skipped
    monkeypatch.setattr(essential, "qconjugator",
                        lambda source, target: np.tile([1.0, 0.0, 0.0, 0.0],
                                                       (len(source), 1)))
    M = qr.remark_operator()
    # s_2 = -i/3 is the first entry in the class of i/3
    target = M.tail.value(2).conj()
    seq = qr.TailBasisSequence(M, target)
    with pytest.raises(qr.NumericalError, match="tail entry 2 "):
        seq.pick(1e-6, 0)


def test_chain_scan_grows_geometrically(monkeypatch):
    calls = []
    kernel = essential.bild_points

    def counting(values):
        calls.append(len(values))
        return kernel(values)

    monkeypatch.setattr(essential, "bild_points", counting)
    seq = qr.TailBasisSequence(qr.remark_operator(), Quaternion(0.0, 0.25, 0.0, 0.0))
    picks = seq.chain([1e-3] * 1000, cursor=20000)
    assert picks.cursor > 20000 + 1000
    assert len(calls) <= 5


def test_chain_raises_at_the_cap_without_reading_past_it(monkeypatch):
    class WatchedTail(qr.DecayingPeriodicTail):
        largest = 0

        def _generate(self, count):
            WatchedTail.largest = max(WatchedTail.largest, count)
            return super()._generate(count)

    monkeypatch.setattr(qr.TailBasisSequence, "MAX_SCAN", 5000)
    target = Quaternion(0.2, 0.5, 0.0, 0.0)
    M = qr.ModelOperator(qr.QMatrix.zeros(1), WatchedTail([target], amplitude=0.1),
                         [qr.csim(target)], bound=1.0)
    seq = qr.TailBasisSequence(M, target)
    # the first steps qualify; no class up to index 5000 is within 1e-12
    with pytest.raises(qr.MissingSequenceError):
        seq.chain([1.0, 0.5, 1e-12, 1.0])
    assert WatchedTail.largest == 5000
    assert seq.chain([1.0, 0.5]).index[:, 0].tolist() == [1, 2]



class _SpanSearch:
    """The span search TailBasisSequence used before its entry-by-entry walk.

    The class distances sit in one numpy array, grown 8-fold (to 2048
    entries at first) up to MAX_SCAN; a step compares 256-entry spans of it
    and takes the first allowed entry at or past the cursor.
    """

    SPAN = 256

    def __init__(self, M, target):
        self.M = M
        self._sphere = qr.csim(target)
        self._dist = np.zeros(0)

    def _next(self, cursor, eps, m0, forbidden):
        n = cursor
        while True:
            done = self._dist.size
            for lo in range(n, done, self.SPAN):
                for k in (self._dist[lo:lo + self.SPAN] <= eps).nonzero()[0].tolist():
                    if m0 + lo + k not in forbidden:
                        return lo + k
            if done == qr.TailBasisSequence.MAX_SCAN:
                raise qr.MissingSequenceError("span search exhausted")
            size = min(max(8 * done, 2048), qr.TailBasisSequence.MAX_SCAN)
            pts = qr.bild_points(self.M.tail.prefix(size)[done:])
            dist = np.hypot(pts[:, 0] - self._sphere.a, pts[:, 1] - self._sphere.b)
            self._dist = np.concatenate((self._dist, dist))
            n = max(n, done)

    def hits(self, eps, cursor=0, forbidden=None):
        """The picked tail indices n0 of each step, and the final cursor."""
        hits = []
        for p, e in enumerate(eps):
            hits.append(self._next(cursor, e, self.M.block_size,
                                   () if forbidden is None else forbidden[p]))
            cursor = hits[-1] + 1
        return hits, cursor


def _assert_span_search_picks(M, target, eps, cursor=0, forbidden=None):
    """chain's picks against the span search; returns them."""
    picks = qr.TailBasisSequence(M, target).chain(eps, cursor, forbidden)
    hits, end = _SpanSearch(M, target).hits(eps, cursor, forbidden)
    assert (picks.index[:, 0] - M.block_size).tolist() == hits and picks.cursor == end
    s = M.tail.prefix(end)[hits]
    u = qconjugator(s, target.to_array())
    assert np.array_equal(picks.coeffs[:, 0], u)
    assert np.array_equal(picks.values, qmul(qmul(qconj(u), s), u))
    return picks


def test_chain_matches_the_span_search_on_the_convexity_operators():
    # both ingredient chains of every criterion 4 run, the second avoiding
    # the first's coordinates
    eps = [1.0 / p for p in range(1, 201)]
    for seed in range(20):
        M = seeded_model_operator(seed)
        poly = qr.essential_bild(M)
        om1 = Quaternion(float(poly[0][0]), float(poly[0][1]), 0.0, 0.0)
        om2 = Quaternion(float(poly[-1][0]), float(poly[-1][1]), 0.0, 0.0)
        x = _assert_span_search_picks(M, om1, eps)
        _assert_span_search_picks(M, om2, eps, forbidden=x.index.tolist())


def _inverse_operator():
    """Tail i/n: class distance 1/n to the origin, strictly decreasing."""
    return qr.ModelOperator(qr.QMatrix.zeros(1), InverseTail(),
                            [qr.SimilaritySphere(0.0, 0.0)], bound=1.0)


def _between(M, n0):
    """A tolerance that the tail entries n0, n0 + 1, ... meet and n0 - 1 does not."""
    d = qr.bild_points(M.tail.prefix(n0 + 1))[:, 1]
    return 0.5 * (d[n0 - 1] + d[n0])


def test_chain_from_a_cursor_several_windows_past_the_scan():
    # a fresh sequence grows once, to 2 (150 000 + 1) entries, before it
    # reads the cursor's entry
    M, target = qr.remark_operator(), Quaternion(0.0, 0.25, 0.0, 0.0)
    picks = _assert_span_search_picks(M, target, [1e-3] * 3, cursor=150_000)
    assert picks.index[0, 0] - M.block_size >= 150_000
    cursor = 150_000
    for hit in (picks.index[:, 0] - M.block_size).tolist():
        cursor = _reference_pick(M, target, 1e-3, cursor)[0]
        assert cursor == hit + 1


def test_chain_picks_the_last_entry_before_the_cap(monkeypatch):
    monkeypatch.setattr(qr.TailBasisSequence, "MAX_SCAN", 5000)
    M, target = _inverse_operator(), Quaternion(0.0)
    eps = _between(M, 4999)
    picks = _assert_span_search_picks(M, target, [eps])
    assert picks.index[:, 0].tolist() == [M.block_size + 4999] and picks.cursor == 5000
    assert _reference_pick(M, target, eps, 0)[0] == 5000
    with pytest.raises(qr.MissingSequenceError):
        qr.TailBasisSequence(M, target).chain([eps, eps])


def test_chain_skips_a_forbidden_lone_candidate_into_the_next_window():
    # entry 2047 is the only one of the first 2048 within eps, and it is
    # forbidden, so the pick is the first entry of the grown scan
    M, target = _inverse_operator(), Quaternion(0.0)
    eps = _between(M, 2047)
    forbidden = [{M.block_size + 2047}]
    picks = _assert_span_search_picks(M, target, [eps], forbidden=forbidden)
    assert picks.index[:, 0].tolist() == [M.block_size + 2048]
    assert _reference_pick(M, target, eps, 0, forbidden[0])[0] == 2049
    assert _assert_span_search_picks(M, target, [eps]).index[0, 0] == M.block_size + 2047


@pytest.mark.parametrize("bad", [float("nan"), -0.5])
def test_chain_rejects_a_bad_tolerance_before_any_scan(monkeypatch, bad):
    scans = []
    monkeypatch.setattr(essential, "bild_points", lambda values: scans.append(values))
    M = qr.remark_operator()
    seq = qr.TailBasisSequence(M, Quaternion(0.0, 0.25, 0.0, 0.0))
    with pytest.raises(ValueError, match="eps"):
        seq.pick(bad, 0)
    with pytest.raises(ValueError, match="eps"):
        seq.chain([0.5, bad, 0.5])
    assert scans == []
    run = qr.CombinationResult(target=Quaternion.one, alpha=1.0, beta=0.0,
                               index=np.zeros((1, 1), dtype=np.intp),
                               coeffs=np.zeros((1, 1, 4)), values=np.zeros((1, 4)),
                               errors=np.zeros(1), triples=np.zeros((0, 3)),
                               error_constant=3.0)
    with pytest.raises(ValueError, match="eps"):
        run.chain([bad])


def test_chain_rejects_forbidden_rows_that_do_not_match_eps(monkeypatch):
    scans = []
    monkeypatch.setattr(essential, "bild_points", lambda values: scans.append(values))
    seq = qr.TailBasisSequence(qr.remark_operator(), Quaternion(0.0, 0.25, 0.0, 0.0))
    for rows in ([], [[2]], [[2], [3], [4]]):
        with pytest.raises(ValueError, match="forbidden"):
            seq.chain([0.5, 0.5], forbidden=rows)
    assert scans == []

def _mixed_support_operator():
    rng = np.random.default_rng(44)
    block = qr.QMatrix(rng.standard_normal((3, 3, 4)))
    targets = [Quaternion(0.2, 0.5, 0.0, 0.0), Quaternion(-0.4, 0.1, 0.0, 0.0)]
    return qr.ModelOperator(block, qr.DecayingPeriodicTail(targets, amplitude=0.1),
                            [qr.csim(t) for t in targets], bound=1.0)


def test_sparse_vectors_match_dense_evaluation():
    M = _mixed_support_operator()
    rng = np.random.default_rng(45)
    # block coordinates 0..2 meet off-diagonal block entries; 5, 9 and 12 are tail
    x = qr.SparseVec([0, 2, 5, 9], rng.standard_normal((4, 4)))
    y = qr.SparseVec([1, 2, 7, 9, 12], rng.standard_normal((5, 4)))
    T = qr.truncate(M, 12)
    X, Y = x.to_qvector(T.n), y.to_qvector(T.n)
    tol = 1e-12
    assert abs(x.inner(y) - X.inner(Y)) <= tol
    assert abs(x.quad_value(M) - T.apply(X).inner(X)) <= tol
    assert abs(y.quad_value(M) - T.apply(Y).inner(Y)) <= tol
    assert abs(x.op_inner(M, y) - T.apply(X).inner(Y)) <= tol
    assert abs(x.op_inner(M, y, adjoint=True) - T.adjoint().apply(X).inner(Y)) <= tol
    assert abs(y.op_inner(M, x, adjoint=True) - T.adjoint().apply(Y).inner(X)) <= tol
    z = x.scaled(0.6).add(y.scaled(-0.8))
    assert z.index.tolist() == [0, 1, 2, 5, 7, 9, 12]
    assert np.max(np.abs(z.to_qvector(T.n).arr - (0.6 * X.arr - 0.8 * Y.arr))) <= tol
    assert z.norm() == pytest.approx((0.6 * X + (-0.8) * Y).norm(), abs=tol)
    assert [i for i, _ in z.entries] == z.index.tolist()
    assert all(q.isclose(Quaternion.from_array(c), 0.0) for (_, q), c in zip(z.entries, z.coeffs))
    assert z.support == frozenset(z.index.tolist())
    with pytest.raises(ValueError):
        z.coeffs[0, 0] = 1.0


@pytest.mark.parametrize("empty_block", [False, True])
def test_pair_combination_matches_the_per_vector_evaluator(empty_block):
    # supports meeting block entries and the tail diagonal, padded to one width
    M = _mixed_support_operator()
    if empty_block:
        M = qr.ModelOperator(qr.QMatrix.zeros(0), M.tail, M.limit_set, M.bound)
    rng = np.random.default_rng(46)
    xs = [[0, 5], [2, 9], [1, -1], [3, -1]]
    ys = [[1, 2, 7], [0, 12, -1], [4, 6, 8], [4, -1, -1]]

    def picks(rows):
        index = np.array(rows, dtype=np.intp)
        coeffs = rng.standard_normal(index.shape + (4,)) * (index >= 0)[..., None]
        return essential._Picks(cursor=0, index=index, coeffs=coeffs,
                                values=np.zeros((len(rows), 4)), errors=np.zeros(len(rows)))

    x, y = picks(xs), picks(ys)
    alpha, beta = 0.6, 0.8
    plan = essential._pair_plan(M, x, y)
    triples, index = plan.triples, plan.index
    coeffs, values = essential._pair_step(plan, alpha, beta)
    for p in range(len(xs)):
        keep_x, keep_y = x.index[p] >= 0, y.index[p] >= 0
        xv = qr.SparseVec(x.index[p][keep_x], x.coeffs[p][keep_x])
        yv = qr.SparseVec(y.index[p][keep_y], y.coeffs[p][keep_y])
        want = (abs(xv.inner(yv)), abs(xv.op_inner(M, yv)),
                abs(xv.op_inner(M, yv, adjoint=True)))
        assert np.max(np.abs(triples[p] - want)) <= 1e-12
        z = xv.scaled(alpha).add(yv.scaled(beta))
        z = z.scaled(1.0 / z.norm())
        width = z.index.size
        assert index[p, :width].tolist() == z.index.tolist()
        assert np.all(index[p, width:] == -1) and np.all(coeffs[p, width:] == 0.0)
        assert np.max(np.abs(coeffs[p, :width] - z.coeffs)) <= 1e-12
        assert abs(Quaternion.from_array(values[p]) - z.quad_value(M)) <= 1e-12


def test_model_entries_lookup():
    M = _mixed_support_operator()
    rows, cols = [1, 2, 5, 9], [0, 2, 9, 11]
    i, j, values = M.entries(rows, cols)
    dense = np.zeros((4, 4, 4))
    dense[i, j] = values
    T = qr.truncate(M, 10)
    assert np.array_equal(dense, T.arr[np.ix_(rows, cols)])
    assert M.entries([4], [5])[0].size == 0


# -- the combination engine against the per-step loop ---------------------------------------


def _run_step(index, coeffs):
    """One padded step of a combination run as a SparseVec."""
    keep = index >= 0
    return qr.SparseVec(index[keep], coeffs[keep])


def _reference_result_pick(result, eps, cursor, forbidden=frozenset()):
    """A finished run as an essential sequence, one step at a time."""
    for p in range(cursor, len(result.errors)):
        vec = _run_step(result.index[p], result.coeffs[p])
        if result.errors[p] <= eps and not (vec.support & forbidden):
            return p + 1, vec, Quaternion.from_array(result.values[p]), result.errors[p]
    raise qr.MissingSequenceError("reference run exhausted")


def test_result_sequence_chain_matches_the_reference_pick():
    errors = np.array([0.9, 0.2, 0.6, 0.1, 0.05, 0.3, 0.01])
    # step 1 has a one-coordinate support, padded with -1 to the run's width
    index = np.array([[2 * p, 2 * p + 1] for p in range(7)], dtype=np.intp)
    index[1, 1] = -1
    coeffs = np.full((7, 2, 4), 0.5) * (index >= 0)[..., None]
    values = np.outer(errors, [1.0, 0.0, 0.0, 0.0])
    run = qr.CombinationResult(target=Quaternion.one, alpha=0.6, beta=0.8,
                               index=index, coeffs=coeffs, values=values,
                               errors=errors, triples=np.zeros((0, 3)), error_constant=3.0)
    eps = [0.5, 0.5, 0.4]
    # a forbidden -1 never matches the padding
    forbidden = [frozenset({-1}), frozenset({7}), frozenset({10, 11})]
    picks = run.chain(eps, forbidden=forbidden)
    cursor = 0
    for p, (e, avoid) in enumerate(zip(eps, forbidden)):
        cursor, vec, value, err = _reference_result_pick(run, e, cursor, avoid)
        keep = picks.index[p] >= 0
        assert picks.index[p][keep].tolist() == vec.index.tolist()
        assert np.array_equal(picks.coeffs[p][keep], vec.coeffs)
        assert np.all(picks.coeffs[p][~keep] == 0.0)
        assert picks.values[p].tolist() == list(value.to_array()) and picks.errors[p] == err
    assert picks.index[:, 0].tolist() == [2, 8, 12] and picks.cursor == cursor == 7
    with pytest.raises(qr.MissingSequenceError):
        run.chain([0.5, 0.5, 0.5, 0.001])


def _reference_combine(M, pick1, pick2, om1, om2, alpha, depth):
    """The per-step combination loop on the per-vector SparseVec evaluator.

    ``pick1`` and ``pick2`` take (eps, cursor[, forbidden]) and return
    (cursor, vector, value, error), like TailBasisSequence.pick.
    """
    beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    target = om1 * (alpha * alpha) + om2 * (beta * beta)
    vectors, values, errors, triples = [], [], [], []
    c1 = c2 = 0
    for p in range(1, depth + 1):
        eps = 1.0 / p
        if beta == 0.0:
            c1, vec, value, _ = pick1(eps, c1)
        elif alpha == 0.0:
            c2, vec, value, _ = pick2(eps, c2)
        else:
            c1, x, _, _ = pick1(eps, c1)
            c2, y, _, _ = pick2(eps, c2, forbidden=x.support)
            triples.append((abs(x.inner(y)),
                            abs(x.op_inner(M, y)),
                            abs(x.op_inner(M, y, adjoint=True))))
            z = x.scaled(alpha).add(y.scaled(beta))
            vec = z.scaled(1.0 / z.norm())
            value = vec.quad_value(M)
        vectors.append(vec)
        values.append(value)
        errors.append(abs(value - target))
    return vectors, values, errors, triples


def _assert_same_run(run, ref):
    vectors, values, errors, triples = ref
    assert run.index.shape[0] == len(vectors)
    for index, coeffs, want in zip(run.index, run.coeffs, vectors):
        got = _run_step(index, coeffs)
        assert got.index.tolist() == want.index.tolist()
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12
    assert np.all(run.coeffs[run.index < 0] == 0.0)
    assert all(abs(Quaternion.from_array(a) - b) <= 1e-12 for a, b in zip(run.values, values))
    assert np.max(np.abs(np.subtract(run.errors, errors))) <= 1e-12
    assert run.triples.shape == (len(triples), 3)
    if triples:
        assert np.max(np.abs(np.subtract(run.triples, triples))) <= 1e-15


def _reference_run(M, om1, om2, alpha, depth):
    return _reference_combine(M, qr.TailBasisSequence(M, om1).pick,
                              qr.TailBasisSequence(M, om2).pick, om1, om2, alpha, depth)


def test_combination_matches_the_step_loop_on_seeded_operators():
    ratios, reference_ratios = [], []
    for seed in range(20):
        M = seeded_model_operator(seed)
        poly = qr.essential_bild(M)
        om1 = Quaternion(float(poly[0][0]), float(poly[0][1]), 0.0, 0.0)
        om2 = Quaternion(float(poly[-1][0]), float(poly[-1][1]), 0.0, 0.0)
        budget = 5.0 * (2.0 + M.opnorm_bound()) / 200.0
        for a2 in (0.0, 0.3, 0.5, 1.0):
            alpha = math.sqrt(a2)
            run = qr.convex_combination_sequence(M, om1, om2, alpha, 200)
            ref = _reference_run(M, om1, om2, alpha, 200)
            _assert_same_run(run, ref)
            ratios.append(run.errors[-1] / budget)
            reference_ratios.append(ref[2][-1] / budget)
    # criterion 4's worst error/budget ratio, to 12 digits
    assert max(ratios) == pytest.approx(max(reference_ratios), rel=1e-12)


def test_combination_matches_the_step_loop_on_named_cases(remark):
    q = Quaternion(0.5, 0.0, 0.75, 0.0)
    constant = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(q), [qr.csim(q)],
                                bound=1.0)
    cases = [(remark, Quaternion(0, 0.5, 0, 0), Quaternion(0, -0.5, 0, 0),
              math.sqrt(0.5), 200),
             (constant, q, q, math.sqrt(0.5), 50)]
    for M, om1, om2, alpha, depth in cases:
        run = qr.convex_combination_sequence(M, om1, om2, alpha, depth)
        _assert_same_run(run, _reference_run(M, om1, om2, alpha, depth))


def test_three_vertex_membership_combination_matches_the_step_loop():
    # the decomposition we_membership builds in
    # test_membership_interior_triangle_decomposition
    targets = [Quaternion(0.0, 1.0, 0, 0), Quaternion(-1.0, 0.0, 0, 0),
               Quaternion(1.0, 0.0, 0, 0)]
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.DecayingPeriodicTail(targets, 0.1),
                         [qr.csim(t) for t in targets], bound=1.3)
    pt = np.array(qr.csim(Quaternion(0.1, 0.2, 0.0, 0.0)).point())
    parts = [(Quaternion(float(v[0]), float(v[1]), 0.0, 0.0), lam)
             for v, lam in essential._decompose(qr.essential_bild(M), pt) if lam > 1e-12]
    assert len(parts) == 3
    (v1, l1), (v2, l2), (v3, l3) = parts
    stage1 = qr.convex_combination_sequence(M, v1, v2, math.sqrt(l1 / (l1 + l2)), 80)
    _assert_same_run(stage1, _reference_run(M, v1, v2, math.sqrt(l1 / (l1 + l2)), 80))
    alpha = math.sqrt(l1 + l2)
    run = essential._Sweep(80).run(M, stage1, qr.TailBasisSequence(M, v3), alpha)
    ref = _reference_combine(M, lambda eps, c, forbidden=frozenset():
                             _reference_result_pick(stage1, eps, c, forbidden),
                             qr.TailBasisSequence(M, v3).pick, stage1.target, v3, alpha, 80)
    _assert_same_run(run, ref)
    assert run.index.shape == (80, 3) and np.all(run.index >= 0)


# -- sweeps over alpha share their alpha-independent work ---------------------------------


_RUN_ARRAYS = ("index", "coeffs", "values", "errors", "triples")


def _assert_identical_runs(run, cold):
    for name in _RUN_ARRAYS:
        a, b = getattr(run, name), getattr(cold, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (run.target, run.alpha, run.beta, run.error_constant) == \
        (cold.target, cold.alpha, cold.beta, cold.error_constant)


def _cold_run(M, om1, om2, alpha, depth):
    """A call that finds no kept sweep."""
    M._sweep = None
    return qr.convex_combination_sequence(M, om1, om2, alpha, depth)


def _criterion4_endpoints(M):
    poly = qr.essential_bild(M)
    return (Quaternion(float(poly[0][0]), float(poly[0][1]), 0.0, 0.0),
            Quaternion(float(poly[-1][0]), float(poly[-1][1]), 0.0, 0.0))


_ALPHAS = [math.sqrt(a2) for a2 in np.linspace(0.0, 1.0, 11)]


def test_reused_sweep_matches_cold_calls_on_the_convexity_operators():
    for seed in range(20):
        M = seeded_model_operator(seed)
        om1, om2 = _criterion4_endpoints(M)
        sweep = [qr.convex_combination_sequence(M, om1, om2, a, 200) for a in _ALPHAS]
        for alpha, run in zip(_ALPHAS, sweep):
            _assert_identical_runs(run, _cold_run(M, om1, om2, alpha, 200))


def test_reused_sweep_keys_on_endpoints_depth_and_operator():
    M = seeded_model_operator(0)
    om1, om2 = _criterion4_endpoints(M)
    # -0.0 and 0.0 are one number but two keys
    signed = Quaternion(om1.w, om1.x, -0.0, 0.0)
    # the same targets on another tail and block: other coordinates and picks
    other = qr.ModelOperator(qr.QMatrix(np.ones((1, 1, 4))),
                             qr.DecayingPeriodicTail([om2, om1], amplitude=0.2),
                             M.limit_set, bound=M.bound + 0.1)
    calls = [(M, om1, om2, 0.6, 200), (M, om2, om1, 0.6, 200), (M, om1, om2, 0.8, 200),
             (M, om1, om2, 0.8, 150), (M, om1, om2, 0.6, 200), (M, om2, om1, 0.0, 200),
             (M, om1, om2, 1.0, 150), (M, signed, om2, 0.6, 200), (M, om1, om2, 0.6, 200),
             (other, om1, om2, 0.6, 200), (other, om1, om2, 1.0, 200),
             (M, om1, om2, 1.0, 200), (other, om1, om2, 0.0, 200)]
    runs = [qr.convex_combination_sequence(*call) for call in calls]
    for call, run in zip(calls, runs):
        _assert_identical_runs(run, _cold_run(*call))
    assert not np.array_equal(runs[0].index, runs[9].index)


def test_reused_sweep_after_its_operator_is_gone():
    M = seeded_model_operator(3)
    om1, om2 = _criterion4_endpoints(M)
    qr.convex_combination_sequence(M, om1, om2, 0.6, 200)
    gone = weakref.ref(M)
    del M
    # the sweep holds no reference back, so M goes with its last name
    assert gone() is None
    # a new operator with the same targets on another block and tail
    other = qr.ModelOperator(qr.QMatrix.zeros(0),
                             qr.DecayingPeriodicTail([om2, om1], amplitude=0.3),
                             [qr.csim(om1), qr.csim(om2)], bound=2.0)
    for alpha in (0.6, 0.0, 1.0):
        run = qr.convex_combination_sequence(other, om1, om2, alpha, 200)
        _assert_identical_runs(run, _cold_run(other, om1, om2, alpha, 200))


@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
def test_writes_to_a_returned_run_do_not_reach_the_next(alpha):
    M = seeded_model_operator(0)
    om1, om2 = _criterion4_endpoints(M)
    cold = copy.deepcopy(_cold_run(M, om1, om2, alpha, 200))
    for _ in range(2):
        run = qr.convex_combination_sequence(M, om1, om2, alpha, 200)
        _assert_identical_runs(run, cold)
        for name in _RUN_ARRAYS:
            getattr(run, name)[...] = 7


def test_sweep_walks_each_chain_once(monkeypatch):
    counts = {"chain": 0, "plan": 0}
    chain, plan = qr.TailBasisSequence.chain, essential._pair_plan

    def counted_chain(self, *args, **kwargs):
        counts["chain"] += 1
        return chain(self, *args, **kwargs)

    def counted_plan(*args):
        counts["plan"] += 1
        return plan(*args)

    monkeypatch.setattr(qr.TailBasisSequence, "chain", counted_chain)
    monkeypatch.setattr(essential, "_pair_plan", counted_plan)
    M = seeded_model_operator(0)
    om1, om2 = _criterion4_endpoints(M)
    for alpha in _ALPHAS:
        qr.convex_combination_sequence(M, om1, om2, alpha, 200)
    assert counts == {"chain": 3, "plan": 1}
    # endpoints are compared by their bytes, so a zero of the other sign
    # starts a new sweep
    qr.convex_combination_sequence(M, Quaternion(om1.w, om1.x, -0.0, 0.0), om2, 1.0, 200)
    assert counts == {"chain": 4, "plan": 1}


def test_sweep_caches_no_error(monkeypatch, remark):
    top, bottom = Quaternion(0, 0.5, 0, 0), Quaternion(0, -0.5, 0, 0)
    qr.convex_combination_sequence(remark, top, bottom, 0.5, 40)
    for _ in range(2):
        with pytest.raises(qr.MissingSequenceError):
            qr.convex_combination_sequence(remark, Quaternion(3.0), bottom, 0.5, 40)
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                qr.convex_combination_sequence(remark, top, bottom, bad, 40)
        with pytest.raises(ValueError, match="depth"):
            qr.convex_combination_sequence(remark, top, bottom, 0.5, 0)
    # a chain that runs past the cap raises on every call of a new sweep,
    # and the sweep recovers once the cap is lifted
    monkeypatch.setattr(qr.TailBasisSequence, "MAX_SCAN", 30)
    for alpha in (1.0, 0.5, 1.0, 0.0):
        with pytest.raises(qr.MissingSequenceError):
            qr.convex_combination_sequence(remark, top, bottom, alpha, 41)
    monkeypatch.undo()
    run = qr.convex_combination_sequence(remark, top, bottom, 0.5, 41)
    _assert_identical_runs(run, _cold_run(remark, top, bottom, 0.5, 41))


def test_alternating_sweeps_over_two_operators_keep_their_own_work(monkeypatch):
    operators = [seeded_model_operator(0), seeded_model_operator(1)]
    counts = {id(M): {"chain": 0, "plan": 0} for M in operators}
    chain, plan = qr.TailBasisSequence.chain, essential._pair_plan

    def counted_chain(self, *args, **kwargs):
        counts[id(self.M)]["chain"] += 1
        return chain(self, *args, **kwargs)

    def counted_plan(M, *args):
        counts[id(M)]["plan"] += 1
        return plan(M, *args)

    monkeypatch.setattr(qr.TailBasisSequence, "chain", counted_chain)
    monkeypatch.setattr(essential, "_pair_plan", counted_plan)
    endpoints = [_criterion4_endpoints(M) for M in operators]
    runs = [[qr.convex_combination_sequence(M, *ends, alpha, 200)
             for M, ends in zip(operators, endpoints)] for alpha in _ALPHAS]
    assert list(counts.values()) == [{"chain": 3, "plan": 1}] * 2
    monkeypatch.undo()
    for alpha, pair in zip(_ALPHAS, runs):
        for M, ends, run in zip(operators, endpoints, pair):
            _assert_identical_runs(run, _cold_run(M, *ends, alpha, 200))


def test_chain_scan_follows_the_walk(monkeypatch):
    scanned = []
    kernel = essential.bild_points

    def counting(values):
        scanned.append(len(values))
        return kernel(values)

    monkeypatch.setattr(essential, "bild_points", counting)
    seq = qr.TailBasisSequence(qr.remark_operator(), Quaternion(0.0, 0.25, 0.0, 0.0))
    picks = seq.chain([1e-3] * 1000, cursor=20000)
    # each growth reaches twice the entry the walk needs, never more
    assert sum(scanned) <= 2 * picks.cursor
    assert sum(scanned) == 320_030 and len(scanned) == 4


def test_import_loads_no_array_extension():
    code = "import sys, quatrange; print('array' in sys.modules)"
    src = str(Path(qr.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
