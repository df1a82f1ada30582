"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and exposes its computed numbers as a canonical JSON blob so the determinism
criterion can re-run everything and compare bytes.

Criterion 5 bounds the Hausdorff gap between the inner hull and the support
polygon.  Both are mirrored across b = 0 first: the bild is closed under
conjugation, and the b >= 0 cut of the outer polygon is not a support
half-plane.  The mirrored gap is the worst support deficiency of the inner
hull over every upward direction.  The reported hausdorff_gap also counts the
under-region between the bild and b = 0, which no support half-plane cuts, so
it is reported but not bounded.  The 1x1 rows are diagonal matrices, whose
regions upper_bild gives in closed form (diagonal_bild).
"""

import json
import math
import time

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion
from quatrange.geometry import hausdorff_convex, signed_inner_distance

from conftest import mirrored, random_qmatrix, seeded_model_operator

pytestmark = pytest.mark.slow

TRAPEZOID = np.array([(-1.0, 1.0), (1.0, 1.0), (1 / 3, 0.0), (-1 / 3, 0.0)])
SEED = 20260808


def canonical(result) -> bytes:
    return json.dumps(result, sort_keys=True).encode()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion computations (pure functions of the seed) ------------------------------


def run_criterion_1():
    poly = qr.essential_bild(qr.remark_operator())
    expected = np.array([(0.0, -0.5), (0.0, 0.5)])
    ok = poly.shape == (2, 2) and bool(np.all(np.abs(poly - expected) <= 1e-12))
    return ok, {"vertices": poly.tolist()}


def run_criterion_2():
    t0 = time.time()
    rep = qr.lancaster_check(qr.remark_operator(), [500], m=200000, k=360,
                             seed=SEED, target=TRAPEZOID)
    runtime = time.time() - t0
    row = rep.final()
    ok = row.hausdorff_target <= 0.02 and runtime <= 60.0
    result = {"hausdorff_target": row.hausdorff_target,
              "hausdorff_outer": row.hausdorff_outer,
              "n_satellites": row.n_satellites}
    return ok, result, runtime


def run_criterion_3():
    M = qr.remark_operator()
    sections = [50, 100, 200, 500]
    open_edge = qr.nonclosedness_probe(M, [(-1 / 3, 0.0), (-1.0, 1.0)], sections,
                                       m=20000, seed=SEED)
    top_edge = qr.nonclosedness_probe(M, [(-1.0, 1.0), (1.0, 1.0)], sections,
                                      m=20000, seed=SEED)
    residuals = [row.residual for row in open_edge.rows]
    top = [row.residual for row in top_edge.rows]
    ok = all(r > 0 for r in residuals)
    ok = ok and all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
    ok = ok and all(r <= 1e-9 for r in top)
    return ok, {"open_edge_residuals": residuals, "top_edge_residuals": top}


def run_criterion_4():
    t0 = time.time()
    failures = []
    worst_ratio = 0.0
    results = []
    for seed in range(20):
        M = seeded_model_operator(seed)
        poly = qr.essential_bild(M)
        om1 = Quaternion(float(poly[0][0]), float(poly[0][1]), 0.0, 0.0)
        om2 = Quaternion(float(poly[-1][0]), float(poly[-1][1]), 0.0, 0.0)
        budget = 5.0 * (2.0 + M.opnorm_bound()) / 200.0
        for a2 in np.linspace(0.0, 1.0, 11):
            run = qr.convex_combination_sequence(M, om1, om2, math.sqrt(a2), 200)
            err = run.errors[-1]
            worst_ratio = max(worst_ratio, err / budget)
            if err > budget:
                failures.append((seed, float(a2), err))
            for p, triple in enumerate(run.triples, start=1):
                if max(triple) > 1.0 / p:
                    failures.append((seed, float(a2), f"triple@{p}"))
            results.append(err)
    runtime = time.time() - t0
    ok = not failures and runtime <= 30.0
    return ok, {"errors": results, "worst_ratio": worst_ratio}, runtime


def run_criterion_5():
    gaps = []
    worst = 0.0
    for seed in range(50):
        n = 1 + seed % 4
        T = random_qmatrix(seed, n)
        region = qr.upper_bild(T, m=200000, k=360, seed=SEED + seed)
        budget = 0.05 * (1.0 + T.frobenius())
        support_polygon_gap = hausdorff_convex(mirrored(region.inner_hull),
                                               mirrored(region.outer_polygon))
        gaps.append({"n": n, "gap": region.hausdorff_gap,
                     "support_polygon_gap": support_polygon_gap,
                     "support_gap": region.support_gap, "budget": budget})
        worst = max(worst, support_polygon_gap / budget)
    ok = all(g["support_polygon_gap"] <= g["budget"] for g in gaps)
    return ok, {"gaps": gaps, "worst_ratio": worst}


def run_criterion_6():
    worst_slack = math.inf
    for seed in range(50):
        n = 1 + seed % 5
        T = random_qmatrix(seed + 1000, n)
        spheres = qr.s_spectrum(T)
        region = qr.upper_bild(T, m=100, k=360, seed=SEED + seed)
        for s in spheres:
            worst_slack = min(worst_slack,
                              signed_inner_distance(region.outer_polygon, s.point()))
    worst_essential = math.inf
    for seed in range(20):
        M = seeded_model_operator(seed)
        poly = qr.essential_bild(M)
        for part in M.limit_set:
            worst_essential = min(worst_essential,
                                  signed_inner_distance(poly, part.point()))
    ok = worst_slack >= -1e-6 and worst_essential >= -1e-12
    return ok, {"worst_matrix_slack": worst_slack,
                "worst_essential_slack": worst_essential}


def run_criterion_7():
    checks = {}

    # (i) compact invariance: the essential bild ignores the block, exactly
    exact_i = True
    for seed in range(20):
        M = seeded_model_operator(seed)
        other = qr.ModelOperator(random_qmatrix(seed + 300, 2, scale=3.0),
                                 M.tail, M.limit_set, M.bound)
        exact_i = exact_i and bool(np.array_equal(qr.essential_bild(M),
                                                  qr.essential_bild(other)))
    checks["compact_invariance"] = exact_i

    # (iii) adjoint symmetry, exact
    exact_iii = all(bool(np.array_equal(qr.essential_bild(seeded_model_operator(s)),
                                        qr.essential_bild(
                                            seeded_model_operator(s).adjoint())))
                    for s in range(20))
    checks["adjoint_symmetry"] = exact_iii

    # (v) real affine maps, exact on vertices
    exact_v = True
    for seed in range(20):
        M = seeded_model_operator(seed)
        poly = qr.essential_bild(M)
        for a, b in [(2.0, -1.0), (-0.5, 0.25)]:
            got = qr.essential_bild(M.affine(a, b))
            want = qr.convex_hull(np.stack([a * poly[:, 0] + b, a * poly[:, 1]],
                                           axis=1))
            exact_v = exact_v and bool(np.array_equal(got, want))
    checks["real_affine"] = exact_v

    # (viii) infinite-multiplicity eigenvalues, exact
    exact_viii = True
    for seed in range(10):
        q = Quaternion(*(np.random.default_rng(seed).standard_normal(4)))
        M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(q), [qr.csim(q)],
                             bound=abs(q) + 0.1)
        exact_viii = exact_viii and signed_inner_distance(
            qr.essential_bild(M), qr.csim(q).point()) >= 0.0
    checks["infinite_multiplicity"] = exact_viii

    # polarization identity residual on 1000 seeded triples
    worst_pol = 0.0
    for seed in range(1000):
        n = 1 + seed % 4
        T = random_qmatrix(seed, n)
        if T.frobenius() > 10.0:
            T = T * (10.0 / T.frobenius())
        rngx = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(21,)))
        x = qr.QVector(rngx.standard_normal((n, 4))).normalized()
        y = qr.QVector(rngx.standard_normal((n, 4))).normalized()
        worst_pol = max(worst_pol, abs(qr.polarization(T, x, y) - T.apply(x).inner(y)))
    checks["polarization"] = worst_pol <= 1e-10

    # csim orbit invariance on 100 seeded pairs
    worst_orbit = 0.0
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(22,)))
    for _ in range(100):
        q = Quaternion(*rng.standard_normal(4))
        u = Quaternion(*rng.standard_normal(4)).normalized()
        s1 = qr.csim(q)
        s2 = qr.csim(u.conj() * q * u)
        worst_orbit = max(worst_orbit, abs(s1.a - s2.a), abs(s1.b - s2.b))
    checks["csim_orbit"] = worst_orbit <= 1e-12

    ok = all(checks.values())
    return ok, {"checks": checks, "worst_polarization": worst_pol,
                "worst_orbit": worst_orbit}


# -- the tests -------------------------------------------------------------------------

_cache = {}


def _cached(num, fn):
    if num not in _cache:
        _cache[num] = fn()
    return _cache[num]


def test_criterion_1_essential_segment():
    ok, result = _cached(1, run_criterion_1)
    report(1, ok, f"essential bild vertices {result['vertices']}")
    assert ok


def test_criterion_2_lancaster_closure():
    ok, result, runtime = _cached(2, run_criterion_2)
    report(2, ok, f"hausdorff to closure polygon {result['hausdorff_target']:.4f} "
                  f"(tol 0.02), runtime {runtime:.1f}s (limit 60s)")
    assert result["hausdorff_target"] <= 0.02
    assert runtime <= 60.0


def test_criterion_3_nonclosedness():
    ok, result = _cached(3, run_criterion_3)
    rs = ", ".join(f"{r:.2e}" for r in result["open_edge_residuals"])
    report(3, ok, f"open-edge residuals [{rs}] strictly positive and decreasing; "
                  f"top-edge max {max(result['top_edge_residuals']):.1e}")
    assert ok


def test_criterion_4_convexity_construction():
    ok, result, runtime = _cached(4, run_criterion_4)
    report(4, ok, f"220 combination runs, worst error/budget "
                  f"{result['worst_ratio']:.3f}, runtime {runtime:.1f}s (limit 30s)")
    assert ok


def test_criterion_5_support_sampling_gap():
    ok, result = _cached(5, run_criterion_5)
    worst = max(result["gaps"], key=lambda g: g["support_polygon_gap"] / g["budget"])
    report(5, ok, f"worst support-polygon gap/budget {result['worst_ratio']:.4f} "
                  f"(n={worst['n']}: gap {worst['support_polygon_gap']:.2e} vs budget "
                  f"{worst['budget']:.3f}; hausdorff_gap with the under-region "
                  f"{worst['gap']:.3f}, grid support deficiency "
                  f"{worst['support_gap']:.1e})")
    assert ok, (
        "the Hausdorff gap between the mirrored inner hull and the mirrored "
        "support polygon exceeds 0.05 (1 + ||T||_F): measured worst gap/budget "
        f"= {result['worst_ratio']:.3f} over the 50 seeded matrices at "
        "m = 200000, k = 360")


def test_criterion_6_spectral_inclusions():
    ok, result = _cached(6, run_criterion_6)
    report(6, ok, f"matrix spectra slack {result['worst_matrix_slack']:.2e} "
                  f">= -1e-6; essential inclusion slack "
                  f"{result['worst_essential_slack']:.2e}")
    assert ok


def test_criterion_7_property_suite():
    ok, result = _cached(7, run_criterion_7)
    report(7, ok, f"checks {result['checks']}; polarization "
                  f"{result['worst_polarization']:.1e}, orbit "
                  f"{result['worst_orbit']:.1e}")
    assert ok


def test_criterion_8_determinism():
    reruns = {
        1: run_criterion_1,
        2: run_criterion_2,
        3: run_criterion_3,
        4: run_criterion_4,
        5: run_criterion_5,
        6: run_criterion_6,
        7: run_criterion_7,
    }
    mismatches = []
    for num, fn in reruns.items():
        first = _cached(num, fn)
        second = fn()
        # runtimes are not part of the comparable payload
        if canonical(first[1]) != canonical(second[1]):
            mismatches.append(num)
    ok = not mismatches
    report(8, ok, "all criterion payloads byte-identical across two runs"
           if ok else f"criteria with differing payloads: {mismatches}")
    assert ok
