"""The four benchmark workloads: seeded inputs, timed operations, output checks.

A workload builds its raw inputs from the seed once.  Each pass then makes
fresh library objects from them (untimed, so no cache carries over from one
pass to the next) and returns a fixed list of operations.  An operation is
one call into the public API or the CLI entry point; its check returns None
when the output meets the acceptance tolerance and a message otherwise.
Checks also record the workload's certificate quality, which must come out
identical on every pass of a run.

The library is always reached through attribute lookups on the ``quatrange``
package (``qr.upper_bild``, ``cli.main``), so a tracer that rebinds those
names sees every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import quatrange as qr
import quatrange.cli
import quatrange.geometry

DEFAULT_SEED = 20260808
TRAPEZOID = np.array([(-1.0, 1.0), (1.0, 1.0), (1 / 3, 0.0), (-1 / 3, 0.0)])
OPEN_EDGE = [(-1 / 3, 0.0), (-1.0, 1.0)]
TOP_EDGE = [(-1.0, 1.0), (1.0, 1.0)]
PROBE_SECTIONS = [50, 100, 200, 500]
N_OPERATORS = 20
DEPTH = 200
DENSE_SIZES = (4, 30, 60)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# -- seeded input families (the same families as the test suite's helpers) -----------


def random_qmatrix_array(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    return rng.standard_normal((n, n, 4))


def seeded_model_operator(seed: int) -> qr.ModelOperator:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
    nblock = int(rng.integers(0, 3))
    block = qr.QMatrix(rng.standard_normal((nblock, nblock, 4))) if nblock \
        else qr.QMatrix.zeros(0)
    n_targets = int(rng.integers(1, 4))
    targets = [qr.Quaternion(rng.standard_normal() * 0.8,
                             abs(rng.standard_normal()) * 0.8, 0.0, 0.0)
               for _ in range(n_targets)]
    tail = qr.DecayingPeriodicTail(targets, amplitude=0.1)
    bound = max(abs(t) for t in targets) + 0.2
    return qr.ModelOperator(block=block, tail=tail,
                            limit_set=[qr.csim(t) for t in targets], bound=bound)


def _outside(poly: np.ndarray, point, tol: float) -> bool:
    return quatrange.geometry.signed_inner_distance(poly, point) < -tol


# -- workloads --------------------------------------------------------------------------


class RemarkClosure:
    """Criteria 2 and 3 on the paper's worked example (the remark operator)."""

    name = "remark_closure"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.quality: dict[str, float] = {}

    def ops(self) -> list[Op]:
        M = qr.remark_operator()
        return [
            Op("lancaster_check",
               partial(qr.lancaster_check, M, [500], m=200000, k=360,
                       seed=self.seed, target=TRAPEZOID),
               self._check_closure),
            Op("nonclosedness_probe.open_edge",
               partial(qr.nonclosedness_probe, M, OPEN_EDGE, PROBE_SECTIONS,
                       m=20000, seed=self.seed),
               self._check_open_edge),
            Op("nonclosedness_probe.top_edge",
               partial(qr.nonclosedness_probe, M, TOP_EDGE, PROBE_SECTIONS,
                       m=20000, seed=self.seed),
               self._check_top_edge),
        ]

    def _check_closure(self, report) -> str | None:
        d = report.final().hausdorff_target
        self.quality["hausdorff_target"] = d
        return None if d <= 0.02 else f"hausdorff_target {d:.6g} > 0.02"

    @staticmethod
    def _check_open_edge(probe) -> str | None:
        r = [row.residual for row in probe.rows]
        if not all(x > 0 for x in r):
            return f"open-edge residuals not all positive: {r}"
        if not all(b < a for a, b in zip(r, r[1:])):
            return f"open-edge residuals not strictly decreasing: {r}"
        return None

    @staticmethod
    def _check_top_edge(probe) -> str | None:
        r = [row.residual for row in probe.rows]
        return None if all(x <= 1e-9 for x in r) else f"top-edge residuals {r} > 1e-9"


class Convexity:
    """Criterion 4: 20 seeded model operators x 11 values of alpha^2 at depth 200."""

    name = "convexity"

    def __init__(self, seed: int, out_dir: Path):
        # the default seed maps to operator seeds 0..19, the acceptance family
        base = N_OPERATORS * ((seed - DEFAULT_SEED) % 2**32)
        self.op_seeds = list(range(base, base + N_OPERATORS))
        self.quality: dict[str, float] = {}

    def ops(self) -> list[Op]:
        self.quality["combination_error_ratio"] = 0.0
        ops = []
        for s in self.op_seeds:
            M = seeded_model_operator(s)
            poly = qr.essential_bild(M)
            om1 = qr.Quaternion(float(poly[0][0]), float(poly[0][1]), 0.0, 0.0)
            om2 = qr.Quaternion(float(poly[-1][0]), float(poly[-1][1]), 0.0, 0.0)
            budget = 5.0 * (2.0 + M.opnorm_bound()) / DEPTH
            for a2 in np.linspace(0.0, 1.0, 11):
                ops.append(Op(f"convex_combination_sequence[{s},{a2:.1f}]",
                              partial(qr.convex_combination_sequence, M, om1, om2,
                                      math.sqrt(a2), DEPTH),
                              partial(self._check, budget)))
        return ops

    def _check(self, budget: float, run) -> str | None:
        err = run.errors[-1]
        q = self.quality
        q["combination_error_ratio"] = max(q["combination_error_ratio"], err / budget)
        if err > budget:
            return f"final error {err:.6g} > budget {budget:.6g}"
        for p, triple in enumerate(run.triples, start=1):
            if max(triple) > 1.0 / p:
                return f"selection triple {triple} > 1/{p}"
        return None


class DenseBlocks:
    """upper_bild, s_spectrum and real_section on dense random n in {4, 30, 60}."""

    name = "dense_blocks"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.arrays = [random_qmatrix_array(len(DENSE_SIZES) * seed + i, n)
                       for i, n in enumerate(DENSE_SIZES)]
        self.quality: dict[str, float] = {}

    def ops(self) -> list[Op]:
        self.quality["support_gap_rel"] = 0.0
        ops = []
        for i, arr in enumerate(self.arrays):
            T = qr.QMatrix(arr)
            regions: list = []  # filled by the upper_bild check of this pass
            n = T.n
            ops += [
                Op(f"upper_bild[n={n}]",
                   partial(qr.upper_bild, T, m=20000, k=360, seed=self.seed + i),
                   partial(self._check_bild, T, regions)),
                Op(f"s_spectrum[n={n}]", partial(qr.s_spectrum, T),
                   partial(self._check_spectrum, regions)),
                Op(f"real_section[n={n}]",
                   partial(qr.real_section, T, m=20000, seed=self.seed + i),
                   partial(self._check_section, regions)),
            ]
        return ops

    def _check_bild(self, T, regions, region) -> str | None:
        rel = region.support_gap / (1.0 + T.frobenius())
        self.quality["support_gap_rel"] = max(self.quality["support_gap_rel"], rel)
        regions.append(region)
        dirs = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
        slack = float((region.inner_points @ dirs.T - region.offsets[None, :]).max())
        return None if slack <= 1e-9 else f"inner point outside a support half-plane by {slack:.3g}"

    @staticmethod
    def _check_spectrum(regions, spheres) -> str | None:
        if not regions:
            return "no outer polygon to check against"
        bad = [s.point() for s in spheres if _outside(regions[0].outer_polygon, s.point(), 1e-6)]
        return None if not bad else f"S-spectrum points outside the outer polygon: {bad}"

    @staticmethod
    def _check_section(regions, section) -> str | None:
        if not regions:
            return "no outer polygon to check against"
        if section.lo > section.hi:
            return f"empty real section [{section.lo}, {section.hi}]"
        ends = [(section.lo, 0.0), (section.hi, 0.0)]
        bad = [p for p in ends if _outside(regions[0].outer_polygon, p, 1e-6)]
        return None if not bad else f"real-section ends outside the outer polygon: {bad}"


class VerifyCli:
    """`quatrange verify` on the bundled operator file, default flags."""

    name = "verify_cli"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.input = Path(qr.__file__).resolve().parents[2] / "demos/data/remark_operator.json"
        if not self.input.is_file():
            raise FileNotFoundError(f"bundled operator file missing: {self.input}")
        self.out = out_dir / "verify_cli"
        self.quality: dict[str, float] = {}

    def ops(self) -> list[Op]:
        self.out.mkdir(parents=True, exist_ok=True)
        for stale in self.out.iterdir():
            stale.unlink()
        argv = ["verify", str(self.input), "--seed", str(self.seed), "--out", str(self.out)]
        return [Op("cli.verify", partial(quatrange.cli.main, argv), self._check)]

    def _check(self, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        summary = json.loads((self.out / "summary.json").read_text())
        return None if summary.get("pass") is True else f"verify reported {summary.get('checks')}"


WORKLOADS = {w.name: w for w in (RemarkClosure, Convexity, DenseBlocks, VerifyCli)}
