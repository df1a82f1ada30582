"""Span tracing from outside the library, for the per-layer metrics.

``Tracer.install`` replaces each traced function or method of
``quatrange`` with a timing wrapper at every binding where callers look it
up: the defining module, every other ``quatrange`` module that imported it
by name, and the package namespace.  Nothing in the library changes.

A span is recorded only while an operation is open, so work done to prepare
inputs between operations is not counted.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out when the run ends.  A
span's self time is its duration minus the durations of its child spans;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import pkgutil
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import quatrange


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_nr_sample(tr, args, kwargs, result):
    T = args[0]
    tr.add("numrange.nr_sample.normals", 4 * _arg(args, kwargs, 1, "m") * T.n)


def _count_batched_eig_max(tr, args, kwargs, result):
    stack = args[0]
    dim = stack.shape[-1] if stack.ndim >= 2 else 0
    matrices = stack.size // (dim * dim) if dim else 0
    tr.add("eigen.batched_eig_max.matrices", matrices)
    tr.peak("eigen.batched_eig_max.dim", dim)
    tr.add("eigen.batched_eig_max.stack_bytes", matrices * dim * dim * 8)


def _count_prefix(tr, args, kwargs, result):
    entries = _arg(args, kwargs, 1, "count")
    tr.add("essential.Tail.prefix.entries", entries)
    if tr.parent_name() == "essential.TailBasisSequence.pick":
        tr.add("essential.pick.prefix_entries", entries)


def _count_iconv(tr, args, kwargs, result):
    tr.add("lancaster.iconv.satellites_in", len(args[1]))
    tr.add("lancaster.iconv.satellites_kept", len(result.satellites))


def _count_delta(tr, args, kwargs, result):
    if tr.parent_name() == "spectra.s_spectrum":
        tr.add("spectra.s_spectrum.pencils", 1)


def _count_written(name):
    def count(tr, args, kwargs, result):
        tr.add(name, os.path.getsize(args[0]))
    return count


def _count_len(name, which):
    def count(tr, args, kwargs, result):
        tr.add(name, len(which(args, result)))
    return count


# traced name -> (counter or None, the count quantities it records);
# every traced name also gets .calls and .self_s
TRACED = {
    "quaternion.unit_conjugator": (None, ()),
    "qmatrix.delta": (_count_delta, ()),
    "qmatrix.QMatrix.complex_rep": (None, ()),
    "eigen.sym_eig": (None, ()),
    "eigen.batched_eig_max": (_count_batched_eig_max, ("matrices", "dim", "stack_bytes")),
    "geometry.convex_hull": (None, ()),
    "geometry.halfplane_intersection": (None, ()),
    "geometry.hausdorff_convex": (None, ()),
    "geometry.points_polygon_distance": (
        _count_len("geometry.points_polygon_distance.points", lambda a, r: a[1]),
        ("points",)),
    "numrange.nr_sample": (_count_nr_sample, ("normals",)),
    "numrange.bild_points": (
        _count_len("numrange.bild_points.points", lambda a, r: r), ("points",)),
    "numrange.support_offsets": (
        _count_len("numrange.support_offsets.angles", lambda a, r: r), ("angles",)),
    "numrange.refined_values": (
        _count_len("numrange.refined_values.points", lambda a, r: r), ("points",)),
    "numrange.upper_bild": (None, ()),
    "numrange.real_section": (None, ()),
    "essential.Tail.prefix": (_count_prefix, ("entries",)),
    "essential.ModelOperator.validate": (None, ()),
    "essential.truncate": (None, ()),
    "essential.essential_bild": (None, ()),
    "essential.SparseVec.quad_value": (None, ()),
    "essential.TailBasisSequence.pick": (None, ()),
    "lancaster.iconv": (_count_iconv, ("satellites_in", "satellites_kept")),
    "lancaster.IconvRegion.distance_to": (
        _count_len("lancaster.IconvRegion.distance_to.pieces", lambda a, r: a[0].pieces),
        ("pieces",)),
    "lancaster.hausdorff_union_convex": (None, ()),
    "spectra.s_spectrum": (
        _count_len("spectra.s_spectrum.spheres", lambda a, r: r), ("spheres", "pencils")),
    "fileio.load_operator": (_count_written("fileio.load_operator.bytes"), ("bytes",)),
    "fileio.write_json": (_count_written("fileio.write_json.bytes"), ("bytes",)),
    "fileio.write_csv": (_count_written("fileio.write_csv.bytes"), ("bytes",)),
    "cli.main": (None, ()),
}

# quantities reported as the largest value seen instead of a per-pass total
PEAK_QUANTITIES = {"eigen.batched_eig_max.dim"}


def _modules():
    mods = [quatrange]
    for info in pkgutil.iter_modules(quatrange.__path__):
        mods.append(importlib.import_module(f"quatrange.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []

    # -- recording ----------------------------------------------------------------

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts[key], value)

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def begin_op(self, name: str) -> None:
        self.op = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, -1, self.op])
        self._stack = [self.op]

    def end_op(self) -> None:
        self.spans[self.op][2] = perf_counter()
        self.op = None
        self._stack = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1], tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function and method to its timing wrapper."""
        modules = _modules()
        for name, (counter, _) in TRACED.items():
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"quatrange.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[path[-1]]
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                continue
            rebound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        rebound += 1
            if rebound == 0:
                raise RuntimeError(f"no binding found for {name}")

    # -- results ------------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """calls, self_s and counts per traced name, summed over the whole run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, op), inner in zip(self.spans, child):
            if parent < 0:
                totals["bench.op_self_s"] += end - start - inner
                totals["bench.traced_wall_s"] += end - start
                continue
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += end - start - inner
        for name, (_, quantities) in TRACED.items():
            for quantity in ("calls", "self_s") + quantities:
                totals[f"{name}.{quantity}"] += 0
        totals["essential.pick.prefix_entries"] += 0
        totals.update(self.counts)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a direct call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("noop", noop, None)
    costs = []
    for _ in range(repeats):
        tracer.begin_op("calibration")
        start = perf_counter()
        for _ in range(calls):
            traced()
        middle = perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((middle - start) - (perf_counter() - middle)) / calls)
        tracer.end_op()
        tracer.spans.clear()
    return sorted(costs)[repeats // 2]


def per_pass_metrics(totals: dict[str, float], passes: int) -> dict[str, float]:
    """Per-pass layer metrics, plus the pick and iconv ratios."""
    out = {}
    for key, value in totals.items():
        value = value if key in PEAK_QUANTITIES else value / passes
        # counts repeat exactly from pass to pass; keep them whole
        out[key] = int(value) if not key.endswith("_s") and value == int(value) else value
    picks = out["essential.TailBasisSequence.pick.calls"]
    out["essential.pick.entries_per_pick"] = \
        out["essential.pick.prefix_entries"] / picks if picks else 0.0
    sat_in = out["lancaster.iconv.satellites_in"]
    out["lancaster.iconv.kept_ratio"] = \
        out["lancaster.iconv.satellites_kept"] / sat_in if sat_in else 0.0
    return out
