"""File formats: matrix and operator JSON, CSV reports, minimal SVG plots.

Quaternion literals are four-element lists [w, x, y, z].  A matrix file is
``{"n": int, "entries": [[quaternion, ...], ...]}``.  An operator file is
``{"block": matrix, "tail": {"kind": ...}, "limit_set": [...], "bound": r}``
where a limit entry is either a sphere ``[a, b]`` or a segment
``{"segment": {"a": a, "b0": b0, "b1": b1}}``.  Every number must be finite
(``NaN``, ``Infinity`` and overflowing literals such as ``1e400`` are parse
errors), and a matrix file must not be empty (an operator's block may be).

All writers format floats with repr (shortest round-trip) and iterate in
fixed orders, so identical data produces identical bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .essential import (
    ConstantTail,
    DecayingPeriodicTail,
    ExplicitTail,
    LimitSegment,
    ModelOperator,
    PeriodicTail,
    RationalsITail,
)
from .qmatrix import QMatrix
from .quaternion import Quaternion, SimilaritySphere

__all__ = [
    "ParseError",
    "load_matrix",
    "dump_matrix",
    "load_operator",
    "dump_operator",
    "write_csv",
    "write_svg",
]


class ParseError(ValueError):
    """Malformed input file."""


def _real(value) -> float:
    """A finite float; json reads NaN/Infinity literals and 1e400 as non-finite."""
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad number {value!r}") from exc
    if not math.isfinite(x):
        raise ParseError(f"non-finite number {value!r}")
    return x


def _quaternion(obj) -> Quaternion:
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise ParseError(f"quaternion literal must be [w, x, y, z], got {obj!r}")
    return Quaternion(*(_real(v) for v in obj))


def _matrix_from_obj(obj) -> QMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError("matrix object needs an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ParseError("matrix entries must be a list of rows")
    n = int(_real(obj.get("n", len(entries))))
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ParseError("matrix entries are not n x n")
    if n == 0:
        return QMatrix.zeros(0)
    return QMatrix.from_quaternions([[_quaternion(e) for e in row] for row in entries])


def _matrix_to_obj(T: QMatrix) -> dict:
    return {
        "n": T.n,
        "entries": [[list(T.arr[i, j]) for j in range(T.n)] for i in range(T.n)],
    }


def load_matrix(path) -> QMatrix:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    T = _matrix_from_obj(data)
    if T.n == 0:
        # an operator's block may be empty, a matrix to analyse may not
        raise ParseError(f"matrix file {path} holds an empty matrix")
    return T


def dump_matrix(T: QMatrix, path) -> None:
    Path(path).write_text(json.dumps(_matrix_to_obj(T), indent=2, sort_keys=True) + "\n")


_TAIL_KINDS = {
    "constant": lambda d: ConstantTail(_quaternion(d["value"])),
    "periodic": lambda d: PeriodicTail([_quaternion(v) for v in d["values"]]),
    "explicit": lambda d: ExplicitTail([_quaternion(v) for v in d["values"]]),
    "rationals_i": lambda d: RationalsITail(_real(d.get("half", 0.5))),
    "decaying_periodic": lambda d: DecayingPeriodicTail(
        [_quaternion(v) for v in d["targets"]], _real(d["amplitude"])),
}


def _limit_from_obj(obj):
    if isinstance(obj, dict) and "segment" in obj:
        seg = obj["segment"]
        return LimitSegment(_real(seg["a"]), _real(seg["b0"]), _real(seg["b1"]))
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return SimilaritySphere(_real(obj[0]), _real(obj[1]))
    raise ParseError(f"bad limit entry {obj!r}")


def load_operator(path) -> ModelOperator:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read operator file {path}: {exc}") from exc
    try:
        block = _matrix_from_obj(data["block"]) if data.get("block") else QMatrix.zeros(0)
        tail_spec = data["tail"]
        kind = tail_spec.get("kind")
        if kind not in _TAIL_KINDS:
            raise ParseError(f"unknown tail kind {kind!r}")
        tail = _TAIL_KINDS[kind](tail_spec)
        limits = [_limit_from_obj(o) for o in data["limit_set"]]
        bound = _real(data["bound"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad operator file {path}: {exc}") from exc
    return ModelOperator(block=block, tail=tail, limit_set=limits, bound=bound)


def dump_operator(M: ModelOperator, path) -> None:
    limits = []
    for part in M.limit_set:
        if isinstance(part, LimitSegment):
            limits.append({"segment": {"a": part.a, "b0": part.b0, "b1": part.b1}})
        else:
            limits.append([part.a, part.b])
    data = {
        "block": _matrix_to_obj(M.block) if M.block_size else None,
        "tail": M.tail.spec(),
        "limit_set": limits,
        "bound": M.bound,
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- reports -----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, data) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- minimal SVG -------------------------------------------------------------------

def write_svg(path, polygons, point_sets, width: int = 640, height: int = 480) -> None:
    """Hand-rolled SVG with polygon outlines and point markers.

    ``polygons`` is a list of (vertices, color); ``point_sets`` a list of
    (points, color, radius).  Coordinates are fitted to the view box with a
    small margin; emission order is the argument order, so output is
    deterministic.
    """
    all_pts = [np.asarray(p[0], dtype=float).reshape(-1, 2) for p in polygons]
    all_pts += [np.asarray(p[0], dtype=float).reshape(-1, 2) for p in point_sets]
    stacked = np.vstack([p for p in all_pts if len(p)]) if all_pts else np.zeros((1, 2))
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 20.0

    def to_px(pts):
        scale = min((width - 2 * margin) / span[0], (height - 2 * margin) / span[1])
        x = margin + (pts[:, 0] - lo[0]) * scale
        y = height - margin - (pts[:, 1] - lo[1]) * scale
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for verts, color in polygons:
        verts = np.asarray(verts, dtype=float).reshape(-1, 2)
        if len(verts) == 0:
            continue
        x, y = to_px(verts)
        coords = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
        parts.append(f'<polygon points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
    for pts, color, radius in point_sets:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if len(pts) == 0:
            continue
        x, y = to_px(pts)
        for xi, yi in zip(x, y):
            parts.append(f'<circle cx="{xi:.2f}" cy="{yi:.2f}" r="{radius}" '
                         f'fill="{color}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
