"""File formats: matrix and operator JSON, CSV reports, minimal SVG plots.

Quaternion literals are four-element lists [w, x, y, z].  A matrix file is
``{"n": int, "entries": [[quaternion, ...], ...]}``, where n must be a JSON
integer.  An operator file is the object
``{"block": matrix, "tail": {"kind": ...}, "limit_set": [...], "bound": r}``;
an ``adjoint`` or ``affine`` tail wraps the spec of its base tail under
``"base"``.  A limit entry is either a sphere ``[a, b]`` or a segment
``{"segment": {"a": a, "b0": b0, "b1": b1}}``.  Every number must be a finite
JSON number (``true``, ``"0.5"``, ``NaN``, ``Infinity`` and ``1e400`` are parse
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
    _MappedTail,
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
    """A finite JSON number; json reads NaN/Infinity literals and 1e400 as non-finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"bad number {value!r}")
    try:
        if math.isfinite(x := float(value)):
            return x
    except OverflowError:  # an integer literal beyond the float range
        pass
    raise ParseError(f"non-finite number {value!r}")


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
    n = obj.get("n", len(entries))
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"matrix size n must be an integer, got {n!r}")
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


def _tail_from_obj(obj):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in _TAIL_KINDS:
        raise ParseError(f"unknown tail kind {kind!r}")
    return _TAIL_KINDS[kind](obj)


_TAIL_KINDS = {
    "constant": lambda d: ConstantTail(_quaternion(d["value"])),
    "periodic": lambda d: PeriodicTail([_quaternion(v) for v in d["values"]]),
    "explicit": lambda d: ExplicitTail([_quaternion(v) for v in d["values"]]),
    "rationals_i": lambda d: RationalsITail(_real(d.get("half", 0.5))),
    "decaying_periodic": lambda d: DecayingPeriodicTail(
        [_quaternion(v) for v in d["targets"]], _real(d["amplitude"])),
    # tails of M.adjoint() and M.affine(a, b), around the spec of M's tail
    "adjoint": lambda d: _MappedTail(_tail_from_obj(d["base"]), "adjoint"),
    "affine": lambda d: _MappedTail(_tail_from_obj(d["base"]), "affine",
                                    _real(d["a"]), _real(d["b"])),
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
    if not isinstance(data, dict):
        raise ParseError(f"operator file {path} must hold a JSON object")
    try:
        block = _matrix_from_obj(data["block"]) if data.get("block") else QMatrix.zeros(0)
        tail = _tail_from_obj(data["tail"])
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
    """Strict JSON: a NaN or infinity raises ValueError instead of being written."""
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


# -- minimal SVG -------------------------------------------------------------------

def write_svg(path, polygons, point_sets) -> None:
    """Hand-rolled SVG with polygon outlines and point markers.

    ``polygons`` is a list of (vertices, color); ``point_sets`` a list of
    (points, color, radius).  Coordinates are fitted to a 640 x 480 view box
    with a small margin; emission order is the argument order, so output is
    deterministic.
    """
    width, height = 640, 480
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
