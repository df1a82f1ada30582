"""Command line front end: reproducible runs emitting CSV/JSON (and SVG) artifacts.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 numerical
failure.  Every summary echoes the full effective configuration; identical
inputs and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .eigen import NumericalError
from .essential import ValidationError, essential_bild, truncate
from .geometry import DegenerateRegionError
from .lancaster import lancaster_check, nonclosedness_probe
from .numrange import RealSectionError, real_section, upper_bild
from .spectra import s_spectrum

DEFAULT_SECTIONS = (50, 100, 200, 500)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatrange",
        description="Numerical ranges and essential bilds of quaternionic operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, operator: bool):
        p.add_argument("input", help="operator file (JSON)" if operator
                       else "matrix file (JSON)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", "-m", dest="m", type=int, default=20000)
        p.add_argument("--angles", "-k", dest="k", type=int, default=360)
        p.add_argument("--section", "-N", dest="section", type=int, default=None)
        p.add_argument("--depth", "-p", dest="depth", type=int, default=60)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--svg", action="store_true", help="also write an SVG plot")

    common(sub.add_parser("bild", help="upper bild of a matrix"), operator=False)
    common(sub.add_parser("sspec", help="S-spectrum of a matrix"), operator=False)
    common(sub.add_parser("essential", help="essential bild of a model operator"),
           operator=True)
    lanc = sub.add_parser("lancaster", help="closure decomposition report")
    common(lanc, operator=True)
    lanc.add_argument("--target", default=None,
                      help="target polygon 'a1,b1;a2,b2;...' for distance reporting")
    lanc.add_argument("--edge", default=None,
                      help="probe edge 'a0,b0,a1,b1' for the non-closedness residual")
    common(sub.add_parser("verify", help="consistency battery for an operator file"),
           operator=True)
    return parser


def _config_dict(args) -> dict:
    # the output directory is deliberately not echoed: artifacts must be
    # byte-identical regardless of where they are written
    cfg = {
        "command": args.command,
        "input": str(args.input),
        "seed": args.seed,
        "samples": args.m,
        "angles": args.k,
        "section": args.section,
        "depth": args.depth,
        "tol": args.tol,
        "svg": bool(args.svg),
    }
    for extra in ("target", "edge"):
        if hasattr(args, extra):
            cfg[extra] = getattr(args, extra)
    return cfg


def _poly_rows(poly, kind):
    return [(float(a), float(b), kind) for a, b in np.asarray(poly).reshape(-1, 2)]


def _parse_polygon(text: str) -> np.ndarray:
    return np.array([[float(v) for v in pair.split(",")] for pair in text.split(";")])


def _cmd_bild(args, out: Path) -> int:
    T = fileio.load_matrix(args.input)
    region = upper_bild(T, m=args.m, k=args.k, seed=args.seed)
    rows = _poly_rows(region.inner_points, "inner") + _poly_rows(region.outer_polygon,
                                                                 "vertex")
    fileio.write_csv(out / "bild.csv", ["a", "b", "kind"], rows)
    try:
        section = real_section(T, m=min(args.m, 20000), seed=args.seed, tol=args.tol)
        real_part = [section.lo, section.hi]
    except RealSectionError:
        real_part = None
    summary = {
        "config": _config_dict(args),
        "outer_polygon": [[float(a), float(b)] for a, b in region.outer_polygon],
        "inner_hull": [[float(a), float(b)] for a, b in region.inner_hull],
        "hausdorff_gap": float(region.hausdorff_gap),
        "real_section": real_part,
    }
    fileio.write_json(out / "summary.json", summary)
    if args.svg:
        fileio.write_svg(out / "bild.svg",
                         [(region.outer_polygon, "black"), (region.inner_hull, "blue")],
                         [(region.inner_points[::max(1, len(region.inner_points) // 2000)],
                           "steelblue", 1.0)])
    return 0


def _cmd_sspec(args, out: Path) -> int:
    T = fileio.load_matrix(args.input)
    spheres = s_spectrum(T)
    fileio.write_csv(out / "sspec.csv", ["a", "b"],
                     [(s.a, s.b) for s in spheres])
    summary = {
        "config": _config_dict(args),
        "spheres": [[s.a, s.b] for s in spheres],
    }
    fileio.write_json(out / "summary.json", summary)
    return 0


def _cmd_essential(args, out: Path) -> int:
    M = fileio.load_operator(args.input)
    poly = essential_bild(M)
    fileio.write_csv(out / "essential.csv", ["a", "b"],
                     [(float(a), float(b)) for a, b in poly])
    summary = {
        "config": _config_dict(args),
        "vertices": [[float(a), float(b)] for a, b in poly],
        "endpoints": {
            "b_min": float(poly[:, 1].min()),
            "b_max": float(poly[:, 1].max()),
            "a_min": float(poly[:, 0].min()),
            "a_max": float(poly[:, 0].max()),
        },
    }
    fileio.write_json(out / "summary.json", summary)
    if args.svg:
        fileio.write_svg(out / "essential.svg", [(poly, "black")], [])
    return 0


def _cmd_lancaster(args, out: Path) -> int:
    M = fileio.load_operator(args.input)
    sections = [args.section] if args.section else list(DEFAULT_SECTIONS)
    target = _parse_polygon(args.target) if args.target else None
    report = lancaster_check(M, sections, m=args.m, k=args.k, seed=args.seed,
                             target=target)
    residuals = {}
    if args.edge:
        vals = [float(v) for v in args.edge.split(",")]
        probe = nonclosedness_probe(M, [(vals[0], vals[1]), (vals[2], vals[3])],
                                    sections, m=min(args.m, 50000), seed=args.seed)
        residuals = {row.N: row.residual for row in probe.rows}
    rows = []
    for row in report.rows:
        rows.append((row.N, row.hausdorff_outer,
                     "" if row.N not in residuals else residuals[row.N]))
    fileio.write_csv(out / "lancaster.csv", ["N", "hausdorff", "residual"], rows)
    summary = {
        "config": _config_dict(args),
        "rows": [{
            "N": row.N,
            "hausdorff_outer": row.hausdorff_outer,
            "hausdorff_target": row.hausdorff_target,
            "n_satellites": row.n_satellites,
            "hausdorff_gap": row.gap,
        } for row in report.rows],
        "residuals": {str(k): v for k, v in residuals.items()},
        "essential_polygon": [[float(a), float(b)] for a, b in report.essential_polygon],
    }
    fileio.write_json(out / "summary.json", summary)
    if args.svg:
        last = report.regions[-1]
        fileio.write_svg(out / "lancaster.svg",
                         [(report.bilds[-1].outer_polygon, "black"),
                          (report.essential_polygon, "royalblue")]
                         + [(p, "seagreen") for p in last.pieces[:200]],
                         [(last.satellites, "crimson", 1.5)])
    return 0


def _cmd_verify(args, out: Path) -> int:
    from .geometry import signed_inner_distance
    from .numrange import bild_points

    M = fileio.load_operator(args.input)
    checks = {}

    poly = essential_bild(M)  # validates declared limits against the tail
    checks["limits_validated"] = True

    n = args.section or 100
    T = truncate(M, n).matrix
    spheres = s_spectrum(T)
    block_spec = s_spectrum(M.block) if M.block_size else None
    tail_classes = bild_points(T.diagonal()[M.block_size:])
    ok_spec = True
    for s in spheres:
        # finite-section spheres must be tail diagonal classes, block spectrum,
        # or already inside the essential polygon
        inside = signed_inner_distance(poly, s.point()) >= -max(args.tol, 1e-3)
        near_block = block_spec is not None and any(
            s.distance(b) <= 1e-6 for b in block_spec)
        near_tail = float(np.min(np.linalg.norm(
            tail_classes - np.array(s.point()), axis=1), initial=np.inf)) <= 1e-6
        if not (inside or near_block or near_tail):
            ok_spec = False
    checks["sspec_accounted"] = ok_spec

    region = upper_bild(T, m=min(args.m, 50000), k=args.k, seed=args.seed)
    support = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
    slack = float((region.inner_points @ support.T - region.offsets[None, :]).max())
    checks["inner_within_outer"] = slack <= 1e-9

    checks["essential_polygon_consistent"] = all(
        signed_inner_distance(poly, p) >= -1e-12 for p in poly)

    passed = all(checks.values())
    summary = {
        "config": _config_dict(args),
        "checks": checks,
        "pass": passed,
        "essential_vertices": [[float(a), float(b)] for a, b in poly],
        "essential_endpoints": {
            "b_min": float(poly[:, 1].min()),
            "b_max": float(poly[:, 1].max()),
        },
    }
    fileio.write_json(out / "summary.json", summary)
    fileio.write_csv(out / "verify.csv", ["check", "pass"],
                     [(k, str(v)) for k, v in sorted(checks.items())])
    return 0 if passed else 1


_COMMANDS = {
    "bild": _cmd_bild,
    "sspec": _cmd_sspec,
    "essential": _cmd_essential,
    "lancaster": _cmd_lancaster,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](args, out)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (NumericalError, DegenerateRegionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (fileio.ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
