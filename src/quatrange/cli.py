"""Command line front end: reproducible runs emitting CSV/JSON (and SVG) artifacts.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 numerical
failure.  Every summary echoes the full effective configuration; identical
inputs and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .eigen import NumericalError
from .essential import ValidationError, essential_bild, truncate
from .geometry import near_any, points_polygon_distance, signed_inner_distance, sorted_rows_in
from .lancaster import lancaster_check, nonclosedness_probe
from .numrange import RealSectionError, bild_points, real_section, upper_bild
from .spectra import s_spectrum

DEFAULT_SECTIONS = (50, 100, 200, 500)


def _at_least(least: int, what: str):
    # argparse names the type function in its message for a non-integer
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{what} must be at least {least}, got {value}")
        return value
    return integer


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and at least 0, got {text}")
    return value


# every option once: its flags and argparse settings, keyed by the name the
# handlers read and the summary's config echoes
_OPTIONS = {
    "seed": (("--seed",), dict(type=_at_least(0, "seed"), default=0)),
    "samples": (("--samples", "-m"), dict(type=_at_least(1, "sample count"), default=20000)),
    "angles": (("--angles", "-k"), dict(type=_at_least(3, "angle count"), default=360)),
    "section": (("--section", "-N"), dict(type=_at_least(1, "section size"), default=None)),
    "tol": (("--tol",), dict(type=_tolerance, default=1e-6)),
    "svg": (("--svg",), dict(action="store_true", help="also write an SVG plot")),
    "target": (("--target",), dict(
        default=None, help="target polygon 'a1,b1;a2,b2;...' for distance reporting")),
    "edge": (("--edge",), dict(
        default=None, help="probe edge 'a0,b0,a1,b1' for the non-closedness residual")),
}

# each command accepts exactly the options its handler reads
_MATRIX, _OPERATOR = "matrix file (JSON)", "operator file (JSON)"
_COMMAND_OPTIONS = {
    "bild": ("upper bild of a matrix", _MATRIX,
             ("seed", "samples", "angles", "tol", "svg")),
    "sspec": ("S-spectrum of a matrix", _MATRIX, ()),
    "essential": ("essential bild of a model operator", _OPERATOR, ("svg",)),
    "lancaster": ("closure decomposition report", _OPERATOR,
                  ("seed", "samples", "angles", "section", "svg", "target", "edge")),
    "verify": ("consistency battery for an operator file", _OPERATOR,
               ("seed", "samples", "angles", "section", "tol")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatrange",
        description="Numerical ranges and essential bilds of quaternionic operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, source, names) in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("input", help=source)
        for name in names:
            flags, settings = _OPTIONS[name]
            p.add_argument(*flags, dest=name, **settings)
        p.add_argument("--out", default=".", help="output directory")
    return parser


def _config_dict(args) -> dict:
    # the output directory is deliberately not echoed: artifacts must be
    # byte-identical regardless of where they are written
    _, _, names = _COMMAND_OPTIONS[args.command]
    cfg = {"command": args.command, "input": str(args.input)}
    cfg.update((name, getattr(args, name)) for name in names)
    return cfg


def _poly_rows(poly, kind):
    return [(float(a), float(b), kind) for a, b in np.asarray(poly).reshape(-1, 2)]


def _parse_reals(text: str, count: int, flag: str) -> list[float]:
    """Exactly ``count`` comma-separated finite numbers, read by float, else a ValueError."""
    parts = text.split(",")
    if len(parts) != count:
        raise fileio.ParseError(
            f"{flag} needs {count} comma-separated numbers, got {text!r}")
    return [fileio._real(float(v)) for v in parts]


def _parse_polygon(text: str) -> np.ndarray:
    """'a1,b1;a2,b2;...': one or more finite pairs."""
    return np.array([_parse_reals(pair, 2, "--target") for pair in text.split(";")])


def _cmd_bild(args, out: Path) -> int:
    T = fileio.load_matrix(args.input)
    region = upper_bild(T, m=args.samples, k=args.angles, seed=args.seed)
    rows = _poly_rows(region.inner_points, "inner") + _poly_rows(region.outer_polygon,
                                                                 "vertex")
    fileio.write_csv(out / "bild.csv", ["a", "b", "kind"], rows)
    try:
        section = real_section(T, seed=args.seed, tol=args.tol)
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
    spheres = s_spectrum(T).points().tolist()
    fileio.write_csv(out / "sspec.csv", ["a", "b"], spheres)
    summary = {
        "config": _config_dict(args),
        "spheres": spheres,
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
    target = _parse_polygon(args.target) if args.target else None
    edge = _parse_reals(args.edge, 4, "--edge") if args.edge else None
    M = fileio.load_operator(args.input)
    sections = list(DEFAULT_SECTIONS) if args.section is None else [args.section]
    report = lancaster_check(M, sections, m=args.samples, k=args.angles,
                             seed=args.seed, target=target)
    residuals = {}
    if edge:
        probe = nonclosedness_probe(M, [edge[:2], edge[2:]], sections,
                                    m=min(args.samples, 50000), seed=args.seed)
        # a residual is inf when no attained value falls in the probe window;
        # the artifacts carry it as null / an empty field, which JSON can hold
        residuals = {row.N: row.residual if math.isfinite(row.residual) else None
                     for row in probe.rows}
    rows = []
    for row in report.rows:
        residual = residuals.get(row.N)
        rows.append((row.N, row.hausdorff_outer, "" if residual is None else residual))
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
                          (report.essential_polygon, "royalblue"),
                          (last.pieces[0], "seagreen")],
                         [(last.satellites, "crimson", 1.5)])
    return 0


def _sspec_accounted(M, T, poly, tol: float) -> bool:
    """Whether every S-spectrum sphere of the section T is a tail diagonal
    class, lies within max(tol, 1e-3) of the essential polygon poly, or is
    within 1e-6 of the block's S-spectrum.

    Its N-sized arrays are freed on return, before verify builds the
    section's region, which sets the run's peak memory.
    """
    spheres = s_spectrum(T).points()
    # s_spectrum copies each tail class into its set, so a tail sphere is an
    # exact match
    classes = bild_points(M.tail.prefix(T.n - M.block_size))
    rest = spheres[~sorted_rows_in(spheres, classes)]
    rest = rest[~(points_polygon_distance(poly, rest) <= max(tol, 1e-3))]
    if M.block_size:
        rest = rest[~near_any(rest, s_spectrum(M.block).points(), 1e-6)]
    return not len(rest)


def _cmd_verify(args, out: Path) -> int:
    M = fileio.load_operator(args.input)
    checks = {}

    poly = essential_bild(M)  # validates declared limits against the tail
    checks["limits_validated"] = True

    n = 100 if args.section is None else args.section
    T = truncate(M, n)
    checks["sspec_accounted"] = _sspec_accounted(M, T, poly, args.tol)

    # the section's region as lancaster builds it: a diagonal section's is its
    # exact polygon, so nothing is sampled there; otherwise the block is sampled
    region = upper_bild(T, m=min(args.samples, 50000), k=args.angles, seed=args.seed)
    support = np.stack([np.cos(region.thetas), np.sin(region.thetas)], axis=1)
    # a linear functional peaks at a hull vertex, so the hull checks every point
    slack = float((region.inner_hull @ support.T - region.offsets[None, :]).max())
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
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except (fileio.ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
