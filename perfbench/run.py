"""Run one quatrange benchmark workload and print its metrics.

    python3 perfbench/run.py --workload remark_closure --seed 20260808 \\
        --seconds 10 --trace 0

Run from the root of the repository.  The workload's operation list is run
in passes until ``--seconds`` of measured time have passed (at least one
pass).  With ``--trace 0`` the last line of standard output is one JSON
object with the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` every traced quatrange function is wrapped and the metrics are
the per-layer ones.  The line before it is a JSON report with the per-pass
times, the percentile summary, the certificate quality, the setup samples
and the environment.

``setup_s`` is the median over several fresh child processes of the time
from process start to the moment the first operation could run: interpreter
start, ``import quatrange`` and input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("remark_closure", "convexity", "dense_blocks", "verify_cli")
SETUP_SAMPLES = 5
# BLAS threads: one per core available to this process, never more
BLAS_THREADS = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=_non_negative, default=20260808)
    p.add_argument("--seconds", type=_non_negative, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    src = ROOT / "src"
    if not (src / "quatrange" / "__init__.py").is_file():
        raise SystemExit(f"error: quatrange sources not found under {src}")
    sys.path.insert(0, str(src))
    import workloads  # needs the library on sys.path
    return workloads


def _setup_probe(args) -> None:
    workloads = _import_library()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    workload.ops()
    print(time.monotonic())


def _setup_seconds(args) -> list[float]:
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": _git_commit(),
    }


def _percentile(times: list[float]) -> dict | None:
    """Highest percentile with at least ten passes beyond it, or None."""
    n = len(times)
    if n <= 10:
        return None
    rank = n - 10
    return {"percentile": round(100.0 * rank / n, 2), "value": sorted(times)[rank - 1],
            "passes": n}


def _run_passes(workload, seconds: float, tracer):
    pass_times: list[float] = []
    qualities: list[dict] = []
    attempted = failed = 0
    while not pass_times or sum(pass_times) < seconds:
        ops = workload.ops()
        elapsed = 0.0
        for op in ops:
            attempted += 1
            if tracer is not None:
                tracer.begin_op(op.name)
            start = time.perf_counter()
            try:
                result = op.run()
                problem = None
            except Exception:  # an operation failing is counted, not fatal
                problem = traceback.format_exc(limit=3)
            elapsed += time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            if problem is None:
                problem = op.check(result)
            if problem is not None:
                failed += 1
                print(f"FAILED {op.name}: {problem}", file=sys.stderr)
        pass_times.append(elapsed)
        qualities.append(dict(workload.quality))
    return pass_times, qualities, attempted, failed


def _declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.setup_probe:
        _setup_probe(args)
        return 0

    workloads = _import_library()
    import tracing

    setup_samples = _setup_seconds(args)

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    pass_times, qualities, attempted, failed = _run_passes(workload, args.seconds, tracer)
    deterministic = all(q == qualities[0] for q in qualities)
    if not deterministic:
        print(f"FAILED certificate quality differs between passes: {qualities}",
              file=sys.stderr)

    wall = statistics.median(pass_times)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(pass_times),
        "pass_wall_s": pass_times,
        "wall_s_percentile": _percentile(pass_times),
        "fail_ratio": failed / attempted,
        "quality": qualities[0],
        "setup_samples_s": setup_samples,
        "environment": _environment(),
    }
    if tracer is None:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = _declared_metrics("end_to_end")
    else:
        values = tracing.per_pass_metrics(tracer.layer_totals(), len(pass_times))
        layer_spans = sum(1 for span in tracer.spans if span[3] >= 0)
        values["bench.trace_overhead_s"] = \
            tracing.span_cost() * layer_spans / len(pass_times)
        values.update({f"quality.{k}": qualities[0].get(k, 0.0)
                       for k in ("hausdorff_target", "support_gap_rel",
                                 "combination_error_ratio")})
        spans_file = OUT_DIR / f"spans-{args.workload}.tsv.gz"
        tracer.write(spans_file)
        report["spans"] = len(tracer.spans)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        declared = _declared_metrics("per_layer")
    missing = sorted(set(declared) - set(values))
    if missing:
        raise SystemExit(f"error: metrics not produced: {missing}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
