"""Run the benchmark over several workloads and seeds, one process at a time.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/spread.json
    python3 perfbench/sweep.py --seeds 20260808,7 --trace 0,1 \\
        --out perfbench/results/BENCH_baseline.json

Run from the root of the repository.  Each run is ``perfbench/run.py`` in a
fresh process; its report and result lines are stored under
``runs[workload][trace][seed]``.  The summary gives, per workload and
end-to-end metric, the median over seeds and the spread (the distance
between the first and third quartile as a share of the median).  Where a
seed was run both untraced and traced, it also gives the tracing overhead
(traced minus untraced pass time) and the share of the traced pass that the
per-layer self times account for.  On a machine whose speed drifts, the
difference of two runs is mostly drift; the estimate from the measured cost
of one span times the number of spans is the steadier figure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{done.stderr}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _summary(runs: dict) -> dict:
    out = {}
    for workload, by_trace in runs.items():
        row = {}
        untraced = by_trace.get("0", {})
        if len(untraced) >= 2:
            for name in next(iter(untraced.values()))["result"]["metrics"]:
                vals = [r["result"]["metrics"][name]["value"] for r in untraced.values()]
                row[name] = {"median": statistics.median(vals), "spread": spread(vals),
                             "values": vals}
        for seed, traced in by_trace.get("1", {}).items():
            if seed not in untraced:
                continue
            base = statistics.median(untraced[seed]["report"]["pass_wall_s"])
            metrics = traced["result"]["metrics"]
            traced_wall = metrics["bench.traced_wall_s"]["value"]
            layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
            row[f"trace_seed_{seed}"] = {
                "untraced_wall_s": base,
                "traced_wall_s": traced_wall,
                "overhead_s": traced_wall - base,
                "overhead_share": (traced_wall - base) / base,
                "estimated_overhead_s": metrics["bench.trace_overhead_s"]["value"],
                "layer_self_s": layers,
                "op_self_s": metrics["bench.op_self_s"]["value"],
                "layer_share_of_traced": layers / traced_wall,
            }
        out[workload] = row
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--trace", default="0", help="comma list of 0 and 1")
    p.add_argument("--seconds", type=int,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    runs: dict = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            for trace in args.trace.split(","):
                rec = _run(workload, seed, args.seconds, int(trace))
                runs.setdefault(workload, {}).setdefault(trace, {})[str(seed)] = rec
                res = rec["result"]
                print(f"{workload} seed={seed} trace={trace} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      f"passes={rec['report']['passes']}", flush=True)
    summary = _summary(runs)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    for workload, row in summary.items():
        for name, stats in row.items():
            print(workload, name, json.dumps({k: v for k, v in stats.items()
                                              if k != "values"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
