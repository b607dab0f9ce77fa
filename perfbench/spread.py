"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads sea-injected-track --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

For every workload and end-to-end metric it prints the median over the
seeds and the spread, the distance between the first and third quartile
as a share of the median, beside the metric's bound in BENCHMARK.json.
Runs go one after another, never two at once. With ``--baseline`` it
also makes one traced run per workload (the first seed) and writes the
medians, the per-layer figures and the machine description to a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import QUALITY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON result, and the quality figures from its report lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    lines = proc.stdout.strip().splitlines()
    quality = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 2 and fields[0] in QUALITY and fields[1] != "n/a":
            quality[fields[0]] = float(fields[1])
    return json.loads(lines[-1]), quality


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in DECLARED["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=DECLARED["run_seconds"])
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        quality: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, figures = bench(workload, seed, args.seconds, trace=0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in figures.items():
                quality.setdefault(name, []).append(value)
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary[workload] = {
            "end_to_end": {},
            "quality_median": {name: statistics.median(v) for name, v in quality.items()},
        }
        for name, vals in values.items():
            med, sp = statistics.median(vals), spread(vals)
            summary[workload]["end_to_end"][name] = {"median": med, "spread": sp}
            flag = "ok" if sp <= bounds[name] else "OVER"
            print(f"  {workload:<22} {name:<14} median {med:12.6g}  spread {sp:.4f}  "
                  f"bound {bounds[name]}  {flag}", flush=True)
        if args.baseline:
            traced = bench(workload, args.seeds[0], args.seconds, trace=1)[0]["metrics"]
            summary[workload]["per_layer"] = {k: v["value"] for k, v in traced.items()}

    if args.baseline:
        args.baseline.write_text(json.dumps(
            {"machine": machine(), "seeds": args.seeds, "run_seconds": args.seconds,
             "workloads": summary},
            indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
