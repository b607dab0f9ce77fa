"""Prequential benchmark of driftscope: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload agrawal-gradual-gnb --seed 1 --seconds 45 --trace 0

Runs the workload's closed loop in a worker process (one thread, BLAS
pinned to one) and prints a report, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, timed from per-step
hand-over stamps with no wrapper imported. With ``--trace 1`` an
untraced worker and then a traced worker run the same inputs, each on
half the budget, and the metrics are the per-layer ones from the traced
worker. A run fails (exit code 1) when two runs of one input stream, in
one worker or across the two, give different output digests, and exits
2 without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175.0

END_TO_END = {
    "obs_per_s": "obs/s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Printed by every run but not emitted as metrics. The quality figures
# are exact for a seed but vary from seed to seed by more than any bound
# a metric may have; ops_failed_frac is 0 in every correct run and the
# JSON's failed / attempted carry it.
QUALITY = {
    "ops_failed_frac": "ratio",
    "accuracy": "ratio",
    "false_alerts_per_10k": "alerts/10k",
    "recall": "ratio",
    "fdr": "ratio",
    "mean_delay_steps": "steps",
    "recompute_reduction_pct": "%",
    "attribution_deviation_pct": "%",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".per_step"):
        return "calls/step"
    return "count"


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, traced: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        # A traced run splits its budget between its two workers.
        "--seconds", str(args.seconds / 2 if args.trace else args.seconds),
    ]
    if args.length:
        cmd += ["--length", str(args.length)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {DEADLINE_S:.0f}s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_outputs(runs: list[dict]) -> list[str]:
    """Every run of one input stream, in any worker, must give the same output."""
    problems = [f"pass raised:\n{err}" for run in runs for err in run["errors"]]
    if problems:
        return problems
    for key, what in (("input_digests", "inputs"), ("digests", "outputs")):
        seen: dict[int, set[str]] = {}
        for run in runs:
            for stream, digest in run[key]:
                seen.setdefault(stream, set()).add(digest)
        for stream, digests in sorted(seen.items()):
            if len(digests) != 1:
                problems.append(f"{what} of stream {stream} differ across passes and workers: "
                                f"{sorted(digests)}")
    return problems


def end_to_end_metrics(plain: dict) -> dict:
    return {name: plain[name] for name in END_TO_END}


def per_layer_metrics(plain: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    plain_pass = plain["cpu_s"] / plain["passes"]
    traced_pass = traced["cpu_s"] / traced["passes"]
    values["trace.overhead_pct"] = 100.0 * (traced_pass / plain_pass - 1.0)
    return values


def report(args, runs: list[dict], metrics: dict, units: dict, problems: list[str]) -> None:
    plain = runs[0]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{plain['passes']} passes, {plain['completed']}/{plain['attempted']} steps, "
        f"{plain['step_samples']} latency samples"
    )
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {units[name]}")
    quality = dict(plain["quality"] or {})
    quality["ops_failed_frac"] = 1.0 - plain["completed"] / plain["attempted"]
    for name, unit in QUALITY.items():
        value = quality.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {unit if value is not None else ''}")
    print("  outputs: " + ("identical across passes" if not problems else "MISMATCH"))
    for problem in problems:
        print("  " + problem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=int, default=None, help="override the stream length")
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "driftscope" / "__init__.py").is_file():
        print(f"no driftscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        runs = [run_worker(args, traced=False, deadline=deadline)]
        if args.trace:
            runs.append(run_worker(args, traced=True, deadline=deadline))
    except WorkerFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    problems = check_outputs(runs)
    if args.trace:
        metrics = per_layer_metrics(*runs)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, units = end_to_end_metrics(runs[0]), END_TO_END
    report(args, runs, metrics, units, problems)
    attempted = sum(run["attempted"] for run in runs)
    completed = sum(run["completed"] for run in runs)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
