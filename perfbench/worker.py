"""Run one workload in one process and print its raw figures as JSON.

``run.py`` starts this script once untraced and, for a traced run, once
more with ``--traced``; each prints one JSON object on its last stdout
line. The worker derives as many input streams from the seed as fit the
time budget and runs each of them twice, closed loop, one thread, going
through all streams before repeating any. Before each pass it builds the
pass's input from the seed again; set-up time is the median over at
least ``SETUP_REPEATS`` builds. Every pass calls the real pipeline entry
point, so both runs of a stream must give the same output digest.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np

import driftscope

if Path(driftscope.__file__).resolve().parent != ROOT / "src" / "driftscope":
    raise SystemExit(f"imported driftscope from {driftscope.__file__}, not from {ROOT / 'src'}")

from stamped import StampedStream
from workloads import WORKLOADS, OutputCheckFailed, input_digest, stream_seed

SETUP_REPEATS = 5
RUNS_PER_STREAM = 2
SETUP_PARTS = ("generators.generate", "injection.inject", "stream.read_csv")


def stream_count(workload, seconds: float) -> int:
    """Streams that fit the budget when each runs twice at the workload's nominal pass time."""
    return max(1, int(seconds // (RUNS_PER_STREAM * workload.pass_s)))


class Inputs:
    """Builds a workload's input streams on demand, timing each build.

    Stream ``index`` of a run is made from ``stream_seed(seed, index)``.
    Using several streams lets a run's figures rest on more than one
    stream's drift and split pattern. The input of a pass is rebuilt
    before the pass, so that set-up is timed across the whole run rather
    than in one burst at its start; every build of one stream must give
    identical arrays.
    """

    def __init__(self, workload, seed: int, length: int, workdir: Path):
        self.workload, self.seed, self.length, self.workdir = workload, seed, length, workdir
        self.times: list[float] = []
        self.digests: list[tuple[int, str]] = []
        self.parts: dict[str, float] = {}

    def build(self, index: int) -> tuple[int, StampedStream]:
        """Stream ``index`` and the seed that made it."""
        seed = stream_seed(self.seed, index)
        started = time.thread_time()
        base = self.workload.build(seed, self.length, self.workdir, self.parts)
        stream = StampedStream.wrap(base)
        self.times.append(time.thread_time() - started)
        self.digests.append((index, input_digest(stream)))
        return seed, stream


def run_passes(workload, inputs: Inputs, streams: int):
    """Each stream twice, closed loop; stops at the first failure.

    Each pass records its thread CPU time (``cpu_s``) beside its wall
    time: on a shared host the CPU clock leaves out the time the worker
    waited for a processor.
    """
    passes = []
    for index in list(range(streams)) * RUNS_PER_STREAM:
        seed, stream = inputs.build(index)
        record = {"stream": index, "error": None, "digest": None, "quality": None}
        tick, cpu_tick = time.perf_counter(), time.thread_time()
        try:
            result = workload.run(stream, seed)
        except Exception:
            record["error"] = traceback.format_exc()
        record["cpu_s"] = time.thread_time() - cpu_tick
        record["wall_s"] = time.perf_counter() - tick
        record["attempted"] = stream.steps_attempted
        record["completed"] = stream.steps_completed
        record["step_s"] = stream.step_seconds()
        if record["error"] is None:
            try:
                record["digest"], record["quality"] = workload.check(result, stream)
            except OutputCheckFailed:
                record["error"] = traceback.format_exc()
        passes.append(record)
        if record["error"] is not None:
            break
    while len(inputs.times) < SETUP_REPEATS:
        inputs.build(len(inputs.times) % streams)
    return passes


def slower_run_steps(passes) -> np.ndarray:
    """Each step's time in the slower of its stream's runs, all streams joined.

    On a shared host the worker's processor speeds up in bursts that
    last seconds to minutes. A step counted at the slower of its two runs
    does not look faster because a burst fell on one of them.
    """
    runs: dict[int, list[np.ndarray]] = {}
    for p in passes:
        runs.setdefault(p["stream"], []).append(p["step_s"])
    return np.concatenate([np.max(np.stack(r), axis=0) for r in runs.values()])


def summarize(passes, inputs: Inputs) -> dict:
    errors = [p["error"] for p in passes if p["error"]]
    steps = np.empty(0) if errors else slower_run_steps(passes)
    setup_total = sum(inputs.times)
    return {
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "completed": sum(p["completed"] for p in passes),
        "errors": errors,
        "digests": [(p["stream"], p["digest"]) for p in passes],
        "input_digests": inputs.digests,
        "quality": passes[0]["quality"],
        "wall_s": sum(p["wall_s"] for p in passes),
        "cpu_s": sum(p["cpu_s"] for p in passes),
        "obs_per_s": steps.size / steps.sum() if steps.size else None,
        "step_us_p50": float(np.median(steps)) * 1e6 if steps.size else None,
        "step_us_p99": float(np.quantile(steps, 0.99)) * 1e6 if steps.size else None,
        "step_samples": int(steps.size),
        "setup_s": statistics.median(inputs.times),
        "setup_parts_pct": {
            f"{name}_pct": 100.0 * inputs.parts.get(name, 0.0) / setup_total
            for name in SETUP_PARTS
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_figures(tracer, passes: int, wall_s: float, steps: int) -> dict:
    """Per-pass counts and self-time shares of the traced run."""
    from tracing import PIPELINE_SELF, SPANS

    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = tracer.calls[name] // passes
        out[f"{name}.self_pct"] = 100.0 * tracer.self_s[name] / wall_s
    out[f"{PIPELINE_SELF}.self_pct"] = 100.0 * (wall_s - tracer.top_level_s) / wall_s
    out["models.predict.per_step"] = tracer.calls["models.predict"] / steps
    out["tree.find_leaf.per_step"] = tracer.calls["tree.find_leaf"] / steps
    for name in (
        "tree.split.replay_appends",
        "tree.local_alerts",
        "tree.global_alerts",
        "attribution.recomputes",
    ):
        out[name] = tracer.counts[name] // passes
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--length", type=int, default=None, help="override the stream length")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    length = args.length or workload.length
    streams = stream_count(workload, args.seconds)

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    inputs = Inputs(workload, args.seed, length, workdir)
    try:
        if args.traced:
            from tracing import Tracer, installed

            with installed(Tracer()) as tracer:
                passes = run_passes(workload, inputs, streams)
        else:
            passes = run_passes(workload, inputs, streams)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = summarize(passes, inputs)
    if args.traced:
        out["layers"] = layer_figures(tracer, len(passes), out["wall_s"], out["attempted"])
        out["layers"].update(out["setup_parts_pct"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
