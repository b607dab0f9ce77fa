"""The benchmark's workloads: how each builds its input and runs it.

Every workload derives its whole input from one seed and hands the
pipeline only the generated stream. Each stresses a different layer:

* ``agrawal-gradual-gnb``: 9 features and Gaussian naive Bayes, so
  splits and model predictions dominate; routing in more dimensions and
  repeated predictions of one observation show here. The first quarter
  is stationary, which is where false alerts are counted.
* ``sea-injected-track``: attribution tracking with 100 slots and the
  oracle on, which reads the tree about 84 times per step
  (``find_leaf``) beside one write. Its stream goes through a CSV file,
  so set-up covers the CSV loader and the run covers the min-max fit
  pass.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from driftscope.evaluation import DEFAULT_WARMUP, score_alerts
from driftscope.generators import AgrawalStream, DriftSchedule, SeaStream
from driftscope.injection import permute_inject
from driftscope.pipeline import run_detection, run_tracking
from driftscope.stream import BufferedStream, buffer_stream, read_csv
from driftscope.tree import SCOPE_GLOBAL

from stamped import StampedStream

TRACKED_SLOTS = 100
TRACK_SAMPLE_PREFIX = 1000


class OutputCheckFailed(Exception):
    """A run's output is not what its input must give."""


@dataclass(frozen=True)
class Workload:
    name: str
    length: int
    # CPU seconds one pass of ``length`` steps takes on a shared 2-CPU
    # x86-64 host; it sets how many streams fit a run's time budget.
    pass_s: float
    build: Callable[[int, int, Path, dict], BufferedStream]
    run: Callable[[StampedStream, int], object]
    check: Callable[[object, StampedStream], tuple[str, dict]]


def _timed(parts: dict, name: str, fn, *args, **kwargs):
    started = time.thread_time()
    out = fn(*args, **kwargs)
    parts[name] = parts.get(name, 0.0) + time.thread_time() - started
    return out


def _digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs


def _build_agrawal_gradual(seed: int, length: int, workdir: Path, parts: dict) -> BufferedStream:
    width = min(1000, length // 8)
    schedule = DriftSchedule(
        positions=(length // 4, length // 2, 3 * length // 4), widths=(width,) * 3
    )
    gen = AgrawalStream(
        length=length, concepts=(0, 1, 2, 0), schedule=schedule, perturbation=0.1, seed=seed
    )
    return _timed(parts, "generators.generate", buffer_stream, gen)


def _write_csv(path: Path, stream: BufferedStream) -> None:
    names = list(stream.feature_names) + ["y"]
    with path.open("w") as fh:
        fh.write(",".join(names) + "\n")
        for row, label in zip(stream.features.tolist(), stream.labels.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{label}\n")


def _build_sea_injected(seed: int, length: int, workdir: Path, parts: dict) -> BufferedStream:
    positions = (length // 4, length // 2, 3 * length // 4)
    base = _timed(parts, "generators.generate", buffer_stream, SeaStream(length=length, seed=seed))
    injected = _timed(
        parts, "injection.inject", permute_inject, base, positions, top_fraction=0.5, seed=seed
    )
    path = workdir / f"sea-injected-{seed}.csv"
    _timed(parts, "stream.write_csv", _write_csv, path, injected)
    return _timed(
        parts, "stream.read_csv", read_csv, path, label_column="y", drift_positions=positions
    )


# ---------------------------------------------------------------------------
# runs and their output checks


def _run_detect(stream: StampedStream, seed: int):
    return run_detection(stream, model="gnb")


def _run_track(stream: StampedStream, seed: int):
    return run_tracking(
        stream,
        sample_size=TRACKED_SLOTS,
        sample_prefix=TRACK_SAMPLE_PREFIX,
        policy="cdleeds",
        oracle=True,
        seed=seed,
    )


def detection_quality(stream: BufferedStream, global_alerts: list[int], accuracy: float) -> dict:
    """Detection-quality figures of one run's global alerts."""
    first_drift = stream.drift_positions[0]
    stretch = first_drift - DEFAULT_WARMUP
    early = sum(1 for a in global_alerts if DEFAULT_WARMUP <= a < first_drift)
    scores = score_alerts(stream, global_alerts)
    delays = [d for d in scores["delays"] if d is not None]
    return {
        "accuracy": accuracy,
        "false_alerts_per_10k": 1e4 * early / stretch if stretch > 0 else None,
        "recall": scores["recall_mean"],
        "fdr": scores["fdr_mean"],
        "mean_delay_steps": float(np.mean(delays)) if delays else None,
    }


def _check_detect(result, stream: StampedStream) -> tuple[str, dict]:
    if result.steps != stream.steps_attempted:
        raise OutputCheckFailed(f"run reports {result.steps} steps, stream has {stream.steps_attempted}")
    alerts = [(a.t, a.p_value) for a in result.alerts if a.scope == SCOPE_GLOBAL]
    quality = detection_quality(stream, result.global_alert_steps, result.accuracy)
    return _digest(alerts, sorted(quality.items())), quality


def _check_track(result, stream: StampedStream) -> tuple[str, dict]:
    if result.steps != stream.steps_attempted:
        raise OutputCheckFailed(f"run reports {result.steps} steps, stream has {stream.steps_attempted}")
    slots = {i for _, i, _, _, _ in result.trace}
    if len(slots) != TRACKED_SLOTS:
        raise OutputCheckFailed(f"trace covers {len(slots)} slots, expected {TRACKED_SLOTS}")
    quality = {
        "recompute_reduction_pct": result.reduction_pct,
        "attribution_deviation_pct": result.deviation_pct_of_range,
    }
    return _digest(result.trace, sorted(quality.items())), quality


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="agrawal-gradual-gnb",
            length=20000,
            pass_s=10.5,
            build=_build_agrawal_gradual,
            run=_run_detect,
            check=_check_detect,
        ),
        Workload(
            name="sea-injected-track",
            length=3000,
            pass_s=11.0,
            build=_build_sea_injected,
            run=_run_track,
            check=_check_track,
        ),
    )
}


def stream_seed(seed: int, index: int) -> int:
    """Seed of input stream ``index`` of a run made with ``seed``."""
    return 1000 * seed + index


def input_digest(stream: BufferedStream) -> str:
    """Digest of the exact arrays a workload hands the pipeline."""
    h = hashlib.sha256(stream.features.tobytes())
    h.update(stream.labels.tobytes())
    h.update(repr((stream.drift_positions, stream.feature_ranges)).encode())
    return h.hexdigest()
