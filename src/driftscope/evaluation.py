"""Drift-detection scoring and the DDM reference detector.

Scoring follows the usual protocol for streams with known change
points: alerts inside a detection interval after a true drift count as
hits, everything else counts against the false-discovery rate, and the
headline number is the mean of recall and (1 - FDR). Detection
intervals are expressed as fractions of the stream length and results
are aggregated across a set of interval sizes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .stream import StreamSource

DEFAULT_INTERVALS = (0.01, 0.025, 0.05, 0.075, 0.1)
DEFAULT_WARMUP = 1000


def compute_delay(truth_positions: Sequence[int], alerts: Sequence[int]) -> list[int | None]:
    """Detection delay per true drift; None when never detected.

    The delay of a drift at p is the gap to the first alert at or after
    p that still lands before the next true drift.
    """
    truth = sorted(truth_positions)
    alerts = sorted(alerts)
    delays: list[int | None] = []
    for k, p in enumerate(truth):
        cap = truth[k + 1] if k + 1 < len(truth) else math.inf
        hit = next((a for a in alerts if p <= a < cap), None)
        delays.append(None if hit is None else hit - p)
    return delays


def compute_recall_fdr(
    truth_positions: Sequence[int],
    alerts: Sequence[int],
    stream_length: int,
    interval_fraction: float,
    warmup: int = 0,
) -> tuple[float, float]:
    """Recall and false-discovery rate for one detection-interval size.

    An alert is a hit when it falls inside [p, p + interval] of the
    latest true drift p at or before it; alerts during the first
    ``warmup`` steps are discarded entirely. Recall counts each drift
    at most once; repeated alerts inside the same interval are hits,
    not false alarms. With no counted alerts the FDR is 0 by
    convention.
    """
    if not 0.0 < interval_fraction <= 1.0:
        raise ValueError(f"interval fraction must lie in (0, 1], got {interval_fraction}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    truth = sorted(truth_positions)
    counted = [a for a in sorted(alerts) if a >= warmup]
    interval = interval_fraction * stream_length
    detected = set()
    false_count = 0
    for a in counted:
        k = np.searchsorted(truth, a, side="right") - 1
        if k >= 0 and a <= truth[k] + interval:
            detected.add(truth[k])
        else:
            false_count += 1
    recall = len(detected) / len(truth) if truth else 0.0
    fdr = false_count / len(counted) if counted else 0.0
    return recall, fdr


def combined_score(recall: float, fdr: float) -> float:
    """Mean of recall and (1 - FDR)."""
    if not 0.0 <= recall <= 1.0 or not 0.0 <= fdr <= 1.0:
        raise ValueError(f"recall and FDR must lie in [0, 1], got {recall}, {fdr}")
    return (recall + (1.0 - fdr)) / 2.0


STATUS_STABLE = "stable"
STATUS_WARNING = "warning"
STATUS_DRIFT = "drift"


class DdmDetector:
    """Drift detection from the supervised error rate (DDM).

    Feeds on a per-step correctness indicator. The running error rate p
    and its binomial deviation s = sqrt(p(1-p)/i) are tracked along
    with their joint minimum; the state escalates to warning when
    p + s > p_min + 2 s_min and to drift when p + s > p_min + 3 s_min,
    after which the counters restart. Thresholds stay inactive for the
    first ``min_samples`` steps of each concept.
    """

    def __init__(self, min_samples: int = 30):
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.min_samples = min_samples
        self.reset()

    def reset(self) -> None:
        self.i = 0
        self.p = 0.0
        self.s = 0.0
        self.p_min = math.inf
        self.s_min = math.inf
        self.status = STATUS_STABLE

    def update(self, correct: bool) -> str:
        """Consume one prediction outcome; returns the new status."""
        self.i += 1
        err = 0.0 if correct else 1.0
        self.p += (err - self.p) / self.i
        self.s = math.sqrt(self.p * (1.0 - self.p) / self.i)
        if self.i < self.min_samples:
            self.status = STATUS_STABLE
            return self.status
        level = self.p + self.s
        if level <= self.p_min + self.s_min:
            self.p_min = self.p
            self.s_min = self.s
        if level > self.p_min + 3.0 * self.s_min:
            self.reset()
            self.status = STATUS_DRIFT
        elif level > self.p_min + 2.0 * self.s_min:
            self.status = STATUS_WARNING
        else:
            self.status = STATUS_STABLE
        return self.status


# A detector runner takes a stream and returns the alert steps it
# raised plus its mean per-observation update time in seconds.
DetectorRunner = Callable[[StreamSource], tuple[list[int], float]]


@dataclass(frozen=True)
class BenchmarkRow:
    """Scores for one detector on one stream, aggregated over intervals."""

    stream: str
    detector: str
    recall_mean: float
    recall_std: float
    fdr_mean: float
    fdr_std: float
    combined_mean: float
    combined_std: float
    delays: tuple[int | None, ...]
    mean_update_seconds: float

    def to_dict(self) -> dict:
        return {**asdict(self), "delays": list(self.delays)}


def score_alerts(
    stream: StreamSource,
    alerts: Sequence[int],
    intervals: Sequence[float] = DEFAULT_INTERVALS,
    warmup: int = DEFAULT_WARMUP,
) -> dict:
    """Score one alert set at every interval size; returns aggregates."""
    recalls, fdrs, combineds = [], [], []
    for fraction in intervals:
        recall, fdr = compute_recall_fdr(
            stream.drift_positions, alerts, stream.length, fraction, warmup
        )
        recalls.append(recall)
        fdrs.append(fdr)
        combineds.append(combined_score(recall, fdr))
    return {
        "recall_mean": float(np.mean(recalls)),
        "recall_std": float(np.std(recalls)),
        "fdr_mean": float(np.mean(fdrs)),
        "fdr_std": float(np.std(fdrs)),
        "combined_mean": float(np.mean(combineds)),
        "combined_std": float(np.std(combineds)),
        "delays": tuple(compute_delay(stream.drift_positions, alerts)),
    }


def run_benchmark(
    streams: Mapping[str, StreamSource],
    detectors: Mapping[str, DetectorRunner],
    intervals: Sequence[float] = DEFAULT_INTERVALS,
    warmup: int = DEFAULT_WARMUP,
) -> list[BenchmarkRow]:
    """Score every detector on every stream with a ground-truth schedule."""
    if not intervals:
        raise ValueError("need at least one detection interval")
    rows = []
    for stream_name, stream in streams.items():
        if not stream.drift_positions:
            raise ValueError(
                f"stream {stream_name!r} has no ground-truth drift positions to score against"
            )
        for detector_name, runner in detectors.items():
            alerts, mean_update_seconds = runner(stream)
            scores = score_alerts(stream, alerts, intervals, warmup)
            rows.append(
                BenchmarkRow(
                    stream=stream_name,
                    detector=detector_name,
                    mean_update_seconds=mean_update_seconds,
                    **scores,
                )
            )
    return rows
