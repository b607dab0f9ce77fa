"""Prequential runs wiring streams, models, baseline, and the tree.

Every run goes through one test-then-train engine, ``_prequential``.
Step 0 only trains the model (and seeds the change detector's baseline),
so every later step sees a model that has been trained at least once.
From step 1 on the engine predicts each observation exactly once, hands
that pre-update prediction to the run's own step (accuracy, the
detector's diff, DDM's correctness indicator), and trains on the label
only after the step is done. Feature vectors are scaled to the unit box
first (declared generator ranges, or a min-max fit for buffered data)
so that the tree's similarity threshold means the same thing on every
stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attribution import (
    REASON_EVERY_STEP,
    AttributionRecord,
    AttributionTracker,
    attribute_linear,
    trace_rows,
)
from .baseline import EwmaBaseline
from .config import MODEL_KINDS, DetectorConfig
from .evaluation import DetectorRunner, DdmDetector, STATUS_DRIFT
from .models import GaussianNaiveBayes, OnlineLogisticRegression, detector_input
from .stream import StreamSource, scaled
from .tree import SCOPE_GLOBAL, AdaptiveClusterTree, DriftAlert

TRACKING_POLICIES = ("cdleeds", "always", "never")


def build_model(kind: str, n_features: int, n_classes: int, learning_rate: float = 0.1):
    if kind == "logreg":
        if n_classes > 2:
            raise ValueError(f"logreg handles binary streams only, got {n_classes} classes")
        return OnlineLogisticRegression(n_features, learning_rate=learning_rate)
    if kind == "gnb":
        return GaussianNaiveBayes(n_features, n_classes)
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def _predicted_class(prediction) -> int:
    if np.ndim(prediction) == 0:
        return int(prediction >= 0.5)
    return int(np.argmax(prediction))


def _prequential(source: StreamSource, clf, baseline: EwmaBaseline | None = None):
    """Test-then-train over a scaled stream.

    Yields ``(item, prediction)`` for every step t >= 1, where
    ``prediction`` is the model's one prediction of ``item.x`` before it
    trains on ``item``; training happens when the consumer asks for the
    next step. Step 0 only trains the model and seeds ``baseline``.
    """
    for item in source:
        x = item.x
        if item.t == 0:
            if baseline is not None:
                baseline.update(x)
        else:
            yield item, clf.predict(x)
        clf.update(x, item.y)


class _ChangeDetector:
    """The monitored model, its EWMA baseline, and the cluster tree."""

    def __init__(self, config: DetectorConfig, source: StreamSource):
        self.clf = build_model(config.model, source.n_features, source.n_classes, config.learning_rate)
        self.baseline = EwmaBaseline(config.beta)
        self.tree = AdaptiveClusterTree(
            source.n_features,
            gamma=config.gamma,
            alpha=config.alpha,
            window=config.window,
            max_age=config.max_age,
            max_depth=config.max_depth,
        )

    def detect(self, x: np.ndarray, prediction, t: int) -> list[DriftAlert]:
        """Local and global alerts of step t, given the model's prediction of x."""
        self.baseline.update(x)
        alerts = self.tree.update(x, detector_input(prediction, self.baseline.value(self.clf)), t)
        global_alert = self.tree.test_global_change()
        if global_alert is not None:
            alerts.append(global_alert)
        return alerts


@dataclass(frozen=True)
class RunResult:
    """Everything a detection run produces, timing kept separate."""

    alerts: tuple[DriftAlert, ...]
    stats: tuple[tuple[int, int, int], ...]  # (t, node_count, leaf_count)
    accuracy: float
    steps: int
    mean_update_seconds: float
    total_seconds: float

    @property
    def global_alert_steps(self) -> list[int]:
        return sorted({a.t for a in self.alerts if a.scope == SCOPE_GLOBAL})


def run_detection(stream: StreamSource, collect_stats: bool = True, **settings) -> RunResult:
    """Run the change detector prequentially over a labeled stream.

    ``settings`` are ``DetectorConfig`` fields; the rest keep their
    defaults. The first observation only trains the model and seeds the
    baseline; detection starts at step 1 so that the detector always
    sees a model that has been trained at least once.
    """
    config = DetectorConfig(**settings)
    source = scaled(stream)
    detector = _ChangeDetector(config, source)
    tree = detector.tree
    alerts: list[DriftAlert] = []
    stats: list[tuple[int, int, int]] = []
    correct = 0
    steps = 0
    detector_seconds = 0.0
    started = time.perf_counter()
    for item, prediction in _prequential(source, detector.clf, detector.baseline):
        t = item.t
        correct += _predicted_class(prediction) == item.y
        steps += 1
        tick = time.perf_counter()
        alerts.extend(detector.detect(item.x, prediction, t))
        detector_seconds += time.perf_counter() - tick
        if collect_stats:
            stats.append((t, tree.node_count, tree.leaf_count))
    total_seconds = time.perf_counter() - started
    return RunResult(
        alerts=tuple(alerts),
        stats=tuple(stats),
        accuracy=correct / steps if steps else 0.0,
        steps=steps,
        mean_update_seconds=detector_seconds / steps if steps else 0.0,
        total_seconds=total_seconds,
    )


@dataclass(frozen=True)
class TrackingResult:
    """Lazy-recompute tracking scored against the always-recompute oracle."""

    sample_size: int
    steps: int
    reduction_pct: float | None
    mean_abs_deviation: float | None
    oracle_range: float | None
    deviation_pct_of_range: float | None
    trace: tuple[tuple[int, int, int, float, str], ...]
    mean_update_seconds: float
    total_seconds: float


def run_tracking(
    stream: StreamSource,
    sample_size: int = 100,
    sample_prefix: int = 1000,
    policy: str = "cdleeds",
    oracle: bool = True,
    seed: int = 0,
    **settings,
) -> TrackingResult:
    """Track attributions for observations sampled from the stream prefix.

    Tracked observations are pinned on arrival (drawn without
    replacement from steps 1..sample_prefix-1; step 0 only warms the
    model up) and their stored attributions are refreshed according to
    ``policy``: reuse until leaf change or local alert, recompute every
    step, or never refresh. With ``oracle`` on, the always-recompute
    attribution of every tracked observation is computed each step and
    the deviation of the stored attributions from it is accumulated
    streamingly. ``settings`` are ``DetectorConfig`` fields; the model
    must be the linear ``logreg``.
    """
    config = DetectorConfig(**settings)
    if config.model != "logreg":
        raise ValueError(f"attribution tracking needs the linear model 'logreg', got {config.model!r}")
    if policy not in TRACKING_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {TRACKING_POLICIES}")
    if sample_size < 0:
        raise ValueError(f"sample_size must be >= 0, got {sample_size}")
    prefix_end = min(sample_prefix, stream.length)
    if sample_size >= prefix_end:
        raise ValueError(
            f"sample_size {sample_size} does not fit the stream prefix [1, {prefix_end})"
        )
    source = scaled(stream)
    if source.n_classes > 2:
        raise ValueError("attribution tracking needs a linear model, so a binary stream")
    detector = _ChangeDetector(config, source)
    clf = detector.clf
    tracker = AttributionTracker(clf, detector.tree) if policy == "cdleeds" else None
    records: list[AttributionRecord] = tracker.records if tracker is not None else []
    rng = np.random.default_rng(seed)
    pin_steps = set()
    if sample_size:
        pin_steps = {int(v) + 1 for v in rng.choice(prefix_end - 1, size=sample_size, replace=False)}
    dev_sum = 0.0
    dev_count = 0
    oracle_min = np.inf
    oracle_max = -np.inf
    detector_seconds = 0.0
    steps = 0
    started = time.perf_counter()
    for item, prediction in _prequential(source, clf, detector.baseline):
        t, x = item.t, item.x
        steps += 1
        tick = time.perf_counter()
        alerts = detector.detect(x, prediction, t)
        base_vec = detector.baseline.ewma
        if tracker is not None and records:
            tracker.step(alerts, base_vec, t)
        elif policy == "always":
            for record in records:
                vec = attribute_linear(clf, record.obs.x, base_vec, t)
                record.current = vec
                record.log.append((t, REASON_EVERY_STEP))
                record.history.append(vec)
        if t in pin_steps:
            if tracker is not None:
                tracker.track(item.obs, base_vec, t)
            else:
                records.append(AttributionRecord.start(item.obs, attribute_linear(clf, x, base_vec, t)))
        detector_seconds += time.perf_counter() - tick
        if oracle:
            for record in records:
                oracle_phi = clf.weights * (record.obs.x - base_vec)
                lo = float(oracle_phi.min())
                hi = float(oracle_phi.max())
                oracle_min = lo if lo < oracle_min else oracle_min
                oracle_max = hi if hi > oracle_max else oracle_max
                dev_sum += float(np.abs(record.current.phi - oracle_phi).sum())
                dev_count += oracle_phi.size
    total_seconds = time.perf_counter() - started
    last_t = stream.length - 1
    if records:
        reductions = [1.0 - r.recompute_count / (last_t - r.start_t + 1) for r in records]
        reduction_pct = 100.0 * float(np.mean(reductions))
    else:
        reduction_pct = None
    mean_abs_deviation = dev_sum / dev_count if oracle and dev_count else None
    oracle_range = float(oracle_max - oracle_min) if oracle and dev_count else None
    deviation_pct_of_range = (
        100.0 * mean_abs_deviation / oracle_range if oracle_range else None
    )
    return TrackingResult(
        sample_size=sample_size,
        steps=steps,
        reduction_pct=reduction_pct,
        mean_abs_deviation=mean_abs_deviation,
        oracle_range=oracle_range,
        deviation_pct_of_range=deviation_pct_of_range,
        trace=tuple(trace_rows(records)),
        mean_update_seconds=detector_seconds / steps if steps else 0.0,
        total_seconds=total_seconds,
    )


def cdleeds_runner(**settings) -> DetectorRunner:
    """Benchmark runner scoring the tree's global alerts.

    ``settings`` are ``DetectorConfig`` fields, as for ``run_detection``.
    """

    def run(stream: StreamSource) -> tuple[list[int], float]:
        result = run_detection(stream, collect_stats=False, **settings)
        return result.global_alert_steps, result.mean_update_seconds

    return run


def ddm_runner(model: str = "logreg", learning_rate: float = 0.1) -> DetectorRunner:
    """Benchmark runner for the error-rate baseline detector."""

    def run(stream: StreamSource) -> tuple[list[int], float]:
        source = scaled(stream)
        clf = build_model(model, source.n_features, source.n_classes, learning_rate)
        ddm = DdmDetector()
        alerts: list[int] = []
        detector_seconds = 0.0
        steps = 0
        for item, prediction in _prequential(source, clf):
            steps += 1
            is_correct = _predicted_class(prediction) == item.y
            tick = time.perf_counter()
            if ddm.update(is_correct) == STATUS_DRIFT:
                alerts.append(item.t)
            detector_seconds += time.perf_counter() - tick
        return alerts, detector_seconds / steps if steps else 0.0

    return run
