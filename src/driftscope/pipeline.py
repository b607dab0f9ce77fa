"""Prequential runs wiring streams, models, baseline, and the tree.

Every run goes through one test-then-train engine, ``_prequential``.
Step 0 only trains the model (and seeds the change detector's baseline),
so every later step sees a model that has been trained at least once.
From step 1 on the engine first moves the baseline input by the
observation, then predicts the observation and the baseline input in
one call on the 2 x m array [x, baseline]. The model reads its own
predictions, so the run's step sees only the predicted class of x and
the detector's diff, never a raw prediction; training on the label
follows the step. Each stream's whole feature matrix is scaled into the
unit box once, before the first step (by its declared ranges, or else
its column min and max), and the engine steps its rows, so that the
tree's similarity threshold means the same thing on every stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attribution import AttributionTracker, attribute_linear
from .baseline import EwmaBaseline
from .config import DetectorConfig
from .evaluation import DetectorRunner, DdmDetector
from .models import GaussianNaiveBayes, OnlineLogisticRegression
from .stream import StreamSource, as_integer, scaled
from .tree import SCOPE_GLOBAL, AdaptiveClusterTree, DriftAlert

TRACKING_POLICIES = ("cdleeds", "never")


def build_model(config: DetectorConfig, n_features: int, n_classes: int):
    """The online classifier ``config.model`` names, sized for the stream."""
    if config.model == "gnb":
        if n_classes == 1:  # labels are class ids from 0, so a one-class stream's are all 0
            raise ValueError("model 'gnb' needs at least two classes; every label of this stream is 0")
        return GaussianNaiveBayes(n_features, n_classes)
    if n_classes > 2:
        raise ValueError(f"logreg handles binary streams only, got {n_classes} classes")
    return OnlineLogisticRegression(n_features, learning_rate=config.learning_rate)


def _prequential(stream: StreamSource, clf, baseline: EwmaBaseline | None = None):
    """Test-then-train over the stream, scaled into the unit box.

    Yields ``(item, predicted_class, diff)`` for every step t >= 1: the
    scaled observation, the class the model predicts for ``item.x``
    before it trains on ``item``, and, with a ``baseline`` (updated with
    ``item.x`` first; step 0 seeds it), the detector's input
    ``clf.detector_input`` reads from the one ``predict`` call of x and
    the baseline input, else None. Training happens when the consumer
    asks for the next step, and reuses that prediction.
    """
    for item in scaled(stream):
        x = item.x
        if baseline is not None:
            ewma = baseline.update(x)
        prediction = None
        if item.t:
            if baseline is None:
                prediction, diff = clf.predict(x), None
            else:
                prediction, baseline_prediction = clf.predict(np.array((x, ewma)))
                diff = clf.detector_input(prediction, baseline_prediction)
            yield item, clf.predicted_class(prediction), diff
        clf.update(x, item.y, prediction)


class _ChangeDetector:
    """The monitored model, its EWMA baseline, and the cluster tree."""

    def __init__(self, config: DetectorConfig, stream: StreamSource):
        self.clf = build_model(config, stream.n_features, stream.n_classes)
        self.baseline = EwmaBaseline(config.beta)
        self.tree = AdaptiveClusterTree(stream.n_features, config)

    def detect(self, x: np.ndarray, diff: float, t: int) -> list[DriftAlert]:
        """Local and global alerts of step t, given the detector's input at x."""
        alerts = self.tree.update(x, diff, t)
        global_alert = self.tree.test_global_change()
        if global_alert is not None:
            alerts.append(global_alert)
        return alerts


@dataclass(frozen=True)
class RunResult:
    """Everything a detection run produces, timing kept separate."""

    alerts: tuple[DriftAlert, ...]
    # (t, node_count) at step 1 and at every step whose node count differs from the step before
    node_counts: tuple[tuple[int, int], ...]
    accuracy: float
    steps: int
    mean_update_seconds: float
    total_seconds: float

    @property
    def global_alert_steps(self) -> list[int]:
        return sorted({a.t for a in self.alerts if a.scope == SCOPE_GLOBAL})


def run_detection(stream: StreamSource, **settings) -> RunResult:
    """Run the change detector prequentially over a labeled stream.

    ``settings`` are ``DetectorConfig`` fields; the rest keep their
    defaults. The first observation only trains the model and seeds the
    baseline; detection starts at step 1 so that the detector always
    sees a model that has been trained at least once. The tree's node
    count is kept only at step 1 and at the steps where it changes
    (``RunResult.node_counts``), so a long run holds no per-step record.
    """
    config = DetectorConfig(**settings)
    detector = _ChangeDetector(config, stream)
    tree = detector.tree
    alerts: list[DriftAlert] = []
    node_counts: list[tuple[int, int]] = []
    last_count = 0  # the tree holds a node after step 1, so step 1 is always kept
    correct = 0
    steps = 0
    detector_seconds = 0.0
    started = time.perf_counter()
    for item, predicted_class, diff in _prequential(stream, detector.clf, detector.baseline):
        t = item.t
        correct += predicted_class == item.y
        steps += 1
        tick = time.perf_counter()
        alerts.extend(detector.detect(item.x, diff, t))
        detector_seconds += time.perf_counter() - tick
        if tree.node_count != last_count:
            last_count = tree.node_count
            node_counts.append((t, last_count))
    total_seconds = time.perf_counter() - started
    return RunResult(
        alerts=tuple(alerts),
        node_counts=tuple(node_counts),
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
    ``policy``: ``cdleeds`` recomputes the rows the tracker flags stale
    (leaf change or local alert), ``never`` keeps each first attribution.
    With ``oracle`` on, the recompute-every-step attribution of each
    tracked row is computed each step, and the deviation of the stored
    ``phis`` from it is accumulated streamingly. ``settings`` are
    ``DetectorConfig`` fields; the model must be the linear ``logreg``.
    """
    config = DetectorConfig(**settings)
    if config.model != "logreg":
        raise ValueError(f"attribution tracking needs the linear model 'logreg', got {config.model!r}")
    if policy not in TRACKING_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {TRACKING_POLICIES}")
    sample_size = as_integer(sample_size, "sample_size")
    sample_prefix = as_integer(sample_prefix, "sample_prefix")
    seed = as_integer(seed, "seed")
    if sample_size < 0:
        raise ValueError(f"sample_size must be >= 0, got {sample_size}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    prefix_end = min(sample_prefix, stream.length)
    if sample_size >= prefix_end:
        raise ValueError(
            f"sample_size {sample_size} does not fit the stream prefix [1, {prefix_end})"
        )
    detector = _ChangeDetector(config, stream)
    clf = detector.clf
    tracker = AttributionTracker(detector.tree)
    rng = np.random.default_rng(seed)
    pin_steps = {int(v) + 1 for v in rng.choice(prefix_end - 1, size=sample_size, replace=False)}
    dev_sum = 0.0
    dev_count = 0
    oracle_min = np.inf
    oracle_max = -np.inf
    detector_seconds = 0.0
    steps = 0
    started = time.perf_counter()
    for item, _, diff in _prequential(stream, clf, detector.baseline):
        t, x = item.t, item.x
        steps += 1
        tick = time.perf_counter()
        alerts = detector.detect(x, diff, t)
        base_vec = detector.baseline.ewma
        stale = tracker.step(alerts) if policy == "cdleeds" and tracker.history else []
        for row, reason in stale:
            tracker.refresh(row, attribute_linear(clf, tracker.xs[row], base_vec, t), reason)
        if t in pin_steps:
            tracker.track(x, attribute_linear(clf, x, base_vec, t))
        detector_seconds += time.perf_counter() - tick
        if oracle and tracker.history:
            oracle_phi = clf.weights * (tracker.xs - base_vec)
            oracle_min = min(oracle_min, float(oracle_phi.min()))
            oracle_max = max(oracle_max, float(oracle_phi.max()))
            # add the row sums one at a time in row order; summing them first would round differently
            for row_sum in np.abs(tracker.phis - oracle_phi).sum(axis=1).tolist():
                dev_sum += row_sum
            dev_count += oracle_phi.size
    total_seconds = time.perf_counter() - started
    last_t = stream.length - 1
    if tracker.history:
        reductions = [1.0 - len(events) / (last_t - events[0][1].t + 1) for events in tracker.history]
        reduction_pct = 100.0 * float(np.mean(reductions))
    else:
        reduction_pct = None
    mean_abs_deviation = dev_sum / dev_count if dev_count else None
    oracle_range = float(oracle_max - oracle_min) if dev_count else None
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
        trace=tuple(tracker.trace_rows()),
        mean_update_seconds=detector_seconds / steps if steps else 0.0,
        total_seconds=total_seconds,
    )


def cdleeds_runner(**settings) -> DetectorRunner:
    """Benchmark runner scoring the tree's global alerts.

    ``settings`` are ``DetectorConfig`` fields, as for ``run_detection``,
    checked when the runner is built.
    """
    DetectorConfig(**settings)

    def run(stream: StreamSource) -> tuple[list[int], float]:
        result = run_detection(stream, **settings)
        return result.global_alert_steps, result.mean_update_seconds

    return run


def ddm_runner(**settings) -> DetectorRunner:
    """Benchmark runner for the error-rate baseline detector.

    ``settings`` are ``DetectorConfig`` fields, checked when the runner
    is built; DDM uses only ``model`` and ``learning_rate``.
    """
    config = DetectorConfig(**settings)

    def run(stream: StreamSource) -> tuple[list[int], float]:
        clf = build_model(config, stream.n_features, stream.n_classes)
        ddm = DdmDetector()
        alerts: list[int] = []
        detector_seconds = 0.0
        steps = 0
        for item, predicted_class, _ in _prequential(stream, clf):
            steps += 1
            is_correct = predicted_class == item.y
            tick = time.perf_counter()
            if ddm.update(is_correct):
                alerts.append(item.t)
            detector_seconds += time.perf_counter() - tick
        return alerts, detector_seconds / steps if steps else 0.0

    return run
