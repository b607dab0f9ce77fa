"""Linear attribution identities and the lazy recomputation tracker."""

import numpy as np
import pytest

from driftscope.attribution import (
    REASON_INITIAL,
    REASON_LEAF_CHANGE,
    REASON_LOCAL_ALERT,
    AttributionRecord,
    AttributionTracker,
    AttributionVector,
    attribute_linear,
    trace_rows,
    verify_local_accuracy,
)
from driftscope.models import GaussianNaiveBayes, OnlineLogisticRegression
from driftscope.pipeline import run_tracking
from driftscope.stream import BufferedStream, Observation
from driftscope.tree import AdaptiveClusterTree, DriftAlert, SCOPE_LOCAL, KIND_CHANGE_TEST


def _model(weights, bias):
    model = OnlineLogisticRegression(n_features=len(weights))
    model.weights = np.asarray(weights, dtype=float)
    model.bias = float(bias)
    return model


class TestAttributeLinear:
    def test_hand_worked_example(self):
        model = _model([2.0, -1.0], 0.5)
        vec = attribute_linear(model, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert np.array_equal(vec.phi, np.array([2.0, -1.0]))
        assert vec.phi0 == 0.5
        assert vec.total() == pytest.approx(1.5)
        assert vec.total() == pytest.approx(model.margin(np.array([1.0, 1.0])))

    def test_baseline_equals_input_gives_zero_phi(self):
        model = _model([0.3, -0.7, 2.0], -1.2)
        x = np.array([0.4, 0.5, 0.6])
        vec = attribute_linear(model, x, x.copy())
        assert np.array_equal(vec.phi, np.zeros(3))
        assert vec.phi0 == pytest.approx(model.margin(x))

    def test_additivity_holds_on_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            m = int(rng.integers(1, 8))
            model = _model(rng.normal(size=m) * 10, rng.normal() * 10)
            x = rng.normal(size=m) * 5
            baseline = rng.normal(size=m) * 5
            vec = attribute_linear(model, x, baseline)
            assert abs(vec.total() - model.margin(x)) < 1e-9

    def test_margin_shift_equals_attribution_shift(self):
        # If the model moves between two computations, the two stored
        # totals differ by exactly the margin difference.
        rng = np.random.default_rng(1)
        model = OnlineLogisticRegression(n_features=3)
        x = np.array([0.2, 0.8, 0.5])
        baseline = np.array([0.5, 0.5, 0.5])
        for _ in range(50):
            model.update(rng.random(3), int(rng.integers(0, 2)))
        before = attribute_linear(model, x, baseline, t=50)
        margin_before = model.margin(x)
        for _ in range(50):
            model.update(rng.random(3), int(rng.integers(0, 2)))
        after = attribute_linear(model, x, baseline, t=100)
        margin_after = model.margin(x)
        assert margin_after != margin_before
        assert after.total() - before.total() == pytest.approx(
            margin_after - margin_before, abs=1e-9
        )

    def test_rejects_length_mismatch(self):
        model = _model([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="shape mismatch"):
            attribute_linear(model, np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.0]))

    def test_rejects_nonlinear_model(self):
        nb = GaussianNaiveBayes(n_features=2, n_classes=2)
        with pytest.raises(TypeError, match="linear model"):
            attribute_linear(nb, np.zeros(2), np.zeros(2))


class TestVerifyLocalAccuracy:
    def test_fresh_attribution_verifies(self):
        model = _model([1.5, -0.5], 0.2)
        x = np.array([0.9, 0.1])
        vec = attribute_linear(model, x, np.array([0.5, 0.5]))
        assert verify_local_accuracy(model, x, vec)

    def test_weight_perturbation_breaks_verification(self):
        model = _model([1.5, -0.5], 0.2)
        x = np.array([0.9, 0.1])
        vec = attribute_linear(model, x, np.array([0.5, 0.5]))
        model.weights[0] += 0.01
        assert not verify_local_accuracy(model, x, vec)

    def test_zero_model_verifies_anywhere(self):
        model = _model([0.0, 0.0], 0.0)
        vec = attribute_linear(model, np.array([3.0, -4.0]), np.array([1.0, 1.0]))
        assert np.array_equal(vec.phi, np.zeros(2))
        assert vec.phi0 == 0.0
        assert verify_local_accuracy(model, np.array([3.0, -4.0]), vec)

    def test_rejects_nonpositive_tolerance(self):
        model = _model([1.0], 0.0)
        vec = attribute_linear(model, np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="positive"):
            verify_local_accuracy(model, np.array([1.0]), vec, tol=0.0)


def _tracker(n_features=1, window=8):
    tree = AdaptiveClusterTree(n_features=n_features, window=window)
    model = OnlineLogisticRegression(n_features=n_features)
    model.weights = np.full(n_features, 0.8)
    model.bias = -0.1
    return AttributionTracker(model, tree), tree


class TestAttributionTracker:
    def test_rejects_nonlinear_model(self):
        tree = AdaptiveClusterTree(n_features=2, window=8)
        with pytest.raises(TypeError, match="linear model"):
            AttributionTracker(GaussianNaiveBayes(n_features=2, n_classes=2), tree)

    def test_initial_computation_is_logged(self):
        tracker, tree = _tracker()
        tree.update(np.array([0.5]), 0.0, 0)
        record = tracker.track(Observation(0, np.array([0.5])), np.array([0.5]), 0)
        assert record.log == [(0, REASON_INITIAL)]
        assert record.recompute_count == 1
        assert verify_local_accuracy(tracker.model, record.obs.x, record.current)

    def test_stationary_stream_never_recomputes(self):
        tracker, tree = _tracker(window=8)
        baseline = np.array([0.5])
        tree.update(np.array([0.5]), 0.0, 0)
        record = tracker.track(Observation(0, np.array([0.5])), baseline, 0)
        for t in range(1, 60):
            alerts = tree.update(np.array([0.5]), 0.0, t)
            tracker.step(alerts, baseline, t)
        assert record.log == [(0, REASON_INITIAL)]

    def test_split_triggers_leaf_change(self):
        tracker, tree = _tracker(window=8)
        baseline = np.array([0.0])
        tree.update(np.array([0.0]), 0.0, 0)
        record = tracker.track(Observation(0, np.array([0.0])), baseline, 0)
        old_leaf = record.leaf_id
        alerts = tree.update(np.array([1.0]), 0.0, 1)  # far point forces a split
        recomputed = tracker.step(alerts, baseline, 1)
        assert recomputed == [record]
        assert record.log[-1] == (1, REASON_LEAF_CHANGE)
        assert record.leaf_id != old_leaf
        assert record.leaf_id == tree.find_leaf(np.array([0.0])).node_id

    def test_local_alert_triggers_recompute(self):
        tracker, tree = _tracker(window=4)
        baseline = np.array([0.5])
        diffs = [0.0, 0.0, 5.0, 5.0]
        alerts = tree.update(np.array([0.5]), diffs[0], 0)
        record = tracker.track(Observation(0, np.array([0.5])), baseline, 0)
        logged = []
        for t in range(1, 4):
            alerts = tree.update(np.array([0.5]), diffs[t], t)
            tracker.step(alerts, baseline, t)
            logged.extend(a for a in alerts if a.scope == SCOPE_LOCAL)
        assert len(logged) == 1
        assert record.log[-1] == (3, REASON_LOCAL_ALERT)

    def test_leaf_change_wins_over_simultaneous_alert(self):
        tracker, tree = _tracker(window=8)
        baseline = np.array([0.0])
        tree.update(np.array([0.0]), 0.0, 0)
        record = tracker.track(Observation(0, np.array([0.0])), baseline, 0)
        tree.update(np.array([1.0]), 0.0, 1)
        new_leaf = tree.find_leaf(np.array([0.0]))
        fake = DriftAlert(
            t=1, scope=SCOPE_LOCAL, p_value=0.001, kind=KIND_CHANGE_TEST, node_id=new_leaf.node_id
        )
        tracker.step([fake], baseline, 1)
        assert record.log[-1] == (1, REASON_LEAF_CHANGE)

    def test_alert_on_other_leaf_is_ignored(self):
        tracker, tree = _tracker(window=8)
        baseline = np.array([0.0])
        tree.update(np.array([0.0]), 0.0, 0)
        tree.update(np.array([1.0]), 0.0, 1)
        record = tracker.track(Observation(0, np.array([0.0])), baseline, 1)
        other = tree.find_leaf(np.array([1.0]))
        fake = DriftAlert(
            t=2, scope=SCOPE_LOCAL, p_value=0.001, kind=KIND_CHANGE_TEST, node_id=other.node_id
        )
        tree.update(np.array([0.0]), 0.0, 2)
        assert tracker.step([fake], baseline, 2) == []
        assert record.log == [(1, REASON_INITIAL)]

    def test_identical_runs_produce_identical_logs(self):
        def run():
            rng = np.random.default_rng(7)
            tracker, tree = _tracker(window=8)
            baseline = np.array([0.5])
            record = None
            for t in range(120):
                x = rng.random(1)
                diff = 0.0 if t < 60 else rng.normal(2.0, 0.1)
                alerts = tree.update(x, diff, t)
                if t == 0:
                    record = tracker.track(Observation(0, x), baseline, 0)
                else:
                    tracker.step(alerts, baseline, t)
            return record.log

        assert run() == run()

    def test_recompute_count_matches_log(self):
        tracker, tree = _tracker(window=4)
        baseline = np.array([0.5])
        rng = np.random.default_rng(3)
        alerts = tree.update(rng.random(1), 0.0, 0)
        record = tracker.track(Observation(0, np.array([0.2])), baseline, 0)
        for t in range(1, 80):
            alerts = tree.update(rng.random(1), rng.normal(), t)
            tracker.step(alerts, baseline, t)
        assert record.recompute_count == len(record.log)
        assert len(record.history) == len(record.log)


def _record(phis, times):
    history = [
        AttributionVector(phi=np.asarray(p, dtype=float), phi0=0.0, t=t)
        for p, t in zip(phis, times)
    ]
    reasons = [REASON_INITIAL] + [REASON_LEAF_CHANGE] * (len(times) - 1)
    return AttributionRecord(
        obs=Observation(times[0], np.zeros(len(phis[0]))),
        current=history[-1],
        leaf_id=0,
        log=list(zip(times, reasons)),
        history=history,
    )


def _tiny_stream(rows):
    features = np.asarray(rows, dtype=float)
    labels = np.arange(len(rows), dtype=np.int64) % 2
    return BufferedStream(
        features=features,
        labels=labels,
        feature_ranges=((0.0, 1.0),) * features.shape[1],
    )


class TestRecomputeMetrics:
    """The reduction and deviation scores of ``run_tracking``'s streaming oracle."""

    def test_every_step_policy_scores_zero_reduction(self):
        stream = _tiny_stream(np.random.default_rng(5).random((20, 2)))
        result = run_tracking(stream, sample_size=3, sample_prefix=10, policy="always", seed=1)
        # every tracked observation is recomputed at each step from its pin on
        pins = {t for t, _, _, _, reason in result.trace if reason == REASON_INITIAL}
        assert len(pins) == 3
        assert len(result.trace) == 2 * sum(stream.length - t for t in pins)
        assert result.reduction_pct == 0.0
        assert result.mean_abs_deviation == 0.0

    def test_never_recompute_on_frozen_model(self):
        n = 200
        stream = _tiny_stream(np.random.default_rng(6).random((n, 2)))
        # learning_rate 0 freezes the model, beta 0 freezes the baseline
        result = run_tracking(
            stream, sample_size=4, sample_prefix=50, policy="never", seed=3,
            learning_rate=0.0, beta=0.0,
        )
        pins = sorted(t for t, _, j, _, _ in result.trace if j == 0)
        assert len(pins) == 4
        expected = np.mean([1.0 - 1.0 / (n - t) for t in pins])
        assert result.reduction_pct == pytest.approx(100.0 * expected)
        assert result.mean_abs_deviation == 0.0

    def test_deviation_averages_stored_minus_oracle(self):
        rows = [[0.5, 0.5], [0.9, 0.1], [0.2, 0.8], [0.7, 0.6], [0.1, 0.3], [0.4, 0.9]]
        # one tracked slot, pinned at step 1; beta 0 holds the baseline at step 0's x
        result = run_tracking(
            _tiny_stream(rows), sample_size=1, sample_prefix=2, policy="never", beta=0.0
        )
        assert [row[0] for row in result.trace] == [1, 1]
        stored = np.array([row[3] for row in result.trace])
        x0, x1 = np.asarray(rows[0]), np.asarray(rows[1])
        clf = OnlineLogisticRegression(2, learning_rate=0.1)
        clf.update(x0, 0)
        assert stored == pytest.approx(clf.weights * (x1 - x0))
        deviations = []
        for t in range(1, len(rows)):
            deviations.extend(np.abs(stored - clf.weights * (x1 - x0)))
            clf.update(np.asarray(rows[t]), t % 2)
        # the stored value is exact at its pin step and drifts away after it
        assert deviations[:2] == [0.0, 0.0]
        assert result.mean_abs_deviation == pytest.approx(np.mean(deviations))
        assert result.mean_abs_deviation > 0.0


class TestTraceRows:
    def test_rows_cover_each_recompute_event(self):
        record = _record([[1.0, 2.0], [3.0, 4.0]], [0, 5])
        rows = list(trace_rows([record]))
        assert rows == [
            (0, 0, 0, 1.0, REASON_INITIAL),
            (0, 0, 1, 2.0, REASON_INITIAL),
            (5, 0, 0, 3.0, REASON_LEAF_CHANGE),
            (5, 0, 1, 4.0, REASON_LEAF_CHANGE),
        ]
