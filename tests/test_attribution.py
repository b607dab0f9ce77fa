"""Linear attribution identities and the lazy recomputation tracker."""

import numpy as np
import pytest

from driftscope.attribution import (
    REASON_INITIAL,
    REASON_LEAF_CHANGE,
    REASON_LOCAL_ALERT,
    AttributionTracker,
    AttributionVector,
    attribute_linear,
)
from driftscope.config import DetectorConfig
from driftscope.models import GaussianNaiveBayes, OnlineLogisticRegression
from driftscope.pipeline import run_tracking
from driftscope.stream import BufferedStream
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
    # local accuracy: a stored attribution adds up to the model's margin at x
    def test_fresh_attribution_verifies(self):
        model = _model([1.5, -0.5], 0.2)
        x = np.array([0.9, 0.1])
        vec = attribute_linear(model, x, np.array([0.5, 0.5]))
        assert vec.total() == pytest.approx(model.margin(x), abs=1e-9)

    def test_weight_perturbation_breaks_verification(self):
        model = _model([1.5, -0.5], 0.2)
        x = np.array([0.9, 0.1])
        vec = attribute_linear(model, x, np.array([0.5, 0.5]))
        model.weights[0] += 0.01
        assert abs(vec.total() - model.margin(x)) > 1e-9

    def test_zero_model_verifies_anywhere(self):
        model = _model([0.0, 0.0], 0.0)
        x = np.array([3.0, -4.0])
        vec = attribute_linear(model, x, np.array([1.0, 1.0]))
        assert np.array_equal(vec.phi, np.zeros(2))
        assert vec.phi0 == 0.0
        assert vec.total() == model.margin(x) == 0.0


def _tracker(n_features=1, window=8):
    tree = AdaptiveClusterTree(n_features, DetectorConfig(window=window))
    return AttributionTracker(tree), tree


def _vec(t, n_features=1):
    return AttributionVector(phi=np.zeros(n_features), phi0=0.0, t=t)


class TestAttributionTracker:
    def test_initial_computation_is_logged(self):
        tracker, tree = _tracker()
        tree.update(np.array([0.5]), 0.0, 0)
        vec = AttributionVector(phi=np.array([0.25]), phi0=0.0, t=0)
        assert tracker.track(np.array([0.5]), vec) == 0
        assert tracker.xs.tolist() == [[0.5]]
        assert tracker.phis.tolist() == [[0.25]]
        assert tracker.history == [[(REASON_INITIAL, vec)]]
        assert tracker.history[0][-1][1] is vec
        assert tracker.leaf_ids.tolist() == [tree.find_leaf(np.array([0.5])).node_id]

    def test_stationary_stream_never_recomputes(self):
        tracker, tree = _tracker(window=8)
        tree.update(np.array([0.5]), 0.0, 0)
        row = tracker.track(np.array([0.5]), _vec(0))
        leaf_ids = tracker.leaf_ids.tolist()
        for t in range(1, 60):
            alerts = tree.update(np.array([0.5]), 0.0, t)
            assert tracker.step(alerts) == []
        assert tracker.leaf_ids.tolist() == leaf_ids
        assert [reason for reason, _ in tracker.history[row]] == [REASON_INITIAL]

    def test_split_triggers_leaf_change(self):
        tracker, tree = _tracker(window=8)
        tree.update(np.array([0.0]), 0.0, 0)
        row = tracker.track(np.array([0.0]), _vec(0))
        old_leaf = tracker.leaf_ids[row]
        alerts = tree.update(np.array([1.0]), 0.0, 1)  # far point forces a split
        assert tracker.step(alerts) == [(row, REASON_LEAF_CHANGE)]
        assert tracker.leaf_ids[row] != old_leaf
        assert tracker.leaf_ids[row] == tree.find_leaf(np.array([0.0])).node_id
        # flagging is not refreshing: only the caller's refresh stores a vector
        assert [reason for reason, _ in tracker.history[row]] == [REASON_INITIAL]
        assert tracker.step([]) == []

    def test_local_alert_triggers_recompute(self):
        tracker, tree = _tracker(window=4)
        diffs = [0.0, 0.0, 5.0, 5.0]
        tree.update(np.array([0.5]), diffs[0], 0)
        row = tracker.track(np.array([0.5]), _vec(0))
        flagged = []
        logged = []
        for t in range(1, 4):
            alerts = tree.update(np.array([0.5]), diffs[t], t)
            flagged.extend((t, stale, reason) for stale, reason in tracker.step(alerts))
            logged.extend(a for a in alerts if a.scope == SCOPE_LOCAL)
        assert len(logged) == 1
        assert flagged == [(3, row, REASON_LOCAL_ALERT)]
        assert tracker.leaf_ids[row] == logged[0].node_id

    def test_leaf_change_wins_over_simultaneous_alert(self):
        tracker, tree = _tracker(window=8)
        tree.update(np.array([0.0]), 0.0, 0)
        row = tracker.track(np.array([0.0]), _vec(0))
        tree.update(np.array([1.0]), 0.0, 1)
        new_leaf = tree.find_leaf(np.array([0.0]))
        fake = DriftAlert(
            t=1, scope=SCOPE_LOCAL, p_value=0.001, kind=KIND_CHANGE_TEST, node_id=new_leaf.node_id
        )
        assert tracker.step([fake]) == [(row, REASON_LEAF_CHANGE)]
        assert tracker.leaf_ids[row] == new_leaf.node_id
        # the next alert at the same leaf is a local alert
        assert tracker.step([fake]) == [(row, REASON_LOCAL_ALERT)]

    def test_alert_on_other_leaf_is_ignored(self):
        tracker, tree = _tracker(window=8)
        tree.update(np.array([0.0]), 0.0, 0)
        tree.update(np.array([1.0]), 0.0, 1)
        vec = _vec(1)
        row = tracker.track(np.array([0.0]), vec)
        other = tree.find_leaf(np.array([1.0]))
        fake = DriftAlert(
            t=2, scope=SCOPE_LOCAL, p_value=0.001, kind=KIND_CHANGE_TEST, node_id=other.node_id
        )
        tree.update(np.array([0.0]), 0.0, 2)
        assert tracker.step([fake]) == []
        assert tracker.history[row] == [(REASON_INITIAL, vec)]

    def test_stale_records_come_in_record_order(self):
        tracker, tree = _tracker(window=8)
        tree.update(np.array([0.0]), 0.0, 0)
        rows = [tracker.track(np.array([x]), _vec(0)) for x in (0.1, 0.9, 0.0)]
        assert rows == [0, 1, 2]
        assert tracker.xs.tolist() == [[0.1], [0.9], [0.0]]
        tree.update(np.array([1.0]), 0.0, 1)  # the split moves every row
        assert [row for row, _ in tracker.step([])] == rows

    def test_identical_runs_produce_identical_logs(self):
        def run():
            rng = np.random.default_rng(7)
            tracker, tree = _tracker(window=8)
            for t in range(120):
                x = rng.random(1)
                diff = 0.0 if t < 60 else rng.normal(2.0, 0.1)
                alerts = tree.update(x, diff, t)
                if t < 3:
                    tracker.track(x, _vec(t))
                else:
                    for row, reason in tracker.step(alerts):
                        tracker.refresh(row, _vec(t), reason)
            return [[(vec.t, reason) for reason, vec in events] for events in tracker.history]

        first = run()
        assert first == run()
        assert any(len(events) > 1 for events in first)

    def test_cached_routing_matches_a_fresh_walk(self):
        # a deep tree that splits, prunes and alerts, with a row pinned every 40 steps
        tree = AdaptiveClusterTree(2, DetectorConfig(window=8, max_depth=None))
        tracker = AttributionTracker(tree)
        rng = np.random.default_rng(5)

        def walk(x):  # the nearer child by 1-D dot products at each node, ties left
            node = tree.root
            while not node.is_leaf:
                dl = x - node.left.centroid
                dr = x - node.right.centroid
                node = node.left if float(dl @ dl) <= float(dr @ dr) else node.right
            return node.node_id

        walked, reasons, node_sets = [], [], [set()]
        for t in range(2000):
            corner = (t // 250) % 4  # traffic moves round the corners, so branches starve
            x = rng.uniform(0, 0.6, 2) + 0.4 * np.array([corner % 2, corner // 2])
            alerts = tree.update(x, rng.normal(3.0 if (t // 100) % 3 == 0 else 0.0, 0.5), t)
            stale = tracker.step(alerts)
            leaves = [walk(row) for row in tracker.xs]
            alerted = {a.node_id for a in alerts if a.scope == SCOPE_LOCAL}
            assert stale == [
                (row, REASON_LEAF_CHANGE if leaf != walked[row] else REASON_LOCAL_ALERT)
                for row, leaf in enumerate(leaves)
                if leaf != walked[row] or leaf in alerted
            ]
            assert tracker.leaf_ids.tolist() == leaves
            walked = leaves
            reasons.extend(reason for _, reason in stale)
            node_sets.append({node.node_id for node in tree.nodes})
            if t % 40 == 0:
                tracker.track(x, _vec(t, n_features=2))
                walked.append(walk(x))
        assert len(walked) == 50
        assert {REASON_LEAF_CHANGE, REASON_LOCAL_ALERT} <= set(reasons)
        steps = list(zip(node_sets, node_sets[1:]))
        assert any(now - before for before, now in steps)  # splits
        assert any(before - now for before, now in steps)  # prunes

    @pytest.mark.parametrize(
        "m, max_depth", [(1, None), (2, None), (9, None), (2, 0)], ids=["m1", "m2", "m9", "root-only"]
    )
    def test_skipped_repeated_and_interleaved_calls_match_a_fresh_walk(self, m, max_depth):
        # step skipped for several writes, called twice with no write between, and track called between
        # a write and the next step, each checked against the same independent walk as above
        tree = AdaptiveClusterTree(m, DetectorConfig(window=8, max_depth=max_depth))
        tracker = AttributionTracker(tree)
        rng = np.random.default_rng(60 + m)

        def walk(x):
            node = tree.root
            while not node.is_leaf:
                dl = x - node.left.centroid
                dr = x - node.right.centroid
                node = node.left if float(dl @ dl) <= float(dr @ dr) else node.right
            return node.node_id

        walked, reasons, calls = [], [], {"skip": 0, "twice": 0, "between": 0}
        for t in range(1500):
            corner = (t // 250) % 4
            x = rng.uniform(0, 0.6, m) + 0.4 * np.array([corner % 2, corner // 2] + [0] * m)[:m]
            reshapes = tree.reshapes
            alerts = tree.update(x, rng.normal(3.0 if (t // 100) % 3 == 0 else 0.0, 0.5), t)
            if t % 50 == 0 or (tree.reshapes != reshapes and t % 3 == 0):  # some rows arrive on a split or prune
                calls["between"] += tracker.history != []
                tracker.track(x, _vec(t, n_features=m))
                walked.append(walk(x))
            action = rng.random()
            calls["skip"] += action < 0.15
            calls["twice"] += action > 0.9
            for _ in range(0 if action < 0.15 else 2 if action > 0.9 else 1):
                stale = tracker.step(alerts)
                leaves = [walk(row) for row in tracker.xs]
                alerted = {a.node_id for a in alerts if a.scope == SCOPE_LOCAL}
                assert stale == [
                    (row, REASON_LEAF_CHANGE if leaf != walked[row] else REASON_LOCAL_ALERT)
                    for row, leaf in enumerate(leaves)
                    if leaf != walked[row] or leaf in alerted
                ]
                assert tracker.leaf_ids.tolist() == leaves
                walked = leaves
                reasons.extend(reason for _, reason in stale)
        assert min(calls.values()) > 20
        assert REASON_LOCAL_ALERT in reasons
        assert (REASON_LEAF_CHANGE in reasons) == (max_depth is None)
        assert (tree.node_count == 1) == (max_depth == 0)

    def test_recompute_count_matches_log(self):
        tracker, tree = _tracker(window=4)
        rng = np.random.default_rng(3)
        tree.update(rng.random(1), 0.0, 0)
        row = tracker.track(np.array([0.2]), _vec(0))
        for t in range(1, 80):
            alerts = tree.update(rng.random(1), rng.normal(), t)
            for stale, reason in tracker.step(alerts):
                vec = AttributionVector(phi=np.array([float(t)]), phi0=0.0, t=t)
                tracker.refresh(stale, vec, reason)
        events = tracker.history[row]
        assert len(events) > 1
        assert events[0][0] == REASON_INITIAL and events[0][1].t == 0
        assert [vec.t for _, vec in events] == sorted({vec.t for _, vec in events})
        assert all(reason != REASON_INITIAL for reason, _ in events[1:])
        # the stored phi the oracle compares against is the last vector stored
        assert tracker.phis[row].tolist() == events[-1][1].phi.tolist()

    def test_rejected_track_changes_no_row(self):
        tracker, tree = _tracker(n_features=2)
        tree.update(np.array([0.5, 0.5]), 0.0, 0)
        tracker.track(np.array([0.5, 0.5]), _vec(0, n_features=2))
        for x, vec in ((np.array([0.1, 0.9]), _vec(1)), (np.array([0.1]), _vec(1, n_features=2))):
            with pytest.raises(ValueError):
                tracker.track(x, vec)
        # leaf ids, vectors, phis and histories stay one row each, so a later step names only storable rows
        assert len(tracker.leaf_ids) == len(tracker.xs) == len(tracker.phis) == len(tracker.history) == 1
        tree.update(np.array([0.1, 0.9]), 0.0, 1)
        assert all(row == 0 for row, _ in tracker.step([]))

    def test_rejected_refresh_changes_no_row(self):
        tracker, tree = _tracker(n_features=2)
        tree.update(np.array([0.5, 0.5]), 0.0, 0)
        row = tracker.track(np.array([0.5, 0.5]), AttributionVector(np.array([1.0, 2.0]), 0.0, 0))
        with pytest.raises(ValueError, match=r"expected phi of shape \(2,\), got \(1,\)"):
            tracker.refresh(row, AttributionVector(np.array([5.0]), 0.0, 1), REASON_LOCAL_ALERT)
        # the phi the oracle reads and the history attributions.csv writes still agree
        assert tracker.phis[row].tolist() == tracker.history[row][-1][1].phi.tolist() == [1.0, 2.0]
        assert len(tracker.history[row]) == 1

    @pytest.mark.parametrize(
        "row, message",
        [(-1, r"^row must lie in \[0, 2\), got -1$"), (2, r"^row must lie in \[0, 2\), got 2$"),
         (1.0, r"^row must be an integer, got 1\.0$"), (True, r"^row must be an integer, got True$")],
    )
    def test_refresh_of_a_row_not_tracked_changes_no_row(self, row, message):
        tracker, tree = _tracker(n_features=2)
        tree.update(np.array([0.5, 0.5]), 0.0, 0)
        for t, x in enumerate(([0.5, 0.5], [0.1, 0.9])):
            tracker.track(np.array(x), AttributionVector(np.array([1.0, 2.0]) + t, 0.0, t))
        with pytest.raises(ValueError, match=message):
            tracker.refresh(row, AttributionVector(np.array([5.0, 6.0]), 0.0, 3), REASON_LOCAL_ALERT)
        assert tracker.phis.tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert [len(history) for history in tracker.history] == [1, 1]

    @pytest.mark.parametrize("m", [1, 2])
    def test_step_on_empty_tree_rejected(self, m):
        tracker, tree = _tracker(n_features=m)
        with pytest.raises(ValueError) as read:
            tree.find_leaf(np.zeros(m))
        with pytest.raises(ValueError) as step:
            tracker.step([])
        assert str(step.value) == str(read.value) == "tree is empty; update it with an observation first"


def _tracker_with_history(phis, times):
    """A one-row tracker whose row stored ``phis`` at ``times``, initial one first."""
    tracker, tree = _tracker(n_features=len(phis[0]))
    tree.update(np.zeros(len(phis[0])), 0.0, 0)
    vecs = [AttributionVector(phi=np.asarray(p, dtype=float), phi0=0.0, t=t) for p, t in zip(phis, times)]
    row = tracker.track(np.zeros(len(phis[0])), vecs[0])
    for vec in vecs[1:]:
        tracker.refresh(row, vec, REASON_LEAF_CHANGE)
    return tracker


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
        tracker = _tracker_with_history([[1.0, 2.0], [3.0, 4.0]], [0, 5])
        rows = list(tracker.trace_rows())
        assert rows == [
            (0, 0, 0, 1.0, REASON_INITIAL),
            (0, 0, 1, 2.0, REASON_INITIAL),
            (5, 0, 0, 3.0, REASON_LEAF_CHANGE),
            (5, 0, 1, 4.0, REASON_LEAF_CHANGE),
        ]

    def test_rows_come_row_by_row(self):
        tracker, tree = _tracker()
        tree.update(np.zeros(1), 0.0, 0)
        first = tracker.track(np.zeros(1), _vec(0))
        tracker.track(np.zeros(1), _vec(1))
        tracker.refresh(first, _vec(2), REASON_LOCAL_ALERT)
        assert [(t, row, reason) for t, row, _, _, reason in tracker.trace_rows()] == [
            (0, 0, REASON_INITIAL),
            (2, 0, REASON_LOCAL_ALERT),
            (1, 1, REASON_INITIAL),
        ]
