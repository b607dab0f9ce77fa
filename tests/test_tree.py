from __future__ import annotations

import math

import numpy as np
import pytest

from driftscope.numerics import rbf_similarity
from driftscope.tree import (
    KIND_CHANGE_TEST,
    KIND_PRUNE_RETEST,
    SCOPE_GLOBAL,
    SCOPE_LOCAL,
    AdaptiveClusterTree,
)


def _tree(m=1, gamma=0.95, alpha=0.01, window=8, max_age=1000, max_depth=5):
    return AdaptiveClusterTree(
        n_features=m, gamma=gamma, alpha=alpha, window=window, max_age=max_age, max_depth=max_depth
    )


def _feed(tree, xs, diffs=None, t0=0):
    alerts = []
    for k, x in enumerate(xs):
        d = 0.0 if diffs is None else diffs[k]
        alerts.extend(tree.update(np.atleast_1d(np.asarray(x, dtype=float)), d, t0 + k))
    return alerts


class TestTreeGrowth:
    def test_first_observation_creates_root_leaf(self):
        tree = _tree()
        tree.update(np.array([0.4]), 0.0, 0)
        assert tree.node_count == 1
        root = tree.root
        assert root.is_leaf
        assert root.age == 1
        assert root.size == 1
        assert root.centroid[0] == pytest.approx(0.4)

    def test_incoherent_window_splits_into_most_dissimilar_pair(self):
        tree = _tree()
        _feed(tree, [0.0, 1.0])
        root = tree.root
        assert not root.is_leaf
        assert tree.node_count == 3
        assert root.left.centroid[0] == pytest.approx(0.0)
        assert root.right.centroid[0] == pytest.approx(1.0)
        assert root.left.size == 1 and root.right.size == 1

    def test_replay_assigns_points_to_nearer_child(self):
        # {0, 0.1, 1}: the pair (0, 1) seeds the children; 0.1 replays
        # into the left child, whose centroid becomes the mean 0.05.
        tree = _tree()
        _feed(tree, [0.0, 0.1, 1.0])
        root = tree.root
        assert not root.is_leaf
        assert root.left.centroid[0] == pytest.approx(0.05)
        assert root.right.centroid[0] == pytest.approx(1.0)
        assert root.left.size == 2 and root.right.size == 1

    def test_children_inherit_parent_age(self):
        tree = _tree()
        _feed(tree, [0.0, 0.1, 1.0])
        root = tree.root
        assert root.age == 3
        assert root.left.age == 3
        assert root.right.age == 3

    def test_parent_keeps_window_after_split(self):
        tree = _tree()
        _feed(tree, [0.0, 0.1, 1.0])
        assert tree.root.size == 3

    def test_replay_preserves_original_time_steps(self):
        tree = _tree()
        _feed(tree, [0.0, 0.1, 1.0])
        _, _, ts_left = tree.root.left.entries_in_order()
        _, _, ts_right = tree.root.right.entries_in_order()
        assert ts_left.tolist() == [0, 1]
        assert ts_right.tolist() == [2]

    def test_max_depth_zero_never_splits(self):
        tree = _tree(max_depth=0)
        rng = np.random.default_rng(0)
        _feed(tree, rng.uniform(0, 1, size=50))
        assert tree.node_count == 1
        assert tree.root.is_leaf

    def test_split_condition_matches_similarity_threshold(self):
        # {0.0, 1.0} with centroid 0.5: sim = exp(-0.25) < 0.95 forces a split.
        assert rbf_similarity([0.0], [0.5]) == pytest.approx(0.7788, abs=1e-4)
        tree = _tree()
        _feed(tree, [0.0, 1.0])
        assert not tree.root.is_leaf

    def test_coherent_window_does_not_split(self):
        tree = _tree()
        _feed(tree, [0.50, 0.52, 0.48, 0.51])
        assert tree.root.is_leaf

    def test_window_evicts_oldest_when_full(self):
        tree = _tree(window=4, max_depth=0)
        _feed(tree, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        root = tree.root
        assert root.size == 4
        xs, _, ts = root.entries_in_order()
        assert ts.tolist() == [2, 3, 4, 5]
        np.testing.assert_allclose(xs[:, 0], [0.3, 0.4, 0.5, 0.6])
        assert root.centroid[0] == pytest.approx(0.45)

    def test_update_rejects_non_increasing_t(self):
        tree = _tree()
        tree.update(np.array([0.5]), 0.0, 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            tree.update(np.array([0.5]), 0.0, 3)

    def test_update_rejects_wrong_shape(self):
        tree = _tree(m=2)
        with pytest.raises(ValueError):
            tree.update(np.array([0.5]), 0.0, 0)


class TestFindLeaf:
    def test_descends_to_most_similar_leaf(self):
        tree = _tree()
        _feed(tree, [0.0, 1.0])
        assert tree.find_leaf(np.array([0.1])) is tree.root.left
        assert tree.find_leaf(np.array([0.9])) is tree.root.right

    def test_tie_goes_left(self):
        tree = _tree()
        _feed(tree, [0.0, 1.0])
        assert tree.find_leaf(np.array([0.5])) is tree.root.left

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            _tree().find_leaf(np.array([0.5]))

    def test_routing_matches_update_path(self):
        tree = _tree(m=2, window=8)
        rng = np.random.default_rng(12)
        xs = rng.uniform(0, 1, size=(300, 2))
        for t, x in enumerate(xs):
            target = tree.find_leaf(x) if tree.root is not None else None
            tree.update(x, 0.0, t)
            if target is not None and target.is_leaf:
                # the observation must have landed in the predicted leaf
                assert target._ts[(target._start + target.size - 1) % target._w] == t


class TestLocalChange:
    def test_constant_diffs_never_alert(self):
        tree = _tree(window=8, max_depth=0)
        alerts = _feed(tree, [0.5] * 30, diffs=[0.7] * 30)
        assert alerts == []
        assert tree.root.last_p == 1.0

    def test_mean_shift_alerts_and_clears_diff_history(self):
        tree = _tree(window=8, max_depth=0)
        alerts = _feed(tree, [0.5] * 8, diffs=[0.0] * 4 + [5.0] * 4)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.scope == SCOPE_LOCAL
        assert alert.kind == KIND_CHANGE_TEST
        assert alert.t == 7
        assert alert.node_id == tree.root.node_id
        assert alert.p_value < 0.01
        # diff history cleared: observations retained, no immediate re-test
        assert tree.root.test_len == 0
        assert tree.root.size == 8

    def test_no_realert_until_diff_window_refills(self):
        tree = _tree(window=8, max_depth=0)
        _feed(tree, [0.5] * 8, diffs=[0.0] * 4 + [5.0] * 4)
        followup = _feed(tree, [0.5] * 7, diffs=[5.0] * 7, t0=8)
        assert followup == []  # only 7 of 8 fresh diffs so far
        final = _feed(tree, [0.5], diffs=[5.0], t0=15)
        assert final == []  # refilled window is all 5.0, no shift left

    def test_noisy_shift_alert_has_plausible_p_value(self):
        rng = np.random.default_rng(3)
        tree = _tree(window=20, max_depth=0)
        diffs = np.concatenate([rng.normal(0, 0.1, 10), rng.normal(3.0, 0.1, 10)])
        alerts = _feed(tree, [0.5] * 20, diffs=diffs)
        assert len(alerts) == 1
        assert 0.0 <= alerts[0].p_value < 1e-6

    def test_partial_window_never_tests(self):
        tree = _tree(window=8, max_depth=0)
        _feed(tree, [0.5] * 7, diffs=[9.0, 9.0, 9.0, 0.0, 0.0, 0.0, 0.0])
        assert tree.root.last_p is None


class TestPrune:
    def _grow_two_cluster_tree(self, max_age=10):
        tree = _tree(window=8, max_age=max_age)
        xs = []
        for _ in range(20):
            xs.extend([0.2, 0.8])
        _feed(tree, xs)
        assert tree.node_count == 3
        return tree

    def test_stale_branch_pruned_within_max_age(self):
        tree = self._grow_two_cluster_tree(max_age=10)
        counts = []
        for k in range(12):
            tree.update(np.array([0.2]), 0.0, 40 + k)
            counts.append(tree.node_count)
        assert 1 in counts, "stale branch should be pruned within max_age updates"
        first_prune = counts.index(1)
        assert first_prune <= 10

    def test_alternating_traffic_never_prunes(self):
        tree = self._grow_two_cluster_tree(max_age=10)
        xs = []
        for _ in range(50):
            xs.extend([0.2, 0.8])
        _feed(tree, xs, t0=40)
        assert tree.node_count == 3

    def test_infinite_max_age_never_prunes(self):
        tree = self._grow_two_cluster_tree(max_age=10**9)
        _feed(tree, [0.2] * 500, t0=40)
        assert tree.node_count == 3

    def test_prune_retest_fires_on_hidden_shift(self):
        # Diffs shift while traffic splits across children; after the
        # prune the parent retests its own retained window.
        tree = _tree(window=8, max_age=6)
        xs = []
        for _ in range(10):
            xs.extend([0.2, 0.8])
        _feed(tree, xs)
        assert tree.node_count == 3
        # Now one-sided traffic with shifted diffs: parent window sees the
        # shift; children windows are each one-sided and never fill fast.
        diffs = [0.0, 0.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0]
        prunes = []
        count_at_prune = None
        for k, d in enumerate(diffs):
            step_alerts = tree.update(np.array([0.2]), d, 20 + k)
            got = [a for a in step_alerts if a.kind == KIND_PRUNE_RETEST]
            if got:
                prunes.extend(got)
                count_at_prune = tree.node_count
        assert len(prunes) == 1
        assert prunes[0].scope == SCOPE_LOCAL
        assert prunes[0].p_value < 0.01
        assert count_at_prune == 1  # subtree gone the moment the prune fires

    def test_prune_requires_internal_node(self):
        tree = _tree()
        tree.update(np.array([0.5]), 0.0, 0)
        with pytest.raises(ValueError):
            tree.prune(tree.root)


class TestGlobalChange:
    def test_single_leaf_global_matches_local(self):
        tree = _tree(window=8, max_depth=0)
        _feed(tree, [0.5] * 8, diffs=[0.0] * 4 + [5.0] * 4)
        alert = tree.test_global_change()
        assert alert is not None
        assert alert.scope == SCOPE_GLOBAL
        assert alert.t == 7
        assert alert.node_id is None

    def test_no_contributing_leaves_means_no_test(self):
        tree = _tree(window=8)
        _feed(tree, [0.5] * 3)
        assert tree.test_global_change() is None

    def test_empty_tree_returns_none(self):
        assert _tree().test_global_change() is None

    def _four_leaf_tree(self):
        tree = AdaptiveClusterTree(n_features=2, window=8, max_age=10**6, max_depth=5)
        corners = [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)]
        t = 0
        for _ in range(16):
            for c in corners:
                tree.update(np.array(c), 0.0, t)
                t += 1
        leaves = [leaf for leaf in tree.iter_leaves()]
        full = [leaf for leaf in leaves if leaf.size == tree.window and leaf.last_p is not None]
        assert len(full) == 4
        return tree, full, t

    def test_two_moderate_leaves_do_not_alert(self):
        tree, leaves, _ = self._four_leaf_tree()
        # Restrict contribution to two leaves at p=0.05: combined p is
        # 0.01748, above the adjusted level 0.01 * 3/4 = 0.0075.
        for leaf in leaves[:2]:
            leaf.last_p = 0.05
        for leaf in leaves[2:]:
            leaf.last_p = None
        assert tree.test_global_change() is None

    def test_four_moderate_leaves_alert_jointly(self):
        # Four leaves at p=0.05 combine to p=0.00232, below the adjusted
        # level 0.00625: joint moderate evidence raises the global alert.
        tree, leaves, _ = self._four_leaf_tree()
        for leaf in leaves:
            leaf.last_p = 0.05
        alert = tree.test_global_change()
        assert alert is not None
        assert alert.p_value == pytest.approx(0.0023221929148880805, abs=1e-6)

    def test_refractory_period_suppresses_global_tests(self):
        tree = _tree(window=8, max_depth=0)
        _feed(tree, [0.5] * 8, diffs=[0.0] * 4 + [5.0] * 4)
        assert tree.test_global_change() is not None  # alert at t=7
        for k in range(8):  # t = 8..15 fall inside the refractory span
            tree.update(np.array([0.5]), 5.0, 8 + k)
            assert tree.test_global_change() is None
        tree.update(np.array([0.5]), 5.0, 16)
        # testing resumes; the refilled window is flat so no new alert
        assert tree.test_global_change() is None
        assert tree.root.last_p == 1.0

    def test_partial_observation_window_leaves_do_not_contribute(self):
        tree = _tree(window=8, max_depth=0)
        _feed(tree, [0.5] * 6, diffs=[0.0] * 6)
        # white-box: an untested p on a still-filling leaf must sit out
        tree.root.last_p = 0.001
        assert tree.root.size < tree.window
        assert tree.test_global_change() is None

    def test_alerted_leaf_keeps_contributing_while_diffs_refill(self):
        tree = _tree(window=8, max_depth=0)
        alerts = _feed(tree, [0.5] * 8, diffs=[0.0] * 4 + [5.0] * 4)
        assert any(a.scope == SCOPE_LOCAL for a in alerts)
        alert = tree.test_global_change()
        assert alert is not None and alert.t == 7
        # the local alert cleared the diff view but the recorded p-value
        # stays in the global pool while the leaf gathers fresh diffs
        tree.update(np.array([0.5]), 0.0, 8)
        tree._suppress_until = -1  # white-box: bypass the refractory
        again = tree.test_global_change()
        assert again is not None and again.t == 8


class TestInvariants:
    def test_structure_and_memory_bounds_under_fuzz(self):
        rng = np.random.default_rng(2024)
        tree = AdaptiveClusterTree(n_features=2, window=10, max_age=50, max_depth=4)
        thr = -2.0 * math.log(0.95)
        prev_count = 0
        for t in range(2000):
            x = rng.uniform(0, 1, size=2)
            tree.update(x, float(rng.normal()), t)
            total_entries = 0
            n_nodes = 0
            for node in tree.iter_nodes():
                n_nodes += 1
                total_entries += node.size
                assert (node.left is None) == (node.right is None)
                if node.size:
                    np.testing.assert_allclose(
                        node.centroid, node.window_observations().mean(axis=0), atol=1e-9
                    )
            assert n_nodes == tree.node_count
            assert total_entries <= tree.node_count * tree.window
            assert tree.root.age == t + 1
            # Coherence is guaranteed for the leaf that received this
            # observation (a node pruned this very step retests but does
            # not re-check coherence until its next update).
            if tree.node_count >= prev_count:
                node = tree.root
                while not node.is_leaf:
                    nxt = node.left if node.left.size and node.left.newest_t == t else node.right
                    if not (nxt.size and nxt.newest_t == t):
                        break
                    node = nxt
                if node.is_leaf and node.depth < 4:
                    gaps = node.window_observations() - node.centroid
                    d2 = (gaps * gaps).sum(axis=1)
                    assert d2.max() <= thr + 1e-9
            prev_count = tree.node_count

    def test_split_conserves_window_multiset(self):
        rng = np.random.default_rng(99)
        tree = AdaptiveClusterTree(n_features=2, window=6, max_age=10**9, max_depth=6)
        splits_seen = 0
        for t in range(1500):
            x = rng.uniform(0, 1, size=2)
            target = tree.find_leaf(x) if tree.root is not None else None
            before = None
            if target is not None:
                xs, diffs, ts = target.entries_in_order()
                before = [(tuple(row.tolist()), d, s) for row, d, s in zip(xs, diffs.tolist(), ts.tolist())]
            diff = float(rng.normal())
            tree.update(x, diff, t)
            if target is not None and not target.is_leaf:
                splits_seen += 1
                expected = list(before)
                if len(expected) == tree.window:
                    expected = expected[1:]  # full window evicted its oldest first
                expected.append((tuple(x.tolist()), diff, t))
                got = []
                stack = [target]
                while stack:
                    node = stack.pop()
                    if node.is_leaf:
                        xs, diffs, ts = node.entries_in_order()
                        got.extend(
                            (tuple(row.tolist()), d, s)
                            for row, d, s in zip(xs, diffs.tolist(), ts.tolist())
                        )
                    else:
                        stack.extend([node.left, node.right])
                assert sorted(got) == sorted(expected)
        assert splits_seen >= 5

    def test_identical_streams_build_identical_trees(self):
        def build():
            rng = np.random.default_rng(7)
            tree = AdaptiveClusterTree(n_features=2, window=8, max_age=40, max_depth=4)
            alerts = []
            for t in range(800):
                x = rng.uniform(0, 1, size=2)
                alerts.extend(tree.update(x, float(rng.normal(scale=0.05)), t))
                g = tree.test_global_change()
                if g:
                    alerts.append(g)
            return tree, alerts

        tree_a, alerts_a = build()
        tree_b, alerts_b = build()
        assert alerts_a == alerts_b
        nodes_a = [(n.node_id, n.depth, n.age, n.size, n.centroid.tolist()) for n in tree_a.iter_nodes()]
        nodes_b = [(n.node_id, n.depth, n.age, n.size, n.centroid.tolist()) for n in tree_b.iter_nodes()]
        assert nodes_a == nodes_b


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"alpha": 0.0},
            {"window": 7},
            {"window": 2},
            {"max_age": 0},
            {"max_depth": -1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        base = dict(n_features=2, gamma=0.95, alpha=0.01, window=8, max_age=10, max_depth=5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            AdaptiveClusterTree(**base)
