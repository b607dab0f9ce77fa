from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from driftscope import tree as tree_module
from driftscope.attribution import AttributionTracker, AttributionVector
from driftscope.config import DetectorConfig
from driftscope.numerics import fisher_combine
from driftscope.tree import (
    KIND_CHANGE_TEST,
    KIND_PRUNE_RETEST,
    SCOPE_GLOBAL,
    SCOPE_LOCAL,
    AdaptiveClusterTree,
    _farthest_pair,
)


def _tree(m=1, gamma=0.95, alpha=0.01, window=8, max_age=1000, max_depth=5):
    config = DetectorConfig(gamma=gamma, alpha=alpha, window=window, max_age=max_age, max_depth=max_depth)
    return AdaptiveClusterTree(m, config)


def _descent(tree, x):
    """Reference walk, root to leaf: at each node the nearer child by 1-D dot products, ties left."""
    path = [tree.root]
    while not path[-1].is_leaf:
        node = path[-1]
        dl = x - node.left.centroid
        dr = x - node.right.centroid
        path.append(node.left if float(dl @ dl) <= float(dr @ dr) else node.right)
    return path


def _descend(tree, x):
    return _descent(tree, x)[-1]


def _tracked_leaves(tree, tracker):
    by_id = {node.node_id: node for node in tree.nodes}
    return [by_id[i] for i in tracker.leaf_ids.tolist()]


def _leaves(tree, xs):
    """Batched read, as the attribution tracker routes after a reshape: a fresh tracker pins the rows, and
    its first step recomputes every row's distances to every centroid and walks each row down over them."""
    tracker = AttributionTracker(tree)
    for x in xs:
        tracker.track(np.asarray(x, dtype=float), AttributionVector(np.zeros(tree.n_features), 0.0, 0))
    tracker.step([])
    return _tracked_leaves(tree, tracker)


def _holds_newest(node, x):
    """Whether x is the node's newest stored row: with distinct rows, where the latest write of x landed."""
    return node.size > 0 and np.array_equal(node.entries_in_order()[0][-1], x)


def _preorder(node):
    """Reference walk over the left/right pointers: a node, its left subtree, its right."""
    if node.is_leaf:
        return [node]
    return [node, *_preorder(node.left), *_preorder(node.right)]


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
        # replayed (x, diff) pairs land in the children in their arrival order
        tree = _tree()
        _feed(tree, [0.0, 0.1, 1.0], diffs=[0.5, 0.6, 0.7])
        left = [arr.tolist() for arr in tree.root.left.entries_in_order()]
        right = [arr.tolist() for arr in tree.root.right.entries_in_order()]
        assert left == [[[0.0], [0.1]], [0.5, 0.6]]
        assert right == [[[1.0]], [0.7]]

    def test_max_depth_zero_never_splits(self):
        tree = _tree(max_depth=0)
        rng = np.random.default_rng(0)
        _feed(tree, rng.uniform(0, 1, size=50))
        assert tree.node_count == 1
        assert tree.root.is_leaf

    def test_split_condition_matches_similarity_threshold(self):
        # {0.0, 1.0} with centroid 0.5: sim = exp(-0.25) < 0.95 forces a split.
        tree = _tree()
        assert math.exp(-0.25) == pytest.approx(0.7788, abs=1e-4)
        assert 0.25 > tree._dist2_threshold
        _feed(tree, [0.0, 1.0])
        assert not tree.root.is_leaf

    def test_coherent_window_does_not_split(self):
        tree = _tree()
        _feed(tree, [0.50, 0.52, 0.48, 0.51])
        assert tree.root.is_leaf

    def test_window_evicts_oldest_when_full(self):
        tree = _tree(window=4, max_depth=0)
        _feed(tree, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], diffs=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        root = tree.root
        assert root.size == 4
        xs, diffs = root.entries_in_order()
        assert diffs.tolist() == [3.0, 4.0, 5.0, 6.0]
        np.testing.assert_allclose(xs[:, 0], [0.3, 0.4, 0.5, 0.6])
        assert root.centroid[0] == pytest.approx(0.45)

    def test_update_rejects_non_increasing_t(self):
        tree = _tree()
        tree.update(np.array([0.5]), 0.0, 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            tree.update(np.array([0.5]), 0.0, 3)

    @pytest.mark.parametrize("t", [1.5, 2.0, True])
    def test_update_rejects_non_integer_step(self, t):
        tree = _tree()
        with pytest.raises(ValueError, match=f"time step must be an integer, got {t}"):
            tree.update(np.array([0.5]), 0.0, t)
        assert tree.root is None and tree.writes == 0

    def test_update_rejects_wrong_shape(self):
        tree = _tree(m=2)
        with pytest.raises(ValueError):
            tree.update(np.array([0.5]), 0.0, 0)


def _scan_farthest_pair(xs):
    """Reference seed pair: the full w x w x m difference scan."""
    deltas = xs[:, None, :] - xs[None, :, :]
    d2 = (deltas * deltas).sum(axis=2)
    d2[np.tril_indices(len(xs))] = -1.0
    i, j = np.unravel_index(int(d2.argmax()), d2.shape)
    return int(i), int(j)


class TestFarthestPair:
    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_matches_full_scan(self, m):
        rng = np.random.default_rng(m)
        for trial in range(100):
            w = 2 if trial % 10 == 0 else int(rng.integers(2, 201))
            kind = trial % 6
            if kind == 0:  # continuous
                xs = rng.random((w, m))
            elif kind == 1:  # a few grid values: many exact ties
                xs = rng.integers(0, 3, size=(w, m)) / 2.0
            elif kind == 2:  # all rows identical: every pair ties at 0
                xs = np.tile(rng.random(m), (w, 1))
            elif kind == 3:  # far outside the unit box
                xs = rng.random((w, m)) * 1e3
            elif kind == 4:  # exact ties outside the unit box: three repeated values
                xs = rng.choice([0.1, 0.7, 1.3], size=(w, m)) * 1e3 / 3.0
            else:  # near ties: grid values moved by under 1e-12, so distances differ by a hair
                xs = rng.integers(0, 3, size=(w, m)) / 2.0 + rng.random((w, m)) * 1e-12
            assert _farthest_pair(xs) == _scan_farthest_pair(xs), (trial, w, kind)

    def test_rows_too_large_to_square(self):
        xs = np.random.default_rng(0).random((50, 3)) * 1e200
        with np.errstate(over="ignore"):  # the exact differences square to inf, as in a full scan
            i, j = _farthest_pair(xs)
        assert 0 <= i < j < 50

    def test_first_tied_pair_in_row_major_order(self):
        xs = np.array([[0.0], [1.0], [0.0], [1.0]])
        assert _farthest_pair(xs) == (0, 1)
        assert _farthest_pair(np.zeros((5, 2))) == (0, 1)


class TestFindLeaf:
    def test_descends_to_most_similar_leaf(self):
        tree = _tree()
        _feed(tree, [0.0, 1.0])
        assert tree.find_leaf(np.array([0.1])) is tree.root.left
        assert tree.find_leaf(np.array([0.9])) is tree.root.right
        assert _leaves(tree, np.empty((0, 1))) == []

    def test_rejects_matrix_of_wrong_width(self):
        tree = _tree(m=3)
        _feed(tree, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.9, 0.1, 0.5]])
        assert tree.node_count > 1
        assert _leaves(tree, np.empty((0, 3))) == []
        for bad, shape in ((np.array([0.5]), r"\(1,\)"), (0.5, r"\(\)"), (np.zeros((1, 3)), r"\(1, 3\)")):
            # reads and writes reject a malformed vector with the same message
            for call in (lambda: tree.find_leaf(bad), lambda: tree.update(bad, 0.0, 10)):
                with pytest.raises(ValueError, match=r"feature vector of shape \(3,\), got " + shape):
                    call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vector(self, bad):
        fed = _tree(m=2)
        _feed(fed, [[0.0, 0.0], [1.0, 1.0]])
        # reads reject what writes reject, on an empty tree too, where a read names x before the emptiness
        for tree, writes in ((fed, 2), (_tree(m=2), 0)):
            nodes = tree.node_count
            for call in (tree.find_leaf, lambda x: tree.update(x, 0.0, 10)):
                with pytest.raises(ValueError, match="^feature vector must be finite$"):
                    call(np.array([0.5, bad]))
            assert (tree.node_count, tree.writes) == (nodes, writes)

    def test_tie_goes_left(self):
        tree = _tree()
        _feed(tree, [0.0, 1.0])
        assert tree.find_leaf(np.array([0.5])) is tree.root.left
        # the tie row goes left inside a batch too
        batch = _leaves(tree, [[0.9], [0.5], [0.1], [0.5]])
        assert batch == [tree.root.right, tree.root.left, tree.root.left, tree.root.left]
        # in 9 dimensions and below the root: the 0.5 row ties at the root and goes left, where
        # it splits a child; every centroid and row is dyadic, so each distance below is exact
        tree = _tree(m=9)
        _feed(tree, [np.full(9, v) for v in (0.0, 1.0, 0.5)])
        left, right = tree.root.left, tree.root.right
        centroids = [node.centroid.tolist() for node in (left.left, left.right, right)]
        assert centroids == [[v] * 9 for v in (0.0, 0.5, 1.0)]
        rows = np.array([np.full(9, v) for v in (0.25, 0.625, 0.75)])  # ties at left, at the root, none
        assert _leaves(tree, rows) == [left.left, left.right, right]
        assert _leaves(tree, rows) == [_descend(tree, row) for row in rows]

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            _tree().find_leaf(np.array([0.5]))

    def test_routing_matches_update_path(self):
        rng = np.random.default_rng(12)
        for m in (2, 9):  # 9 features as in Agrawal, where row dot products have more terms to round
            tree = _tree(m=m, window=8)
            tracker = AttributionTracker(tree)
            xs = rng.uniform(0, 1, size=(300, m))
            for t, x in enumerate(xs):
                target = tree.find_leaf(x) if tree.root is not None else None
                assert target is (_descend(tree, x) if target is not None else None)
                tree.update(x, 0.0, t)
                if target is not None and target.is_leaf:
                    # the write path's walk must have landed x in the predicted leaf
                    assert _holds_newest(target, x)
                # pinning a row after the write makes the step recompute and walk every row: each row
                # seen so far lands in one batch where it lands alone, and where the write path sends it
                tracker.track(x, AttributionVector(np.zeros(m), 0.0, t))
                tracker.step([])
                batch = _tracked_leaves(tree, tracker)
                assert batch == [tree.find_leaf(row) for row in xs[: t + 1]]
                assert batch == [_descend(tree, row) for row in xs[: t + 1]]
            assert tree.node_count > 15


class TestWritePath:
    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    def test_path_is_the_descent_and_holds_every_moved_centroid(self, m):
        rng = np.random.default_rng(40 + m)
        tree = _tree(m=m, window=8, max_age=60, max_depth=None)
        plain = 0
        for t in range(1500):
            x = rng.uniform(0, 0.6, m) + 0.4 * ((t // 200) % 2)  # traffic alternates, so branches starve
            descent = _descent(tree, x) if tree.root is not None else None
            before = {node: node.centroid.copy() for node in tree.nodes}
            writes, reshapes = tree.writes, tree.reshapes
            tree.update(x, 0.0, t)
            assert tree.writes == writes + 1
            if tree.reshapes != reshapes:
                continue
            plain += 1
            assert tree.path == descent  # the nearer child at each level, root to leaf
            assert tree.path[-1].is_leaf
            moved = {node for node in tree.nodes if (node.centroid != before[node]).any()}
            assert moved <= set(tree.path)
        assert 1000 < plain < 1500

    def test_root_creation_split_and_prune_are_structure_changes(self):
        tree = _tree(window=8, max_age=10)
        tree.update(np.array([0.0]), 0.0, 0)
        assert (tree.writes, tree.reshapes, tree.path) == (1, 1, [tree.root])
        tree.update(np.array([1.0]), 0.0, 1)  # a far point: the root splits
        assert tree.writes == 2 and tree.reshapes > 1 and not tree.root.is_leaf
        reshapes = tree.reshapes
        tree.prune(tree.root)
        assert (tree.writes, tree.reshapes) == (2, reshapes + 1)


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


class TestAlertStamps:
    def test_every_alert_carries_its_writes_step(self):
        # short windows, no depth cap and a short max_age: replays nest, branches prune and retest
        seen = Counter()
        for window in (4, 6, 8):
            rng = np.random.default_rng(window)
            tree = _tree(m=2, window=window, max_age=20, max_depth=None)
            split, prune, open_splits = tree.split_leaf, tree.prune, []

            def counting_split(node):
                seen["nested replays"] += bool(open_splits)
                open_splits.append(node)
                try:
                    return split(node)
                finally:
                    open_splits.pop()

            def counting_prune(node):
                seen["prunes"] += 1
                return prune(node)

            tree.split_leaf, tree.prune = counting_split, counting_prune
            t = 0
            for k in range(1500):
                t += int(rng.integers(1, 4))  # steps skip, so a stamp is not a count of writes
                diff = float(rng.normal() + 3.0 * ((k // 50) % 2))
                alerts = tree.update(rng.uniform(0, 1, 2), diff, t)
                assert [a.t for a in alerts] == [t] * len(alerts)
                seen.update(a.kind for a in alerts)
                glob = tree.test_global_change()
                assert glob is None or glob.t == t
        assert min(seen[k] for k in ("nested replays", "prunes", KIND_CHANGE_TEST, KIND_PRUNE_RETEST)) > 0

    def test_numpy_integer_steps_stamp_plain_ints(self):
        tree = _tree(window=8, max_depth=0)
        alerts = _feed(tree, [0.5] * 8, diffs=[0.0] * 4 + [5.0] * 4, t0=np.int64(0))
        alerts.append(tree.test_global_change())
        assert [(a.scope, a.t, type(a.t)) for a in alerts] == [(SCOPE_LOCAL, 7, int), (SCOPE_GLOBAL, 7, int)]


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

    def test_prune_inside_a_write_is_a_structure_change(self):
        tree = self._grow_two_cluster_tree(max_age=10)
        reshapes = tree.reshapes
        for k in range(12):
            tree.update(np.array([0.2]), 0.0, 40 + k)
            if tree.node_count == 1:
                break
        assert tree.node_count == 1 and tree.reshapes == reshapes + 1

    def test_default_max_age_prunes_starved_branch_after_max_age_updates(self):
        # The cost side of a large default: an obsolete branch lives for max_age parent updates.
        max_age = DetectorConfig().max_age
        tree = AdaptiveClusterTree(1, DetectorConfig(window=8))
        _feed(tree, [0.2, 0.8] * 20)
        assert tree.node_count == 3
        counts = []
        for k in range(max_age):
            tree.update(np.array([0.2]), 0.0, 40 + k)
            counts.append(tree.node_count)
        assert counts[:-1] == [3] * (max_age - 1)
        assert counts[-1] == 1

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
        tree = AdaptiveClusterTree(2, DetectorConfig(window=8, max_age=10**6, max_depth=5))
        corners = [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)]
        t = 0
        for _ in range(16):
            for c in corners:
                tree.update(np.array(c), 0.0, t)
                t += 1
        leaves = [node for node in tree.nodes if node.is_leaf]
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
        # a local test runs only on a full window, so a still-filling leaf holds no p-value to pool
        _feed(tree, [0.5] * 6, diffs=[0.0] * 3 + [5.0] * 3)
        assert tree.root.size < tree.window and tree.root.last_p is None
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

    def test_pool_follows_splits_and_prunes(self, monkeypatch):
        # every Fisher pool holds the p-values of the current leaves, in preorder, however the tree changed
        pools = []
        monkeypatch.setattr(tree_module, "fisher_combine", lambda ps: pools.append(ps) or fisher_combine(ps))
        rng = np.random.default_rng(2024)
        tree = AdaptiveClusterTree(2, DetectorConfig(window=10, alpha=1e-12, max_age=50, max_depth=4))
        shapes = set()
        for t in range(2000):
            tree.update(rng.uniform(0, 1, size=2), float(rng.normal()), t)
            tree.test_global_change()
            shapes.add(tuple(node.node_id for node in tree.nodes))
            expected = [
                node.last_p
                for node in _preorder(tree.root)
                if node.is_leaf and node.size == tree.window and node.last_p is not None
            ]
            if expected:
                assert pools.pop() == expected
            assert not pools
        assert len(shapes) > 50


class TestInvariants:
    def test_structure_and_memory_bounds_under_fuzz(self):
        rng = np.random.default_rng(2024)
        tree = AdaptiveClusterTree(2, DetectorConfig(window=10, max_age=50, max_depth=4))
        pruned = []  # nodes each prune removed
        prune = tree.prune

        def counting_prune(node):
            before = tree.node_count
            alert = prune(node)
            pruned.append(before - tree.node_count)
            return alert

        tree.prune = counting_prune
        thr = -2.0 * math.log(0.95)
        prev_count = tested = 0
        for t in range(2000):
            x = rng.uniform(0, 1, size=2)
            tree.update(x, float(rng.normal()), t)
            # the preorder list is exactly the pointer walk, node for node
            walk = _preorder(tree.root)
            assert len(walk) == len(tree.nodes)
            assert all(a is b for a, b in zip(walk, tree.nodes))
            total_entries = 0
            n_nodes = 0
            for node in walk:
                n_nodes += 1
                total_entries += node.size
                assert (node.left is None) == (node.right is None)
                # the global test pools every leaf with a p-value: each one holds a full window
                assert node.last_p is None or node.size == tree.window
                tested += node.last_p is not None
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
                    nxt = node.left if _holds_newest(node.left, x) else node.right
                    if not _holds_newest(nxt, x):
                        break
                    node = nxt
                if node.is_leaf and node.depth < 4:
                    gaps = node.window_observations() - node.centroid
                    d2 = (gaps * gaps).sum(axis=1)
                    assert d2.max() <= thr + 1e-9
            prev_count = tree.node_count
        # some prunes dropped a subtree two or more levels deep (>= 4 nodes)
        assert len(pruned) > 0 and max(pruned) >= 4
        assert tested > 0

    @pytest.mark.parametrize("m, max_depth", [(2, 5), (9, 5), (2, None)])
    def test_centroids_are_the_rows_of_one_matrix(self, m, max_depth):
        # the streams of test_routing_matches_update_path, with a short max_age so branches also prune,
        # and with no depth limit besides: in each a child also splits while its parent's window is replayed
        rng = np.random.default_rng(12)
        tree = _tree(m=m, window=8, max_age=12, max_depth=max_depth)
        split_leaf, open_splits, nested = tree.split_leaf, [], []

        def counting_split(node):
            nested.append(bool(open_splits))
            open_splits.append(node)
            try:
                return split_leaf(node)
            finally:
                open_splits.pop()

        tree.split_leaf = counting_split
        splits = prunes = 0
        for t, x in enumerate(rng.uniform(0, 1, size=(300, m))):
            count = tree.node_count
            tree.update(x, 0.0, t)
            splits += tree.node_count > count
            prunes += tree.node_count < count
            assert tree.centroids.shape == (tree.node_count, m)
            for j, node in enumerate(tree.nodes):
                # the node's centroid is its row of the matrix itself, kept at its window mean
                assert node.at == j
                assert np.shares_memory(tree.centroids[j], node.centroid)
                assert node.centroid.shape == (m,)
                assert np.array_equal(tree.centroids[j], node._sum / node.size)
                np.testing.assert_allclose(node.centroid, node.window_observations().mean(axis=0), atol=1e-12)
        assert splits > 10 and prunes > 5
        assert any(nested)

    def test_split_conserves_window_multiset(self):
        rng = np.random.default_rng(99)
        tree = AdaptiveClusterTree(2, DetectorConfig(window=6, max_age=10**9, max_depth=6))
        splits_seen = 0
        for t in range(1500):
            x = rng.uniform(0, 1, size=2)
            target = tree.find_leaf(x) if tree.root is not None else None
            before = None
            if target is not None:
                xs, diffs = target.entries_in_order()
                before = [(tuple(row.tolist()), d) for row, d in zip(xs, diffs.tolist())]
            diff = float(rng.normal())
            tree.update(x, diff, t)
            if target is not None and not target.is_leaf:
                splits_seen += 1
                expected = list(before)
                if len(expected) == tree.window:
                    expected = expected[1:]  # full window evicted its oldest first
                expected.append((tuple(x.tolist()), diff))
                got = []
                stack = [target]
                while stack:
                    node = stack.pop()
                    if node.is_leaf:
                        xs, diffs = node.entries_in_order()
                        got.extend((tuple(row.tolist()), d) for row, d in zip(xs, diffs.tolist()))
                    else:
                        stack.extend([node.left, node.right])
                assert sorted(got) == sorted(expected)
        assert splits_seen >= 5

    def test_identical_streams_build_identical_trees(self):
        def build():
            rng = np.random.default_rng(7)
            tree = AdaptiveClusterTree(2, DetectorConfig(window=8, max_age=40, max_depth=4))
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
        nodes_a = [(n.node_id, n.depth, n.age, n.size, n.centroid.tolist()) for n in tree_a.nodes]
        nodes_b = [(n.node_id, n.depth, n.age, n.size, n.centroid.tolist()) for n in tree_b.nodes]
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
        base = dict(gamma=0.95, alpha=0.01, window=8, max_age=10, max_depth=5)
        base.update(kwargs)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            AdaptiveClusterTree(2, DetectorConfig(**base))
