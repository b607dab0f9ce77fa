"""Adaptive binary cluster tree for localizing concept drift.

The tree incrementally partitions the input space. Every node keeps a
bounded FIFO window of (x, diff, t) triples, where diff is the gap
between the model's prediction and its baseline prediction. Leaves whose
windows grow incoherent under an RBF similarity threshold split in two;
branches starved of traffic are pruned by an age rule. Drift is tested
locally per leaf (older window half vs newer half) and globally by
combining the leaf-level p-values with Fisher's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .numerics import corrected_alpha, fisher_combine, t_test_unpaired

SCOPE_LOCAL = "local"
SCOPE_GLOBAL = "global"
KIND_CHANGE_TEST = "change-test"
KIND_PRUNE_RETEST = "prune-retest"

# Recompute the running window sum exactly every this many appends so
# floating-point drift cannot accumulate over long streams.
_EXACT_SUM_EVERY = 4096


@dataclass(frozen=True)
class DriftAlert:
    """A single detected change, local to one leaf or global."""

    t: int
    scope: str
    p_value: float
    kind: str
    node_id: int | None = None

    def to_dict(self) -> dict:
        d = {"t": self.t, "scope": self.scope, "p_value": self.p_value, "kind": self.kind}
        if self.scope == SCOPE_LOCAL:
            d["node_id"] = self.node_id
        return d


class ClusterNode:
    """One node of the cluster tree with its sliding window state."""

    __slots__ = (
        "node_id",
        "depth",
        "age",
        "left",
        "right",
        "last_p",
        "centroid",
        "_w",
        "_xs",
        "_diffs",
        "_ts",
        "_start",
        "size",
        "_sum",
        "test_len",
        "_appends",
    )

    def __init__(self, node_id: int, depth: int, window: int, n_features: int, seed: np.ndarray, age: int = 0):
        self.node_id = node_id
        self.depth = depth
        self.age = age
        self.left: ClusterNode | None = None
        self.right: ClusterNode | None = None
        self.last_p: float | None = None
        self._w = window
        self._xs = np.empty((window, n_features), dtype=float)
        self._diffs = np.empty(window, dtype=float)
        self._ts = np.empty(window, dtype=np.int64)
        self._start = 0
        self.size = 0
        self._sum = np.zeros(n_features, dtype=float)
        self.centroid = np.asarray(seed, dtype=float).copy()
        self.test_len = 0
        self._appends = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def newest_t(self) -> int:
        if self.size == 0:
            raise ValueError("node window is empty")
        return int(self._ts[(self._start + self.size - 1) % self._w])

    def append(self, x: np.ndarray, diff: float, t: int) -> None:
        """Push a triple, evicting the oldest when the window is full."""
        if self.size < self._w:
            idx = (self._start + self.size) % self._w
            self.size += 1
            self._sum += x
        else:
            idx = self._start
            self._sum += x - self._xs[idx]
            self._start = (self._start + 1) % self._w
        self._xs[idx] = x
        self._diffs[idx] = diff
        self._ts[idx] = t
        self.test_len = min(self.test_len + 1, self._w)
        self._appends += 1
        if self._appends % _EXACT_SUM_EVERY == 0:
            self._sum = self._xs[: self.size].sum(axis=0)
        self.centroid = self._sum / self.size

    def window_observations(self) -> np.ndarray:
        """All stored feature vectors (storage order, all rows valid)."""
        return self._xs[: self.size]

    def entries_in_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Window triples as (X, diffs, ts) arrays in arrival order."""
        if self._start == 0:
            sl = slice(0, self.size)
            return self._xs[sl].copy(), self._diffs[sl].copy(), self._ts[sl].copy()
        order = (self._start + np.arange(self.size)) % self._w
        return self._xs[order], self._diffs[order], self._ts[order]

    def ordered_diffs(self) -> np.ndarray:
        if self._start == 0:
            return self._diffs[: self.size]
        return np.concatenate((self._diffs[self._start :], self._diffs[: self._start]))


class AdaptiveClusterTree:
    """Streaming change detector over an adaptive cluster hierarchy.

    Parameters
    ----------
    n_features:
        Input dimensionality; inputs are expected scaled to [0, 1].
    gamma:
        RBF similarity threshold in (0, 1); a leaf splits when any
        window observation falls below it relative to the centroid.
    alpha:
        Significance level of the per-leaf two-sample test.
    window:
        Window capacity w per node; must be even and >= 4 so the test
        halves are balanced.
    max_age:
        A branch whose least-recently-updated child lags the parent by
        at least this many updates is pruned.
    max_depth:
        Depth cap; leaves at the cap absorb dissimilar points instead of
        splitting. ``None`` removes the cap, 0 forces a single leaf.
    """

    def __init__(
        self,
        n_features: int,
        gamma: float = 0.95,
        alpha: float = 0.01,
        window: int = 200,
        max_age: int = 100,
        max_depth: int | None = 5,
    ):
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if window < 4 or window % 2 != 0:
            raise ValueError(f"window must be an even integer >= 4, got {window}")
        if max_age < 1:
            raise ValueError(f"max_age must be >= 1, got {max_age}")
        if max_depth is not None and max_depth < 0:
            raise ValueError(f"max_depth must be >= 0 or None, got {max_depth}")
        self.n_features = n_features
        self.gamma = gamma
        self.alpha = alpha
        self.window = window
        self.max_age = max_age
        self.max_depth = max_depth
        self.root: ClusterNode | None = None
        self.node_count = 0
        self.local_tests_run = 0
        self.local_alerts_raised = 0
        self.global_tests_run = 0
        self.global_alerts_raised = 0
        self._next_id = 0
        self._last_t: int | None = None
        self._suppress_until = -(10**18)
        # sim(x, c) < gamma is equivalent to ||x - c||^2 > -m * ln(gamma)
        self._dist2_threshold = -n_features * math.log(gamma)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def _new_node(self, depth: int, seed: np.ndarray, age: int = 0) -> ClusterNode:
        node = ClusterNode(self._next_id, depth, self.window, self.n_features, seed, age)
        self._next_id += 1
        self.node_count += 1
        return node

    def iter_nodes(self) -> Iterator[ClusterNode]:
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.right)
                stack.append(node.left)

    def iter_leaves(self) -> Iterator[ClusterNode]:
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node

    @property
    def leaf_count(self) -> int:
        return sum(1 for _ in self.iter_leaves())

    def find_leaf(self, x: np.ndarray) -> ClusterNode:
        """Descend to the leaf whose centroid is most similar to x (ties go left)."""
        if self.root is None:
            raise ValueError("tree is empty; update it with an observation first")
        x = np.asarray(x, dtype=float)
        node = self.root
        while node.left is not None:
            node = self._nearer_child(node, x)
        return node

    @staticmethod
    def _nearer_child(node: ClusterNode, x: np.ndarray) -> ClusterNode:
        dl = x - node.left.centroid
        dr = x - node.right.centroid
        return node.left if float(dl @ dl) <= float(dr @ dr) else node.right

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def update(self, x: np.ndarray, diff: float, t: int) -> list[DriftAlert]:
        """Route one observation through the tree; returns alerts raised."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected feature vector of shape ({self.n_features},), got {x.shape}")
        if not (np.isfinite(x).all() and math.isfinite(diff)):
            raise ValueError("update requires finite inputs")
        if self._last_t is not None and t <= self._last_t:
            raise ValueError(f"time steps must be strictly increasing, got {t} after {self._last_t}")
        if self.root is None:
            self.root = self._new_node(0, x)
        alerts: list[DriftAlert] = []
        self._update_node(self.root, x, diff, t, alerts)
        self._last_t = t
        return alerts

    def _update_node(self, node: ClusterNode, x: np.ndarray, diff: float, t: int, alerts: list[DriftAlert]) -> None:
        node.age += 1
        node.append(x, diff, t)
        if node.is_leaf:
            if node.size >= 2 and (self.max_depth is None or node.depth < self.max_depth):
                gaps = node.window_observations() - node.centroid
                if float((gaps * gaps).sum(axis=1).max()) > self._dist2_threshold:
                    alerts.extend(self.split_leaf(node))
                    return
            alert = self.test_local_change(node)
            if alert is not None:
                alerts.append(alert)
        else:
            child = self._nearer_child(node, x)
            self._update_node(child, x, diff, t, alerts)
            child.age = node.age
            if node.age - min(node.left.age, node.right.age) >= self.max_age:
                alert = self.prune(node)
                if alert is not None:
                    alerts.append(alert)

    def split_leaf(self, node: ClusterNode) -> list[DriftAlert]:
        """Split a leaf in two and replay its window into the children.

        The two most dissimilar window observations (first such pair in
        scan order on ties) seed the child centroids; each window triple
        then runs through the nearer child's own update path, so child
        centroids track their window means and a child may itself split.
        Both children inherit the parent's age. The parent keeps its own
        window and becomes internal.
        """
        if not node.is_leaf:
            raise ValueError("split_leaf requires a leaf")
        xs, diffs, ts = node.entries_in_order()
        if len(xs) < 2:
            raise ValueError("cannot split a window with fewer than 2 observations")
        deltas = xs[:, None, :] - xs[None, :, :]
        d2 = (deltas * deltas).sum(axis=2)
        d2[np.tril_indices(len(xs))] = -1.0  # scan upper triangle only
        i, j = np.unravel_index(int(d2.argmax()), d2.shape)
        left = self._new_node(node.depth + 1, xs[i], age=node.age)
        right = self._new_node(node.depth + 1, xs[j], age=node.age)
        node.left, node.right = left, right
        alerts: list[DriftAlert] = []
        for k in range(len(xs)):
            child = self._nearer_child(node, xs[k])
            self._update_node(child, xs[k], float(diffs[k]), int(ts[k]), alerts)
            child.age = node.age
        return alerts

    def prune(self, node: ClusterNode) -> DriftAlert | None:
        """Drop the subtree below a node and retest it as a leaf.

        The node keeps its own window, so change that may have been
        hidden by a stale branch is tested immediately.
        """
        if node.is_leaf:
            raise ValueError("prune requires an internal node")
        removed = 0
        stack = [node.left, node.right]
        while stack:
            sub = stack.pop()
            removed += 1
            if sub.left is not None:
                stack.append(sub.left)
                stack.append(sub.right)
        self.node_count -= removed
        node.left = node.right = None
        return self.test_local_change(node, kind=KIND_PRUNE_RETEST)

    # ------------------------------------------------------------------
    # change tests
    # ------------------------------------------------------------------

    def test_local_change(self, node: ClusterNode, kind: str = KIND_CHANGE_TEST) -> DriftAlert | None:
        """Two-sample test of the node's older diff half against its newer half.

        Runs only when the testable diff window is full. On an alert the
        diff history is cleared (the observations stay for clustering),
        so a single change cannot re-alert on overlapping windows.
        """
        if node.test_len < self.window:
            return None
        diffs = node.ordered_diffs()
        half = self.window // 2
        result = t_test_unpaired(diffs[:half], diffs[half:])
        node.last_p = result.p_value
        self.local_tests_run += 1
        if result.p_value < self.alpha:
            self.local_alerts_raised += 1
            node.test_len = 0
            return DriftAlert(
                t=node.newest_t,
                scope=SCOPE_LOCAL,
                p_value=result.p_value,
                kind=kind,
                node_id=node.node_id,
            )
        return None

    def test_global_change(self, alpha: float | None = None) -> DriftAlert | None:
        """Fisher-combine the latest leaf p-values into one global test.

        Every leaf with a full observation window and a completed local
        test contributes its most recent p-value, including a leaf that
        just alerted and cleared its diff view: its evidence stays on
        record until a fresh test replaces it. The combined p is
        compared against a dependency-adjusted level alpha*(N+1)/(2N).
        After a global alert, global testing pauses for one window
        length of observations.
        """
        if self.root is None or self._last_t is None:
            return None
        if self._last_t <= self._suppress_until:
            return None
        if alpha is None:
            alpha = self.alpha
        ps = [
            leaf.last_p
            for leaf in self.iter_leaves()
            if leaf.size == self.window and leaf.last_p is not None
        ]
        if not ps:
            return None
        self.global_tests_run += 1
        result = fisher_combine(ps)
        if result.p_value < corrected_alpha(alpha, len(ps)):
            self.global_alerts_raised += 1
            self._suppress_until = self._last_t + self.window
            return DriftAlert(
                t=self._last_t,
                scope=SCOPE_GLOBAL,
                p_value=result.p_value,
                kind=KIND_CHANGE_TEST,
            )
        return None
