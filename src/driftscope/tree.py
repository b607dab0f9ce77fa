"""Adaptive binary cluster tree for localizing concept drift.

The tree incrementally partitions the input space. Every node keeps a
bounded FIFO window of (x, diff) pairs, where diff is the gap between
the model's prediction and its baseline prediction. Leaves whose
windows grow incoherent under an RBF similarity threshold split in two,
seeded by their window's two most distant rows (an exact scan of the
pairs, one row at a time); branches starved of traffic are pruned by an
age rule. Drift is tested locally per leaf (older window half vs newer
half) and globally by combining the leaf-level p-values with Fisher's
method. The nodes live in one preorder list, and their centroids in one
matrix whose row j is the centroid of the node at j. A write takes its
squared distances to every centroid with one subtraction and one
``vecdot``, then walks down a level at a time to the nearer child; a
read (``find_leaf``) walks down the same way without appending. Reads
and writes reject a non-finite vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DetectorConfig
from .numerics import corrected_alpha, fisher_combine, t_test_unpaired
from .stream import as_integer

SCOPE_LOCAL = "local"
SCOPE_GLOBAL = "global"
KIND_CHANGE_TEST = "change-test"
KIND_PRUNE_RETEST = "prune-retest"

# Recompute the running window sum exactly every this many appends so
# floating-point drift cannot accumulate over long streams.
_EXACT_SUM_EVERY = 4096


def _farthest_pair(xs: np.ndarray) -> tuple[int, int]:
    """The first pair i < j, in row-major order, of largest ``((xs[i] - xs[j])**2).sum()``."""
    best, pair = -1.0, (0, 1)
    for i in range(len(xs) - 1):
        d = xs[i + 1 :] - xs[i]
        d2 = (d * d).sum(axis=1)
        k = int(d2.argmax())
        if d2[k] > best:  # strict: an equal pair in a later row comes later in row-major order
            best, pair = d2[k], (i, i + 1 + k)
    return pair


def distances(xs: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """K x N squared distances, as row dot products that round as a write's routing does."""
    d = xs[:, None, :] - centroids[None, :, :]
    return np.vecdot(d, d)


def leaf_count_of(node_count: int) -> int:
    """Leaves of a tree of ``node_count`` nodes."""
    # splits add two children, prunes drop whole branches: the tree stays full binary
    return (node_count + 1) // 2


@dataclass(frozen=True)
class DriftAlert:
    """A single detected change, local to one leaf or global; ``t`` is the step of the write that raised it."""

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
        "at",
        "_w",
        "_xs",
        "_diffs",
        "_start",
        "size",
        "_sum",
        "test_len",
        "_appends",
    )

    def __init__(self, node_id: int, depth: int, window: int, n_features: int, centroid: np.ndarray, age: int = 0):
        self.node_id = node_id
        self.depth = depth
        self.age = age
        self.left: ClusterNode | None = None
        self.right: ClusterNode | None = None
        self.last_p: float | None = None
        self.at = -1  # the node's index in the tree's preorder list and row in its centroid matrix
        self._w = window
        self._xs = np.empty((window, n_features), dtype=float)
        self._diffs = np.empty(window, dtype=float)
        self._start = 0
        self.size = 0
        self._sum = np.zeros(n_features, dtype=float)
        self.centroid = centroid  # kept at the window mean in place: once placed, a row of the tree's centroids
        self.test_len = 0
        self._appends = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def append(self, x: np.ndarray, diff: float) -> None:
        """Push a pair, evicting the oldest when the window is full."""
        if self.size < self._w:
            idx = self.size  # _start stays 0 until the window is full
            self.size += 1
            self._sum += x
        else:
            idx = self._start
            self._sum += x - self._xs[idx]
            self._start = idx + 1 if idx + 1 < self._w else 0
        self._xs[idx] = x
        self._diffs[idx] = diff
        if self.test_len < self._w:
            self.test_len += 1
        self._appends += 1
        if self._appends % _EXACT_SUM_EVERY == 0:
            self._sum = self._xs[: self.size].sum(axis=0)
        np.divide(self._sum, self.size, out=self.centroid)

    def window_observations(self) -> np.ndarray:
        """All stored feature vectors (storage order, all rows valid)."""
        return self._xs[: self.size]

    def _in_order(self, column: np.ndarray) -> np.ndarray:
        # the oldest entry sits at _start, which moves off 0 only once the window is full
        return np.concatenate((column[self._start : self.size], column[: self._start]))

    def entries_in_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Window pairs as (X, diffs) arrays in arrival order."""
        return self._in_order(self._xs), self._in_order(self._diffs)

    def diffs_in_order(self) -> np.ndarray:
        """Window diffs in arrival order."""
        return self._in_order(self._diffs)


class AdaptiveClusterTree:
    """Streaming change detector over an adaptive cluster hierarchy.

    ``n_features`` is the input dimensionality (inputs are expected
    scaled to [0, 1]); ``config`` supplies ``gamma``, ``alpha``,
    ``window``, ``max_age`` and ``max_depth``, documented and checked by
    ``DetectorConfig``. ``nodes`` holds every node in preorder (left
    before right), the order in which Fisher's method sums leaf p-values;
    ``centroids`` is an N x m matrix whose row j is ``nodes[j].centroid``
    itself, and ``nodes[j].at`` is j.
    ``path`` lists the nodes the latest ``update`` appended to, root to
    leaf; ``writes`` counts the updates and ``reshapes`` the structure
    changes (root creation, split, prune).
    """

    def __init__(self, n_features: int, config: DetectorConfig = DetectorConfig()):
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        self.n_features = n_features
        self.gamma = config.gamma
        self.alpha = config.alpha
        self.window = config.window
        self.max_age = config.max_age
        self.max_depth = config.max_depth
        self.nodes: list[ClusterNode] = []
        self.centroids = np.empty((0, n_features))
        self.path: list[ClusterNode] = []
        self.writes = self.reshapes = 0
        # the preorder leaf list, dropped when the structure changes
        self._leaves: list[ClusterNode] | None = None
        self.local_tests_run = 0
        self.local_alerts_raised = 0
        self.global_tests_run = 0
        self.global_alerts_raised = 0
        self._next_id = 0
        self._last_t: int | None = None
        self._suppress_until = -(10**18)
        # sim(x, c) < gamma is equivalent to ||x - c||^2 > -m * ln(gamma)
        self._dist2_threshold = -n_features * math.log(self.gamma)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def _new_node(self, depth: int, centroid: np.ndarray, age: int = 0) -> ClusterNode:
        node = ClusterNode(self._next_id, depth, self.window, self.n_features, centroid, age)
        self._next_id += 1
        return node

    @property
    def root(self) -> ClusterNode | None:
        return self.nodes[0] if self.nodes else None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def leaf_count(self) -> int:
        return leaf_count_of(self.node_count)

    def _reshaped(self) -> None:
        """Rebuild the centroid matrix from the nodes' centroids and make each one a view of its row."""
        self.centroids = np.array([node.centroid for node in self.nodes])
        for j, node in enumerate(self.nodes):
            node.at, node.centroid = j, self.centroids[j]
        self._leaves = None
        self.reshapes += 1

    def _distances(self, x: np.ndarray) -> list[float]:
        """x's squared distance to every centroid, by row."""
        d = x - self.centroids
        return np.vecdot(d, d).tolist()

    def _checked_distances(self, x) -> tuple[np.ndarray, list[float] | None]:
        """x as a vector of the tree's shape, checked finite, and its distances (None on an empty tree)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected feature vector of shape ({self.n_features},), got {x.shape}")
        # every centroid is finite, so a NaN or inf in x shows in its first distance; an empty tree has none
        d2 = self._distances(x) if self.nodes else None
        if not (np.isfinite(x).all() if d2 is None else math.isfinite(d2[0])):
            raise ValueError("feature vector must be finite")
        return x, d2

    def find_leaf(self, x: np.ndarray) -> ClusterNode:
        """Descend to the leaf whose centroid is most similar to x (ties go left), as a write walks."""
        x, d2 = self._checked_distances(x)
        if d2 is None:
            raise ValueError("tree is empty; update it with an observation first")
        node = self.nodes[0]
        while node.left is not None:
            node = node.left if d2[node.left.at] <= d2[node.right.at] else node.right
        return node

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def update(self, x: np.ndarray, diff: float, t: int) -> list[DriftAlert]:
        """Route one observation through the tree at integer step ``t``; returns the alerts it raised."""
        x, d2 = self._checked_distances(x)
        if not math.isfinite(diff):
            raise ValueError("update requires a finite diff")
        t = as_integer(t, "time step")
        if self._last_t is not None and t <= self._last_t:
            raise ValueError(f"time steps must be strictly increasing, got {t} after {self._last_t}")
        if d2 is None:
            self.nodes.append(self._new_node(0, x))
            self._reshaped()
            d2 = self._distances(x)
        alerts: list[DriftAlert] = []
        self.writes += 1
        self._last_t = t
        self.path = self._update_node(self.nodes[0], x, diff, alerts, d2)
        return alerts

    def _update_node(
        self, node: ClusterNode, x: np.ndarray, diff: float, alerts: list[DriftAlert], d2: list[float]
    ) -> list:
        """Walk x down from ``node`` to a leaf, aging and appending at each node, by nearer children.

        ``d2`` holds x's squared distance to each centroid row, taken before the walk; the walk appends
        only to the node it stands on, so the children's rows it compares are still current. The leaf
        splits or runs its local test; then, bottom up, each child on the path takes its parent's age,
        and a parent whose other child lags ``max_age`` of its updates behind is pruned. Returns the
        nodes appended to, top down.
        """
        path = []
        while True:
            node.age += 1
            node.append(x, diff)
            path.append(node)
            if node.left is None:
                break
            node = node.left if d2[node.left.at] <= d2[node.right.at] else node.right
        split = node.size >= 2 and (self.max_depth is None or node.depth < self.max_depth)
        if split:
            gaps = node.window_observations() - node.centroid
            split = float((gaps * gaps).sum(axis=1).max()) > self._dist2_threshold
        if split:
            alerts.extend(self.split_leaf(node))
        else:
            alert = self.test_local_change(node)
            if alert is not None:
                alerts.append(alert)
        for parent in path[-2::-1]:
            node.age = parent.age
            left_age, right_age = parent.left.age, parent.right.age
            if parent.age - (left_age if left_age <= right_age else right_age) >= self.max_age:
                alert = self.prune(parent)
                if alert is not None:
                    alerts.append(alert)
            node = parent
        return path

    def split_leaf(self, node: ClusterNode) -> list[DriftAlert]:
        """Split a leaf in two and replay its window into the children.

        The two most distant window observations (first such pair i < j in
        arrival order on ties), found by an exact scan of every pair's
        squared difference, seed the child centroids. Each window pair
        then runs through the nearer child's own update path, so child
        centroids track their window means and a child may itself split.
        Both children inherit the parent's age and enter ``nodes`` right
        after it, before the replay. The parent keeps its own window and
        becomes internal.
        """
        if not node.is_leaf:
            raise ValueError("split_leaf requires a leaf")
        xs, diffs = node.entries_in_order()
        if len(xs) < 2:
            raise ValueError("cannot split a window with fewer than 2 observations")
        i, j = _farthest_pair(xs)
        left = self._new_node(node.depth + 1, xs[i], age=node.age)
        right = self._new_node(node.depth + 1, xs[j], age=node.age)
        node.left, node.right = left, right
        at = self.nodes.index(node) + 1
        self.nodes[at:at] = [left, right]
        self._reshaped()
        alerts: list[DriftAlert] = []
        for k in range(len(xs)):
            d2 = self._distances(xs[k])
            child = left if d2[left.at] <= d2[right.at] else right
            self._update_node(child, xs[k], float(diffs[k]), alerts, d2)
            child.age = node.age
        return alerts

    def prune(self, node: ClusterNode) -> DriftAlert | None:
        """Drop every node below a node and retest it as a leaf.

        The node keeps its own window, so change that may have been
        hidden by a stale branch is tested immediately.
        """
        if node.is_leaf:
            raise ValueError("prune requires an internal node")
        start = end = self.nodes.index(node) + 1
        while end < len(self.nodes) and self.nodes[end].depth > node.depth:
            end += 1
        del self.nodes[start:end]
        self._reshaped()
        node.left = node.right = None
        return self.test_local_change(node, kind=KIND_PRUNE_RETEST)

    # ------------------------------------------------------------------
    # change tests
    # ------------------------------------------------------------------

    def test_local_change(self, node: ClusterNode, kind: str = KIND_CHANGE_TEST) -> DriftAlert | None:
        """Two-sample test of the node's older diff half against its newer half.

        Runs only when the testable diff window is full, so only on a node
        whose newest row is the current write's. On an alert the diff
        history is cleared (the observations stay for clustering), so a
        single change cannot re-alert on overlapping windows.
        """
        if node.test_len < self.window:
            return None
        diffs = node.diffs_in_order()
        half = self.window // 2
        result = t_test_unpaired(diffs[:half], diffs[half:])
        node.last_p = result.p_value
        self.local_tests_run += 1
        if result.p_value < self.alpha:
            self.local_alerts_raised += 1
            node.test_len = 0
            return DriftAlert(
                t=self._last_t,
                scope=SCOPE_LOCAL,
                p_value=result.p_value,
                kind=kind,
                node_id=node.node_id,
            )
        return None

    def test_global_change(self) -> DriftAlert | None:
        """Fisher-combine the latest leaf p-values into one global test.

        Every leaf with a completed local test contributes its most recent
        p-value (a test needs a full window, and a window never shrinks, so
        that leaf's observation window is full), including a leaf that
        just alerted and cleared its diff view: its evidence stays on
        record until a fresh test replaces it. The combined p is
        compared against a dependency-adjusted level alpha*(N+1)/(2N).
        After a global alert, global testing pauses for one window
        length of observations.
        """
        if self._last_t is None:
            return None
        if self._last_t <= self._suppress_until:
            return None
        if self._leaves is None:
            self._leaves = [node for node in self.nodes if node.left is None]
        ps = [node.last_p for node in self._leaves if node.last_p is not None]
        if not ps:
            return None
        self.global_tests_run += 1
        result = fisher_combine(ps)
        if result.p_value < corrected_alpha(self.alpha, len(ps)):
            self.global_alerts_raised += 1
            self._suppress_until = self._last_t + self.window
            return DriftAlert(
                t=self._last_t,
                scope=SCOPE_GLOBAL,
                p_value=result.p_value,
                kind=KIND_CHANGE_TEST,
            )
        return None
