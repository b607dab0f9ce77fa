"""Local feature attributions and lazy recomputation management.

For a linear model the contribution of each feature to a prediction,
relative to a baseline input, has a closed form on the margin scale:
phi_j = w_j * (x_j - baseline_j), with the baseline outcome
phi0 = w . baseline + bias. The parts always add back up to the margin
exactly (local accuracy), which is what makes staleness detectable: if
the margin moved, some part moved.

The tracker keeps attributions for a set of pinned feature vectors and
flags one as stale only when the cluster tree reassigns its vector to a
different leaf or raises a local change alert at its leaf. It keeps one
row per pinned vector, in pin order, with its squared distances to the
node centroids, recomputed only where a centroid moved. The caller recomputes
the flagged rows with whatever explainer it uses; the rest is reused as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import SCOPE_LOCAL, AdaptiveClusterTree, DriftAlert, distances

REASON_INITIAL = "initial"
REASON_LEAF_CHANGE = "leaf-change"
REASON_LOCAL_ALERT = "local-alert"


@dataclass(frozen=True)
class AttributionVector:
    """Additive feature contributions on the margin scale at one step."""

    phi: np.ndarray
    phi0: float
    t: int

    def total(self) -> float:
        return self.phi0 + float(self.phi.sum())


def attribute_linear(model, x: np.ndarray, baseline_input: np.ndarray, t: int = 0) -> AttributionVector:
    """Exact additive attribution of a linear model's margin.

    phi_j = w_j * (x_j - baseline_j) and phi0 = w . baseline + bias, so
    phi0 + sum(phi) recovers margin(x) up to rounding.
    """
    if not (hasattr(model, "weights") and hasattr(model, "bias") and hasattr(model, "margin")):
        raise TypeError(
            f"attribution needs a linear model with weights/bias/margin, got {type(model).__name__}"
        )
    x = np.asarray(x, dtype=float)
    baseline_input = np.asarray(baseline_input, dtype=float)
    if x.shape != baseline_input.shape or x.shape != model.weights.shape:
        raise ValueError(
            f"shape mismatch: x {x.shape}, baseline {baseline_input.shape}, "
            f"weights {model.weights.shape}"
        )
    phi = model.weights * (x - baseline_input)
    phi0 = float(model.weights @ baseline_input) + model.bias
    return AttributionVector(phi=phi, phi0=phi0, t=t)


class AttributionTracker:
    """Flags tracked attributions that went stale, for any model.

    ``track`` pins a feature vector with its initial attribution and
    returns its row: ``xs[row]``, its stored phi ``phis[row]``, the leaf
    ``leaf_ids[row]`` it was last routed to, and ``history[row]``, every
    ``(reason, vector)`` stored for it in step order. Call ``step`` once
    per time step, after the tree has been updated, with that step's
    alerts. A row is stale when the tree routes its vector to a different
    leaf or raises a local alert at its leaf; a leaf change takes
    precedence when both apply at the same step. The caller recomputes
    stale rows and stores them with ``refresh``.
    """

    def __init__(self, tree: AdaptiveClusterTree):
        self.tree = tree
        self.xs = np.empty((0, tree.n_features))
        self.phis = np.empty((0, tree.n_features))
        self.leaf_ids = np.empty(0, dtype=np.int64)
        self.history: list[list[tuple[str, AttributionVector]]] = []
        # _d2[row, j] is xs[row]'s distance to _centroids[j], the centroid node _node_ids[j] had at the
        # last step. Both end in a spare entry: a NaN centroid, which no centroid equals.
        self._node_ids: list[int] = []
        self._centroids, self._d2 = np.full((1, tree.n_features), np.nan), np.empty((0, 1))

    def track(self, x: np.ndarray, vec: AttributionVector) -> int:
        self.leaf_ids = np.append(self.leaf_ids, self.tree.find_leaf(x).node_id)
        self.xs = np.vstack((self.xs, x))
        self.phis = np.vstack((self.phis, vec.phi))
        self._d2 = np.vstack((self._d2, distances(self.xs[-1:], self._centroids)))
        self.history.append([(REASON_INITIAL, vec)])
        return len(self.history) - 1

    def refresh(self, row: int, vec: AttributionVector, reason: str) -> None:
        """Store ``vec``, computed at step ``vec.t`` for ``reason``, as the row's phi."""
        self.phis[row] = vec.phi
        self.history[row].append((reason, vec))

    def step(self, alerts: list[DriftAlert]) -> list[tuple[int, str]]:
        """(row, reason) for each row gone stale, in row order."""
        node_ids = [node.node_id for node in self.tree.nodes]
        centroids = np.array([node.centroid for node in self.tree.nodes])
        if node_ids != self._node_ids:  # a split or prune: carry the surviving columns over by node id
            known = dict(zip(self._node_ids, range(len(self._node_ids))))
            carry = np.array([known.get(node_id, -1) for node_id in [*node_ids, None]])  # -1: the spare
            self._node_ids, self._centroids, self._d2 = node_ids, self._centroids[carry], self._d2[:, carry]
        # leaf_positions reads only child columns, and the root is nobody's child: its column is left stale
        moved = np.flatnonzero((centroids[1:] != self._centroids[1:-1]).any(axis=1)) + 1
        self._d2[:, moved] = distances(self.xs, centroids[moved])
        self._centroids[:-1] = centroids
        leaf_ids = np.array(node_ids)[self.tree.leaf_positions(self._d2)]
        changed, self.leaf_ids = leaf_ids != self.leaf_ids, leaf_ids
        alerted = [a.node_id for a in alerts if a.scope == SCOPE_LOCAL]
        stale = changed | np.isin(leaf_ids, alerted) if alerted else changed
        rows = np.flatnonzero(stale).tolist()
        return [(row, REASON_LEAF_CHANGE if changed[row] else REASON_LOCAL_ALERT) for row in rows]

    def trace_rows(self):
        """Flatten the stored attributions for CSV export.

        Yields (t, row, feature_index, phi, reason) rows, one per feature
        per stored vector, row by row and in step order within a row.
        """
        for row, events in enumerate(self.history):
            for reason, vec in events:
                for j, value in enumerate(vec.phi):
                    yield (vec.t, row, j, float(value), reason)
