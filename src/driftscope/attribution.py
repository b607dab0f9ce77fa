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
node centroids, and routes a row by walking down over those distances.
After a write that kept the tree's structure, only the nodes on the
write's path moved: it recomputes their distances, re-decides their
parents, and walks down again only the rows whose decision flipped.
After a split, a prune or a missed write it recomputes every distance
and walks every row.
The caller recomputes the flagged rows with whatever explainer it uses;
the rest is reused as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stream import as_integer
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
    stale rows and stores them with ``refresh``. A step that follows a
    split, a prune or more than one write recomputes every distance.
    """

    def __init__(self, tree: AdaptiveClusterTree):
        self.tree = tree
        self.xs = np.empty((0, tree.n_features))
        self.phis = np.empty((0, tree.n_features))
        self.leaf_ids = np.empty(0, dtype=np.int64)
        self.history: list[list[tuple[str, AttributionVector]]] = []
        # As of the tree's (writes, reshapes) _seen, _d2[j, row] is xs[row]'s distance to tree.centroids[j],
        # the centroid of the node whose ``at`` is j. _seen None: recompute them all at the next step.
        self._seen: tuple[int, int] | None = None
        self._d2 = np.empty((0, 0))

    def _check_phi(self, vec: AttributionVector) -> None:
        if np.shape(vec.phi) != (self.tree.n_features,):
            raise ValueError(f"expected phi of shape ({self.tree.n_features},), got {np.shape(vec.phi)}")

    def track(self, x: np.ndarray, vec: AttributionVector) -> int:
        tree = self.tree
        self._check_phi(vec)
        self.leaf_ids = np.append(self.leaf_ids, tree.find_leaf(x).node_id)  # find_leaf checks x first
        self.xs = np.vstack((self.xs, x))
        self.phis = np.vstack((self.phis, vec.phi))
        self.history.append([(REASON_INITIAL, vec)])
        if self._seen == (tree.writes, tree.reshapes):
            self._d2 = np.hstack((self._d2, distances(tree.centroids, self.xs[-1:])))
        else:
            self._seen = None
        return len(self.history) - 1

    def refresh(self, row: int, vec: AttributionVector, reason: str) -> None:
        """Store ``vec``, computed at step ``vec.t`` for ``reason``, as the row's phi."""
        row = as_integer(row, "row")
        if not 0 <= row < len(self.history):
            raise ValueError(f"row must lie in [0, {len(self.history)}), got {row}")
        self._check_phi(vec)
        self.phis[row] = vec.phi
        self.history[row].append((reason, vec))

    def step(self, alerts: list[DriftAlert]) -> list[tuple[int, str]]:
        """(row, reason) for each row gone stale, in row order."""
        tree, rows = self.tree, []
        if not tree.nodes:
            raise ValueError("tree is empty; update it with an observation first")
        seen, self._seen = self._seen, (tree.writes, tree.reshapes)
        moved = [node.at for node in tree.path[1:]]  # no decision reads the root's distance, so it is left stale
        if moved and seen == (tree.writes - 1, tree.reshapes):  # one write, structure kept: only its path moved
            kids = np.array([child.at for node in tree.path[:-1] for child in (node.left, node.right)])
            before = self._d2[kids]
            self._d2[moved] = distances(tree.centroids[moved], self.xs)
            after = self._d2[kids]
            # only a flipped decision can move a row: walk those down again
            rows = ((before[::2] <= before[1::2]) != (after[::2] <= after[1::2])).any(axis=0).nonzero()[0].tolist()
        elif seen != self._seen:  # missed writes or a new structure: recompute every distance, walk every row
            self._d2 = distances(tree.centroids, self.xs)
            rows = range(len(self.leaf_ids))
        alerted = [a.node_id for a in alerts if a.scope == SCOPE_LOCAL]
        if not rows and not alerted:  # the common step: no row to walk, none to flag
            return []
        leaf_ids = self.leaf_ids.copy()
        for row in rows:
            node, d2 = tree.nodes[0], self._d2[:, row].tolist()
            while node.left is not None:
                node = node.left if d2[node.left.at] <= d2[node.right.at] else node.right
            leaf_ids[row] = node.node_id
        changed, self.leaf_ids = leaf_ids != self.leaf_ids, leaf_ids
        stale = changed | np.isin(leaf_ids, alerted) if alerted else changed
        rows = stale.nonzero()[0].tolist()
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
