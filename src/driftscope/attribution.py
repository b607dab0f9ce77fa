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
row per pinned vector, in pin order, and routes every row through the
tree in one batched pass per step. The caller recomputes the flagged
rows with whatever explainer it uses; everything else is reused as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import SCOPE_LOCAL, AdaptiveClusterTree, DriftAlert

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
        self.leaf_ids: list[int] = []
        self.history: list[list[tuple[str, AttributionVector]]] = []

    def track(self, x: np.ndarray, vec: AttributionVector) -> int:
        self.leaf_ids.append(self.tree.find_leaf(x).node_id)
        self.xs = np.vstack((self.xs, x))
        self.phis = np.vstack((self.phis, vec.phi))
        self.history.append([(REASON_INITIAL, vec)])
        return len(self.history) - 1

    def refresh(self, row: int, vec: AttributionVector, reason: str) -> None:
        """Store ``vec``, computed at step ``vec.t`` for ``reason``, as the row's phi."""
        self.phis[row] = vec.phi
        self.history[row].append((reason, vec))

    def step(self, alerts: list[DriftAlert]) -> list[tuple[int, str]]:
        """(row, reason) for each row gone stale, in row order."""
        alerted_leaves = {a.node_id for a in alerts if a.scope == SCOPE_LOCAL}
        stale = []
        for row, leaf in enumerate(self.tree.find_leaves(self.xs)):
            if leaf.node_id != self.leaf_ids[row]:
                self.leaf_ids[row] = leaf.node_id
                stale.append((row, REASON_LEAF_CHANGE))
            elif leaf.node_id in alerted_leaves:
                stale.append((row, REASON_LOCAL_ALERT))
        return stale

    def trace_rows(self):
        """Flatten the stored attributions for CSV export.

        Yields (t, row, feature_index, phi, reason) rows, one per feature
        per stored vector, row by row and in step order within a row.
        """
        for row, events in enumerate(self.history):
            for reason, vec in events:
                for j, value in enumerate(vec.phi):
                    yield (vec.t, row, j, float(value), reason)
