"""Local feature attributions and lazy recomputation management.

For a linear model the contribution of each feature to a prediction,
relative to a baseline input, has a closed form on the margin scale:
phi_j = w_j * (x_j - baseline_j), with the baseline outcome
phi0 = w . baseline + bias. The parts always add back up to the margin
exactly (local accuracy), which is what makes staleness detectable: if
the margin moved, some part moved.

The tracker keeps attributions for a set of pinned feature vectors and
flags one as stale only when the cluster tree reassigns its vector to a
different leaf or raises a local change alert at its leaf. It keeps the
pinned vectors as one K x m matrix and routes every one of them through
the tree in one batched pass per step. The caller recomputes the flagged
ones with whatever explainer it uses; everything else is reused as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree import SCOPE_LOCAL, AdaptiveClusterTree, DriftAlert

REASON_INITIAL = "initial"
REASON_LEAF_CHANGE = "leaf-change"
REASON_LOCAL_ALERT = "local-alert"
REASON_EVERY_STEP = "every-step"


@dataclass(frozen=True)
class AttributionVector:
    """Additive feature contributions on the margin scale at one step."""

    phi: np.ndarray
    phi0: float
    t: int

    def total(self) -> float:
        return self.phi0 + float(self.phi.sum())


@dataclass(eq=False)
class AttributionRecord:
    """A tracked feature vector with its attribution history.

    ``history`` holds every computed vector (the initial one included),
    aligned with ``log`` entries of (step, reason); the stored
    attribution is the latest one. ``leaf_id`` is the tree leaf ``x``
    was last routed to. Records compare and hash by identity.
    """

    x: np.ndarray
    leaf_id: int
    log: list[tuple[int, str]] = field(default_factory=list, init=False)
    history: list[AttributionVector] = field(default_factory=list, init=False)

    def refresh(self, vec: AttributionVector, reason: str) -> None:
        """Store ``vec``, computed at step ``vec.t`` for ``reason``."""
        self.log.append((vec.t, reason))
        self.history.append(vec)

    @property
    def current(self) -> AttributionVector:
        return self.history[-1]

    @property
    def recompute_count(self) -> int:
        return len(self.log)

    @property
    def start_t(self) -> int:
        return self.log[0][0]


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

    Call ``track`` to pin a feature vector with its initial attribution
    and ``step`` once per time step, after the tree has been updated,
    with that step's alerts. A record is stale when the tree routes its
    vector to a different leaf or raises a local alert at its leaf; a
    leaf change takes precedence when both apply at the same step.
    ``step`` routes all pinned vectors (rows of ``xs``, in record order)
    in one ``find_leaves`` call; the caller recomputes stale records.
    """

    def __init__(self, tree: AdaptiveClusterTree):
        self.tree = tree
        self.records: list[AttributionRecord] = []
        self.xs = np.empty((0, tree.n_features))

    def track(self, x: np.ndarray, vec: AttributionVector) -> AttributionRecord:
        record = AttributionRecord(x, self.tree.find_leaf(x).node_id)
        record.refresh(vec, REASON_INITIAL)
        self.records.append(record)
        self.xs = np.vstack((self.xs, x))
        return record

    def step(self, alerts: list[DriftAlert]) -> list[tuple[AttributionRecord, str]]:
        """(record, reason) for each record gone stale, in record order."""
        alerted_leaves = {a.node_id for a in alerts if a.scope == SCOPE_LOCAL}
        stale = []
        for record, leaf in zip(self.records, self.tree.find_leaves(self.xs)):
            if leaf.node_id != record.leaf_id:
                record.leaf_id = leaf.node_id
                stale.append((record, REASON_LEAF_CHANGE))
            elif leaf.node_id in alerted_leaves:
                stale.append((record, REASON_LOCAL_ALERT))
        return stale


def trace_rows(records: list[AttributionRecord]):
    """Flatten recompute events for CSV export.

    Yields (t, record_index, feature_index, phi, reason) rows, one per
    feature per recompute event, in step order within each record.
    """
    for i, record in enumerate(records):
        for (t, reason), vec in zip(record.log, record.history):
            for j, value in enumerate(vec.phi):
                yield (t, i, j, float(value), reason)
