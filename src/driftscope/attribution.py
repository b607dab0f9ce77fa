"""Local feature attributions and lazy recomputation management.

For a linear model the contribution of each feature to a prediction,
relative to a baseline input, has a closed form on the margin scale:
phi_j = w_j * (x_j - baseline_j), with the baseline outcome
phi0 = w . baseline + bias. The parts always add back up to the margin
exactly (local accuracy), which is what makes staleness detectable: if
the margin moved, some part moved.

The tracker keeps attributions for a set of pinned observations and
recomputes one only when the cluster tree reassigns its observation to
a different leaf or raises a local change alert at its leaf. Everything
else is reused as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stream import Observation
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


@dataclass
class AttributionRecord:
    """A tracked observation with its stored attribution and history.

    ``history`` holds every computed vector (the initial one included),
    aligned with ``log`` entries of (step, reason). Between recompute
    events the stored attribution is simply the latest history entry.
    ``leaf_id`` is the tree leaf the observation was last routed to, or
    None for a record refreshed without the tree.
    """

    obs: Observation
    current: AttributionVector
    leaf_id: int | None
    log: list[tuple[int, str]] = field(default_factory=list)
    history: list[AttributionVector] = field(default_factory=list)

    @classmethod
    def start(cls, obs: Observation, vec: AttributionVector, leaf_id: int | None = None) -> AttributionRecord:
        """A record holding only its initial attribution ``vec``."""
        return cls(obs, vec, leaf_id, [(vec.t, REASON_INITIAL)], [vec])

    @property
    def recompute_count(self) -> int:
        return len(self.log)

    @property
    def start_t(self) -> int:
        return self.log[0][0]


def _require_linear(model) -> None:
    if not (hasattr(model, "weights") and hasattr(model, "bias") and hasattr(model, "margin")):
        raise TypeError(
            f"attribution needs a linear model with weights/bias/margin, got {type(model).__name__}"
        )


def attribute_linear(model, x: np.ndarray, baseline_input: np.ndarray, t: int = 0) -> AttributionVector:
    """Exact additive attribution of a linear model's margin.

    phi_j = w_j * (x_j - baseline_j) and phi0 = w . baseline + bias, so
    phi0 + sum(phi) recovers margin(x) up to rounding.
    """
    _require_linear(model)
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


def verify_local_accuracy(model, x: np.ndarray, attribution: AttributionVector, tol: float = 1e-9) -> bool:
    """Whether the attribution still adds up to the model's margin at x."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return abs(model.margin(np.asarray(x, dtype=float)) - attribution.total()) <= tol


class AttributionTracker:
    """Recomputes tracked attributions only on leaf change or local alert.

    Call ``track`` to pin an observation (its initial attribution is
    computed immediately) and ``step`` once per time step, after the
    tree has been updated, with that step's alerts. A leaf change takes
    precedence over a local alert when both apply at the same step.
    """

    def __init__(self, model, tree: AdaptiveClusterTree):
        _require_linear(model)
        self.model = model
        self.tree = tree
        self.records: list[AttributionRecord] = []

    def track(self, obs: Observation, baseline_input: np.ndarray, t: int) -> AttributionRecord:
        vec = attribute_linear(self.model, obs.x, baseline_input, t)
        leaf = self.tree.find_leaf(obs.x)
        record = AttributionRecord.start(obs, vec, leaf.node_id)
        self.records.append(record)
        return record

    def step(
        self, alerts: list[DriftAlert], baseline_input: np.ndarray, t: int
    ) -> list[AttributionRecord]:
        """Refresh stale records for step t; returns those recomputed."""
        alerted_leaves = {a.node_id for a in alerts if a.scope == SCOPE_LOCAL}
        recomputed = []
        for record in self.records:
            leaf = self.tree.find_leaf(record.obs.x)
            if leaf.node_id != record.leaf_id:
                reason = REASON_LEAF_CHANGE
            elif leaf.node_id in alerted_leaves:
                reason = REASON_LOCAL_ALERT
            else:
                continue
            vec = attribute_linear(self.model, record.obs.x, baseline_input, t)
            record.current = vec
            record.leaf_id = leaf.node_id
            record.log.append((t, reason))
            record.history.append(vec)
            recomputed.append(record)
        return recomputed


def trace_rows(records: list[AttributionRecord]):
    """Flatten recompute events for CSV export.

    Yields (t, record_index, feature_index, phi, reason) rows, one per
    feature per recompute event, in step order within each record.
    """
    for i, record in enumerate(records):
        for (t, reason), vec in zip(record.log, record.history):
            for j, value in enumerate(vec.phi):
                yield (t, i, j, float(value), reason)
