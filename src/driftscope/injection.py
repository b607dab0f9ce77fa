"""Feature-targeted drift injection for buffered streams.

Real datasets rarely ship with ground-truth drift positions, so we
manufacture them: rank features by how much each one tells us about the
label, then permute the most informative ones from a chosen position
onward. The marginal distribution of every feature is untouched (it is
the same multiset of values), but the feature-label joint breaks, which
is exactly the kind of change a concept-drift detector should notice.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .stream import BufferedStream, as_integer, drift_steps

MI_BINS = 10
MIN_MI_SAMPLE = 100


def mutual_information(values: np.ndarray, labels: np.ndarray, bins: int = MI_BINS) -> float:
    """Mutual information in nats between a binned feature and the labels.

    The feature is discretized into ``bins`` equal-width bins over its
    observed range and the MI is read off the empirical joint
    histogram. A constant feature carries no information.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValueError(
            f"values and labels must be 1-d and equal length, got {values.shape} and {labels.shape}"
        )
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    n = values.size
    if n == 0:
        raise ValueError("cannot estimate mutual information from an empty sample")
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    binned = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, bins - 1)
    classes, codes = np.unique(labels, return_inverse=True)
    joint = np.bincount(binned * len(classes) + codes, minlength=bins * len(classes)).reshape(bins, -1)
    p_b = joint.sum(axis=1) / n
    p_c = joint.sum(axis=0) / n
    mi = 0.0
    for b, c in zip(*np.nonzero(joint)):  # added bin by bin, each bin's classes in order
        p_bc = joint[b, c] / n
        mi += p_bc * math.log(p_bc / (p_b[b] * p_c[c]))
    return max(mi, 0.0)


def mi_rank_features(
    features: np.ndarray, labels: np.ndarray, bins: int = MI_BINS
) -> list[int]:
    """Feature indices sorted by label mutual information, best first.

    Ties keep the lower feature index first, so the ranking is stable
    across runs; with a single label value every score is zero and the
    original order comes back.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-d array, got shape {features.shape}")
    if features.shape[0] < MIN_MI_SAMPLE:
        raise ValueError(
            f"mutual-information ranking needs at least {MIN_MI_SAMPLE} rows, got {features.shape[0]}"
        )
    scores = np.array(
        [mutual_information(features[:, j], labels, bins) for j in range(features.shape[1])]
    )
    order = np.argsort(-scores, kind="stable")
    return [int(j) for j in order]


def permute_inject(
    stream: BufferedStream,
    positions: Sequence[int],
    top_fraction: float = 0.5,
    bins: int = MI_BINS,
    seed: int = 0,
) -> BufferedStream:
    """Inject drift by permuting the most label-informative features.

    The top ``ceil(top_fraction * n_features)`` features are chosen by
    mutual information measured on the rows before the first drift
    position. Each position then owns the rows from itself up to the
    next position (or the stream end), and the chosen features are
    shuffled row-wise inside that span, with independent permutations
    per feature. Labels and unselected features are untouched, and
    every per-feature value multiset from any drift position onward is
    exactly preserved.
    """
    # the first position is at least 1: the rows before it rank the features
    positions = drift_steps(positions, stream.length, what="injection position")
    if not positions:
        raise ValueError("need at least one injection position")
    if isinstance(top_fraction, bool) or not isinstance(top_fraction, numbers.Real):
        raise ValueError(f"top_fraction must be a number, got {top_fraction!r}")
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must lie in (0, 1], got {top_fraction}")
    bins = as_integer(bins, "bins")
    seed = as_integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    n_selected = math.ceil(top_fraction * stream.n_features)
    pre = slice(0, positions[0])
    selected = mi_rank_features(stream.features[pre], stream.labels[pre], bins)[:n_selected]

    rng = np.random.default_rng(seed)
    features = stream.features.copy()
    bounds = positions + (stream.length,)
    for p, nxt in zip(positions, bounds[1:]):
        for j in selected:
            perm = rng.permutation(nxt - p)
            features[p:nxt, j] = features[p:nxt, j][perm]

    return BufferedStream(
        features=features,
        labels=stream.labels.copy(),
        drift_positions=positions,
        feature_names=stream.feature_names,
        feature_ranges=stream.feature_ranges,
    )
