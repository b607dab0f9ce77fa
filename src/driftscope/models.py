"""Incrementally trained classifiers monitored by the detector.

Both models follow the same two-call protocol used by the prequential
loop: ``predict(x)`` first (test), then ``update(x, y, prediction)``
(train) with that same prediction. The logistic model returns a
positive-class probability; naive Bayes returns a posterior vector, and
``detector_input`` reduces either form to the scalar the detector uses.
"""

from __future__ import annotations

import math

import numpy as np

VARIANCE_FLOOR = 1e-9


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class OnlineLogisticRegression:
    """Binary logistic regression trained by per-observation SGD."""

    def __init__(self, n_features: int, learning_rate: float = 0.1):
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {learning_rate}")
        self.n_features = n_features
        self.learning_rate = learning_rate
        self.weights = np.zeros(n_features, dtype=float)
        self.bias = 0.0

    def margin(self, x: np.ndarray) -> float:
        """Pre-sigmoid score w.x + b."""
        return float(self.weights @ x) + self.bias

    def predict(self, x: np.ndarray) -> float:
        """Positive-class probability."""
        return _sigmoid(self.margin(x))

    def update(self, x: np.ndarray, y: int, prediction: float | None = None) -> None:
        """One gradient step on the log loss; ``prediction`` is ``predict(x)`` if known."""
        if y not in (0, 1):
            raise ValueError(f"logistic regression expects binary labels, got {y}")
        if prediction is None:
            prediction = self.predict(x)
        g = self.learning_rate * (prediction - y)
        self.weights -= g * np.asarray(x, dtype=float)
        self.bias -= g


class GaussianNaiveBayes:
    """Gaussian naive Bayes with single-pass moment updates.

    Per-class feature moments are maintained with Welford's recurrence,
    so long streams do not lose precision to catastrophic cancellation.
    ``variances`` is the class x feature matrix of sample variances (n-1
    denominator) floored at ``VARIANCE_FLOOR``; a class with fewer than
    two observations sits at the floor. ``update`` refreshes its class's
    row of it and of ``log(2*pi*var)``, so ``predict`` is whole-matrix math.
    """

    def __init__(self, n_features: int, n_classes: int):
        if n_features < 1 or n_classes < 2:
            raise ValueError(f"need n_features >= 1 and n_classes >= 2, got {n_features}, {n_classes}")
        self.n_features = n_features
        self.n_classes = n_classes
        self.counts = np.zeros(n_classes, dtype=np.int64)
        self.means = np.zeros((n_classes, n_features), dtype=float)
        self._m2 = np.zeros((n_classes, n_features), dtype=float)
        self.variances = np.full((n_classes, n_features), VARIANCE_FLOOR)
        self._log_norm = np.log(2.0 * np.pi * self.variances)

    def update(self, x: np.ndarray, y: int, prediction=None) -> None:
        if not 0 <= y < self.n_classes:
            raise ValueError(f"label {y} outside 0..{self.n_classes - 1}")
        x = np.asarray(x, dtype=float)
        self.counts[y] += 1
        delta = x - self.means[y]
        self.means[y] += delta / self.counts[y]
        self._m2[y] += delta * (x - self.means[y])
        if self.counts[y] > 1:
            self.variances[y] = np.maximum(self._m2[y] / (self.counts[y] - 1), VARIANCE_FLOOR)
            self._log_norm[y] = np.log(2.0 * np.pi * self.variances[y])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Posterior probability vector over all classes.

        Classes never seen get probability zero; at least one class must
        have been observed.
        """
        total = int(self.counts.sum())
        if total == 0:
            raise ValueError("cannot predict before any training observation")
        x = np.asarray(x, dtype=float)
        lls = -0.5 * (self._log_norm + (x - self.means) ** 2 / self.variances).sum(axis=1)
        log_post = np.full(self.n_classes, -np.inf)
        for k in np.flatnonzero(self.counts).tolist():
            log_post[k] = lls[k] + math.log(self.counts[k] / total)
        shift = log_post - log_post.max()
        post = np.exp(shift)
        return post / post.sum()


def detector_input(model_out, baseline_out) -> float:
    """Reduce a (prediction, baseline prediction) pair to one scalar.

    Scalar outputs (binary models) subtract directly. Vector outputs
    compare the probability of the observation's predicted class:
    p(k* | x) - p(k* | baseline) with k* = argmax over the observation's
    posterior.
    """
    scalar_out = np.isscalar(model_out) or getattr(model_out, "ndim", 0) == 0
    scalar_base = np.isscalar(baseline_out) or getattr(baseline_out, "ndim", 0) == 0
    if scalar_out and scalar_base:
        return float(model_out) - float(baseline_out)
    if scalar_out != scalar_base:
        raise ValueError("model and baseline outputs must both be scalars or both be vectors")
    mo = np.asarray(model_out, dtype=float)
    bo = np.asarray(baseline_out, dtype=float)
    if mo.shape != bo.shape:
        raise ValueError(f"output shapes differ: {mo.shape} vs {bo.shape}")
    k = int(mo.argmax())
    return float(mo[k] - bo[k])
