"""Incrementally trained classifiers monitored by the detector.

Both models follow the same two-call protocol used by the prequential
loop: ``predict(xs)`` first (test), then ``update(x, y, prediction)``
(train) with the prediction of x. ``predict`` takes one feature vector
or a batch with a leading axis, so the loop predicts an observation and
the baseline input in one call. The logistic model returns a
positive-class probability (a list of them for a batch); naive Bayes
returns a posterior vector (one row per batch row). Each model reads
its own predictions: ``predicted_class(prediction)`` is the class it
predicts, and ``detector_input(prediction, baseline_prediction)`` is
the scalar the detector uses.
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

    def predict(self, x: np.ndarray):
        """Positive-class probability of x, or a list of them for the rows of a batch."""
        dots = np.vecdot(x, self.weights).tolist()
        if isinstance(dots, float):
            return _sigmoid(dots + self.bias)
        return [_sigmoid(dot + self.bias) for dot in dots]

    def update(self, x: np.ndarray, y: int, prediction: float | None = None) -> None:
        """One gradient step on the log loss; ``prediction`` is ``predict(x)`` if known."""
        if y not in (0, 1):
            raise ValueError(f"logistic regression expects binary labels, got {y}")
        if prediction is None:
            prediction = self.predict(x)
        g = self.learning_rate * (prediction - y)
        self.weights -= g * np.asarray(x, dtype=float)
        self.bias -= g

    def predicted_class(self, p: float) -> int:
        return int(p >= 0.5)

    def detector_input(self, p: float, p_base: float) -> float:
        """The gap between the positive-class probabilities of x and of the baseline input."""
        return p - p_base


class GaussianNaiveBayes:
    """Gaussian naive Bayes with single-pass moment updates.

    Per-class feature moments are maintained with Welford's recurrence,
    so long streams do not lose precision to catastrophic cancellation.
    ``variances`` is the class x feature matrix of sample variances (n-1
    denominator) floored at ``VARIANCE_FLOOR``; a class with fewer than
    two observations sits at the floor. ``update`` refreshes its class's
    row of it and of ``log(2*pi*var)``, and the class log-priors, so
    ``predict`` is whole-matrix math.
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
        self._log_prior: np.ndarray | None = None  # log(count / total) per class, -inf if unseen

    def update(self, x: np.ndarray, y: int, prediction=None) -> None:
        if not 0 <= y < self.n_classes:
            raise ValueError(f"label {y} outside 0..{self.n_classes - 1}")
        x = np.asarray(x, dtype=float)
        n = int(self.counts[y]) + 1
        self.counts[y] = n
        mean = self.means[y]
        delta = x - mean
        mean += delta / n
        m2 = self._m2[y]
        m2 += delta * (x - mean)
        if n > 1:
            var = np.maximum(m2 / (n - 1), VARIANCE_FLOOR, out=self.variances[y])
            np.log(2.0 * np.pi * var, out=self._log_norm[y])
        counts = self.counts.tolist()
        total = sum(counts)
        self._log_prior = np.array([math.log(c / total) if c else -math.inf for c in counts])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Posterior probability vector over all classes, one per row for a batch.

        Classes never seen get probability zero; at least one class must
        have been observed.
        """
        if self._log_prior is None:
            raise ValueError("cannot predict before any training observation")
        x = np.asarray(x, dtype=float)[..., None, :]
        # ufunc reductions called directly: the ndarray methods add a Python wrapper per call
        lls = -0.5 * np.add.reduce(self._log_norm + np.square(x - self.means) / self.variances, axis=-1)
        log_post = lls + self._log_prior
        post = np.exp(log_post - np.maximum.reduce(log_post, axis=-1, keepdims=True))
        return post / np.add.reduce(post, axis=-1, keepdims=True)

    def predicted_class(self, post: np.ndarray) -> int:
        return int(post.argmax())

    def detector_input(self, post: np.ndarray, post_base: np.ndarray) -> float:
        """p(k | x) - p(k | baseline input), with k the class predicted for x."""
        k = int(post.argmax())
        return float(post[k] - post_base[k])
