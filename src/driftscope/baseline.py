"""Exponentially weighted moving-average baseline over the input space.

The baseline vector summarizes where the stream has been: each step it
blends the newest observation in with weight beta. Evaluating the model
at this vector gives the reference output that observation-level
predictions are compared against.
"""

from __future__ import annotations

import numpy as np


class EwmaBaseline:
    """Tracks EWMA_t = beta * x_t + (1 - beta) * EWMA_{t-1}.

    The first observation initializes the average directly. With beta=0
    the baseline freezes at that first observation, which doubles as a
    constant-vector baseline for testing.
    """

    def __init__(self, beta: float = 0.001):
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta}")
        self.beta = beta
        self.ewma: np.ndarray | None = None

    def update(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.ewma is None:
            self.ewma = x.copy()
        elif x.shape != self.ewma.shape:
            raise ValueError(f"observation shape {x.shape} does not match baseline shape {self.ewma.shape}")
        else:
            self.ewma = self.beta * x + (1.0 - self.beta) * self.ewma
        return self.ewma

    def value(self, model):
        """The model's output at the current baseline vector."""
        if self.ewma is None:
            raise ValueError("baseline is not initialized; update it with an observation first")
        return model.predict(self.ewma)
