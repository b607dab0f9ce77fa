"""Synthetic labeled streams with scheduled concept drift.

Two classic generator families are provided. SEA draws three uniform
features on [0, 10] and thresholds the sum of the first two; Agrawal
draws nine mixed demographic features and labels them with one of the
standard rule sets. Concepts switch abruptly or mix gradually through a
sigmoid transition window around each scheduled drift position.

Each generator builds its stream as whole arrays (``arrays()``). SEA
draws only doubles, so one ``rng.random(n)`` call draws it all. Agrawal
stays a row loop into preallocated arrays: its ``rng.integers`` draws
use 32-bit halves that the bit generator buffers, so they cannot batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stream import StreamSource, as_integer

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)

AGRAWAL_FEATURE_NAMES = (
    "salary",
    "commission",
    "age",
    "elevel",
    "car",
    "zipcode",
    "hvalue",
    "hyears",
    "loan",
)


@dataclass(frozen=True)
class DriftSchedule:
    """Scheduled drift positions with per-drift transition widths.

    ``positions`` are step indices where each new concept takes over;
    ``widths`` give the length of the sigmoid mixing window centered on
    the position (0 means an abrupt switch). Transition windows must not
    overlap each other.
    """

    positions: tuple[int, ...] = ()
    widths: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        positions = tuple(as_integer(p, "drift position") for p in self.positions)
        widths = tuple(as_integer(w, "drift width") for w in self.widths) if self.widths else (0,) * len(positions)
        if len(widths) != len(positions):
            raise ValueError(
                f"schedule has {len(positions)} positions but {len(widths)} widths"
            )
        if any(p <= 0 for p in positions):
            raise ValueError(f"drift positions must be positive, got {positions}")
        if any(w < 0 for w in widths):
            raise ValueError(f"drift widths must be >= 0, got {widths}")
        if list(positions) != sorted(set(positions)):
            raise ValueError(f"drift positions must be strictly increasing, got {positions}")
        for (p1, w1), (p2, w2) in zip(zip(positions, widths), zip(positions[1:], widths[1:])):
            if p1 + w1 / 2.0 >= p2 - w2 / 2.0:
                raise ValueError(
                    f"transition windows around positions {p1} and {p2} overlap"
                )
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "widths", widths)

    def validate_for_length(self, length: int) -> None:
        if self.positions and self.positions[-1] >= length:
            raise ValueError(
                f"drift position {self.positions[-1]} is beyond the stream length {length}"
            )

    def phases(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Per step: how many transition windows lie wholly before it, and whether it lies inside one.

        A window covers ``position - width / 2 <= t < position + width / 2``; an abrupt drift's is empty.
        """
        t = np.arange(length)
        half = np.array(self.widths) / 2.0
        before = np.searchsorted(np.array(self.positions) + half, t, side="right")
        starts = np.append(np.array(self.positions) - half, np.inf)
        return before, t >= starts[before]

    def incoming(self, t: int, k: int) -> float:
        """Probability that step t, inside window k, draws the concept that window brings in."""
        return transition_probability(t, self.positions[k], self.widths[k])


def transition_probability(t: int, position: int, width: int) -> float:
    """Probability of drawing from the incoming concept near a drift.

    Follows the sigmoid 1 / (1 + exp(-4 (t - position) / width)); at the
    position itself the two concepts are equally likely. Width 0 is a
    hard switch at the position.
    """
    if width <= 0:
        return 1.0 if t >= position else 0.0
    z = -4.0 * (t - position) / width
    return 1.0 / (1.0 + math.exp(min(z, 700.0)))


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """One draw of ``rng.uniform(lo, hi)``, by the same arithmetic without its per-call overhead."""
    return lo + (hi - lo) * rng.random()


class _GeneratorBase(StreamSource):
    """Common drift schedule and noise level for the synthetic generators.

    A family declares its concepts once, as ``concept_table`` (a concept
    is an index into it), and ``concept_error``, the message for an index
    outside it, and builds its stream in ``arrays``.
    """

    concept_table: tuple
    concept_error: str

    def __init__(
        self, length: int, concepts=(0,), schedule: DriftSchedule | None = None, perturbation: float = 0.1, seed: int = 0
    ):
        length = as_integer(length, "stream length")
        if length < 1:
            raise ValueError(f"stream length must be >= 1, got {length}")
        if not 0.0 <= perturbation < 1.0:
            raise ValueError(f"perturbation must lie in [0, 1), got {perturbation}")
        self.perturbation = perturbation
        self.schedule = schedule or DriftSchedule()
        self.schedule.validate_for_length(length)
        self.concepts = tuple(as_integer(c, "concept") for c in concepts)
        if len(self.concepts) != len(self.schedule.positions) + 1:
            raise ValueError(
                f"{len(self.schedule.positions)} drifts need "
                f"{len(self.schedule.positions) + 1} concepts, got {len(self.concepts)}"
            )
        if any(not 0 <= c < len(self.concept_table) for c in self.concepts):
            raise ValueError(self.concept_error.format(self.concepts))
        self.length = length
        self.seed = seed
        self.drift_positions = self.schedule.positions


class SeaStream(_GeneratorBase):
    """SEA concepts: label 1 when the first two features sum below a threshold.

    Features are uniform on [0, 10]^3 and only the first two carry
    signal. Concepts pick thresholds from ``SEA_THRESHOLDS``;
    ``perturbation`` is the probability of flipping a label.
    """

    n_features = 3
    n_classes = 2
    feature_names = ("f0", "f1", "f2")
    feature_ranges = ((0.0, 10.0), (0.0, 10.0), (0.0, 10.0))
    concept_table = SEA_THRESHOLDS
    concept_error = f"SEA concepts must index {SEA_THRESHOLDS}, got {{}}"

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        concept, inside = self.schedule.phases(self.length)
        # A row draws its concept (inside a window only), its three features, then its label flip.
        first = np.cumsum(4 + inside) - 4
        u = np.random.default_rng(self.seed).random(int(first[-1]) + 4)
        features = 0.0 + 10.0 * u[first[:, None] + np.arange(3)]  # rng.uniform(0.0, 10.0)'s arithmetic
        rows = np.flatnonzero(inside)
        incoming = [self.schedule.incoming(t, k) for t, k in zip(rows.tolist(), concept[rows].tolist())]
        concept[rows] += u[first[rows] - 1] < incoming  # the windows wholly before, plus the draw
        thresholds = np.array(SEA_THRESHOLDS)[np.array(self.concepts)[concept]]
        labels = (features[:, 0] + features[:, 1] <= thresholds) ^ (u[first + 3] < self.perturbation)
        return features, labels.astype(np.int64)


# Classification rule sets 0..2 of the classic loan-approval generator.
# Class 0 is "group A" in each rule.
def _agrawal_rule_0(salary, commission, age, elevel):
    return 0 if (age < 40 or age >= 60) else 1


def _agrawal_rule_1(salary, commission, age, elevel):
    if age < 40:
        return 0 if 50_000 <= salary <= 100_000 else 1
    if age < 60:
        return 0 if 75_000 <= salary <= 125_000 else 1
    return 0 if 25_000 <= salary <= 75_000 else 1


def _agrawal_rule_2(salary, commission, age, elevel):
    if age < 40:
        return 0 if elevel in (0, 1) else 1
    if age < 60:
        return 0 if elevel in (1, 2, 3) else 1
    return 0 if elevel in (2, 3, 4) else 1


AGRAWAL_RULES = (_agrawal_rule_0, _agrawal_rule_1, _agrawal_rule_2)


class AgrawalStream(_GeneratorBase):
    """Loan-approval generator with nine mixed features.

    Implements classification functions 0-2. The label is computed on
    the clean feature values; ``perturbation`` then jitters each numeric
    feature by a uniform offset of up to that fraction of its range,
    clipped back to the legal range.
    """

    n_features = 9
    n_classes = 2
    feature_names = AGRAWAL_FEATURE_NAMES
    feature_ranges = (
        (20_000.0, 150_000.0),  # salary
        (0.0, 75_000.0),  # commission (0 when salary >= 75k)
        (20.0, 80.0),  # age
        (0.0, 4.0),  # elevel
        (1.0, 20.0),  # car
        (0.0, 8.0),  # zipcode
        (50_000.0, 1_350_000.0),  # hvalue, scaled by zipcode
        (1.0, 30.0),  # hyears
        (0.0, 500_000.0),  # loan
    )
    concept_table = AGRAWAL_RULES
    concept_error = f"Agrawal concepts must index functions 0..{len(AGRAWAL_RULES) - 1}, got {{}}"

    def _perturb(self, rng, value, lo, hi):
        value += self.perturbation * (hi - lo) * (2.0 * rng.random() - 1.0)
        return min(max(value, lo), hi)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        features = np.empty((self.length, self.n_features))
        labels = np.empty(self.length, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        before, inside = self.schedule.phases(self.length)
        for t, k, window in zip(range(self.length), before.tolist(), inside.tolist()):
            # a window step draws its concept first
            if window and rng.random() < self.schedule.incoming(t, k):
                k += 1
            salary = _uniform(rng, 20_000.0, 150_000.0)
            commission = 0.0 if salary >= 75_000.0 else _uniform(rng, 10_000.0, 75_000.0)
            age = _uniform(rng, 20.0, 80.0)
            elevel = int(rng.integers(0, 5))
            car = int(rng.integers(1, 21))
            zipcode = int(rng.integers(0, 9))
            hvalue = (9.0 - zipcode) * 100_000.0 * _uniform(rng, 0.5, 1.5)
            hyears = float(rng.integers(1, 31))
            loan = _uniform(rng, 0.0, 500_000.0)
            labels[t] = AGRAWAL_RULES[self.concepts[k]](salary, commission, age, elevel)
            if self.perturbation > 0.0:
                salary = self._perturb(rng, salary, 20_000.0, 150_000.0)
                if commission > 0.0:
                    commission = self._perturb(rng, commission, 10_000.0, 75_000.0)
                age = self._perturb(rng, age, 20.0, 80.0)
                hval_lo = (9.0 - zipcode) * 50_000.0
                hval_hi = (9.0 - zipcode) * 150_000.0
                hvalue = self._perturb(rng, hvalue, hval_lo, hval_hi)
                hyears = self._perturb(rng, hyears, 1.0, 30.0)
                loan = self._perturb(rng, loan, 0.0, 500_000.0)
            features[t] = salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan
        return features, labels


GENERATORS = {"sea": SeaStream, "agrawal": AgrawalStream}


def make_generator(kind: str, **kwargs) -> StreamSource:
    """Instantiate a generator by its ``GENERATORS`` name."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {sorted(GENERATORS)}")
    return GENERATORS[kind](**kwargs)
