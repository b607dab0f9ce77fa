"""Synthetic labeled streams with scheduled concept drift.

Two classic generator families are provided. SEA draws three uniform
features on [0, 10] and thresholds the sum of the first two; Agrawal
draws nine mixed demographic features and labels them with one of the
standard rule sets. Concepts switch abruptly or mix gradually through a
sigmoid transition window around each scheduled drift position.

Each generator builds its stream as whole arrays (``arrays()``). SEA
draws only doubles, so one ``rng.random(n)`` call draws it all. Agrawal
is drawn in blocks of ``AGRAWAL_BLOCK_ROWS`` rows, each block from two
calls of one generator, and every block, the last one too, draws a whole
block's values, so a stream's first rows do not depend on its length.
Window rows get their concept probabilities as one vector per stream or
block: ``transition_probability`` takes arrays and maps ``math.exp``
over them, so every value keeps the bits of a scalar call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stream import StreamSource, as_integer, drift_steps

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
        positions = drift_steps(self.positions, math.inf)
        widths = tuple(as_integer(w, "drift width") for w in self.widths) if self.widths else (0,) * len(positions)
        if len(widths) != len(positions):
            raise ValueError(
                f"schedule has {len(positions)} positions but {len(widths)} widths"
            )
        if any(w < 0 for w in widths):
            raise ValueError(f"drift widths must be >= 0, got {widths}")
        for (p1, w1), (p2, w2) in zip(zip(positions, widths), zip(positions[1:], widths[1:])):
            if p1 + w1 / 2.0 >= p2 - w2 / 2.0:
                raise ValueError(
                    f"transition windows around positions {p1} and {p2} overlap"
                )
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "widths", widths)

    def phases(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Per step: how many transition windows lie wholly before it, and whether it lies inside one.

        A window covers ``position - width / 2 <= t < position + width / 2``; an abrupt drift's is empty.
        """
        t = np.arange(length)
        half = np.array(self.widths) / 2.0
        before = np.searchsorted(np.array(self.positions) + half, t, side="right")
        starts = np.append(np.array(self.positions) - half, np.inf)
        return before, t >= starts[before]

    def incoming(self, t, k):
        """Probability that step t, inside window k, draws the concept that window brings in; t and k may be arrays."""
        return transition_probability(t, np.array(self.positions)[k], np.array(self.widths)[k])


def transition_probability(t, position, width):
    """Probability of drawing from the incoming concept near a drift.

    Follows the sigmoid 1 / (1 + exp(-4 (t - position) / width)); at the
    position itself the two concepts are equally likely. Width 0 is a
    hard switch at the position. Arrays of matching shape give an array,
    scalars a float; ``math.exp`` of each element keeps a scalar call's bits.
    """
    t, position, width = np.broadcast_arrays(t, position, width)
    switch = width <= 0
    z = np.minimum(-4.0 * (t - position) / np.where(switch, 1, width), 700.0)
    e = np.fromiter(map(math.exp, z.ravel().tolist()), float, z.size).reshape(z.shape)
    p = np.where(switch, t >= position, 1.0 / (1.0 + e))
    return p if p.ndim else float(p)


def _uniform(u, lo, hi):
    """``rng.uniform(lo, hi)``'s arithmetic on ``u``, one ``rng.random()`` draw or an array of them."""
    return lo + (hi - lo) * u


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
        self.drift_positions = drift_steps(self.schedule.positions, length)
        self.concepts = tuple(as_integer(c, "concept") for c in concepts)
        if len(self.concepts) != len(self.schedule.positions) + 1:
            raise ValueError(
                f"{len(self.schedule.positions)} drifts need "
                f"{len(self.schedule.positions) + 1} concepts, got {len(self.concepts)}"
            )
        if any(not 0 <= c < len(self.concept_table) for c in self.concepts):
            raise ValueError(self.concept_error.format(self.concepts))
        seed = as_integer(seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.length = length
        self.seed = seed


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
        # the windows wholly before, plus the draw
        concept[rows] += u[first[rows] - 1] < self.schedule.incoming(rows, concept[rows])
        thresholds = np.array(SEA_THRESHOLDS)[np.array(self.concepts)[concept]]
        labels = (features[:, 0] + features[:, 1] <= thresholds) ^ (u[first + 3] < self.perturbation)
        return features, labels.astype(np.int64)


# Classification rule sets 0..2 of the classic loan-approval generator,
# as array functions (a scalar call gives a 0-d array). Class 0 is
# "group A" in each rule.
def _agrawal_rule_0(salary, commission, age, elevel):
    return np.where((age < 40) | (age >= 60), 0, 1)


def _agrawal_rule_1(salary, commission, age, elevel):
    group_a = np.where(
        age < 40,
        (50_000 <= salary) & (salary <= 100_000),
        np.where(age < 60, (75_000 <= salary) & (salary <= 125_000), (25_000 <= salary) & (salary <= 75_000)),
    )
    return np.where(group_a, 0, 1)


def _agrawal_rule_2(salary, commission, age, elevel):
    group_a = np.where(
        age < 40,
        elevel <= 1,
        np.where(age < 60, (1 <= elevel) & (elevel <= 3), elevel >= 2),
    )
    return np.where(group_a, 0, 1)


AGRAWAL_RULES = (_agrawal_rule_0, _agrawal_rule_1, _agrawal_rule_2)

# Agrawal rows drawn per block. The block size is part of the stream's
# definition: the draws of a block are laid out by it.
AGRAWAL_BLOCK_ROWS = 2048


class AgrawalStream(_GeneratorBase):
    """Loan-approval generator with nine mixed features.

    Implements classification functions 0-2. The label is computed on
    the clean feature values; ``perturbation`` then jitters each numeric
    feature by a uniform offset of up to that fraction of its range,
    clipped back to the legal range.

    Each block of ``AGRAWAL_BLOCK_ROWS`` rows takes two draws from one
    ``default_rng(seed)``: ``rng.random((12, AGRAWAL_BLOCK_ROWS))``, whose
    rows give the concept draw (read in window rows only), salary,
    commission, age, hvalue and loan, then the jitters of salary,
    commission, age, hvalue, hyears and loan; and ``rng.integers`` of
    shape ``(AGRAWAL_BLOCK_ROWS, 4)``, whose columns give elevel, car,
    zipcode and hyears. The last block is drawn whole and cut to the
    stream's end.
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

    def _perturb(self, value, u, lo, hi):
        """Jitter ``value`` by up to ``perturbation`` of its range, clipped into it; ``u`` is ``rng.random()``."""
        value = value + self.perturbation * (hi - lo) * (2.0 * u - 1.0)
        return np.minimum(np.maximum(value, lo), hi)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        features = np.empty((self.length, self.n_features))
        labels = np.empty(self.length, dtype=np.int64)
        before, inside = self.schedule.phases(self.length)
        rng = np.random.default_rng(self.seed)
        for lo in range(0, self.length, AGRAWAL_BLOCK_ROWS):
            n = min(AGRAWAL_BLOCK_ROWS, self.length - lo)
            u = rng.random((12, AGRAWAL_BLOCK_ROWS))[:, :n]
            elevel, car, zipcode, hyears = rng.integers((0, 1, 0, 1), (5, 21, 9, 31), (AGRAWAL_BLOCK_ROWS, 4))[:n].T
            salary = _uniform(u[1], 20_000.0, 150_000.0)
            c = salary < 75_000.0
            commission = np.where(c, _uniform(u[2], 10_000.0, 75_000.0), 0.0)
            age = _uniform(u[3], 20.0, 80.0)
            hvalue = (9.0 - zipcode) * 100_000.0 * _uniform(u[4], 0.5, 1.5)
            loan = _uniform(u[5], 0.0, 500_000.0)
            k = before[lo : lo + n].copy()
            drawn = np.flatnonzero(inside[lo : lo + n])
            k[drawn] += u[0, drawn] < self.schedule.incoming(drawn + lo, k[drawn])
            rules = np.array(self.concepts)[k]
            labels[lo : lo + n] = np.choose(rules, [rule(salary, commission, age, elevel) for rule in AGRAWAL_RULES])
            if self.perturbation > 0.0:
                salary = self._perturb(salary, u[6], 20_000.0, 150_000.0)
                commission = np.where(c, self._perturb(commission, u[7], 10_000.0, 75_000.0), commission)
                age = self._perturb(age, u[8], 20.0, 80.0)
                hvalue = self._perturb(hvalue, u[9], (9.0 - zipcode) * 50_000.0, (9.0 - zipcode) * 150_000.0)
                hyears = self._perturb(hyears, u[10], 1.0, 30.0)
                loan = self._perturb(loan, u[11], 0.0, 500_000.0)
            features[lo : lo + n] = np.column_stack((salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan))
        return features, labels


GENERATORS = {"sea": SeaStream, "agrawal": AgrawalStream}


def make_generator(kind: str, **kwargs) -> StreamSource:
    """Instantiate a generator by its ``GENERATORS`` name."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {sorted(GENERATORS)}")
    return GENERATORS[kind](**kwargs)
