"""Synthetic labeled streams with scheduled concept drift.

Two classic generator families are provided. SEA draws three uniform
features on [0, 10] and thresholds the sum of the first two; Agrawal
draws nine mixed demographic features and labels them with one of the
standard rule sets. Concepts switch abruptly or mix gradually through a
sigmoid transition window around each scheduled drift position.

Each generator builds its stream as whole arrays (``arrays()``). SEA
draws only doubles, so one ``rng.random(n)`` call draws it all. Agrawal
mixes doubles with ``rng.integers`` draws, which take 32-bit halves of
the raw words, and a row's word count depends on its salary draw. It is
built in blocks of rows: one ``random_raw`` call draws a block's words,
which become one array of doubles; one pass through a byte table of row
lengths finds each row's first word, and gathers and whole-array
arithmetic turn the words into the very values the row loop would draw.
From the first row where Lemire's method would reject an integer draw
and redraw, the row loop draws the rest. Window rows get their concept
probabilities as one vector per stream or block: ``transition_probability``
takes arrays and maps ``math.exp`` over them, so every value keeps the
bits of a scalar call.
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

# Agrawal rows drawn per block of raw words: enough to spread numpy's
# per-call cost, few enough that a block's temporaries stay small.
AGRAWAL_BLOCK_ROWS = 2048


def _doubles(words: np.ndarray) -> np.ndarray:
    """``rng.random()`` of each raw PCG64 word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _integers(halves: np.ndarray, low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
    """``rng.integers(low, high)`` of each 32-bit half, and where Lemire's method would reject it and draw again."""
    m = halves * np.uint64(high - low)
    return low + (m >> np.uint64(32)).astype(np.int64), (m & np.uint64(0xFFFFFFFF)) < 2**32 % (high - low)


class AgrawalStream(_GeneratorBase):
    """Loan-approval generator with nine mixed features.

    Implements classification functions 0-2. The label is computed on
    the clean feature values; ``perturbation`` then jitters each numeric
    feature by a uniform offset of up to that fraction of its range,
    clipped back to the legal range.

    The stream is the one a row loop draws from ``default_rng(seed)``
    (``_draw_rows``), built in blocks of ``AGRAWAL_BLOCK_ROWS`` rows from
    raw PCG64 words. A row takes, in order: its concept draw (inside a
    transition window only), salary, commission (salary below 75k only),
    age, one word whose low and high 32-bit halves give elevel and car,
    one word whose low half gives zipcode, hvalue, loan, and at
    perturbation > 0 the jitters of salary, commission (if drawn), age,
    hvalue, hyears and loan. hyears takes the high half of the zipcode
    word, which the bit generator buffers across the doubles between. A
    row is thus 6 + w + c words, or 11 + w + 2c with jitter, where w and
    c mark the concept and commission draws. From the first row whose
    integer draw Lemire's method would reject and redraw (about 1 row in
    1e8), the rest of the stream comes from the row loop.
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
        base, extra = self._row_words
        word = 0  # the first raw word of the block's first row
        for lo in range(0, self.length, AGRAWAL_BLOCK_ROWS):
            rows = range(lo, min(lo + AGRAWAL_BLOCK_ROWS, self.length))
            most = (base + extra) * len(rows) + int(inside[lo : rows.stop].sum())
            words = np.random.PCG64(self.seed).advance(word).random_raw(most)
            kept, used = self._draw_block(words, rows, before, inside, features, labels)
            word += used
            if kept < len(rows):  # a rejected integer draw: the row loop takes over from that row
                self._draw_rows(features, labels, lo + kept, word)
                break
        return features, labels

    @property
    def _row_words(self) -> tuple[int, int]:
        """Raw words of a row outside a window that draws no commission, and the words a commission adds."""
        return (11, 2) if self.perturbation > 0.0 else (6, 1)

    def _row_starts(self, u: np.ndarray, window: np.ndarray) -> np.ndarray:
        """Each row's first word, then the word after the last row; ``u`` holds the words' doubles.

        ``window`` marks window rows. A row from word p takes ``table[p]``
        words, from the table of rows outside a window (salary at word p)
        or inside one (salary at word p + 1).
        """
        base, extra = self._row_words
        added = (_uniform(u, 20_000.0, 150_000.0) < 75_000.0).astype(np.uint8) * extra  # a commission's words
        tables = ((base + added).tobytes(), (base + 1 + added[1:]).tobytes())

        def starts(p=0):
            yield p
            for w in window.tolist():
                p += tables[w][p]
                yield p

        return np.fromiter(starts(), np.int64, len(window) + 1)

    def _draw_block(self, words, rows, before, inside, features, labels) -> tuple[int, int]:
        """Draw rows ``rows`` into ``features`` and ``labels`` from ``words``, which begin at the first row.

        Stops at the first row whose integer draw Lemire's method would
        reject. Returns the rows written and the words they used.
        """
        u = _doubles(words)
        window = inside[rows.start : rows.stop]
        starts = self._row_starts(u, window)
        s = starts[:-1] + window  # the salary word
        salary = _uniform(u[s], 20_000.0, 150_000.0)
        c = salary < 75_000.0
        commission = np.where(c, _uniform(u[s + 1], 10_000.0, 75_000.0), 0.0)
        q = s + c  # age is word q + 1
        age = _uniform(u[q + 1], 20.0, 80.0)
        elevel, r0 = _integers(words[q + 2] & np.uint64(0xFFFFFFFF), 0, 5)
        car, r1 = _integers(words[q + 2] >> np.uint64(32), 1, 21)
        zipcode, r2 = _integers(words[q + 3] & np.uint64(0xFFFFFFFF), 0, 9)
        hyears, r3 = _integers(words[q + 3] >> np.uint64(32), 1, 31)
        hvalue = (9.0 - zipcode) * 100_000.0 * _uniform(u[q + 4], 0.5, 1.5)
        loan = _uniform(u[q + 5], 0.0, 500_000.0)
        k = before[rows.start : rows.stop].copy()
        drawn = np.flatnonzero(window)
        k[drawn] += u[starts[drawn]] < self.schedule.incoming(drawn + rows.start, k[drawn])
        rules = np.array(self.concepts)[k]
        block_labels = np.choose(rules, [rule(salary, commission, age, elevel) for rule in AGRAWAL_RULES])
        if self.perturbation > 0.0:
            salary = self._perturb(salary, u[q + 6], 20_000.0, 150_000.0)
            commission = np.where(c, self._perturb(commission, u[q + 7], 10_000.0, 75_000.0), commission)
            r = q + c  # age's jitter is word r + 7
            age = self._perturb(age, u[r + 7], 20.0, 80.0)
            hvalue = self._perturb(hvalue, u[r + 8], (9.0 - zipcode) * 50_000.0, (9.0 - zipcode) * 150_000.0)
            hyears = self._perturb(hyears, u[r + 9], 1.0, 30.0)
            loan = self._perturb(loan, u[r + 10], 0.0, 500_000.0)
        rejected = np.flatnonzero(r0 | r1 | r2 | r3)
        kept = int(rejected[0]) if len(rejected) else len(rows)
        block = features[rows.start : rows.start + kept]
        for j, column in enumerate((salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan)):
            block[:, j] = column[:kept]
        labels[rows.start : rows.start + kept] = block_labels[:kept]
        return kept, int(starts[kept])

    def _draw_rows(self, features, labels, start, first_word):
        """Rows ``start`` onwards, one at a time, from the generator whose next word is word ``first_word``.

        The reference the block draw reproduces; ``arrays`` runs it only
        from a row whose integer draw Lemire's method rejects.
        """
        rng = np.random.Generator(np.random.PCG64(self.seed).advance(first_word))
        before, inside = self.schedule.phases(self.length)
        drawn = np.flatnonzero(inside[start:]) + start
        incoming = dict(zip(drawn.tolist(), self.schedule.incoming(drawn, before[drawn]).tolist()))
        for t, k in zip(range(start, self.length), before[start:].tolist()):
            # a window step draws its concept first
            if t in incoming and rng.random() < incoming[t]:
                k += 1
            salary = _uniform(rng.random(), 20_000.0, 150_000.0)
            commission = 0.0 if salary >= 75_000.0 else _uniform(rng.random(), 10_000.0, 75_000.0)
            age = _uniform(rng.random(), 20.0, 80.0)
            elevel = int(rng.integers(0, 5))
            car = int(rng.integers(1, 21))
            zipcode = int(rng.integers(0, 9))
            hvalue = (9.0 - zipcode) * 100_000.0 * _uniform(rng.random(), 0.5, 1.5)
            hyears = float(rng.integers(1, 31))
            loan = _uniform(rng.random(), 0.0, 500_000.0)
            labels[t] = AGRAWAL_RULES[self.concepts[k]](salary, commission, age, elevel)
            if self.perturbation > 0.0:
                salary = self._perturb(salary, rng.random(), 20_000.0, 150_000.0)
                if commission > 0.0:
                    commission = self._perturb(commission, rng.random(), 10_000.0, 75_000.0)
                age = self._perturb(age, rng.random(), 20.0, 80.0)
                hval_lo = (9.0 - zipcode) * 50_000.0
                hval_hi = (9.0 - zipcode) * 150_000.0
                hvalue = self._perturb(hvalue, rng.random(), hval_lo, hval_hi)
                hyears = self._perturb(hyears, rng.random(), 1.0, 30.0)
                loan = self._perturb(loan, rng.random(), 0.0, 500_000.0)
            features[t] = salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan


GENERATORS = {"sea": SeaStream, "agrawal": AgrawalStream}


def make_generator(kind: str, **kwargs) -> StreamSource:
    """Instantiate a generator by its ``GENERATORS`` name."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {sorted(GENERATORS)}")
    return GENERATORS[kind](**kwargs)
