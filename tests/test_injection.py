"""Mutual-information ranking and permutation drift injection."""

import math
import re

import numpy as np
import pytest

from driftscope.generators import SeaStream
from driftscope.injection import mi_rank_features, mutual_information, permute_inject
from driftscope.models import OnlineLogisticRegression
from driftscope.stream import BufferedStream, buffer_stream


def _entropy(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def _loop_mutual_information(values, labels, bins):
    """Reference: the per-bin, per-class mask loop, adding bin by bin and class by class."""
    n = values.size
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    binned = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, bins - 1)
    mi = 0.0
    for b in range(bins):
        in_bin = binned == b
        p_b = in_bin.sum() / n
        if p_b == 0.0:
            continue
        for c in np.unique(labels):
            p_bc = np.logical_and(in_bin, labels == c).sum() / n
            if p_bc == 0.0:
                continue
            p_c = (labels == c).sum() / n
            mi += p_bc * math.log(p_bc / (p_b * p_c))
    return max(mi, 0.0)


class TestMutualInformation:
    def test_equals_per_bin_per_class_loop_exactly(self):
        rng = np.random.default_rng(4)
        for case in range(300):
            n = int(rng.integers(1, 400))
            bins = int(rng.integers(2, 16))
            classes = rng.choice([0, 1, 2, 5, 9], size=int(rng.integers(1, 5)), replace=False)
            labels = rng.choice(classes, size=n)
            values = rng.normal(size=n) if case % 3 else rng.integers(0, 4, size=n).astype(float)
            values[labels == classes[0]] += rng.random()  # some dependence on the label
            assert mutual_information(values, labels, bins) == _loop_mutual_information(values, labels, bins), case

    def test_label_copy_reaches_label_entropy(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(5000) < 0.3).astype(int)
        mi = mutual_information(labels.astype(float), labels)
        assert mi == pytest.approx(_entropy(labels), abs=1e-12)

    def test_independent_feature_is_near_zero(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=10_000)
        noise = rng.random(10_000)
        assert mutual_information(noise, labels) < 0.01

    def test_constant_feature_is_zero(self):
        labels = np.array([0, 1] * 50)
        assert mutual_information(np.ones(100), labels) == 0.0

    def test_single_label_value_is_zero(self):
        rng = np.random.default_rng(2)
        assert mutual_information(rng.random(200), np.zeros(200, dtype=int)) == 0.0

    def test_nonnegative_on_random_data(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.normal(size=300)
            labels = rng.integers(0, 3, size=300)
            assert mutual_information(values, labels) >= 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            mutual_information(np.ones(5), np.ones(6, dtype=int))

    def test_rejects_single_bin(self):
        with pytest.raises(ValueError, match="bins"):
            mutual_information(np.arange(100.0), np.zeros(100, dtype=int), bins=1)


class TestMiRankFeatures:
    def test_informative_feature_ranked_first(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=2000)
        features = np.column_stack(
            [rng.random(2000), labels + 0.01 * rng.random(2000), rng.random(2000)]
        )
        assert mi_rank_features(features, labels)[0] == 1

    def test_identical_features_keep_index_order(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=1000)
        informative = labels + 0.01 * rng.random(1000)
        features = np.column_stack([rng.random(1000), informative, informative.copy()])
        assert mi_rank_features(features, labels)[:2] == [1, 2]

    def test_degenerate_labels_keep_original_order(self):
        rng = np.random.default_rng(6)
        features = rng.random((500, 4))
        assert mi_rank_features(features, np.zeros(500, dtype=int)) == [0, 1, 2, 3]

    def test_sea_signal_features_outrank_noise(self):
        buf = buffer_stream(SeaStream(length=5000, perturbation=0.0, seed=8))
        ranked = mi_rank_features(buf.features, buf.labels)
        assert set(ranked[:2]) == {0, 1}
        assert ranked[2] == 2

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError, match="at least 100"):
            mi_rank_features(np.random.default_rng(0).random((99, 2)), np.zeros(99, dtype=int))


class TestPermuteInject:
    def _stream(self, n=2000, seed=10):
        return buffer_stream(SeaStream(length=n, perturbation=0.0, seed=seed))

    def test_pre_drift_rows_untouched(self):
        base = self._stream()
        injected = permute_inject(base, (800,), seed=1)
        assert np.array_equal(injected.features[:800], base.features[:800])

    def test_labels_never_change(self):
        base = self._stream()
        injected = permute_inject(base, (500, 1200), seed=2)
        assert np.array_equal(injected.labels, base.labels)

    def test_unselected_features_untouched(self):
        base = self._stream()
        injected = permute_inject(base, (500,), top_fraction=0.5, seed=3)
        # ceil(0.5 * 3) = 2 features selected; SEA's noise feature stays
        assert np.array_equal(injected.features[:, 2], base.features[:, 2])

    def test_multisets_preserved_per_segment_and_suffix(self):
        base = self._stream()
        positions = (400, 1000, 1500)
        injected = permute_inject(base, positions, seed=4)
        bounds = positions + (base.length,)
        for p, nxt in zip(positions, bounds[1:]):
            for j in range(base.n_features):
                assert np.array_equal(
                    np.sort(injected.features[p:nxt, j]), np.sort(base.features[p:nxt, j])
                )
                assert np.array_equal(
                    np.sort(injected.features[p:, j]), np.sort(base.features[p:, j])
                )

    def test_small_fraction_permutes_exactly_one_feature(self):
        base = self._stream()
        injected = permute_inject(base, (500,), top_fraction=0.1, seed=5)
        changed = [
            j
            for j in range(base.n_features)
            if not np.array_equal(injected.features[:, j], base.features[:, j])
        ]
        assert len(changed) == 1
        assert changed[0] in (0, 1)

    def test_ground_truth_positions_attached(self):
        injected = permute_inject(self._stream(), (500, 1200), seed=6)
        assert injected.drift_positions == (500, 1200)

    def test_deterministic_under_seed(self):
        base = self._stream()
        a = permute_inject(base, (700,), seed=8)
        b = permute_inject(base, (700,), seed=8)
        assert np.array_equal(a.features, b.features)

    def test_trained_model_degrades_after_injection(self):
        base = self._stream(n=6000, seed=12)
        injected = permute_inject(base, (4000,), seed=9)
        model = OnlineLogisticRegression(n_features=3)
        for t in range(3000):
            model.update(injected.features[t] / 10.0, int(injected.labels[t]))

        def accuracy(rows):
            hits = [
                (model.predict(injected.features[t] / 10.0) >= 0.5) == injected.labels[t]
                for t in rows
            ]
            return np.mean(hits)

        before = accuracy(range(3000, 4000))
        after = accuracy(range(4000, 5000))
        assert before - after > 0.1

    def test_rejects_zero_fraction(self):
        with pytest.raises(ValueError, match="top_fraction"):
            permute_inject(self._stream(), (500,), top_fraction=0.0)

    def test_rejects_position_beyond_length(self):
        with pytest.raises(ValueError, match=r"injection positions must be .* in \[1, 300\), got \(300,\)"):
            permute_inject(self._stream(n=300, seed=1), (300,))

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            permute_inject(self._stream(), (900, 500))

    @pytest.mark.parametrize("position", [0, -5])
    def test_rejects_position_before_row_one(self, position):
        message = rf"injection positions must be .* in \[1, 2000\), got \({position}, 900\)"
        with pytest.raises(ValueError, match=message):
            permute_inject(self._stream(), (position, 900))

    def test_rejects_empty_positions(self):
        with pytest.raises(ValueError, match="at least one"):
            permute_inject(self._stream(), ())

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"bins": 2.5}, "bins must be an integer, got 2.5"),
            ({"bins": True}, "bins must be an integer, got True"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"top_fraction": True}, "top_fraction must be a number, got True"),
            ({"top_fraction": "0.5"}, "top_fraction must be a number, got '0.5'"),
            ({"top_fraction": None}, "top_fraction must be a number, got None"),
        ],
        ids=["bins-float", "bins-bool", "seed-bool", "seed-float", "seed-negative", "fraction-bool", "fraction-str",
             "fraction-none"],
    )
    def test_rejects_a_bad_setting_by_name(self, setting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            permute_inject(self._stream(n=400, seed=1), (200,), **setting)

    def test_takes_numpy_integer_bins_and_seed(self):
        base = self._stream(n=400, seed=1)
        a = permute_inject(base, (200,), bins=np.int64(4), seed=np.int64(3))
        b = permute_inject(base, (200,), bins=4, seed=3)
        assert np.array_equal(a.features, b.features)

    def test_rejects_fractional_position_and_accepts_numpy_integers(self):
        with pytest.raises(ValueError, match="injection position must be an integer, got 120.9"):
            permute_inject(self._stream(), (120.9,))
        injected = permute_inject(self._stream(), (np.int64(120),))
        assert injected.drift_positions == (120,) and type(injected.drift_positions[0]) is int
