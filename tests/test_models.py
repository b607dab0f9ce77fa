from __future__ import annotations

import math

import numpy as np
import pytest

from driftscope.baseline import EwmaBaseline
from driftscope.models import (
    VARIANCE_FLOOR,
    GaussianNaiveBayes,
    OnlineLogisticRegression,
)


class TestEwmaBaseline:
    def test_first_observation_initializes(self):
        b = EwmaBaseline(beta=0.5)
        b.update(np.array([1.0, 2.0]))
        np.testing.assert_allclose(b.ewma, [1.0, 2.0])

    def test_blend_recurrence(self):
        b = EwmaBaseline(beta=0.5)
        b.update(np.array([1.0]))
        b.update(np.array([3.0]))
        assert b.ewma[0] == pytest.approx(2.0)

    def test_beta_zero_freezes_at_first_observation(self):
        b = EwmaBaseline(beta=0.0)
        b.update(np.array([0.25, 0.75]))
        for _ in range(10):
            b.update(np.array([1.0, 1.0]))
        np.testing.assert_allclose(b.ewma, [0.25, 0.75])

    def test_beta_one_tracks_latest(self):
        b = EwmaBaseline(beta=1.0)
        b.update(np.array([0.0]))
        b.update(np.array([0.9]))
        assert b.ewma[0] == pytest.approx(0.9)

    def test_convexity_keeps_values_in_observed_hull(self):
        rng = np.random.default_rng(17)
        b = EwmaBaseline(beta=0.1)
        lo, hi = 2.0, 5.0
        for _ in range(500):
            b.update(rng.uniform(lo, hi, size=3))
            assert np.all(b.ewma >= lo) and np.all(b.ewma <= hi)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            EwmaBaseline(beta=1.5)


class TestOnlineLogisticRegression:
    def test_sigmoid_of_margin(self):
        model = OnlineLogisticRegression(2)
        model.weights[:] = [2.0, -1.0]
        model.bias = 0.5
        x = np.array([1.0, 1.0])
        assert model.margin(x) == pytest.approx(1.5)
        assert model.predict(x) == pytest.approx(0.81757447619364365, abs=1e-12)

    def test_single_sgd_step_from_zero(self):
        model = OnlineLogisticRegression(1, learning_rate=0.1)
        model.update(np.array([1.0]), 1)
        assert model.weights[0] == pytest.approx(0.05)
        assert model.bias == pytest.approx(0.05)

    def test_zero_learning_rate_freezes_model(self):
        model = OnlineLogisticRegression(2, learning_rate=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            model.update(rng.normal(size=2), int(rng.integers(0, 2)))
        assert np.all(model.weights == 0.0) and model.bias == 0.0

    def test_learns_a_separable_rule(self):
        rng = np.random.default_rng(5)
        model = OnlineLogisticRegression(2, learning_rate=0.1)
        for _ in range(4000):
            x = rng.uniform(0, 1, size=2)
            y = int(x[0] + x[1] > 1.0)
            model.update(x, y)
        correct = 0
        for _ in range(500):
            x = rng.uniform(0, 1, size=2)
            y = int(x[0] + x[1] > 1.0)
            correct += int((model.predict(x) >= 0.5) == y)
        assert correct / 500 > 0.9

    def test_probabilities_stay_in_unit_interval(self):
        model = OnlineLogisticRegression(1)
        model.weights[:] = [1000.0]
        assert model.predict(np.array([100.0])) == 1.0
        assert model.predict(np.array([-100.0])) == pytest.approx(0.0, abs=1e-300)

    def test_rejects_non_binary_label(self):
        model = OnlineLogisticRegression(1)
        with pytest.raises(ValueError):
            model.update(np.array([1.0]), 2)


class TestGaussianNaiveBayes:
    def test_streaming_moments_match_batch(self):
        # Two observations of one class: mean 3, sample variance 2.
        model = GaussianNaiveBayes(1, 2)
        model.update(np.array([2.0]), 0)
        model.update(np.array([4.0]), 0)
        assert model.means[0, 0] == pytest.approx(3.0)
        assert model.variances[0, 0] == pytest.approx(2.0)

    def test_single_sample_class_sits_at_variance_floor(self):
        model = GaussianNaiveBayes(2, 2)
        model.update(np.array([1.0, 2.0]), 1)
        np.testing.assert_allclose(model.variances[1], VARIANCE_FLOOR)

    def test_moments_match_numpy_on_random_data(self):
        rng = np.random.default_rng(9)
        model = GaussianNaiveBayes(3, 2)
        rows = rng.normal(size=(100, 3))
        for row in rows:
            model.update(row, 0)
        np.testing.assert_allclose(model.means[0], rows.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(model.variances[0], rows.var(axis=0, ddof=1), atol=1e-12)

    def test_posterior_sums_to_one_and_prefers_nearer_class(self):
        rng = np.random.default_rng(21)
        model = GaussianNaiveBayes(2, 3)
        centers = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 5.0]])
        for _ in range(300):
            k = int(rng.integers(0, 3))
            model.update(centers[k] + rng.normal(scale=0.5, size=2), k)
        post = model.predict(np.array([4.8, 5.1]))
        assert post.sum() == pytest.approx(1.0)
        assert int(post.argmax()) == 1

    def test_unseen_class_gets_zero_probability(self):
        model = GaussianNaiveBayes(1, 3)
        model.update(np.array([0.0]), 0)
        model.update(np.array([1.0]), 0)
        model.update(np.array([5.0]), 2)
        post = model.predict(np.array([0.5]))
        assert post[1] == 0.0
        assert post.sum() == pytest.approx(1.0)

    def test_predict_before_training_rejected(self):
        model = GaussianNaiveBayes(1, 2)
        with pytest.raises(ValueError):
            model.predict(np.array([0.0]))


def _loop_predict(model, x):
    """Reference posterior: one class at a time, variances from the moments."""
    total = int(model.counts.sum())
    log_post = np.full(model.n_classes, -np.inf)
    for k in range(model.n_classes):
        n = model.counts[k]
        if n == 0:
            continue
        if n < 2:
            var = np.full(model.n_features, VARIANCE_FLOOR)
        else:
            var = np.maximum(model._m2[k] / (n - 1), VARIANCE_FLOOR)
        ll = -0.5 * float(np.sum(np.log(2.0 * np.pi * var) + (x - model.means[k]) ** 2 / var))
        log_post[k] = ll + math.log(model.counts[k] / total)
    post = np.exp(log_post - log_post.max())
    return post / post.sum()


class TestCachedNaiveBayes:
    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_predict_is_bit_identical_to_per_class_loop(self, n_classes):
        rng = np.random.default_rng(n_classes)
        m = 4
        model = GaussianNaiveBayes(m, n_classes)
        pool = max(n_classes - 2, 1)  # labels come from 0..pool-1; class pool is never seen
        once = n_classes - 1  # seen exactly once, halfway, so it sits at the variance floor
        for step in range(3000):
            x = rng.random(m) * rng.choice([1.0, 10.0])
            y = once if step == 1500 else int(rng.integers(0, pool))
            model.update(x, y)
            probe = rng.random(m) * 10.0
            assert np.array_equal(model.predict(probe), _loop_predict(model, probe)), step
            assert np.array_equal(model.predict(x), _loop_predict(model, x)), step
        assert model.counts[once] == 1
        if n_classes > 2:
            assert model.counts[pool] == 0


def _margin_probability(model, x):
    """Reference probability: the sigmoid of the margin's own w @ x + b."""
    z = model.margin(x)
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


class TestBatchedPredict:
    def test_naive_bayes_batch_matches_rows(self):
        rng = np.random.default_rng(31)
        model = GaussianNaiveBayes(3, 3)
        for _ in range(40):
            model.update(rng.random(3), 0)
        model.update(rng.random(3), 1)  # seen once: its variances sit at the floor
        assert model.counts.tolist() == [40, 1, 0]  # class 2 is never seen
        np.testing.assert_array_equal(model.variances[1], VARIANCE_FLOOR)
        xs = rng.random((6, 3))
        xs[4] = model.means[1]  # where the floored class wins
        xs[5] = model.means[2]  # where the unseen class would win with any prior
        batch = model.predict(xs)
        assert batch.shape == (6, 3)
        for x, row in zip(xs, batch):
            assert np.array_equal(row, model.predict(x))
            assert np.array_equal(row, _loop_predict(model, x))
        assert (batch[:, 2] == 0.0).all()
        assert batch[4, 1] > 0.5
        assert np.array_equal(model.predict(xs[:1]), batch[:1])

    def test_logistic_batch_matches_rows(self):
        rng = np.random.default_rng(32)
        model = OnlineLogisticRegression(3)
        for _ in range(200):
            x = rng.random(3)
            model.update(x, int(x.sum() > 1.5))
        xs = rng.normal(scale=20.0, size=(6, 3))
        batch = model.predict(xs)
        assert batch == [model.predict(x) for x in xs]
        assert batch == [_margin_probability(model, x) for x in xs]
        assert all(type(p) is float for p in batch)
        assert model.predict(xs[:1]) == batch[:1]


class TestDetectorInput:
    def test_binary_scalar_difference(self):
        assert OnlineLogisticRegression(1).detector_input(0.9, 0.6) == pytest.approx(0.3)

    def test_multiclass_predicted_class_difference(self):
        pred = np.array([0.1, 0.7, 0.2])
        base = np.array([0.3, 0.3, 0.4])
        assert GaussianNaiveBayes(1, 3).detector_input(pred, base) == pytest.approx(0.4)

    def test_identical_outputs_give_zero(self):
        v = np.array([0.2, 0.5, 0.3])
        assert GaussianNaiveBayes(1, 3).detector_input(v, v.copy()) == 0.0
        assert OnlineLogisticRegression(1).detector_input(0.5, 0.5) == 0.0


class TestModelReadsItsPredictions:
    """Each model reads its own ``predict`` output: the class it predicts and the detector's input."""

    def test_logistic_reads_probabilities(self):
        rng = np.random.default_rng(41)
        model = OnlineLogisticRegression(3)
        for _ in range(200):
            x = rng.random(3)
            model.update(x, int(x.sum() > 1.5))
        xs = rng.normal(scale=2.0, size=(40, 3))
        ps = model.predict(xs)
        assert {model.predicted_class(p) for p in ps} == {0, 1}
        for p, p_base in zip(ps, ps[::-1]):
            assert model.predicted_class(p) == int(p >= 0.5)
            diff = model.detector_input(p, p_base)
            assert type(diff) is float
            assert diff == float(p - p_base)

    def test_naive_bayes_reads_posteriors(self):
        rng = np.random.default_rng(42)
        model = GaussianNaiveBayes(3, 3)
        for y in rng.integers(0, 3, size=300).tolist():
            model.update(rng.random(3) + y, y)
        posts = model.predict(rng.random((40, 3)) * 3.0)
        assert {model.predicted_class(post) for post in posts} == {0, 1, 2}
        for post, post_base in zip(posts, posts[::-1]):
            k = int(post.argmax())
            assert model.predicted_class(post) == k
            diff = model.detector_input(post, post_base)
            assert type(diff) is float
            assert diff == float(post[k] - post_base[k])
