"""Prequential detection and attribution-tracking runs."""

import tracemalloc

import numpy as np
import pytest

from driftscope.baseline import EwmaBaseline
from driftscope.config import MODEL_KINDS, DetectorConfig
from driftscope.generators import AgrawalStream, DriftSchedule, SeaStream
from driftscope.injection import permute_inject
from driftscope.models import GaussianNaiveBayes, OnlineLogisticRegression
from driftscope.pipeline import (
    TRACKING_POLICIES,
    _ChangeDetector,
    build_model,
    cdleeds_runner,
    ddm_runner,
    run_detection,
    run_tracking,
)
from driftscope.stream import BufferedStream, buffer_stream, scaled
from driftscope.tree import SCOPE_GLOBAL, SCOPE_LOCAL


def _constant_stream(length=600, value=(2.0, 4.0, 6.0)):
    features = np.tile(np.asarray(value), (length, 1))
    labels = np.zeros(length, dtype=np.int64)
    labels[::2] = 1
    return BufferedStream(
        features=features,
        labels=labels,
        feature_ranges=((0.0, 10.0),) * len(value),
    )


def _sea(length=3000, seed=0, positions=(), widths=None):
    if positions:
        schedule = DriftSchedule(positions=tuple(positions), widths=widths)
        concepts = tuple(range(len(positions) + 1))
    else:
        schedule = None
        concepts = (0,)
    return buffer_stream(
        SeaStream(length=length, concepts=concepts, schedule=schedule, seed=seed)
    )


class TestBuildModel:
    def test_logreg(self):
        model = build_model(DetectorConfig(learning_rate=0.25), 3, 2)
        assert isinstance(model, OnlineLogisticRegression)
        assert model.learning_rate == 0.25

    def test_gnb(self):
        model = build_model(DetectorConfig(model="gnb"), 3, 4)
        assert isinstance(model, GaussianNaiveBayes)

    def test_logreg_rejects_multiclass(self):
        with pytest.raises(ValueError, match="binary"):
            build_model(DetectorConfig(), 3, 5)

    def test_kind_listing(self):
        assert MODEL_KINDS == ("logreg", "gnb")

    ONE_CLASS = "^model 'gnb' needs at least two classes; every label of this stream is 0$"

    def test_gnb_names_a_one_class_stream(self):
        with pytest.raises(ValueError, match=self.ONE_CLASS):
            build_model(DetectorConfig(model="gnb"), 4, 1)

    @pytest.mark.parametrize("entry", ["run_detection", "ddm_runner"])
    def test_one_class_stream_under_gnb_fails_at_model_build(self, entry):
        stream = BufferedStream(features=np.random.default_rng(0).random((50, 4)), labels=np.zeros(50, dtype=np.int64))
        run = (lambda s: run_detection(s, model="gnb")) if entry == "run_detection" else ddm_runner(model="gnb")
        with pytest.raises(ValueError, match=self.ONE_CLASS):
            run(stream)


class TestRunDetection:
    def test_model_learns_the_stationary_concept(self):
        result = run_detection(_sea(3000, seed=4))
        assert result.accuracy > 0.8

    def test_first_observation_only_trains(self):
        result = run_detection(_sea(500, seed=1))
        assert result.steps == 499
        assert result.node_counts[0] == (1, 1)

    def test_prequential_accuracy_matches_manual_replay(self):
        stream = _sea(400, seed=7)
        result = run_detection(stream, model="logreg", learning_rate=0.1)
        clf = OnlineLogisticRegression(stream.n_features, learning_rate=0.1)
        correct = 0
        for item in scaled(stream):
            if item.t > 0:
                correct += int(clf.predict(item.x) >= 0.5) == item.y
            clf.update(item.x, item.y)
        assert result.accuracy == pytest.approx(correct / 399)

    def test_frozen_model_on_constant_stream_stays_silent(self):
        result = run_detection(_constant_stream(2000), learning_rate=0.0)
        assert result.alerts == ()
        assert result.global_alert_steps == []

    def test_alert_scopes_and_fields(self):
        stream = _sea(6000, seed=2, positions=(3000,))
        result = run_detection(stream)
        assert result.alerts
        for alert in result.alerts:
            assert alert.scope in (SCOPE_LOCAL, SCOPE_GLOBAL)
            assert 0 <= alert.p_value <= 1
            assert 1 <= alert.t < stream.length

    def test_global_alert_steps_sorted_unique(self):
        stream = _sea(6000, seed=2, positions=(3000,))
        result = run_detection(stream)
        steps = result.global_alert_steps
        assert steps == sorted(set(steps))
        assert steps, "an abrupt concept change should raise a global alert"

    def test_detects_abrupt_drift_within_window(self):
        stream = _sea(8000, seed=3, positions=(4000,))
        result = run_detection(stream)
        after = [t for t in result.global_alert_steps if t >= 4000]
        assert after and after[0] - 4000 <= 2000

    def test_identical_runs_identical_output(self):
        stream = _sea(1500, seed=9, positions=(800,))
        a = run_detection(stream)
        b = run_detection(stream)
        assert a.alerts == b.alerts
        assert a.node_counts == b.node_counts
        assert a.accuracy == b.accuracy

    def test_node_counts_track_tree_growth(self):
        result = run_detection(_sea(2000, seed=5))
        steps = [t for t, _ in result.node_counts]
        nodes = [n for _, n in result.node_counts]
        assert result.node_counts[0] == (1, 1)
        assert max(nodes) > 1
        # change points only: strictly later steps, each with a count other than the one before
        assert all(a < b for a, b in zip(steps, steps[1:]))
        assert all(a != b for a, b in zip(nodes, nodes[1:]))

    def test_node_counts_expand_to_the_tree_size_after_every_step(self, monkeypatch):
        record = []
        detect = _ChangeDetector.detect

        def recorded(detector, x, diff, t):
            alerts = detect(detector, x, diff, t)
            record.append((t, detector.tree.node_count))
            return alerts

        monkeypatch.setattr(_ChangeDetector, "detect", recorded)
        result = run_detection(_sea(3000, seed=4, positions=(1500,)), window=20, max_age=60)
        counts = [n for _, n in record]
        assert any(a < b for a, b in zip(counts, counts[1:]))
        assert any(a > b for a, b in zip(counts, counts[1:]))
        # each change point's count holds until the next one, and the last until the run's final step
        ends = [t for t, _ in result.node_counts[1:]] + [result.steps + 1]
        expanded = [(t, n) for (start, n), end in zip(result.node_counts, ends) for t in range(start, end)]
        assert expanded == record
        assert len(result.node_counts) < len(record)

    def test_run_keeps_no_per_step_record(self):
        n = 20_000
        schedule = DriftSchedule(positions=(n // 4, n // 2, 3 * n // 4), widths=(1000,) * 3)
        stream = buffer_stream(
            AgrawalStream(n, concepts=(0, 1, 2, 0), schedule=schedule, perturbation=0.1, seed=1001)
        )
        # long enough for leaves to fill their windows and test them, which warms the numerics caches
        run_detection(AgrawalStream(3000, perturbation=0.1), model="gnb")
        tracemalloc.start()
        try:
            result = run_detection(stream, model="gnb")
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.steps == n - 1
        assert retained < 256 * 2**10

    def test_gnb_model_runs(self):
        result = run_detection(_sea(800, seed=6), model="gnb")
        assert result.steps == 799
        assert 0.0 <= result.accuracy <= 1.0

    def test_range_free_stream_is_minmax_scaled(self):
        rng = np.random.default_rng(12)
        features = rng.normal(50.0, 20.0, size=(600, 3))
        labels = (features[:, 0] > 50.0).astype(np.int64)
        stream = BufferedStream(features=features, labels=labels)
        result = run_detection(stream)
        assert result.steps == 599

    def test_range_free_stream_is_read_once(self):
        class CountingStream(BufferedStream):
            passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        rng = np.random.default_rng(13)
        features = rng.normal(50.0, 20.0, size=(300, 3))
        stream = CountingStream(features=features, labels=(features[:, 0] > 50.0).astype(np.int64))
        result = run_detection(stream)
        assert result.steps == 299
        assert stream.passes == 1

    def test_model_predicts_each_observation_once(self, monkeypatch):
        calls = []
        predict = GaussianNaiveBayes.predict
        monkeypatch.setattr(
            GaussianNaiveBayes, "predict", lambda model, x: calls.append(1) or predict(model, x)
        )
        result = run_detection(_sea(300, seed=6), model="gnb")
        # one call a step predicts the observation and the baseline input together
        assert len(calls) == result.steps

    def test_logreg_trains_on_the_engine_prediction(self, monkeypatch):
        calls = []
        predict = OnlineLogisticRegression.predict
        monkeypatch.setattr(
            OnlineLogisticRegression, "predict", lambda model, x: calls.append(1) or predict(model, x)
        )
        result = run_detection(_sea(300, seed=6), model="logreg")
        # one call a step as for gnb; training at step 0 has no prediction to reuse
        assert len(calls) == result.steps + 1

    def test_invalid_setting_names_field(self):
        with pytest.raises(ValueError, match="'window'"):
            run_detection(_sea(300), window=5)

    def test_timing_fields_populated(self):
        result = run_detection(_sea(400, seed=8))
        assert result.mean_update_seconds > 0.0
        assert result.total_seconds >= result.mean_update_seconds * result.steps


class TestTreeSettles:
    # A full depth-5 tree takes 31 splits; the bound allows as many structure changes again.
    MAX_STRUCTURE_CHANGES = 62

    @pytest.mark.parametrize(
        "generator,model", [(SeaStream, "logreg"), (AgrawalStream, "gnb")], ids=["sea-logreg", "agrawal-gnb"]
    )
    def test_default_tree_settles_on_stationary_stream(self, generator, model):
        result = run_detection(generator(length=20000, seed=1), model=model)
        changes = len(result.node_counts) - 1  # every row after step 1's is a change
        assert changes <= self.MAX_STRUCTURE_CHANGES


class TestRunTracking:
    def test_policy_listing(self):
        assert TRACKING_POLICIES == ("cdleeds", "never")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_tracking(_sea(300), policy="sometimes")

    def test_negative_sample_size_rejected(self):
        with pytest.raises(ValueError, match="sample_size"):
            run_tracking(_sea(300), sample_size=-1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sample_size": 2.5}, "sample_size must be an integer, got 2.5"),
            ({"sample_size": True}, "sample_size must be an integer, got True"),
            ({"sample_prefix": 100.5}, "sample_prefix must be an integer, got 100.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
        ids=["fractional-size", "bool-size", "fractional-prefix", "fractional-seed", "negative-seed"],
    )
    def test_size_prefix_and_seed_are_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_tracking(_sea(300), **{"sample_size": 4, "sample_prefix": 100, **kwargs})

    def test_numpy_integer_size_prefix_and_seed_are_read_as_ints(self):
        stream = _sea(300, seed=1)
        plain = run_tracking(stream, sample_size=4, sample_prefix=100, seed=2)
        numpy = run_tracking(stream, sample_size=np.int64(4), sample_prefix=np.int64(100), seed=np.int64(2))
        assert numpy.trace == plain.trace and type(numpy.sample_size) is int

    def test_sample_size_must_fit_prefix(self):
        with pytest.raises(ValueError, match="prefix"):
            run_tracking(_sea(300), sample_size=300, sample_prefix=300)

    def test_zero_sample_size_reports_nothing(self):
        result = run_tracking(_sea(300, seed=3), sample_size=0)
        assert result.reduction_pct is None
        assert result.mean_abs_deviation is None
        assert result.oracle_range is None
        assert result.trace == ()

    def test_never_policy_computes_each_slot_once(self):
        result = run_tracking(
            _sea(600, seed=4), sample_size=5, sample_prefix=200, policy="never", seed=2
        )
        # each tracked observation is attributed once on arrival and
        # never refreshed, so the reduction is 1 - 1/steps per slot
        assert result.reduction_pct > 99.0
        assert result.mean_abs_deviation > 0.0

    def test_never_policy_scores_match_manual_replay(self):
        stream = _sea(600, seed=4)
        result = run_tracking(stream, sample_size=5, sample_prefix=200, policy="never", seed=2)
        pins = {t for t, _, _, _, reason in result.trace if reason == "initial"}
        assert len(pins) == 5
        # replay logistic regression and the EWMA baseline (beta = 0.001) by hand
        clf = OnlineLogisticRegression(stream.n_features, learning_rate=0.1)
        ewma = None
        stored = []
        deviations = []
        oracle_values = []
        for item in scaled(stream):
            x = item.x
            ewma = x.copy() if ewma is None else 0.001 * x + 0.999 * ewma
            if item.t in pins:
                stored.append((x, clf.weights * (x - ewma)))
            for obs_x, phi in stored:
                oracle = clf.weights * (obs_x - ewma)
                deviations.extend(np.abs(phi - oracle))
                oracle_values.extend(oracle)
            clf.update(x, item.y)
        last_t = stream.length - 1
        reductions = [1.0 - 1.0 / (last_t - t + 1) for t in sorted(pins)]
        assert result.reduction_pct == pytest.approx(100.0 * np.mean(reductions))
        assert result.mean_abs_deviation == pytest.approx(np.mean(deviations))
        assert result.oracle_range == pytest.approx(np.ptp(oracle_values))

    def test_non_linear_model_rejected(self):
        with pytest.raises(ValueError, match="logreg"):
            run_tracking(_sea(300), model="gnb")

    def test_lazy_policy_tracks_oracle_closer_than_never(self):
        stream = permute_inject(
            buffer_stream(SeaStream(length=4000, seed=5)), (2000,), seed=5
        )
        lazy = run_tracking(stream, sample_size=10, sample_prefix=500, seed=6)
        frozen = run_tracking(stream, sample_size=10, sample_prefix=500, policy="never", seed=6)
        assert lazy.mean_abs_deviation < frozen.mean_abs_deviation
        assert 0.0 < lazy.reduction_pct <= 100.0

    def test_identical_runs_identical_trace(self):
        stream = _sea(900, seed=10, positions=(500,))
        a = run_tracking(stream, sample_size=8, sample_prefix=300, seed=1)
        b = run_tracking(stream, sample_size=8, sample_prefix=300, seed=1)
        assert a.trace == b.trace
        assert a.reduction_pct == b.reduction_pct

    def test_trace_rows_are_well_formed(self):
        stream = _sea(900, seed=10, positions=(500,))
        result = run_tracking(stream, sample_size=8, sample_prefix=300, seed=1)
        assert result.trace
        reasons = {"initial", "leaf-change", "local-alert", "every-step"}
        for t, slot, feature, value, reason in result.trace:
            assert 1 <= t < stream.length
            assert 0 <= slot < 8
            assert 0 <= feature < stream.n_features
            assert isinstance(value, float)
            assert reason in reasons

    def test_oracle_can_be_disabled(self):
        result = run_tracking(_sea(400, seed=2), sample_size=4, sample_prefix=200, oracle=False)
        assert result.mean_abs_deviation is None
        assert result.oracle_range is None
        assert result.reduction_pct is not None

    def test_multiclass_stream_rejected(self):
        features = np.random.default_rng(0).uniform(size=(300, 2))
        labels = np.arange(300, dtype=np.int64) % 3
        stream = BufferedStream(features=features, labels=labels)
        with pytest.raises(ValueError, match="binary"):
            run_tracking(stream, sample_size=2, sample_prefix=100)


class TestRunners:
    def test_cdleeds_runner_returns_sorted_steps(self):
        stream = _sea(4000, seed=2, positions=(2000,))
        alerts, mean_seconds = cdleeds_runner()(stream)
        assert alerts == sorted(alerts)
        assert mean_seconds > 0.0

    def test_ddm_runner_fires_on_label_inversion(self):
        rng = np.random.default_rng(21)
        features = rng.uniform(size=(4000, 2))
        labels = (features[:, 0] > 0.5).astype(np.int64)
        labels[2000:] = 1 - labels[2000:]
        stream = BufferedStream(
            features=features, labels=labels, drift_positions=(2000,)
        )
        alerts, _ = ddm_runner()(stream)
        assert alerts
        assert 2000 <= alerts[0] <= 2600

    def test_ddm_runner_quiet_on_learnable_stream(self):
        rng = np.random.default_rng(22)
        features = rng.uniform(size=(3000, 2))
        labels = (features[:, 0] > 0.5).astype(np.int64)
        stream = BufferedStream(features=features, labels=labels)
        alerts, _ = ddm_runner()(stream)
        assert len(alerts) <= 1

    def test_empty_stream_gives_what_one_row_gives(self):
        empty = BufferedStream(np.empty((0, 3)), np.empty(0, np.int64))
        one_row = BufferedStream(np.zeros((1, 3)), np.zeros(1, np.int64))
        for stream in (empty, one_row):
            result = run_detection(stream)
            assert (result.steps, result.accuracy, result.alerts, result.node_counts) == (0, 0.0, (), ())
            assert result.global_alert_steps == []
            assert ddm_runner()(stream) == ([], 0.0)
            assert len(list(scaled(stream))) == stream.length
        with pytest.raises(ValueError, match="does not fit the stream prefix"):
            run_tracking(empty)

    def test_finite_stream_whose_range_overflows_is_rejected_before_step_one(self):
        # finite data that BufferedStream accepts, but max - min overflows to inf
        features = np.array([[1e308, 0.0], [-1e308, 1.0], [0.0, 0.5]] * 10)
        stream = BufferedStream(features, np.array([0, 1, 0] * 10))
        for run in (run_detection, lambda s: run_tracking(s, sample_size=2, sample_prefix=10), ddm_runner()):
            with pytest.raises(ValueError, match=r"^feature 0: range \[-1e\+308, 1e\+308\] has no finite span$"):
                run(stream)

    @pytest.mark.parametrize(
        "run",
        [run_detection, lambda s: run_tracking(s, sample_size=5, sample_prefix=10), ddm_runner()],
        ids=["detection", "tracking", "ddm"],
    )
    def test_a_nan_under_declared_ranges_fails_its_step_by_name(self, run):
        rng = np.random.default_rng(0)
        features = rng.uniform(size=(100, 2))
        features[20, 1] = np.nan
        stream = BufferedStream(features, (features[:, 0] > 0.5).astype(np.int64), feature_ranges=((0.0, 1.0),) * 2)
        with pytest.raises(ValueError, match=r"^row 20, feature 1 \('f1'\): nan does not scale to a finite number$"):
            run(stream)

    @pytest.mark.parametrize(
        "run",
        [lambda s: run_detection(s, window=8), lambda s: run_tracking(s, sample_size=5, sample_prefix=100), ddm_runner()],
        ids=["detection", "tracking", "ddm"],
    )
    def test_a_value_scaling_past_the_magnitude_bound_fails_its_step_by_name(self, run):
        # 1e300 is finite, but its squared distances would overflow to inf
        rng = np.random.default_rng(0)
        features = rng.uniform(size=(300, 2))
        features[150, 1] = 1e300
        stream = BufferedStream(features, (features[:, 0] > 0.5).astype(np.int64), feature_ranges=((0.0, 1.0),) * 2)
        message = r"^row 150, feature 1 \('f1'\): 1e\+300 does not scale to a magnitude of at most 1e\+150$"
        with pytest.raises(ValueError, match=message):
            run(stream)

    def test_ddm_runner_rejects_bad_setting_when_built(self):
        with pytest.raises(ValueError, match="'model'"):
            ddm_runner(model="svm")

    def test_cdleeds_runner_rejects_bad_setting_when_built(self):
        with pytest.raises(ValueError, match="'model'"):
            cdleeds_runner(model="svm")


class TestDetectorInputWiring:
    def test_diff_is_margin_minus_baseline_margin(self):
        # run two steps by hand and mirror the pipeline's diff
        stream = _constant_stream(3)
        source = scaled(stream)
        items = list(source)
        clf = OnlineLogisticRegression(3, learning_rate=0.1)
        baseline = EwmaBaseline(0.001)
        baseline.update(items[0].x)
        clf.update(items[0].x, items[0].y)
        baseline.update(items[1].x)
        prediction, baseline_prediction = clf.predict(np.array((items[1].x, baseline.ewma)))
        diff = clf.detector_input(prediction, baseline_prediction)
        assert isinstance(diff, float)
        # constant stream: observation equals the baseline, so no gap
        assert diff == pytest.approx(0.0, abs=1e-12)
