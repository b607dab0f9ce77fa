"""Scoring rules, the DDM baseline, and the benchmark runner."""

import math

import numpy as np
import pytest

from driftscope.evaluation import (
    DEFAULT_INTERVALS,
    DDM_MIN_SAMPLES,
    DdmDetector,
    combined_score,
    compute_delay,
    compute_recall_fdr,
    run_benchmark,
    score_alerts,
)
from driftscope.stream import BufferedStream


def _stream(length=2000, positions=(1200, 1600)):
    return BufferedStream(
        features=np.zeros((length, 2)),
        labels=np.zeros(length, dtype=np.int64),
        drift_positions=tuple(positions),
    )


class TestComputeDelay:
    def test_first_alert_after_drift(self):
        assert compute_delay([1000], [900, 1040, 1100]) == [40]

    def test_alert_exactly_at_drift_is_zero(self):
        assert compute_delay([1000], [1000]) == [0]

    def test_missing_detection_is_none(self):
        assert compute_delay([1000], [500]) == [None]

    def test_alert_past_next_drift_does_not_count(self):
        assert compute_delay([100, 200], [250]) == [None, 50]

    def test_no_truth_positions(self):
        assert compute_delay([], [10, 20]) == []


class TestComputeRecallFdr:
    def test_half_the_drifts_detected(self):
        recall, fdr = compute_recall_fdr([1000, 5000], [1050], 10_000, 0.01)
        assert recall == 0.5
        assert fdr == 0.0

    def test_one_of_three_alerts_inside(self):
        recall, fdr = compute_recall_fdr([1000], [1050, 2000, 3000], 10_000, 0.01)
        assert recall == 1.0
        assert fdr == pytest.approx(2 / 3)

    def test_warmup_discards_everything(self):
        recall, fdr = compute_recall_fdr([1000], [500, 900], 10_000, 0.01, warmup=1000)
        assert (recall, fdr) == (0.0, 0.0)

    def test_alert_at_drift_position_is_a_hit(self):
        recall, fdr = compute_recall_fdr([1000], [1000], 10_000, 0.01)
        assert (recall, fdr) == (1.0, 0.0)

    def test_alert_at_interval_edge_is_a_hit(self):
        recall, fdr = compute_recall_fdr([1000], [1100], 10_000, 0.01)
        assert (recall, fdr) == (1.0, 0.0)
        recall, fdr = compute_recall_fdr([1000], [1101], 10_000, 0.01)
        assert (recall, fdr) == (0.0, 1.0)

    def test_repeat_alerts_in_one_interval_are_not_false(self):
        recall, fdr = compute_recall_fdr([1000], [1010, 1020, 1030], 10_000, 0.01)
        assert (recall, fdr) == (1.0, 0.0)

    def test_alert_before_first_drift_is_false(self):
        recall, fdr = compute_recall_fdr([1000], [200], 10_000, 0.01)
        assert (recall, fdr) == (0.0, 1.0)

    def test_alert_matches_latest_preceding_drift_only(self):
        # 3100 is 100 past the second drift but 2100 past the first;
        # with a 50-step interval it matches neither and is false.
        recall, fdr = compute_recall_fdr([1000, 3000], [3100], 10_000, 0.005)
        assert (recall, fdr) == (0.0, 1.0)

    def test_monotone_in_interval_length(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            truth = sorted(rng.choice(np.arange(100, 4900), size=4, replace=False))
            alerts = sorted(rng.integers(0, 5000, size=12))
            prev_recall, prev_fdr = 0.0, 1.0
            first = True
            for fraction in (0.002, 0.01, 0.05, 0.2, 0.5):
                recall, fdr = compute_recall_fdr(truth, alerts, 5000, fraction)
                if not first:
                    assert recall >= prev_recall
                    assert fdr <= prev_fdr
                prev_recall, prev_fdr, first = recall, fdr, False

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="interval fraction"):
            compute_recall_fdr([1000], [1001], 10_000, 0.0)
        with pytest.raises(ValueError, match="interval fraction"):
            compute_recall_fdr([1000], [1001], 10_000, 1.5)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            compute_recall_fdr([1000], [1001], 10_000, 0.01, warmup=-1)


class TestCombinedScore:
    def test_perfect(self):
        assert combined_score(1.0, 0.0) == 1.0

    def test_worst(self):
        assert combined_score(0.0, 1.0) == 0.0

    def test_mixed(self):
        assert combined_score(0.5, 0.2) == pytest.approx(0.65)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="recall and FDR"):
            combined_score(1.2, 0.0)


def _ddm_oracle(outcomes, min_samples=30):
    """Plain replay of the DDM recurrences, kept deliberately simple; one drift flag per step."""
    i = 0
    p = 0.0
    p_min = math.inf
    s_min = math.inf
    flags = []
    for correct in outcomes:
        i = i + 1
        err = 0.0 if correct else 1.0
        p = p + (err - p) / i
        s = math.sqrt(p * (1.0 - p) / i)
        if i < min_samples:
            flags.append(False)
            continue
        if p + s <= p_min + s_min:
            p_min, s_min = p, s
        if p + s > p_min + 3.0 * s_min:
            flags.append(True)
            i, p = 0, 0.0
            p_min, s_min = math.inf, math.inf
        else:
            flags.append(False)
    return flags


class TestDdmDetector:
    def test_all_correct_never_alerts(self):
        ddm = DdmDetector()
        flags = [ddm.update(True) for _ in range(5000)]
        assert not any(flags)
        assert ddm.p == 0.0

    def test_detects_error_rate_step(self):
        outcomes = [t % 10 != 0 for t in range(1000)]  # 10% error
        outcomes += [t % 2 != 0 for t in range(400)]  # then 50% error
        ddm = DdmDetector()
        drift_at = None
        for t, correct in enumerate(outcomes):
            if ddm.update(correct):
                drift_at = t
                break
        assert drift_at is not None
        assert 1000 <= drift_at < 1400

    def test_matches_scripted_recurrence_trace(self):
        rng = np.random.default_rng(11)
        outcomes = list(rng.random(1500) > 0.1) + list(rng.random(500) > 0.6)
        ddm = DdmDetector()
        got = [ddm.update(bool(c)) for c in outcomes]
        assert all(type(flag) is bool for flag in got)
        assert any(got)
        assert got == _ddm_oracle(outcomes)

    def test_reset_after_drift(self):
        outcomes = [t % 10 != 0 for t in range(1000)] + [False] * 200
        ddm = DdmDetector()
        for correct in outcomes:
            if ddm.update(correct):
                break
        else:
            pytest.fail("expected a drift alert")
        assert ddm.i == 0
        assert ddm.p == 0.0
        assert ddm.p_min == math.inf

    def test_no_threshold_before_min_samples(self):
        assert DDM_MIN_SAMPLES == 30
        ddm = DdmDetector()
        flags = [ddm.update(False) for _ in range(DDM_MIN_SAMPLES - 1)]
        assert flags == [False] * (DDM_MIN_SAMPLES - 1)


class TestScoreAlerts:
    def test_perfect_alerts_score_one_everywhere(self):
        stream = _stream()
        scores = score_alerts(stream, [1200, 1600], warmup=1000)
        assert scores["recall_mean"] == 1.0
        assert scores["recall_std"] == 0.0
        assert scores["fdr_mean"] == 0.0
        assert scores["combined_mean"] == 1.0
        assert scores["combined_std"] == 0.0
        assert scores["delays"] == (0, 0)

    def test_rejects_empty_intervals(self):
        with pytest.raises(ValueError, match="^need at least one detection interval$"):
            score_alerts(_stream(), [1200], intervals=())

    def test_no_alerts_score_half(self):
        scores = score_alerts(_stream(), [], warmup=1000)
        assert scores["recall_mean"] == 0.0
        assert scores["fdr_mean"] == 0.0
        assert scores["combined_mean"] == 0.5
        assert scores["delays"] == (None, None)


class TestRunBenchmark:
    def test_perfect_and_silent_detectors(self):
        stream = _stream()
        rows = run_benchmark(
            {"toy": stream},
            {
                "perfect": lambda stream: ([1200, 1600], 0.0),
                "silent": lambda stream: ([], 0.0),
            },
            warmup=1000,
        )
        assert [(row["stream"], row["detector"]) for row in rows] == [("toy", "perfect"), ("toy", "silent")]
        assert list(rows[0]) == [
            "stream", "detector", "recall_mean", "recall_std", "fdr_mean", "fdr_std",
            "combined_mean", "combined_std", "delays", "mean_update_seconds",
        ]
        by_name = {row["detector"]: row for row in rows}
        perfect = by_name["perfect"]
        assert (perfect["recall_mean"], perfect["fdr_mean"]) == (1.0, 0.0)
        assert perfect["combined_mean"] == 1.0
        assert perfect["delays"] == (0, 0)
        silent = by_name["silent"]
        assert (silent["recall_mean"], silent["fdr_mean"]) == (0.0, 0.0)
        assert silent["combined_mean"] == 0.5
        assert silent["delays"] == (None, None)

    def test_rejects_stream_without_schedule(self):
        stream = _stream(positions=())
        with pytest.raises(ValueError, match="ground-truth"):
            run_benchmark({"bad": stream}, {"silent": lambda stream: ([], 0.0)})

    def test_rejects_empty_interval_set(self):
        with pytest.raises(ValueError, match="interval"):
            run_benchmark({"toy": _stream()}, {"silent": lambda stream: ([], 0.0)}, intervals=())

    def test_default_interval_set(self):
        assert DEFAULT_INTERVALS == (0.01, 0.025, 0.05, 0.075, 0.1)

    def test_deterministic_rows(self):
        stream = _stream()
        detectors = {"fixed": lambda stream: ([1205, 1900], 0.0)}
        a = run_benchmark({"toy": stream}, detectors, warmup=1000)
        b = run_benchmark({"toy": stream}, detectors, warmup=1000)
        assert a == b
