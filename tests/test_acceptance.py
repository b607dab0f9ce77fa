"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with its measured values so
the suite output doubles as the acceptance report. Tolerances are
pinned in the assertions; seeds are fixed so every run sees the same
streams.
"""

import json
import math
import time

import numpy as np
import pytest

from driftscope.attribution import attribute_linear
from driftscope.cli import main as cli_main
from driftscope.config import DetectorConfig
from driftscope.evaluation import score_alerts, run_benchmark
from driftscope.generators import AgrawalStream, DriftSchedule, SeaStream
from driftscope.injection import permute_inject
from driftscope.models import OnlineLogisticRegression
from driftscope.numerics import (
    chi2_survival,
    fisher_combine,
    reg_inc_beta,
    t_test_unpaired,
)
from driftscope.pipeline import cdleeds_runner, ddm_runner, run_detection, run_tracking
from driftscope.stream import BufferedStream, buffer_stream
from driftscope.tree import AdaptiveClusterTree


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"[C{criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _holds_newest(node, x) -> bool:
    return node.size > 0 and np.array_equal(node.entries_in_order()[0][-1], x)


def _sea_abrupt(length=50000, positions=(12500, 25000, 37500), seed=1):
    schedule = DriftSchedule(positions=positions)
    return buffer_stream(
        SeaStream(length=length, concepts=(0, 1, 2, 3), schedule=schedule, seed=seed)
    )


class TestAcceptance:
    def test_c01_statistical_oracle_equivalence(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        started = time.perf_counter()
        rng = np.random.default_rng(101)

        t_err = 0.0
        for _ in range(100):
            n = int(rng.integers(10, 200))
            a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=n)
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=n)
            ours = t_test_unpaired(a, b).p_value
            ref = scipy_stats.ttest_ind(a, b, equal_var=True).pvalue
            t_err = max(t_err, abs(ours - ref))

        fisher_err = 0.0
        for _ in range(100):
            ps = rng.uniform(1e-6, 1.0, size=int(rng.integers(1, 12)))
            ours = fisher_combine(ps).p_value
            ref = scipy_stats.combine_pvalues(ps, method="fisher").pvalue
            fisher_err = max(fisher_err, abs(ours - ref))

        beta_err = 0.0
        xs = np.linspace(0.02, 0.98, 50)
        for i, x in enumerate(xs):
            a = 0.5 + (i % 7)
            b = 0.75 + (i % 5)
            ref = float(mp.betainc(a, b, 0, x, regularized=True))
            beta_err = max(beta_err, abs(reg_inc_beta(float(x), a, b) - ref))

        gamma_err = 0.0
        for i, x in enumerate(np.linspace(0.1, 40.0, 50)):
            df = 1 + (i % 10)
            ref = float(mp.gammainc(df / 2.0, x / 2.0, mp.inf, regularized=True))
            gamma_err = max(gamma_err, abs(chi2_survival(float(x), df) - ref))

        elapsed = time.perf_counter() - started
        ok = t_err < 1e-6 and fisher_err < 1e-6 and beta_err < 1e-9 and gamma_err < 1e-9 and elapsed < 5
        _line(
            1,
            ok,
            f"t-test err {t_err:.2e} (<1e-6), fisher err {fisher_err:.2e} (<1e-6), "
            f"beta err {beta_err:.2e} (<1e-9), gamma err {gamma_err:.2e} (<1e-9), "
            f"{elapsed:.2f}s (<5s)",
        )
        assert t_err < 1e-6
        assert fisher_err < 1e-6
        assert beta_err < 1e-9
        assert gamma_err < 1e-9
        assert elapsed < 5

    def test_c02_local_accuracy_of_attributions(self):
        started = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            clf = OnlineLogisticRegression(d)
            clf.weights = rng.normal(0, 3, size=d)
            clf.bias = float(rng.normal(0, 2))
            x = rng.uniform(-5, 5, size=d)
            baseline = rng.uniform(-5, 5, size=d)
            vec = attribute_linear(clf, x, baseline)
            residual = abs(vec.phi0 + vec.phi.sum() - clf.margin(x))
            worst = max(worst, residual)
        elapsed = time.perf_counter() - started
        ok = worst < 1e-9 and elapsed < 1
        _line(2, ok, f"worst additivity residual {worst:.2e} (<1e-9) over 1000 draws, {elapsed:.2f}s (<1s)")
        assert worst < 1e-9
        assert elapsed < 1

    def test_c03_quiescence_and_false_alarm_control(self):
        started = time.perf_counter()
        alpha = 0.01

        # (a) calibration of the two-sample test on fresh iid windows:
        # the rejection rate must sit within 3 binomial standard errors
        # of alpha.
        rng = np.random.default_rng(303)
        trials = 20000
        rejected = 0
        for _ in range(trials):
            pair = rng.normal(size=(2, 100))
            rejected += t_test_unpaired(pair[0], pair[1]).p_value < alpha
        iid_rate = rejected / trials
        band = 3 * math.sqrt(alpha * (1 - alpha) / trials)
        iid_ok = abs(iid_rate - alpha) <= band

        # (b) the running detector on stationary diffs: overlapping
        # windows plus the clear-on-alert rule make the operational
        # alert rate strictly below alpha, so the spec bound is
        # one-sided. Global alerts cannot be exactly zero here (the
        # pool re-tests every step); they must stay rare.
        rng = np.random.default_rng(1)
        tree = AdaptiveClusterTree(3, DetectorConfig(window=200, max_age=100, max_depth=5))
        global_alerts = 0
        for t in range(100_000):
            tree.update(rng.uniform(0, 1, size=3), float(rng.normal()), t)
            if tree.test_global_change() is not None:
                global_alerts += 1
        local_rate = tree.local_alerts_raised / tree.local_tests_run
        upper = alpha + 3 * math.sqrt(alpha * (1 - alpha) / tree.local_tests_run)
        local_ok = 0.0 < local_rate <= upper
        global_ok = global_alerts <= 150

        # (c) frozen model on a constant stream: the diff signal is
        # exactly constant and the full pipeline must stay silent.
        n = 100_000
        features = np.tile(np.array([[2.0, 4.0, 6.0]]), (n, 1))
        labels = np.zeros(n, dtype=np.int64)
        labels[::2] = 1
        stream = BufferedStream(features=features, labels=labels, feature_ranges=((0.0, 10.0),) * 3)
        result = run_detection(stream, learning_rate=0.0)
        silent_ok = len(result.alerts) == 0

        elapsed = time.perf_counter() - started
        ok = iid_ok and local_ok and global_ok and silent_ok and elapsed < 60
        _line(
            3,
            ok,
            f"iid test rate {iid_rate:.5f} in {alpha}+-{band:.5f}, "
            f"detector local rate {local_rate:.5f} in (0, {upper:.5f}], "
            f"stationary global alerts {global_alerts} (<=150), "
            f"frozen-model alerts {len(result.alerts)} (==0), {elapsed:.1f}s (<60s)",
        )
        assert iid_ok, f"iid rejection rate {iid_rate} outside {alpha} +- {band}"
        assert local_ok, f"detector local alert rate {local_rate} outside (0, {upper}]"
        assert global_ok, f"{global_alerts} stationary global alerts"
        assert silent_ok, f"frozen model raised {len(result.alerts)} alerts"
        assert elapsed < 60

    def test_c04_tree_invariants_under_fuzzing(self):
        started = time.perf_counter()
        rng = np.random.default_rng(404)
        window, max_depth = 20, 4
        tree = AdaptiveClusterTree(2, DetectorConfig(window=window, max_age=200, max_depth=max_depth))
        threshold = -2.0 * math.log(0.95)
        prev_count = 0
        for t in range(10_000):
            x = rng.uniform(0, 1, size=2)
            target = tree.find_leaf(x) if tree.root is not None else None
            before = target.entries_in_order()[0] if target is not None else None
            if before is not None and len(before) == window:
                before = before[1:]  # a full window evicts its oldest entry first
            tree.update(x, float(rng.normal()), t)

            # (a) every node has zero or two children, so the leaf
            # count follows from the node count
            entries = 0
            n_nodes = 0
            n_leaves = 0
            for node in tree.nodes:
                n_nodes += 1
                n_leaves += node.is_leaf
                entries += node.size
                assert (node.left is None) == (node.right is None)
            assert tree.leaf_count == n_leaves
            # (b) stored windows bounded by node_count * w
            assert entries <= tree.node_count * window
            assert n_nodes == tree.node_count

            # (d) a split hands the parent's window to its children intact
            if target is not None and not target.is_leaf:
                combined = np.vstack([
                    target.left.window_observations(),
                    target.right.window_observations(),
                ])
                expected = np.vstack([before, x[None, :]])
                np.testing.assert_array_equal(
                    combined[np.lexsort(combined.T)], expected[np.lexsort(expected.T)]
                )

            # (c) the leaf that received this observation is coherent:
            # split away, all within the similarity threshold, or at the
            # depth cap. A node pruned this very step holds its window
            # as a new leaf and re-establishes coherence on its next
            # arrival, so shrink steps are exempt.
            if tree.node_count >= prev_count:
                node = tree.root
                reached = True
                while not node.is_leaf:
                    # the write landed where x is the newest stored row (the fuzzed rows are distinct)
                    nxt = node.left if _holds_newest(node.left, x) else node.right
                    if not _holds_newest(nxt, x):
                        reached = False
                        break
                    node = nxt
                if reached and node.is_leaf and node.depth < max_depth:
                    gaps = node.window_observations() - node.centroid
                    assert (gaps * gaps).sum(axis=1).max() <= threshold + 1e-9
            prev_count = tree.node_count

        elapsed = time.perf_counter() - started
        ok = elapsed < 30
        _line(
            4,
            ok,
            f"10000 fuzzed updates, {tree.node_count} nodes at end, all four invariants held, "
            f"{elapsed:.1f}s (<30s)",
        )
        assert elapsed < 30

    def test_c05_obsolete_branch_is_pruned(self):
        started = time.perf_counter()
        rng = np.random.default_rng(505)
        max_age = 100
        tree = AdaptiveClusterTree(2, DetectorConfig(window=200, max_age=max_age, max_depth=5))
        centers = (np.array([0.15, 0.15]), np.array([0.85, 0.85]))
        for t in range(2000):
            x = np.clip(centers[t % 2] + rng.normal(0, 0.03, size=2), 0, 1)
            tree.update(x, float(rng.normal()), t)
        leaves_before = tree.leaf_count
        pruned_at = None
        for k in range(max_age):
            x = np.clip(centers[0] + rng.normal(0, 0.03, size=2), 0, 1)
            tree.update(x, float(rng.normal()), 2000 + k)
            if tree.leaf_count < leaves_before:
                pruned_at = k + 1
                break
        elapsed = time.perf_counter() - started
        ok = leaves_before >= 2 and pruned_at is not None and elapsed < 10
        _line(
            5,
            ok,
            f"two-cluster tree had {leaves_before} leaves; stale branch pruned after "
            f"{pruned_at} one-cluster observations (<= {max_age}), {elapsed:.1f}s (<10s)",
        )
        assert leaves_before >= 2
        assert pruned_at is not None, f"no prune within {max_age} observations"
        assert elapsed < 10

    def test_c06_global_detection_on_abrupt_drift(self):
        started = time.perf_counter()
        stream = _sea_abrupt(seed=1)
        result = run_detection(stream)
        scores = score_alerts(stream, result.global_alert_steps)
        delays = [d for d in scores["delays"] if d is not None]
        mean_delay = float(np.mean(delays)) if delays else math.inf
        combined = scores["combined_mean"]
        recall = scores["recall_mean"]
        elapsed = time.perf_counter() - started
        ok = combined >= 0.5 and recall >= 2 / 3 and mean_delay <= 5000 and elapsed < 180
        _line(
            6,
            ok,
            f"SEA 50k/3 abrupt drifts: combined {combined:.3f} (>=0.5), recall {recall:.3f} (>=2/3), "
            f"mean delay {mean_delay:.0f} (<=5000), fdr {scores['fdr_mean']:.3f}, "
            f"{len(result.global_alert_steps)} global alerts, {elapsed:.1f}s (<180s)",
        )
        assert combined >= 0.5
        assert recall >= 2 / 3
        assert mean_delay <= 5000
        assert elapsed < 180

    def test_c07_beats_error_rate_baseline_on_gradual_drift(self):
        started = time.perf_counter()
        schedule = DriftSchedule(positions=(12500, 25000, 37500), widths=(1000, 1000, 1000))
        streams = {
            f"agrawal-gradual-s{seed}": buffer_stream(
                AgrawalStream(
                    length=50000, concepts=(0, 1, 2, 0), schedule=schedule,
                    perturbation=0.1, seed=seed,
                )
            )
            for seed in (1, 2, 3)
        }
        rows = run_benchmark(streams, {"cdleeds": cdleeds_runner(), "ddm": ddm_runner()})
        by_detector = {}
        for row in rows:
            by_detector.setdefault(row["detector"], []).append(row["combined_mean"])
        cdleeds_mean = float(np.mean(by_detector["cdleeds"]))
        ddm_mean = float(np.mean(by_detector["ddm"]))
        elapsed = time.perf_counter() - started
        ok = cdleeds_mean >= ddm_mean and elapsed < 300
        _line(
            7,
            ok,
            f"agrawal-gradual suite combined: cdleeds {cdleeds_mean:.3f} >= ddm {ddm_mean:.3f} "
            f"(per stream cdleeds {[round(v, 3) for v in by_detector['cdleeds']]}, "
            f"ddm {[round(v, 3) for v in by_detector['ddm']]}), {elapsed:.1f}s (<300s)",
        )
        assert cdleeds_mean >= ddm_mean
        assert elapsed < 300

    def test_c08_attribution_recomputation_savings(self):
        started = time.perf_counter()
        base = buffer_stream(SeaStream(length=40000, seed=5))
        injected = permute_inject(base, (10000, 20000, 30000), top_fraction=0.5, seed=5)
        result = run_tracking(
            injected, sample_size=100, sample_prefix=1000, policy="cdleeds",
            oracle=True, seed=11,
        )
        deviation_pct = result.deviation_pct_of_range
        elapsed = time.perf_counter() - started
        ok = result.reduction_pct >= 50.0 and deviation_pct <= 5.0 and elapsed < 300
        _line(
            8,
            ok,
            f"100 tracked observations on 40k injected stream: reduction {result.reduction_pct:.2f}% "
            f"(>=50%), deviation {deviation_pct:.3f}% of oracle range (<=5%), {elapsed:.1f}s (<300s)",
        )
        assert result.reduction_pct >= 50.0
        assert deviation_pct <= 5.0
        assert elapsed < 300

    def test_c09_throughput_at_default_settings(self):
        stream = buffer_stream(SeaStream(length=12000, seed=9))
        result = run_detection(stream)
        per_update_ms = result.mean_update_seconds * 1e3
        ok = result.steps >= 10_000 and per_update_ms < 5.0
        _line(
            9,
            ok,
            f"mean detector update {per_update_ms:.3f}ms (<5ms) over {result.steps} observations "
            f"at w=200, depth 5",
        )
        assert result.steps >= 10_000
        assert per_update_ms < 5.0

    def test_c10_reruns_are_byte_identical(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert cli_main(
            ["generate", "--kind", "sea", "--length", "3000", "--positions", "1500",
             "--seed", "3", "--out", str(gen)]
        ) == 0
        gen_b = tmp_path / "gen_b"
        assert cli_main(
            ["generate", "--kind", "sea", "--length", "3000", "--positions", "1500",
             "--seed", "3", "--out", str(gen_b)]
        ) == 0
        stream_csv = gen / "stream.csv"

        pairs = []
        for name, args, files in (
            ("detect", ["detect", "--input", str(stream_csv)],
             ("alerts.jsonl", "tree.jsonl", "summary.json")),
            ("track", ["track-attributions", "--input", str(stream_csv),
                       "--sample-size", "20", "--sample-prefix", "500", "--seed", "4"],
             ("attributions.csv", "summary.json")),
            ("bench", ["bench", "--stream", str(stream_csv), "--warmup", "200"],
             ("report.csv", "report.json")),
        ):
            a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
            assert cli_main(args + ["--out", str(a)]) == 0
            assert cli_main(args + ["--out", str(b)]) == 0
            for file_name in files:
                pairs.append((f"{name}/{file_name}", (a / file_name).read_bytes(), (b / file_name).read_bytes()))
        capsys.readouterr()  # drop the commands' own stdout

        identical = [label for label, left, right in pairs if left == right]
        ok = (gen / "stream.csv").read_bytes() == (gen_b / "stream.csv").read_bytes() and len(identical) == len(pairs)
        _line(
            10,
            ok,
            f"generate/detect/track/bench reruns byte-identical across "
            f"{len(pairs) + 1} compared outputs",
        )
        assert (gen / "stream.csv").read_bytes() == (gen_b / "stream.csv").read_bytes()
        for label, left, right in pairs:
            assert left == right, f"{label} differs between identical reruns"
