"""Synthetic generator behavior: rules, drift schedules, determinism."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from driftscope import generators
from driftscope.generators import (
    AGRAWAL_RULES,
    SEA_THRESHOLDS,
    AgrawalStream,
    DriftSchedule,
    SeaStream,
    make_generator,
    transition_probability,
)
from driftscope.stream import buffer_stream


def _labels_and_features(source):
    buf = buffer_stream(source)
    return buf.features, buf.labels


def _rule_labels(features, concepts):
    """Each row's label under the Agrawal rule ``concepts`` names, one for all rows or one per row."""
    by_rule = [rule(*features[:, :4].T) for rule in AGRAWAL_RULES]
    return np.choose(np.broadcast_to(concepts, len(features)), by_rule)


def _digest(features, labels):
    h = hashlib.sha256(features.tobytes())
    h.update(labels.tobytes())
    return h.hexdigest()


class TestGeneratorSeed:
    @pytest.mark.parametrize("kind", ["sea", "agrawal"])
    @pytest.mark.parametrize("seed", [None, 1.5, "3", True])
    def test_rejects_a_seed_that_is_not_an_integer(self, kind, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_generator(kind, length=10, seed=seed)

    @pytest.mark.parametrize("kind", ["sea", "agrawal"])
    def test_rejects_a_negative_seed(self, kind):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            make_generator(kind, length=10, seed=-1)

    @pytest.mark.parametrize("kind", ["sea", "agrawal"])
    def test_takes_a_numpy_integer_seed(self, kind):
        a = make_generator(kind, length=50, seed=np.int64(3)).arrays()
        b = make_generator(kind, length=50, seed=3).arrays()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestDriftSchedule:
    def test_defaults_to_no_drift(self):
        s = DriftSchedule()
        assert s.positions == ()
        assert s.widths == ()

    def test_widths_default_to_abrupt(self):
        s = DriftSchedule(positions=(100, 200))
        assert s.widths == (0, 0)

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DriftSchedule(positions=(200, 100))

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DriftSchedule(positions=(100, 100))

    def test_rejects_nonpositive_position(self):
        message = r"drift positions must be strictly increasing steps in \[1, inf\), got \(0,\)"
        with pytest.raises(ValueError, match=message):
            DriftSchedule(positions=(0,))

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError, match=">= 0"):
            DriftSchedule(positions=(100,), widths=(-1,))

    def test_rejects_width_count_mismatch(self):
        with pytest.raises(ValueError, match="widths"):
            DriftSchedule(positions=(100, 200), widths=(0,))

    def test_rejects_overlapping_transition_windows(self):
        with pytest.raises(ValueError, match="overlap"):
            DriftSchedule(positions=(100, 150), widths=(80, 80))

    def test_accepts_touching_but_disjoint_windows(self):
        DriftSchedule(positions=(100, 200), widths=(40, 40))

    def test_rejects_position_beyond_stream(self):
        with pytest.raises(ValueError, match=r"drift positions must be .* in \[1, 500\), got \(500,\)"):
            SeaStream(length=500, concepts=(0, 1), schedule=DriftSchedule(positions=(500,)))

    @pytest.mark.parametrize(
        "positions, widths, message",
        [
            ((100.7, 200.2), (), "drift position must be an integer, got 100.7"),
            ((True,), (), "drift position must be an integer, got True"),
            ((100, 200), (10, 20.5), "drift width must be an integer, got 20.5"),
        ],
        ids=["positions", "bool-position", "widths"],
    )
    def test_rejects_fractional_steps_and_accepts_numpy_integers(self, positions, widths, message):
        with pytest.raises(ValueError, match=message):
            DriftSchedule(positions, widths)
        s = DriftSchedule((np.int64(100), np.int64(200)), (np.int64(10), np.int64(20)))
        assert s.positions == (100, 200) and s.widths == (10, 20)


class TestTransitionProbability:
    def test_center_is_half(self):
        assert transition_probability(1000, 1000, 400) == 0.5

    def test_saturates_before_window(self):
        assert transition_probability(0, 1000, 400) < 1e-4

    def test_saturates_after_window(self):
        assert transition_probability(2000, 1000, 400) > 1 - 1e-4

    def test_width_zero_is_hard_switch(self):
        assert transition_probability(999, 1000, 0) == 0.0
        assert transition_probability(1000, 1000, 0) == 1.0

    def test_sigmoid_shape_quarter_window(self):
        # one quarter width past the center: 1 / (1 + exp(-1))
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert transition_probability(1100, 1000, 400) == pytest.approx(expected)

    @pytest.mark.parametrize("width", [1, 2, 37, 400, 1000])
    def test_array_call_equals_the_scalar_formula_bit_for_bit(self, width):
        position = 500_000
        window = np.arange(position - width, position + width + 1)
        # z = -4 (t - position) / width reaches the clip at 700 from 175 widths before the position
        tails = position + width * np.array([-200, -176, -175, -174, 174, 175, 200])
        t = np.concatenate([window, tails])
        vector = transition_probability(t, position, width)
        scalar = [1.0 / (1.0 + math.exp(min(-4.0 * (s - position) / width, 700.0))) for s in t.tolist()]
        assert vector.shape == t.shape and vector.dtype == np.float64
        assert [v.hex() for v in vector.tolist()] == [v.hex() for v in scalar]
        assert [transition_probability(s, position, width) for s in t.tolist()] == scalar
        assert type(transition_probability(int(t[0]), position, width)) is float

    def test_array_call_takes_a_hard_switch_and_an_empty_input(self):
        assert transition_probability(np.arange(998, 1002), 1000, 0).tolist() == [0.0, 0.0, 1.0, 1.0]
        empty = transition_probability(np.array([], dtype=np.int64), 1000, 400)
        assert empty.shape == (0,) and empty.dtype == np.float64

    def test_schedule_gives_each_window_step_its_own_window(self):
        schedule = DriftSchedule(positions=(100, 400), widths=(37, 150))
        before, inside = schedule.phases(600)
        steps = np.flatnonzero(inside)
        vector = schedule.incoming(steps, before[steps])
        scalar = [
            transition_probability(t, schedule.positions[k], schedule.widths[k])
            for t, k in zip(steps.tolist(), before[steps].tolist())
        ]
        assert vector.tolist() == scalar
        assert schedule.incoming(int(steps[0]), 0) == scalar[0]


class TestSeaStream:
    def test_thresholds_match_standard_variants(self):
        assert SEA_THRESHOLDS == (8.0, 9.0, 7.0, 9.5)

    def test_label_rule_without_noise(self):
        stream = SeaStream(length=2000, concepts=(0,), perturbation=0.0, seed=3)
        for item in stream:
            expected = 1 if item.x[0] + item.x[1] <= 8.0 else 0
            assert item.y == expected

    def test_features_stay_in_range(self):
        features, _ = _labels_and_features(SeaStream(length=500, perturbation=0.0, seed=1))
        assert features.shape == (500, 3)
        assert features.min() >= 0.0
        assert features.max() <= 10.0

    def test_flip_rate_matches_perturbation(self):
        # 1e5 draws; binomial sd of the rate is ~0.00095, so +-0.01 is
        # a ten-sigma band around 0.1.
        stream = SeaStream(length=100_000, concepts=(0,), perturbation=0.1, seed=7)
        flips = 0
        for item in stream:
            clean = 1 if item.x[0] + item.x[1] <= 8.0 else 0
            flips += item.y != clean
        assert abs(flips / 100_000 - 0.1) < 0.01

    def test_abrupt_drift_switches_rule_at_position(self):
        schedule = DriftSchedule(positions=(500,))
        stream = SeaStream(
            length=1000, concepts=(0, 2), schedule=schedule, perturbation=0.0, seed=5
        )
        for item in stream:
            threshold = 8.0 if item.t < 500 else 7.0
            assert item.y == (1 if item.x[0] + item.x[1] <= threshold else 0)

    def test_gradual_drift_mixes_concepts_near_center(self):
        # Count how often the incoming rule is in effect on rows where
        # the two thresholds disagree (7 < x0+x1 <= 8).
        schedule = DriftSchedule(positions=(5000,), widths=(2000,))
        stream = SeaStream(
            length=10_000, concepts=(0, 2), schedule=schedule, perturbation=0.0, seed=11
        )
        near_center_new = []
        for item in stream:
            if abs(item.t - 5000) > 100:
                continue
            s = item.x[0] + item.x[1]
            if 7.0 < s <= 8.0:
                near_center_new.append(item.y == 0)  # new rule says 0 here
        assert len(near_center_new) > 5
        rate = np.mean(near_center_new)
        assert 0.2 < rate < 0.8

    def test_drift_positions_exposed(self):
        schedule = DriftSchedule(positions=(300, 700))
        stream = SeaStream(length=1000, concepts=(0, 1, 2), schedule=schedule, seed=0)
        assert stream.drift_positions == (300, 700)

    def test_same_seed_is_bit_identical(self):
        make = lambda: SeaStream(length=400, concepts=(1,), perturbation=0.1, seed=42)
        a = buffer_stream(make())
        b = buffer_stream(make())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = buffer_stream(SeaStream(length=400, seed=1))
        b = buffer_stream(SeaStream(length=400, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_rejects_unknown_concept(self):
        with pytest.raises(ValueError, match="SEA concepts"):
            SeaStream(length=100, concepts=(4,))

    def test_rejects_concept_count_mismatch(self):
        with pytest.raises(ValueError, match="concepts"):
            SeaStream(length=100, concepts=(0,), schedule=DriftSchedule(positions=(50,)))

    def test_rejects_bad_perturbation(self):
        with pytest.raises(ValueError, match="perturbation"):
            SeaStream(length=100, perturbation=1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"length": 300.0}, "stream length must be an integer, got 300.0"),
            ({"length": True}, "stream length must be an integer, got True"),
            ({"length": 300, "concepts": (0.5,)}, "concept must be an integer, got 0.5"),
        ],
        ids=["length", "bool-length", "concepts"],
    )
    def test_rejects_fractional_length_and_concepts(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SeaStream(**kwargs)
        stream = SeaStream(length=np.int64(300), concepts=(np.int64(1),))
        assert (stream.length, stream.concepts) == (300, (1,))

    @pytest.mark.parametrize(
        "length, concepts, positions, widths, perturbation, digest",
        [
            (600, (1,), (), (), 0.0, "84d7b63a8d8b021da8bbad30f2d4da28be67aba35a78f8ef9cb8cbaa291e8779"),
            (600, (1,), (), (), 0.1, "e7b7b6619b3edb22f6fffc462136dd6cc835c4e242ab9f760cf3caa03db65c81"),
            (1, (3,), (), (), 0.1, "719857a67f9c0ddc1198f520abec65e14ff3febf05baa6484dad7d51945dd155"),
            (600, (0, 2, 3), (200, 400), (), 0.1, "b3abd7b08722e9fd3cf015f89c38bfd4c206061b825e3fda099c70fdb96a614a"),
            # windows [1, 201), [449.5, 550.5) and [800, 1000): the first starts at step 1, the last ends at the last step
            (1000, (0, 1, 2, 3), (101, 500, 900), (200, 101, 200), 0.0,
             "dc86302ab66a07d1bef9b63f71ed095a7ca7cc2af3c1482a3af1ad8a7e7fd3f5"),
            (1000, (0, 1, 2, 3), (101, 500, 900), (200, 101, 200), 0.1,
             "d31f8869d2ff2393e5adcd52ac50734390509ce234230231dc214ffd3ae88557"),
        ],
        ids=["no-drift-clean", "no-drift", "one-row", "abrupt", "gradual-clean", "gradual"],
    )
    def test_stream_is_frozen(self, length, concepts, positions, widths, perturbation, digest):
        # taken from the generator that drew row by row: drawing in one call must not change a bit
        features, labels = _labels_and_features(
            SeaStream(length, concepts, DriftSchedule(positions, widths), perturbation=perturbation, seed=7)
        )
        h = hashlib.sha256(features.tobytes())
        h.update(labels.tobytes())
        assert h.hexdigest() == digest


class TestAgrawalStream:
    def test_rule_0_is_age_band(self):
        rule = AGRAWAL_RULES[0]
        assert rule(50_000, 0, 30, 2) == 0
        assert rule(50_000, 0, 45, 2) == 1
        assert rule(50_000, 0, 60, 2) == 0
        assert rule(50_000, 0, 39.9, 2) == 0

    def test_rule_1_salary_bands_by_age(self):
        rule = AGRAWAL_RULES[1]
        assert rule(60_000, 0, 30, 2) == 0
        assert rule(120_000, 0, 30, 2) == 1
        assert rule(120_000, 0, 50, 2) == 0
        assert rule(60_000, 0, 70, 2) == 0
        assert rule(120_000, 0, 70, 2) == 1

    def test_rule_2_education_bands_by_age(self):
        rule = AGRAWAL_RULES[2]
        assert rule(0, 0, 30, 1) == 0
        assert rule(0, 0, 30, 4) == 1
        assert rule(0, 0, 50, 3) == 0
        assert rule(0, 0, 50, 0) == 1
        assert rule(0, 0, 70, 4) == 0

    def test_array_rules_match_scalar_calls(self):
        age, salary, elevel = np.meshgrid(
            [39.9, 40.0, 59.9, 60.0],
            [s + d for s in (25_000.0, 50_000.0, 75_000.0, 100_000.0, 125_000.0) for d in (-0.01, 0.0, 0.01)],
            np.arange(5),
            indexing="ij",
        )
        age, salary, elevel = age.ravel(), salary.ravel(), elevel.ravel().astype(np.int64)
        for rule in AGRAWAL_RULES:
            labels = rule(salary, 0.0, age, elevel)
            scalar = [int(rule(s, 0.0, a, e)) for s, a, e in zip(salary.tolist(), age.tolist(), elevel.tolist())]
            assert labels.tolist() == scalar

    @pytest.mark.parametrize("age, group_a", [(30, {0, 1}), (50, {1, 2, 3}), (70, {2, 3, 4})])
    def test_rule_2_takes_each_elevel_of_its_age_band(self, age, group_a):
        rule = AGRAWAL_RULES[2]
        expected = [0 if e in group_a else 1 for e in range(5)]
        assert rule(0.0, 0.0, np.full(5, float(age)), np.arange(5)).tolist() == expected
        assert [int(rule(0.0, 0.0, age, e)) for e in range(5)] == expected

    def test_labels_match_rule_without_perturbation(self):
        stream = AgrawalStream(length=2000, concepts=(0,), perturbation=0.0, seed=9)
        for item in stream:
            age = item.x[2]
            assert item.y == (0 if (age < 40 or age >= 60) else 1)

    def test_feature_shapes_and_ranges(self):
        buf = buffer_stream(AgrawalStream(length=3000, perturbation=0.1, seed=2))
        assert buf.features.shape == (3000, 9)
        for j, (lo, hi) in enumerate(AgrawalStream.feature_ranges):
            assert buf.features[:, j].min() >= lo
            assert buf.features[:, j].max() <= hi

    def test_commission_zero_for_high_earners(self):
        buf = buffer_stream(AgrawalStream(length=3000, perturbation=0.0, seed=4))
        high = buf.features[:, 0] >= 75_000
        assert high.any()
        assert np.all(buf.features[high, 1] == 0.0)

    def test_same_seed_is_bit_identical(self):
        make = lambda: AgrawalStream(length=500, concepts=(1,), perturbation=0.1, seed=13)
        a = buffer_stream(make())
        b = buffer_stream(make())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_rejects_unsupported_function(self):
        with pytest.raises(ValueError, match="functions"):
            AgrawalStream(length=100, concepts=(3,))

    @pytest.mark.parametrize(
        "perturbation, digest",
        [
            (0.1, "637a3d782f3c82c340df55b0bbaec0313cde45e8822b8281f9607e0501762779"),
            (0.0, "20b2dd7e08eef6690e56a8f981bee95327de1cc87f46fe6668a338630600aef6"),
        ],
    )
    def test_gradual_stream_is_frozen(self, perturbation, digest):
        # the whole-block draw that defines the stream: a faster build must not change a bit
        schedule = DriftSchedule(positions=(750, 1500, 2250), widths=(300, 300, 300))
        features, labels = _labels_and_features(
            AgrawalStream(3000, concepts=(0, 1, 2, 0), schedule=schedule, perturbation=perturbation, seed=7)
        )
        h = hashlib.sha256(features.tobytes())
        h.update(labels.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "perturbation, digest",
        [
            (0.1, "440152ff5df5517de78cc6366a03ccbfa8411b2249477ac74074b7b0bdff59e3"),
            (0.0, "9d52e70bb62c761452b0f99d39db8dcf4535d0279021f58933229628663cc8bb"),
        ],
    )
    def test_window_across_a_block_edge_is_frozen(self, perturbation, digest):
        # the window 1798..2298 spans the edge between the first two blocks of rows
        assert 1798 < generators.AGRAWAL_BLOCK_ROWS < 2298
        schedule = DriftSchedule(positions=(2048,), widths=(500,))
        stream = AgrawalStream(4000, concepts=(2, 1), schedule=schedule, perturbation=perturbation, seed=5)
        assert _digest(*stream.arrays()) == digest

    @pytest.mark.parametrize(
        "offsets, widths, window_rows",
        [
            ((0, 0), (2, 2), (-1, 0, 299, 300)),
            ((0, 0), (3, 3), (-1, 0, 1, 299, 300, 301)),
            ((-1, 1), (1, 1), (-1, 301)),
            ((1, -1), (1, 1), (1, 299)),
        ],
        ids=["b-1-to-b", "b-1-to-b+1", "b-1-and-2b+1", "b+1-and-2b-1"],
    )
    def test_window_edges_beside_block_edges_keep_the_rules(self, monkeypatch, offsets, widths, window_rows):
        # drifts at B + offset and 2B + offset, for blocks of B rows; window rows are given relative to B
        monkeypatch.setattr(generators, "AGRAWAL_BLOCK_ROWS", 300)
        b = generators.AGRAWAL_BLOCK_ROWS
        schedule = DriftSchedule(positions=(b + offsets[0], 2 * b + offsets[1]), widths=widths)
        before, inside = schedule.phases(1000)
        assert np.flatnonzero(inside).tolist() == [b + r for r in window_rows]
        concepts = (2, 0, 1)
        features, labels = AgrawalStream(1000, concepts, schedule, perturbation=0.0, seed=17).arrays()
        outgoing = _rule_labels(features, np.array(concepts)[before])
        incoming = _rule_labels(features, np.array(concepts + (0,))[before + 1])  # past the last window: never read
        assert np.array_equal(labels[~inside], outgoing[~inside])
        assert np.all((labels[inside] == outgoing[inside]) | (labels[inside] == incoming[inside]))

    def test_a_window_across_a_block_edge_mixes_its_concepts(self, monkeypatch):
        # the window 50..550 spans the edge between the first two blocks of 300 rows
        monkeypatch.setattr(generators, "AGRAWAL_BLOCK_ROWS", 300)
        schedule = DriftSchedule(positions=(300,), widths=(500,))
        features, labels = AgrawalStream(1000, (2, 1), schedule, perturbation=0.0, seed=5).arrays()
        window = np.arange(50, 550)
        outgoing, incoming = (_rule_labels(features[window], c) for c in (2, 1))
        # where the two rules disagree, a label shows which concept the row drew
        drew_incoming = (labels[window] == incoming)[outgoing != incoming]
        after = (window >= 300)[outgoing != incoming]
        assert 0 < drew_incoming.sum() < len(drew_incoming)
        assert drew_incoming[~after].mean() < drew_incoming[after].mean()

    def test_build_memory_stays_near_the_output_size(self):
        n = 20_000
        schedule = DriftSchedule(positions=(n // 4, n // 2, 3 * n // 4), widths=(1000,) * 3)
        stream = AgrawalStream(n, concepts=(0, 1, 2, 0), schedule=schedule, perturbation=0.1, seed=1001)
        AgrawalStream(100, perturbation=0.1).arrays()  # modules numpy imports on first use are not the build's
        tracemalloc.start()
        try:
            features, labels = stream.arrays()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= features.nbytes + labels.nbytes + 2 * 2**20


class TestStreamPrefix:
    # the lengths straddle the first block edge of an Agrawal stream
    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 3000])
    @pytest.mark.parametrize(
        "kind, perturbation", [("sea", 0.1), ("agrawal", 0.1), ("agrawal", 0.0)], ids=["sea", "agrawal", "agrawal-clean"]
    )
    def test_a_stream_is_the_first_rows_of_a_longer_one(self, kind, perturbation, n):
        assert generators.AGRAWAL_BLOCK_ROWS == 2048
        # a window across the first block edge, in the streams that reach past it
        schedule, concepts = (DriftSchedule((2048,), (500,)), (2, 1)) if n > 2048 else (DriftSchedule(), (2,))
        short = make_generator(kind, length=n, concepts=concepts, schedule=schedule, perturbation=perturbation, seed=9)
        long = make_generator(kind, length=5000, concepts=concepts, schedule=schedule, perturbation=perturbation, seed=9)
        (features, labels), (long_features, long_labels) = short.arrays(), long.arrays()
        assert np.array_equal(features, long_features[:n])
        assert np.array_equal(labels, long_labels[:n])
        assert features.flags.c_contiguous and features.dtype == np.float64 and labels.dtype == np.int64


class TestMakeGenerator:
    def test_builds_by_kind(self):
        assert isinstance(make_generator("sea", length=10), SeaStream)
        assert isinstance(make_generator("agrawal", length=10), AgrawalStream)

    @pytest.mark.parametrize("kind", ["sea", "agrawal"])
    def test_iteration_yields_the_buffered_rows(self, kind):
        source = make_generator(kind, length=300, concepts=(0, 1), schedule=DriftSchedule((150,), (61,)), seed=2)
        buf = buffer_stream(source)
        items = list(source)
        assert [item.t for item in items] == list(range(300))
        assert np.array_equal(np.array([item.x for item in items]), buf.features)
        assert [item.y for item in items] == buf.labels.tolist()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            make_generator("stagger", length=10)
