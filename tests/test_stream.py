from __future__ import annotations

import numpy as np
import pytest

from driftscope.stream import (
    BufferedStream,
    CsvParseError,
    Normalizer,
    Observation,
    buffer_stream,
    read_csv,
    scaled,
)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestReadCsv:
    def test_label_first_appearance_encoding(self, tmp_path):
        p = _write(tmp_path, "x1,x2,class\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        stream = read_csv(p, label_column="class")
        assert stream.labels.tolist() == [0, 1, 0]
        assert stream.n_classes == 2
        assert stream.feature_names == ("x1", "x2")
        np.testing.assert_allclose(stream.features, [[1, 2], [3, 4], [5, 6]])

    def test_numeric_labels_also_encoded_by_appearance(self, tmp_path):
        p = _write(tmp_path, "x,y\n0.5,7\n0.6,3\n0.7,7\n")
        stream = read_csv(p, label_column="y")
        assert stream.labels.tolist() == [0, 1, 0]

    def test_categorical_feature_column(self, tmp_path):
        p = _write(tmp_path, "color,size,label\nred,1,0\nblue,2,1\nred,3,0\n")
        stream = read_csv(p, label_column="label")
        assert stream.features[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_ragged_row_rejected_with_row_number(self, tmp_path):
        p = _write(tmp_path, "a,b,c\n1,2,x\n1,2,3,x\n")
        with pytest.raises(CsvParseError, match="row 3"):
            read_csv(p, label_column="c")

    def test_non_numeric_in_numeric_column_rejected(self, tmp_path):
        p = _write(tmp_path, "a,b\n1.5,0\noops,1\n")
        with pytest.raises(CsvParseError, match="row 3.*'a'"):
            read_csv(p, label_column="b")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_row_and_column(self, tmp_path, value):
        p = _write(tmp_path, f"x1,x2,y\n1.0,2.0,0\n3.0,{value},1\n")
        with pytest.raises(CsvParseError, match=f"row 3, column 'x2': non-finite value '{value}'"):
            read_csv(p, label_column="y")

    @pytest.mark.parametrize(
        "text, message",
        [
            # blank lines still count
            ("a,b,y\n1,2,0\n\n3,foo,1\n", "row 4, column 'b': non-numeric value 'foo' in a numeric column"),
            # a record is numbered by the line it ends on
            ('a,c,y\n1,"x\ny",0\n2,z,1\n3,w,\n', "row 5, column 'y' is empty"),
        ],
        ids=["blank-line", "multi-line-record"],
    )
    def test_fault_names_the_line_of_the_file(self, tmp_path, text, message):
        with pytest.raises(CsvParseError, match=message):
            read_csv(_write(tmp_path, text), label_column="y")

    @pytest.mark.parametrize(
        "text, message",
        [
            # a fault in an earlier row beats a ragged later row
            ("a,b,y\n1,2,0\n1,oops,1\n3,4\n", "row 3, column 'b': non-numeric value 'oops' in a numeric column"),
            # a ragged row beats its own values
            ("a,b,y\n1,2,0\n1,oops\n", "row 3 has 2 fields, expected 3"),
            # rows come before columns
            ("a,b,y\n1,2,0\n1,x,0\noops,2,0\n", "row 3, column 'b': non-numeric value 'x' in a numeric column"),
            # within a row, the features left to right, then the label
            ("a,b,y\n1,2,0\n,oops,\n", "row 3, column 'a' is empty"),
            ("a,b,y\n1,2,0\n1,nan,\n", "row 3, column 'b': non-finite value 'nan'"),
            ("y,a\n0,1\n,oops\n", "row 3, column 'a': non-numeric value 'oops' in a numeric column"),
            # a non-finite value beats a later unparseable one in the same column
            ("a,y\n1,0\ninf,1\nabc,0\n", "row 3, column 'a': non-finite value 'inf'"),
        ],
        ids=[
            "earlier-row-beats-ragged",
            "ragged-beats-own-values",
            "row-before-column",
            "empty-feature-first",
            "feature-before-label",
            "feature-before-earlier-label-column",
            "non-finite-before-unparseable",
        ],
    )
    def test_reports_the_first_fault_in_reading_order(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(CsvParseError) as err:
            read_csv(path, label_column="y")
        assert str(err.value) == f"{path}: {message}"

    def test_missing_field_rejected(self, tmp_path):
        p = _write(tmp_path, "a,b\n1.5,0\n,1\n")
        with pytest.raises(CsvParseError, match="empty"):
            read_csv(p, label_column="b")

    def test_unknown_label_column_rejected(self, tmp_path):
        p = _write(tmp_path, "a,b\n1,0\n")
        with pytest.raises(CsvParseError, match="'target'"):
            read_csv(p, label_column="target")

    def test_numeric_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        values = rng.uniform(-5, 5, size=(20, 3))
        lines = ["f0,f1,f2,label"]
        for row in values:
            lines.append(",".join(repr(float(v)) for v in row) + ",0")
        p = _write(tmp_path, "\n".join(lines) + "\n")
        stream = read_csv(p, label_column="label")
        reserialized = [",".join(repr(float(v)) for v in row) for row in stream.features]
        original = [",".join(repr(float(v)) for v in row) for row in values]
        assert reserialized == original


class TestBufferedStream:
    def test_yields_declared_count_with_increasing_t(self):
        stream = BufferedStream(features=np.arange(12.0).reshape(6, 2), labels=np.zeros(6, dtype=np.int64))
        items = list(stream)
        assert len(items) == len(stream) == 6
        assert [it.t for it in items] == list(range(6))

    def test_repeat_iteration_is_identical(self):
        rng = np.random.default_rng(1)
        stream = BufferedStream(
            features=rng.normal(size=(10, 2)), labels=rng.integers(0, 2, size=10).astype(np.int64)
        )
        a = [(it.t, it.y, it.x.tolist()) for it in stream]
        b = [(it.t, it.y, it.x.tolist()) for it in stream]
        assert a == b

    @pytest.mark.parametrize(
        "labels, row",
        [(np.array([1.5, 0.5, 1.0]), 0), (np.array([1.0, 0.0, 1.0]), 0), (np.array([0, 1, -1], dtype=np.int64), 2)],
        ids=["fractional", "whole-floats", "negative"],
    )
    def test_rejects_labels_that_are_not_class_ids_naming_the_row(self, labels, row):
        with pytest.raises(ValueError, match=f"row {row}: label .* is not a class id"):
            BufferedStream(features=np.ones((3, 2)), labels=labels)

    def test_accepts_unsigned_labels(self):
        stream = BufferedStream(features=np.ones((3, 2)), labels=np.array([0, 2, 1], dtype=np.uint8))
        assert stream.n_classes == 3

    def test_rejects_feature_names_of_another_length(self):
        with pytest.raises(ValueError, match="1 feature_names given for 3 features"):
            BufferedStream(features=np.ones((2, 3)), labels=np.zeros(2, dtype=np.int64), feature_names=("a",))

    def test_rejects_feature_ranges_of_another_length(self):
        # one range is not broadcast over three features
        with pytest.raises(ValueError, match="1 feature_ranges given for 3 features"):
            BufferedStream(
                features=np.ones((2, 3)), labels=np.zeros(2, dtype=np.int64), feature_ranges=((0.0, 10.0),)
            )

    def test_buffer_stream_round_trip(self):
        base = BufferedStream(
            features=np.ones((3, 2)), labels=np.array([0, 1, 0], dtype=np.int64), drift_positions=(2,)
        )
        assert buffer_stream(base) is base


class TestNormalizer:
    def test_midpoint_maps_to_half(self):
        norm = Normalizer(np.array([2.0]), np.array([6.0]))
        assert norm.transform(np.array([4.0]))[0] == pytest.approx(0.5)

    def test_constant_feature_maps_to_zero(self):
        norm = Normalizer(np.array([3.0, 0.0]), np.array([3.0, 1.0]))
        out = norm.transform(np.array([3.0, 0.25]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.25)

    def test_fit_then_transform_lands_in_unit_interval(self):
        rng = np.random.default_rng(2)
        stream = BufferedStream(
            features=rng.uniform(-10, 10, size=(200, 4)),
            labels=np.zeros(200, dtype=np.int64),
        )
        out = np.array([item.x for item in scaled(stream)])
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        np.testing.assert_array_equal(out.min(axis=0), 0.0)
        np.testing.assert_array_equal(out.max(axis=0), 1.0)

    def test_normalize_preserves_time_step(self):
        norm = Normalizer(np.zeros(2), np.full(2, 2.0))
        obs = norm.normalize(Observation(7, np.array([0.5, 1.0]), 1))
        assert obs.t == 7
        assert obs.y == 1
        np.testing.assert_allclose(obs.x, [0.25, 0.5])

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            Normalizer(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize(
        "lo, hi, bounds",
        [
            (-1e308, 1e308, r"\[-1e\+308, 1e\+308\]"),  # finite bounds whose span overflows
            (0.0, np.inf, r"\[0\.0, inf\]"),
            (-np.inf, np.inf, r"\[-inf, inf\]"),
            (np.nan, 1.0, r"\[nan, 1\.0\]"),
        ],
    )
    def test_rejects_range_without_finite_span(self, lo, hi, bounds):
        with pytest.raises(ValueError, match=f"^feature 1: range {bounds} has no finite span$"):
            Normalizer(np.array([0.0, lo]), np.array([1.0, hi]))


class TestScaled:
    def test_declared_ranges_take_precedence(self):
        stream = BufferedStream(
            features=np.array([[5.0], [10.0]]),
            labels=np.zeros(2, dtype=np.int64),
            feature_ranges=((0.0, 10.0),),
        )
        out = list(scaled(stream))
        assert out[0].x[0] == pytest.approx(0.5)
        assert out[1].x[0] == pytest.approx(1.0)

    def test_falls_back_to_min_max_fit(self):
        stream = BufferedStream(features=np.array([[5.0], [15.0]]), labels=np.zeros(2, dtype=np.int64))
        out = list(scaled(stream))
        assert out[0].x[0] == pytest.approx(0.0)
        assert out[1].x[0] == pytest.approx(1.0)
