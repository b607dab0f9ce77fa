from __future__ import annotations

import numpy as np
import pytest

from driftscope.stream import (
    BufferedStream,
    CsvParseError,
    Normalizer,
    Observation,
    buffer_stream,
    fit_normalizer,
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

    def test_label_column_by_index_without_header(self, tmp_path):
        p = _write(tmp_path, "1.0,2.0,pos\n3.0,4.0,neg\n")
        stream = read_csv(p, label_column=2, has_header=False)
        assert stream.labels.tolist() == [0, 1]
        assert stream.n_features == 2

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
        norm = fit_normalizer(stream)
        for item in stream:
            out = norm.transform(item.x)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_normalize_preserves_time_step(self):
        norm = Normalizer(np.zeros(2), np.ones(2))
        obs = norm.normalize(Observation(7, np.array([0.5, 0.5])))
        assert obs.t == 7

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            Normalizer(np.array([1.0]), np.array([0.0]))


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

    def test_metadata_carried_through(self):
        stream = BufferedStream(
            features=np.zeros((4, 2)),
            labels=np.array([0, 1, 0, 1], dtype=np.int64),
            drift_positions=(2,),
        )
        wrapped = scaled(stream)
        assert wrapped.drift_positions == (2,)
        assert wrapped.n_features == 2
        assert len(wrapped) == 4
