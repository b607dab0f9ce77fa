"""Config handling and the command-line entry point."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import driftscope
from driftscope.cli import build_parser, main
from driftscope.config import (
    DEFAULTS,
    DetectorConfig,
    load_config,
    merge_config,
    parse_value,
    validate_config,
)
from driftscope.stream import read_csv


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_constant_csv(path, length=1200):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "label"])
        for i in range(length):
            writer.writerow([2.5, 7.5, i % 2])
    return path


class TestParseValue:
    def test_numbers(self):
        assert parse_value("0.95") == 0.95
        assert parse_value("200") == 200

    def test_json_list(self):
        assert parse_value("[0.01, 0.05]") == [0.01, 0.05]

    def test_null_and_bool(self):
        assert parse_value("null") is None
        assert parse_value("true") is True

    def test_bare_string_passthrough(self):
        assert parse_value("logreg") == "logreg"


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# detector settings\n"
            "gamma = 0.9\n"
            "window = 100  # even\n"
            "model = gnb\n"
            "\n"
            "interval_fractions = [0.05, 0.1]\n"
        )
        values = load_config(cfg_file)
        assert values == {
            "gamma": 0.9,
            "window": 100,
            "model": "gnb",
            "interval_fractions": [0.05, 0.1],
        }

    def test_missing_equals_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("gamma 0.9\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(cfg_file)

    def test_empty_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("= 3\n")
        with pytest.raises(ValueError, match="empty key"):
            load_config(cfg_file)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("window = 100\ngamma = 0.9\n# again\nwindow = 202\n")
        with pytest.raises(ValueError) as excinfo:
            load_config(cfg_file)
        assert str(excinfo.value) == f"{cfg_file}:4: duplicate key 'window' (first on line 1)"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("gamma = 0.9\nwindw = 4\nalhpa = 0.5\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:2: unknown key 'windw'"):
            load_config(cfg_file)


class TestMergeAndValidate:
    def test_defaults_pass_validation(self):
        assert validate_config(merge_config()) == merge_config()

    def test_flags_override_file_overrides_defaults(self):
        merged = merge_config({"gamma": 0.9, "alpha": 0.02}, {"alpha": 0.05, "seed": None})
        assert merged["gamma"] == 0.9
        assert merged["alpha"] == 0.05
        assert merged["seed"] == DEFAULTS["seed"]

    def test_default_values(self):
        assert DEFAULTS["gamma"] == 0.95
        assert DEFAULTS["alpha"] == 0.01
        assert DEFAULTS["beta"] == 0.001
        assert DEFAULTS["window"] == 200
        assert DEFAULTS["max_age"] == 1000
        assert DEFAULTS["max_depth"] == 5
        assert DEFAULTS["warmup"] == 1000

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gamma", 0.0),
            ("gamma", 1.0),
            ("alpha", 0.0),
            ("beta", 1.5),
            ("window", 9),
            ("window", 2),
            ("max_age", 0),
            ("max_depth", -1),
            ("seed", 1.5),
            ("model", "svm"),
            ("learning_rate", -0.1),
            ("warmup", -5),
            ("interval_fractions", []),
            ("interval_fractions", [0.0]),
            ("label_column", 3),
        ],
    )
    def test_invalid_value_names_field(self, field, value):
        cfg = merge_config()
        cfg[field] = value
        with pytest.raises(ValueError, match=field):
            validate_config(cfg)

    @pytest.mark.parametrize("raw", ["true", "false"])
    @pytest.mark.parametrize(
        "field",
        [
            "learning_rate",
            "gamma",
            "alpha",
            "beta",
            "window",
            "max_age",
            "max_depth",
            "seed",
            "warmup",
            "interval_fractions",
        ],
    )
    def test_boolean_is_not_a_number(self, tmp_path, field, raw):
        value = f"[0.5, {raw}]" if field == "interval_fractions" else raw
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{field} = {value}\n")
        cfg = merge_config(load_config(cfg_file))
        with pytest.raises(ValueError, match=f"config field '{field}'"):
            validate_config(cfg)

    def test_unbounded_depth_allowed(self):
        cfg = merge_config()
        cfg["max_depth"] = None
        validate_config(cfg)

    def test_file_null_is_a_value(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("max_depth = null\nlabel_column = null\n")
        # an unset flag arrives as None and must not restore the default
        cfg = validate_config(merge_config(load_config(cfg_file), {"max_depth": None}))
        assert cfg["max_depth"] is None
        assert cfg["label_column"] is None
        cfg_file.write_text("seed = null\n")
        with pytest.raises(ValueError, match="config field 'seed'"):
            validate_config(merge_config(load_config(cfg_file)))

    def test_negative_seed_is_rejected_by_name(self, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"^config field 'seed': must be an integer >= 0, got -1$"):
            validate_config(merge_config(None, {"seed": -1}))
        code, _, err = _run(["generate", "--kind", "sea", "--seed", "-1", "--out", str(tmp_path / "g")], capsys)
        assert code == 2
        assert "config field 'seed': must be an integer >= 0, got -1" in err
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = -1\n")
        code, _, err = _run(["bench", "--stream", "s.csv", "--config", str(cfg_file), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "config field 'seed'" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_learning_rate_is_rejected_by_name(self, tmp_path, capsys, value):
        message = f"config field 'learning_rate': must be finite and >= 0, got {float(value)!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            DetectorConfig(learning_rate=float(value))
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_config(merge_config(None, {"learning_rate": float(value)}))
        out = tmp_path / "det"
        code, _, err = _run(["detect", "--kind", "sea", "--length", "500", f"--learning-rate={value}", "--out", str(out)],
                            capsys)
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_model_message_lists_the_model_kinds(self):
        with pytest.raises(ValueError, match=r"must be 'logreg' or 'gnb', got 'svm'$"):
            DetectorConfig(model="svm")


# One non-default value per DetectorConfig field, as typed on the command line.
_FLAG_VALUES = {
    "model": ("gnb", "gnb"),
    "learning_rate": ("0.5", 0.5),
    "gamma": ("0.9", 0.9),
    "alpha": ("0.05", 0.05),
    "beta": ("0.01", 0.01),
    "window": ("50", 50),
    "max_age": ("20", 20),
    "max_depth": ("3", 3),
}


class TestDetectorFlags:
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("detect", []),
            ("bench", ["--stream", "s.csv"]),
            ("track-attributions", []),
        ],
    )
    def test_every_field_has_a_flag(self, command, extra):
        names = [f.name for f in fields(DetectorConfig)]
        if command == "track-attributions":
            names.remove("model")
        argv = [command, *extra, "--out", "x"]
        for name in names:
            argv += [f"--{name.replace('_', '-')}", _FLAG_VALUES[name][0]]
        args = build_parser().parse_args(argv)
        for name in names:
            assert getattr(args, name) == _FLAG_VALUES[name][1]

    def test_tracking_has_no_model_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["track-attributions", "--model", "gnb", "--out", "x"])

    @pytest.mark.parametrize("command", ["detect", "bench", "track-attributions"])
    def test_field_metadata_drives_the_flag(self, command):
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        actions = {a.dest: a for a in subparsers.choices[command]._actions}
        for f in fields(DetectorConfig):
            if command == "track-attributions" and f.name == "model":
                assert f.name not in actions
                continue
            action = actions[f.name]
            assert action.option_strings == [f"--{f.name.replace('_', '-')}"]
            assert action.type == f.metadata.get("type")
            assert action.choices == f.metadata.get("choices")
            assert action.help == f.metadata["help"]
            assert action.default is None


class TestGenerate:
    def test_writes_stream_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code, _, _ = _run(
            ["generate", "--kind", "sea", "--length", "500", "--positions", "250",
             "--seed", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = (out / "stream.csv").read_text().splitlines()
        assert rows[0] == "f0,f1,f2,label"
        assert len(rows) == 501
        meta = json.loads((out / "stream.drifts.json").read_text())
        assert meta["positions"] == [250]
        assert meta["kind"] == "sea"

    @pytest.mark.parametrize("kind, concepts", [("sea", [0, 1, 2, 3, 0]), ("agrawal", [0, 1, 2, 0])])
    def test_default_concepts_cycle_through_the_family(self, tmp_path, capsys, kind, concepts):
        positions = [str(100 * (k + 1)) for k in range(len(concepts) - 1)]
        out = tmp_path / kind
        code, _, _ = _run(
            ["generate", "--kind", kind, "--length", "600", "--positions", *positions, "--out", str(out)], capsys
        )
        assert code == 0
        assert json.loads((out / "stream.drifts.json").read_text())["concepts"] == concepts

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--kind", "stagger", "--out", str(tmp_path)])
        assert "invalid choice: 'stagger'" in capsys.readouterr().err

    def test_same_seed_identical_files(self, tmp_path, capsys):
        args = ["generate", "--kind", "agrawal", "--length", "300", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(args + ["--out", str(a)], capsys)[0] == 0
        assert _run(args + ["--out", str(b)], capsys)[0] == 0
        assert (a / "stream.csv").read_bytes() == (b / "stream.csv").read_bytes()
        assert (a / "stream.drifts.json").read_bytes() == (b / "stream.drifts.json").read_bytes()

    def test_drift_position_beyond_length_fails(self, tmp_path, capsys):
        code, _, err = _run(
            ["generate", "--kind", "sea", "--length", "100", "--positions", "500",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "generate" in err and "position" in err

    def test_widths_without_positions_fail(self, tmp_path, capsys):
        code, _, err = _run(
            ["generate", "--kind", "sea", "--length", "300", "--widths", "100",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "0 positions but 1 widths" in err
        assert not (tmp_path / "x" / "stream.csv").exists()

    def test_module_entry_point_runs(self, tmp_path):
        # the child imports the package under test, installed or not
        paths = [str(Path(driftscope.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        result = subprocess.run(
            [sys.executable, "-m", "driftscope", "generate", "--kind", "sea",
             "--length", "50", "--out", str(tmp_path / "m")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "m" / "stream.csv").exists()


class TestDetect:
    def test_outputs_on_generated_stream(self, tmp_path, capsys):
        out = tmp_path / "det"
        code, printed, _ = _run(
            ["detect", "--kind", "sea", "--length", "1200", "--seed", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "1199 steps" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 1199
        tree_rows = (out / "tree.jsonl").read_text().splitlines()
        assert json.loads(tree_rows[0]) == {"t": 1, "node_count": 1}
        assert not (out / "stats.jsonl").exists()
        for line in (out / "alerts.jsonl").read_text().splitlines():
            alert = json.loads(line)
            assert alert["scope"] in ("local", "global")
        assert set(json.loads((out / "timings.json").read_text())) == {
            "mean_update_seconds",
            "total_seconds",
        }

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["detect", "--kind", "sea", "--length", "2500", "--positions", "1500",
                "--seed", "6"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(args + ["--out", str(a)], capsys)[0] == 0
        assert _run(args + ["--out", str(b)], capsys)[0] == 0
        for name in ("alerts.jsonl", "tree.jsonl", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_frozen_model_constant_csv_stays_silent(self, tmp_path, capsys):
        stream_csv = _write_constant_csv(tmp_path / "flat.csv")
        out = tmp_path / "det"
        code, _, _ = _run(
            ["detect", "--input", str(stream_csv), "--learning-rate", "0",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "alerts.jsonl").read_text() == ""
        assert (out / "tree.jsonl").read_text() == '{"node_count": 1, "t": 1}\n'

    def test_depth_zero_keeps_single_leaf(self, tmp_path, capsys):
        out = tmp_path / "det"
        code, _, _ = _run(
            ["detect", "--kind", "sea", "--length", "800", "--max-depth", "0",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "tree.jsonl").read_text() == '{"node_count": 1, "t": 1}\n'

    def test_odd_window_names_field(self, tmp_path, capsys):
        code, _, err = _run(
            ["detect", "--kind", "sea", "--length", "300", "--window", "9",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "window" in err

    def test_config_file_sets_detector_params(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("window = 9\n")
        code, _, err = _run(
            ["detect", "--kind", "sea", "--length", "300", "--config", str(cfg_file),
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "window" in err
        # a flag overrides the bad file value and the run succeeds
        code, _, _ = _run(
            ["detect", "--kind", "sea", "--length", "300", "--config", str(cfg_file),
             "--window", "50", "--out", str(tmp_path / "y")],
            capsys,
        )
        assert code == 0

    def test_missing_stream_is_an_error(self, tmp_path, capsys):
        code, _, err = _run(["detect", "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "detect" in err and "--input" in err


class TestInjectDrift:
    def test_permutes_after_position_only(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert _run(
            ["generate", "--kind", "sea", "--length", "600", "--seed", "1",
             "--out", str(gen)],
            capsys,
        )[0] == 0
        out = tmp_path / "inj"
        code, _, _ = _run(
            ["inject-drift", "--input", str(gen / "stream.csv"), "--positions", "400",
             "--seed", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        original = read_csv(gen / "stream.csv", label_column="label")
        injected = read_csv(out / "injected.csv", label_column="label")
        np.testing.assert_array_equal(original.labels, injected.labels)
        np.testing.assert_allclose(original.features[:400], injected.features[:400])
        assert not np.allclose(original.features[400:], injected.features[400:])
        meta = json.loads((out / "injected.drifts.json").read_text())
        assert meta["positions"] == [400]
        assert "widths" not in meta  # injection is always abrupt

    def test_negative_position_is_named(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert _run(["generate", "--kind", "sea", "--length", "300", "--out", str(gen)], capsys)[0] == 0
        code, _, err = _run(
            ["inject-drift", "--input", str(gen / "stream.csv"), "--positions", "-5", "--out", str(tmp_path / "inj")],
            capsys,
        )
        assert code == 2
        message = "injection positions must be strictly increasing steps in [1, 300), got (-5,)"
        assert f"inject-drift: error: {message}" in err

    def test_requires_input(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["inject-drift", "--positions", "10", "--out", str(tmp_path / "x")])

    def test_has_no_widths_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["inject-drift", "--input", "s.csv", "--positions", "10", "--widths", "4", "--out", "x"]
            )


class TestTrackAttributions:
    def test_summary_and_trace(self, tmp_path, capsys):
        out = tmp_path / "trk"
        code, printed, _ = _run(
            ["track-attributions", "--kind", "sea", "--length", "900",
             "--sample-size", "6", "--sample-prefix", "300", "--seed", "4",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "tracked 6 observations" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sample_size"] == 6
        assert 0.0 <= summary["reduction_pct"] <= 100.0
        assert summary["mean_abs_deviation"] >= 0.0
        trace_rows = (out / "attributions.csv").read_text().splitlines()
        assert trace_rows[0] == "t,observation,feature,phi,reason"
        assert len(trace_rows) > 1

    def test_zero_sample_size_not_applicable(self, tmp_path, capsys):
        out = tmp_path / "trk"
        code, printed, _ = _run(
            ["track-attributions", "--kind", "sea", "--length", "400",
             "--sample-size", "0", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "not-applicable" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reduction_pct"] == "not-applicable"
        assert summary["mean_abs_deviation"] == "not-applicable"
        assert (out / "attributions.csv").read_text().splitlines() == [
            "t,observation,feature,phi,reason"
        ]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["track-attributions", "--kind", "sea", "--length", "700",
                "--sample-size", "5", "--sample-prefix", "200", "--seed", "8"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(args + ["--out", str(a)], capsys)[0] == 0
        assert _run(args + ["--out", str(b)], capsys)[0] == 0
        for name in ("attributions.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_policy_always_is_not_a_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["track-attributions", "--kind", "sea", "--length", "400",
                  "--policy", "always", "--out", str(tmp_path / "trk")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'always'" in err
        assert not (tmp_path / "trk").exists()


class TestBench:
    def _generated(self, tmp_path, capsys, seed=5):
        gen = tmp_path / f"gen{seed}"
        assert _run(
            ["generate", "--kind", "sea", "--length", "3000", "--positions", "1500",
             "--seed", str(seed), "--out", str(gen)],
            capsys,
        )[0] == 0
        return gen / "stream.csv"

    def test_has_no_seed_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--stream", "s.csv", "--seed", "1", "--out", "x"])

    def test_report_rows_per_stream_and_detector(self, tmp_path, capsys):
        stream_csv = self._generated(tmp_path, capsys)
        out = tmp_path / "bench"
        code, _, _ = _run(
            ["bench", "--stream", str(stream_csv), "--warmup", "200", "--out", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [row["detector"] for row in report] == ["cdleeds", "ddm"]
        assert all(row["stream"] == str(stream_csv) for row in report)
        assert all("mean_update_seconds" not in row for row in report)
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == (
            "stream,detector,recall_mean,recall_std,fdr_mean,fdr_std,"
            "combined_mean,combined_std,delays"
        )
        assert len(lines) == 3
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {f"{stream_csv}/cdleeds", f"{stream_csv}/ddm"}

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        stream_csv = self._generated(tmp_path, capsys, seed=6)
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["bench", "--stream", str(stream_csv), "--warmup", "200"]
        assert _run(args + ["--out", str(a)], capsys)[0] == 0
        assert _run(args + ["--out", str(b)], capsys)[0] == 0
        for name in ("report.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_sidecar_fails(self, tmp_path, capsys):
        loose = _write_constant_csv(tmp_path / "loose.csv", length=100)
        code, _, err = _run(
            ["bench", "--stream", str(loose), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "bench" in err and "sidecar" in err

    @pytest.mark.parametrize(
        "sidecar",
        [
            {"kind": "sea"},
            [1500],
            {"positions": 1500},
            {"positions": [600.5]},
            {"positions": [True]},
            {"positions": ["1500"]},
            {"positions": [0]},
            {"positions": [3000]},
            {"positions": [1500, 1500]},
            {"positions": [2000, 1500]},
            '{"positions": [150',
        ],
        ids=["no-positions", "list", "not-a-list", "float", "bool", "string", "zero",
             "at-length", "repeated", "decreasing", "not-json"],
    )
    def test_bad_sidecar_fails_at_load(self, tmp_path, capsys, sidecar):
        stream_csv = self._generated(tmp_path, capsys)
        sidecar_path = stream_csv.with_suffix(".drifts.json")
        # a string is written as is: the sidecar's raw text
        sidecar_path.write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar))
        out = tmp_path / "x"
        code, _, err = _run(["bench", "--stream", str(stream_csv), "--out", str(out)], capsys)
        assert code == 2
        if isinstance(sidecar, str):
            assert f"drift sidecar {sidecar_path}: not valid JSON (Expecting ',' delimiter" in err
        else:
            assert f"drift sidecar {sidecar_path}: 'positions' must be strictly increasing integers in [1, 3000)" in err
        assert not out.exists()

    def test_sidecar_positions_reach_the_scores(self, tmp_path, capsys):
        stream_csv = self._generated(tmp_path, capsys)
        stream_csv.with_suffix(".drifts.json").write_text(json.dumps({"positions": [1, 2999]}))
        out = tmp_path / "bench"
        code, _, _ = _run(
            ["bench", "--stream", str(stream_csv), "--detectors", "ddm", "--warmup", "0",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        [row] = json.loads((out / "report.json").read_text())
        assert len(json.loads(row["delays"])) == 2

    def test_empty_detector_list_fails(self, tmp_path, capsys):
        stream_csv = self._generated(tmp_path, capsys, seed=7)
        code, _, err = _run(
            ["bench", "--stream", str(stream_csv), "--detectors", ",",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "at least one detector" in err

    def test_unknown_detector_fails(self, tmp_path, capsys):
        stream_csv = self._generated(tmp_path, capsys, seed=8)
        code, _, err = _run(
            ["bench", "--stream", str(stream_csv), "--detectors", "adwin",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "unknown detector" in err
