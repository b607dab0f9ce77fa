"""Command-line entry point for reproducible stream runs.

Subcommands generate synthetic streams, inject drift into CSV data,
run the change detector, track attributions, and benchmark detectors.
Every output that feeds comparison or scoring is deterministic under a
fixed seed and config; wall-clock measurements go to a separate
timings.json so reruns stay byte-identical everywhere else.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from .config import DEFAULTS, DetectorConfig, detector_settings, load_config, merge_config, validate_config
from .evaluation import run_benchmark
from .generators import GENERATORS, DriftSchedule, make_generator
from .injection import MI_BINS, permute_inject
from .pipeline import TRACKING_POLICIES, cdleeds_runner, ddm_runner, run_detection, run_tracking
from .stream import StreamSource, buffer_stream, drift_steps, read_csv

DETECTOR_RUNNERS = {"cdleeds": cdleeds_runner, "ddm": ddm_runner}


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_timings(out: Path, result) -> None:
    """Wall-clock figures of a run, kept apart from its deterministic outputs."""
    _write_json(
        out / "timings.json",
        {"mean_update_seconds": result.mean_update_seconds, "total_seconds": result.total_seconds},
    )


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".drifts.json")


def _write_stream_files(out: Path, name: str, stream: StreamSource, meta: dict) -> None:
    csv_path = out / f"{name}.csv"
    features, labels = stream.arrays()
    rows = ([*x, y] for x, y in zip(features.tolist(), labels.tolist()))
    _write_csv(csv_path, [*stream.feature_names, "label"], rows)
    sidecar = _sidecar_path(csv_path)
    _write_json(sidecar, meta)
    print(f"wrote {csv_path} and {sidecar}")


# ----------------------------------------------------------------------
# stream construction
# ----------------------------------------------------------------------


def _default_concepts(kind: str, n_drifts: int) -> tuple[int, ...]:
    n_available = len(GENERATORS[kind].concept_table)
    return tuple(i % n_available for i in range(n_drifts + 1))


def _build_generator(args, seed: int) -> StreamSource:
    schedule = DriftSchedule(tuple(args.positions), tuple(args.widths or ()))
    concepts = tuple(args.concepts) if args.concepts else _default_concepts(args.kind, len(schedule.positions))
    return make_generator(
        args.kind,
        length=args.length,
        concepts=concepts,
        schedule=schedule,
        perturbation=args.perturbation,
        seed=seed,
    )


def _label_column(cfg) -> str:
    return cfg["label_column"] if cfg["label_column"] is not None else "label"


def _read_stream(path, cfg, require_sidecar: bool = False) -> StreamSource:
    """A CSV stream carrying the drift positions of its sidecar, if any."""
    csv_path = Path(path)
    sidecar = _sidecar_path(csv_path)
    if require_sidecar and not sidecar.exists():
        raise ValueError(f"stream {path} has no ground-truth sidecar {sidecar}")
    stream = read_csv(csv_path, label_column=_label_column(cfg))
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except json.JSONDecodeError as err:
            raise ValueError(f"drift sidecar {sidecar}: not valid JSON ({err})") from None
        positions = meta.get("positions") if isinstance(meta, dict) else None
        try:  # anything but a JSON list fails as a step that is no integer
            stream.drift_positions = drift_steps(positions if isinstance(positions, list) else (None,), stream.length)
        except ValueError:
            raise ValueError(
                f"drift sidecar {sidecar}: 'positions' must be strictly increasing integers in [1, {stream.length})"
            ) from None
    return stream


def _load_stream(args, cfg) -> StreamSource:
    if args.input and args.kind:
        raise ValueError("pass either --input or --kind, not both")
    if args.input:
        return _read_stream(args.input, cfg)
    if args.kind:
        return buffer_stream(_build_generator(args, cfg["seed"]))
    raise ValueError(f"need a stream: pass --input CSV or --kind {'|'.join(GENERATORS)}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _merged_config(args)
    out = _out_dir(args)
    source = _build_generator(args, cfg["seed"])
    meta = {
        "kind": args.kind,
        "length": args.length,
        "seed": cfg["seed"],
        "perturbation": args.perturbation,
        "concepts": list(source.concepts),
        "positions": list(source.schedule.positions),
        "widths": list(source.schedule.widths),
    }
    _write_stream_files(out, "stream", source, meta)
    return 0


def cmd_inject_drift(args) -> int:
    cfg = _merged_config(args)
    stream = read_csv(args.input, label_column=_label_column(cfg))
    injected = permute_inject(
        stream,
        args.positions,
        top_fraction=args.top_fraction,
        bins=args.bins,
        seed=cfg["seed"],
    )
    out = _out_dir(args)
    meta = {
        "source": str(args.input),
        "seed": cfg["seed"],
        "top_fraction": args.top_fraction,
        "bins": args.bins,
        "positions": list(injected.drift_positions),
    }
    _write_stream_files(out, "injected", injected, meta)
    return 0


def cmd_detect(args) -> int:
    cfg = _merged_config(args)
    stream = _load_stream(args, cfg)
    result = run_detection(stream, **detector_settings(cfg))
    out = _out_dir(args)
    _write_jsonl(out / "alerts.jsonl", (alert.to_dict() for alert in result.alerts))
    _write_jsonl(out / "tree.jsonl", ({"t": t, "node_count": n} for t, n in result.node_counts))
    _write_json(
        out / "summary.json",
        {
            "steps": result.steps,
            "accuracy": result.accuracy,
            "n_alerts": len(result.alerts),
            "n_global_alerts": len(result.global_alert_steps),
            "global_alert_steps": result.global_alert_steps,
        },
    )
    _write_timings(out, result)
    print(
        f"{result.steps} steps, accuracy {result.accuracy:.4f}, "
        f"{len(result.alerts)} alerts ({len(result.global_alert_steps)} global)"
    )
    return 0


def cmd_track_attributions(args) -> int:
    cfg = _merged_config(args)
    stream = _load_stream(args, cfg)
    settings = detector_settings(cfg)
    settings.pop("model")  # a config file shared with detect may name another model
    result = run_tracking(
        stream,
        sample_size=args.sample_size,
        sample_prefix=args.sample_prefix,
        policy=args.policy,
        oracle=not args.no_oracle,
        seed=cfg["seed"],
        **settings,
    )
    out = _out_dir(args)
    _write_csv(
        out / "attributions.csv",
        ["t", "observation", "feature", "phi", "reason"],
        result.trace,
    )

    def cell(value):
        return "not-applicable" if value is None else value

    _write_json(
        out / "summary.json",
        {
            "sample_size": result.sample_size,
            "steps": result.steps,
            "policy": args.policy,
            "reduction_pct": cell(result.reduction_pct),
            "mean_abs_deviation": cell(result.mean_abs_deviation),
            "oracle_range": cell(result.oracle_range),
            "deviation_pct_of_range": cell(result.deviation_pct_of_range),
        },
    )
    _write_timings(out, result)
    if result.reduction_pct is None:
        print("tracked 0 observations: summary reported as not-applicable")
    else:
        deviation = (
            f"{result.mean_abs_deviation:.6f}" if result.mean_abs_deviation is not None else "off"
        )
        print(
            f"tracked {result.sample_size} observations: "
            f"reduction {result.reduction_pct:.2f}%, deviation {deviation}"
        )
    return 0


def _build_detectors(names: str, cfg) -> dict:
    detectors = {}
    for name in names.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in DETECTOR_RUNNERS:
            raise ValueError(f"unknown detector {name!r}; expected one of {tuple(DETECTOR_RUNNERS)}")
        detectors[name] = DETECTOR_RUNNERS[name](**detector_settings(cfg))
    if not detectors:
        raise ValueError("need at least one detector")
    return detectors


def cmd_bench(args) -> int:
    cfg = _merged_config(args)
    streams = {str(path): _read_stream(path, cfg, require_sidecar=True) for path in args.stream}
    detectors = _build_detectors(args.detectors, cfg)
    report = run_benchmark(
        streams,
        detectors,
        intervals=tuple(cfg["interval_fractions"]),
        warmup=cfg["warmup"],
    )
    out = _out_dir(args)
    timings = {}
    for d in report:
        timings[f"{d['stream']}/{d['detector']}"] = d.pop("mean_update_seconds")
        d["delays"] = json.dumps(d["delays"])
    header = list(report[0].keys())
    _write_csv(out / "report.csv", header, ([d[k] for k in header] for d in report))
    _write_json(out / "report.json", report)
    _write_json(out / "timings.json", timings)
    for d in report:
        print(
            f"{d['stream']} {d['detector']}: combined {d['combined_mean']:.3f}, "
            f"recall {d['recall_mean']:.3f}, fdr {d['fdr_mean']:.3f}"
        )
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _merged_config(args) -> dict:
    file_values = load_config(args.config) if args.config else None
    overrides = {key: getattr(args, key, None) for key in DEFAULTS}
    return validate_config(merge_config(file_values, overrides))


def _add_common_flags(parser, with_seed: bool = True):
    parser.add_argument("--config", help="flat key=value config file")
    if with_seed:  # bench draws nothing at random
        parser.add_argument("--seed", type=int, help=f"run seed (default {DEFAULTS['seed']})")
    parser.add_argument("--out", required=True, help="output directory")


def _add_detector_flags(parser, with_model: bool = True):
    for f in fields(DetectorConfig):
        if f.name != "model" or with_model:  # tracking is defined for the linear model only
            parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, **f.metadata)


def _add_generator_flags(parser, kind_required: bool):
    kind_help = "generator family" if kind_required else "generate the stream in-process"
    parser.add_argument("--kind", required=kind_required, choices=tuple(GENERATORS), help=kind_help)
    parser.add_argument("--length", type=int, default=10000, help="stream length")
    parser.add_argument("--concepts", type=int, nargs="+", help="concept index sequence (one more than drifts)")
    parser.add_argument("--positions", type=int, nargs="*", default=(), help="drift positions")
    parser.add_argument("--widths", type=int, nargs="*", help="transition widths (0 = abrupt)")
    parser.add_argument("--perturbation", type=float, default=0.1, help="generator noise level")


def _add_input_flags(parser, input_required: bool = False):
    parser.add_argument("--input", required=input_required, help="labeled CSV stream")
    parser.add_argument("--label-column", dest="label_column", help="label column name (default 'label')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftscope",
        description="Streaming change detection with locality-aware explanation tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled stream and its drift sidecar")
    _add_generator_flags(p, kind_required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("inject-drift", help="permute top informative features of a CSV after given positions")
    _add_input_flags(p, input_required=True)
    p.add_argument("--positions", type=int, nargs="+", required=True, help="abrupt injection positions")
    p.add_argument("--top-fraction", dest="top_fraction", type=float, default=0.5, help="fraction of features to permute")
    p.add_argument("--bins", type=int, default=MI_BINS, help="histogram bins for the information ranking")
    _add_common_flags(p)
    p.set_defaults(func=cmd_inject_drift)

    p = sub.add_parser("detect", help="run the change detector over a stream")
    _add_input_flags(p)
    _add_generator_flags(p, kind_required=False)
    _add_detector_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("track-attributions", help="maintain attributions for sampled observations")
    _add_input_flags(p)
    _add_generator_flags(p, kind_required=False)
    _add_detector_flags(p, with_model=False)
    p.add_argument("--sample-size", dest="sample_size", type=int, default=100, help="observations to track")
    p.add_argument("--sample-prefix", dest="sample_prefix", type=int, default=1000, help="prefix to sample from")
    p.add_argument("--policy", choices=TRACKING_POLICIES, default="cdleeds", help="recompute policy")
    p.add_argument("--no-oracle", action="store_true", help="skip the always-recompute shadow")
    _add_common_flags(p)
    p.set_defaults(func=cmd_track_attributions)

    p = sub.add_parser("bench", help="score detectors against ground-truth drift positions")
    p.add_argument("--stream", nargs="+", required=True, help="stream CSVs (each needs a .drifts.json sidecar)")
    p.add_argument("--detectors", default="cdleeds,ddm", help="comma-separated detector list")
    p.add_argument("--label-column", dest="label_column", help="label column name (default 'label')")
    p.add_argument(
        "--interval-fractions",
        dest="interval_fractions",
        type=float,
        nargs="+",
        help="detection interval sizes as stream fractions",
    )
    p.add_argument("--warmup", type=int, help="initial steps excluded from scoring")
    _add_detector_flags(p)
    _add_common_flags(p, with_seed=False)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface the failing stage, keep the exit code nonzero
        print(f"driftscope {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
