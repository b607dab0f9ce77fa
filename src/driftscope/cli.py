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
from pathlib import Path

from .config import DEFAULTS, MODEL_KINDS, detector_settings, load_config, merge_config, validate_config
from .evaluation import run_benchmark
from .generators import AGRAWAL_RULES, SEA_THRESHOLDS, DriftSchedule, make_generator
from .injection import MI_BINS, permute_inject
from .pipeline import TRACKING_POLICIES, cdleeds_runner, ddm_runner, run_detection, run_tracking
from .stream import StreamSource, buffer_stream, read_csv

DETECTOR_BUILDERS = ("cdleeds", "ddm")


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
    names = stream.feature_names or tuple(f"f{i}" for i in range(stream.n_features))
    rows = ([*item.x.tolist(), int(item.y)] for item in stream)
    _write_csv(csv_path, [*names, "label"], rows)
    sidecar = _sidecar_path(csv_path)
    _write_json(sidecar, meta)
    print(f"wrote {csv_path} and {sidecar}")


# ----------------------------------------------------------------------
# stream construction
# ----------------------------------------------------------------------


def _build_schedule(positions, widths) -> DriftSchedule:
    if not positions:
        return DriftSchedule()
    return DriftSchedule(
        positions=tuple(positions),
        widths=tuple(widths) if widths else None,
    )


def _default_concepts(kind: str, n_drifts: int) -> tuple[int, ...]:
    n_available = len(SEA_THRESHOLDS) if kind == "sea" else len(AGRAWAL_RULES)
    return tuple(i % n_available for i in range(n_drifts + 1))


def _build_generator(args, seed: int) -> StreamSource:
    schedule = _build_schedule(args.positions, args.widths)
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
    positions = ()
    if sidecar.exists():
        positions = tuple(json.loads(sidecar.read_text())["positions"])
    elif require_sidecar:
        raise ValueError(f"stream {path} has no ground-truth sidecar {sidecar}")
    return read_csv(csv_path, label_column=_label_column(cfg), drift_positions=positions)


def _load_stream(args, cfg) -> StreamSource:
    if args.input and args.kind:
        raise ValueError("pass either --input or --kind, not both")
    if args.input:
        return _read_stream(args.input, cfg)
    if args.kind:
        return buffer_stream(_build_generator(args, cfg["seed"]))
    raise ValueError("need a stream: pass --input CSV or --kind sea|agrawal")


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
    _write_stream_files(out, "stream", buffer_stream(source), meta)
    return 0


def cmd_inject_drift(args) -> int:
    cfg = _merged_config(args)
    stream = read_csv(args.input, label_column=_label_column(cfg))
    schedule = _build_schedule(args.positions, args.widths)
    injected = permute_inject(
        stream,
        schedule,
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
        "widths": list(schedule.widths),
    }
    _write_stream_files(out, "injected", injected, meta)
    return 0


def cmd_detect(args) -> int:
    cfg = _merged_config(args)
    stream = _load_stream(args, cfg)
    result = run_detection(stream, **detector_settings(cfg))
    out = _out_dir(args)
    _write_jsonl(out / "alerts.jsonl", (alert.to_dict() for alert in result.alerts))
    _write_jsonl(
        out / "stats.jsonl",
        ({"t": t, "node_count": n, "leaf_count": l} for t, n, l in result.stats),
    )
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
    settings.pop("model")  # tracking is defined for the linear model only
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
        if name == "cdleeds":
            detectors[name] = cdleeds_runner(**detector_settings(cfg))
        elif name == "ddm":
            detectors[name] = ddm_runner(model=cfg["model"], learning_rate=cfg["learning_rate"])
        else:
            raise ValueError(f"unknown detector {name!r}; expected one of {DETECTOR_BUILDERS}")
    if not detectors:
        raise ValueError("need at least one detector")
    return detectors


def cmd_bench(args) -> int:
    cfg = _merged_config(args)
    streams = {str(path): _read_stream(path, cfg, require_sidecar=True) for path in args.stream}
    detectors = _build_detectors(args.detectors, cfg)
    rows = run_benchmark(
        streams,
        detectors,
        intervals=tuple(cfg["interval_fractions"]),
        warmup=cfg["warmup"],
    )
    out = _out_dir(args)
    report = []
    timings = {}
    for row in rows:
        d = row.to_dict()
        timings[f"{d['stream']}/{d['detector']}"] = d.pop("mean_update_seconds")
        d["delays"] = json.dumps(d["delays"])
        report.append(d)
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


def _add_common_flags(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help=f"run seed (default {DEFAULTS['seed']})")
    parser.add_argument("--out", required=True, help="output directory")


def _add_detector_flags(parser):
    parser.add_argument("--model", choices=MODEL_KINDS, help="online model kind")
    parser.add_argument("--learning-rate", dest="learning_rate", type=float, help="model learning rate")
    parser.add_argument("--gamma", type=float, help="cluster similarity threshold")
    parser.add_argument("--alpha", type=float, help="test significance level")
    parser.add_argument("--beta", type=float, help="baseline smoothing rate")
    parser.add_argument("--window", type=int, help="node window length (even)")
    parser.add_argument("--max-age", dest="max_age", type=int, help="obsolescence age for pruning")
    parser.add_argument("--max-depth", dest="max_depth", type=int, help="tree depth cap")


def _add_generator_flags(parser, kind_required: bool):
    if kind_required:
        parser.add_argument("--kind", required=True, choices=("sea", "agrawal"), help="generator family")
    else:
        parser.add_argument("--kind", choices=("sea", "agrawal"), help="generate the stream in-process")
    parser.add_argument("--length", type=int, default=10000, help="stream length")
    parser.add_argument("--concepts", type=int, nargs="+", help="concept index sequence (one more than drifts)")
    parser.add_argument("--positions", type=int, nargs="*", default=(), help="drift positions")
    parser.add_argument("--widths", type=int, nargs="*", help="transition widths (0 = abrupt)")
    parser.add_argument("--perturbation", type=float, default=0.1, help="generator noise level")


def _add_input_flags(parser):
    parser.add_argument("--input", help="labeled CSV stream")
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
    _add_input_flags(p)
    p.add_argument("--positions", type=int, nargs="+", required=True, help="injection positions")
    p.add_argument("--widths", type=int, nargs="*", help="transition widths (0 = abrupt)")
    p.add_argument("--top-fraction", dest="top_fraction", type=float, default=0.5, help="fraction of features to permute")
    p.add_argument("--bins", type=int, default=MI_BINS, help="histogram bins for the information ranking")
    _add_common_flags(p)
    p.set_defaults(func=cmd_inject_drift)
    p.set_defaults(input_required=True)

    p = sub.add_parser("detect", help="run the change detector over a stream")
    _add_input_flags(p)
    _add_generator_flags(p, kind_required=False)
    _add_detector_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("track-attributions", help="maintain attributions for sampled observations")
    _add_input_flags(p)
    _add_generator_flags(p, kind_required=False)
    _add_detector_flags(p)
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
    _add_common_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "input_required", False) and not args.input:
        parser.error(f"{args.command}: --input is required")
    try:
        return args.func(args)
    except Exception as exc:  # surface the failing stage, keep the exit code nonzero
        print(f"driftscope {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
