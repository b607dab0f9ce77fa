"""Flat key=value run configuration with defaults and validation.

A config file holds one ``key = value`` pair per line; values are
parsed as JSON where possible (numbers, lists, booleans, null) and
kept as bare strings otherwise. Blank lines and ``#`` comments are
ignored. Command-line flags override file values, which override the
built-in defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

MODEL_KINDS = ("logreg", "gnb")


def _require(condition: bool, field: str, message: str):
    if not condition:
        raise ValueError(f"config field {field!r}: {message}")


@dataclass(frozen=True)
class DetectorConfig:
    """The monitored model and the change detector's settings, checked once.

    ``model`` and ``learning_rate`` pick the online classifier, ``beta``
    the baseline's smoothing rate, and the rest configure the cluster
    tree (see ``AdaptiveClusterTree``). Every bad value raises a
    ``ValueError`` naming its field.
    """

    model: str = "logreg"
    learning_rate: float = 0.1
    gamma: float = 0.95
    alpha: float = 0.01
    beta: float = 0.001
    window: int = 200
    max_age: int = 100
    max_depth: int | None = 5

    def __post_init__(self):
        model = self.model
        _require(model in MODEL_KINDS, "model", f"must be 'logreg' or 'gnb', got {model!r}")
        lr = self.learning_rate
        _require(isinstance(lr, (int, float)) and lr >= 0.0, "learning_rate", f"must be >= 0, got {lr!r}")
        gamma = self.gamma
        _require(isinstance(gamma, (int, float)) and 0.0 < gamma < 1.0, "gamma", f"must lie in (0, 1), got {gamma!r}")
        alpha = self.alpha
        _require(isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0, "alpha", f"must lie in (0, 1), got {alpha!r}")
        beta = self.beta
        _require(isinstance(beta, (int, float)) and 0.0 <= beta <= 1.0, "beta", f"must lie in [0, 1], got {beta!r}")
        window = self.window
        _require(
            isinstance(window, int) and not isinstance(window, bool) and window >= 4 and window % 2 == 0,
            "window",
            f"must be an even integer >= 4, got {window!r}",
        )
        max_age = self.max_age
        _require(isinstance(max_age, int) and max_age >= 1, "max_age", f"must be an integer >= 1, got {max_age!r}")
        max_depth = self.max_depth
        _require(
            max_depth is None or (isinstance(max_depth, int) and max_depth >= 0),
            "max_depth",
            f"must be a nonnegative integer or null, got {max_depth!r}",
        )


def detector_settings(cfg: dict) -> dict:
    """The ``DetectorConfig`` fields of a merged run configuration."""
    return {f.name: cfg.get(f.name) for f in fields(DetectorConfig)}


DEFAULTS = {
    **asdict(DetectorConfig()),
    "seed": 0,
    "warmup": 1000,
    "interval_fractions": [0.01, 0.025, 0.05, 0.075, 0.1],
    "label_column": None,
}


def parse_value(raw: str):
    """Interpret a config value: JSON when it parses, bare string otherwise."""
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def load_config(path: str | Path) -> dict:
    """Read a flat key=value file into a dict of parsed values."""
    result = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        result[key] = parse_value(raw)
    return result


def merge_config(file_values: dict | None = None, overrides: dict | None = None) -> dict:
    """Layer defaults, then file values, then non-None flag overrides."""
    merged = dict(DEFAULTS)
    for source in (file_values, overrides):
        if not source:
            continue
        for key, value in source.items():
            if value is not None:
                merged[key] = value
    return merged


def validate_config(cfg: dict) -> dict:
    """Check the detector and run invariants, naming the offending field."""
    DetectorConfig(**detector_settings(cfg))
    seed = cfg.get("seed")
    _require(isinstance(seed, int) and not isinstance(seed, bool), "seed", f"must be an integer, got {seed!r}")
    warmup = cfg.get("warmup")
    _require(isinstance(warmup, int) and warmup >= 0, "warmup", f"must be an integer >= 0, got {warmup!r}")
    fractions = cfg.get("interval_fractions")
    _require(
        isinstance(fractions, (list, tuple))
        and len(fractions) > 0
        and all(isinstance(f, (int, float)) and 0.0 < f <= 1.0 for f in fractions),
        "interval_fractions",
        f"must be a non-empty list of fractions in (0, 1], got {fractions!r}",
    )
    label_column = cfg.get("label_column")
    _require(
        label_column is None or isinstance(label_column, str),
        "label_column",
        f"must be a column name or null, got {label_column!r}",
    )
    return cfg
