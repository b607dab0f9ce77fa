"""Flat key=value run configuration with defaults and validation.

A config file holds one ``key = value`` pair per line; values are
parsed as JSON where possible (numbers, lists, booleans, null) and
kept as bare strings otherwise. Blank lines and ``#`` comments are
ignored. Command-line flags override file values, which override the
built-in defaults. A file's ``null`` is kept as ``None`` (``max_depth =
null`` removes the depth cap); an unset flag overrides nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .evaluation import DEFAULT_INTERVALS, DEFAULT_WARMUP

MODEL_KINDS = ("logreg", "gnb")


def _require(condition: bool, field: str, message: str):
    if not condition:
        raise ValueError(f"config field {field!r}: {message}")


def _is_number(value, kind=(int, float)) -> bool:
    """``isinstance(value, kind)``, except that a JSON ``true``/``false`` is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class DetectorConfig:
    """The monitored model and the change detector's settings, checked once.

    ``model`` and ``learning_rate`` pick the online classifier, ``beta``
    the baseline's smoothing rate, and the rest configure the cluster
    tree (``AdaptiveClusterTree``):

    - ``gamma``: RBF similarity threshold in (0, 1); a leaf splits when
      any window observation falls below it relative to the centroid.
    - ``alpha``: significance level of the per-leaf two-sample test and
      base level of the global Fisher test.
    - ``window``: window capacity w per node; even and >= 4 so the test
      halves are balanced.
    - ``max_age``: a branch whose least-recently-updated child lags the
      parent by at least this many updates is pruned. The lag counts the
      parent's own updates, so a child with a small share of the traffic
      lags 100 routinely; the default 1000 keeps such a child, at the
      cost that an obsolete branch takes up to 1000 parent updates to
      be pruned.
    - ``max_depth``: depth cap; leaves at the cap absorb dissimilar
      points instead of splitting. ``None`` removes the cap, 0 forces a
      single leaf.

    Every bad value raises a ``ValueError`` naming its field. Each field's
    metadata is its command-line flag (argparse ``type`` or ``choices``, and ``help``).
    """

    model: str = field(default="logreg", metadata={"choices": MODEL_KINDS, "help": "online model kind"})
    learning_rate: float = field(default=0.1, metadata={"type": float, "help": "model learning rate"})
    gamma: float = field(default=0.95, metadata={"type": float, "help": "cluster similarity threshold"})
    alpha: float = field(default=0.01, metadata={"type": float, "help": "test significance level"})
    beta: float = field(default=0.001, metadata={"type": float, "help": "baseline smoothing rate"})
    window: int = field(default=200, metadata={"type": int, "help": "node window length (even)"})
    max_age: int = field(default=1000, metadata={"type": int, "help": "obsolescence age for pruning"})
    max_depth: int | None = field(default=5, metadata={"type": int, "help": "tree depth cap"})

    def __post_init__(self):
        model = self.model
        _require(model in MODEL_KINDS, "model", f"must be {' or '.join(map(repr, MODEL_KINDS))}, got {model!r}")
        lr = self.learning_rate
        _require(
            _is_number(lr) and math.isfinite(lr) and lr >= 0.0, "learning_rate", f"must be finite and >= 0, got {lr!r}"
        )
        gamma = self.gamma
        _require(_is_number(gamma) and 0.0 < gamma < 1.0, "gamma", f"must lie in (0, 1), got {gamma!r}")
        alpha = self.alpha
        _require(_is_number(alpha) and 0.0 < alpha < 1.0, "alpha", f"must lie in (0, 1), got {alpha!r}")
        beta = self.beta
        _require(_is_number(beta) and 0.0 <= beta <= 1.0, "beta", f"must lie in [0, 1], got {beta!r}")
        window = self.window
        _require(
            _is_number(window, int) and window >= 4 and window % 2 == 0,
            "window",
            f"must be an even integer >= 4, got {window!r}",
        )
        max_age = self.max_age
        _require(_is_number(max_age, int) and max_age >= 1, "max_age", f"must be an integer >= 1, got {max_age!r}")
        max_depth = self.max_depth
        _require(
            max_depth is None or (_is_number(max_depth, int) and max_depth >= 0),
            "max_depth",
            f"must be a nonnegative integer or null, got {max_depth!r}",
        )


def detector_settings(cfg: dict) -> dict:
    """The ``DetectorConfig`` fields of a merged run configuration."""
    return {f.name: cfg.get(f.name) for f in fields(DetectorConfig)}


DEFAULTS = {
    **asdict(DetectorConfig()),
    "seed": 0,
    "warmup": DEFAULT_WARMUP,
    "interval_fractions": list(DEFAULT_INTERVALS),
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
    """Read a flat key=value file of ``DEFAULTS`` keys into a dict of parsed values."""
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
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; expected one of {sorted(DEFAULTS)}")
        if key in result:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} (first on line {result[key][0]})")
        result[key] = (lineno, parse_value(raw))
    return {key: value for key, (_, value) in result.items()}


def merge_config(file_values: dict | None = None, overrides: dict | None = None) -> dict:
    """Layer defaults, then file values as given (``null`` too), then the flags that are not None."""
    merged = {**DEFAULTS, **(file_values or {})}
    merged.update({key: value for key, value in (overrides or {}).items() if value is not None})
    return merged


def validate_config(cfg: dict) -> dict:
    """Check the detector and run invariants, naming the offending field."""
    DetectorConfig(**detector_settings(cfg))
    seed = cfg.get("seed")
    _require(_is_number(seed, int) and seed >= 0, "seed", f"must be an integer >= 0, got {seed!r}")
    warmup = cfg.get("warmup")
    _require(_is_number(warmup, int) and warmup >= 0, "warmup", f"must be an integer >= 0, got {warmup!r}")
    fractions = cfg.get("interval_fractions")
    _require(
        isinstance(fractions, (list, tuple))
        and len(fractions) > 0
        and all(_is_number(f) and 0.0 < f <= 1.0 for f in fractions),
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
