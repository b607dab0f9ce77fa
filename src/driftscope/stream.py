"""Stream sources and feature scaling.

A stream source yields labeled observations one at a time in arrival
order and declares its shape up front (feature count, class count,
ground-truth drift positions when known). CSV files are buffered in
memory at desk scale; synthetic generators declare their feature ranges
so they can be scaled without a preliminary data pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Observation:
    """A single feature vector with its arrival step."""

    t: int
    x: np.ndarray


@dataclass(frozen=True)
class LabeledObservation:
    obs: Observation
    y: int

    @property
    def t(self) -> int:
        return self.obs.t

    @property
    def x(self) -> np.ndarray:
        return self.obs.x


class CsvParseError(ValueError):
    """Raised when a CSV file cannot be interpreted as a labeled stream."""


class StreamSource:
    """Base class for labeled streams.

    Subclasses set ``n_features``, ``n_classes``, ``length`` and
    ``drift_positions`` and implement ``__iter__``. Iteration must be
    repeatable: two passes over the same source yield identical data.
    """

    n_features: int
    n_classes: int
    length: int
    drift_positions: tuple[int, ...] = ()

    def __iter__(self) -> Iterator[LabeledObservation]:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.length


@dataclass
class BufferedStream(StreamSource):
    """A fully materialized stream backed by numpy arrays."""

    features: np.ndarray
    labels: np.ndarray
    drift_positions: tuple[int, ...] = ()
    feature_names: tuple[str, ...] = ()
    feature_ranges: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        self.length = int(self.features.shape[0])
        self.n_features = int(self.features.shape[1])
        self.n_classes = int(self.labels.max()) + 1 if self.length else 0
        if not self.feature_names:
            self.feature_names = tuple(f"f{i}" for i in range(self.n_features))

    def __iter__(self) -> Iterator[LabeledObservation]:
        for t in range(self.length):
            yield LabeledObservation(Observation(t, self.features[t]), int(self.labels[t]))


def buffer_stream(source: StreamSource) -> BufferedStream:
    """Materialize any stream source into arrays."""
    if isinstance(source, BufferedStream):
        return source
    rows = np.empty((source.length, source.n_features), dtype=float)
    labels = np.empty(source.length, dtype=np.int64)
    n = 0
    for item in source:
        rows[n] = item.x
        labels[n] = item.y
        n += 1
    if n != source.length:
        raise ValueError(f"stream declared {source.length} observations but yielded {n}")
    return BufferedStream(
        features=rows,
        labels=labels,
        drift_positions=tuple(source.drift_positions),
        feature_names=tuple(getattr(source, "feature_names", ()) or ()),
        feature_ranges=tuple(getattr(source, "feature_ranges", ()) or ()),
    )


def read_csv(
    path: str | Path,
    label_column: str | int,
    has_header: bool = True,
    drift_positions: Sequence[int] = (),
) -> BufferedStream:
    """Load a labeled CSV file into a buffered stream.

    Numeric columns are parsed as floats. A column whose first value is
    non-numeric is treated as categorical and encoded by order of first
    appearance; the label column is always encoded that way, so labels
    come out as 0..C-1. Ragged rows, missing fields, non-numeric values
    in a previously numeric column, and non-finite numbers (nan, inf)
    are rejected with the row and column named.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise CsvParseError(f"{path}: file contains no data rows")

    if has_header:
        header = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
        start_line = 2
    else:
        header = [str(i) for i in range(len(rows[0]))]
        data_rows = rows
        start_line = 1
    if not data_rows:
        raise CsvParseError(f"{path}: file contains a header but no data rows")

    n_cols = len(header)
    if isinstance(label_column, int):
        label_idx = label_column
        if not 0 <= label_idx < n_cols:
            raise CsvParseError(f"{path}: label column index {label_idx} out of range for {n_cols} columns")
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise CsvParseError(f"{path}: label column {label_column!r} not found in header {header}") from None

    feature_idx = [i for i in range(n_cols) if i != label_idx]
    is_numeric = [True] * n_cols
    categories: list[dict[str, int]] = [{} for _ in range(n_cols)]

    # Column kind is fixed by its first value: numeric stays numeric.
    first = data_rows[0]
    if len(first) != n_cols:
        raise CsvParseError(f"{path}: row {start_line} has {len(first)} fields, expected {n_cols}")
    for j, value in enumerate(first):
        try:
            float(value)
        except ValueError:
            is_numeric[j] = False
    is_numeric[label_idx] = False  # labels always go through first-appearance encoding

    features = np.empty((len(data_rows), len(feature_idx)), dtype=float)
    labels = np.empty(len(data_rows), dtype=np.int64)
    for r, row in enumerate(data_rows):
        line = start_line + r
        if len(row) != n_cols:
            raise CsvParseError(f"{path}: row {line} has {len(row)} fields, expected {n_cols}")
        for k, j in enumerate(feature_idx):
            value = row[j].strip()
            if not value:
                raise CsvParseError(f"{path}: row {line}, column {header[j]!r} is empty")
            if is_numeric[j]:
                try:
                    number = float(value)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: row {line}, column {header[j]!r}: non-numeric value {value!r} "
                        "in a numeric column"
                    ) from None
                if not math.isfinite(number):
                    raise CsvParseError(f"{path}: row {line}, column {header[j]!r}: non-finite value {value!r}")
                features[r, k] = number
            else:
                features[r, k] = categories[j].setdefault(value, len(categories[j]))
        value = row[label_idx].strip()
        if not value:
            raise CsvParseError(f"{path}: row {line}, column {header[label_idx]!r} is empty")
        labels[r] = categories[label_idx].setdefault(value, len(categories[label_idx]))

    names = tuple(header[j] for j in feature_idx)
    return BufferedStream(
        features=features,
        labels=labels,
        drift_positions=tuple(drift_positions),
        feature_names=names,
    )


@dataclass
class Normalizer:
    """Per-feature min-max scaler mapping values into [0, 1].

    Constant features map to 0. Values outside the fitted range
    extrapolate linearly, so a fixed declared range can be reused.
    """

    mins: np.ndarray
    maxs: np.ndarray
    _span: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.mins = np.asarray(self.mins, dtype=float)
        self.maxs = np.asarray(self.maxs, dtype=float)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("mins and maxs must be equal-length vectors")
        if np.any(self.maxs < self.mins):
            raise ValueError("each feature max must be >= its min")
        span = self.maxs - self.mins
        span[span == 0.0] = 1.0  # constant features map to 0
        self._span = span

    @classmethod
    def from_ranges(cls, ranges: Sequence[tuple[float, float]]) -> "Normalizer":
        lo = np.array([r[0] for r in ranges], dtype=float)
        hi = np.array([r[1] for r in ranges], dtype=float)
        return cls(lo, hi)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mins) / self._span

    def normalize(self, obs: Observation) -> Observation:
        return Observation(obs.t, self.transform(obs.x))


def fit_normalizer(source: StreamSource) -> Normalizer:
    """Fit per-feature min/max over a full pass of the stream."""
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None
    for item in source:
        if mins is None:
            mins = item.x.astype(float).copy()
            maxs = item.x.astype(float).copy()
        else:
            np.minimum(mins, item.x, out=mins)
            np.maximum(maxs, item.x, out=maxs)
    if mins is None:
        raise ValueError("cannot fit a normalizer on an empty stream")
    return Normalizer(mins, maxs)


class ScaledStream(StreamSource):
    """A stream source wrapped with a fitted or declared-range scaler."""

    def __init__(self, base: StreamSource, normalizer: Normalizer):
        self.base = base
        self.normalizer = normalizer
        self.n_features = base.n_features
        self.n_classes = base.n_classes
        self.length = base.length
        self.drift_positions = tuple(base.drift_positions)

    def __iter__(self) -> Iterator[LabeledObservation]:
        for item in self.base:
            yield LabeledObservation(self.normalizer.normalize(item.obs), item.y)


def scaled(source: StreamSource) -> StreamSource:
    """Scale a stream into [0, 1] per feature.

    Sources that declare their feature ranges (synthetic generators) are
    scaled by those fixed ranges with no data pass; anything else gets a
    min-max fit over the full stream first.
    """
    ranges = getattr(source, "feature_ranges", ())
    if ranges:
        norm = Normalizer.from_ranges(ranges)
    else:
        norm = fit_normalizer(source)
    return ScaledStream(source, norm)
