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
    """A feature vector with its arrival step and class label."""

    t: int
    x: np.ndarray
    y: int


class CsvParseError(ValueError):
    """Raised when a CSV file cannot be interpreted as a labeled stream."""


class StreamSource:
    """Base class for labeled streams.

    Subclasses set ``n_features``, ``n_classes``, ``length`` and
    ``drift_positions`` and implement ``__iter__``; they may name their
    features and declare each feature's ``(min, max)`` range. Iteration
    must be repeatable: two passes over the same source yield identical
    data.
    """

    n_features: int
    n_classes: int
    length: int
    drift_positions: tuple[int, ...] = ()
    feature_names: tuple[str, ...] = ()
    feature_ranges: tuple[tuple[float, float], ...] = ()

    def __iter__(self) -> Iterator[Observation]:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.length


@dataclass
class BufferedStream(StreamSource):
    """A fully materialized stream backed by numpy arrays; labels are class ids, integers >= 0."""

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
        bad = np.flatnonzero(self.labels < 0) if self.labels.dtype.kind in "iu" else range(len(self.labels))
        if len(bad):
            label = f"{self.labels[bad[0]].item()!r} ({self.labels.dtype})"
            raise ValueError(f"row {bad[0]}: label {label} is not a class id, an integer >= 0")
        self.length = int(self.features.shape[0])
        self.n_features = int(self.features.shape[1])
        self.n_classes = int(self.labels.max()) + 1 if self.length else 0
        for what, given in (("feature_names", self.feature_names), ("feature_ranges", self.feature_ranges)):
            if given and len(given) != self.n_features:
                raise ValueError(f"{len(given)} {what} given for {self.n_features} features")
        if not self.feature_names:
            self.feature_names = tuple(f"f{i}" for i in range(self.n_features))

    def __iter__(self) -> Iterator[Observation]:
        for t in range(self.length):
            yield Observation(t, self.features[t], int(self.labels[t]))


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
        feature_names=tuple(source.feature_names),
        feature_ranges=tuple(source.feature_ranges),
    )


def read_csv(
    path: str | Path,
    label_column: str,
    drift_positions: Sequence[int] = (),
) -> BufferedStream:
    """Load a labeled CSV file into a buffered stream.

    The first row is a header naming every column; ``label_column``
    names the one holding the class labels. Numeric columns are parsed
    as floats. A column whose first value is non-numeric is treated as
    categorical and encoded by order of first appearance; the label
    column is always encoded that way, so labels come out as 0..C-1.
    Ragged rows, missing fields, non-numeric values in a previously
    numeric column, and non-finite numbers (nan, inf) are rejected with
    the row and column named.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise CsvParseError(f"{path}: file contains no data rows")

    header = [name.strip() for name in rows[0]]
    data_rows = rows[1:]
    if not data_rows:
        raise CsvParseError(f"{path}: file contains a header but no data rows")

    n_cols = len(header)
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
        raise CsvParseError(f"{path}: row 2 has {len(first)} fields, expected {n_cols}")
    for j, value in enumerate(first):
        try:
            float(value)
        except ValueError:
            is_numeric[j] = False
    is_numeric[label_idx] = False  # labels always go through first-appearance encoding

    features = np.empty((len(data_rows), len(feature_idx)), dtype=float)
    labels = np.empty(len(data_rows), dtype=np.int64)
    for r, row in enumerate(data_rows):
        line = r + 2  # the header is line 1
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

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mins) / self._span

    def normalize(self, obs: Observation) -> Observation:
        return Observation(obs.t, self.transform(obs.x), obs.y)


def scaled(source: StreamSource) -> Iterator[Observation]:
    """Yield the stream's observations scaled into [0, 1] per feature.

    Sources that declare their feature ranges (synthetic generators) are
    scaled by those fixed ranges; anything else by the min and max of
    its buffered features, so a ``BufferedStream`` is read only once.
    """
    if source.feature_ranges:
        lo, hi = zip(*source.feature_ranges)
        norm = Normalizer(lo, hi)
    else:
        features = buffer_stream(source).features
        norm = Normalizer(features.min(axis=0), features.max(axis=0))
    for item in source:
        yield norm.normalize(item)
