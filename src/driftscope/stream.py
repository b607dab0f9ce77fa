"""Stream sources and feature scaling.

A stream source hands over its data as whole arrays (``arrays()``: a
``length x n_features`` float matrix and int64 class labels) and
declares its shape up front (feature count, class count, ground-truth
drift positions when known, checked by ``drift_steps``); iterating it
yields one observation per row. A CSV file is read once and parsed a
column at a time. ``scaled`` scales the whole feature matrix once, by
its declared ranges or else its column min and max, then steps rows.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

# the largest magnitude ``scaled`` hands over; squared distances between such rows stay finite
SCALED_BOUND = 1e150


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
    ``drift_positions`` and implement ``arrays``; they may name their
    features and declare each feature's ``(min, max)`` range. Every call
    to ``arrays`` must give identical data, so iteration is repeatable.
    """

    n_features: int
    n_classes: int
    length: int
    drift_positions: tuple[int, ...] = ()
    feature_names: tuple[str, ...] = ()
    feature_ranges: tuple[tuple[float, float], ...] = ()

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(features, labels)``: a ``length x n_features`` float matrix and int64 class ids."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Observation]:
        features, labels = self.arrays()
        for t in range(self.length):
            yield Observation(t, features[t], int(labels[t]))

    def __len__(self) -> int:
        return self.length


def as_integer(value, what: str) -> int:
    """``value`` through ``operator.index``: an int or numpy integer passes, anything else (a bool too) is named."""
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def drift_steps(positions, length, what: str = "drift position") -> tuple[int, ...]:
    """``positions`` as integer steps, strictly increasing and each in ``[1, length)``; ``what`` names them."""
    steps = tuple(as_integer(p, what) for p in positions)
    if steps and any(a >= b for a, b in zip((0, *steps), (*steps, length))):
        raise ValueError(f"{what}s must be strictly increasing steps in [1, {length}), got {steps}")
    return steps


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
        self.drift_positions = drift_steps(self.drift_positions, self.length)
        for what, given in (("feature_names", self.feature_names), ("feature_ranges", self.feature_ranges)):
            if given and len(given) != self.n_features:
                raise ValueError(f"{len(given)} {what} given for {self.n_features} features")
        if not self.feature_names:
            self.feature_names = tuple(f"f{i}" for i in range(self.n_features))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.features, self.labels


def buffer_stream(source: StreamSource) -> BufferedStream:
    """Materialize any stream source into arrays."""
    if isinstance(source, BufferedStream):
        return source
    features, labels = source.arrays()
    return BufferedStream(
        features=features,
        labels=labels,
        drift_positions=tuple(source.drift_positions),
        feature_names=tuple(source.feature_names),
        feature_ranges=tuple(source.feature_ranges),
    )


def _parse_column(values, numeric: bool) -> tuple[list, tuple[int, str] | None]:
    """A whole column's floats (numeric) or first-appearance codes, or else its first fault as ``(row, text)``."""
    values = list(map(str.strip, values))
    try:
        if numeric:
            parsed = list(map(float, values))
            if all(map(math.isfinite, parsed)):
                return parsed, None
        elif "" not in values:
            codes = {value: code for code, value in enumerate(dict.fromkeys(values))}
            return list(map(codes.__getitem__, values)), None
    except ValueError:
        pass
    # a column that failed is walked value by value, only to name its first fault
    for r, value in enumerate(values):
        if not value:
            return [], (r, " is empty")
        if numeric:
            try:
                number = float(value)
            except ValueError:
                return [], (r, f": non-numeric value {value!r} in a numeric column")
            if not math.isfinite(number):
                return [], (r, f": non-finite value {value!r}")


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
    A header naming a column twice or no feature column is rejected.
    Ragged rows, missing fields, non-numeric values in a previously
    numeric column, and non-finite numbers (nan, inf) are rejected with
    the file's line and the column named, the first fault in reading
    order: row by row; in a row the field count, features, then label.
    The file is read once, so a pipe serves as well as a regular file,
    and decoded as UTF-8 whatever the locale, a leading byte-order mark
    dropped; a byte that does not decode is rejected with its line.
    """
    path = Path(path)
    data = path.read_bytes()
    try:  # decoded a chunk at a time, so no copy of the whole text is held beside the lines
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="").readlines()
    except UnicodeDecodeError:
        try:
            data.decode("utf-8-sig")  # a chunk's error cannot place the byte in the file; this one can
        except UnicodeDecodeError as err:
            # CR, LF and CRLF end a line, as in text mode; neither byte occurs inside a UTF-8 sequence
            read = err.object[: err.start]
            line = read.count(b"\n") + read.count(b"\r") - read.count(b"\r\n") + 1
            raise CsvParseError(f"{path}: row {line}: byte {err.object[err.start]:#04x} is not UTF-8 text") from None
    reader = csv.reader(lines)
    header = [name.strip() for name in next(filter(None, reader), ())]
    header_line = reader.line_num
    rows = [row for row in reader if row]
    if not header:
        raise CsvParseError(f"{path}: file contains no data rows")
    if not rows:
        raise CsvParseError(f"{path}: file contains a header but no data rows")

    n_cols = len(header)
    if label_column not in header:
        raise CsvParseError(f"{path}: label column {label_column!r} not found in header {header}")
    twice = [name for k, name in enumerate(header) if name in header[:k]]
    if twice or n_cols == 1:
        what = f"column {twice[0]!r} twice" if twice else f"no column besides the label {label_column!r}"
        raise CsvParseError(f"{path}: row {header_line}: header names {what}")
    label_idx = header.index(label_column)
    feature_idx = [i for i in range(n_cols) if i != label_idx]

    # Rows before the first ragged one are parsed a column at a time.
    whole = next((r for r, row in enumerate(rows) if len(row) != n_cols), len(rows))
    faults = [(whole, 0, f" has {len(rows[whole])} fields, expected {n_cols}")] if whole < len(rows) else []
    columns = list(zip(*rows[:whole]))
    features = np.empty((whole, len(feature_idx)), dtype=float)
    for k, j in enumerate([*feature_idx, label_idx] if whole else ()):
        # Column kind is fixed by its first value: numeric stays numeric. Labels are always encoded.
        try:
            float(rows[0][j])
            numeric = j != label_idx
        except ValueError:
            numeric = False
        values, fault = _parse_column(columns[j], numeric)
        if fault:
            faults.append((fault[0], k, f", column {header[j]!r}{fault[1]}"))
        elif j == label_idx:
            labels = np.array(values, dtype=np.int64)
        else:
            features[:, k] = values
    if faults:
        r, _, message = min(faults)
        reader = csv.reader(lines)  # a row is named by the line it ends on; blank lines count
        line = [reader.line_num for row in reader if row][r + 1]
        raise CsvParseError(f"{path}: row {line}{message}")
    return BufferedStream(
        features=features,
        labels=labels,
        drift_positions=tuple(drift_positions),
        feature_names=tuple(header[j] for j in feature_idx),
    )


@dataclass
class Normalizer:
    """Per-feature min-max scaler mapping values into [0, 1].

    Constant features map to 0. Values outside the fitted range
    extrapolate linearly, so a fixed declared range can be reused. A
    range whose bounds or span (max - min) are not finite is rejected.
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
        with np.errstate(over="ignore", invalid="ignore"):
            span = self.maxs - self.mins
        bad = np.flatnonzero(~np.isfinite(span))
        if len(bad):
            i = bad[0]
            raise ValueError(f"feature {i}: range [{self.mins[i].item()!r}, {self.maxs[i].item()!r}] has no finite span")
        span[span == 0.0] = 1.0  # constant features map to 0
        self._span = span

    def normalize(self, features: np.ndarray) -> np.ndarray:
        """The ``n x m`` matrix ``features``, every column scaled in one step."""
        return (np.asarray(features, dtype=float) - self.mins) / self._span


def scaled(source: StreamSource) -> Iterator[Observation]:
    """Yield the stream's observations scaled into [0, 1] per feature.

    One ``arrays()`` call buffers the source. Its feature matrix is scaled
    once, by its declared ranges or else each column's min and max, and
    each step of the buffered stream is handed over with its scaled row.
    The scaled matrix is checked once, before the first step: the first row
    with a cell that does not scale to a finite number (a NaN, an overflow)
    or scales past ``SCALED_BOUND`` (1e150) in magnitude is handed over, not
    yielded, and raises ``ValueError`` naming the cell. Within the bound a
    squared distance over m features, at most m * (2e150)**2, stays finite
    for any m below 4e7.
    """
    if not source.length:
        return
    buffered = buffer_stream(source)
    ranges = buffered.feature_ranges or zip(buffered.features.min(axis=0), buffered.features.max(axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = Normalizer(*zip(*ranges)).normalize(buffered.features)
    bad = np.argwhere(~(np.abs(rows) <= SCALED_BOUND))  # a NaN compares false
    for item, row in zip(buffered, rows[: bad[0, 0] if len(bad) else len(rows)]):  # the bad row: handed over, unyielded
        yield Observation(item.t, row, item.y)
    if len(bad):
        r, j = bad[0].tolist()
        name, raw = buffered.feature_names[j], buffered.features[r, j].item()
        what = f"a magnitude of at most {SCALED_BOUND:g}" if np.isfinite(rows[r, j]) else "a finite number"
        raise ValueError(f"row {r}, feature {j} ({name!r}): {raw!r} does not scale to {what}")
