"""Multivariate time series container and CSV ingestion.

A :class:`TimeSeries` is the universal input of the toolkit: ``f`` named
channels by ``T`` samples of real-valued readings. CSV files carry one
header row of channel names followed by one row per sample; ragged or
non-numeric rows are rejected with a line-numbered error.
"""

from __future__ import annotations

import csv
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Named multivariate series with a (T, f) value matrix."""

    names: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError(f"values must be 2-D (T, f), got shape {values.shape}")
        T, f = values.shape
        if f < 1:
            raise DataError("need at least one channel")
        if T < 2:
            raise DataError(f"need at least 2 samples, got {T}")
        if len(self.names) != f:
            raise DataError(f"{len(self.names)} names for {f} channels")
        if len(set(self.names)) != f:
            raise DataError("channel names must be unique")
        if not np.all(np.isfinite(values)):
            raise DataError("values contain non-finite entries")
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(self, "values", values)
        self.values.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def channel(self, i: int) -> np.ndarray:
        return self.values[:, i]

    def window(self, start: int, length: int) -> "TimeSeries":
        """Contiguous sub-series of `length` samples beginning at `start`."""
        if start < 0 or start + length > self.n_samples:
            raise DataError(
                f"window [{start}, {start + length}) out of range for T={self.n_samples}"
            )
        return TimeSeries(self.names, self.values[start : start + length].copy())


def read_csv(path: str | os.PathLike) -> TimeSeries:
    """Load a TimeSeries from a header+rows CSV file."""
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                names = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            names = [n.strip() for n in names]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(names):
                    raise DataError(
                        f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}"
                    )
                try:
                    rows.append([float(x) for x in row])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a text CSV file ({exc})") from None
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 sample rows, got {len(rows)}")
    return TimeSeries(tuple(names), np.array(rows, dtype=float))


@contextmanager
def atomic_open(path: str | os.PathLike, newline: str | None = None):
    """Open a text file for writing that appears at `path` only when complete.

    Yields a temporary file in the same directory; on normal exit it is
    renamed over `path`, and on any failure it is deleted, so readers never
    see a partial file.
    """
    path = os.fspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:  # name the user's path, not the temp file's
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(ts: TimeSeries, path: str | os.PathLike) -> None:
    """Write a TimeSeries to CSV atomically (temp file + rename)."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ts.names)
        for row in ts.values:
            writer.writerow([repr(float(x)) for x in row])


TEP_N_MEASURED = 41
TEP_N_MANIPULATED = 11


def tep_channel_names() -> tuple[str, ...]:
    """Standard names for the 52 monitored process variables."""
    names = [f"xmeas_{i:02d}" for i in range(1, TEP_N_MEASURED + 1)]
    names += [f"xmv_{i:02d}" for i in range(1, TEP_N_MANIPULATED + 1)]
    return tuple(names)


def read_tep_csv(path: str | os.PathLike) -> TimeSeries:
    """Load a process-monitoring CSV with the 52 standard variables.

    Accepts either a headerless numeric file (comma or whitespace delimited)
    or one with a 52-name header row; columns are mapped to the standard
    ``xmeas_01..41`` / ``xmv_01..11`` names when no header is present.
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    rows: list[list[float]] = []
    header: list[str] | None = None
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",") if "," in line else line.split()
                try:
                    rows.append([float(x) for x in parts])
                except ValueError:
                    if lineno == 1 and header is None:
                        header = [p.strip() for p in parts]
                        continue
                    raise DataError(f"{path}:{lineno}: non-numeric row") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file ({exc})") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: ragged row {i + 1} ({len(row)} vs {width} fields)")
    expected = TEP_N_MEASURED + TEP_N_MANIPULATED
    if width != expected:
        raise DataError(f"{path}: expected {expected} variables, got {width}")
    names = tuple(header) if header is not None else tep_channel_names()
    return TimeSeries(names, np.array(rows, dtype=float))
