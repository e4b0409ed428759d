"""Multivariate time series container and CSV ingestion.

A :class:`TimeSeries` is the universal input of the toolkit: ``f`` named
channels by ``T`` samples of real-valued readings. A CSV file holds one row
per sample, split on commas or on whitespace, after an optional header row
of channel names; a file without one holds the 52 standard process
variables. Ragged, non-numeric and non-finite rows are rejected with a
line-numbered error.
"""

from __future__ import annotations

import csv
import itertools
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

# The 52 standard process variables, named in a file without a header row:
# 41 measured, then 11 manipulated.
_PROCESS_VARIABLES = tuple(
    [f"xmeas_{i:02d}" for i in range(1, 42)] + [f"xmv_{i:02d}" for i in range(1, 12)]
)


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
    """Load a TimeSeries from a CSV file, working out its layout from the file.

    A first row of names is the header. A first row of numbers means the
    file has no header: it must then hold the 52 standard process variables,
    which get the ``xmeas_01..41``, ``xmv_01..11`` names.
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            rows = _rows(fh)
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            try:
                [float(x) for x in first[1]]
            except ValueError:
                names = [n.strip() for n in first[1]]
            else:
                if len(first[1]) != len(_PROCESS_VARIABLES):
                    raise DataError(f"{path}: a file without a header row must hold the 52 "
                                    f"standard process variables, got {len(first[1])} columns")
                names, rows = _PROCESS_VARIABLES, itertools.chain([first], rows)
            values, linenos = [], []
            for lineno, row in rows:
                if len(row) != len(names):
                    raise DataError(
                        f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}"
                    )
                try:
                    values.append(np.fromiter(map(float, row), dtype=float, count=len(row)))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
                linenos.append(lineno)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a text CSV file ({exc})") from None
    if len(values) < 2:
        raise DataError(f"{path}: need at least 2 sample rows, got {len(values)}")
    values = np.array(values, dtype=float)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[np.argmin(finite)]}: non-finite value")
    try:
        return TimeSeries(tuple(names), values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _rows(fh):
    """Yield (line number, fields) for each nonblank row of the open file `fh`.

    Rows are split on commas, with csv quoting, unless the first two rows
    hold no comma or quote and the second holds several whitespace-separated
    fields; then every row is split on whitespace.
    """
    head = list(itertools.islice(filter(str.strip, fh), 2))
    fh.seek(0)
    plain = head and not any("," in line or '"' in line for line in head)
    if plain and len(head[-1].split()) > 1:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if fields:
                yield lineno, fields
    else:
        reader = csv.reader(fh)
        for row in reader:
            if row and (len(row) > 1 or row[0].strip()):
                yield reader.line_num, row


@contextmanager
def atomic_open(path: str | os.PathLike, newline: str | None = None):
    """Open a text file for writing that appears at `path` only when complete.

    Yields a temporary file in the same directory; on normal exit it is
    renamed over `path`, and on any failure it is deleted, so readers never
    see a partial file. The file gets the mode a plain ``open(path, "w")``
    of a new file would give it, 0o666 less the umask, not the temporary
    file's owner-only 0o600.
    """
    path = os.fspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:  # name the user's path, not the temp file's
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            yield fh
        umask = os.umask(0)  # the umask is read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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
