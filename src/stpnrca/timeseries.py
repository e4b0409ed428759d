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
import io
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
    which get the ``xmeas_01..41``, ``xmv_01..11`` names. Every other line
    that holds more than whitespace is one sample row; only the comma layout
    has csv quoting. The rows are parsed in one ``np.loadtxt`` pass; only
    when that pass fails are they read again one by one, to name the first
    bad line.
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            split, names, skip = _header(fh, path)
            linenos = []
            lines = _data_lines(fh, skip, linenos)
            first = next(lines, None)
            plain = split is str.split
            try:  # loadtxt warns on a file without rows
                values = np.empty((0, len(names))) if first is None else np.loadtxt(
                    itertools.chain([first], lines), dtype=float, comments=None, ndmin=2,
                    delimiter=None if plain else ",", quotechar=None if plain else '"')
            except ValueError:
                values = None
            if values is None or values.shape != (len(linenos), len(names)):
                _raise_first_bad_line(path, fh, skip, split, len(names))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a text CSV file ({exc})") from None
    if len(values) < 2:
        raise DataError(f"{path}: need at least 2 sample rows, got {len(values)}")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[np.argmin(finite)]}: non-finite value")
    try:
        return TimeSeries(tuple(names), values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _number(field: str) -> float:
    """A field's value by the rule ``np.loadtxt`` applies: Python's float
    syntax (decimal or exponent notation, ``inf``, ``nan``, in any case,
    with surrounding whitespace) in ASCII, and without the ``1_000`` digit
    grouping that ``float`` also takes. ValueError for anything else."""
    if "_" in field or not field.strip().isascii():
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def _csv_fields(line: str) -> list[str]:
    return next(csv.reader([line]))


def _data_lines(fh, skip: int, linenos: list):
    """Yield each line of the open file `fh` after its first `skip` lines
    that holds more than whitespace, appending its line number to `linenos`."""
    fh.seek(0)
    for lineno, line in enumerate(itertools.islice(fh, skip, None), start=skip + 1):
        if not line.isspace():
            linenos.append(lineno)
            yield line


def _header(fh, path):
    """(field splitter, channel names, number of lines before the sample rows).

    Rows are split on commas, with csv quoting, unless the first two
    nonblank lines hold no comma or quote and the second holds several
    whitespace-separated fields; then every row is split on whitespace.
    """
    linenos = []
    head = list(itertools.islice(_data_lines(fh, 0, linenos), 2))
    if not head:
        raise DataError(f"{path}: empty file")
    if not any("," in line or '"' in line for line in head) and len(head[-1].split()) > 1:
        split, fields, end = str.split, head[0].split(), linenos[0]
    else:  # csv reads the header, whose quoted names may span lines
        split = _csv_fields
        fh.seek(0)
        reader = csv.reader(itertools.islice(fh, linenos[0] - 1, None))
        fields = next(reader)
        end = linenos[0] - 1 + reader.line_num
    names = _header_names(fields)
    if names is not None:
        return split, names, end
    if len(fields) != len(_PROCESS_VARIABLES):
        raise DataError(f"{path}: a file without a header row must hold the 52 "
                        f"standard process variables, got {len(fields)} columns")
    return split, _PROCESS_VARIABLES, 0


def _header_names(fields: list[str]) -> list[str] | None:
    """The channel names that a first row's `fields` give, stripped of
    surrounding whitespace; None when every field is a :func:`_number`, which
    makes the row a sample row of a file without a header."""
    try:
        [_number(x) for x in fields]
    except ValueError:
        return [n.strip() for n in fields]
    return None


def _raise_first_bad_line(path, fh, skip, split, n_fields):
    """Raise the DataError naming the first sample row of `fh` that does not
    split into `n_fields` fields, each a :func:`_number`."""
    linenos = []
    for line in _data_lines(fh, skip, linenos):
        fields = split(line)
        if len(fields) != n_fields:
            raise DataError(f"{path}:{linenos[-1]}: expected {n_fields} fields, got {len(fields)}")
        try:
            [_number(x) for x in fields]
        except ValueError as exc:
            raise DataError(f"{path}:{linenos[-1]}: non-numeric value ({exc})") from None
    raise DataError(f"{path}: np.loadtxt cannot read the sample rows as a table")


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
    """Write a TimeSeries to CSV atomically (temp file + rename).

    The header row goes through ``csv.writer``, which quotes names that hold
    a comma, a quote, CR or LF. Each sample row is the ``repr`` of its
    floats joined by commas and ended by CRLF: the bytes the csv writer gave
    the row, since a float's repr holds none of those characters, without
    its per-field quoting scan. A 6,000 × 52 file takes about 0.3 s on a
    2-core x86-64 box, most of it in ``repr``.

    Names that :func:`read_csv` would not read back are refused with a
    DataError naming the first of them, before any file is made: names that
    are all numbers (the header would be read as a sample row), names with
    surrounding whitespace (stripped), a first name that starts the file
    with a byte-order mark (dropped), and names that UTF-8 cannot encode,
    such as a lone surrogate. The check reads the header through
    read_csv's own codec, csv quoting and name rule.
    """
    path = os.fspath(path)
    buf = io.StringIO()
    csv.writer(buf).writerow(ts.names)
    header = buf.getvalue()
    _check_names_read_back(ts.names, header, path)
    with atomic_open(path, newline="") as fh:
        fh.write(header)
        for row in ts.values:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def _check_names_read_back(names: tuple[str, ...], header: str, path: str) -> None:
    """Raise the DataError naming the first of `names` that :func:`read_csv`
    would not read back from `header`, their row as ``csv.writer`` writes it
    at the start of a file."""
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"{path}: channel name {name!r} cannot be written in UTF-8") from None
    text = header.encode("utf-8").decode("utf-8-sig")  # read_csv's codec drops a leading BOM
    read = _header_names(next(csv.reader(io.StringIO(text, newline=""))))
    if read is None:
        raise DataError(f"{path}: channel names that are all numbers, from {names[0]!r}, "
                        "would be read back as a sample row")
    for name, back in zip(names, read):
        if name != back:
            raise DataError(f"{path}: channel name {name!r} would be read back as {back!r}")
