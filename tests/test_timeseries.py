import csv
import itertools
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpnrca.errors import DataError
from stpnrca.timeseries import TimeSeries, atomic_open, read_csv, write_csv

PROCESS_VARIABLES = [f"xmeas_{i:02d}" for i in range(1, 42)] + [
    f"xmv_{i:02d}" for i in range(1, 12)
]


def loop_reference_read_csv(path):
    """The row-at-a-time reader that read_csv replaced: csv.reader or
    str.split per row, then float() per field; (names, values) or DataError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = _reference_rows(fh)
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        try:
            [float(x) for x in first[1]]
        except ValueError:
            names = [n.strip() for n in first[1]]
        else:
            if len(first[1]) != len(PROCESS_VARIABLES):
                raise DataError(f"{path}: a file without a header row must hold the 52 "
                                f"standard process variables, got {len(first[1])} columns")
            names, rows = PROCESS_VARIABLES, itertools.chain([first], rows)
        values, linenos = [], []
        for lineno, row in rows:
            if len(row) != len(names):
                raise DataError(f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}")
            try:
                values.append(np.fromiter(map(float, row), dtype=float, count=len(row)))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
            linenos.append(lineno)
    if len(values) < 2:
        raise DataError(f"{path}: need at least 2 sample rows, got {len(values)}")
    values = np.array(values, dtype=float)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[np.argmin(finite)]}: non-finite value")
    return tuple(names), values


def _reference_rows(fh):
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


class TestAtomicOpen:
    def test_file_appears_only_when_complete(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_open(path) as fh:
            fh.write("partial")
            assert not path.exists()
        assert path.read_text() == "partial"

    def test_failure_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("new")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_newline_passed_through(self, tmp_path):
        path = tmp_path / "out.csv"
        with atomic_open(path, newline="") as fh:
            fh.write("a\r\n")
        assert path.read_bytes() == b"a\r\n"

    @pytest.mark.skipif(os.name != "posix", reason="permission bits are POSIX")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    @pytest.mark.parametrize("existing", [False, True])
    def test_mode_follows_umask(self, tmp_path, umask, mode, existing):
        """The file gets a plain open()'s mode for a new file, also when it
        replaces an existing file of another mode."""
        path = tmp_path / "out.txt"
        if existing:
            path.write_text("old")
            path.chmod(0o640)
        previous = os.umask(umask)
        try:
            with atomic_open(path) as fh:
                fh.write("new")
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == mode
        assert path.read_text() == "new"


class TestReadCsv:
    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            read_csv(tmp_path)

    def test_undecodable_bytes_are_data_error(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(DataError, match="bin.csv"):
            read_csv(path)

    @pytest.mark.parametrize(
        "names",
        [("x",), ("a,b", 'say "hi"', "with space"), ("a\nb c",), tuple(PROCESS_VARIABLES),
         ("1", "b"), ("",), ("\ufeffa,b", "c"), ("a\rb", "c\u2028d")],
    )
    def test_write_csv_round_trips(self, tmp_path, names):
        rng = np.random.default_rng(len(names))
        ts = TimeSeries(names, rng.normal(size=(6, len(names))) * 10.0 ** rng.integers(-9, 9))
        write_csv(ts, tmp_path / "ts.csv")
        back = read_csv(tmp_path / "ts.csv")
        assert back.names == ts.names
        assert back.values.tobytes() == ts.values.tobytes()

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("sep", [",", ", ", " ", "\t", "  \t "])
    def test_process_variable_files(self, tmp_path, header, sep):
        """Headerless files name the 52 standard variables; a header names its own."""
        rng = np.random.default_rng(7)
        cells = [[f"{x:.6e}" for x in row] for row in rng.normal(size=(5, 52))]
        names = [f"v{i}" for i in range(52)]
        lines = [sep.join(names)] * header + [sep.join(row) for row in cells]
        path = tmp_path / "plant.dat"
        path.write_text("\r\n".join(lines) + "\r\n")
        ts = read_csv(path)
        assert list(ts.names) == (names if header else PROCESS_VARIABLES)
        assert ts.values.tobytes() == np.array(cells, dtype=float).tobytes()

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("sep", [",", " "])
    def test_byte_order_mark_is_skipped(self, tmp_path, header, sep):
        """A UTF-8 byte-order mark is not part of the first name or value."""
        rng = np.random.default_rng(11)
        cells = [[f"{x:.6e}" for x in row] for row in rng.normal(size=(3, 52))]
        names = [f"v{i}" for i in range(52)]
        lines = [sep.join(names)] * header + [sep.join(row) for row in cells]
        path = tmp_path / "plant.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ("\n".join(lines) + "\n").encode())
        ts = read_csv(path)
        assert list(ts.names) == (names if header else PROCESS_VARIABLES)
        assert ts.values.tobytes() == np.array(cells, dtype=float).tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "bad.csv: empty file"),
            ("a,b\n1,2\n3\n", "bad.csv:3: expected 2 fields, got 1"),
            ("a b\n1 2\n\n3 4 5\n", "bad.csv:4: expected 2 fields, got 3"),
            ("a,b\n1,2\n3,x\n", "bad.csv:3: non-numeric value"),
            ("a,b\n1,2\n3,nan\n", "bad.csv:3: non-finite value"),
            ("a b\n1 inf\n3 4\n", "bad.csv:2: non-finite value"),
            ("a,a\n1,2\n3,4\n", "bad.csv: channel names must be unique"),
            ("0.1,0.2,0.3\n0.4,0.5,0.6\n", "bad.csv: a file without a header row must hold"),
            ("0.1 0.2 0.3\n0.4 0.5 0.6\n", "bad.csv: a file without a header row must hold"),
            ("a,b\n1,2\n", "bad.csv: need at least 2 sample rows, got 1"),
        ],
    )
    def test_bad_file_is_data_error_naming_it(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(message)) as info:
            read_csv(path)
        assert str(info.value).startswith(str(path))


# Fields both readers take as numbers, or both refuse: no digit-group
# underscores, no non-ASCII digits, no line break inside quotes.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.6e}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0.0", "+.5", "1.", "1E5", " 2.5 ", "\t7", "\xa03"]),
)
BAD_FIELDS = st.one_of(st.sampled_from(["x", "", "1e", "--1", "0x10", "4#5"]),
                       st.sampled_from(["nan", "-Inf", "1e999"]))  # non-finite
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    """Text of a CSV in any layout read_csv accepts, perhaps damaged in one
    field or one row's length."""
    header = draw(st.booleans())
    n = draw(st.integers(1, 4)) if header else 52
    plain = n > 1 and draw(st.booleans())
    sep = draw(st.sampled_from([" ", "\t", "  \t"] if plain else [",", ", "]))
    quote = not plain and draw(st.booleans())
    rows = draw(st.lists(st.lists(NUMBERS, min_size=n, max_size=n), min_size=2, max_size=6))
    damage = draw(st.sampled_from(["none", "field", "short", "long"]))
    r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
    if damage == "field":
        rows[r][c] = draw(BAD_FIELDS)
    elif damage == "short" and n > 1:
        del rows[r][c]
    elif damage == "long":
        rows[r].append(draw(NUMBERS))
    if plain:  # whitespace splits what a quote or an empty field would join
        rows = [[x.strip() or "x" for x in row] for row in rows]
    lines = [sep.join(f"v{i}" for i in range(n))] * header + [
        sep.join(f'"{x}"' if quote else x for x in row) for row in rows
    ]
    blanks = draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=len(lines)))
    for blank, at in zip(blanks, draw(st.permutations(range(len(lines) + 1)))):
        lines.insert(at, blank)
    ending = draw(ENDINGS)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + ending.join(lines) + ending


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=csv_files())
def test_read_csv_equals_loop_reference(tmp_path_factory, text):
    """Both readers take the same files to the same names and float64
    values, bit for bit, and refuse the same files with the same message."""
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(text.encode())
    try:
        want = loop_reference_read_csv(path)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            read_csv(path)
        assert str(info.value) == str(exc)
        return
    ts = read_csv(path)
    assert ts.names == want[0]
    assert ts.values.dtype == want[1].dtype == np.float64
    assert ts.values.shape == want[1].shape
    assert ts.values.tobytes() == want[1].tobytes()


def reference_write_csv(ts, path):
    """The writer that write_csv replaced: csv.writer for every row, each
    value as repr(float(x))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ts.names)
        for row in ts.values:
            writer.writerow([repr(float(x)) for x in row])


class TestWriteCsvNames:
    """write_csv refuses names that read_csv would not read back, before it
    makes any file."""

    @pytest.mark.parametrize(
        "names, message",
        [
            (tuple(str(i) for i in range(52)),
             "channel names that are all numbers, from '0', would be read back as a sample row"),
            (("1", "2"),
             "channel names that are all numbers, from '1', would be read back as a sample row"),
            (("nan", "inf"),
             "channel names that are all numbers, from 'nan', would be read back as a sample row"),
            (("\t", "c"), "channel name '\\t' would be read back as ''"),
            (("a", "b\n"), "channel name 'b\\n' would be read back as 'b'"),
            (("\ufeffa", "b"), "channel name '\\ufeffa' would be read back as 'a'"),
            (("c", "a\ud800"), "channel name 'a\\ud800' cannot be written in UTF-8"),
        ],
    )
    def test_refused_with_the_first_such_name(self, tmp_path, names, message):
        ts = TimeSeries(names, np.arange(3.0 * len(names)).reshape(3, len(names)))
        path = tmp_path / "ts.csv"
        with pytest.raises(DataError) as info:
            write_csv(ts, path)
        assert str(info.value) == f"{path}: {message}"
        assert os.listdir(tmp_path) == []


# Values whose repr is long, short, subnormal or in exponent notation.
VALUE_POOL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e16, 1e22, -1.5e-300]
VALUES = st.one_of(
    st.sampled_from(VALUE_POOL),
    st.builds(lambda z, k: z * 10.0 ** k, st.floats(-4.0, 4.0), st.integers(-300, 300)),
)
NAME_CHARS = [",", '"', "\r", "\n", " ", "\t", "\x85", "\ufeff", "a", "Z", "_", "1", ".",
              "\xe9", "\u4e2d"]
EDGE = st.sampled_from([c for c in NAME_CHARS if not c.isspace()])
NAMES = st.lists(
    st.one_of(
        st.builds(lambda a, mid, b: a + mid + b, EDGE, st.text(st.sampled_from(NAME_CHARS),
                                                                max_size=4), EDGE),
        st.text(st.sampled_from(NAME_CHARS), max_size=6),
        st.sampled_from(["1", "-2.5", "nan", "Inf", " 3 "]),
    ),
    min_size=1, max_size=6, unique=True,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(names=NAMES, data=st.data())
def test_write_csv_equals_reference_writer(tmp_path_factory, names, data):
    """write_csv writes the reference writer's bytes, and read_csv takes them
    back to the same names and value bytes. It refuses exactly the names
    that do not come back from the reference writer's file."""
    rows = data.draw(st.integers(2, 40))
    values = data.draw(st.lists(st.lists(VALUES, min_size=len(names), max_size=len(names)),
                                min_size=rows, max_size=rows))
    ts = TimeSeries(tuple(names), np.array(values, dtype=float))
    root = tmp_path_factory.mktemp("write")
    reference_write_csv(ts, root / "ref.csv")
    try:
        write_csv(ts, root / "new.csv")
    except DataError:
        assert os.listdir(root) == ["ref.csv"]
        try:
            assert read_csv(root / "ref.csv").names != ts.names
        except DataError:
            pass
        return
    assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()
    back = read_csv(root / "new.csv")
    assert back.names == ts.names
    assert back.values.tobytes() == ts.values.tobytes()


def test_write_csv_memory_does_not_grow_with_length(tmp_path):
    """The writer holds a row at a time: its tracemalloc peak at 10,000 rows
    is within 10% of its peak at 1,000 rows (about 130 KiB both, the text
    buffers). A list of the whole 10,000 × 4 matrix alone peaks at 1.9 MB."""
    rng = np.random.default_rng(0)
    peaks = []
    for rows in (1_000, 10_000):
        ts = TimeSeries(("a", "b", "c", "d"), rng.normal(size=(rows, 4)))
        tracemalloc.start()
        try:
            write_csv(ts, tmp_path / "ts.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


class TestReadCsvErrorLines:
    """A bad row is named by its line in the file, blank lines counted."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n\n  \n1,2\n\t\n3\n", "bad.csv:6: expected 2 fields, got 1"),
            ("a,b\n\n  \n1,2\n\t\n3,y\n", "bad.csv:6: non-numeric value"),
            ("a,b\r\n1,2\r\n\r\n3,x\r\n", "bad.csv:4: non-numeric value"),
            ("a,b\r\n1,2\r\n \r\n3\r\n", "bad.csv:4: expected 2 fields, got 1"),
            ("\ufeffa,b\n1,2\n3\n", "bad.csv:3: expected 2 fields, got 1"),
            ('a,b\n"1","2"\n"3","x"\n', "bad.csv:3: non-numeric value"),
            ('a,b\n"1","2"\n"3"\n', "bad.csv:3: expected 2 fields, got 1"),
            ("a b c\n1 2 3\n\n4 5\n", "bad.csv:4: expected 3 fields, got 2"),
            (",".join(["1"] * 52) + "\n\n" + ",".join(["1"] * 51) + "\n",
             "bad.csv:3: expected 52 fields, got 51"),
            # a data row is one line: csv quoting does not join lines
            ('a,b\n1,2\n"3\n",4\n', "bad.csv:3: expected 2 fields, got 1"),
        ],
    )
    def test_bad_row_named_by_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match=re.escape(message)) as info:
            read_csv(path)
        assert str(info.value).startswith(str(path))

    def test_quoted_numbers_read(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('"a","b"\n"1.5",2\n3," -4e1 "\n')
        assert read_csv(path).values.tolist() == [[1.5, 2.0], [3.0, -40.0]]


class TestNumberSyntax:
    """A field is a number by np.loadtxt's rule: Python's float syntax, in
    ASCII, without digit-group underscores."""

    @pytest.mark.parametrize("field", ["1_0", "1_000.5", "\u0661", "\uff11", "0x10"])
    def test_refused(self, tmp_path, field):
        path = tmp_path / "n.csv"
        path.write_text(f"a,b\n1,2\n{field},3\n")
        with pytest.raises(DataError, match=re.escape(f"n.csv:3: non-numeric value")):
            read_csv(path)

    @pytest.mark.parametrize("field, value", [("1e3", 1000.0), ("-.5", -0.5), ("+2.", 2.0),
                                              ("\xa07 ", 7.0), ("\t8\t", 8.0)])
    def test_accepted(self, tmp_path, field, value):
        path = tmp_path / "n.csv"
        path.write_text(f"a,b\n1,2\n{field},3\n")
        assert read_csv(path).values[1, 0] == value

    def test_underscored_first_row_is_a_header(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1_0,2_0\n1,2\n3,4\n")
        assert read_csv(path).names == ("1_0", "2_0")
