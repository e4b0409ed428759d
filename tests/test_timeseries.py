import os
import re

import numpy as np
import pytest

from stpnrca.errors import DataError
from stpnrca.timeseries import TimeSeries, atomic_open, read_csv, write_csv

PROCESS_VARIABLES = [f"xmeas_{i:02d}" for i in range(1, 42)] + [
    f"xmv_{i:02d}" for i in range(1, 12)
]


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
        [("x",), ("a,b", 'say "hi"', "with space"), ("a\nb c",), tuple(PROCESS_VARIABLES)],
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
