import os

import pytest

from stpnrca.errors import DataError
from stpnrca.timeseries import atomic_open, read_csv


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


class TestReadCsv:
    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            read_csv(tmp_path)

    def test_undecodable_bytes_are_data_error(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(DataError, match="bin.csv"):
            read_csv(path)
