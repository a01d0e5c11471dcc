import pytest

from readgauge.errors import BadEncoding, MalformedRow, MissingFile
from readgauge.inputs import csv_rows, read_text


def write(path, data):
    path.write_bytes(data)
    return str(path)


class TestReadText:
    def test_universal_newlines(self, tmp_path):
        assert read_text(write(tmp_path / "t.txt", b"a\r\nb\rc\n")) == "a\nb\nc\n"

    @pytest.mark.parametrize("name", ["nope.txt", "."])
    def test_missing_or_not_a_file(self, tmp_path, name):
        with pytest.raises(MissingFile):
            read_text(str(tmp_path / name))

    def test_not_utf8_names_file_and_byte(self, tmp_path):
        path = write(tmp_path / "t.txt", b"ok\n\xff")
        with pytest.raises(BadEncoding) as err:
            read_text(path)
        assert path in str(err.value) and "byte 3" in str(err.value)


class TestCsvRows:
    def test_rows_numbered_blank_rows_skipped_quoted_newlines_kept(self, tmp_path):
        path = write(tmp_path / "t.csv", b'a,b\r\n\r\n , \r\n"x\r\ny",2\r\n')
        assert csv_rows(path) == (["a", "b"], [(4, ["x\r\ny", "2"])])

    def test_width_defaults_to_header(self, tmp_path):
        path = write(tmp_path / "t.csv", b"a,b\n1,2\n1,2,3\n")
        with pytest.raises(MalformedRow) as err:
            csv_rows(path)
        assert "row 3" in str(err.value)
        assert csv_rows(write(tmp_path / "u.csv", b"a\n1,2\n"), width=2)[1] == [(2, ["1", "2"])]

    def test_empty_file(self, tmp_path):
        with pytest.raises(MalformedRow):
            csv_rows(write(tmp_path / "t.csv", b""))

    def test_csv_error(self, tmp_path):
        path = write(tmp_path / "t.csv", b'a\n"' + b"x" * 200_000 + b'"\n')
        with pytest.raises(MalformedRow) as err:
            csv_rows(path)
        assert "line 2" in str(err.value)
