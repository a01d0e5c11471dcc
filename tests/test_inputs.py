import unicodedata

import pytest

from readgauge.cli import ingest_corpus, load_scores
from readgauge.errors import BadEncoding, MalformedRow, MissingFile
from readgauge.grammar import load_grammar
from readgauge.inputs import ascii_int, csv_rows, read_text
from readgauge.lexicons import load_norms, load_senses, mean_rating
from readgauge.pos_features import load_tag_lexicon
from readgauge.textcore import make_document

BOM = "\ufeff".encode("utf-8")


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

    def test_one_byte_order_mark_dropped_offsets_kept(self, tmp_path):
        assert read_text(write(tmp_path / "t.txt", BOM + BOM + b"a\n")) == "\ufeffa\n"
        with pytest.raises(BadEncoding) as err:
            read_text(write(tmp_path / "u.txt", BOM + b"ok\n\xff"))
        assert "byte 6" in str(err.value)


@pytest.mark.parametrize("load, name, data", [
    (ingest_corpus, "m.csv", b"doc_id,path,class_name\nd1,d1.txt,easy\n"),
    (load_scores, "s.csv", b"doc_id,score_name,value\nd1,bert,0.5\n"),
    (load_norms, "n.csv", b"word,aoa\ncat,3.5\n"),
    (load_grammar, "g.txt", b"S -> NP VP # 1.0\nNP -> 'dog' # 1.0\nVP -> 'runs' # 1.0\n"),
])
def test_byte_order_mark_reads_as_plain_file(tmp_path, load, name, data):
    # Spreadsheet "CSV UTF-8" exports start with a byte-order mark.
    write(tmp_path / "d1.txt", b"The cat sat.")
    (tmp_path / "bom").mkdir()
    write(tmp_path / "bom" / "d1.txt", b"The cat sat.")
    assert load(write(tmp_path / "bom" / name, BOM + data)) == load(write(tmp_path / name, data))


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


class TestWordRows:
    @pytest.mark.parametrize("load, data", [
        (load_tag_lexicon, b"cat,NN\ndog,NN\n"),
        (load_senses, b"cat,1,2,3\ndog,2,0,0\n"),
    ])
    def test_table_without_header_rejected(self, tmp_path, load, data):
        # Read as a header, the first row's word would be lost.
        with pytest.raises(MalformedRow, match=r"t\.csv: first header column must be 'word'"):
            load(write(tmp_path / "t.csv", data))

    def test_word_is_nfc_like_document_text(self, tmp_path):
        nfd = unicodedata.normalize("NFD", "Café")
        norms = load_norms(write(tmp_path / "n.csv", f"word,aoa\n{nfd},5\n".encode()))
        assert mean_rating(make_document("d", "Le café est bon."), norms["aoa"]) == (5.0, 0.25)


class TestAsciiInt:
    @pytest.mark.parametrize("raw", ["0", "42", "+3", "-3", " 7 ", "007", "\t12\n"])
    def test_ascii_reads_as_int_does(self, raw):
        assert ascii_int(raw) == int(raw)

    @pytest.mark.parametrize("raw", ["1_6", "١٢", "٣", "３", "1٠", "3\u00a0", "", "x", "3.0", "0x10"])
    def test_digit_groups_and_non_ascii_rejected(self, raw):
        with pytest.raises(ValueError):
            ascii_int(raw)
