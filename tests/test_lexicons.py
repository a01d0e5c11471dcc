import re

import pytest

from readgauge.errors import MalformedRow, MissingFile
from readgauge.lexicons import load_norms, load_senses, mean_rating, sense_features
from readgauge.textcore import make_document


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadNorms:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa,img\ndog,3,5\ncat,5,2\n")
        tables = load_norms(p)
        assert set(tables) == {"aoa", "img"}
        assert tables["aoa"] == {"dog": 3.0, "cat": 5.0}
        assert tables["img"] == {"dog": 5.0, "cat": 2.0}

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_norms(str(tmp_path / "nope.csv"))

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "n.csv", "token,aoa\ndog,3\n")
        with pytest.raises(MalformedRow):
            load_norms(p)

    def test_non_numeric_names_row(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa\ndog,3\ncat,abc\n")
        with pytest.raises(MalformedRow, match=r"n\.csv: row 3: aoa 'abc' is not a finite number"):
            load_norms(p)

    def test_digit_group_rating_rejected(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa\ndog,1_5\n")
        with pytest.raises(MalformedRow, match=r"n\.csv: row 2: aoa '1_5' is not a finite number"):
            load_norms(p)

    @pytest.mark.parametrize("raw", ["٣.٥", "３", "3\u00a0"])
    def test_non_ascii_rating_rejected(self, tmp_path, raw):
        # float() reads every Unicode decimal digit and strips Unicode blanks.
        p = write(tmp_path / "n.csv", f"word,aoa\ndog,3\ncat,{raw}\n")
        with pytest.raises(MalformedRow, match=rf"n\.csv: row 3: aoa {re.escape(repr(raw))} is not a finite number"):
            load_norms(p)

    def test_non_finite_rating_names_row(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa\ndog,3\ncat,inf\n")
        with pytest.raises(MalformedRow) as err:
            load_norms(p)
        assert "row 3" in str(err.value)

    def test_duplicate_column_rejected(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa,img,aoa\ndog,3,5,99\n")
        with pytest.raises(MalformedRow) as err:
            load_norms(p)
        assert "n.csv" in str(err.value) and "'aoa'" in str(err.value)

    def test_duplicate_last_wins(self, tmp_path, caplog):
        p = write(tmp_path / "n.csv", "word,aoa\ndog,3\ndog,9\n")
        with caplog.at_level("WARNING"):
            tables = load_norms(p)
        assert tables["aoa"] == {"dog": 9.0}
        assert any("duplicate" in r.message for r in caplog.records)

    def test_duplicate_warns_once_per_row(self, tmp_path, caplog):
        p = write(tmp_path / "n.csv", "word,aoa,img\ndog,3,5\ndog,9,1\n")
        with caplog.at_level("WARNING"):
            load_norms(p)
        assert len(caplog.records) == 1

    def test_empty_word_names_row(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa\ndog,3\n ,5\n")
        with pytest.raises(MalformedRow, match=r"n\.csv: row 3: empty word"):
            load_norms(p)

    def test_lowercases_keys(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa\nDog,3\n")
        assert "dog" in load_norms(p)["aoa"]


class TestMeanRating:
    def test_mean_and_coverage(self, tmp_path):
        # tokens [dog, cat, zyx] against {dog: 3, cat: 5} -> mean 4.0, coverage 2/3
        p = write(tmp_path / "n.csv", "word,aoa\ndog,3\ncat,5\n")
        table = load_norms(p)["aoa"]
        doc = make_document("d", "dog cat zyx")
        mean, coverage = mean_rating(doc, table)
        assert mean == pytest.approx(4.0)
        assert coverage == pytest.approx(2 / 3)

    def test_no_coverage(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa\ndog,3\n")
        table = load_norms(p)["aoa"]
        assert mean_rating(make_document("d", "zyx qqq"), table) == (0.0, 0.0)

    def test_empty_doc(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa\ndog,3\n")
        table = load_norms(p)["aoa"]
        assert mean_rating(make_document("d", ""), table) == (0.0, 0.0)

    def test_punct_excluded_from_denominator(self, tmp_path):
        p = write(tmp_path / "n.csv", "word,aoa\ndog,3\n")
        table = load_norms(p)["aoa"]
        mean, coverage = mean_rating(make_document("d", "dog!"), table)
        assert (mean, coverage) == (3.0, 1.0)


class TestSenses:
    def test_load_and_features(self, tmp_path):
        p = write(tmp_path / "s.csv", "word,senses,hypernyms,hyponyms\ndog,2,1,4\n")
        senses = load_senses(p)
        assert senses == {"dog": (2, 1, 4)}
        feats = sense_features(make_document("d", "dog cat"), senses)
        assert feats == {
            "senses_per_word": 1.0,
            "hypernyms_per_word": 0.5,
            "hyponyms_per_word": 2.0,
        }

    def test_empty_doc_zeros(self, tmp_path):
        p = write(tmp_path / "s.csv", "word,senses,hypernyms,hyponyms\n")
        feats = sense_features(make_document("d", ""), load_senses(p))
        assert set(feats.values()) == {0.0}

    def test_negative_count_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "word,senses,hypernyms,hyponyms\ndog,-1,0,0\n")
        with pytest.raises(MalformedRow, match=r"s\.csv: row 2: senses '-1' is not a non-negative integer"):
            load_senses(p)

    def test_non_integer_count_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "word,senses,hypernyms,hyponyms\ndog,x,0,0\n")
        with pytest.raises(MalformedRow, match=r"s\.csv: row 2: senses 'x' is not a non-negative integer"):
            load_senses(p)

    @pytest.mark.parametrize("raw", ["1_000", "1_0"])
    def test_digit_group_count_rejected(self, tmp_path, raw):
        p = write(tmp_path / "s.csv", f"word,senses,hypernyms,hyponyms\ndog,1,2,3\ncat,0,{raw},0\n")
        with pytest.raises(MalformedRow, match=rf"s\.csv: row 3: hypernyms '{raw}' is not a non-negative integer"):
            load_senses(p)

    @pytest.mark.parametrize("raw", ["٣", "１٠", "+٣"])
    def test_non_ascii_count_rejected(self, tmp_path, raw):
        p = write(tmp_path / "s.csv", f"word,senses,hypernyms,hyponyms\ndog,1,2,3\ncat,0,0,{raw}\n")
        with pytest.raises(MalformedRow, match=rf"s\.csv: row 3: hyponyms {re.escape(repr(raw))} is not a non-negative integer"):
            load_senses(p)

    def test_signed_and_padded_ascii_counts_read_as_before(self, tmp_path):
        p = write(tmp_path / "s.csv", "word,senses,hypernyms,hyponyms\ndog,+2, 3 ,007\n")
        assert load_senses(p) == {"dog": (2, 3, 7)}

    def test_short_header_names_count_by_meaning(self, tmp_path):
        p = write(tmp_path / "s.csv", "word\ndog,1,2,-3\n")
        with pytest.raises(MalformedRow, match=r"s\.csv: row 2: hyponyms '-3' is not a non-negative integer"):
            load_senses(p)

    def test_wrong_width_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "word,senses,hypernyms,hyponyms\ndog,1,2\n")
        with pytest.raises(MalformedRow):
            load_senses(p)

    def test_empty_word_names_row(self, tmp_path):
        p = write(tmp_path / "s.csv", "word,senses,hypernyms,hyponyms\n,1,2,3\n")
        with pytest.raises(MalformedRow, match=r"s\.csv: row 2: empty word"):
            load_senses(p)
