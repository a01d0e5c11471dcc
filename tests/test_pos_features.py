import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_pos_ratios
from readgauge.errors import MalformedRow, MissingFile, SupportViolation
from readgauge.pos_features import (
    POS_FEATURE_NAMES,
    kl_divergence,
    load_tag_lexicon,
    pos_deviation,
    pos_divergence,
    pos_ratios,
    tag,
)
from readgauge.textcore import make_document


def tagged(*sentences):
    return tuple(tuple(s) for s in sentences)


class TestTagLexicon:
    def test_load(self, tmp_path):
        p = tmp_path / "lex.csv"
        p.write_text("word,tag\ndog,NN\nRuns,VBZ\n", encoding="utf-8")
        lex = load_tag_lexicon(str(p))
        assert lex == {"dog": "NN", "runs": "VBZ"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_tag_lexicon(str(tmp_path / "nope.csv"))

    def test_bad_width(self, tmp_path):
        p = tmp_path / "lex.csv"
        p.write_text("word,tag\ndog,NN,extra\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_tag_lexicon(str(p))

    @pytest.mark.parametrize("row, what", [(" ,NN", "word"), ("dog, ", "tag")])
    def test_empty_field_names_row(self, tmp_path, row, what):
        p = tmp_path / "lex.csv"
        p.write_text(f"word,tag\ndog,NN\n{row}\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=rf"lex\.csv: row 3: empty {what}"):
            load_tag_lexicon(str(p))

    def test_repeated_word_warns_and_last_wins(self, tmp_path, caplog):
        p = tmp_path / "lex.csv"
        p.write_text("word,tag\nhello,NN\nHello,VB\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert load_tag_lexicon(str(p)) == {"hello": "VB"}
        assert [r.getMessage() for r in caplog.records] == [
            f"duplicate word 'hello' in {p} (row 3), last wins"
        ]


class TestTagger:
    LEX = {"the": "DT", "dog": "NN", "runs": "VBZ"}

    def test_lexicon_hits(self):
        doc = make_document("d", "The dog runs.")
        out = tag(doc, self.LEX)
        assert out[0] == (("the", "DT"), ("dog", "NN"), ("runs", "VBZ"))

    def test_punct_skipped(self):
        doc = make_document("d", "Dog!")
        out = tag(doc, {"dog": "NN"})
        assert out == ((("dog", "NN"),),)

    def test_suffix_fallbacks(self):
        doc = make_document("d", "Quickly jumping plodded dogs blorp")
        out = tag(doc, {})
        tags = [t for _, t in out[0]]
        assert tags == ["RB", "VBG", "VBD", "NNS", "NN"]

    def test_capitalized_mid_sentence_is_proper(self):
        doc = make_document("d", "the Smith")
        out = tag(doc, {"the": "DT"})
        assert out[0][1] == ("smith", "NNP")

    def test_suffix_fallback_counts_only_words(self):
        # An opening quote is not a word, so the first word stays NN.
        doc = make_document("d", '"Blorf runs. Blorf runs.')
        out = tag(doc, {"runs": "VBZ"})
        assert [s[0] for s in out] == [("blorf", "NN"), ("blorf", "NN")]

    def test_sentence_structure_preserved(self):
        doc = make_document("d", "The dog runs. The dog runs.")
        out = tag(doc, self.LEX)
        assert len(out) == 2


class TestPosRatios:
    def test_names_complete(self):
        assert len(POS_FEATURE_NAMES) == 29
        feats = pos_ratios(tagged([("dog", "NN")]))
        assert list(feats) == POS_FEATURE_NAMES

    def test_simple_counts(self):
        feats = pos_ratios(tagged([("the", "DT"), ("dog", "NN"), ("runs", "VBZ"), ("fast", "RB")]))
        assert feats["nouns_per_word"] == pytest.approx(0.25)
        assert feats["verbs_per_word"] == pytest.approx(0.25)
        assert feats["determiners_per_word"] == pytest.approx(0.25)
        assert feats["lexical_words_per_word"] == pytest.approx(0.75)
        assert feats["function_words_per_word"] == pytest.approx(0.25)

    def test_verb_variation(self):
        # verbs: runs, runs, ran -> 3 tokens, 2 distinct
        feats = pos_ratios(tagged([("runs", "VBZ"), ("runs", "VBZ"), ("ran", "VBD")]))
        assert feats["verb_variation_i"] == pytest.approx(3 / 2)
        assert feats["squared_verb_variation_i"] == pytest.approx(9 / 2)
        assert feats["corrected_verb_variation_i"] == pytest.approx(3 / math.sqrt(4))
        assert feats["verb_variation_ii"] == pytest.approx(1.0)

    def test_empty_document_all_zero(self):
        feats = pos_ratios(tagged())
        assert set(feats.values()) == {0.0}

    def test_matches_oracle(self):
        pairs = [
            ("the", "DT"), ("big", "JJ"), ("dog", "NN"), ("runs", "VBZ"),
            ("and", "CC"), ("it", "PRP"), ("ran", "VBD"), ("quickly", "RB"),
            ("to", "IN"), ("Smith", "NNP"), ("runs", "VBZ"),
        ]
        feats = pos_ratios(tagged(pairs))
        expected = oracle_pos_ratios(pairs)
        for name in POS_FEATURE_NAMES:
            assert feats[name] == pytest.approx(expected[name], abs=1e-12), name


class TestKlDivergence:
    def test_example(self):
        got = kl_divergence({"NN": 0.5, "VB": 0.5}, {"NN": 0.25, "VB": 0.75})
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.14384, abs=1e-5)

    def test_zero_when_equal(self):
        p = {"NN": 0.3, "VB": 0.7}
        assert kl_divergence(p, dict(p)) == pytest.approx(0.0)

    def test_zero_p_outside_support_of_q(self):
        assert kl_divergence({"NN": 1.0, "VB": 0.0}, {"NN": 1.0}) == 0.0

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            kl_divergence({"NN": 1.0}, {"VB": 1.0})

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    def test_nonnegative(self, weights):
        tags = [f"T{i}" for i in range(len(weights))]
        total = sum(weights)
        p = {t: w / total for t, w in zip(tags, weights)}
        q = {t: 1 / len(tags) for t in tags}
        assert kl_divergence(p, q) >= -1e-12


class TestDeviationAndDivergence:
    def test_posd_dev_example(self):
        # proportions {NN: .5, VB: .25, DT: .25} -> population std sqrt(1/72)
        doc = tagged([("a", "NN"), ("b", "NN"), ("c", "VB"), ("d", "DT")])
        assert pos_deviation(doc) == pytest.approx(math.sqrt(1 / 72))
        assert pos_deviation(doc) == pytest.approx(0.11785, abs=1e-5)

    def test_posd_dev_uniform_is_zero(self):
        doc = tagged([("a", "NN"), ("b", "VB")])
        assert pos_deviation(doc) == pytest.approx(0.0)

    def test_pos_div_two_disjoint_sentences(self):
        # sentences [NN] and [VB]: each sentence KL = ln 2, mean = ln 2
        doc = tagged([("a", "NN")], [("b", "VB")])
        assert pos_divergence(doc) == pytest.approx(math.log(2))

    def test_pos_div_single_sentence_zero(self):
        doc = tagged([("a", "NN"), ("b", "VB")])
        assert pos_divergence(doc) == pytest.approx(0.0)

    def test_pos_div_empty(self):
        assert pos_divergence(tagged()) == 0.0
        assert pos_deviation(tagged()) == 0.0

    def test_empty_sentence_counts_in_denominator(self):
        doc = tagged([("a", "NN")], [])
        # doc dist is all NN; the non-empty sentence has KL 0
        assert pos_divergence(doc) == 0.0
