import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_traditional, oracle_ttr
from readgauge.lexical_features import (
    TRADITIONAL_FEATURE_NAMES,
    TTR_FEATURE_NAMES,
    mtld,
    surface_stats,
    traditional_scores,
    ttr_measures,
)
from readgauge.textcore import make_document


def stats(**kw):
    base = dict(
        n_sentences=1,
        n_words=10,
        n_characters=40,
        n_syllables=15,
        words_per_sentence=10.0,
        syllables_per_word=1.5,
        characters_per_word=4.0,
        sentences_per_word=0.1,
        prop_polysyllabic=0.1,
        prop_monosyllabic=0.6,
        prop_long_words=0.2,
        polysyllabic_per_sentence=3.0,
    )
    base.update(kw)
    return base


class TestSurfaceStats:
    def test_counts(self):
        doc = make_document("d", "The dog runs. It barked!")
        s = surface_stats(doc)
        assert s["n_sentences"] == 2
        assert s["n_words"] == 5
        assert s["n_characters"] == len("Thedogrunsitbarked")
        assert s["words_per_sentence"] == pytest.approx(2.5)

    def test_empty_doc_zeros(self):
        s = surface_stats(make_document("d", ""))
        assert s["n_words"] == 0
        assert s["words_per_sentence"] == 0.0
        assert s["syllables_per_word"] == 0.0

    def test_poly_long_mono(self):
        doc = make_document("d", "a beautiful elephant sat")
        s = surface_stats(doc)
        # beautiful (3) and elephant (3) are polysyllabic; both have >= 7 chars
        assert s["prop_polysyllabic"] == pytest.approx(0.5)
        assert s["prop_long_words"] == pytest.approx(0.5)
        assert s["prop_monosyllabic"] == pytest.approx(0.5)


class TestTraditionalFormulas:
    def test_flesch_and_kincaid(self):
        scores = traditional_scores(stats())
        assert scores["flesch"] == pytest.approx(206.835 - 1.015 * 10 - 84.6 * 1.5)
        assert scores["flesch"] == pytest.approx(69.785)
        assert scores["flesch_kincaid"] == pytest.approx(11.8 * 1.5 + 0.39 * 10 - 15.59)
        assert scores["flesch_kincaid"] == pytest.approx(6.01)

    def test_ari_and_coleman_liau(self):
        scores = traditional_scores(stats())
        assert scores["automated_readability_index"] == pytest.approx(4.71 * 4 + 0.5 * 10 - 21.43)
        assert scores["automated_readability_index"] == pytest.approx(2.41)
        assert scores["coleman_liau"] == pytest.approx(
            -29.5873 * 0.1 + 5.8799 * 4 - 15.8007
        )
        assert scores["coleman_liau"] == pytest.approx(4.76017, abs=1e-4)

    def test_smog(self):
        scores = traditional_scores(stats())
        assert scores["smog"] == pytest.approx(1.0430 * math.sqrt(90.0) + 3.1291)
        assert scores["smog"] == pytest.approx(13.0239, abs=1e-4)

    def test_fog_forcast_lix(self):
        scores = traditional_scores(stats())
        assert scores["fog"] == pytest.approx((10 + 0.1) * 0.4)
        assert scores["fog"] == pytest.approx(4.04)
        assert scores["forcast"] == pytest.approx(20.0 - 15.0 * 0.6)
        assert scores["forcast"] == pytest.approx(11.0)
        assert scores["lix"] == pytest.approx(10 + 0.2 * 100)
        assert scores["lix"] == pytest.approx(30.0)

    def test_keys_are_the_formula_columns(self):
        assert list(traditional_scores(stats())) == TRADITIONAL_FEATURE_NAMES[4:]

    def test_zero_stats_all_finite(self):
        zero = stats(
            n_sentences=0, n_words=0, n_characters=0, n_syllables=0,
            words_per_sentence=0.0, syllables_per_word=0.0,
            characters_per_word=0.0, sentences_per_word=0.0,
            prop_polysyllabic=0.0, prop_monosyllabic=0.0,
            prop_long_words=0.0, polysyllabic_per_sentence=0.0,
        )
        scores = traditional_scores(zero)
        for value in scores.values():
            assert math.isfinite(value)

    def test_matches_oracle_random(self):
        rng = random.Random(3)
        for _ in range(50):
            n_sent = rng.randint(1, 20)
            n_words = rng.randint(1, 200)
            n_chars = rng.randint(n_words, 8 * n_words)
            n_syll = rng.randint(n_words, 4 * n_words)
            n_poly = rng.randint(0, n_words)
            n_mono = rng.randint(0, n_words - n_poly)
            n_long = rng.randint(0, n_words)
            s = stats(
                n_sentences=n_sent,
                n_words=n_words,
                n_characters=n_chars,
                n_syllables=n_syll,
                words_per_sentence=n_words / n_sent,
                syllables_per_word=n_syll / n_words,
                characters_per_word=n_chars / n_words,
                sentences_per_word=n_sent / n_words,
                prop_polysyllabic=n_poly / n_words,
                prop_monosyllabic=n_mono / n_words,
                prop_long_words=n_long / n_words,
                polysyllabic_per_sentence=n_poly / n_sent,
            )
            scores = traditional_scores(s)
            expected = oracle_traditional(n_sent, n_words, n_chars, n_syll, n_poly, n_mono, n_long)
            for name, value in expected.items():
                assert scores[name] == pytest.approx(value, abs=1e-9)


class TestTtr:
    def test_five_types_ten_tokens(self):
        doc = make_document("d", "a b c d e a b c d e")
        feats = ttr_measures(doc)
        assert feats["type_token_ratio"] == pytest.approx(0.5)
        assert feats["corrected_type_token_ratio"] == pytest.approx(5 / math.sqrt(20))
        assert feats["root_type_token_ratio"] == pytest.approx(5 / math.sqrt(10))
        assert feats["bilogarithmic_type_token_ratio"] == pytest.approx(math.log(5) / math.log(10))
        assert feats["uber_index"] == pytest.approx((math.log(5)) ** 2 / math.log(2))
        assert feats["uber_index"] == pytest.approx(3.737, abs=1e-3)

    def test_all_distinct_tokens(self):
        doc = make_document("d", "a b c")
        feats = ttr_measures(doc)
        assert feats["type_token_ratio"] == pytest.approx(1.0)
        assert feats["uber_index"] == 0.0  # log(n/types) = 0 guard

    def test_empty_doc(self):
        feats = ttr_measures(make_document("d", ""))
        assert set(feats.values()) == {0.0}
        assert list(feats) == TTR_FEATURE_NAMES

    def test_one_word(self):
        feats = ttr_measures(make_document("d", "cat"))
        assert feats["bilogarithmic_type_token_ratio"] == 0.0  # log(1) = 0 denominator
        assert feats["uber_index"] == 0.0
        for name, val in oracle_ttr(["cat"]).items():
            assert feats[name] == val, name

    def test_matches_oracle(self):
        rng = random.Random(9)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(50):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 80))]
            doc = make_document("d", " ".join(tokens))
            feats = ttr_measures(doc)
            expected = oracle_ttr(tokens)
            for name, val in expected.items():
                assert feats[name] == pytest.approx(val, abs=1e-9), name


class TestMtld:
    def test_too_short_is_zero(self):
        assert mtld(["a"] * 9) == 0.0

    def test_fully_repetitive(self):
        # factors complete almost every other token; value is small
        val = mtld(["a"] * 40)
        assert 0.0 < val < 4.0

    def test_fully_diverse(self):
        tokens = [f"w{i}" for i in range(40)]
        # TTR never drops below threshold: value driven by the partial factor
        assert mtld(tokens) == 0.0 or mtld(tokens) > 40

    def test_direction_symmetry(self):
        tokens = ["a", "b", "a", "c", "a", "d", "a", "e", "a", "f", "a", "g"]
        assert mtld(tokens) == pytest.approx(mtld(list(reversed(tokens))))

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=10, max_size=60))
    def test_nonnegative_finite(self, tokens):
        val = mtld(tokens)
        assert val >= 0.0 and math.isfinite(val)

    def test_shipped_name_list_sizes(self):
        assert len(TRADITIONAL_FEATURE_NAMES) == 12
        assert len(TTR_FEATURE_NAMES) == 6
