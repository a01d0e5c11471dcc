import random
import string

from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_mean, oracle_population_std, oracle_tokenize
from readgauge.textcore import (
    Token,
    count_syllables,
    make_document,
    mean,
    population_std,
    split_sentences,
    tokenize,
    word_type_proportions,
)


class TestSplitSentences:
    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("   \n ") == []

    def test_two_sentences(self):
        assert split_sentences("The dog ran. It barked!") == [
            "The dog ran.",
            "It barked!",
        ]

    def test_abbreviation_guard(self):
        assert split_sentences("Dr. Smith ran.") == ["Dr. Smith ran."]

    def test_initial_guard(self):
        assert split_sentences("J. Smith ran. He left.") == [
            "J. Smith ran.",
            "He left.",
        ]

    def test_question_and_quote(self):
        assert split_sentences('Why? "Because."') == ["Why?", '"Because."']

    def test_no_split_before_lowercase(self):
        assert split_sentences("see fig. 3 above etc. and more") == [
            "see fig. 3 above etc. and more"
        ]

    def test_roundtrip_ignoring_whitespace(self):
        text = "One runs. Two ran! Three? Yes."
        joined = "".join(split_sentences(text)).replace(" ", "")
        assert joined == text.replace(" ", "")


class TestTokenize:
    def test_word_punct_flags(self):
        toks = tokenize("It barked!")
        assert [t.surface for t in toks] == ["It", "barked", "!"]
        assert [t.is_word for t in toks] == [True, True, False]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe_internal(self):
        toks = tokenize("don't")
        assert [t.surface for t in toks] == ["don't"]
        assert toks[0].is_word

    def test_hyphen_internal(self):
        assert [t.surface for t in tokenize("well-known")] == ["well-known"]

    def test_leading_and_trailing_punct(self):
        toks = tokenize('"Stop," he said.')
        assert [t.surface for t in toks] == ['"', "Stop", ",", '"', "he", "said", "."]

    def test_lowercased_and_char_count(self):
        tok = tokenize("Dogs")[0]
        assert tok.lowercased == "dogs"
        assert tok.char_count == 4

    def test_join_retokenize_idempotent(self):
        toks = tokenize('"Stop," he said.')
        again = tokenize(" ".join(t.surface for t in toks))
        assert [t.surface for t in again] == [t.surface for t in toks]

    def test_periods_inside_a_word_stay(self):
        assert [t.surface for t in tokenize("U.S.A.")] == ["U.S.A", "."]

    def test_slash_inside_a_word_stays(self):
        assert [t.surface for t in tokenize("x/y")] == ["x/y"]

    def test_underscore_is_not_alphanumeric(self):
        toks = tokenize("(__init__)")
        assert [t.surface for t in toks] == ["(", "_", "_", "init", "_", "_", ")"]
        assert [t.is_word for t in toks] == [False, False, False, True, False, False, False]


class TestSharedTokens:
    def test_one_token_per_surface(self):
        toks = tokenize("the cat saw the cat")
        assert toks[0] is toks[3]
        assert toks[1] is toks[4]
        assert toks[0] is not toks[1]

    def test_shared_tokens_equal_fresh_ones(self):
        text = 'The cat, "the CAT" -- don\'t; U.S.A. 42 ... the cat!'
        toks = tokenize(text) + tokenize(text)
        assert {t.is_word for t in toks} == {True, False}
        for tok in toks:
            surface = tok.surface
            is_word = any(c.isalnum() for c in surface)
            assert tok == Token(
                surface=surface,
                lowercased=surface.lower(),
                is_word=is_word,
                syllables=count_syllables(surface) if is_word else 0,
                char_count=len(surface),
            )


# Underscore, a combining mark, numerals that are not ASCII digits, spaces that
# are not ASCII, separators str.split() cuts at, format characters it does not
# cut at, and the punctuation at a word's edge: where the two rules could part.
_EDGE_ALPHABET = (
    "_\u0301²Ⅻ٣中\u00a0\u3000\u001c\u001d\u001e\u001f\u200b\ufeff—‘’“”'-."
    + string.ascii_letters + string.digits + "  "
)


class TestTokenizeMatchesIndexLoops:
    """Token equality compares every field: surface, case, word flag, syllables, length."""

    def test_random_strings(self):
        rng = random.Random(9)
        for _ in range(20_000):
            text = "".join(rng.choices(_EDGE_ALPHABET, k=rng.randrange(25)))
            assert tokenize(text) == oracle_tokenize(text), repr(text)

    def test_every_bmp_code_point(self):
        for cp in range(0x10000):
            ch = chr(cp)
            for text in (ch, "a" + ch + "b"):
                assert tokenize(text) == oracle_tokenize(text), hex(cp)


class TestCountSyllables:
    def test_examples(self):
        assert count_syllables("cat") == 1
        assert count_syllables("beautiful") == 3
        assert count_syllables("the") == 1

    def test_final_e(self):
        # "table": a + e groups, final e dropped -> 1 by this heuristic.
        assert count_syllables("table") == 1
        assert count_syllables("e") == 1

    def test_min_one(self):
        assert count_syllables("tsk") == 1

    @given(st.text(alphabet=string.ascii_letters, min_size=1, max_size=20))
    def test_at_least_one_and_pure(self, word):
        assert count_syllables(word) >= 1
        assert count_syllables(word) == count_syllables(word)


class TestWordTypeProportions:
    def test_basic(self):
        doc = make_document("d", "a b a c")
        assert word_type_proportions(doc, ["a", "b"]) == {"a": 0.5, "b": 0.25}

    def test_empty_doc(self):
        doc = make_document("d", "")
        assert word_type_proportions(doc, ["a", "b"]) == {"a": 0.0, "b": 0.0}

    def test_vocab_once_each(self):
        doc = make_document("d", "a b c")
        props = word_type_proportions(doc, ["a", "b", "c"])
        assert all(abs(v - 1 / 3) < 1e-12 for v in props.values())

    def test_oov_inflates_denominator(self):
        doc = make_document("d", "a zz zz zz")
        props = word_type_proportions(doc, ["a"])
        assert props == {"a": 0.25}
        assert sum(props.values()) < 1.0

    @given(
        st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=0, max_size=30)
    )
    def test_bounds(self, words):
        doc = make_document("d", " ".join(words))
        props = word_type_proportions(doc, ["a", "b"])
        assert all(0.0 <= v <= 1.0 for v in props.values())
        assert sum(props.values()) <= 1.0 + 1e-12


class TestAverages:
    def test_empty_is_zero(self):
        assert mean([]) == 0.0
        assert population_std([]) == 0.0

    def test_match_inline_expressions_bit_for_bit(self):
        rng = random.Random(5)
        for _ in range(2000):
            values = [rng.uniform(-50.0, 50.0) for _ in range(rng.randint(1, 12))]
            assert mean(values) == oracle_mean(values)
            assert population_std(values) == oracle_population_std(values)


class TestMakeDocument:
    def test_tokens_partition_into_sentences(self):
        doc = make_document("d", "The dog ran. It barked!")
        assert len(doc.sentences) == 2
        assert [[t.surface for t in s.tokens] for s in doc.sentences] == [
            ["The", "dog", "ran", "."], ["It", "barked", "!"]]
        assert doc.word_tokens == doc.sentences[0].word_tokens + doc.sentences[1].word_tokens

    def test_empty_doc_representable(self):
        doc = make_document("d", "")
        assert doc.sentences == ()
        assert doc.word_tokens == ()

    def test_nfc_normalization(self):
        # e + combining acute composes to a single character.
        doc = make_document("d", "café")
        assert doc.word_tokens[0].surface == "café"
        assert doc.word_tokens[0].char_count == 4
