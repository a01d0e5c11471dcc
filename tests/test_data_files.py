"""The bundled resource files cover exactly the words synth draws from."""

import os

from readgauge import synth
from readgauge.data_files import (
    GRAMMAR_FILE,
    NORMS_FILE,
    SENSES_FILE,
    TAG_LEXICON_FILE,
    default_data_dir,
)
from readgauge.grammar import load_grammar
from readgauge.lexicons import PSYCHOLINGUISTIC_FEATURE_NAMES, load_norms, load_senses
from readgauge.pos_features import load_tag_lexicon

POOLS = {
    "DT": synth.DETERMINERS,
    "NN": synth.NOUNS,
    "JJ": synth.ADJECTIVES,
    "VBZ": synth.VERBS,
    "IN": synth.PREPOSITIONS,
    "CC": synth.CONJUNCTIONS,
}
POOL_WORDS = {w for words in POOLS.values() for w in words}


def bundled(name):
    return os.path.join(default_data_dir(), name)


def test_bundled_directory_holds_exactly_the_named_files():
    names = {GRAMMAR_FILE, TAG_LEXICON_FILE, NORMS_FILE, SENSES_FILE}
    assert set(os.listdir(default_data_dir())) == names


def test_grammar_terminals_are_the_pool_words():
    assert load_grammar(bundled(GRAMMAR_FILE)).terminals == POOL_WORDS


def test_tag_lexicon_tags_each_pool_word_with_its_pool():
    expected = {w: tag for tag, words in POOLS.items() for w in words}
    assert len(expected) == len(POOL_WORDS)
    assert load_tag_lexicon(bundled(TAG_LEXICON_FILE)) == expected


def test_every_norms_column_covers_the_pool_words():
    tables = load_norms(bundled(NORMS_FILE))
    assert list(tables) == PSYCHOLINGUISTIC_FEATURE_NAMES
    for name, table in tables.items():
        assert set(table) == POOL_WORDS, name


def test_senses_cover_the_content_words():
    entries = load_senses(bundled(SENSES_FILE))
    assert set(entries) == set(synth.NOUNS + synth.ADJECTIVES + synth.VERBS)
