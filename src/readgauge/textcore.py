"""Deterministic sentence segmentation, tokenization and word statistics.

Everything here is rule-based and pure: the same raw text always yields the
same Document, so every downstream feature is reproducible. It also holds
the feature battery's zero rule and averages: ``ratio``, ``mean`` and
``population_std`` give 0.0 over an empty denominator or list.
"""

from __future__ import annotations

import math
import operator
import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Optional

# Sentence-final abbreviations that must not trigger a split.
ABBREVIATIONS = {
    "dr", "mr", "mrs", "ms", "st", "prof", "jr", "sr", "rev", "gen",
    "etc", "vs", "e.g", "i.e", "fig", "al", "inc", "ltd", "co",
}

_VOWEL_GROUP = re.compile(r"[aeiouy]+")

# [^\W_] is str.isalnum() and \S is str.split()'s not-isspace(): a chunk's
# first-to-last alphanumeric span is one token, every character outside it another.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")


@dataclass(frozen=True)
class Token:
    surface: str
    lowercased: str
    is_word: bool
    syllables: int
    char_count: int


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    # Built once per object: cached_property stores the tuple in the instance
    # __dict__, outside the dataclass fields, so equality and hashing ignore it.
    @cached_property
    def word_tokens(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if t.is_word)


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[Sentence, ...]
    label: Optional[str] = None

    @cached_property
    def word_tokens(self) -> tuple[Token, ...]:
        return tuple(t for s in self.sentences for t in s.word_tokens)


_BOUNDARY = re.compile(r"([.?!]+)(\s+)(?=[\"'(“‘]?[A-Z0-9])")


def split_sentences(raw_text: str) -> list[str]:
    """Split raw text into sentence strings.

    Splits at sentence-final ``.?!`` followed by whitespace and a capital,
    except after a known abbreviation. Concatenating the results (modulo
    whitespace) reproduces the input.
    """
    text = unicodedata.normalize("NFC", raw_text)
    if not text.strip():
        return []
    pieces = []
    start = 0
    for m in _BOUNDARY.finditer(text):
        end_punct = m.end(1)
        # Word immediately before the punctuation run.
        before = text[start:m.start(1)]
        last_word = re.findall(r"[\w.'-]+$", before)
        if m.group(1).startswith(".") and last_word:
            w = last_word[0].rstrip(".").lower()
            if w in ABBREVIATIONS or (len(w) == 1 and w.isalpha()):
                continue
        pieces.append(text[start:end_punct].strip())
        start = m.end(2)
    tail = text[start:].strip()
    if tail:
        pieces.append(tail)
    return pieces


def count_syllables(word: str) -> int:
    """Vowel-group syllable heuristic with a silent final 'e' rule, min 1."""
    w = word.lower()
    groups = len(_VOWEL_GROUP.findall(w))
    if w.endswith("e") and groups > 1:
        groups -= 1
    return max(groups, 1)


# Token is frozen, so every occurrence of a surface can share one instance.
@lru_cache(maxsize=1 << 16)
def _make_token(surface: str) -> Token:
    is_word = any(c.isalnum() for c in surface)
    return Token(
        surface=surface,
        lowercased=surface.lower(),
        is_word=is_word,
        syllables=count_syllables(surface) if is_word else 0,
        char_count=len(surface),
    )


def tokenize(sentence: str) -> list[Token]:
    """Split each whitespace-separated chunk at its first and last alphanumeric.

    Everything between those two characters (apostrophes, hyphens, slashes,
    periods, underscores) stays in one word token; every character before or
    after them becomes its own non-word token.
    """
    return [_make_token(t) for t in _TOKEN.findall(sentence)]


def make_document(doc_id: str, raw_text: str, label: Optional[str] = None) -> Document:
    """Segment and tokenize raw text into an immutable Document."""
    sentences = tuple(Sentence(tokens=tuple(tokenize(s))) for s in split_sentences(raw_text))
    return Document(doc_id=doc_id, sentences=sentences, label=label)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the denominator is zero."""
    return num / den if den else 0.0


def sum_in_order(values: Iterable[float]) -> float:
    """``values`` added left to right from 0 on every interpreter; the builtin
    ``sum`` compensates float rounding from Python 3.12 on."""
    return reduce(operator.add, values, 0)


def mean(values: list[float]) -> float:
    """Arithmetic mean summed in input order on every interpreter, or 0.0 for an empty list."""
    return ratio(sum_in_order(values), len(values))


def population_std(values: list[float]) -> float:
    """Population standard deviation, or 0.0 for an empty list."""
    m = mean(values)
    return math.sqrt(mean([(v - m) ** 2 for v in values]))


def word_type_proportions(doc: Document, vocab: list[str]) -> dict[str, float]:
    """Per-vocab-word occurrence proportions over the document's word tokens.

    Out-of-vocabulary words only inflate the denominator; an empty document
    maps every vocab entry to zero.
    """
    words = [t.lowercased for t in doc.word_tokens]
    n = len(words)
    counts: dict[str, int] = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    return {w: ratio(counts.get(w, 0), n) for w in vocab}
