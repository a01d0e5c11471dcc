"""Deterministic sentence segmentation, tokenization and word statistics.

Everything here is rule-based and pure: the same raw text always yields the
same Document, so every downstream feature is reproducible.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

# Sentence-final abbreviations that must not trigger a split.
ABBREVIATIONS = {
    "dr", "mr", "mrs", "ms", "st", "prof", "jr", "sr", "rev", "gen",
    "etc", "vs", "e.g", "i.e", "fig", "al", "inc", "ltd", "co",
}

VOWELS = set("aeiouy")

# Characters that stay inside a word when surrounded by alphanumerics.
_WORD_INTERNAL = set("'’-")


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
    index_in_doc: int

    # Built once per object: cached_property stores the tuple in the instance
    # __dict__, outside the dataclass fields, so equality and hashing ignore it.
    @cached_property
    def word_tokens(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if t.is_word)


@dataclass(frozen=True)
class RawLabel:
    class_name: str
    age_low: Optional[float] = None
    age_high: Optional[float] = None


@dataclass(frozen=True)
class Document:
    doc_id: str
    raw_text: str
    sentences: tuple[Sentence, ...]
    label: Optional[RawLabel] = None

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(t for s in self.sentences for t in s.tokens)

    @cached_property
    def word_tokens(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if t.is_word)


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
    return [p for p in pieces if p]


def count_syllables(word: str) -> int:
    """Vowel-group syllable heuristic with a silent final 'e' rule, min 1."""
    w = word.lower()
    groups = len(re.findall(r"[aeiouy]+", w))
    if w.endswith("e") and groups > 1:
        groups -= 1
    return max(groups, 1)


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
    """Whitespace tokenization with leading/trailing punctuation split off.

    Apostrophes and internal hyphens stay word-internal; every stripped
    punctuation character becomes its own non-word token.
    """
    tokens: list[Token] = []
    for chunk in sentence.split():
        core_start = 0
        core_end = len(chunk)
        while core_start < core_end and not chunk[core_start].isalnum():
            core_start += 1
        while core_end > core_start and not (
            chunk[core_end - 1].isalnum()
        ):
            core_end -= 1
        leading = chunk[:core_start]
        core = chunk[core_start:core_end]
        trailing = chunk[core_end:]
        for c in leading:
            tokens.append(_make_token(c))
        if core:
            tokens.append(_make_token(core))
        for c in trailing:
            tokens.append(_make_token(c))
    return tokens


def make_document(doc_id: str, raw_text: str, label: Optional[RawLabel] = None) -> Document:
    """Segment and tokenize raw text into an immutable Document."""
    text = unicodedata.normalize("NFC", raw_text)
    sentences = []
    idx = 0
    for sent in split_sentences(text):
        toks = tokenize(sent)
        if not toks:
            continue
        sentences.append(Sentence(tokens=tuple(toks), index_in_doc=idx))
        idx += 1
    return Document(doc_id=doc_id, raw_text=text, sentences=tuple(sentences), label=label)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the denominator is zero."""
    return num / den if den else 0.0


def word_type_proportions(doc: Document, vocab: list[str]) -> dict[str, float]:
    """Per-vocab-word occurrence proportions over the document's word tokens.

    Out-of-vocabulary words only inflate the denominator; an empty document
    maps every vocab entry to zero.
    """
    words = [t.lowercased for t in doc.word_tokens]
    n = len(words)
    if n == 0:
        return {w: 0.0 for w in vocab}
    counts: dict[str, int] = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    return {w: counts.get(w, 0) / n for w in vocab}
