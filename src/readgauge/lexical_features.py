"""Traditional readability formulas and lexical-diversity measures."""

from __future__ import annotations

import math

from .textcore import Document, make_document, ratio

MTLD_THRESHOLD = 0.72
MTLD_MIN_TOKENS = 10


def surface_stats(doc: Document) -> dict[str, float]:
    """Counts and per-unit rates over word tokens, keyed by name; punctuation is excluded.

    Polysyllabic means more than two syllables, long means seven or more
    characters; empty denominators follow ``textcore.ratio``.
    """
    words = doc.word_tokens
    n_sentences = len(doc.sentences)
    n_words = len(words)
    n_characters = sum(t.char_count for t in words)
    n_syllables = sum(t.syllables for t in words)
    poly = sum(1 for t in words if t.syllables > 2)
    mono = sum(1 for t in words if t.syllables == 1)
    long_words = sum(1 for t in words if t.char_count >= 7)

    return {
        "n_sentences": n_sentences,
        "n_words": n_words,
        "n_characters": n_characters,
        "n_syllables": n_syllables,
        "words_per_sentence": ratio(n_words, n_sentences),
        "syllables_per_word": ratio(n_syllables, n_words),
        "characters_per_word": ratio(n_characters, n_words),
        "sentences_per_word": ratio(n_sentences, n_words),
        "prop_polysyllabic": ratio(poly, n_words),
        "prop_monosyllabic": ratio(mono, n_words),
        "prop_long_words": ratio(long_words, n_words),
        "polysyllabic_per_sentence": ratio(poly, n_sentences),
    }


def traditional_scores(stats: dict[str, float]) -> dict[str, float]:
    """The eight closed-form readability formulas over ``surface_stats``, keyed by column name."""
    wps = stats["words_per_sentence"]
    spw = stats["syllables_per_word"]
    cpw = stats["characters_per_word"]
    return {
        "flesch_kincaid": 11.8 * spw + 0.39 * wps - 15.59,
        "flesch": 206.835 - 1.015 * wps - 84.6 * spw,
        "automated_readability_index": 4.71 * cpw + 0.5 * wps - 21.43,
        "coleman_liau": -29.5873 * stats["sentences_per_word"] + 5.8799 * cpw - 15.8007,
        "smog": 1.0430 * math.sqrt(30.0 * stats["polysyllabic_per_sentence"]) + 3.1291,
        "fog": (wps + stats["prop_polysyllabic"]) * 0.4,
        "forcast": 20.0 - 15.0 * stats["prop_monosyllabic"],
        "lix": wps + stats["prop_long_words"] * 100.0,
    }


def traditional_features(doc: Document) -> dict[str, float]:
    """The traditional group's columns: four surface counts, then the formulas."""
    stats = surface_stats(doc)
    return {
        "number_of_sentences": float(stats["n_sentences"]),
        "mean_sentence_length": stats["words_per_sentence"],
        "number_of_characters": float(stats["n_characters"]),
        "number_of_syllables": float(stats["n_syllables"]),
        **traditional_scores(stats),
    }


def ttr_measures(doc: Document) -> dict[str, float]:
    """Type-token ratio family plus MTLD over lowercased word surfaces."""
    tokens = [t.lowercased for t in doc.word_tokens]
    n = len(tokens)
    types = len(set(tokens))

    # math.log(0) has no value, so an empty document is zero before any ratio.
    bilog = ratio(math.log(types), math.log(n)) if n else 0.0
    uber = ratio(math.log(types) ** 2, math.log(n / types)) if n else 0.0
    return {
        "type_token_ratio": ratio(types, n),
        "corrected_type_token_ratio": ratio(types, math.sqrt(2 * n)),
        "root_type_token_ratio": ratio(types, math.sqrt(n)),
        "bilogarithmic_type_token_ratio": bilog,
        "uber_index": uber,
        "mtld": mtld(tokens),
    }


def _mtld_factors(tokens: list[str]) -> float:
    """Factor count for one scan direction, with the partial-factor tail."""
    factors = 0.0
    seen: set[str] = set()
    count = 0
    ttr = 1.0
    for tok in tokens:
        count += 1
        seen.add(tok)
        ttr = len(seen) / count
        if ttr < MTLD_THRESHOLD:
            factors += 1.0
            seen.clear()
            count = 0
            ttr = 1.0
    if count > 0:
        factors += (1.0 - ttr) / (1.0 - MTLD_THRESHOLD)
    return factors


def mtld(tokens: list[str]) -> float:
    """Bidirectional measure of textual lexical diversity.

    Returns tokens divided by the mean forward/backward factor count; zero
    for fewer than ten tokens or when no factor completes.
    """
    n = len(tokens)
    if n < MTLD_MIN_TOKENS:
        return 0.0
    forward = _mtld_factors(tokens)
    backward = _mtld_factors(list(reversed(tokens)))
    return ratio(n, (forward + backward) / 2.0)


TRADITIONAL_FEATURE_NAMES = list(traditional_features(make_document("", "")))
TTR_FEATURE_NAMES = list(ttr_measures(make_document("", "")))
