"""POS tagging and tag-distribution features.

The tagger is a most-frequent-tag lexicon with suffix fallbacks; it is
deterministic and needs no trained model. All ratio features use Penn
tagset categories, and every zero denominator yields zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MalformedRow, SupportViolation
from .inputs import csv_rows
from .textcore import Document, ratio

NOUN_TAGS = {"NN", "NNS", "NNP", "NNPS"}
PROPER_NOUN_TAGS = {"NNP", "NNPS"}
PRONOUN_TAGS = {"PRP", "PRP$", "WP", "WP$"}
CONJUNCTION_TAGS = {"CC"}
ADJECTIVE_TAGS = {"JJ", "JJR", "JJS"}
VERB_TAGS = {"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"}
ADVERB_TAGS = {"RB", "RBR", "RBS"}
MODAL_TAGS = {"MD"}
PREPOSITION_TAGS = {"IN"}
INTERJECTION_TAGS = {"UH"}
PERSONAL_PRONOUN_TAGS = {"PRP"}
WH_PRONOUN_TAGS = {"WP", "WP$"}
DETERMINER_TAGS = {"DT", "PDT", "WDT"}
LEXICAL_TAGS = NOUN_TAGS | VERB_TAGS | ADJECTIVE_TAGS | ADVERB_TAGS

POS_FEATURE_NAMES = [
    "nouns_per_word",
    "proper_nouns_per_word",
    "pronouns_per_word",
    "conjunctions_per_word",
    "adjectives_per_word",
    "verbs_per_word",
    "adverbs_per_word",
    "modal_verbs_per_word",
    "prepositions_per_word",
    "interjections_per_word",
    "personal_pronouns_per_word",
    "wh_pronouns_per_word",
    "lexical_words_per_word",
    "function_words_per_word",
    "determiners_per_word",
    "vbs_per_word",
    "vbds_per_word",
    "vbgs_per_word",
    "vbns_per_word",
    "vbps_per_word",
    "vbzs_per_word",
    "adverb_variation",
    "adjective_variation",
    "modal_verb_variation",
    "noun_variation",
    "verb_variation_i",
    "verb_variation_ii",
    "squared_verb_variation_i",
    "corrected_verb_variation_i",
]


@dataclass(frozen=True)
class TaggedSentence:
    pairs: tuple[tuple[str, str], ...]  # (lowercased word, tag) per word token


@dataclass(frozen=True)
class TaggedDocument:
    sentences: tuple[TaggedSentence, ...]

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(p for s in self.sentences for p in s.pairs)


def load_tag_lexicon(path: str) -> dict[str, str]:
    """Load a ``word,tag`` CSV mapping lowercased words to Penn tags."""
    _, rows = csv_rows(path, width=2)
    lexicon = {}
    for rownum, (word, tag) in rows:
        word, tag = word.strip().lower(), tag.strip()
        if not word or not tag:
            raise MalformedRow(f"{path}: row {rownum}: empty {'tag' if word else 'word'}")
        lexicon[word] = tag
    return lexicon


def _suffix_tag(surface: str, position: int) -> str:
    lower = surface.lower()
    if lower.endswith("ly"):
        return "RB"
    if lower.endswith("ing"):
        return "VBG"
    if lower.endswith("ed"):
        return "VBD"
    if lower.endswith("s"):
        return "NNS"
    if position > 0 and surface[:1].isupper():
        return "NNP"
    return "NN"


def tag(doc: Document, lexicon: dict[str, str]) -> TaggedDocument:
    """Tag every word token via lexicon lookup with suffix fallback."""
    sentences = []
    for sent in doc.sentences:
        pairs = []
        for pos, tok in enumerate(sent.tokens):
            if not tok.is_word:
                continue
            t = lexicon.get(tok.lowercased)
            if t is None:
                t = _suffix_tag(tok.surface, pos)
            pairs.append((tok.lowercased, t))
        sentences.append(TaggedSentence(pairs=tuple(pairs)))
    return TaggedDocument(sentences=tuple(sentences))


def pos_ratios(tagged: TaggedDocument) -> dict[str, float]:
    """The full battery of per-word POS ratios and verb-variation measures."""
    pairs = tagged.pairs
    n = len(pairs)

    tag_count: dict[str, int] = {}
    for _, t in pairs:
        tag_count[t] = tag_count.get(t, 0) + 1

    def group(tags) -> int:
        return sum(tag_count.get(t, 0) for t in tags)

    nouns = group(NOUN_TAGS)
    verbs = group(VERB_TAGS)
    adjectives = group(ADJECTIVE_TAGS)
    adverbs = group(ADVERB_TAGS)
    modals = group(MODAL_TAGS)
    lexical = group(LEXICAL_TAGS)
    unique_verbs = len({w for w, t in pairs if t in VERB_TAGS})

    return {
        "nouns_per_word": ratio(nouns, n),
        "proper_nouns_per_word": ratio(group(PROPER_NOUN_TAGS), n),
        "pronouns_per_word": ratio(group(PRONOUN_TAGS), n),
        "conjunctions_per_word": ratio(group(CONJUNCTION_TAGS), n),
        "adjectives_per_word": ratio(adjectives, n),
        "verbs_per_word": ratio(verbs, n),
        "adverbs_per_word": ratio(adverbs, n),
        "modal_verbs_per_word": ratio(modals, n),
        "prepositions_per_word": ratio(group(PREPOSITION_TAGS), n),
        "interjections_per_word": ratio(group(INTERJECTION_TAGS), n),
        "personal_pronouns_per_word": ratio(group(PERSONAL_PRONOUN_TAGS), n),
        "wh_pronouns_per_word": ratio(group(WH_PRONOUN_TAGS), n),
        "lexical_words_per_word": ratio(lexical, n),
        "function_words_per_word": ratio(n - lexical, n),
        "determiners_per_word": ratio(group(DETERMINER_TAGS), n),
        "vbs_per_word": ratio(tag_count.get("VB", 0), n),
        "vbds_per_word": ratio(tag_count.get("VBD", 0), n),
        "vbgs_per_word": ratio(tag_count.get("VBG", 0), n),
        "vbns_per_word": ratio(tag_count.get("VBN", 0), n),
        "vbps_per_word": ratio(tag_count.get("VBP", 0), n),
        "vbzs_per_word": ratio(tag_count.get("VBZ", 0), n),
        "adverb_variation": ratio(adverbs, lexical),
        "adjective_variation": ratio(adjectives, lexical),
        "modal_verb_variation": ratio(modals, lexical),
        "noun_variation": ratio(nouns, lexical),
        "verb_variation_i": ratio(verbs, unique_verbs),
        "verb_variation_ii": ratio(verbs, lexical),
        "squared_verb_variation_i": ratio(verbs * verbs, unique_verbs),
        "corrected_verb_variation_i": ratio(verbs, math.sqrt(2 * unique_verbs)) if unique_verbs else 0.0,
    }


def _distribution(pairs) -> dict[str, float]:
    counts: dict[str, int] = {}
    for _, t in pairs:
        counts[t] = counts.get(t, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {t: c / total for t, c in sorted(counts.items())}


def kl_divergence(p: dict[str, float], q: dict[str, float]) -> float:
    """Discrete KL divergence in nats; requires support(p) within support(q)."""
    total = 0.0
    for t, pv in p.items():
        if pv <= 0.0:
            continue
        qv = q.get(t, 0.0)
        if qv <= 0.0:
            raise SupportViolation(f"tag {t!r} has p > 0 but q = 0")
        total += pv * math.log(pv / qv)
    return total


def pos_deviation(tagged: TaggedDocument) -> float:
    """Population std of the document tag-proportion vector (tags present)."""
    dist = _distribution(tagged.pairs)
    if not dist:
        return 0.0
    values = list(dist.values())
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def pos_divergence(tagged: TaggedDocument) -> float:
    """Mean per-sentence KL divergence from the document tag distribution."""
    q = _distribution(tagged.pairs)
    if not q or not tagged.sentences:
        return 0.0
    total = sum(
        kl_divergence(_distribution(s.pairs), q)
        for s in tagged.sentences
        if s.pairs
    )
    return total / len(tagged.sentences)
