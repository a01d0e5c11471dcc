"""POS tagging and tag-distribution features.

The tagger is a most-frequent-tag lexicon with suffix fallbacks; it is
deterministic and needs no trained model. All ratio features use Penn
tagset categories; empty denominators follow ``textcore.ratio``.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import SupportViolation
from .inputs import text_field, word_rows
from .textcore import Document, population_std, ratio, sum_in_order

NOUN_TAGS = {"NN", "NNS", "NNP", "NNPS"}
ADJECTIVE_TAGS = {"JJ", "JJR", "JJS"}
VERB_TAGS = {"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"}
ADVERB_TAGS = {"RB", "RBR", "RBS"}
MODAL_TAGS = {"MD"}
LEXICAL_TAGS = NOUN_TAGS | VERB_TAGS | ADJECTIVE_TAGS | ADVERB_TAGS

# per-word ratio -> the tags it counts; None counts the words whose tag is not lexical
PER_WORD_TAGS = {
    "nouns_per_word": NOUN_TAGS,
    "proper_nouns_per_word": {"NNP", "NNPS"},
    "pronouns_per_word": {"PRP", "PRP$", "WP", "WP$"},
    "conjunctions_per_word": {"CC"},
    "adjectives_per_word": ADJECTIVE_TAGS,
    "verbs_per_word": VERB_TAGS,
    "adverbs_per_word": ADVERB_TAGS,
    "modal_verbs_per_word": MODAL_TAGS,
    "prepositions_per_word": {"IN"},
    "interjections_per_word": {"UH"},
    "personal_pronouns_per_word": {"PRP"},
    "wh_pronouns_per_word": {"WP", "WP$"},
    "lexical_words_per_word": LEXICAL_TAGS,
    "function_words_per_word": None,
    "determiners_per_word": {"DT", "PDT", "WDT"},
    "vbs_per_word": {"VB"},
    "vbds_per_word": {"VBD"},
    "vbgs_per_word": {"VBG"},
    "vbns_per_word": {"VBN"},
    "vbps_per_word": {"VBP"},
    "vbzs_per_word": {"VBZ"},
}


# One tuple of (lowercased word, tag) pairs per sentence, word tokens only.
Tagged = tuple[tuple[tuple[str, str], ...], ...]


def load_tag_lexicon(path: str) -> dict[str, str]:
    """Load a ``word,tag`` CSV mapping lowercased words to Penn tags; a repeated word wins last."""
    _, rows = word_rows(path, width=2)
    return {word: text_field(path, rownum, "tag", tag) for rownum, word, (tag,) in rows}


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


def tag(doc: Document, lexicon: dict[str, str]) -> Tagged:
    """Tag every word token via lexicon lookup with suffix fallback."""
    sentences = []
    for sent in doc.sentences:
        pairs = []
        for pos, tok in enumerate(sent.word_tokens):
            t = lexicon.get(tok.lowercased)
            if t is None:
                t = _suffix_tag(tok.surface, pos)
            pairs.append((tok.lowercased, t))
        sentences.append(tuple(pairs))
    return tuple(sentences)


def _flat(tagged: Tagged) -> list[tuple[str, str]]:
    return [p for s in tagged for p in s]


def pos_ratios(tagged: Tagged) -> dict[str, float]:
    """The full battery of per-word POS ratios and verb-variation measures."""
    pairs = _flat(tagged)
    n = len(pairs)

    tag_count = Counter(t for _, t in pairs)

    def group(tags) -> int:
        return sum(tag_count[t] for t in tags)

    nouns = group(NOUN_TAGS)
    verbs = group(VERB_TAGS)
    adjectives = group(ADJECTIVE_TAGS)
    adverbs = group(ADVERB_TAGS)
    modals = group(MODAL_TAGS)
    lexical = group(LEXICAL_TAGS)
    unique_verbs = len({w for w, t in pairs if t in VERB_TAGS})

    feats = {
        name: ratio(n - lexical if tags is None else group(tags), n)
        for name, tags in PER_WORD_TAGS.items()
    }
    feats.update({
        "adverb_variation": ratio(adverbs, lexical),
        "adjective_variation": ratio(adjectives, lexical),
        "modal_verb_variation": ratio(modals, lexical),
        "noun_variation": ratio(nouns, lexical),
        "verb_variation_i": ratio(verbs, unique_verbs),
        "verb_variation_ii": ratio(verbs, lexical),
        "squared_verb_variation_i": ratio(verbs * verbs, unique_verbs),
        "corrected_verb_variation_i": ratio(verbs, math.sqrt(2 * unique_verbs)),
    })
    return feats


POS_FEATURE_NAMES = list(pos_ratios(()))


def _distribution(pairs) -> dict[str, float]:
    counts: dict[str, int] = {}
    for _, t in pairs:
        counts[t] = counts.get(t, 0) + 1
    total = sum(counts.values())
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


def pos_deviation(tagged: Tagged) -> float:
    """Population std of the document tag-proportion vector (tags present)."""
    return population_std(list(_distribution(_flat(tagged)).values()))


def pos_divergence(tagged: Tagged) -> float:
    """Mean per-sentence KL divergence from the document tag distribution."""
    q = _distribution(_flat(tagged))
    total = sum_in_order(kl_divergence(_distribution(s), q) for s in tagged if s)
    return ratio(total, len(tagged))
