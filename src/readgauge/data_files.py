"""Bundled demonstration resources: word pools, grammar, lexicons, norms.

The same pools drive the synthetic corpus generator and the packaged
resource files, so synthetic documents always parse under the bundled
grammar and are fully covered by the bundled tag lexicon and norms.
"""

from __future__ import annotations

import csv
import hashlib
import os

from .lexicons import PSYCHOLINGUISTIC_FEATURE_NAMES

EASY_NOUNS = [
    "cat", "dog", "sun", "hat", "ball", "cup", "bed", "fish", "bird",
    "tree", "boy", "girl", "car", "box", "man", "lake", "road", "door",
]
HARD_NOUNS = [
    "phenomenon", "bureaucracy", "hypothesis", "infrastructure", "paradigm",
    "legislation", "municipality", "configuration", "repercussion",
    "jurisdiction", "interpretation", "apparatus",
]
EASY_ADJECTIVES = ["big", "red", "old", "sad", "wet", "new", "tall"]
HARD_ADJECTIVES = [
    "magnificent", "extraordinary", "complicated", "unprecedented",
    "sophisticated", "considerable", "ambiguous",
]
EASY_VERBS = ["runs", "sees", "eats", "hits", "likes", "finds", "takes"]
HARD_VERBS = [
    "investigates", "demonstrates", "contemplates", "articulates",
    "accumulates", "scrutinizes",
]
DETERMINERS = ["the", "a"]
PREPOSITIONS = ["in", "on", "near", "with"]
CONJUNCTIONS = ["and", "but"]

NOUNS = EASY_NOUNS + HARD_NOUNS
ADJECTIVES = EASY_ADJECTIVES + HARD_ADJECTIVES
VERBS = EASY_VERBS + HARD_VERBS
EASY_WORDS = set(EASY_NOUNS + EASY_ADJECTIVES + EASY_VERBS)

GRAMMAR_FILE = "demo_grammar.txt"
TAG_LEXICON_FILE = "tag_lexicon.csv"
NORMS_FILE = "norms.csv"
SENSES_FILE = "senses.csv"
DIFFICULTY_ORDER_FILE = "difficulty_order.txt"


def _jitter(word: str, column: str, lo: float, hi: float) -> float:
    """Deterministic pseudo-rating in [lo, hi] derived from a stable hash."""
    digest = hashlib.md5(f"{column}:{word}".encode()).hexdigest()
    frac = int(digest[:8], 16) / 0xFFFFFFFF
    return round(lo + (hi - lo) * frac, 3)


def grammar_text() -> str:
    lines = [
        "// Demonstration treebank-style grammar over the bundled word pools.",
        "%start S",
        "S -> NP VP # 0.75",
        "S -> S CC S # 0.25",
        "NP -> DT NN # 0.5",
        "NP -> DT JJ NN # 0.3",
        "NP -> NP PP # 0.2",
        "VP -> VBZ NP # 0.5",
        "VP -> VBZ # 0.2",
        "VP -> VP PP # 0.3",
        "PP -> IN NP # 1.0",
    ]

    def lexical(tag: str, words: list[str]) -> list[str]:
        p = 1.0 / len(words)
        # Give the last word the residual so the probabilities sum to 1.
        probs = [p] * (len(words) - 1)
        probs.append(1.0 - sum(probs))
        return [f"{tag} -> '{w}' # {prob:.10f}" for w, prob in zip(words, probs)]

    lines += lexical("DT", DETERMINERS)
    lines += lexical("NN", NOUNS)
    lines += lexical("JJ", ADJECTIVES)
    lines += lexical("VBZ", VERBS)
    lines += lexical("IN", PREPOSITIONS)
    lines += lexical("CC", CONJUNCTIONS)
    return "\n".join(lines) + "\n"


def tag_lexicon_rows() -> list[tuple[str, str]]:
    rows = [(w, "DT") for w in DETERMINERS]
    rows += [(w, "NN") for w in NOUNS]
    rows += [(w, "JJ") for w in ADJECTIVES]
    rows += [(w, "VBZ") for w in VERBS]
    rows += [(w, "IN") for w in PREPOSITIONS]
    rows += [(w, "CC") for w in CONJUNCTIONS]
    return rows


def norms_rows() -> list[list[str]]:
    words = sorted(set(NOUNS + ADJECTIVES + VERBS + DETERMINERS + PREPOSITIONS + CONJUNCTIONS))
    rows = []
    for w in words:
        easy = w in EASY_WORDS or w in DETERMINERS or w in PREPOSITIONS or w in CONJUNCTIONS
        row = [w]
        for col in PSYCHOLINGUISTIC_FEATURE_NAMES:
            if col.startswith("aoa"):
                lo, hi = (3.0, 6.0) if easy else (10.0, 15.0)
            else:
                lo, hi = (500.0, 650.0) if easy else (250.0, 420.0)
            row.append(f"{_jitter(w, col, lo, hi)}")
        rows.append(row)
    return rows


def senses_rows() -> list[list[str]]:
    rows = []
    for w in sorted(set(NOUNS + ADJECTIVES + VERBS)):
        easy = w in EASY_WORDS
        lo, hi = (3, 9) if easy else (1, 3)
        senses = int(round(_jitter(w, "senses", lo, hi)))
        hyper = int(round(_jitter(w, "hypernyms", 1, 4)))
        hypo = int(round(_jitter(w, "hyponyms", 0, 6)))
        rows.append([w, str(senses), str(hyper), str(hypo)])
    return rows


def write_default_resources(out_dir: str) -> dict[str, str]:
    """Write the bundled resource files into a directory; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    grammar_path = os.path.join(out_dir, GRAMMAR_FILE)
    with open(grammar_path, "w", encoding="utf-8") as fh:
        fh.write(grammar_text())
    paths["grammar"] = grammar_path

    lex_path = os.path.join(out_dir, TAG_LEXICON_FILE)
    with open(lex_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "tag"])
        writer.writerows(tag_lexicon_rows())
    paths["tag_lexicon"] = lex_path

    norms_path = os.path.join(out_dir, NORMS_FILE)
    with open(norms_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word"] + PSYCHOLINGUISTIC_FEATURE_NAMES)
        writer.writerows(norms_rows())
    paths["norms"] = norms_path

    senses_path = os.path.join(out_dir, SENSES_FILE)
    with open(senses_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "senses", "hypernyms", "hyponyms"])
        writer.writerows(senses_rows())
    paths["senses"] = senses_path

    order_path = os.path.join(out_dir, DIFFICULTY_ORDER_FILE)
    with open(order_path, "w", encoding="utf-8") as fh:
        fh.write("level_0\nlevel_1\nlevel_2\n")
    paths["difficulty_order"] = order_path
    return paths


def default_data_dir() -> str:
    env = os.environ.get("READGAUGE_DATA")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data")
