"""Synthetic labeled corpus generator.

Difficulty is injected through sentence length (more modifiers, PP chains
and clause coordination) and the rate of rare polysyllabic words, so
surface formulas, word types and parse features all carry signal. Every
generated sentence is derivable under the bundled demonstration grammar.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass

from .errors import BadSize
from .inputs import write_atomic

# The bundled grammar, tag lexicon, norms and sense counts cover exactly
# these words; tests/test_data_files.py checks that they agree.
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

CLASS_AGE_RANGES = {
    "level_0": (7.0, 8.0),
    "level_1": (9.0, 10.0),
    "level_2": (11.0, 12.0),
}


@dataclass(frozen=True)
class ClassProfile:
    hard_rate: float  # chance of drawing from the rare polysyllabic pools
    adjective_rate: float
    pp_rate: float  # chance of appending a prepositional phrase
    coord_rate: float  # chance of coordinating two clauses
    sentences: tuple[int, int]


PROFILES = {
    "level_0": ClassProfile(0.03, 0.15, 0.10, 0.00, (5, 7)),
    "level_1": ClassProfile(0.35, 0.45, 0.45, 0.25, (6, 8)),
    "level_2": ClassProfile(0.75, 0.75, 0.80, 0.55, (7, 9)),
}


def _pick(rng: random.Random, easy: list[str], hard: list[str], hard_rate: float) -> str:
    pool = hard if rng.random() < hard_rate else easy
    return rng.choice(pool)


def _noun_phrase(rng: random.Random, p: ClassProfile, allow_pp: bool = True) -> list[str]:
    words = [rng.choice(DETERMINERS)]
    if rng.random() < p.adjective_rate:
        words.append(_pick(rng, EASY_ADJECTIVES, HARD_ADJECTIVES, p.hard_rate))
    words.append(_pick(rng, EASY_NOUNS, HARD_NOUNS, p.hard_rate))
    if allow_pp and rng.random() < p.pp_rate:
        words.append(rng.choice(PREPOSITIONS))
        words.extend(_noun_phrase(rng, p, allow_pp=False))
    return words


def _clause(rng: random.Random, p: ClassProfile) -> list[str]:
    words = _noun_phrase(rng, p)
    words.append(_pick(rng, EASY_VERBS, HARD_VERBS, p.hard_rate))
    words.extend(_noun_phrase(rng, p))
    return words


def _sentence(rng: random.Random, p: ClassProfile) -> str:
    words = _clause(rng, p)
    if rng.random() < p.coord_rate:
        words.append(rng.choice(CONJUNCTIONS))
        words.extend(_clause(rng, p))
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def generate_document_text(rng: random.Random, class_name: str) -> str:
    profile = PROFILES[class_name]
    n_sentences = rng.randint(*profile.sentences)
    return " ".join(_sentence(rng, profile) for _ in range(n_sentences))


def generate_corpus(
    out_dir: str, n_docs: int = 600, n_classes: int = 3, seed: int = 7
) -> str:
    """Write a labeled corpus (docs/, difficulty_order.txt, then manifest.csv);
    returns the manifest path. A path that cannot be written raises ``BadOutput``."""
    if n_classes not in (2, 3):
        raise BadSize(f"{n_classes} classes: the generator makes 2 or 3")
    if n_docs < 1:
        raise BadSize(f"{n_docs} documents: the generator makes at least 1")
    class_names = [f"level_{i}" for i in range(n_classes)]
    rng = random.Random(seed)
    rows = []
    for i in range(n_docs):
        class_name = class_names[i % n_classes]
        doc_id = f"doc{i:04d}"
        text = generate_document_text(rng, class_name) + "\n"
        path = os.path.join("docs", f"{doc_id}.txt")
        write_atomic(os.path.join(out_dir, path), lambda fh: fh.write(text))
        lo, hi = CLASS_AGE_RANGES[class_name]
        rows.append([doc_id, path, class_name, f"{lo}", f"{hi}"])
    order = "".join(name + "\n" for name in class_names)
    write_atomic(os.path.join(out_dir, "difficulty_order.txt"), lambda fh: fh.write(order))
    header = ["doc_id", "path", "class_name", "age_low", "age_high"]
    manifest_path = os.path.join(out_dir, "manifest.csv")
    return write_atomic(manifest_path, lambda fh: csv.writer(fh).writerows([header, *rows]))
