"""The ambiguous-parse corpus: long PP chains and clause coordination.

Every sentence is built from a *shape*: a tuple of clauses, each clause a
``(subject_pps, object_pps, adjectives)`` triple, joined by conjunctions.
A clause reads ``DT [JJ] NN (IN DT [JJ] NN)*s VBZ DT [JJ] NN (IN DT [JJ] NN)*m``
(``adjectives`` puts a JJ in every NP of the clause). The shape list below is
fixed, so the work per run does not depend on the seed; the seed only picks
the words, from the bundled grammar's own lexical rules.

Under the bundled grammar a shape's number of readings and the node count
shared by all of its parse trees follow in closed form, which is what the
independent checks compare the parser against.
"""

from __future__ import annotations

import csv
import math
import os
import random
import re
from typing import Optional

# (shape, count) in order of increasing difficulty; docs are filled in this
# order, so the first docs are small enough to enumerate exhaustively.
PLAN: list[tuple[tuple[tuple[int, int, int], ...], int]] = [
    (((0, 0, 0),), 10),
    (((0, 1, 0),), 8),
    (((1, 0, 0),), 6),
    (((0, 2, 0),), 8),
    (((1, 1, 0),), 6),
    (((0, 3, 0),), 6),
    (((0, 1, 0), (0, 1, 0)), 6),
    (((0, 2, 1),), 4),
    (((0, 4, 0),), 4),
    (((0, 5, 0),), 4),
    (((0, 6, 0),), 4),
    (((0, 5, 1),), 2),
    (((1, 6, 0),), 2),
    (((0, 3, 0), (0, 3, 0)), 3),
    (((0, 7, 0),), 3),
    (((0, 2, 0), (0, 2, 0), (0, 2, 0)), 2),
    (((0, 4, 0), (0, 4, 0)), 2),
    (((0, 8, 0),), 2),
    (((0, 8, 1),), 1),
    (((0, 9, 0),), 2),
    (((1, 9, 0),), 1),
]

# Sentences the parser must skip: over the 40-word cap, or with a word the
# grammar does not know (the OOV word replaces the first object noun).
OVER_CAP_SHAPES: list[tuple[tuple[int, int, int], ...]] = [
    ((0, 2, 0),) * 4,
    ((0, 9, 1),),
] * 3
OOV_SHAPE: tuple[tuple[int, int, int], ...] = ((0, 2, 0),)
OOV_WORDS = ["zebra", "umbrella", "quietly", "yesterday", "lantern", "meadow"]

SENTENCES_PER_DOC = 4
SENTENCE_CAP = 40
CLASSES = ("level_0", "level_1", "level_2")


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1) if n >= 0 else 0


def shape_readings(shape) -> int:
    """Catalan(c-1) coordination bracketings times, per clause, Catalan(s)
    subject-PP nestings and Catalan(m+1) object-PP attachments."""
    total = catalan(len(shape) - 1)
    for s, m, _adj in shape:
        total *= catalan(s) * catalan(m + 1)
    return total


def shape_length(shape) -> int:
    words = len(shape) - 1  # conjunctions
    for s, m, adj in shape:
        nps = 2 + s + m
        words += nps * (2 + adj) + s + m + 1
    return words


def shape_subtrees(shape) -> int:
    """Proper subtrees of any parse: every reading has the same node count.

    A clause has S, the subject NP (DT, NN, [JJ]), the VP with VBZ and the
    object NP, and each PP adds PP, IN, its NP and one attachment node.
    """
    nodes = 2 * (len(shape) - 1)  # S and CC per coordination
    for s, m, adj in shape:
        nodes += 9 + 2 * adj + (s + m) * (6 + adj)
    return nodes - 1


def grammar_vocabulary(grammar_path: str) -> dict[str, list[str]]:
    """Preterminal -> words, read from the lexical rules of a grammar file."""
    vocab: dict[str, list[str]] = {}
    rule = re.compile(r"^(\S+)\s*->\s*'([^']+)'\s*#")
    with open(grammar_path, encoding="utf-8") as fh:
        for line in fh:
            m = rule.match(line.split("//", 1)[0].strip())
            if m:
                vocab.setdefault(m.group(1), []).append(m.group(2))
    return vocab


def tag_readings(tags: list[str]) -> int:
    """Readings of a tagged sentence of the clause pattern above.

    Works from tags alone, so it also covers synth sentences; an
    intransitive verb leaves only Catalan(m) VP attachments.
    """
    clauses: list[list[str]] = [[]]
    for tag in tags:
        if tag == "CC":
            clauses.append([])
        else:
            clauses[-1].append(tag)
    total = catalan(len(clauses) - 1)
    for clause in clauses:
        v = clause.index("VBZ")
        s = clause[:v].count("IN")
        m = clause[v:].count("IN")
        transitive = v + 1 < len(clause) and clause[v + 1] == "DT"
        total *= catalan(s) * catalan(m + 1 if transitive else m)
    return total


class Sentence:
    """One generated sentence with what the checks need to know about it."""

    def __init__(self, words: list[str], shape, skip: Optional[str]):
        self.words = words
        self.shape = shape
        self.skip = skip  # None, "over_cap" or "no_parse"

    @property
    def text(self) -> str:
        return " ".join([self.words[0].capitalize()] + self.words[1:]) + "."


def _clause_words(rng: random.Random, vocab, s: int, m: int, adj: int) -> list[str]:
    def np() -> list[str]:
        words = [rng.choice(vocab["DT"])]
        if adj:
            words.append(rng.choice(vocab["JJ"]))
        return words + [rng.choice(vocab["NN"])]

    words = np()
    for _ in range(s):
        words += [rng.choice(vocab["IN"])] + np()
    words += [rng.choice(vocab["VBZ"])] + np()
    for _ in range(m):
        words += [rng.choice(vocab["IN"])] + np()
    return words


def sentence_words(rng: random.Random, vocab, shape) -> list[str]:
    words: list[str] = []
    for i, (s, m, adj) in enumerate(shape):
        if i:
            words.append(rng.choice(vocab["CC"]))
        words += _clause_words(rng, vocab, s, m, adj)
    return words


def generate_sentences(seed: int, grammar_path: str) -> list[Sentence]:
    rng = random.Random(seed)
    vocab = grammar_vocabulary(grammar_path)
    known = {w for words in vocab.values() for w in words}
    assert not known & set(OOV_WORDS), "OOV words must be out of the grammar"
    parsed = [
        Sentence(sentence_words(rng, vocab, shape), shape, None)
        for shape, count in PLAN
        for _ in range(count)
    ]
    skipped = [Sentence(sentence_words(rng, vocab, s), s, "over_cap") for s in OVER_CAP_SHAPES]
    for i in range(len(OOV_WORDS)):
        words = sentence_words(rng, vocab, OOV_SHAPE)
        verb = next(j for j, w in enumerate(words) if w in vocab["VBZ"])
        words[verb + 2] = OOV_WORDS[i]
        skipped.append(Sentence(words, OOV_SHAPE, "no_parse"))
    # Spread the skipped sentences evenly through the difficulty order.
    out = list(parsed)
    stride = len(parsed) // len(skipped)
    for i, sent in enumerate(skipped):
        out.insert(i * (stride + 1) + stride // 2, sent)
    return out


def write_corpus(out_dir: str, sentences: list[Sentence]) -> tuple[str, dict[str, list[Sentence]]]:
    """Write docs/ and manifest.csv; returns the manifest and doc -> sentences."""
    docs_dir = os.path.join(out_dir, "docs")
    os.makedirs(docs_dir, exist_ok=True)
    chunks = [
        sentences[i:i + SENTENCES_PER_DOC]
        for i in range(0, len(sentences), SENTENCES_PER_DOC)
    ]
    layout: dict[str, list[Sentence]] = {}
    rows = []
    for i, chunk in enumerate(chunks):
        doc_id = f"amb{i:03d}"
        path = os.path.join("docs", f"{doc_id}.txt")
        with open(os.path.join(out_dir, path), "w", encoding="utf-8") as fh:
            fh.write(" ".join(s.text for s in chunk) + "\n")
        class_name = CLASSES[i * len(CLASSES) // len(chunks)]
        rows.append([doc_id, path, class_name, "", ""])
        layout[doc_id] = chunk
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "path", "class_name", "age_low", "age_high"])
        writer.writerows(rows)
    return manifest, layout
