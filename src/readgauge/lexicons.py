"""Word-norm tables (age-of-acquisition, MRC-style ratings, sense counts)."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import MalformedRow
from .inputs import csv_rows
from .textcore import Document, mean, ratio

log = logging.getLogger(__name__)

# One norm-table column and one feature per name.
PSYCHOLINGUISTIC_FEATURE_NAMES = [
    "aoa_kuperman",
    "aoa_kuperman_lemmas",
    "aoa_bird_lemmas",
    "aoa_bristol_lemmas",
    "aoa_cortese_khanna_lemmas",
    "mrc_familiarity",
    "mrc_concreteness",
    "mrc_imageability",
    "mrc_colorado_meaningfulness",
    "mrc_pavio_meaningfulness",
    "mrc_aoa",
]

SENSE_FEATURE_NAMES = ("senses_per_word", "hypernyms_per_word", "hyponyms_per_word")


@dataclass(frozen=True)
class NormTable:
    name: str
    entries: dict[str, float]


@dataclass(frozen=True)
class SenseTable:
    entries: dict[str, tuple[int, int, int]]  # word -> (senses, hypernyms, hyponyms)


def load_norms(path: str) -> dict[str, NormTable]:
    """Load a norms CSV (header ``word,<rating-columns...>``).

    Returns one NormTable per rating column. Duplicate words win last with a
    logged warning; a non-numeric rating rejects the file naming the row, and
    a column named twice rejects it naming the column.
    """
    header, rows = csv_rows(path)
    if not header or header[0].strip().lower() != "word":
        raise MalformedRow(f"{path}: first header column must be 'word'")
    columns = [c.strip() for c in header[1:]]
    for i, col in enumerate(columns):
        if col in columns[:i]:
            raise MalformedRow(f"{path}: header names column {col!r} twice")
    tables: dict[str, dict[str, float]] = {c: {} for c in columns}
    for rownum, row in rows:
        word = row[0].strip().lower()
        for col, raw in zip(columns, row[1:]):
            try:
                value = float(raw)
            except ValueError:
                raise MalformedRow(f"{path}: row {rownum}: non-numeric rating {raw!r}")
            if not math.isfinite(value):
                raise MalformedRow(f"{path}: row {rownum}: non-finite rating {raw!r}")
            if word in tables[col]:
                log.warning("duplicate word %r in %s (row %d), last wins", word, path, rownum)
            tables[col][word] = value
    return {c: NormTable(name=c, entries=tables[c]) for c in columns}


def load_senses(path: str) -> SenseTable:
    """Load a sense-count CSV (``word,senses,hypernyms,hyponyms``)."""
    _, rows = csv_rows(path, width=4)
    entries: dict[str, tuple[int, int, int]] = {}
    for rownum, row in rows:
        word = row[0].strip().lower()
        try:
            counts = tuple(int(c) for c in row[1:])
        except ValueError:
            raise MalformedRow(f"{path}: row {rownum}: non-integer count")
        if any(c < 0 for c in counts):
            raise MalformedRow(f"{path}: row {rownum}: negative count")
        if word in entries:
            log.warning("duplicate word %r in %s (row %d), last wins", word, path, rownum)
        entries[word] = counts  # type: ignore[assignment]
    return SenseTable(entries=entries)


def mean_rating(doc: Document, table: NormTable) -> tuple[float, float]:
    """Mean rating over covered word tokens, plus the coverage fraction.

    Uncovered words are skipped; with no coverage both values are zero.
    """
    words = [t.lowercased for t in doc.word_tokens]
    hits = [table.entries[w] for w in words if w in table.entries]
    return mean(hits), ratio(len(hits), len(words))


def sense_features(doc: Document, senses: SenseTable) -> dict[str, float]:
    """Senses/hypernyms/hyponyms per word token (absent words count zero)."""
    words = [t.lowercased for t in doc.word_tokens]
    totals = [0, 0, 0]
    for w in words:
        if w in senses.entries:
            s, hyper, hypo = senses.entries[w]
            totals[0] += s
            totals[1] += hyper
            totals[2] += hypo
    return {name: ratio(total, len(words)) for name, total in zip(SENSE_FEATURE_NAMES, totals)}
