"""Word-norm tables (age-of-acquisition, MRC-style ratings, sense counts)."""

from __future__ import annotations

import logging
import math

from .errors import MalformedRow
from .inputs import word_rows
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


def load_norms(path: str) -> dict[str, dict[str, float]]:
    """Load a norms CSV (header ``word,<rating-columns...>``).

    Returns ``{column: {word: rating}}``. A duplicate word wins last with one
    logged warning per row; an empty word or a non-numeric rating rejects the
    file naming the row, and a column named twice rejects it naming the column.
    """
    header, rows = word_rows(path)
    if not header or header[0].strip().lower() != "word":
        raise MalformedRow(f"{path}: first header column must be 'word'")
    columns = [c.strip() for c in header[1:]]
    for i, col in enumerate(columns):
        if col in columns[:i]:
            raise MalformedRow(f"{path}: header names column {col!r} twice")
    tables: dict[str, dict[str, float]] = {c: {} for c in columns}
    seen: set[str] = set()
    for rownum, word, ratings in rows:
        if word in seen:
            log.warning("duplicate word %r in %s (row %d), last wins", word, path, rownum)
        seen.add(word)
        for col, raw in zip(columns, ratings):
            try:
                value = float(raw)
            except ValueError:
                raise MalformedRow(f"{path}: row {rownum}: non-numeric rating {raw!r}")
            if not math.isfinite(value):
                raise MalformedRow(f"{path}: row {rownum}: non-finite rating {raw!r}")
            tables[col][word] = value
    return tables


def load_senses(path: str) -> dict[str, tuple[int, int, int]]:
    """Load a sense-count CSV as ``{word: (senses, hypernyms, hyponyms)}``."""
    _, rows = word_rows(path, width=4)
    entries: dict[str, tuple[int, int, int]] = {}
    for rownum, word, cells in rows:
        try:
            counts = tuple(int(c) for c in cells)
        except ValueError:
            raise MalformedRow(f"{path}: row {rownum}: non-integer count")
        if any(c < 0 for c in counts):
            raise MalformedRow(f"{path}: row {rownum}: negative count")
        if word in entries:
            log.warning("duplicate word %r in %s (row %d), last wins", word, path, rownum)
        entries[word] = counts  # type: ignore[assignment]
    return entries


def mean_rating(doc: Document, table: dict[str, float]) -> tuple[float, float]:
    """Mean rating over covered word tokens, plus the coverage fraction.

    Uncovered words are skipped; with no coverage both values are zero.
    """
    words = [t.lowercased for t in doc.word_tokens]
    hits = [table[w] for w in words if w in table]
    return mean(hits), ratio(len(hits), len(words))


def sense_features(doc: Document, senses: dict[str, tuple[int, int, int]]) -> dict[str, float]:
    """Senses/hypernyms/hyponyms per word token (absent words count zero)."""
    words = [t.lowercased for t in doc.word_tokens]
    totals = [0, 0, 0]
    for w in words:
        if w in senses:
            s, hyper, hypo = senses[w]
            totals[0] += s
            totals[1] += hyper
            totals[2] += hypo
    return {name: ratio(total, len(words)) for name, total in zip(SENSE_FEATURE_NAMES, totals)}
