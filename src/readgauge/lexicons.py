"""Word-norm tables (age-of-acquisition, MRC-style ratings, sense counts)."""

from __future__ import annotations

from .inputs import count_field, number_field, word_rows
from .textcore import Document, mean, ratio

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

    Returns ``{column: {word: rating}}``. A repeated word wins last (see
    ``word_rows``); a rating that is not a finite number rejects the file
    naming the row, and ``csv_rows`` rejects a column named twice.
    """
    header, rows = word_rows(path)
    columns = header[1:]
    tables: dict[str, dict[str, float]] = {c: {} for c in columns}
    for rownum, word, ratings in rows:
        for col, raw in zip(columns, ratings):
            tables[col][word] = number_field(path, rownum, col, raw)
    return tables


def load_senses(path: str) -> dict[str, tuple[int, int, int]]:
    """Load a sense-count CSV as ``{word: (senses, hypernyms, hyponyms)}``; a repeated word wins last."""
    header, rows = word_rows(path, width=4)
    # Counts are read by position; a column the header does not name goes by its meaning.
    named = header[1:]
    columns = named + ["senses", "hypernyms", "hyponyms"][len(named):]
    entries: dict[str, tuple[int, int, int]] = {}
    for rownum, word, cells in rows:
        counts = tuple(count_field(path, rownum, col, raw) for col, raw in zip(columns, cells))
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
