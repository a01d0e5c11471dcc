"""Feature registry: named feature sets with stable ordering.

Each group's column names, in order, are the keys its function returns;
the registry pairs them with that function in ``GROUPS`` and decides how
groups form the named sets. Every member of a set resolves to one group;
groups are computed at most once per document. Sets fit on training
documents (``word_types``) are ``pipeline.FOLD_FITTED``'s, and ``pipeline``
adds the score columns; ``cli.parse_feature_sets`` alone checks set names.

Every set but ``novel_syntactic`` is whole groups in a row: ``flesch`` and
``traditional`` are both the ``traditional`` group, ``lexical_diversity`` is
``ttr`` then ``senses``, and ``linguistic`` is every group in ``GROUPS``
order, which is the column order of a ``linguistic`` features CSV.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

from . import lexical_features, parse_features, pos_features
from .cky import Parser
from .errors import MissingResource, NoParse, NonFiniteFeature
from .lexicons import (
    PSYCHOLINGUISTIC_FEATURE_NAMES,
    SENSE_FEATURE_NAMES,
    mean_rating,
    sense_features,
)
from .textcore import Document

log = logging.getLogger(__name__)

NOVEL_POS_FEATURE_NAMES = ["posd_dev", "pos_div"]

NOVEL_SYNTACTIC_FEATURE_NAMES = ["pd_2", "pd_10", "pdm_10"] + NOVEL_POS_FEATURE_NAMES

DEFAULT_KBEST_K = 10
SENTENCE_LENGTH_CAP = 40


@dataclass(frozen=True)
class FeatureSet:
    name: str
    members: tuple[str, ...]


@dataclass
class Resources:
    parser: Optional[Parser] = None
    tag_lexicon: Optional[dict[str, str]] = None
    norm_tables: Optional[dict[str, dict[str, float]]] = None
    sense_table: Optional[dict[str, tuple[int, int, int]]] = None


def _compute_traditional(doc: Document, res: Resources) -> dict[str, float]:
    return lexical_features.traditional_features(doc)


def _compute_pos(doc: Document, res: Resources) -> dict[str, float]:
    if res.tag_lexicon is None:
        raise MissingResource("pos features require a tag lexicon")
    tagged = pos_features.tag(doc, res.tag_lexicon)
    return pos_features.pos_ratios(tagged)


def _compute_novel_pos(doc: Document, res: Resources) -> dict[str, float]:
    if res.tag_lexicon is None:
        raise MissingResource("posd_dev/pos_div require a tag lexicon")
    tagged = pos_features.tag(doc, res.tag_lexicon)
    values = (pos_features.pos_deviation(tagged), pos_features.pos_divergence(tagged))
    return dict(zip(NOVEL_POS_FEATURE_NAMES, values))


def _compute_syntactic(doc: Document, res: Resources) -> dict[str, float]:
    if res.parser is None:
        raise MissingResource("syntactic features require a grammar")
    kbest_lists = []
    skipped = 0
    for sent in doc.sentences:
        tokens = [t.lowercased for t in sent.word_tokens]
        if not tokens or len(tokens) > SENTENCE_LENGTH_CAP:
            skipped += 1
            continue
        try:
            kb = res.parser.kbest(tokens, DEFAULT_KBEST_K)
        except NoParse:
            skipped += 1
            continue
        kbest_lists.append(kb)
    if skipped:
        log.info("doc %s: %d sentence(s) skipped by the parser", doc.doc_id, skipped)
    return parse_features.syntactic_ratios(kbest_lists, len(doc.sentences))


def _compute_ttr(doc: Document, res: Resources) -> dict[str, float]:
    return lexical_features.ttr_measures(doc)


def _compute_senses(doc: Document, res: Resources) -> dict[str, float]:
    if res.sense_table is None:
        raise MissingResource("sense features require a sense table")
    return sense_features(doc, res.sense_table)


def _compute_psycholinguistic(doc: Document, res: Resources) -> dict[str, float]:
    if res.norm_tables is None:
        raise MissingResource("psycholinguistic features require norm tables")
    out = {}
    for name in PSYCHOLINGUISTIC_FEATURE_NAMES:
        table = res.norm_tables.get(name)
        if table is None and name.endswith("_lemmas"):
            # Without lemma data the lemma variant equals the surface one.
            table = res.norm_tables.get(name[: -len("_lemmas")])
        if table is None:
            raise MissingResource(f"norms file has no column for {name!r}")
        mean, _coverage = mean_rating(doc, table)
        out[name] = mean
    return out


# group name -> (feature names, compute function)
GROUPS = {
    "traditional": (tuple(lexical_features.TRADITIONAL_FEATURE_NAMES), _compute_traditional),
    "pos": (tuple(pos_features.POS_FEATURE_NAMES), _compute_pos),
    "syntactic": (tuple(parse_features.SYNTACTIC_FEATURE_NAMES), _compute_syntactic),
    "ttr": (tuple(lexical_features.TTR_FEATURE_NAMES), _compute_ttr),
    "senses": (SENSE_FEATURE_NAMES, _compute_senses),
    "psycholinguistic": (tuple(PSYCHOLINGUISTIC_FEATURE_NAMES), _compute_psycholinguistic),
    "novel_pos": (tuple(NOVEL_POS_FEATURE_NAMES), _compute_novel_pos),
}

NAME_TO_GROUP = {
    name: group for group, (names, _fn) in GROUPS.items() for name in names
}


def _from_groups(name: str, *groups: str) -> FeatureSet:
    return FeatureSet(name, tuple(member for group in groups for member in GROUPS[group][0]))


FEATURE_SETS: dict[str, FeatureSet] = {
    fs.name: fs
    for fs in (
        _from_groups("flesch", "traditional"),
        _from_groups("traditional", "traditional"),
        _from_groups("pos", "pos"),
        _from_groups("syntactic", "syntactic"),
        _from_groups("lexical_diversity", "ttr", "senses"),
        _from_groups("psycholinguistic", "psycholinguistic"),
        FeatureSet("novel_syntactic", tuple(NOVEL_SYNTACTIC_FEATURE_NAMES)),
        _from_groups("linguistic", *GROUPS),
    )
}


def union_sets(names: list[str]) -> FeatureSet:
    """Set-union with registry order: members ordered by first occurrence."""
    members = (member for name in names for member in FEATURE_SETS[name].members)
    return FeatureSet("+".join(names), tuple(dict.fromkeys(members)))


def extract(doc: Document, feature_set: FeatureSet, resources: Resources) -> dict[str, float]:
    """Compute every member of the set, in order, all values finite.

    A group that computes a value that is not finite (finite norm ratings
    whose sum overflows, say) raises ``NonFiniteFeature`` naming the column.
    """
    cache: dict[str, dict[str, float]] = {}
    out: dict[str, float] = {}
    for member in feature_set.members:
        group = NAME_TO_GROUP[member]
        if group not in cache:
            cache[group] = values = GROUPS[group][1](doc, resources)
            bad = next((name for name, v in values.items() if not math.isfinite(v)), None)
            if bad is not None:
                raise NonFiniteFeature(f"doc {doc.doc_id!r}: column {bad!r} is {values[bad]}")
        out[member] = cache[group][member]
    return out
