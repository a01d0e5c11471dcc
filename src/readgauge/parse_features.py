"""Parse-derived features: ambiguity measures and constituent ratios.

The ambiguity measures summarize the distribution of the top-x parse
log-probabilities per sentence; constituent counting uses Penn-style labels
with fixed heuristics for clauses, t-units and complex nominals so the
features stay reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cky import KBestList, ParseTree
from .errors import EmptyKBest
from .textcore import mean, population_std, ratio

CLAUSE_LABELS = {"S", "SBAR", "SINV", "SQ"}
WH_PHRASE_LABELS = {"WHNP", "WHPP", "WHADVP", "WHADJP"}
ROOT_WRAPPERS = {"ROOT", "TOP"}


def _top_logprobs(kbest: KBestList, x: int) -> list[float]:
    if not kbest.parses:
        raise EmptyKBest("k-best list has no parses")
    if x < 1:
        raise ValueError("x must be >= 1")
    return [t.log_prob for t in kbest.parses[: min(x, len(kbest.parses))]]


def parse_deviation(kbest: KBestList, x: int) -> float:
    """Population std of the top-x parse log-probs (all parses if fewer)."""
    return population_std(_top_logprobs(kbest, x))


def parse_deviation_from_max(kbest: KBestList, x: int) -> float:
    """Best parse log-prob minus the mean of the top-x log-probs."""
    lps = _top_logprobs(kbest, x)
    return max(lps) - mean(lps)


@dataclass
class TreeCounts:
    labels: dict[str, int]
    clauses: int = 0
    dependent_clauses: int = 0
    coordinate_clauses: int = 0
    t_units: int = 0
    complex_t_units: int = 0
    complex_nominals: int = 0
    subtrees: int = 0
    height: int = 0
    np_children: int = 0
    vp_children: int = 0
    pp_children: int = 0


def _has_dependent_clause(node: ParseTree, under_sbar: bool = False) -> bool:
    for c in node.children:
        if not isinstance(c, ParseTree):
            continue
        if under_sbar and c.label in CLAUSE_LABELS:
            return True
        if _has_dependent_clause(c, under_sbar or c.label == "SBAR"):
            return True
    return False


def _t_unit_roots(tree: ParseTree) -> list[ParseTree]:
    """Main-clause extraction: top-level clauses, expanding coordinations."""
    root = tree
    if root.label in ROOT_WRAPPERS:
        units: list[ParseTree] = []
        for c in root.children:
            if isinstance(c, ParseTree):
                units.extend(_t_unit_roots(c))
        return units
    if root.label not in CLAUSE_LABELS:
        return []
    phrases = [c for c in root.children if isinstance(c, ParseTree)]
    clause_children = [c for c in phrases if c.label in CLAUSE_LABELS]
    has_cc = any(c.label == "CC" for c in phrases)
    if has_cc and len(clause_children) >= 2:
        return clause_children
    return [root]


def constituent_counts(tree: ParseTree) -> TreeCounts:
    """Label counts plus derived clause/t-unit/nominal counters for one tree."""
    counts = TreeCounts(labels={})

    def walk(node: ParseTree, under_sbar: bool, coordinated: bool) -> int:
        """Count ``node``'s subtree and return its height. ``under_sbar``: an SBAR
        is above ``node``; ``coordinated``: a sibling of ``node`` is a CC."""
        label = node.label
        children = node.children
        phrases = [c for c in children if isinstance(c, ParseTree)]
        counts.labels[label] = counts.labels.get(label, 0) + 1
        if label in CLAUSE_LABELS:
            counts.clauses += 1
            counts.dependent_clauses += under_sbar
            counts.coordinate_clauses += coordinated
        elif label == "NP":
            counts.np_children += len(children)
            # A complex nominal has two children or more, or a clause, PP or VP.
            counts.complex_nominals += len(children) > 1 or any(
                c.label in {"SBAR", "PP", "VP"} for c in phrases)
        elif label == "VP":
            counts.vp_children += len(children)
        elif label == "PP":
            counts.pp_children += len(children)
        has_cc = any(c.label == "CC" for c in phrases)
        under_sbar = under_sbar or label == "SBAR"
        height = 0
        for c in phrases:
            height = max(height, walk(c, under_sbar, has_cc))
        return height + 1 if children else 0

    counts.height = walk(tree, False, False)
    counts.subtrees = sum(counts.labels.values()) - 1  # proper subtrees, root excluded
    units = _t_unit_roots(tree)
    counts.t_units = len(units)
    counts.complex_t_units = sum(1 for u in units if _has_dependent_clause(u))
    return counts


def syntactic_ratios(kbest_lists: list[KBestList], n_sentences: int) -> dict[str, float]:
    """Document-level syntactic feature vector from per-sentence k-best lists.

    ``kbest_lists`` holds one list per successfully parsed sentence; the
    constituent features read its best parse, and the ambiguity features
    average per-sentence values over the lists. Skipped sentences still count
    toward ``n_sentences``, the sentence denominator.
    """
    doc_trees = [kb.parses[0] for kb in kbest_lists]
    totals = [constituent_counts(t) for t in doc_trees]

    def label_sum(*labels: str) -> int:
        return sum(c.labels.get(lab, 0) for c in totals for lab in labels)

    n_words = sum(len(t.yield_) for t in doc_trees)
    clauses = sum(c.clauses for c in totals)
    t_units = sum(c.t_units for c in totals)
    dep_clauses = sum(c.dependent_clauses for c in totals)
    coord_clauses = sum(c.coordinate_clauses for c in totals)
    complex_nominals = sum(c.complex_nominals for c in totals)
    complex_t_units = sum(c.complex_t_units for c in totals)
    nps = label_sum("NP")
    vps = label_sum("VP")
    pps = label_sum("PP")

    return {
        "mean_t_unit_length": ratio(n_words, t_units),
        "mean_parse_tree_height": ratio(sum(c.height for c in totals), n_sentences),
        "subtrees_per_sentence": ratio(sum(c.subtrees for c in totals), n_sentences),
        "sbars_per_sentence": ratio(label_sum("SBAR"), n_sentences),
        "nps_per_sentence": ratio(nps, n_sentences),
        "vps_per_sentence": ratio(vps, n_sentences),
        "pps_per_sentence": ratio(pps, n_sentences),
        "mean_np_size": ratio(sum(c.np_children for c in totals), nps),
        "mean_vp_size": ratio(sum(c.vp_children for c in totals), vps),
        "mean_pp_size": ratio(sum(c.pp_children for c in totals), pps),
        "whps_per_sentence": ratio(label_sum(*WH_PHRASE_LABELS), n_sentences),
        "rrcs_per_sentence": ratio(label_sum("RRC"), n_sentences),
        "conjps_per_sentence": ratio(label_sum("CONJP"), n_sentences),
        "clauses_per_sentence": ratio(clauses, n_sentences),
        "t_units_per_sentence": ratio(t_units, n_sentences),
        "clauses_per_t_unit": ratio(clauses, t_units),
        "complex_t_unit_ratio": ratio(complex_t_units, t_units),
        "dependent_clauses_per_clause": ratio(dep_clauses, clauses),
        "dependent_clauses_per_t_unit": ratio(dep_clauses, t_units),
        "coordinate_clauses_per_clause": ratio(coord_clauses, clauses),
        "coordinate_clauses_per_t_unit": ratio(coord_clauses, t_units),
        "complex_nominals_per_clause": ratio(complex_nominals, clauses),
        "complex_nominals_per_t_unit": ratio(complex_nominals, t_units),
        "vps_per_t_unit": ratio(vps, t_units),
        "pd_2": mean([parse_deviation(kb, 2) for kb in kbest_lists]),
        "pd_10": mean([parse_deviation(kb, 10) for kb in kbest_lists]),
        "pdm_10": mean([parse_deviation_from_max(kb, 10) for kb in kbest_lists]),
    }


SYNTACTIC_FEATURE_NAMES = list(syntactic_ratios([], 0))
