"""Parse-derived features: ambiguity measures and constituent ratios.

The ambiguity measures summarize the distribution of the top-x parse
log-probabilities per sentence. Constituent counting walks each best parse
once and returns a plain dict of integers under the fixed names in
``COUNT_NAMES``: only the Penn-style labels the columns read are counted, each
under its own name, so a grammar label never becomes a key. Clauses, t-units
and complex nominals follow fixed heuristics so the features stay
reproducible across runs.
"""

from __future__ import annotations

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


LABEL_COUNTS = {"NP": "nps", "VP": "vps", "PP": "pps", "SBAR": "sbars", "RRC": "rrcs",
                "CONJP": "conjps", **dict.fromkeys(WH_PHRASE_LABELS, "whps")}
COUNT_NAMES = (
    "words", "subtrees", "height", "clauses", "dependent_clauses", "coordinate_clauses",
    "t_units", "complex_t_units", "complex_nominals", "np_children", "vp_children",
    "pp_children", "nps", "vps", "pps", "sbars", "rrcs", "conjps", "whps",
)


def constituent_counts(tree: ParseTree) -> dict[str, int]:
    """One tree's counts, under the names in ``COUNT_NAMES``: its words, its
    proper subtrees, its height, clause, t-unit and complex-nominal counters, the
    children of its NPs, VPs and PPs, and the labels in ``LABEL_COUNTS``."""
    counts = dict.fromkeys(COUNT_NAMES, 0)

    def walk(node: ParseTree, under_sbar: bool, coordinated: bool) -> int:
        """Count ``node``'s subtree and return its height. ``under_sbar``: an SBAR
        is above ``node``; ``coordinated``: a sibling of ``node`` is a CC."""
        label = node.label
        children = node.children
        phrases = [c for c in children if isinstance(c, ParseTree)]
        counts["words"] += len(children) - len(phrases)
        counts["subtrees"] += 1
        name = LABEL_COUNTS.get(label)
        if name is not None:
            counts[name] += 1
        if label in CLAUSE_LABELS:
            counts["clauses"] += 1
            counts["dependent_clauses"] += under_sbar
            counts["coordinate_clauses"] += coordinated
        elif label == "NP":
            counts["np_children"] += len(children)
            # A complex nominal has two children or more, or a clause, PP or VP.
            counts["complex_nominals"] += len(children) > 1 or any(
                c.label in {"SBAR", "PP", "VP"} for c in phrases)
        elif label == "VP":
            counts["vp_children"] += len(children)
        elif label == "PP":
            counts["pp_children"] += len(children)
        has_cc = any(c.label == "CC" for c in phrases)
        under_sbar = under_sbar or label == "SBAR"
        height = 0
        for c in phrases:
            height = max(height, walk(c, under_sbar, has_cc))
        return height + 1 if children else 0

    counts["height"] = walk(tree, False, False)
    counts["subtrees"] -= 1  # proper subtrees, root excluded
    units = _t_unit_roots(tree)
    counts["t_units"] = len(units)
    counts["complex_t_units"] = sum(1 for u in units if _has_dependent_clause(u))
    return counts


def syntactic_ratios(kbest_lists: list[KBestList], n_sentences: int) -> dict[str, float]:
    """Document-level syntactic feature vector from per-sentence k-best lists.

    ``kbest_lists`` holds one list per successfully parsed sentence; the
    constituent features read its best parse, and the ambiguity features
    average per-sentence values over the lists. Skipped sentences still count
    toward ``n_sentences``, the sentence denominator.
    """
    c = dict.fromkeys(COUNT_NAMES, 0)
    for kb in kbest_lists:
        for name, n in constituent_counts(kb.parses[0]).items():
            c[name] += n
    return {
        "mean_t_unit_length": ratio(c["words"], c["t_units"]),
        "mean_parse_tree_height": ratio(c["height"], n_sentences),
        "subtrees_per_sentence": ratio(c["subtrees"], n_sentences),
        "sbars_per_sentence": ratio(c["sbars"], n_sentences),
        "nps_per_sentence": ratio(c["nps"], n_sentences),
        "vps_per_sentence": ratio(c["vps"], n_sentences),
        "pps_per_sentence": ratio(c["pps"], n_sentences),
        "mean_np_size": ratio(c["np_children"], c["nps"]),
        "mean_vp_size": ratio(c["vp_children"], c["vps"]),
        "mean_pp_size": ratio(c["pp_children"], c["pps"]),
        "whps_per_sentence": ratio(c["whps"], n_sentences),
        "rrcs_per_sentence": ratio(c["rrcs"], n_sentences),
        "conjps_per_sentence": ratio(c["conjps"], n_sentences),
        "clauses_per_sentence": ratio(c["clauses"], n_sentences),
        "t_units_per_sentence": ratio(c["t_units"], n_sentences),
        "clauses_per_t_unit": ratio(c["clauses"], c["t_units"]),
        "complex_t_unit_ratio": ratio(c["complex_t_units"], c["t_units"]),
        "dependent_clauses_per_clause": ratio(c["dependent_clauses"], c["clauses"]),
        "dependent_clauses_per_t_unit": ratio(c["dependent_clauses"], c["t_units"]),
        "coordinate_clauses_per_clause": ratio(c["coordinate_clauses"], c["clauses"]),
        "coordinate_clauses_per_t_unit": ratio(c["coordinate_clauses"], c["t_units"]),
        "complex_nominals_per_clause": ratio(c["complex_nominals"], c["clauses"]),
        "complex_nominals_per_t_unit": ratio(c["complex_nominals"], c["t_units"]),
        "vps_per_t_unit": ratio(c["vps"], c["t_units"]),
        "pd_2": mean([parse_deviation(kb, 2) for kb in kbest_lists]),
        "pd_10": mean([parse_deviation(kb, 10) for kb in kbest_lists]),
        "pdm_10": mean([parse_deviation_from_max(kb, 10) for kb in kbest_lists]),
    }


SYNTACTIC_FEATURE_NAMES = list(syntactic_ratios([], 0))
