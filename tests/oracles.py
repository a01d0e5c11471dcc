"""Independent brute-force oracles used by the test and acceptance suites.

These deliberately avoid the library's own algorithms: derivations are
enumerated recursively over the original (non-binarized) grammar, and the
feature formulas are recomputed from scratch. The SVM references are the
plain sequential loops: one fit per C and inner fold, and one public
``hinge_loss_grad`` call per epoch. The constituent counter is the earlier
multi-pass one: a node list, a parent map keyed by ``id()``, an ancestor
climb per clause, a separate height recursion, a histogram of every label
and ``ParseTree.yield_`` for the words. It returns the library's plain dict
of counts, and the syntactic columns are recomputed from it. The tokenizer is
the earlier index loop over each whitespace-separated chunk. The k-best chart is
the earlier loop over every split point of every cell, empty sub-spans
included, over lexical cells rebuilt for each sentence. The k-best merge of
products that all fit in k is every product, built and then sorted.
The fold assignment and the ablation's training order are the earlier
per-class loops: a cursor over the shuffled classes, and a position-by-position
interleave of the shuffled class pools. The mean and population SD are the
expressions each feature module once wrote inline.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from readgauge.cky import KBestList, ParseTree, Parser, _item, _merge_kbest
from readgauge.errors import NoParse
from readgauge.evaluation import f1_scores, kfold
from readgauge.grammar import Grammar, Rule, binarize_cnf, make_grammar
from readgauge.models import (
    SVM_EPOCHS,
    SVM_LR,
    LinearModel,
    hinge_loss_grad,
    predict,
    standardize,
)
from readgauge.parse_features import CLAUSE_LABELS, ROOT_WRAPPERS, WH_PHRASE_LABELS
from readgauge.textcore import Token, _make_token


def enumerate_derivations(grammar: Grammar, tokens: tuple[str, ...], cap: int = 100000):
    """All complete derivations of ``tokens`` from the start symbol.

    Returns (log_prob, serialized tree) pairs sorted by (-log_prob, serial).
    Requires a grammar without unary cycles.
    """
    rules_by_lhs: dict[str, list[Rule]] = {}
    for rule in grammar.rules:
        rules_by_lhs.setdefault(rule.lhs, []).append(rule)

    memo: dict[tuple[str, int, int], list[tuple[float, str]]] = {}
    active: set[tuple[str, int, int]] = set()

    def derive(symbol: str, i: int, j: int) -> list[tuple[float, str]]:
        if symbol in grammar.terminals:
            if j - i == 1 and tokens[i] == symbol:
                return [(0.0, symbol)]
            return []
        key = (symbol, i, j)
        if key in memo:
            return memo[key]
        if key in active:
            raise RuntimeError(f"unary cycle at {key}")
        active.add(key)
        results: list[tuple[float, str]] = []
        for rule in rules_by_lhs.get(symbol, []):
            for combo in split_span(rule.rhs, i, j):
                partial = [(rule.log_prob, [])]
                ok = True
                for sym, (a, b) in zip(rule.rhs, combo):
                    subs = derive(sym, a, b)
                    if not subs:
                        ok = False
                        break
                    partial = [
                        (lp + slp, parts + [sserial])
                        for lp, parts in partial
                        for slp, sserial in subs
                    ]
                    if len(partial) > cap:
                        raise RuntimeError("derivation cap exceeded")
                if ok:
                    for lp, parts in partial:
                        results.append((lp, f"({symbol} {' '.join(parts)})"))
        active.discard(key)
        memo[key] = results
        return results

    def split_span(rhs, i, j):
        if not rhs:
            return [[]] if i == j else []
        if len(rhs) == 1:
            return [[(i, j)]]
        out = []
        for m in range(i + 1, j):
            for rest in split_span(rhs[1:], m, j):
                out.append([(i, m)] + rest)
        return out

    results = derive(grammar.start, 0, len(tokens))
    return sorted(results, key=lambda r: (-r[0], r[1]))


def random_grammar(rng: random.Random, max_nts: int = 5) -> Grammar:
    """Random proper PCFG without unary cycles and with reachable terminals."""
    n_nts = rng.randint(2, max_nts)
    nts = [f"N{i}" for i in range(n_nts)]
    terminals = [chr(ord("a") + i) for i in range(rng.randint(2, 4))]
    rules: list[Rule] = []
    for idx, nt in enumerate(nts):
        n_rules = rng.randint(1, 3)
        raws = []
        has_terminating = False
        for _ in range(n_rules):
            choice = rng.random()
            if choice < 0.35:
                raws.append((rng.choice(terminals),))
                has_terminating = True
            elif choice < 0.55 and idx + 1 < n_nts:
                # Unary NT rules only point forward, so no cycles.
                raws.append((rng.choice(nts[idx + 1:]),))
            else:
                arity = rng.choice([2, 2, 3])
                rhs = []
                for _ in range(arity):
                    if rng.random() < 0.7:
                        rhs.append(rng.choice(nts))
                    else:
                        rhs.append(rng.choice(terminals))
                raws.append(tuple(rhs))
        if not has_terminating:
            raws.append((rng.choice(terminals),))
        weights = [rng.uniform(0.2, 1.0) for _ in raws]
        total = sum(weights)
        for rhs, w in zip(raws, weights):
            p = w / total
            rules.append(Rule(lhs=nt, rhs=rhs, prob=p))
    return make_grammar(rules, start=nts[0])


def tree_logprob_by_rules(tree: ParseTree, grammar: Grammar) -> float:
    """Recompute a tree's log-prob by looking its constituent rules up."""
    index = {}
    for rule in grammar.rules:
        index.setdefault((rule.lhs, rule.rhs), rule.log_prob)
    total = 0.0

    def walk(node: ParseTree) -> None:
        nonlocal total
        rhs = tuple(
            c.label if isinstance(c, ParseTree) else c for c in node.children
        )
        total += index[(node.label, rhs)]
        for c in node.children:
            if isinstance(c, ParseTree):
                walk(c)

    walk(tree)
    return total


# -- chart oracle (the every-split loop; items and merge from the library) -----


def oracle_kbest(parser: Parser, tokens: list[str], k: int) -> KBestList:
    """``parser``'s k-best list from a chart that tries every split point m of
    every cell (i, j), empty sub-spans included."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not tokens:
        raise NoParse("empty token sequence")
    oov = sorted({t for t in tokens if t not in parser.grammar.terminals})
    if oov:
        raise NoParse(f"tokens not in grammar terminals: {oov}")
    n = len(tokens)
    lexical = [rule for rule in binarize_cnf(parser.grammar) if len(rule.rhs) == 1]
    chart: dict = {}
    for i, tok in enumerate(tokens):
        cell: dict = {}
        for rule in lexical:
            if rule.rhs[0] == tok:
                cell.setdefault(rule.lhs, []).append(_item(rule, (tok,), tok))
        for items in cell.values():
            items.sort(key=lambda it: (it[0], it[1]))
        chart[(i, i + 1)] = cell
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span
            options: dict = {}
            for m in range(i + 1, j):
                right_cell = chart[(m, j)]
                for b, lefts in chart[(i, m)].items():
                    for rule in parser.binary_by_left.get(b, ()):
                        rights = right_cell.get(rule.rhs[1])
                        if rights:
                            options.setdefault(rule.lhs, []).append((rule, lefts, rights))
            chart[(i, j)] = {lhs: _merge_kbest(opts, k) for lhs, opts in options.items()}
    root = chart[(0, n)].get(parser.grammar.start, [])
    if not root:
        raise NoParse(f"no derivation for {tokens!r} rooted at {parser.grammar.start}")
    return KBestList(parses=tuple(item[2][0] for item in root[:k]))


def oracle_merge_all(options: list) -> list:
    """Every product of ``options``' ``(rule, lefts, rights)`` triples as a chart
    item, sorted by (-log_prob, serial): the k-best merge when all fit in k."""
    products = []
    for rule, lefts, rights in options:
        for left in lefts:
            for right in rights:
                products.append(_item(rule, left[2] + right[2], left[1] + " " + right[1]))
    return sorted(products, key=lambda it: (it[0], it[1]))


# -- tokenizer oracle (the index loops; tokens built by the library) ----------


def oracle_tokenize(sentence: str) -> list[Token]:
    """Each chunk of ``str.split()`` cut at its first and last alphanumeric by
    index loops: one token for the core, one per character outside it."""
    tokens: list[Token] = []
    for chunk in sentence.split():
        core_start = 0
        core_end = len(chunk)
        while core_start < core_end and not chunk[core_start].isalnum():
            core_start += 1
        while core_end > core_start and not chunk[core_end - 1].isalnum():
            core_end -= 1
        for c in chunk[:core_start]:
            tokens.append(_make_token(c))
        if core_start < core_end:
            tokens.append(_make_token(chunk[core_start:core_end]))
        for c in chunk[core_end:]:
            tokens.append(_make_token(c))
    return tokens


# -- formula oracles (recomputed from scratch, no library calls) ---------------


def oracle_traditional(n_sentences, n_words, n_chars, n_syllables, n_poly, n_mono, n_long):
    """The eight readability formulas from raw counts.

    Each rate is zero over an empty denominator, so on empty input every
    formula returns its intercept (``flesch`` 206.835, ``lix`` 0.0).
    """

    def div(a, b):
        return a / b if b else 0.0

    wps = div(n_words, n_sentences)
    spw = div(n_syllables, n_words)
    cpw = div(n_chars, n_words)
    spw_inv = div(n_sentences, n_words)
    poly_per_sent = div(n_poly, n_sentences)
    prop_poly = div(n_poly, n_words)
    prop_mono = div(n_mono, n_words)
    prop_long = div(n_long, n_words)
    return {
        "flesch_kincaid": 11.8 * spw + 0.39 * wps - 15.59,
        "flesch": 206.835 - 1.015 * wps - 84.6 * spw,
        "automated_readability_index": 4.71 * cpw + 0.5 * wps - 21.43,
        "coleman_liau": -29.5873 * spw_inv + 5.8799 * cpw - 15.8007,
        "smog": 1.0430 * math.sqrt(30.0 * poly_per_sent) + 3.1291,
        "fog": (wps + prop_poly) * 0.4,
        "forcast": 20.0 - 15.0 * prop_mono,
        "lix": wps + prop_long * 100.0,
    }


def oracle_mean(values):
    """The battery's earlier inline mean; non-empty lists only."""
    return sum(values) / len(values)


def oracle_population_std(values):
    """The battery's earlier inline population SD; non-empty lists only."""
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def oracle_ttr(tokens):
    """TTR family from a list of lowercased word tokens."""

    def div(a, b):
        return a / b if b else 0.0

    n = len(tokens)
    types = len(set(tokens))
    out = {
        "type_token_ratio": div(types, n),
        "corrected_type_token_ratio": div(types, math.sqrt(2 * n)) if n else 0.0,
        "root_type_token_ratio": div(types, math.sqrt(n)) if n else 0.0,
        "bilogarithmic_type_token_ratio": 0.0,
        "uber_index": 0.0,
    }
    if n > 1 and types >= 1:
        out["bilogarithmic_type_token_ratio"] = math.log(types) / math.log(n)
    if n and types and types != n:
        out["uber_index"] = math.log(types) ** 2 / math.log(n / types)
    return out


_ORACLE_TAG_GROUPS = {
    "nouns": {"NN", "NNS", "NNP", "NNPS"},
    "proper": {"NNP", "NNPS"},
    "pronouns": {"PRP", "PRP$", "WP", "WP$"},
    "conj": {"CC"},
    "adjectives": {"JJ", "JJR", "JJS"},
    "verbs": {"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"},
    "adverbs": {"RB", "RBR", "RBS"},
    "modals": {"MD"},
    "prepositions": {"IN"},
    "interjections": {"UH"},
    "personal": {"PRP"},
    "wh": {"WP", "WP$"},
    "determiners": {"DT", "PDT", "WDT"},
}


def oracle_pos_ratios(pairs):
    """The 29 POS ratios from (word, tag) pairs, recomputed longhand."""

    def div(a, b):
        return a / b if b else 0.0

    n = len(pairs)
    g = {
        name: sum(1 for _, t in pairs if t in tags)
        for name, tags in _ORACLE_TAG_GROUPS.items()
    }
    lexical = sum(
        1
        for _, t in pairs
        if t in _ORACLE_TAG_GROUPS["nouns"]
        or t in _ORACLE_TAG_GROUPS["verbs"]
        or t in _ORACLE_TAG_GROUPS["adjectives"]
        or t in _ORACLE_TAG_GROUPS["adverbs"]
    )
    uniq_verbs = len({w for w, t in pairs if t in _ORACLE_TAG_GROUPS["verbs"]})
    verbs = g["verbs"]
    out = {
        "nouns_per_word": div(g["nouns"], n),
        "proper_nouns_per_word": div(g["proper"], n),
        "pronouns_per_word": div(g["pronouns"], n),
        "conjunctions_per_word": div(g["conj"], n),
        "adjectives_per_word": div(g["adjectives"], n),
        "verbs_per_word": div(verbs, n),
        "adverbs_per_word": div(g["adverbs"], n),
        "modal_verbs_per_word": div(g["modals"], n),
        "prepositions_per_word": div(g["prepositions"], n),
        "interjections_per_word": div(g["interjections"], n),
        "personal_pronouns_per_word": div(g["personal"], n),
        "wh_pronouns_per_word": div(g["wh"], n),
        "lexical_words_per_word": div(lexical, n),
        "function_words_per_word": div(n - lexical, n),
        "determiners_per_word": div(g["determiners"], n),
        "adverb_variation": div(g["adverbs"], lexical),
        "adjective_variation": div(g["adjectives"], lexical),
        "modal_verb_variation": div(g["modals"], lexical),
        "noun_variation": div(g["nouns"], lexical),
        "verb_variation_i": div(verbs, uniq_verbs),
        "verb_variation_ii": div(verbs, lexical),
        "squared_verb_variation_i": div(verbs * verbs, uniq_verbs),
        "corrected_verb_variation_i": (
            verbs / math.sqrt(2 * uniq_verbs) if uniq_verbs else 0.0
        ),
    }
    for t in ("VB", "VBD", "VBG", "VBN", "VBP", "VBZ"):
        out[f"{t.lower()}s_per_word"] = div(sum(1 for _, x in pairs if x == t), n)
    return out


def oracle_f1(y_true, y_pred, n_classes):
    """Per-class/weighted/macro F1 from precision and recall counted directly."""
    per_class = []
    supports = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        pred_c = sum(1 for p in y_pred if p == c)
        true_c = sum(1 for t in y_true if t == c)
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / true_c if true_c else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(f1)
        supports.append(true_c)
    total = sum(supports)
    weighted = sum(s * f for s, f in zip(supports, per_class)) / total if total else 0.0
    macro = sum(per_class) / n_classes if n_classes else 0.0
    return per_class, weighted, macro


def oracle_train_svm(X, y, C, feature_names=None):
    """The linear SVM fit one epoch at a time; keeps the best checkpoint."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1
    Xs, scaler = standardize(X)
    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    best_loss, _, _ = hinge_loss_grad(W, b, Xs, y, C)
    best_W, best_b = W.copy(), b.copy()
    for t in range(SVM_EPOCHS):
        loss, grad_W, grad_b = hinge_loss_grad(W, b, Xs, y, C)
        if loss < best_loss:
            best_loss = loss
            best_W, best_b = W.copy(), b.copy()
        step = SVM_LR / (1.0 + t)
        W = W - step * grad_W
        b = b - step * grad_b
    loss, _, _ = hinge_loss_grad(W, b, Xs, y, C)
    if loss < best_loss:
        best_W, best_b = W, b
    return LinearModel(
        weights=best_W,
        bias=best_b,
        scaler=scaler,
        feature_names=tuple(feature_names or (f"f{i}" for i in range(X.shape[1]))),
        classes=tuple(range(n_classes)),
    )


def oracle_grid_search_c(X, y, grid, folds=5, seed=0):
    """C by mean inner-fold weighted F1, one ``oracle_train_svm`` per (C, fold)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1
    ids = [str(i) for i in range(len(y))]
    fold_of = kfold(ids, list(y), k=folds, seed=seed)
    best_c, best_score = None, -1.0
    for c in sorted(grid):
        scores = []
        for fold in range(folds):
            test_idx = [i for i in range(len(y)) if fold_of[ids[i]] == fold]
            train_idx = [i for i in range(len(y)) if fold_of[ids[i]] != fold]
            model = oracle_train_svm(X[train_idx], y[train_idx], c)
            preds = predict(model, X[test_idx])
            scores.append(f1_scores(list(y[test_idx]), list(preds), n_classes)[1])
        mean_score = sum(scores) / len(scores)
        if mean_score > best_score:
            best_score, best_c = mean_score, c
    return float(best_c)


def oracle_kfold(doc_ids, labels, k, seed):
    """Fold of each id: a cursor over the per-class shuffled, sorted id lists."""
    rng = random.Random(seed)
    by_class = {}
    for doc_id, label in zip(doc_ids, labels):
        by_class.setdefault(label, []).append(doc_id)
    assignments = {}
    cursor = 0
    for label in sorted(by_class):
        ids = sorted(by_class[label])
        rng.shuffle(ids)
        for doc_id in ids:
            assignments[doc_id] = cursor % k
            cursor += 1
    return assignments


def oracle_stratified_order(indices, labels, rng):
    """Interleave shuffled per-class index lists so every prefix is balanced."""
    by_class = {}
    for i in indices:
        by_class.setdefault(labels[i], []).append(i)
    pools = []
    for label in sorted(by_class):
        pool = sorted(by_class[label])
        rng.shuffle(pool)
        pools.append(pool)
    order = []
    pos = 0
    while any(pos < len(p) for p in pools):
        for pool in pools:
            if pos < len(pool):
                order.append(pool[pos])
        pos += 1
    return order


def _oracle_internal_nodes(tree: ParseTree):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for c in node.children:
            if isinstance(c, ParseTree):
                stack.append(c)


def _oracle_height(node) -> int:
    if isinstance(node, str):
        return 0
    if not node.children:
        return 0
    return 1 + max(_oracle_height(c) for c in node.children)


def _oracle_has_dependent_clause(node: ParseTree, under_sbar: bool = False) -> bool:
    for c in node.children:
        if not isinstance(c, ParseTree):
            continue
        if under_sbar and c.label in CLAUSE_LABELS:
            return True
        if _oracle_has_dependent_clause(c, under_sbar or c.label == "SBAR"):
            return True
    return False


def _oracle_t_unit_roots(tree: ParseTree) -> list[ParseTree]:
    if tree.label in ROOT_WRAPPERS:
        units: list[ParseTree] = []
        for c in tree.children:
            if isinstance(c, ParseTree):
                units.extend(_oracle_t_unit_roots(c))
        return units
    if tree.label not in CLAUSE_LABELS:
        return []
    clause_children = [
        c for c in tree.children if isinstance(c, ParseTree) and c.label in CLAUSE_LABELS
    ]
    has_cc = any(isinstance(c, ParseTree) and c.label == "CC" for c in tree.children)
    if has_cc and len(clause_children) >= 2:
        return clause_children
    return [tree]


def _oracle_is_complex_nominal(node: ParseTree) -> bool:
    if node.label != "NP":
        return False
    phrase_children = sum(1 for c in node.children if isinstance(c, ParseTree))
    leaf_children = sum(1 for c in node.children if isinstance(c, str))
    if phrase_children + leaf_children > 1:
        return True
    return any(
        isinstance(c, ParseTree) and c.label in {"SBAR", "PP", "VP"}
        for c in node.children
    )


def oracle_constituent_counts(tree: ParseTree) -> dict[str, int]:
    """The library's count dict from the node list, an ``id()`` parent map,
    ancestor climbs, a histogram of every label and ``ParseTree.yield_``."""
    counts = {name: 0 for name in (
        "clauses", "dependent_clauses", "coordinate_clauses", "complex_nominals",
        "np_children", "vp_children", "pp_children")}
    labels: dict[str, int] = {}
    nodes = list(_oracle_internal_nodes(tree))
    parents: dict[int, ParseTree] = {}
    for node in nodes:
        for c in node.children:
            if isinstance(c, ParseTree):
                parents[id(c)] = node

    for node in nodes:
        labels[node.label] = labels.get(node.label, 0) + 1
        if node.label in CLAUSE_LABELS:
            counts["clauses"] += 1
            # Dependent: dominated by an SBAR somewhere above.
            anc = parents.get(id(node))
            while anc is not None:
                if anc.label == "SBAR":
                    counts["dependent_clauses"] += 1
                    break
                anc = parents.get(id(anc))
            parent = parents.get(id(node))
            if parent is not None and any(
                isinstance(c, ParseTree) and c.label == "CC" for c in parent.children
            ):
                counts["coordinate_clauses"] += 1
        if _oracle_is_complex_nominal(node):
            counts["complex_nominals"] += 1
        if node.label == "NP":
            counts["np_children"] += len(node.children)
        elif node.label == "VP":
            counts["vp_children"] += len(node.children)
        elif node.label == "PP":
            counts["pp_children"] += len(node.children)

    units = _oracle_t_unit_roots(tree)
    counts["t_units"] = len(units)
    counts["complex_t_units"] = sum(1 for u in units if _oracle_has_dependent_clause(u))
    counts["subtrees"] = max(len(nodes) - 1, 0)  # proper subtrees, root excluded
    counts["height"] = _oracle_height(tree)
    counts["words"] = len(tree.yield_)
    for name, label in (("nps", "NP"), ("vps", "VP"), ("pps", "PP"), ("sbars", "SBAR"),
                        ("rrcs", "RRC"), ("conjps", "CONJP")):
        counts[name] = labels.get(label, 0)
    counts["whps"] = sum(labels.get(label, 0) for label in WH_PHRASE_LABELS)
    return counts


def oracle_syntactic_ratios(trees: list[ParseTree], n_sentences: int) -> dict[str, float]:
    """The 24 constituent columns of ``syntactic_ratios`` (all but the three
    ambiguity means), each summed over ``oracle_constituent_counts`` longhand."""

    def div(a, b):
        return a / b if b else 0.0

    per_tree = [oracle_constituent_counts(t) for t in trees]

    def total(name):
        return sum(c[name] for c in per_tree)

    clauses, t_units, dep = total("clauses"), total("t_units"), total("dependent_clauses")
    coord, nominals = total("coordinate_clauses"), total("complex_nominals")
    nps, vps, pps = total("nps"), total("vps"), total("pps")
    return {
        "mean_t_unit_length": div(total("words"), t_units),
        "mean_parse_tree_height": div(total("height"), n_sentences),
        "subtrees_per_sentence": div(total("subtrees"), n_sentences),
        "sbars_per_sentence": div(total("sbars"), n_sentences),
        "nps_per_sentence": div(nps, n_sentences),
        "vps_per_sentence": div(vps, n_sentences),
        "pps_per_sentence": div(pps, n_sentences),
        "mean_np_size": div(total("np_children"), nps),
        "mean_vp_size": div(total("vp_children"), vps),
        "mean_pp_size": div(total("pp_children"), pps),
        "whps_per_sentence": div(total("whps"), n_sentences),
        "rrcs_per_sentence": div(total("rrcs"), n_sentences),
        "conjps_per_sentence": div(total("conjps"), n_sentences),
        "clauses_per_sentence": div(clauses, n_sentences),
        "t_units_per_sentence": div(t_units, n_sentences),
        "clauses_per_t_unit": div(clauses, t_units),
        "complex_t_unit_ratio": div(total("complex_t_units"), t_units),
        "dependent_clauses_per_clause": div(dep, clauses),
        "dependent_clauses_per_t_unit": div(dep, t_units),
        "coordinate_clauses_per_clause": div(coord, clauses),
        "coordinate_clauses_per_t_unit": div(coord, t_units),
        "complex_nominals_per_clause": div(nominals, clauses),
        "complex_nominals_per_t_unit": div(nominals, t_units),
        "vps_per_t_unit": div(vps, t_units),
    }
