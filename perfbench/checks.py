"""Checks of the CLI's outputs against computations made apart from it.

Each check raises ``CheckFailed`` naming the first mismatch. None of them
compares against a stored copy of earlier output: the expected values come
from the raw text, from exhaustive derivation enumeration over the original
grammar, from the closed forms in ``ambiguous`` or from the CSVs' own
definitions.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
import statistics

from ambiguous import SENTENCE_CAP, shape_subtrees, tag_readings

TOL = 1e-9


class CheckFailed(Exception):
    pass


def _close(got: float, want: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def manifest_texts(manifest: str) -> dict[str, str]:
    base = os.path.dirname(manifest)
    texts = {}
    for row in read_rows(manifest):
        with open(os.path.join(base, row["path"]), encoding="utf-8") as fh:
            texts[row["doc_id"]] = fh.read()
    return texts


# -- traditional features -------------------------------------------------------

_WORD = re.compile(r"[A-Za-z0-9]+(?:['’-][A-Za-z0-9]+)*")


def _syllables(word: str) -> int:
    w = word.lower()
    groups = len(re.findall(r"[aeiouy]+", w))
    if w.endswith("e") and groups > 1:
        groups -= 1
    return max(groups, 1)


def traditional_from_text(text: str, oracle_traditional) -> dict[str, float]:
    """The 12 traditional features of a generated text (sentences end in '.')."""
    sentences = [s for s in re.split(r"(?<=[.?!])\s+", text.strip()) if s]
    words = _WORD.findall(text)
    syllables = [_syllables(w) for w in words]
    n_sent, n_words = len(sentences), len(words)
    n_chars = sum(len(w) for w in words)
    feats = {
        "number_of_sentences": float(n_sent),
        "mean_sentence_length": n_words / n_sent if n_sent else 0.0,
        "number_of_characters": float(n_chars),
        "number_of_syllables": float(sum(syllables)),
    }
    feats.update(oracle_traditional(
        n_sent, n_words, n_chars, sum(syllables),
        sum(1 for s in syllables if s > 2),
        sum(1 for s in syllables if s == 1),
        sum(1 for w in words if len(w) >= 7),
    ))
    return feats


def check_traditional(features_csv: str, texts: dict[str, str], oracle_traditional) -> int:
    rows = read_rows(features_csv)
    if sorted(r["doc_id"] for r in rows) != sorted(texts):
        raise CheckFailed(f"{features_csv}: rows do not match the corpus documents")
    for row in rows:
        want = traditional_from_text(texts[row["doc_id"]], oracle_traditional)
        for name, value in want.items():
            if not _close(float(row[name]), value):
                raise CheckFailed(f"{row['doc_id']}: {name} {row[name]} != {value!r}")
    return len(rows)


# -- parse ambiguity ------------------------------------------------------------


def _pop_sd(xs: list[float]) -> float:
    mean = sum(xs) / len(xs)
    return math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))


def ambiguity_from_enumeration(text, grammar, enumerate_derivations, k=10) -> dict[str, float]:
    """pd_2, pd_10 and pdm_10 from every derivation of every parsable sentence."""
    pd2, pd10, pdm10 = [], [], []
    for sentence in re.split(r"(?<=[.?!])\s+", text.strip()):
        words = tuple(w.lower() for w in _WORD.findall(sentence))
        if not words or len(words) > SENTENCE_CAP or not set(words) <= grammar.terminals:
            continue
        derivations = enumerate_derivations(grammar, words)
        if not derivations:
            continue
        lps = [lp for lp, _serial in derivations[:k]]
        pd2.append(_pop_sd(lps[:2]))
        pd10.append(_pop_sd(lps))
        pdm10.append(max(lps) - sum(lps) / len(lps))
    if not pd2:
        return {"pd_2": 0.0, "pd_10": 0.0, "pdm_10": 0.0}
    return {
        "pd_2": sum(pd2) / len(pd2),
        "pd_10": sum(pd10) / len(pd10),
        "pdm_10": sum(pdm10) / len(pdm10),
    }


def check_ambiguity(features_csv, texts, doc_ids, grammar, enumerate_derivations) -> int:
    rows = {r["doc_id"]: r for r in read_rows(features_csv)}
    for doc_id in doc_ids:
        want = ambiguity_from_enumeration(texts[doc_id], grammar, enumerate_derivations)
        for name, value in want.items():
            if not _close(float(rows[doc_id][name]), value):
                raise CheckFailed(f"{doc_id}: {name} {rows[doc_id][name]} != {value!r}")
    return len(doc_ids)


def check_kbest(words, parses, k, tag_of, tree_logprob) -> None:
    """One sentence's k-best list: size min(k, readings), best first, exact
    log-probs, and every tree a derivation of the sentence."""
    readings = tag_readings([tag_of[w] for w in words])
    if len(parses) != min(k, readings):
        raise CheckFailed(f"{' '.join(words)}: {len(parses)} parses, want min({k}, {readings})")
    for prev, tree in zip(parses, parses[1:]):
        if tree.log_prob > prev.log_prob + TOL:
            raise CheckFailed(f"{' '.join(words)}: k-best list out of order")
    serials = set()
    for tree in parses:
        if list(tree.yield_) != list(words):
            raise CheckFailed(f"{' '.join(words)}: tree yield differs from the sentence")
        if not _close(tree.log_prob, tree_logprob(tree)):
            raise CheckFailed(f"{' '.join(words)}: log-prob {tree.log_prob} != rule sum")
        serials.add(tree.serialize())
    if len(serials) != len(parses):
        raise CheckFailed(f"{' '.join(words)}: duplicate trees in the k-best list")


def check_skips(features_csv: str, layout) -> int:
    """subtrees_per_sentence counts only parsed sentences over all sentences,
    and every reading of a shape has the same size, so it pins down exactly
    which sentences the parser skipped."""
    rows = {r["doc_id"]: r for r in read_rows(features_csv)}
    for doc_id, sentences in layout.items():
        want = sum(shape_subtrees(s.shape) for s in sentences if not s.skip) / len(sentences)
        got = float(rows[doc_id]["subtrees_per_sentence"])
        if not _close(got, want):
            raise CheckFailed(f"{doc_id}: subtrees_per_sentence {got} != {want}: wrong sentences skipped")
    return sum(1 for sents in layout.values() for s in sents if s.skip)


# -- eval and ablation ----------------------------------------------------------


def check_eval(summary_csv: str, folds_csv: str, folds: int, min_weighted_f1=None) -> float:
    (summary,) = read_rows(summary_csv)
    fold_rows = read_rows(folds_csv)
    if [r["fold"] for r in fold_rows] != [str(i) for i in range(folds)]:
        raise CheckFailed(f"{folds_csv}: want folds 0..{folds - 1}")
    for metric in ("weighted_f1", "macro_f1"):
        values = [float(r[metric]) for r in fold_rows]
        if not all(0.0 <= v <= 1.0 for v in values):
            raise CheckFailed(f"{folds_csv}: {metric} outside [0, 1]")
        mean = sum(values) / len(values)
        if not _close(float(summary[metric]), mean, 1e-12):
            raise CheckFailed(f"{summary_csv}: {metric} {summary[metric]} is not the fold mean {mean!r}")
        sd = statistics.pstdev(values)
        if not _close(float(summary["sd_" + metric]), sd, 1e-12):
            raise CheckFailed(f"{summary_csv}: sd_{metric} {summary['sd_' + metric]} != {sd!r}")
    weighted = float(summary["weighted_f1"])
    if min_weighted_f1 is not None and weighted < min_weighted_f1:
        raise CheckFailed(f"{summary_csv}: weighted F1 {weighted} < {min_weighted_f1}")
    return weighted


def check_ablation(ablation_csv: str, sizes: list[int]) -> None:
    rows = read_rows(ablation_csv)
    if [int(r["size"]) for r in rows] != sizes:
        raise CheckFailed(f"{ablation_csv}: sizes {[r['size'] for r in rows]} != {sizes}")
    for row in rows:
        for col in ("macro_f1_with", "macro_f1_without"):
            if not 0.0 <= float(row[col]) <= 1.0:
                raise CheckFailed(f"{ablation_csv}: size {row['size']} {col} outside [0, 1]")


# -- determinism ----------------------------------------------------------------


def tree_digest(root: str, skip_suffix: str = ".log") -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(skip_suffix):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_same_outputs(first: dict[str, str], again: dict[str, str]) -> None:
    if first.keys() != again.keys():
        raise CheckFailed(f"repeated run wrote other files: {sorted(first.keys() ^ again.keys())[:3]}")
    for path in sorted(first):
        if first[path] != again[path]:
            raise CheckFailed(f"repeated run wrote different bytes to {path}")
