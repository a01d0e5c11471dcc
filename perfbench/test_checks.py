"""Each benchmark check passes on real CLI output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py

Run from the repository root (the CLI and the oracles are imported from
``src/`` and ``tests/``).
"""

import csv
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import ambiguous  # noqa: E402
import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from oracles import enumerate_derivations, oracle_traditional, tree_logprob_by_rules  # noqa: E402

from readgauge import cli, synth  # noqa: E402
from readgauge.cky import Parser  # noqa: E402
from readgauge.grammar import load_grammar  # noqa: E402

GRAMMAR = os.path.join(ROOT, "src", "readgauge", "data", "demo_grammar.txt")


@pytest.fixture(scope="module")
def grammar():
    return load_grammar(GRAMMAR)


@pytest.fixture(scope="module")
def tag_of():
    return {w: t for t, ws in ambiguous.grammar_vocabulary(GRAMMAR).items() for w in ws}


def run_cli(*args):
    assert cli.main(list(args)) == 0


def rewrite(path, doc_id, column, transform):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row[next(iter(row))] == doc_id:
            row[column] = repr(transform(float(row[column])))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def synth_features(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    manifest = synth.generate_corpus(str(out / "corpus"), n_docs=9, seed=3)
    run_cli("extract", "--manifest", manifest, "--features", "flesch+novel_syntactic", "--out", str(out / "x"))
    return manifest, str(out / "x" / "features.csv")


@pytest.mark.parametrize("shape", [
    ((0, 0, 0),), ((0, 2, 0),), ((1, 1, 1),), ((2, 0, 0),), ((0, 3, 0),),
    ((0, 1, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
])
def test_closed_forms_match_enumeration(shape, grammar):
    vocab = ambiguous.grammar_vocabulary(GRAMMAR)
    words = ambiguous.sentence_words(random.Random(5), vocab, shape)
    derivations = enumerate_derivations(grammar, tuple(words))
    assert len(words) == ambiguous.shape_length(shape)
    assert len(derivations) == ambiguous.shape_readings(shape)
    # every reading has the same number of nodes: one "(" per node
    assert {serial.count("(") - 1 for _lp, serial in derivations} == {ambiguous.shape_subtrees(shape)}


def test_traditional_check_catches_a_perturbed_value(synth_features):
    manifest, features = synth_features
    texts = checks.manifest_texts(manifest)
    assert checks.check_traditional(features, texts, oracle_traditional) == 9
    rewrite(features, "doc0004", "flesch", lambda x: x * (1 + 1e-6))
    with pytest.raises(CheckFailed, match="doc0004: flesch"):
        checks.check_traditional(features, texts, oracle_traditional)
    rewrite(features, "doc0004", "flesch", lambda x: x / (1 + 1e-6))


def test_ambiguity_check_catches_a_perturbed_value(synth_features, grammar):
    manifest, features = synth_features
    texts = checks.manifest_texts(manifest)
    sample = ["doc0000", "doc0001"]
    checks.check_ambiguity(features, texts, sample, grammar, enumerate_derivations)
    rewrite(features, "doc0001", "pd_10", lambda x: x + 1e-6)
    with pytest.raises(CheckFailed, match="doc0001: pd_10"):
        checks.check_ambiguity(features, texts, sample, grammar, enumerate_derivations)
    rewrite(features, "doc0001", "pd_10", lambda x: x - 1e-6)


def test_kbest_check_catches_truncated_and_reordered_lists(grammar, tag_of):
    words = "the cat sees a dog with a hat near the box".split()  # 5 readings
    parses = Parser(grammar).kbest(words, 10).parses
    lp = lambda t: tree_logprob_by_rules(t, grammar)  # noqa: E731
    checks.check_kbest(words, parses, 10, tag_of, lp)
    with pytest.raises(CheckFailed, match="4 parses, want min"):
        checks.check_kbest(words, parses[:-1], 10, tag_of, lp)
    with pytest.raises(CheckFailed, match="out of order"):
        checks.check_kbest(words, parses[::-1], 10, tag_of, lp)


def test_skip_check_catches_a_wrong_skip_count(tmp_path, grammar):
    sentences = ambiguous.generate_sentences(2, GRAMMAR)
    sample = [s for s in sentences if s.skip][:2] + [s for s in sentences if not s.skip][:6]
    manifest, layout = ambiguous.write_corpus(str(tmp_path / "corpus"), sample)
    run_cli("extract", "--manifest", manifest, "--features", "syntactic", "--out", str(tmp_path / "x"))
    features = str(tmp_path / "x" / "features.csv")
    assert checks.check_skips(features, layout) == 2
    skipped = next(s for sents in layout.values() for s in sents if s.skip)
    skipped.skip = None
    skipped.shape = ambiguous.OOV_SHAPE
    with pytest.raises(CheckFailed, match="wrong sentences skipped"):
        checks.check_skips(features, layout)


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_eval_check_catches_a_summary_that_is_not_the_fold_mean(tmp_path):
    folds = [(0.9, 0.8), (1.0, 1.0), (0.95, 0.9)]
    folds_csv, summary_csv = str(tmp_path / "folds.csv"), str(tmp_path / "summary.csv")
    write_rows(folds_csv, ["fold", "weighted_f1", "macro_f1"], [[i, w, m] for i, (w, m) in enumerate(folds)])
    mean_w = sum(w for w, _ in folds) / 3
    mean_m = sum(m for _, m in folds) / 3
    sd = lambda xs: (sum((x - sum(xs) / 3) ** 2 for x in xs) / 3) ** 0.5  # noqa: E731
    header = ["features", "weighted_f1", "macro_f1", "sd_weighted_f1", "sd_macro_f1"]
    row = ["flesch", repr(mean_w), repr(mean_m), repr(sd([w for w, _ in folds])), repr(sd([m for _, m in folds]))]
    write_rows(summary_csv, header, [row])
    assert checks.check_eval(summary_csv, folds_csv, 3, 0.9) == mean_w
    write_rows(summary_csv, header, [[row[0], repr(mean_w + 1e-6)] + row[2:]])
    with pytest.raises(CheckFailed, match="weighted_f1 .* is not the fold mean"):
        checks.check_eval(summary_csv, folds_csv, 3)
    write_rows(summary_csv, header, [row])
    with pytest.raises(CheckFailed, match="weighted F1"):
        checks.check_eval(summary_csv, folds_csv, 3, 0.99)


def test_ablation_check_catches_wrong_sizes_and_scores(tmp_path):
    path = str(tmp_path / "ablation.csv")
    header = ["size", "macro_f1_with", "macro_f1_without"]
    write_rows(path, header, [[10, 0.5, 0.6], [20, 0.7, 1.0]])
    checks.check_ablation(path, [10, 20])
    with pytest.raises(CheckFailed, match="sizes"):
        checks.check_ablation(path, [10, 20, 40])
    write_rows(path, header, [[10, 0.5, 0.6], [20, 1.2, 1.0]])
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_ablation(path, [10, 20])


def test_determinism_check_catches_changed_bytes(tmp_path):
    (tmp_path / "a.csv").write_text("x\n1\n")
    first = checks.tree_digest(str(tmp_path))
    checks.check_same_outputs(first, checks.tree_digest(str(tmp_path)))
    (tmp_path / "a.csv").write_text("x\n2\n")
    with pytest.raises(CheckFailed, match="different bytes"):
        checks.check_same_outputs(first, checks.tree_digest(str(tmp_path)))
