"""Acceptance gate: nine end-to-end criteria, one printed pass/fail line each.

Each test prints ``ACCEPTANCE n: PASS|FAIL — <what was checked>`` so the
suite output doubles as a release checklist. Criteria 6-8 run the full CLI
against a synthetic corpus generated into a session-scoped tmp directory.
"""

import csv
import hashlib
import math
import os
import random
import shutil
import time

import numpy as np
import pytest

from oracles import (
    enumerate_derivations,
    oracle_f1,
    oracle_pos_ratios,
    oracle_traditional,
    oracle_ttr,
    random_grammar,
)
from readgauge.cky import KBestList, Parser, ParseTree
from readgauge.cli import ingest_corpus, main
from readgauge.errors import NoParse
from readgauge.evaluation import f1_scores, kfold
from readgauge.labeling import as_classes
from readgauge.lexical_features import (
    surface_stats,
    traditional_scores,
    ttr_measures,
)
from readgauge.models import hinge_loss_grad, softmax_loss_grad
from readgauge.parse_features import parse_deviation, parse_deviation_from_max
from readgauge.pipeline import FeaturePipeline
from readgauge.pos_features import (
    POS_FEATURE_NAMES,
    kl_divergence,
    pos_divergence,
    pos_ratios,
)
from readgauge.textcore import make_document


def report(n: int, ok: bool, what: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {what}")
    assert ok, f"acceptance criterion {n} failed: {what}"


WORD_POOL = [
    "the", "a", "dog", "cat", "bird", "runs", "sees", "beautiful",
    "extraordinary", "notwithstanding", "it", "was", "complicated",
    "sat", "tree", "wet", "quickly", "jumping", "on", "and",
]


def random_document(rng: random.Random) -> object:
    sentences = []
    for _ in range(rng.randint(1, 8)):
        words = [rng.choice(WORD_POOL) for _ in range(rng.randint(1, 15))]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + rng.choice([".", "!", "?"]))
    return make_document(f"r{rng.random()}", " ".join(sentences))


def test_acceptance_1_formula_oracles():
    """8 traditional formulas, 5 TTR measures and 29 POS ratios vs oracles."""
    rng = random.Random(42)
    tags = ["NN", "NNS", "NNP", "VB", "VBD", "VBZ", "VBG", "JJ", "RB",
            "DT", "IN", "CC", "PRP", "MD", "UH", "WP"]
    start = time.monotonic()
    ok = True
    detail = "1000 documents, tolerance 1e-9"
    for i in range(1000):
        doc = random_document(rng)

        stats = surface_stats(doc)
        words = doc.word_tokens
        n_poly = sum(1 for t in words if t.syllables > 2)
        n_mono = sum(1 for t in words if t.syllables == 1)
        n_long = sum(1 for t in words if t.char_count >= 7)
        expected = oracle_traditional(
            stats["n_sentences"], stats["n_words"], stats["n_characters"],
            stats["n_syllables"], n_poly, n_mono, n_long,
        )
        got = traditional_scores(stats)
        for name, value in got.items():
            if abs(value - expected[name]) > 1e-9:
                ok, detail = False, f"doc {i}: {name} {value} != {expected[name]}"
                break

        tokens = [t.lowercased for t in words]
        expected_ttr = oracle_ttr(tokens)
        got_ttr = ttr_measures(doc)
        for name, value in expected_ttr.items():
            if abs(got_ttr[name] - value) > 1e-9:
                ok, detail = False, f"doc {i}: {name} {got_ttr[name]} != {value}"
                break

        pairs = [(w, rng.choice(tags)) for w in tokens]
        expected_pos = oracle_pos_ratios(pairs)
        got_pos = pos_ratios((tuple(pairs),))
        for name in POS_FEATURE_NAMES:
            if abs(got_pos[name] - expected_pos[name]) > 1e-9:
                ok, detail = False, f"doc {i}: {name} {got_pos[name]} != {expected_pos[name]}"
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    if ok and elapsed >= 10.0:
        ok, detail = False, f"runtime {elapsed:.1f}s >= 10s"
    report(1, ok, f"formula oracle suite ({detail}, {elapsed:.1f}s)")


def test_acceptance_2_kbest_vs_enumeration():
    """Parser.kbest vs exhaustive enumeration on 50 random small PCFGs."""
    rng = random.Random(2026)
    start = time.monotonic()
    ok = True
    detail = "50 grammars, all sentences of length <= 8, exact order and 1e-9 log-probs"
    checked = 0
    for g_idx in range(50):
        grammar = random_grammar(rng, max_nts=5)
        parser = Parser(grammar)
        terms = sorted(grammar.terminals)
        # sample sentences of each length; short enough to enumerate fully
        sentences = []
        for n in range(1, 9):
            for _ in range(3):
                sentences.append([rng.choice(terms) for _ in range(n)])
        for toks in sentences:
            expected = enumerate_derivations(grammar, toks, cap=100000)
            if not expected:
                try:
                    parser.kbest(toks, 1000)
                    ok, detail = False, f"grammar {g_idx}: parsed unparseable {toks}"
                except NoParse:
                    pass
                continue
            k = 1000
            kbest = parser.kbest(toks, k)
            got = [(p.log_prob, p.serialize()) for p in kbest.parses]
            want = expected[:k]
            if len(got) != len(want):
                ok, detail = False, (
                    f"grammar {g_idx} toks {toks}: {len(got)} parses vs {len(want)}"
                )
            else:
                for (glp, gser), (elp, eser) in zip(got, want):
                    if gser != eser or abs(glp - elp) > 1e-9:
                        ok, detail = False, (
                            f"grammar {g_idx} toks {toks}: ({glp},{gser}) vs ({elp},{eser})"
                        )
                        break
            checked += 1
            if not ok:
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    if ok and elapsed >= 60.0:
        ok, detail = False, f"runtime {elapsed:.1f}s >= 60s"
    report(2, ok, f"k-best correctness ({detail}; {checked} sentences, {elapsed:.1f}s)")


def test_acceptance_3_novel_feature_properties():
    """PD/PDM and divergence invariants across 10,000 randomized cases."""
    rng = random.Random(7)
    tags = ["NN", "VB", "JJ", "RB", "DT", "IN"]
    start = time.monotonic()
    ok = True
    detail = "10,000 cases"

    def kbest_of(lps):
        parses = tuple(
            ParseTree(label="S", children=("a",), log_prob=lp) for lp in lps
        )
        return KBestList(parses=parses)

    for i in range(10000):
        lps = sorted(
            (rng.uniform(-30.0, -0.01) for _ in range(rng.randint(1, 12))),
            reverse=True,
        )
        kb = kbest_of(lps)
        x = rng.randint(1, 12)
        shift = rng.uniform(-5.0, 5.0)
        kb_shift = kbest_of([lp + shift for lp in lps])

        if parse_deviation(kb, 1) != 0.0 or parse_deviation_from_max(kb, 1) != 0.0:
            ok, detail = False, f"case {i}: PD_1/PDM_1 not identically 0"
            break
        if abs(parse_deviation(kb, x) - parse_deviation(kb_shift, x)) > 1e-9:
            ok, detail = False, f"case {i}: PD_{x} not shift-invariant"
            break
        if abs(parse_deviation_from_max(kb, x) - parse_deviation_from_max(kb_shift, x)) > 1e-9:
            ok, detail = False, f"case {i}: PDM_{x} not shift-invariant"
            break

        # KL >= 0 with equality iff the distributions are equal
        support = rng.sample(tags, rng.randint(1, len(tags)))
        pw = [rng.uniform(0.05, 1.0) for _ in support]
        qw = [rng.uniform(0.05, 1.0) for _ in support]
        p = {t: w / sum(pw) for t, w in zip(support, pw)}
        q = {t: w / sum(qw) for t, w in zip(support, qw)}
        kl = kl_divergence(p, q)
        if kl < -1e-12:
            ok, detail = False, f"case {i}: KL {kl} < 0"
            break
        if all(abs(p[t] - q[t]) < 1e-15 for t in support) and abs(kl) > 1e-12:
            ok, detail = False, f"case {i}: KL of equal dists = {kl}"
            break
        if kl_divergence(p, dict(p)) > 1e-12:
            ok, detail = False, f"case {i}: KL(p||p) != 0"
            break

        # single-sentence POS_div is identically zero
        pairs = tuple((f"w{j}", rng.choice(tags)) for j in range(rng.randint(1, 10)))
        single = (pairs,)
        if pos_divergence(single) > 1e-12:
            ok, detail = False, f"case {i}: single-sentence POS_div != 0"
            break
    elapsed = time.monotonic() - start
    if ok and elapsed >= 10.0:
        ok, detail = False, f"runtime {elapsed:.1f}s >= 10s"
    report(3, ok, f"novel-feature properties ({detail}, {elapsed:.1f}s)")


def test_acceptance_4_f1_oracle():
    """Weighted/macro F1 vs a confusion-matrix oracle; balanced-support identity."""
    rng = random.Random(99)
    ok = True
    detail = "1000 random prediction vectors, tolerance 1e-12"
    for i in range(1000):
        n_classes = rng.randint(2, 6)
        n = rng.randint(1, 60)
        y_true = [rng.randrange(n_classes) for _ in range(n)]
        y_pred = [rng.randrange(n_classes) for _ in range(n)]
        got_per, got_w, got_m = f1_scores(y_true, y_pred, n_classes)
        exp_per, exp_w, exp_m = oracle_f1(y_true, y_pred, n_classes)
        if any(abs(g - e) > 1e-12 for g, e in zip(got_per, exp_per)):
            ok, detail = False, f"case {i}: per-class mismatch"
            break
        if abs(got_w - exp_w) > 1e-12 or abs(got_m - exp_m) > 1e-12:
            ok, detail = False, f"case {i}: weighted/macro mismatch"
            break
        # weighted equals macro exactly when supports are balanced
        per = max(1, n // n_classes)
        y_bal = [c for c in range(n_classes) for _ in range(per)]
        y_bal_pred = [rng.randrange(n_classes) for _ in y_bal]
        _, w, m = f1_scores(y_bal, y_bal_pred, n_classes)
        if w != m:
            # identical floating computations: sum(s*f)/sum(s) == mean when s const
            if abs(w - m) > 1e-15:
                ok, detail = False, f"case {i}: balanced weighted {w} != macro {m}"
                break
    report(4, ok, f"F1 oracle ({detail})")


def test_acceptance_5_gradient_checks():
    """Analytic gradients vs central differences on 100 random instances."""
    rng = np.random.default_rng(5)
    ok = True
    detail = "100 instances, step 1e-6, relative error < 1e-4"
    eps = 1e-6

    def check(loss_fn, W, b):
        _, gW, gb = loss_fn(W, b)
        flat = np.concatenate([gW.ravel(), gb.ravel()])
        num = np.zeros_like(flat)
        idx = 0
        for arr in (W, b):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                orig = arr[it.multi_index]
                arr[it.multi_index] = orig + eps
                lp = loss_fn(W, b)[0]
                arr[it.multi_index] = orig - eps
                lm = loss_fn(W, b)[0]
                arr[it.multi_index] = orig
                num[idx] = (lp - lm) / (2 * eps)
                idx += 1
        denom = max(np.linalg.norm(flat), np.linalg.norm(num), 1e-12)
        return np.linalg.norm(flat - num) / denom

    for i in range(100):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(1, 5))
        c = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n)
        W = rng.normal(size=(c, d))
        b = rng.normal(size=c)
        rel = check(lambda w, bb: softmax_loss_grad(w, bb, X, y, l2=0.01), W, b)
        if rel >= 1e-4:
            ok, detail = False, f"instance {i}: logistic rel err {rel:.2e}"
            break
        rel = check(lambda w, bb: hinge_loss_grad(w, bb, X, y, C=0.7), W, b)
        if rel >= 1e-4:
            ok, detail = False, f"instance {i}: hinge rel err {rel:.2e}"
            break
    report(5, ok, f"model gradients ({detail})")


# -- end-to-end criteria over the synthetic corpus ------------------------------


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth600")
    code = main(["synth", "--out", str(out), "--docs", "600", "--classes", "3", "--seed", "7"])
    assert code == 0
    return str(out)


def read_summary(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))[0]


def test_acceptance_6_end_to_end_separability(synth_corpus, tmp_path):
    manifest = os.path.join(synth_corpus, "manifest.csv")
    start = time.monotonic()
    out_flesch = tmp_path / "flesch"
    code = main([
        "eval", "--manifest", manifest, "--features", "flesch",
        "--model", "svm", "--folds", "5", "--seed", "7",
        "--out", str(out_flesch),
    ])
    assert code == 0
    flesch_f1 = float(read_summary(out_flesch / "eval_summary.csv")["weighted_f1"])

    out_ling = tmp_path / "ling"
    code = main([
        "eval", "--manifest", manifest, "--features", "flesch+linguistic",
        "--model", "svm", "--folds", "5", "--seed", "7",
        "--out", str(out_ling),
    ])
    assert code == 0
    ling_f1 = float(read_summary(out_ling / "eval_summary.csv")["weighted_f1"])
    elapsed = time.monotonic() - start

    ok = flesch_f1 >= 0.90 and ling_f1 >= flesch_f1 - 0.02 and elapsed < 300.0
    report(6, ok, (
        f"end-to-end separability (flesch weighted F1 {flesch_f1:.4f} >= 0.90, "
        f"+linguistic {ling_f1:.4f} within 0.02, {elapsed:.0f}s < 300s)"
    ))


def test_acceptance_7_fusion_oracle_score(synth_corpus, tmp_path):
    manifest = os.path.join(synth_corpus, "manifest.csv")
    docs = ingest_corpus(manifest)
    labels, _ = as_classes([d.label for d in docs])
    scores_path = tmp_path / "scores.csv"
    with open(scores_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "score_name", "value"])
        for doc, label in zip(docs, labels):
            writer.writerow([doc.doc_id, "oracle", str(float(label))])
    out = tmp_path / "fused"
    code = main([
        "eval", "--manifest", manifest, "--features", "flesch",
        "--scores", str(scores_path), "--model", "svm",
        "--folds", "5", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    f1 = float(read_summary(out / "eval_summary.csv")["weighted_f1"])
    ok = f1 >= 0.99
    report(7, ok, f"score fusion with a perfect oracle score (weighted F1 {f1:.4f} >= 0.99)")


def test_acceptance_8_ablation_determinism(synth_corpus, tmp_path):
    manifest = os.path.join(synth_corpus, "manifest.csv")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main([
            "ablate", "--manifest", manifest,
            "--features", "word_types+flesch",
            "--baseline-features", "word_types",
            "--model", "logistic", "--sizes", "50,100,200,400",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        outs.append(out / "ablation.csv")
    byte_identical = outs[0].read_bytes() == outs[1].read_bytes()
    with open(outs[0], newline="", encoding="utf-8") as fh:
        rows = {int(r["size"]): r for r in csv.DictReader(fh)}
    at_50 = rows[50]
    with_wins = float(at_50["macro_f1_with"]) >= float(at_50["macro_f1_without"])
    ok = byte_identical and with_wins and sorted(rows) == [50, 100, 200, 400]
    report(8, ok, (
        f"ablation harness (byte-identical reruns: {byte_identical}; size-50 "
        f"with {at_50['macro_f1_with']} >= without {at_50['macro_f1_without']})"
    ))


def test_acceptance_9_leakage_audit(synth_corpus, tmp_path):
    """Deleting the test fold's documents before fitting must not change
    any fitted parameter (vocabulary, scaler, weights)."""
    manifest = os.path.join(synth_corpus, "manifest.csv")
    docs = ingest_corpus(manifest)
    labels, _ = as_classes([d.label for d in docs])
    fold_of = kfold([d.doc_id for d in docs], labels, k=5, seed=7)
    fold = 0
    train = [(d, l) for d, l in zip(docs, labels) if fold_of[d.doc_id] != fold]

    def fit_and_hash(train_pairs):
        pipe = FeaturePipeline(
            ["word_types", "flesch"], __import__("readgauge.registry", fromlist=["Resources"]).Resources(),
            model="logistic")
        pipe.fit([d for d, _ in train_pairs], [l for _, l in train_pairs])
        h = hashlib.sha256()
        h.update(repr(pipe.vocab).encode())
        h.update(pipe.model.scaler.mean.tobytes())
        h.update(pipe.model.scaler.std.tobytes())
        h.update(pipe.model.weights.tobytes())
        h.update(pipe.model.bias.tobytes())
        return h.hexdigest()

    hash_with_test_docs_on_disk = fit_and_hash(train)

    # physically remove the held-out fold's files, re-ingest, re-fit
    pruned_dir = tmp_path / "pruned"
    shutil.copytree(synth_corpus, pruned_dir)
    test_ids = {d.doc_id for d in docs if fold_of[d.doc_id] == fold}
    rows_kept = []
    with open(pruned_dir / "manifest.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            if row[0] in test_ids:
                os.remove(pruned_dir / row[1])
            else:
                rows_kept.append(row)
    with open(pruned_dir / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows_kept)

    docs2 = ingest_corpus(str(pruned_dir / "manifest.csv"))
    labels2, _ = as_classes([d.label for d in docs2])
    by_id = {d.doc_id: (d, l) for d, l in zip(docs2, labels2)}
    train2 = [by_id[d.doc_id] for d, _ in train]
    hash_without_test_docs = fit_and_hash(train2)

    ok = hash_with_test_docs_on_disk == hash_without_test_docs
    report(9, ok, (
        "leakage audit (parameter hashes identical after deleting the test "
        f"fold from disk: {ok})"
    ))
