"""Pinned output bytes: every CLI command's outputs on a fixed corpus.

The manifest and the feature matrix pass through no BLAS call, so their
bytes must match on every machine. The model outputs (eval summaries and
folds, the ablation curve, model files and the report) pass through BLAS,
and their last bits may differ on another CPU; a mismatch there on a new
machine is a finding to record, not a value to re-pin. A change that moves
one of these values changes the program's outputs; it must say which value
and why, and re-pin the table on purpose. Never update the table to get a
pass.
"""

import hashlib
import shutil

import pytest

from readgauge.cli import main

GOLDEN_SHA256 = {
    "corpus/manifest.csv": "1999e4e8d4736e45b05a049e8785a67472cb229b54c15ce2a6e634643af3900c",
    "extract/features.csv": "c0f88c003cf375c5410ae6d965e4d4fd5bcf5677fefde4385b6e1ceaa12d2a73",
    "eval_linguistic_svm/eval_summary.csv": "2a6a2cef68040b17464453c20b5a088a94d493ce76d06a49004b0b31d4aacd54",
    "eval_linguistic_svm/eval_folds.csv": "1cb27eb937680dff51fc2a623199f3e814bd4a4513d1e6e8eb4328a47fbafb3d",
    "eval_word_types_logistic/eval_summary.csv": "cb427a70fb032090f1719be9a1520c31e05d83074b69792f5271d80569bf425e",
    "eval_word_types_logistic/eval_folds.csv": "e3a3ddf31d047c295c22574ad1ce5fe338b221e669369d8e7c9da40f09225df4",
    "eval_flesch_linear/eval_summary.csv": "cd3f2d8dd6cc2b220872c6127637302f4b1c81bb87887fc2cb94d38462c74d10",
    "eval_flesch_linear/eval_folds.csv": "7d69bc04641eca844078033b69ce534f0e2f575b364831856f373347f1684c62",
    "ablate/ablation.csv": "13d499b3d5c4d72ba185441d5c7bae8ee4e78db838ab7d7c283f58ad64406d7e",
    "train_linguistic_svm/model.json": "7bb485d25ba81858a02d8ed231793d69d43a0ba0893607afb04f320947c5d323",
    "train_word_types_flesch_logistic/model.json": "3b0b16658c550d7a3b13097a95bf800cc056515c3e9985b0862a106bb3d47884",
    "report/report.csv": "31fb7410a513b44fc709d4dc70e8cf74bbd4ad645dc7318ed363899a65514432",
    "fused_eval_flesch_logistic/eval_summary.csv": "e2e030f866839960f07855ea1e4a6440171dd2d6f46c1f40a944834c7e724eee",
    "fused_eval_flesch_logistic/eval_folds.csv": "27757b803cbbbbd26004ff554496996d692182d6656e591b48ca1e684fb5b374",
    "fused_train_flesch_logistic/model.json": "1272368ca9b533056d0e9e3e9d2ad4b4b072a7b230066411843302137d96a4ac",
}

# output directory -> command line, run on the corpus in this order
CORPUS_COMMANDS = {
    "extract": ["extract", "--features", "word_types+linguistic"],
    "eval_linguistic_svm": ["eval", "--features", "linguistic", "--model", "svm"],
    "eval_word_types_logistic": [
        "eval", "--features", "word_types", "--model", "logistic", "--folds", "3"],
    "eval_flesch_linear": ["eval", "--features", "flesch", "--model", "linear"],
    "ablate": [
        "ablate", "--features", "word_types+pos", "--baseline-features", "word_types",
        "--model", "svm", "--sizes", "12,24,48"],
    "train_linguistic_svm": ["train", "--features", "linguistic", "--model", "svm"],
    "train_word_types_flesch_logistic": [
        "train", "--features", "word_types+flesch", "--model", "logistic"],
}


# Fused runs: each command also reads ``scores.csv`` (see ``write_scores``).
# Their directories do not start with ``eval_``, so the report leaves them out.
FUSED_COMMANDS = {
    "fused_eval_flesch_logistic": ["eval", "--features", "flesch", "--model", "logistic"],
    "fused_train_flesch_logistic": ["train", "--features", "flesch", "--model", "logistic"],
}


def write_scores(manifest, path):
    """Two scores per document, ``s1`` then ``s2``, from its manifest position."""
    with open(manifest, encoding="utf-8") as fh:
        doc_ids = [line.split(",", 1)[0] for line in fh.read().splitlines()[1:]]
    rows = ["doc_id,score_name,value"]
    for i, doc_id in enumerate(doc_ids):
        rows.append(f"{doc_id},s1,{(i * 7) % 11 / 4}")
        rows.append(f"{doc_id},s2,{(i * 3) % 5 - 2}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    manifest = str(out / "corpus" / "manifest.csv")
    assert main(["synth", "--out", str(out / "corpus"), "--docs", "60", "--seed", "7"]) == 0
    for name, (command, *flags) in CORPUS_COMMANDS.items():
        assert main([command, "--manifest", manifest, *flags, "--out", str(out / name)]) == 0
    write_scores(manifest, out / "scores.csv")
    for name, (command, *flags) in FUSED_COMMANDS.items():
        assert main([command, "--manifest", manifest, *flags,
                     "--scores", str(out / "scores.csv"), "--out", str(out / name)]) == 0
    reports = out / "reports"
    reports.mkdir()
    for name in CORPUS_COMMANDS:
        if name.startswith("eval_"):
            shutil.copy(out / name / "eval_summary.csv", reports / f"{name}.csv")
    assert main(["report", "--reports", str(reports), "--out", str(out / "report")]) == 0
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_bytes_are_pinned(golden_run, name):
    digest = hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


# Long and tie-heavy sentences over the bundled grammar's words: PP chains
# whose top readings tie in log-prob, coordinated clauses up to the 40-word
# cap, one sentence over the cap and one with a word the grammar lacks.
LONG_SENTENCES_SHA256 = "188f5becd4edecb3489798a0dc19ccb3c1d48cd23c2ffe8fabc6ed883589ab4a"

_PPS = ["with the cat", "in the box", "near the tree", "on the road",
        "with the ball", "in the lake", "near the car", "on the bed",
        "with the hat", "in the cup", "near the door", "on the boy"]


def _clause(n_pps: int, start: int = 0) -> str:
    return " ".join(["the man sees the dog", *(_PPS[(start + i) % len(_PPS)] for i in range(n_pps))])


def _text(sentences: list[str]) -> str:
    return " ".join(s[0].upper() + s[1:] + "." for s in sentences) + "\n"


def test_long_and_tied_sentences_are_pinned(tmp_path):
    docs = {
        "chains": [_clause(n, n) for n in range(3, 9)],
        "coordinated": [
            f"{_clause(3)} and {_clause(4, 3)}",
            f"{_clause(5, 1)} but {_clause(3, 6)}",
            f"{_clause(4, 2)} and {_clause(5, 7)}",
        ],
        "skipped": [
            _clause(12),
            "the man sees the zebra with the cat",
            _clause(3, 5),
        ],
    }
    rows = ["doc_id,path,class_name"]
    for i, (doc_id, sentences) in enumerate(docs.items()):
        (tmp_path / f"{doc_id}.txt").write_text(_text(sentences), encoding="utf-8")
        rows.append(f"{doc_id},{doc_id}.txt,level_{i % 2}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "extract"
    assert main(["extract", "--manifest", str(manifest),
                 "--features", "syntactic+novel_syntactic", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "features.csv").read_bytes()).hexdigest()
    assert digest == LONG_SENTENCES_SHA256


# Documents whose averages are empty: no text, no words, one unparseable word,
# no word in any bundled table, every sentence skipped, and one full document.
ZERO_BRANCHES_SHA256 = "ec8d43f8bcb2acc6933c5d8376e96d3bd5c00e0016f1608828210090b445c494"

ZERO_BRANCH_TEXTS = {
    "empty": "",
    "punctuation": "... !!!",
    "one_word": "Cat.",
    "unknown_words": "Zebra xylophone quux.",
    "all_skipped": "The man sees the zebra. The dog sees the zebra.",
    "parsed": "The cat sees the dog. The dog sees the cat.",
}


def test_zero_branches_are_pinned(tmp_path):
    rows = ["doc_id,path,class_name"]
    for i, (doc_id, text) in enumerate(ZERO_BRANCH_TEXTS.items()):
        (tmp_path / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        rows.append(f"{doc_id},{doc_id}.txt,{'ab'[i % 2]}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "extract"
    assert main(["extract", "--manifest", str(manifest),
                 "--features", "word_types+linguistic", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "features.csv").read_bytes()).hexdigest()
    assert digest == ZERO_BRANCHES_SHA256
