"""The workloads: their inputs, the CLI commands of one round, and the
checks run on a round's outputs.

Every workload runs one ``extract``, one ``eval`` and one ``ablate`` per
round, so each reports every end-to-end metric; the feature sets and models
are chosen so that one layer does most of the work and the other commands
are light. Corpus sizes are set so that a round takes a few seconds on two
cores, which lets a run repeat it and report medians.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import ambiguous

PARSE_DOCS = 120  # synth-parse and synth-svm run on the same corpus
FOLDS = 5
MIN_SYNTH_F1 = 0.90
PD_SAMPLE = 3  # documents whose ambiguity features are enumerated exhaustively
KBEST_SAMPLE_MAX_READINGS = 500  # cheap enough to enumerate or to parse again


@dataclass
class Workload:
    name: str
    why: str
    extract: list[str]
    eval: list[str]
    ablate: list[str]
    sizes: list[int]
    synth_docs: int = 0  # 0: the corpus is generated by the benchmark instead
    min_f1: float | None = MIN_SYNTH_F1
    checks: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="synth-parse",
            why="synth corpus through extract linguistic: the CKY chart does most of the work, the models almost none",
            synth_docs=PARSE_DOCS,
            extract=["--features", "linguistic"],
            eval=["--features", "flesch", "--model", "logistic"],
            # logistic fits on a wide matrix with the fold-fitted word_types vocabulary
            ablate=["--features", "word_types+pos+psycholinguistic", "--baseline-features", "word_types",
                    "--model", "logistic"],
            sizes=[24, 48, 96],
            checks=("traditional", "ambiguity", "kbest"),
        ),
        Workload(
            name="synth-svm",
            why="SVM eval and ablate on narrow and word_types matrices: C-grid search and hinge fits dominate, the parser is idle",
            synth_docs=PARSE_DOCS,
            extract=["--features", "flesch"],
            eval=["--features", "flesch", "--model", "svm"],
            ablate=["--features", "word_types+flesch", "--baseline-features", "word_types", "--model", "svm"],
            sizes=[96],
            checks=("traditional",),
        ),
        Workload(
            name="ambiguous-parse",
            why="long PP chains and coordination up to the 40-word cap, with skipped sentences: k-best lists fill and ties dominate",
            extract=["--features", "syntactic+novel_syntactic"],
            eval=["--features", "flesch", "--model", "logistic"],
            ablate=["--features", "flesch+pos", "--baseline-features", "flesch", "--model", "logistic"],
            sizes=[6, 12, 18],
            min_f1=None,
            checks=("ambiguity", "kbest", "skips"),
        ),
    ]
}


def make_inputs(workload: Workload, seed: int, workdir: str, grammar_path: str):
    """Set-up outside the timed rounds; returns the ambiguous corpus layout."""
    if workload.synth_docs:
        return None
    sentences = ambiguous.generate_sentences(seed, grammar_path)
    return ambiguous.write_corpus(os.path.join(workdir, "corpus"), sentences)


def round_commands(workload: Workload, seed: int, workdir: str, round_dir: str) -> list[tuple[str, list[str]]]:
    """(kind, CLI arguments) for one round, in order."""
    commands = []
    if workload.synth_docs:
        corpus = os.path.join(round_dir, "corpus")
        commands.append(("synth", ["synth", "--out", corpus, "--docs", str(workload.synth_docs),
                                   "--seed", str(seed)]))
    else:
        corpus = os.path.join(workdir, "corpus")
    manifest = ["--manifest", os.path.join(corpus, "manifest.csv")]
    out = os.path.join(round_dir, "out")
    commands += [
        ("extract", ["extract", *manifest, *workload.extract, "--out", os.path.join(out, "extract")]),
        ("eval", ["eval", *manifest, *workload.eval, "--folds", str(FOLDS), "--out", os.path.join(out, "eval")]),
        ("ablate", ["ablate", *manifest, *workload.ablate, "--sizes", ",".join(map(str, workload.sizes)),
                    "--out", os.path.join(out, "ablate")]),
    ]
    return commands


def corpus_docs(workload: Workload, layout) -> int:
    return workload.synth_docs or len(layout[1])


def pd_sample(texts: dict[str, str], layout) -> list[str]:
    """Documents for the enumeration check: the first synth documents, or the
    most ambiguous ambiguous-parse documents that are still cheap to
    enumerate (so that pd_10 depends on k = 10)."""
    if layout is None:
        return sorted(texts)[:PD_SAMPLE]
    cheap = [
        doc_id for doc_id, sentences in layout[1].items()
        if all(s.skip or ambiguous.shape_readings(s.shape) <= KBEST_SAMPLE_MAX_READINGS for s in sentences)
    ]
    return cheap[-PD_SAMPLE:]
