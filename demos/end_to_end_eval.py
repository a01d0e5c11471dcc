"""The full pipeline in one sitting: synthesize, evaluate, fuse, ablate.

Equivalent to running the CLI by hand; uses a small corpus so the whole
script finishes in well under a minute. Outputs land in ./demo_output.
"""

import csv
import os

from readgauge.cli import ingest_corpus, main
from readgauge.labeling import as_classes

OUT = "demo_output"


def run(argv):
    print("$ readgauge " + " ".join(argv))
    code = main(argv)
    assert code == 0, f"command failed with exit {code}"
    print()


def show(path, limit=6):
    with open(path, newline="", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if i > limit:
                print("  ...")
                break
            print("  " + line.rstrip())
    print()


def main_demo():
    corpus = os.path.join(OUT, "corpus")
    run(["synth", "--out", corpus, "--docs", "150", "--classes", "3", "--seed", "7"])
    manifest = os.path.join(corpus, "manifest.csv")

    # 5-fold evaluation with traditional formulas only, then the full battery
    run(["eval", "--manifest", manifest, "--features", "flesch",
         "--model", "logistic", "--folds", "5", "--seed", "7",
         "--out", os.path.join(OUT, "eval_flesch")])
    show(os.path.join(OUT, "eval_flesch", "eval_summary.csv"))

    run(["eval", "--manifest", manifest, "--features", "flesch+linguistic",
         "--model", "logistic", "--folds", "5", "--seed", "7",
         "--out", os.path.join(OUT, "eval_linguistic")])
    show(os.path.join(OUT, "eval_linguistic", "eval_summary.csv"))

    # fuse an external per-document score (here: an exact oracle, each
    # document's own class index, so the fused run shows the plumbing, not a gain)
    docs = ingest_corpus(manifest)
    labels, _ = as_classes([d.label for d in docs])
    scores_path = os.path.join(OUT, "scores.csv")
    with open(scores_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "score_name", "value"])
        for doc, label in zip(docs, labels):
            writer.writerow([doc.doc_id, "external", str(float(label))])
    run(["eval", "--manifest", manifest, "--features", "flesch",
         "--scores", scores_path, "--model", "logistic",
         "--folds", "5", "--seed", "7", "--out", os.path.join(OUT, "eval_fused")])
    show(os.path.join(OUT, "eval_fused", "eval_summary.csv"))

    # how much do the linguistic features help at small training sizes?
    run(["ablate", "--manifest", manifest,
         "--features", "word_types+flesch", "--baseline-features", "word_types",
         "--model", "logistic", "--sizes", "30,60,120",
         "--seed", "7", "--out", os.path.join(OUT, "ablation")])
    show(os.path.join(OUT, "ablation", "ablation.csv"))


if __name__ == "__main__":
    main_demo()
