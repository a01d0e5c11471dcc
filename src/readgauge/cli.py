"""Command-line surface: synth, extract, train, eval, ablate, report.

All outputs are CSV files written atomically; reruns with identical inputs
and seeds produce byte-identical artifacts. Errors exit nonzero with a
one-line machine-parsable message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import Optional

from . import data_files, registry, synth
from .cky import Parser
from .errors import (
    DuplicateId,
    MalformedRow,
    MissingDoc,
    MissingFile,
    MissingScore,
    ReadgaugeError,
)
from .evaluation import cross_validate, size_ablation
from .grammar import load_grammar
from .labeling import as_classes, load_difficulty_order
from .lexicons import load_norms, load_senses
from .models import save_model
from .pipeline import FeaturePipeline, PipelineConfig
from .pos_features import load_tag_lexicon
from .textcore import Document, RawLabel, make_document


def _atomic_write_csv(path: str, header: list[str], rows: list[list]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_reader(fh, path: str, columns: tuple[str, ...]) -> csv.DictReader:
    """Rows of a CSV whose header must name every column; short rows read as ''."""
    reader = csv.DictReader(fh, restval="")
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        raise MalformedRow(f"{path}: missing column(s) {', '.join(missing)}")
    return reader


def _float_field(row: dict, column: str, path: str, line: int) -> float:
    """``row[column]`` as a finite float, else ``MalformedRow`` naming the line."""
    try:
        value = float(row[column])
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise MalformedRow(f"{path}: line {line}: {column} {row[column]!r} is not a finite number")


def ingest_corpus(manifest_path: str) -> list[Document]:
    """Load, segment and tokenize every document named by a manifest CSV."""
    if not os.path.isfile(manifest_path):
        raise MissingFile(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    docs: list[Document] = []
    seen: set[str] = set()
    with open(manifest_path, newline="", encoding="utf-8") as fh:
        reader = _csv_reader(fh, manifest_path, ("doc_id", "path", "class_name"))
        for row in reader:
            doc_id = row["doc_id"].strip()
            if doc_id in seen:
                raise DuplicateId(doc_id)
            seen.add(doc_id)
            path = row["path"].strip()
            full = path if os.path.isabs(path) else os.path.join(base, path)
            if not os.path.isfile(full):
                raise MissingDoc(full)
            with open(full, encoding="utf-8") as doc_fh:
                text = doc_fh.read()
            age_low = _float_field(row, "age_low", manifest_path, reader.line_num) if row.get("age_low") else None
            age_high = _float_field(row, "age_high", manifest_path, reader.line_num) if row.get("age_high") else None
            label = RawLabel(row["class_name"].strip(), age_low, age_high)
            docs.append(make_document(doc_id, text, label))
    return docs


def load_scores(path: str) -> dict[str, list[tuple[str, float]]]:
    """External score file: doc_id,score_name,value with unique pairs."""
    if not os.path.isfile(path):
        raise MissingFile(path)
    scores: dict[str, list[tuple[str, float]]] = {}
    seen: set[tuple[str, str]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_reader(fh, path, ("doc_id", "score_name", "value"))
        for row in reader:
            key = (row["doc_id"].strip(), row["score_name"].strip())
            if key in seen:
                raise DuplicateId(f"duplicate score row {key}")
            seen.add(key)
            scores.setdefault(key[0], []).append((key[1], _float_field(row, "value", path, reader.line_num)))
    return scores


def _resource_path(explicit: Optional[str], filename: str) -> Optional[str]:
    if explicit:
        return explicit
    candidate = os.path.join(data_files.default_data_dir(), filename)
    return candidate if os.path.isfile(candidate) else None


def build_resources(args) -> registry.Resources:
    grammar_path = _resource_path(args.grammar, data_files.GRAMMAR_FILE)
    lexicon_path = _resource_path(args.tag_lexicon, data_files.TAG_LEXICON_FILE)
    norms_path = _resource_path(args.norms, data_files.NORMS_FILE)
    senses_path = _resource_path(args.senses, data_files.SENSES_FILE)
    return registry.Resources(
        parser=Parser(load_grammar(grammar_path)) if grammar_path else None,
        tag_lexicon=load_tag_lexicon(lexicon_path) if lexicon_path else None,
        norm_tables=load_norms(norms_path) if norms_path else None,
        sense_table=load_senses(senses_path) if senses_path else None,
    )


def parse_feature_sets(values: list[str]) -> list[str]:
    """Flatten repeated --features flags and '+'-joined sets, deduplicated."""
    names: list[str] = []
    for value in values:
        for name in value.split("+"):
            name = name.strip()
            if not name:
                continue
            if name not in registry.KNOWN_SET_NAMES:
                raise ReadgaugeError(f"unknown feature set {name!r}")
            if name not in names:
                names.append(name)
    return names


def _labels_for(docs: list[Document], order_path: Optional[str]) -> tuple[list[int], list[str]]:
    ordering = load_difficulty_order(order_path) if order_path else None
    return as_classes([d.label for d in docs], ordering)


def _make_pipeline(args, feature_sets, resources, scores) -> FeaturePipeline:
    config = PipelineConfig(feature_sets=feature_sets, model=args.model, seed=args.seed)
    return FeaturePipeline(config, resources, scores)


def _check_score_coverage(scores, docs) -> None:
    for doc in docs:
        if doc.doc_id not in scores:
            raise MissingScore(f"scores file has no rows for doc {doc.doc_id!r}")


# -- subcommands --------------------------------------------------------------


def cmd_synth(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    manifest = synth.generate_corpus(args.out, n_docs=args.docs, n_classes=args.classes, seed=args.seed)
    print(manifest)
    return 0


def cmd_extract(args) -> int:
    docs = ingest_corpus(args.manifest)
    resources = build_resources(args)
    feature_sets = parse_feature_sets(args.features)
    labels, _ = _labels_for(docs, args.difficulty_order)
    pipe = FeaturePipeline(PipelineConfig(feature_sets=feature_sets), resources)
    pipe.fit_vocab(docs)
    X, names = pipe.matrix(docs)
    rows = [
        [doc.doc_id, str(label)] + [_fmt(x) for x in values]
        for doc, label, values in zip(docs, labels, X.tolist())
    ]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "features.csv")
    _atomic_write_csv(out_path, ["doc_id", "label"] + list(names), rows)
    print(out_path)
    return 0


def cmd_train(args) -> int:
    docs = ingest_corpus(args.manifest)
    resources = build_resources(args)
    feature_sets = parse_feature_sets(args.features)
    labels, _ = _labels_for(docs, args.difficulty_order)
    scores = load_scores(args.scores) if args.scores else None
    if scores is not None:
        _check_score_coverage(scores, docs)
    pipe = _make_pipeline(args, feature_sets, resources, scores)
    pipe.fit(docs, labels)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "model.json")
    save_model(pipe.model, out_path)
    print(out_path)
    return 0


def cmd_eval(args) -> int:
    docs = ingest_corpus(args.manifest)
    resources = build_resources(args)
    feature_sets = parse_feature_sets(args.features)
    labels, class_order = _labels_for(docs, args.difficulty_order)
    scores = load_scores(args.scores) if args.scores else None
    if scores is not None:
        _check_score_coverage(scores, docs)
    pipe = _make_pipeline(args, feature_sets, resources, scores)
    report = cross_validate(
        pipe, docs, labels, n_classes=len(class_order), k=args.folds, seed=args.seed
    )
    os.makedirs(args.out, exist_ok=True)
    features_name = "+".join(feature_sets) + (f"+scores:{os.path.basename(args.scores)}" if args.scores else "")
    summary_path = os.path.join(args.out, "eval_summary.csv")
    _atomic_write_csv(
        summary_path,
        ["features", "weighted_f1", "macro_f1", "sd_weighted_f1", "sd_macro_f1"],
        [[features_name, _fmt(report.mean_weighted), _fmt(report.mean_macro),
          _fmt(report.sd_weighted), _fmt(report.sd_macro)]],
    )
    folds_path = os.path.join(args.out, "eval_folds.csv")
    _atomic_write_csv(
        folds_path,
        ["fold", "weighted_f1", "macro_f1"],
        [[str(i), _fmt(w), _fmt(m)]
         for i, (w, m) in enumerate(zip(report.fold_weighted, report.fold_macro))],
    )
    print(f"{summary_path} weighted_f1={report.mean_weighted:.4f} macro_f1={report.mean_macro:.4f}")
    return 0


def cmd_ablate(args) -> int:
    docs = ingest_corpus(args.manifest)
    resources = build_resources(args)
    with_sets = parse_feature_sets(args.features)
    without_sets = parse_feature_sets(args.baseline_features)
    labels, class_order = _labels_for(docs, args.difficulty_order)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    pipe_with = _make_pipeline(args, with_sets, resources, None)
    pipe_without = _make_pipeline(args, without_sets, resources, None)
    curve = size_ablation(
        pipe_with, pipe_without, sizes, docs, labels,
        n_classes=len(class_order), seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "ablation.csv")
    _atomic_write_csv(
        out_path,
        ["size", "macro_f1_with", "macro_f1_without"],
        [[str(s), _fmt(w), _fmt(wo)] for s, w, wo in curve],
    )
    print(out_path)
    return 0


def cmd_report(args) -> int:
    rows = []
    for name in sorted(os.listdir(args.reports)):
        if not name.endswith(".csv"):
            continue
        path = os.path.join(args.reports, name)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "weighted_f1" not in reader.fieldnames:
                continue
            for row in reader:
                rows.append([
                    row["features"], row["weighted_f1"], row["macro_f1"],
                    row.get("sd_weighted_f1", ""), row.get("sd_macro_f1", ""),
                ])
    rows.sort(key=lambda r: float(r[1]))
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "report.csv")
    _atomic_write_csv(
        out_path,
        ["features", "weighted_f1", "macro_f1", "sd_weighted_f1", "sd_macro_f1"],
        rows,
    )
    print(out_path)
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=True, help="corpus manifest CSV")
    parser.add_argument("--grammar", help="PCFG grammar file")
    parser.add_argument("--tag-lexicon", dest="tag_lexicon", help="word,tag CSV")
    parser.add_argument("--norms", help="psycholinguistic norms CSV")
    parser.add_argument("--senses", help="word sense-count CSV")
    parser.add_argument("--difficulty-order", dest="difficulty_order",
                        help="class names, one per line, easiest first")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", required=True, help="output directory")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="readgauge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--docs", type=int, default=600)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="write the feature CSV for a corpus")
    _add_common(p)
    p.add_argument("--features", action="append", required=True,
                   help="feature set name(s); repeatable, '+'-joinable")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on the full corpus")
    _add_common(p)
    p.add_argument("--features", action="append", required=True)
    p.add_argument("--model", choices=["svm", "logistic", "linear"], default="svm")
    p.add_argument("--scores", help="external score CSV for fusion")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="k-fold cross-validated evaluation")
    _add_common(p)
    p.add_argument("--features", action="append", required=True)
    p.add_argument("--model", choices=["svm", "logistic", "linear"], default="svm")
    p.add_argument("--scores", help="external score CSV for fusion")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="training-set-size ablation curve")
    _add_common(p)
    p.add_argument("--features", action="append", required=True)
    p.add_argument("--baseline-features", dest="baseline_features",
                   action="append", required=True)
    p.add_argument("--model", choices=["svm", "logistic", "linear"], default="svm")
    p.add_argument("--sizes", default="50,100,200,400")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="rank evaluation summaries by weighted F1")
    p.add_argument("--reports", required=True, help="directory of eval summary CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReadgaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
