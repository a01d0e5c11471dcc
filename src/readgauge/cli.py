"""Command-line surface: synth, extract, train, eval, ablate, report.

Every output file is written atomically; reruns with identical inputs
and seeds produce byte-identical artifacts. On stderr come any
``warning:`` lines, then at most one machine-parsable ``error:`` line, and
an error exits nonzero.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from typing import Optional

from . import data_files, registry, synth
from .cky import Parser
from .errors import (
    BadArgument,
    BadOutput,
    BadSize,
    DuplicateId,
    MalformedRow,
    MalformedRule,
    MissingDoc,
    MissingFile,
    MissingResource,
    ReadgaugeError,
    TooFewSamples,
)
from .evaluation import cross_validate, size_ablation
from .grammar import load_grammar
from .inputs import ascii_int, csv_rows, number_field, read_text, text_field, write_atomic
from .labeling import as_classes, load_difficulty_order
from .lexicons import load_norms, load_senses
from .pipeline import FEATURE_SET_NAMES, MODEL_KINDS, FeaturePipeline
from .pos_features import load_tag_lexicon
from .textcore import Document, make_document, tokenize

_SUMMARY_HEADER = ["features", "weighted_f1", "macro_f1", "sd_weighted_f1", "sd_macro_f1"]


def _write_csv(out_dir: str, name: str, header: list[str], rows: list[list]) -> str:
    """Write ``out_dir/name`` atomically, creating ``out_dir``; returns the path."""
    return write_atomic(
        os.path.join(out_dir, name), lambda fh: csv.writer(fh).writerows([header, *rows])
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_records(path: str, columns: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    """Numbered rows of a CSV keyed by its header, which must name every column."""
    header, rows = csv_rows(path)
    missing = [c for c in columns if c not in header]
    if missing:
        raise MalformedRow(f"{path}: missing column(s) {', '.join(missing)}")
    return [(rownum, dict(zip(header, row))) for rownum, row in rows]


def ingest_corpus(manifest_path: str) -> list[Document]:
    """Load, segment and tokenize every document named by a manifest CSV."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    docs: list[Document] = []
    first_row: dict[str, int] = {}
    for rownum, row in _csv_records(manifest_path, ("doc_id", "path", "class_name")):
        doc_id = text_field(manifest_path, rownum, "doc_id", row["doc_id"])
        if doc_id in first_row:
            raise DuplicateId(
                f"{manifest_path}: row {rownum}: doc_id {doc_id!r} repeats row {first_row[doc_id]}")
        first_row[doc_id] = rownum
        path = text_field(manifest_path, rownum, "path", row["path"])
        full = path if os.path.isabs(path) else os.path.join(base, path)
        if not os.path.isfile(full):
            raise MissingDoc(full)
        text = read_text(full)
        # The optional age columns must be finite numbers; nothing reads them.
        for column in ("age_low", "age_high"):
            if row.get(column):
                number_field(manifest_path, rownum, column, row[column])
        label = text_field(manifest_path, rownum, "class_name", row["class_name"])
        docs.append(make_document(doc_id, text, label))
    if not docs:
        raise TooFewSamples(f"{manifest_path}: the manifest lists no documents")
    return docs


def load_scores(path: str) -> dict[str, list[tuple[str, float]]]:
    """External score file: doc_id,score_name,value with unique pairs.

    Each document's scores follow the order in which their names first appear
    in the file, so the fused columns come in one order for every document.
    """
    scores: dict[str, dict[str, float]] = {}
    rank: dict[str, int] = {}
    first_row: dict[tuple[str, str], int] = {}
    for rownum, row in _csv_records(path, ("doc_id", "score_name", "value")):
        doc_id = text_field(path, rownum, "doc_id", row["doc_id"])
        name = text_field(path, rownum, "score_name", row["score_name"])
        if (doc_id, name) in first_row:
            raise DuplicateId(
                f"{path}: row {rownum}: doc_id {doc_id!r} and score_name {name!r}"
                f" repeat row {first_row[doc_id, name]}")
        first_row[doc_id, name] = rownum
        scores.setdefault(doc_id, {})[name] = number_field(path, rownum, "value", row["value"])
        rank.setdefault(name, len(rank))
    return {d: sorted(s.items(), key=lambda item: rank[item[0]]) for d, s in scores.items()}


def _resource_path(explicit: Optional[str], filename: str) -> Optional[str]:
    if explicit:
        return explicit
    candidate = os.path.join(data_files.default_data_dir(), filename)
    return candidate if os.path.isfile(candidate) else None


def _load_parser(path: str) -> Parser:
    """Parser over a grammar whose terminals are lowercase word tokens, as the parsed tokens are."""
    grammar = load_grammar(path)
    unmatchable = sorted(t for t in grammar.terminals if not _is_word_token(t))
    if unmatchable:
        raise MalformedRule(
            f"{path}: terminal {unmatchable[0]!r} is not one lowercase word token,"
            " and only lowercased word tokens are parsed"
        )
    return Parser(grammar)


def _is_word_token(text: str) -> bool:
    """Whether ``text`` tokenizes to one word token whose lowercased form is ``text``."""
    tokens = tokenize(text)
    return len(tokens) == 1 and tokens[0].is_word and tokens[0].lowercased == text


def build_resources(args) -> registry.Resources:
    grammar_path = _resource_path(args.grammar, data_files.GRAMMAR_FILE)
    lexicon_path = _resource_path(args.tag_lexicon, data_files.TAG_LEXICON_FILE)
    norms_path = _resource_path(args.norms, data_files.NORMS_FILE)
    senses_path = _resource_path(args.senses, data_files.SENSES_FILE)
    return registry.Resources(
        parser=_load_parser(grammar_path) if grammar_path else None,
        tag_lexicon=load_tag_lexicon(lexicon_path) if lexicon_path else None,
        norm_tables=load_norms(norms_path) if norms_path else None,
        sense_table=load_senses(senses_path) if senses_path else None,
    )


def parse_feature_sets(values: list[str]) -> list[str]:
    """Flatten repeated --features flags and '+'-joined sets, deduplicated.

    An unknown name, or no name at all, raises ``MissingResource``.
    """
    names: list[str] = []
    for value in values:
        for name in value.split("+"):
            name = name.strip()
            if not name:
                continue
            if name not in FEATURE_SET_NAMES:
                raise MissingResource(f"unknown feature set {name!r}")
            if name not in names:
                names.append(name)
    if not names:
        raise MissingResource(f"no feature set named in {values!r}")
    return names


def _load_corpus(args) -> tuple[list[Document], FeaturePipeline, list[int], list[str]]:
    """Documents, ``--features`` pipeline, class labels and class order of a corpus command."""
    docs = ingest_corpus(args.manifest)
    resources = build_resources(args)
    ordering = load_difficulty_order(args.difficulty_order) if args.difficulty_order else None
    labels, class_order = as_classes([d.label for d in docs], ordering)
    return docs, _pipeline(args, args.features, resources), labels, class_order


def _pipeline(args, features: list[str], resources: registry.Resources) -> FeaturePipeline:
    """The pipeline a command's flags name; ``--scores``, where given, is loaded here."""
    flags = vars(args)
    scores = load_scores(flags["scores"]) if flags.get("scores") else None
    settings = {k: flags[k] for k in ("model", "seed") if k in flags}
    return FeaturePipeline(parse_feature_sets(features), resources, scores=scores, **settings)


# -- subcommands --------------------------------------------------------------


def cmd_synth(args) -> int:
    manifest = synth.generate_corpus(args.out, n_docs=args.docs, n_classes=args.classes, seed=args.seed)
    print(manifest)
    return 0


def cmd_extract(args) -> int:
    docs, pipe, labels, _ = _load_corpus(args)
    pipe.fit_vocab(docs)
    values, names = pipe.rows(docs)
    rows = [[doc.doc_id, str(label), *map(_fmt, row)] for doc, label, row in zip(docs, labels, values)]
    print(_write_csv(args.out, "features.csv", ["doc_id", "label", *names], rows))
    return 0


def cmd_train(args) -> int:
    from .models import save_model

    docs, pipe, labels, _ = _load_corpus(args)
    pipe.fit(docs, labels)
    out_path = os.path.join(args.out, "model.json")
    save_model(pipe.model, out_path)
    print(out_path)
    return 0


def cmd_eval(args) -> int:
    docs, pipe, labels, class_order = _load_corpus(args)
    report = cross_validate(
        pipe, docs, labels, n_classes=len(class_order), k=args.folds, seed=args.seed
    )
    scores_name = f"+scores:{os.path.basename(args.scores)}" if args.scores else ""
    summary_path = _write_csv(args.out, "eval_summary.csv", _SUMMARY_HEADER, [[
        "+".join(pipe.feature_sets) + scores_name, _fmt(report.mean_weighted),
        _fmt(report.mean_macro), _fmt(report.sd_weighted), _fmt(report.sd_macro),
    ]])
    _write_csv(
        args.out, "eval_folds.csv", ["fold", "weighted_f1", "macro_f1"],
        [[str(i), _fmt(w), _fmt(m)]
         for i, (w, m) in enumerate(zip(report.fold_weighted, report.fold_macro))],
    )
    print(f"{summary_path} weighted_f1={report.mean_weighted:.4f} macro_f1={report.mean_macro:.4f}")
    return 0


def cmd_ablate(args) -> int:
    try:
        sizes = [ascii_int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise BadSize(f"--sizes {args.sizes!r} is not a comma-separated list of integers") from None
    docs, pipe, labels, class_order = _load_corpus(args)
    curve = size_ablation(
        pipe, _pipeline(args, args.baseline_features, pipe.resources),
        sizes, docs, labels, n_classes=len(class_order), seed=args.seed,
    )
    rows = [[str(s), _fmt(w), _fmt(wo)] for s, w, wo in curve]
    print(_write_csv(args.out, "ablation.csv", ["size", "macro_f1_with", "macro_f1_without"], rows))
    return 0


def cmd_report(args) -> int:
    """Rank the rows of every regular ``.csv`` file in ``--reports`` whose
    header has the features, weighted_f1 and macro_f1 columns; every other
    entry is skipped, and so is the report this command writes, when
    ``--out`` is ``--reports``."""
    try:
        names = sorted(os.listdir(args.reports))
    except OSError as exc:
        raise MissingFile(f"{args.reports}: {exc.strerror}") from None
    own = os.path.realpath(os.path.join(args.out, "report.csv"))
    ranked = []
    for name in names:
        path = os.path.join(args.reports, name)
        if not name.endswith(".csv") or not os.path.isfile(path) or os.path.realpath(path) == own:
            continue
        header, rows = csv_rows(path)
        if not set(_SUMMARY_HEADER[:3]) <= set(header):
            continue
        for rownum, values in rows:
            row = dict(zip(header, values))
            weighted = number_field(path, rownum, "weighted_f1", row["weighted_f1"])
            ranked.append((weighted, [row.get(c, "") for c in _SUMMARY_HEADER]))
    ranked.sort(key=lambda r: r[0])
    print(_write_csv(args.out, "report.csv", _SUMMARY_HEADER, [row for _, row in ranked]))
    return 0


# -- argument parsing ----------------------------------------------------------

# Every flag once; each subcommand below names the flags it takes.
_FLAGS = {
    "manifest": dict(required=True, help="corpus manifest CSV"),
    "grammar": dict(help="PCFG grammar file"),
    "tag-lexicon": dict(help="word,tag CSV"),
    "norms": dict(help="psycholinguistic norms CSV"),
    "senses": dict(help="word sense-count CSV"),
    "difficulty-order": dict(help="class names, one per line, easiest first"),
    "features": dict(action="append", required=True,
                     help="feature set name(s); repeatable, '+'-joinable"),
    "baseline-features": dict(action="append", required=True,
                              help="feature set name(s) of the baseline"),
    "model": dict(choices=MODEL_KINDS, default="svm"),
    "scores": dict(help="external score CSV for fusion"),
    "folds": dict(type=ascii_int, default=5),
    "sizes": dict(default="50,100,200,400", help="comma-separated training sizes"),
    "reports": dict(required=True, help="directory of eval summary CSVs"),
    "docs": dict(type=ascii_int, default=600),
    "classes": dict(type=ascii_int, default=3),
    "seed": dict(type=ascii_int, default=7),
    "out": dict(required=True, help="output directory"),
}
_CORPUS_FLAGS = (
    "manifest", "grammar", "tag-lexicon", "norms", "senses", "difficulty-order", "out", "features",
)
_COMMANDS = (
    ("synth", cmd_synth, "generate a synthetic labeled corpus", ("out", "docs", "classes", "seed")),
    ("extract", cmd_extract, "write the feature CSV for a corpus", _CORPUS_FLAGS),
    ("train", cmd_train, "train a model on the full corpus",
     _CORPUS_FLAGS + ("model", "scores", "seed")),
    ("eval", cmd_eval, "k-fold cross-validated evaluation",
     _CORPUS_FLAGS + ("model", "scores", "folds", "seed")),
    ("ablate", cmd_ablate, "training-set-size ablation curve",
     _CORPUS_FLAGS + ("baseline-features", "model", "sizes", "seed")),
    ("report", cmd_report, "rank evaluation summaries by weighted F1", ("reports", "out")),
)


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error raises ``BadArgument`` naming the (sub)command; subparsers inherit it."""

    def error(self, message):
        raise BadArgument(f"{self.prog}: {message}")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="readgauge")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # Where no handler is configured, logging's last-resort handler writes each
    # warning to the sys.stderr of that moment. No handler is added, and nothing
    # logs above WARNING, so every line it prints is a warning.
    logging.lastResort.setFormatter(logging.Formatter("warning: %(message)s"))
    try:
        # Unknown flags surface here, past the subparser: name the subcommand.
        args, extras = build_arg_parser().parse_known_args(argv)
        if extras:
            raise BadArgument(
                f"readgauge {args.command}: unrecognized arguments: {' '.join(extras)}")
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise BadOutput(f"cannot write {args.out}: not a directory")
        return args.func(args)
    except ReadgaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
