import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import readgauge
from readgauge.cli import (
    ingest_corpus,
    load_scores,
    main,
    parse_feature_sets,
)
from readgauge.errors import (
    DuplicateId,
    MalformedRow,
    MissingDoc,
    MissingFile,
    MissingResource,
    ReadgaugeError,
)
from readgauge.labeling import as_classes
from readgauge.pipeline import FeaturePipeline
from readgauge.registry import Resources


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(["synth", "--out", str(out), "--docs", "45", "--classes", "3", "--seed", "7"])
    assert code == 0
    return str(out)


def manifest_of(corpus_dir):
    return os.path.join(corpus_dir, "manifest.csv")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestParseFeatureSets:
    def test_plus_join_equals_repeats(self):
        assert parse_feature_sets(["flesch+linguistic"]) == parse_feature_sets(
            ["flesch", "linguistic"]
        )

    def test_dedup(self):
        assert parse_feature_sets(["flesch", "flesch+flesch"]) == ["flesch"]

    def test_unknown_rejected(self):
        with pytest.raises(ReadgaugeError):
            parse_feature_sets(["flesch+bogus"])

    def test_word_types_allowed(self):
        assert parse_feature_sets(["word_types"]) == ["word_types"]

    @pytest.mark.parametrize("values", [["flesch+bogus"], ["+"], ["", " + "]])
    def test_unknown_or_no_name_is_missing_resource(self, values):
        with pytest.raises(MissingResource):
            parse_feature_sets(values)


class TestIngest:
    def test_ingest_synth(self, small_corpus):
        docs = ingest_corpus(manifest_of(small_corpus))
        assert len(docs) == 45
        assert len({d.doc_id for d in docs}) == 45
        assert all(d.label is not None for d in docs)
        assert all(d.sentences for d in docs)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            ingest_corpus(str(tmp_path / "nope.csv"))

    def test_duplicate_id(self, tmp_path):
        (tmp_path / "a.txt").write_text("Hi.", encoding="utf-8")
        m = tmp_path / "manifest.csv"
        m.write_text(
            "doc_id,path,class_name,age_low,age_high\nd1,a.txt,x,,\nd1,a.txt,x,,\n",
            encoding="utf-8",
        )
        with pytest.raises(DuplicateId, match=r"manifest\.csv: row 3: doc_id 'd1' repeats row 2"):
            ingest_corpus(str(m))

    def test_rows_count_records_not_lines(self, tmp_path):
        # Row 2's quoted class_name spans two lines; the empty doc_id is on line 4, in row 3.
        (tmp_path / "a.txt").write_text("Hi.", encoding="utf-8")
        m = tmp_path / "manifest.csv"
        m.write_text('doc_id,path,class_name\nd1,a.txt,"level\nzero"\n,a.txt,x\n', encoding="utf-8")
        with pytest.raises(MalformedRow, match=r"manifest\.csv: row 3: empty doc_id$"):
            ingest_corpus(str(m))

    def test_missing_doc(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text(
            "doc_id,path,class_name,age_low,age_high\nd1,gone.txt,x,,\n",
            encoding="utf-8",
        )
        with pytest.raises(MissingDoc):
            ingest_corpus(str(m))


class TestLoadScores:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(
            "doc_id,score_name,value\nd1,gpt,0.5\nd1,bert,1.5\nd2,gpt,2.0\n",
            encoding="utf-8",
        )
        scores = load_scores(str(p))
        assert scores["d1"] == [("gpt", 0.5), ("bert", 1.5)]
        assert scores["d2"] == [("gpt", 2.0)]

    def test_names_follow_first_appearance_in_file(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(
            "doc_id,score_name,value\nd1,gpt,0.5\nd1,bert,1.5\nd2,bert,3.0\nd2,gpt,2.0\n",
            encoding="utf-8",
        )
        assert load_scores(str(p))["d2"] == [("gpt", 2.0), ("bert", 3.0)]

    def test_duplicate_pair(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("doc_id,score_name,value\nd1,gpt,0.5\nd1,gpt,0.6\n", encoding="utf-8")
        with pytest.raises(
            DuplicateId, match=r"scores\.csv: row 3: doc_id 'd1' and score_name 'gpt' repeat row 2"
        ):
            load_scores(str(p))


class TestSynthCommand:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a), "--docs", "12", "--seed", "3"]) == 0
        assert main(["synth", "--out", str(b), "--docs", "12", "--seed", "3"]) == 0
        ma = (a / "manifest.csv").read_bytes()
        mb = (b / "manifest.csv").read_bytes()
        assert ma == mb
        for row in read_csv(str(a / "manifest.csv"))[1:]:
            doc = row[1]
            assert (a / doc).read_bytes() == (b / doc).read_bytes()

    def test_seed_changes_text(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out", str(a), "--docs", "6", "--seed", "1"])
        main(["synth", "--out", str(b), "--docs", "6", "--seed", "2"])
        docs_a = sorted((a / "docs").glob("*.txt"))
        docs_b = sorted((b / "docs").glob("*.txt"))
        assert any(x.read_text() != y.read_text() for x, y in zip(docs_a, docs_b))

    @pytest.mark.parametrize("flags", [
        ["--classes", "1"], ["--classes", "0"], ["--classes", "4"],
        ["--docs", "0"], ["--docs", "-3"],
    ])
    def test_bad_size_exits_1(self, tmp_path, capsys, flags):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out)] + flags) == 1
        assert_one_error_line(capsys, "BadSize")
        assert not out.exists()


class TestExtractCommand:
    def test_extract_and_rerun_byte_identical(self, small_corpus, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        argv = ["extract", "--manifest", manifest_of(small_corpus), "--features", "flesch"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()
        rows = read_csv(str(out1 / "features.csv"))
        assert rows[0][:2] == ["doc_id", "label"]
        assert len(rows) == 46  # header + 45 docs
        assert len(rows[0]) == 2 + 12

    def test_plus_union_matches_repeated_flags(self, small_corpus, tmp_path):
        out1, out2 = tmp_path / "u1", tmp_path / "u2"
        base = ["extract", "--manifest", manifest_of(small_corpus)]
        assert main(base + ["--features", "flesch+lexical_diversity", "--out", str(out1)]) == 0
        assert main(base + ["--features", "flesch", "--features", "lexical_diversity", "--out", str(out2)]) == 0
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()

    def test_unknown_feature_set_exits_1(self, small_corpus, tmp_path, capsys):
        code = main([
            "extract", "--manifest", manifest_of(small_corpus),
            "--features", "bogus", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_feature_list_exits_1(self, small_corpus, tmp_path, capsys):
        code = main([
            "eval", "--manifest", manifest_of(small_corpus), "--features", "+",
            "--model", "logistic", "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        assert_one_error_line(capsys, "MissingResource")
        assert not (tmp_path / "e").exists()


    def test_seed_is_not_an_extract_flag(self, small_corpus, tmp_path, capsys):
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--seed", "7", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "BadArgument")
        assert line.startswith("error: BadArgument: readgauge") and "--seed" in line, line
        assert not (tmp_path / "x").exists()


class TestTrainEvalCommands:
    def test_train_writes_model(self, small_corpus, tmp_path):
        out = tmp_path / "model"
        code = main([
            "train", "--manifest", manifest_of(small_corpus),
            "--features", "flesch", "--model", "logistic", "--out", str(out),
        ])
        assert code == 0
        assert (out / "model.json").is_file()

    def test_eval_outputs_and_determinism(self, small_corpus, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        argv = [
            "eval", "--manifest", manifest_of(small_corpus),
            "--features", "flesch", "--model", "logistic",
            "--folds", "3", "--seed", "7",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert (out1 / "eval_summary.csv").read_bytes() == (out2 / "eval_summary.csv").read_bytes()
        assert (out1 / "eval_folds.csv").read_bytes() == (out2 / "eval_folds.csv").read_bytes()
        folds = read_csv(str(out1 / "eval_folds.csv"))
        assert folds[0] == ["fold", "weighted_f1", "macro_f1"]
        assert len(folds) == 4
        summary = read_csv(str(out1 / "eval_summary.csv"))
        assert summary[1][0] == "flesch"
        assert 0.0 <= float(summary[1][1]) <= 1.0

    def test_missing_score_coverage(self, small_corpus, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("doc_id,score_name,value\nd0,oracle,0\n", encoding="utf-8")
        code = main([
            "train", "--manifest", manifest_of(small_corpus),
            "--features", "flesch", "--model", "logistic",
            "--scores", str(scores), "--out", str(tmp_path / "m"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSvmInnerFoldWithOneClass:
    """A few ``level_1`` documents among 15 ``level_0``: some inner C-grid
    fold trains on ``level_0`` alone, so the SVM keeps C = 1 instead of failing."""

    @pytest.mark.parametrize("command, n_level_1", [
        (["eval", "--features", "flesch"], 2),
        (["ablate", "--features", "word_types+flesch", "--baseline-features", "word_types",
          "--sizes", "10,13"], 2),
        (["train", "--features", "flesch"], 1),
    ])
    def test_svm_exits_0(self, small_corpus, tmp_path, capsys, command, n_level_1):
        manifest = tmp_path / "manifest.csv"

        def skewed(rows):
            by_class = {}
            for row in rows:
                by_class.setdefault(row[2], []).append(row)
            return by_class["level_0"][:15] + by_class["level_1"][:n_level_1]

        write_manifest_rows(small_corpus, manifest, skewed)
        code = main([
            *command, "--manifest", str(manifest), "--model", "svm", "--out", str(tmp_path / "o"),
        ])
        assert code == 0, capsys.readouterr().err


class TestReportCommand:
    def test_sorted_ascending_by_weighted_f1(self, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "b.csv").write_text(
            "features,weighted_f1,macro_f1,sd_weighted_f1,sd_macro_f1\nsetB,0.9,0.9,0.0,0.0\n",
            encoding="utf-8",
        )
        (reports / "a.csv").write_text(
            "features,weighted_f1,macro_f1,sd_weighted_f1,sd_macro_f1\nsetA,0.5,0.5,0.0,0.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["report", "--reports", str(reports), "--out", str(out)]) == 0
        rows = read_csv(str(out / "report.csv"))
        assert [r[0] for r in rows[1:]] == ["setA", "setB"]

    def test_rerun_into_reports_dir_skips_own_output(self, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "a.csv").write_text(
            "features,weighted_f1,macro_f1,sd_weighted_f1,sd_macro_f1\nsetA,0.5,0.5,0.0,0.0\n",
            encoding="utf-8",
        )
        for _ in range(2):
            assert main(["report", "--reports", str(reports), "--out", str(reports)]) == 0
        rows = read_csv(str(reports / "report.csv"))
        assert [r[0] for r in rows[1:]] == ["setA"]

    def test_directory_named_csv_is_skipped(self, tmp_path):
        reports = tmp_path / "reports"
        (reports / "x.csv").mkdir(parents=True)
        (reports / "a.csv").write_text(
            "features,weighted_f1,macro_f1,sd_weighted_f1,sd_macro_f1\nsetA,0.5,0.5,0.0,0.0\n",
            encoding="utf-8",
        )
        assert main(["report", "--reports", str(reports), "--out", str(tmp_path / "out")]) == 0
        rows = read_csv(str(tmp_path / "out" / "report.csv"))
        assert [r[0] for r in rows[1:]] == ["setA"]


def assert_one_error_line(capsys, code):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: {code}:"), lines[0]
    return lines[0]


def write_manifest_without(corpus_dir, column, out_path):
    """Copy of the corpus manifest without one column, with absolute doc paths."""
    rows = read_csv(manifest_of(corpus_dir))
    for row in rows[1:]:
        row[1] = os.path.join(corpus_dir, row[1])
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([[r[i] for i in keep] for r in rows])


def write_manifest_rows(corpus_dir, out_path, edit):
    """Copy of the corpus manifest with absolute doc paths, its body rows passed through ``edit``."""
    rows = read_csv(manifest_of(corpus_dir))
    for row in rows[1:]:
        row[1] = os.path.join(corpus_dir, row[1])
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0], *edit(rows[1:])])


def doc_ids_of(corpus_dir):
    return [r[0] for r in read_csv(manifest_of(corpus_dir))[1:]]


class TestInputErrors:
    @pytest.mark.parametrize("column", ["doc_id", "path", "class_name"])
    def test_manifest_without_column(self, small_corpus, tmp_path, capsys, column):
        manifest = tmp_path / "manifest.csv"
        write_manifest_without(small_corpus, column, manifest)
        code = main([
            "extract", "--manifest", str(manifest), "--features", "flesch",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert column in assert_one_error_line(capsys, "MalformedRow")

    @pytest.mark.parametrize("value", ["", " "])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_manifest_field_empty(self, small_corpus, tmp_path, capsys, column, value):
        manifest = tmp_path / "manifest.csv"

        def blank_second_row(rows):
            rows[1][column] = value
            return rows

        write_manifest_rows(small_corpus, manifest, blank_second_row)
        code = main([
            "extract", "--manifest", str(manifest), "--features", "flesch",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRow")
        name = ["doc_id", "path", "class_name"][column]
        assert "manifest.csv" in line and "row 3" in line and name in line
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("row", ["d0,,1.5", ",oracle,1.5"])
    def test_score_field_empty(self, small_corpus, tmp_path, capsys, row):
        scores = tmp_path / "scores.csv"
        rows = [f"{doc_id},oracle,{i}" for i, doc_id in enumerate(doc_ids_of(small_corpus))]
        scores.write_text("doc_id,score_name,value\n" + "\n".join([*rows, row]) + "\n", encoding="utf-8")
        code = main([
            "train", "--manifest", manifest_of(small_corpus),
            "--features", "flesch", "--model", "logistic",
            "--scores", str(scores), "--out", str(tmp_path / "m"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRow")
        name = "score_name" if row.startswith("d0") else "doc_id"
        assert f"row {len(rows) + 2}" in line and name in line
        assert not (tmp_path / "m").exists()

    def test_non_numeric_age(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("Hi.", encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "doc_id,path,class_name,age_low,age_high\nd1,a.txt,x,young,9\n", encoding="utf-8"
        )
        code = main([
            "extract", "--manifest", str(manifest), "--features", "flesch",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "row 2" in assert_one_error_line(capsys, "MalformedRow")

    def test_digit_group_age(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("Hi.", encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "doc_id,path,class_name,age_low,age_high\nd1,a.txt,x,1_0,12\n", encoding="utf-8"
        )
        code = main([
            "extract", "--manifest", str(manifest), "--features", "flesch",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "row 2: age_low '1_0' is not a finite number" in assert_one_error_line(capsys, "MalformedRow")

    @pytest.mark.parametrize("value", ["high", "nan"])
    def test_non_numeric_score_value(self, small_corpus, tmp_path, capsys, value):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"doc_id,score_name,value\nd0,oracle,{value}\n", encoding="utf-8")
        code = main([
            "train", "--manifest", manifest_of(small_corpus),
            "--features", "flesch", "--model", "logistic",
            "--scores", str(scores), "--out", str(tmp_path / "m"),
        ])
        assert code == 1
        assert "row 2" in assert_one_error_line(capsys, "MalformedRow")

    def test_missing_difficulty_order_file(self, small_corpus, tmp_path, capsys):
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--difficulty-order", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert_one_error_line(capsys, "MissingFile")

    def test_difficulty_order_names_a_class_twice(self, small_corpus, tmp_path, capsys):
        order = tmp_path / "order.txt"
        order.write_text("level_0\nlevel_1\nlevel_2\nlevel_0\n", encoding="utf-8")
        code = main([
            "eval", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--model", "logistic", "--folds", "3",
            "--difficulty-order", str(order), "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRow")
        assert "order.txt" in line and "line 4" in line and "level_0" in line
        assert not (tmp_path / "e").exists()

    def test_score_names_differ_between_docs(self, small_corpus, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        rows = [
            f"{doc_id},{'gpt' if i % 2 else 'bert'},{i}"
            for i, doc_id in enumerate(doc_ids_of(small_corpus))
        ]
        scores.write_text("doc_id,score_name,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "eval", "--manifest", manifest_of(small_corpus),
            "--features", "flesch", "--model", "logistic", "--folds", "3",
            "--scores", str(scores), "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        assert_one_error_line(capsys, "FeatureMismatch")

    def test_manifest_column_named_twice(self, small_corpus, tmp_path, capsys):
        # Read as "last one wins", the second class_name would label every document level_0.
        rows = read_csv(manifest_of(small_corpus))
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [rows[0] + ["class_name"]]
                + [[r[0], os.path.join(small_corpus, r[1]), *r[2:], "level_0"] for r in rows[1:]]
            )
        code = main(["extract", "--manifest", str(manifest), "--features", "flesch",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRow")
        assert line.endswith("manifest.csv: header names column 'class_name' twice")
        assert not (tmp_path / "x").exists()

    def test_manifest_header_names_with_spaces(self, small_corpus, tmp_path):
        rows = read_csv(manifest_of(small_corpus))
        body = [[r[0], os.path.join(small_corpus, r[1]), *r[2:]] for r in rows[1:]]
        out = {}
        for name, header in (("plain", rows[0]), ("spaced", [" " + c for c in rows[0]])):
            manifest = tmp_path / f"{name}.csv"
            with open(manifest, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header] + body)
            assert main(["extract", "--manifest", str(manifest), "--features", "flesch",
                         "--out", str(tmp_path / name)]) == 0
            out[name] = (tmp_path / name / "features.csv").read_bytes()
        assert out["spaced"] == out["plain"]

    def test_manifest_is_a_directory(self, tmp_path, capsys):
        code = main(["extract", "--manifest", str(tmp_path), "--features", "flesch",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert assert_one_error_line(capsys, "MissingFile").endswith(f"{tmp_path}: Is a directory")

    def test_score_column_named_twice(self, small_corpus, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        rows = [f"{doc_id},s1,{i},0" for i, doc_id in enumerate(doc_ids_of(small_corpus))]
        scores.write_text("doc_id,score_name,value,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "eval", "--manifest", manifest_of(small_corpus),
            "--features", "flesch", "--model", "logistic", "--folds", "3",
            "--scores", str(scores), "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRow")
        assert line.endswith("scores.csv: header names column 'value' twice")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("model", ["logistic", "svm"])
    def test_scores_that_overflow_the_scaler(self, small_corpus, tmp_path, capsys, model):
        # Each value is finite, but their mean or SD is not; numpy must not warn either.
        scores = tmp_path / "scores.csv"
        rows = [f"{doc_id},big,{-1e308 if i % 2 else 1e308}"
                for i, doc_id in enumerate(doc_ids_of(small_corpus))]
        scores.write_text("doc_id,score_name,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "eval", "--manifest", manifest_of(small_corpus),
            "--features", "flesch", "--model", model, "--folds", "3",
            "--scores", str(scores), "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        assert "column 'big' has mean" in assert_one_error_line(capsys, "NonFiniteFeature")
        assert not (tmp_path / "e").exists()


    def test_score_order_within_a_doc_does_not_matter(self, small_corpus, tmp_path):
        summaries = []
        for alternate in (False, True):
            rows = []
            for i, doc_id in enumerate(doc_ids_of(small_corpus)):
                pair = [f"{doc_id},s1,{i % 4}", f"{doc_id},s2,{i % 3}"]
                rows.extend(pair[::-1] if alternate and i % 2 else pair)
            run = tmp_path / str(alternate)
            run.mkdir()
            scores = run / "s.csv"  # one basename: the summary names the file
            scores.write_text("doc_id,score_name,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
            assert main([
                "eval", "--manifest", manifest_of(small_corpus),
                "--features", "flesch", "--model", "logistic", "--folds", "3",
                "--scores", str(scores), "--out", str(run / "e"),
            ]) == 0
            summaries.append((run / "e" / "eval_summary.csv").read_bytes())
        assert summaries[0] == summaries[1]


class TestExtractMatchesPipeline:
    def test_word_types_header_equals_fitted_feature_names(self, small_corpus, tmp_path):
        out = tmp_path / "wt"
        assert main([
            "extract", "--manifest", manifest_of(small_corpus),
            "--features", "word_types+flesch", "--out", str(out),
        ]) == 0
        docs = ingest_corpus(manifest_of(small_corpus))
        labels, _ = as_classes([d.label for d in docs])
        pipe = FeaturePipeline(["word_types", "flesch"], Resources(), model="logistic")
        pipe.fit(docs, labels)
        header = read_csv(str(out / "features.csv"))[0]
        assert header == ["doc_id", "label"] + list(pipe.model.feature_names)


def write_one_doc_corpus(tmp_path, doc_bytes):
    (tmp_path / "a.txt").write_bytes(doc_bytes)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("doc_id,path,class_name,age_low,age_high\nd1,a.txt,x,,\n", encoding="utf-8")
    return str(manifest)


def write_summary(path, weighted_f1):
    path.write_text(
        f"features,weighted_f1,macro_f1,sd_weighted_f1,sd_macro_f1\nset,{weighted_f1},0.5,0.0,0.0\n",
        encoding="utf-8",
    )


LONG_FIELD = '"' + "a" * 200_000 + '"'


class TestInputBoundary:
    def test_document_not_utf8(self, tmp_path, capsys):
        manifest = write_one_doc_corpus(tmp_path, b"\xff\xfeH\x00i\x00")
        code = main(["extract", "--manifest", manifest, "--features", "flesch", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "a.txt" in assert_one_error_line(capsys, "BadEncoding")

    def test_grammar_not_utf8(self, small_corpus, tmp_path, capsys):
        grammar = tmp_path / "g.txt"
        grammar.write_bytes(b"S -> 'a' # 1.0\nS2 -> '\xff' # 1.0\n")
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--grammar", str(grammar), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert_one_error_line(capsys, "BadEncoding")

    def test_grammar_terminal_with_capitals(self, small_corpus, tmp_path, capsys):
        # Tokens are lowercased before parsing, so 'Hello' could never match.
        grammar = tmp_path / "g.txt"
        grammar.write_text("S -> 'Hello' # 1.0\n", encoding="utf-8")
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "syntactic",
            "--grammar", str(grammar), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRule")
        assert "g.txt" in line and "'Hello'" in line

    def test_grammar_terminal_not_a_word(self, small_corpus, tmp_path, capsys):
        # Only word tokens are parsed, so the '.' of "The cat." could never match.
        grammar = tmp_path / "g.txt"
        grammar.write_text("S -> 'the' N '.' # 1.0\nN -> 'cat' # 1.0\n", encoding="utf-8")
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "syntactic",
            "--grammar", str(grammar), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRule")
        assert "g.txt" in line and "'.'" in line

    def test_manifest_field_over_csv_limit(self, tmp_path, capsys):
        manifest = write_one_doc_corpus(tmp_path, b"Hi.")
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write(f"d2,{LONG_FIELD},x,,\n")
        code = main(["extract", "--manifest", manifest, "--features", "flesch", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "line 3" in assert_one_error_line(capsys, "MalformedRow")

    def test_norms_field_over_csv_limit(self, small_corpus, tmp_path, capsys):
        norms = tmp_path / "norms.csv"
        norms.write_text(f"word,aoa\n{LONG_FIELD},3\n", encoding="utf-8")
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--norms", str(norms), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert_one_error_line(capsys, "MalformedRow")

    @pytest.mark.parametrize("row", ["dog,", ",NN"], ids=["empty_tag", "empty_word"])
    def test_tag_lexicon_empty_field(self, small_corpus, tmp_path, capsys, row):
        lexicon = tmp_path / "tags.csv"
        lexicon.write_text(f"word,tag\nthe,DT\n{row}\n", encoding="utf-8")
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "pos",
            "--tag-lexicon", str(lexicon), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRow")
        assert "tags.csv" in line and "row 3" in line

    def test_report_over_eval_output_ranks_summary_only(self, small_corpus, tmp_path, capsys):
        evals = tmp_path / "eval"
        assert main([
            "eval", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--model", "logistic", "--folds", "3", "--out", str(evals),
        ]) == 0
        out = tmp_path / "report"
        assert main(["report", "--reports", str(evals), "--out", str(out)]) == 0
        assert read_csv(str(out / "report.csv")) == read_csv(str(evals / "eval_summary.csv"))

    def test_report_missing_dir(self, tmp_path, capsys):
        code = main(["report", "--reports", str(tmp_path / "nowhere"), "--out", str(tmp_path / "r")])
        assert code == 1
        assert_one_error_line(capsys, "MissingFile")

    @pytest.mark.parametrize("value", ["abc", "inf", "nan"])
    def test_report_weighted_f1_not_finite(self, tmp_path, capsys, value):
        reports = tmp_path / "reports"
        reports.mkdir()
        write_summary(reports / "a.csv", 0.5)
        write_summary(reports / "b.csv", value)
        code = main(["report", "--reports", str(reports), "--out", str(tmp_path / "r")])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRow")
        assert "b.csv" in line and "row 2" in line

    @pytest.mark.parametrize("sizes", [
        "1,x", "", " , ", "-5", "0,10", "1,10", "8,,16", "8,16,", "1_6", "١٠,٢٠", "8,١٦",
    ])
    def test_ablate_bad_sizes(self, small_corpus, tmp_path, capsys, sizes):
        code = main([
            "ablate", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--baseline-features", "word_types", "--model", "logistic",
            "--sizes", sizes, "--out", str(tmp_path / "a"),
        ])
        assert code == 1
        assert_one_error_line(capsys, "BadSize")

    @pytest.mark.parametrize("argv", [
        "synth --docs 1_2", "synth --docs ١٢ --seed ٣", "synth --classes ٣", "synth --seed ٧",
        "eval --manifest m.csv --features flesch --folds ٣",
    ])
    def test_integer_flags_take_ascii_digits(self, tmp_path, capsys, argv):
        # int() would read each of these: "1_2" as 12, "١٢" as 12, "٣" as 3.
        code = main(argv.split() + ["--out", str(tmp_path / "o")])
        assert code == 1
        line = assert_one_error_line(capsys, "BadArgument")
        assert "argument --" in line, line
        assert not (tmp_path / "o").exists()

    def test_integer_flags_keep_ascii_signs(self, tmp_path, capsys):
        assert main(["synth", "--docs", "+3", "--seed", "-1", "--out", str(tmp_path / "o")]) == 0
        assert len(read_csv(str(tmp_path / "o" / "manifest.csv"))) == 4

    def test_ablate_repeated_size(self, small_corpus, tmp_path, capsys):
        code = main([
            "ablate", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--baseline-features", "word_types", "--model", "logistic",
            "--sizes", "10,10,5", "--out", str(tmp_path / "a"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "BadSize")
        assert "10" in line and "repeated" in line
        assert not (tmp_path / "a" / "ablation.csv").exists()

    @pytest.mark.parametrize("command", ["extract", "train", "eval", "ablate"])
    def test_header_only_manifest(self, tmp_path, capsys, command):
        (tmp_path / "manifest.csv").write_text("doc_id,path,class_name,age_low,age_high\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(output_command(command, str(tmp_path), None, out)) == 1
        line = assert_one_error_line(capsys, "TooFewSamples")
        assert "manifest.csv" in line and "no documents" in line, line
        assert not out.exists()

    def test_ablate_under_five_docs_names_its_test_split(self, tmp_path, capsys):
        rows = []
        for i in range(4):
            (tmp_path / f"{i}.txt").write_text("The cat sat on the mat.", encoding="utf-8")
            rows.append(f"d{i},{i}.txt,{'ab'[i % 2]}\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("doc_id,path,class_name\n" + "".join(rows), encoding="utf-8")
        code = main([
            "ablate", "--manifest", str(manifest), "--features", "flesch",
            "--baseline-features", "word_types", "--model", "logistic",
            "--sizes", "2", "--out", str(tmp_path / "a"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "TooFewSamples")
        assert "20% test split (5 folds)" in line and "at least 5 documents, got 4" in line, line
        assert "k=" not in line


OUTPUT_COMMANDS = {
    "synth": "synth --docs 3",
    "extract": "extract --manifest {manifest} --features flesch",
    "train": "train --manifest {manifest} --features flesch --model logistic",
    "eval": "eval --manifest {manifest} --features flesch --model logistic --folds 3",
    "ablate": "ablate --manifest {manifest} --features flesch --baseline-features word_types"
              " --model logistic --sizes 10",
    "report": "report --reports {reports}",
}


def output_command(command, corpus_dir, reports, out):
    words = OUTPUT_COMMANDS[command].split()
    return [w.format(manifest=manifest_of(corpus_dir), reports=reports) for w in words] + [
        "--out", str(out)
    ]


class TestOutputErrors:
    @pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
    def test_out_is_a_file(self, small_corpus, tmp_path, capsys, command):
        reports = tmp_path / "reports"
        reports.mkdir()
        write_summary(reports / "a.csv", 0.5)
        out = tmp_path / "out"
        out.write_text("keep\n", encoding="utf-8")
        assert main(output_command(command, small_corpus, str(reports), out)) == 1
        assert str(out) in assert_one_error_line(capsys, "BadOutput")
        assert out.read_text(encoding="utf-8") == "keep\n"

    def test_out_is_checked_before_the_inputs(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "doc_id,path,class_name,age_low,age_high\nd1,nope.txt,x,,\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        out.write_text("keep\n", encoding="utf-8")
        code = main([
            "eval", "--manifest", str(manifest), "--features", "flesch", "--model", "logistic",
            "--out", str(out),
        ])
        assert code == 1
        assert str(out) in assert_one_error_line(capsys, "BadOutput")
        assert out.read_text(encoding="utf-8") == "keep\n"

    def test_features_csv_is_a_directory(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "x"
        (out / "features.csv").mkdir(parents=True)
        assert main(output_command("extract", small_corpus, None, out)) == 1
        assert "features.csv" in assert_one_error_line(capsys, "BadOutput")
        assert os.listdir(out) == ["features.csv"]


def bundled_copy(data_dir, tmp_path):
    copy = tmp_path / "data"
    shutil.copytree(data_dir, copy)
    return copy


class TestResources:
    def test_norms_column_named_twice(self, small_corpus, data_dir, tmp_path, capsys):
        rows = read_csv(os.path.join(data_dir, "norms.csv"))
        norms = tmp_path / "norms.csv"
        with open(norms, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [rows[0] + ["aoa_kuperman"]] + [row + ["99"] for row in rows[1:]]
            )
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "psycholinguistic",
            "--norms", str(norms), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "MalformedRow")
        assert "norms.csv" in line and "aoa_kuperman" in line

    def test_norms_that_overflow_a_mean(self, small_corpus, data_dir, tmp_path, capsys):
        rows = read_csv(os.path.join(data_dir, "norms.csv"))
        norms = tmp_path / "norms.csv"
        with open(norms, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([rows[0]] + [[row[0]] + ["1e308"] * (len(row) - 1) for row in rows[1:]])
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", "psycholinguistic",
            "--norms", str(norms), "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        line = assert_one_error_line(capsys, "NonFiniteFeature")
        assert line.endswith("column 'aoa_kuperman' is inf")
        assert not (tmp_path / "x").exists()

    def test_data_env_overrides_tag_lexicon(self, small_corpus, data_dir, tmp_path, monkeypatch):
        copy = bundled_copy(data_dir, tmp_path)
        rows = read_csv(str(copy / "tag_lexicon.csv"))
        with open(copy / "tag_lexicon.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([[w, "NNP" if t == "NN" else t] for w, t in rows])
        args = ["extract", "--manifest", manifest_of(small_corpus), "--features", "pos"]
        assert main([*args, "--out", str(tmp_path / "bundled")]) == 0
        monkeypatch.setenv("READGAUGE_DATA", str(copy))
        assert main([*args, "--out", str(tmp_path / "override")]) == 0
        bundled = read_csv(str(tmp_path / "bundled" / "features.csv"))
        override = read_csv(str(tmp_path / "override" / "features.csv"))
        assert bundled[0] == override[0]
        assert bundled[1:] != override[1:]

    @pytest.mark.parametrize("removed, features", [
        ("demo_grammar.txt", "syntactic"),
        ("tag_lexicon.csv", "novel_syntactic"),
        ("senses.csv", "lexical_diversity"),
    ], ids=["grammar", "tag_lexicon", "senses"])
    def test_data_env_without_grammar(
        self, small_corpus, data_dir, tmp_path, monkeypatch, capsys, removed, features
    ):
        copy = bundled_copy(data_dir, tmp_path)
        os.remove(copy / removed)
        monkeypatch.setenv("READGAUGE_DATA", str(copy))
        code = main([
            "extract", "--manifest", manifest_of(small_corpus), "--features", features,
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert_one_error_line(capsys, "MissingResource")


# Codes the CLI cannot print: the registry catches NoParse, and the other three
# guard library calls whose inputs the CLI never builds.
CODES_THE_CLI_CANNOT_PRINT = {"NoParse", "EmptyKBest", "SupportViolation", "LengthMismatch"}


def test_readme_names_every_error_code():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    codes = {cls.__name__ for cls in ReadgaugeError.__subclasses__()}
    assert CODES_THE_CLI_CANNOT_PRINT <= codes
    assert sorted(c for c in codes - CODES_THE_CLI_CANNOT_PRINT if f"`{c}`" not in readme) == []


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["ablate", "--manifest", "m.csv", "--features", "flesch", "--out", "o"],
        ["eval", "--manifest", "m.csv", "--features", "flesch", "--out", "o", "--folds", "x"],
        ["eval", "--manifest", "m.csv", "--features", "flesch", "--out", "o", "--model", "tree"],
        ["eval", "--manifest", "m.csv", "--features", "flesch", "--out", "o", "--no-such-flag"],
        ["bogus"],
        [],
    ])
    def test_one_error_line(self, capsys, argv):
        assert main(argv) == 1
        line = assert_one_error_line(capsys, "BadArgument")
        assert line.startswith("error: BadArgument: readgauge")

    def test_unknown_flag_names_the_subcommand(self, capsys):
        argv = ["extract", "--manifest", "m.csv", "--features", "flesch", "--seed", "7", "--out", "o"]
        assert main(argv) == 1
        line = assert_one_error_line(capsys, "BadArgument")
        assert line == "error: BadArgument: readgauge extract: unrecognized arguments: --seed 7"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: readgauge eval")


def fresh_env(**overrides):
    """This environment with the package's source directory on PYTHONPATH, plus ``overrides``."""
    src = os.path.dirname(os.path.dirname(readgauge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **overrides}


def run_under_hash_seed(hash_seed, argv):
    """``readgauge argv`` in a fresh interpreter with ``PYTHONHASHSEED=hash_seed``."""
    subprocess.run([sys.executable, "-m", "readgauge.cli", *argv],
                   env=fresh_env(PYTHONHASHSEED=str(hash_seed)), check=True, capture_output=True)


# Runs ``cli.main`` on each argv in turn, then prints which numpy modules are loaded.
IMPORTED_AFTER = """
import json, sys
from readgauge import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps({name: name in sys.modules for name in ("numpy", "numpy.ma")}))
"""


def imported_after(*argvs):
    """``{"numpy": loaded?, "numpy.ma": loaded?}`` after ``argvs`` ran in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORTED_AFTER, json.dumps(argvs)],
                          env=fresh_env(), check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportCost:
    """numpy is imported by the commands that fit a model, and only by them."""

    def test_synth_and_extract_import_no_numpy(self, tmp_path):
        corpus = tmp_path / "corpus"
        imported = imported_after(
            ["synth", "--out", str(corpus), "--docs", "30", "--seed", "7"],
            ["extract", "--manifest", str(corpus / "manifest.csv"), "--features", "linguistic",
             "--out", str(tmp_path / "x")],
        )
        assert imported == {"numpy": False, "numpy.ma": False}

    def test_eval_never_loads_numpy_ma(self, small_corpus, tmp_path):
        imported = imported_after([
            "eval", "--manifest", manifest_of(small_corpus), "--features", "flesch",
            "--model", "logistic", "--out", str(tmp_path / "e"),
        ])
        assert imported == {"numpy": True, "numpy.ma": False}


# Runs ``cli.main`` twice on one argv in one interpreter, the first time with stderr
# redirected to a buffer that it then prints to stdout; exits with the sum of the codes.
MAIN_TWICE = """
import contextlib, io, json, sys
from readgauge import cli
argv = json.loads(sys.argv[1])
first = io.StringIO()
with contextlib.redirect_stderr(first):
    code = cli.main(argv)
print(first.getvalue(), end="")
sys.exit(code + cli.main(argv))
"""


class TestStderrLines:
    """Outside pytest, whose log capture keeps warnings off stderr: warning lines, then one error line."""

    def test_warning_lines_then_one_error_line(self, tmp_path):
        manifest = write_one_doc_corpus(tmp_path, b"Hello there.")
        senses = tmp_path / "s.csv"
        senses.write_text("word,senses,hypernyms,hyponyms\nhello,1,0,0\nhello,2,0,0\n", encoding="utf-8")
        order = tmp_path / "order.txt"
        order.write_text("y\n", encoding="utf-8")
        argv = ["extract", "--manifest", manifest, "--features", "flesch", "--senses", str(senses),
                "--difficulty-order", str(order), "--out", str(tmp_path / "x")]
        proc = subprocess.run([sys.executable, "-c", MAIN_TWICE, json.dumps(argv)],
                              env=fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        lines = [
            f"warning: duplicate word 'hello' in {senses} (row 3), last wins",
            "error: UnknownClass: class 'x' is not in the difficulty order",
        ]
        # Each call writes once, to the stderr in place at that call.
        assert proc.stdout.splitlines() == lines
        assert proc.stderr.splitlines() == lines


class TestHashSeedIndependence:
    def test_same_bytes_under_two_hash_seeds(self, tmp_path):
        outputs = []
        for hash_seed in (0, 1):
            out = tmp_path / f"hash_seed_{hash_seed}"
            manifest = str(out / "corpus" / "manifest.csv")
            run_under_hash_seed(hash_seed, [
                "synth", "--out", str(out / "corpus"), "--docs", "60", "--seed", "7"])
            run_under_hash_seed(hash_seed, [
                "extract", "--manifest", manifest, "--features", "word_types+linguistic",
                "--out", str(out / "extract")])
            run_under_hash_seed(hash_seed, [
                "ablate", "--manifest", manifest, "--features", "word_types+pos",
                "--baseline-features", "word_types", "--model", "svm", "--sizes", "12,24,48",
                "--out", str(out / "ablate")])
            outputs.append([
                (out / name).read_bytes()
                for name in ("corpus/manifest.csv", "extract/features.csv", "ablate/ablation.csv")
            ])
        assert outputs[0] == outputs[1]
