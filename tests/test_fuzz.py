"""Fuzzed input files through ``main``.

Whatever the bytes of a manifest, a document, a score file, a word table
(norms, senses or tag lexicon), a difficulty order or a report directory, ``main`` returns 0 or 1 without raising, and a 1
comes with exactly one ``error: <Code>: ...`` line on stderr.
"""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from readgauge.cli import main
from readgauge.lexicons import PSYCHOLINGUISTIC_FEATURE_NAMES

FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None)

ERROR_LINE = re.compile(r"error: [A-Za-z]+: ")
MANIFEST_HEADER = "doc_id,path,class_name,age_low,age_high"
SUMMARY_HEADER = "features,weighted_f1,macro_f1,sd_weighted_f1,sd_macro_f1"

# Cells that reach the readers' branches: valid ids, paths and numbers,
# non-finite numbers, quotes, line breaks and a quoted field over the csv
# module's field size limit.
CELLS = st.one_of(
    st.sampled_from([
        "d1", "d2", "a.txt", "b.txt", "gone.txt", "x", "y", "3", "0.5", "nan", "-inf", "",
        '"', '"a,b"', '"l1\r\nl2"', "\r", "\n", '"' + "q" * 200_000 + '"',
    ]),
    st.text(max_size=8),
)
LINES = st.lists(CELLS, max_size=6).map(",".join)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


def encoded(text):
    """UTF-8 bytes of ``text``, now and then behind a UTF-16 or UTF-8 mark or
    followed by bytes that are not UTF-8."""
    return st.tuples(
        st.sampled_from([b""] * 8 + [b"\xff\xfe", b"\xef\xbb\xbf"]),
        text.map(lambda s: s.encode("utf-8")),
        st.sampled_from([b""] * 8 + [b"\x80", b"\xc3"]),
    ).map(b"".join)


def csv_file(header, rows=LINES):
    header_line = st.one_of(st.just(header), st.just(header), LINES)
    text = st.tuples(header_line, st.lists(st.one_of(rows, rows, rows, LINES), max_size=4), NEWLINES).map(
        lambda t: t[2].join([t[0], *t[1]]) + t[2]
    )
    return st.one_of(encoded(text), encoded(text), encoded(text), st.binary(max_size=64))




DOCUMENTS = st.one_of(
    encoded(st.sampled_from(["The cat sat on the mat. The dog ran.", "Hello world.", ""])),
    encoded(st.text(max_size=200)),
    st.binary(max_size=64),
)


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and ERROR_LINE.match(lines[0]), lines


def write_files(root, files):
    for name, data in files.items():
        with open(os.path.join(root, name), "wb") as fh:
            fh.write(data)


def two_doc_corpus(root):
    write_files(root, {
        "a.txt": b"The cat sat on the mat.",
        "b.txt": b"The phenomenon demonstrates considerable complexity.",
        "manifest.csv": f"{MANIFEST_HEADER}\nd1,a.txt,x,5,7\nd2,b.txt,y,9,11\n".encode(),
    })
    return os.path.join(root, "manifest.csv")


MANIFEST_ROWS = st.sampled_from(["d1,a.txt,x,5,7", "d2,b.txt,y,,", "d3,b.txt,x,1e3,9", "d1,a.txt,y,,"])
SCORE_ROWS = st.sampled_from(["d1,gpt,0.5", "d2,gpt,1", "d1,bert,2", "d2,bert,-1e9", "d1,gpt,3",
                              "d1,gpt,1e308", "d2,gpt,-1e308"])
SUMMARY_ROWS = st.sampled_from(["setA,0.5,0.4,0.0,0.0", "setB,1.0,1.0,,", "setC,0,0,0.1,0.1"])
# Word-table rows: a word repeated in another case, an empty word, bad values,
# and finite values whose sums overflow.
NORMS_ROWS = st.tuples(st.sampled_from(["the", "cat", "The", "", " cat "]),
                       st.sampled_from(["3", "x", "inf", "2.5", "", "-0", "1e308", "-1e308"])).map(
    lambda t: t[0] + f",{t[1]}" * len(PSYCHOLINGUISTIC_FEATURE_NAMES))
SENSES_ROWS = st.sampled_from(["cat,-1,0,0", "Cat,2,2,2", "the,1,0,3", "cat,x,0,0", ",1,1,1", "the,1.5,0,0"])
TAG_ROWS = st.sampled_from(["cat,", ",NN", "Cat,VB", "cat,NN", "the,DT", "sat, VBD "])


def extract_with_table(flag, table, features):
    """``extract`` of the two-document corpus with ``table`` as the file of ``--<flag>``."""
    with tempfile.TemporaryDirectory() as root:
        manifest = two_doc_corpus(root)
        write_files(root, {"table.csv": table})
        run(["extract", "--manifest", manifest, "--features", features,
             f"--{flag}", os.path.join(root, "table.csv"), "--out", os.path.join(root, "out")])


@FUZZ
@given(manifest=csv_file(MANIFEST_HEADER, MANIFEST_ROWS))
def test_extract_fuzzed_manifest(manifest):
    with tempfile.TemporaryDirectory() as root:
        two_doc_corpus(root)
        write_files(root, {"manifest.csv": manifest})
        run(["extract", "--manifest", os.path.join(root, "manifest.csv"),
             "--features", "flesch", "--out", os.path.join(root, "out")])


@FUZZ
@given(doc_a=DOCUMENTS, doc_b=DOCUMENTS)
def test_extract_fuzzed_documents(doc_a, doc_b):
    with tempfile.TemporaryDirectory() as root:
        manifest = two_doc_corpus(root)
        write_files(root, {"a.txt": doc_a, "b.txt": doc_b})
        run(["extract", "--manifest", manifest, "--features", "linguistic", "--out", os.path.join(root, "out")])


@FUZZ
@given(scores=csv_file("doc_id,score_name,value", SCORE_ROWS))
def test_train_fuzzed_scores(scores):
    with tempfile.TemporaryDirectory() as root:
        manifest = two_doc_corpus(root)
        write_files(root, {"scores.csv": scores})
        run(["train", "--manifest", manifest, "--features", "flesch", "--model", "logistic",
             "--scores", os.path.join(root, "scores.csv"), "--out", os.path.join(root, "out")])


@FUZZ
@given(norms=csv_file("word," + ",".join(PSYCHOLINGUISTIC_FEATURE_NAMES), NORMS_ROWS))
def test_extract_fuzzed_norms(norms):
    extract_with_table("norms", norms, "psycholinguistic")


@FUZZ
@given(senses=csv_file("word,senses,hypernyms,hyponyms", SENSES_ROWS))
def test_extract_fuzzed_senses(senses):
    extract_with_table("senses", senses, "lexical_diversity")


@FUZZ
@given(lexicon=csv_file("word,tag", TAG_ROWS))
def test_extract_fuzzed_tag_lexicon(lexicon):
    extract_with_table("tag-lexicon", lexicon, "pos")


@FUZZ
@given(order=encoded(st.tuples(
    st.permutations(["x", " y ", "z"]), st.lists(st.one_of(st.just(""), CELLS), max_size=2), NEWLINES,
).map(lambda t: t[2].join([*t[0], *t[1]]))))
def test_extract_fuzzed_difficulty_order(order):
    with tempfile.TemporaryDirectory() as root:
        manifest = two_doc_corpus(root)
        write_files(root, {"order.txt": order})
        run(["extract", "--manifest", manifest, "--features", "flesch",
             "--difficulty-order", os.path.join(root, "order.txt"), "--out", os.path.join(root, "out")])


@FUZZ
@given(files=st.dictionaries(st.sampled_from(["a.csv", "b.csv", "c.txt"]), csv_file(SUMMARY_HEADER, SUMMARY_ROWS),
                             max_size=3),
       csv_dir=st.booleans())
def test_report_fuzzed_directory(files, csv_dir):
    with tempfile.TemporaryDirectory() as root:
        reports = os.path.join(root, "reports")
        os.makedirs(os.path.join(reports, "d.csv") if csv_dir else reports)
        write_files(reports, files)
        run(["report", "--reports", reports, "--out", os.path.join(root, "out")])
