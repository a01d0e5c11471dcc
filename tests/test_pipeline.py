import random
from collections import Counter

import numpy as np
import pytest

from oracles import oracle_grid_search_c, oracle_train_svm
from readgauge import models, registry
from readgauge.errors import DegenerateLabels, MissingResource, MissingScore, NameCollision
from readgauge.evaluation import cross_validate, size_ablation
from readgauge.pipeline import FeaturePipeline
from readgauge.registry import Resources
from readgauge.textcore import make_document


def corpus():
    easy = "The cat sat. The dog ran. It was fun."
    hard = (
        "Notwithstanding unprecedented circumstances, the investigation "
        "demonstrated extraordinarily complicated interdependencies throughout."
    )
    docs, labels = [], []
    for i in range(12):
        docs.append(make_document(f"e{i}", easy + f" Word{i}."))
        labels.append(0)
        docs.append(make_document(f"h{i}", hard + f" Word{i}."))
        labels.append(1)
    return docs, labels


def flesch_pipeline(model="logistic", scores=None):
    return FeaturePipeline(["flesch"], Resources(), model=model, scores=scores)


class TestFitPredict:
    def test_logistic_separates(self):
        docs, labels = corpus()
        pipe = flesch_pipeline()
        pipe.fit(docs, labels)
        assert pipe.predict(docs) == labels

    def test_linear_kind_is_untuned_svm(self):
        docs, labels = corpus()
        pipe = flesch_pipeline(model="linear")
        pipe.fit(docs, labels)
        preds = pipe.predict(docs)
        assert sum(p == l for p, l in zip(preds, labels)) / len(labels) >= 0.9

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError):
            FeaturePipeline(["flesch"], Resources(), model="tree")

    def test_no_documents(self):
        docs, labels = corpus()
        pipe = flesch_pipeline()
        assert pipe.rows([]) == ([], ())
        pipe.fit(docs, labels)
        assert pipe.predict([]) == []

    def test_predict_before_fit_asserts(self):
        pipe = flesch_pipeline()
        with pytest.raises(AssertionError):
            pipe.predict([make_document("d", "Hi.")])


def noisy_corpus(n=30, seed=0):
    """Two classes whose long-word rates overlap, so no C separates them all."""
    rng = random.Random(seed)
    short = ["cat", "dog", "sun", "run", "big", "red", "hat", "sat"]
    long = ["remarkable", "consideration", "independently", "circumstance", "elaborate", "sophisticated"]
    docs, labels = [], []
    for i in range(n):
        p_long = 0.3 + 0.2 * (i % 2)
        sentences = []
        for _ in range(rng.randint(2, 4)):
            words = [rng.choice(long) if rng.random() < p_long else rng.choice(short)
                     for _ in range(rng.randint(4, 12))]
            sentences.append(" ".join(words).capitalize() + ".")
        docs.append(make_document(f"d{i}", " ".join(sentences)))
        labels.append(i % 2)
    return docs, labels


class TestSvmMatchesSequentialFits:
    def test_cross_validate_fold_scores(self, monkeypatch):
        docs, labels = noisy_corpus()
        got = cross_validate(flesch_pipeline(model="svm"), docs, labels, 2, k=3)
        monkeypatch.setattr(models, "grid_search_c", oracle_grid_search_c)
        monkeypatch.setattr(models, "train_linear_svm", oracle_train_svm)
        want = cross_validate(flesch_pipeline(model="svm"), docs, labels, 2, k=3)
        assert got.fold_weighted == want.fold_weighted
        assert got.fold_macro == want.fold_macro
        assert min(got.fold_weighted) < 1.0


class TestSvmInnerFoldWithOneClass:
    def test_keeps_c_1(self):
        docs, labels = corpus()
        # 12 easy documents and 1 hard one: the inner fold holding out the hard
        # document trains on one class, so the grid cannot be scored.
        docs, labels = docs[0::2] + [docs[1]], labels[0::2] + [labels[1]]
        svm = flesch_pipeline(model="svm")
        svm.fit(docs, labels)
        untuned = flesch_pipeline(model="linear")
        untuned.fit(docs, labels)
        assert np.array_equal(svm.model.weights, untuned.model.weights)
        assert np.array_equal(svm.model.bias, untuned.model.bias)

    def test_one_class_overall_still_raises(self):
        docs, labels = corpus()
        with pytest.raises(DegenerateLabels):
            flesch_pipeline(model="svm").fit(docs[0::2], labels[0::2])


class TestWordTypes:
    def test_vocab_from_training_docs_only(self):
        pipe = FeaturePipeline(["word_types"], Resources(), model="logistic")
        train = [make_document("a", "apple banana"), make_document("b", "banana cherry")]
        pipe.fit(train, [0, 1])
        assert pipe.vocab == ["apple", "banana", "cherry"]
        assert pipe.model.feature_names == ("wt_apple", "wt_banana", "wt_cherry")
        # unseen words at predict time do not widen the matrix
        preds = pipe.predict([make_document("c", "durian banana")])
        assert preds[0] in (0, 1)

    def test_columns_are_word_proportions(self):
        pipe = FeaturePipeline(["word_types"], Resources())
        doc = make_document("d", "a b a")
        pipe.fit_vocab([doc])
        assert pipe.vocab == ["a", "b"]
        X, names = pipe.matrix([doc])
        assert names == ("wt_a", "wt_b")
        assert X[0].tolist() == [pytest.approx(2 / 3), pytest.approx(1 / 3)]

    def test_matrix_before_fit_vocab_raises(self):
        pipe = FeaturePipeline(["flesch", "word_types"], Resources())
        with pytest.raises(MissingResource):
            pipe.matrix([make_document("d", "a b a")])


class TestFusion:
    def test_appends_scores(self):
        doc = make_document("d", "The cat sat.")
        rows, names = flesch_pipeline(scores={"d": [("gpt", 2.0), ("bert", 3.0)]}).rows([doc])
        assert list(names) == [*registry.FEATURE_SETS["flesch"].members, "gpt", "bert"]
        assert rows[0][names.index("gpt")] == 2.0

    def test_name_collision(self):
        doc = make_document("d", "The cat sat.")
        with pytest.raises(NameCollision, match=r"score name 'flesch' is also a feature column"):
            flesch_pipeline(scores={"d": [("flesch", 2.0)]}).rows([doc])

    def test_scores_appended_after_features(self):
        docs, labels = corpus()
        scores = {d.doc_id: [("oracle", float(l))] for d, l in zip(docs, labels)}
        pipe = flesch_pipeline(scores=scores)
        pipe.fit(docs, labels)
        assert pipe.model.feature_names[-1] == "oracle"
        assert pipe.predict(docs) == labels

    def test_missing_score_raises(self):
        docs, labels = corpus()
        scores = {docs[0].doc_id: [("oracle", 0.0)]}
        pipe = flesch_pipeline(scores=scores)
        with pytest.raises(MissingScore):
            pipe.fit(docs, labels)

    def test_missing_score_raises_before_extraction(self, monkeypatch):
        docs, labels = corpus()
        scores = {d.doc_id: [("oracle", 0.0)] for d in docs[:-1]}
        calls = []
        monkeypatch.setattr(registry, "extract", lambda *args: calls.append(args))
        with pytest.raises(MissingScore, match=repr(docs[-1].doc_id)):
            flesch_pipeline(scores=scores).fit(docs, labels)
        assert calls == []


class TestRefitOnePipeline:
    def test_refit_matches_a_fresh_fit(self):
        docs, labels = corpus()
        pipe = FeaturePipeline(["flesch", "word_types"], Resources(), model="logistic")
        pipe.fit(docs[:6], labels[:6])
        pipe.fit(docs, labels)
        fresh = FeaturePipeline(["flesch", "word_types"], Resources(), model="logistic")
        fresh.fit(docs, labels)
        assert pipe.vocab == fresh.vocab
        assert pipe.model.feature_names == fresh.model.feature_names
        np.testing.assert_array_equal(pipe.model.weights, fresh.model.weights)

    def record_extracts(self, monkeypatch):
        """The id of every document ``registry.extract`` is called on."""
        calls = []
        extract = registry.extract

        def recording_extract(doc, *args):
            calls.append(doc.doc_id)
            return extract(doc, *args)

        monkeypatch.setattr(registry, "extract", recording_extract)
        return calls

    def test_cross_validate_extracts_each_document_once(self, monkeypatch):
        docs, labels = corpus()
        calls = self.record_extracts(monkeypatch)
        cross_validate(flesch_pipeline(), docs, labels, 2, k=3)
        assert sorted(calls) == sorted(d.doc_id for d in docs)

    def test_size_ablation_extracts_each_document_once(self, monkeypatch):
        docs, labels = corpus()
        calls = self.record_extracts(monkeypatch)
        size_ablation(flesch_pipeline(), flesch_pipeline(), [6, 12], docs, labels, 2)
        # Each pipeline's cache holds the 12-document prefix and the 5 test documents.
        counts = Counter(calls)
        assert len(counts) == 17 and set(counts.values()) == {2}
