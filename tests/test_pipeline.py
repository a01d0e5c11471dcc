import random

import numpy as np
import pytest

from oracles import oracle_grid_search_c, oracle_train_svm
from readgauge import models, registry
from readgauge.errors import DegenerateLabels, MissingResource, MissingScore
from readgauge.evaluation import cross_validate
from readgauge.pipeline import FeaturePipeline, PipelineConfig
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
    cfg = PipelineConfig(feature_sets=["flesch"], model=model)
    return FeaturePipeline(cfg, Resources(), scores)


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
            FeaturePipeline(PipelineConfig(feature_sets=["flesch"], model="tree"), Resources())

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
        cfg = PipelineConfig(feature_sets=["word_types"], model="logistic")
        pipe = FeaturePipeline(cfg, Resources())
        train = [make_document("a", "apple banana"), make_document("b", "banana cherry")]
        pipe.fit(train, [0, 1])
        assert pipe.vocab == ["apple", "banana", "cherry"]
        assert pipe.model.feature_names == ("wt_apple", "wt_banana", "wt_cherry")
        # unseen words at predict time do not widen the matrix
        preds = pipe.predict([make_document("c", "durian banana")])
        assert preds[0] in (0, 1)

    def test_columns_are_word_proportions(self):
        pipe = FeaturePipeline(PipelineConfig(feature_sets=["word_types"]), Resources())
        doc = make_document("d", "a b a")
        pipe.fit_vocab([doc])
        assert pipe.vocab == ["a", "b"]
        X, names = pipe.matrix([doc])
        assert names == ("wt_a", "wt_b")
        assert X[0].tolist() == [pytest.approx(2 / 3), pytest.approx(1 / 3)]

    def test_matrix_before_fit_vocab_raises(self):
        cfg = PipelineConfig(feature_sets=["flesch", "word_types"])
        pipe = FeaturePipeline(cfg, Resources())
        with pytest.raises(MissingResource):
            pipe.matrix([make_document("d", "a b a")])


class TestFusion:
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


class TestClone:
    def test_clone_shares_static_cache_not_fit_state(self):
        docs, labels = corpus()
        pipe = flesch_pipeline()
        pipe.fit(docs, labels)
        copy = pipe.clone()
        assert copy.model is None
        assert copy.vocab is None
        assert copy._static_cache is pipe._static_cache

    def test_clone_refit_matches(self):
        docs, labels = corpus()
        pipe = flesch_pipeline()
        pipe.fit(docs, labels)
        copy = pipe.clone()
        copy.fit(docs, labels)
        np.testing.assert_array_equal(copy.model.weights, pipe.model.weights)
