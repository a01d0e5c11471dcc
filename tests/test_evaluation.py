import builtins
import random
from collections import Counter

import numpy as np
import pytest

from oracles import oracle_f1
from oracles import oracle_kfold, oracle_stratified_order
from test_golden import neumaier_sum
from readgauge.errors import SizeTooLarge, TooFewSamples
from readgauge.evaluation import (
    cross_validate,
    f1_scores,
    kfold,
    size_ablation,
)
from readgauge.textcore import make_document


class TestKfold:
    def test_balanced_and_deterministic(self):
        ids = [f"d{i}" for i in range(20)]
        labels = [i % 2 for i in range(20)]
        plan = kfold(ids, labels, k=5, seed=7)
        again = kfold(ids, labels, k=5, seed=7)
        assert plan == again
        sizes = Counter(plan.values())
        assert set(sizes) == set(range(5))
        assert max(sizes.values()) - min(sizes.values()) <= 1

    def test_stratified_class_balance(self):
        ids = [f"d{i}" for i in range(30)]
        labels = [i % 3 for i in range(30)]
        plan = kfold(ids, labels, k=5, seed=1)
        by_label = {i: labels[int(i[1:])] for i in ids}
        for fold in range(5):
            fold_labels = Counter(by_label[i] for i, f in plan.items() if f == fold)
            assert max(fold_labels.values()) - min(fold_labels.values()) <= 1

    def test_seed_changes_assignment(self):
        ids = [f"d{i}" for i in range(20)]
        labels = [i % 2 for i in range(20)]
        assert kfold(ids, labels, 5, 1) != kfold(ids, labels, 5, 2)

    def test_errors(self):
        with pytest.raises(ValueError, match="1 ids vs 2 labels"):
            kfold(["a"], [0, 1], 2, 0)
        with pytest.raises(TooFewSamples):
            kfold(["a", "b"], [0, 1], 1, 0)
        with pytest.raises(TooFewSamples):
            kfold(["a", "b"], [0, 1], 3, 0)


class TestF1:
    def test_hand_example(self):
        # class A F1=1.0 support 3; class B F1=0.5 support 1
        y_true = [0, 0, 0, 1]
        y_pred = [0, 0, 0, 0]
        per_class, weighted, macro = f1_scores(y_true, y_pred, 2)
        assert per_class[0] == pytest.approx(6 / 7)
        assert per_class[1] == pytest.approx(0.0)
        # the documented case: construct exact per-class 1.0 and 0.5
        y_true = [0, 0, 0, 1, 1]
        y_pred = [0, 0, 0, 1, 0]
        per_class, weighted, macro = f1_scores(y_true, y_pred, 2)
        assert per_class[1] == pytest.approx(2 / 3)

    def test_weighted_and_macro_from_supports(self):
        # build predictions with per-class F1 exactly [1.0, 0.5], supports [3, 1]
        # class 1: tp=1, fn=1 -> recall .5; add one fp-free setup via n_classes=3
        y_true = [0, 0, 0, 1, 1]
        y_pred = [0, 0, 0, 1, 2]
        per_class, weighted, macro = f1_scores(y_true, y_pred, 3)
        assert per_class[0] == pytest.approx(1.0)
        assert per_class[1] == pytest.approx(2 / 3)

    def test_documented_arithmetic(self):
        # weighted = (3*1.0 + 1*0.5)/4 = 0.875, macro = (1.0 + 0.5)/2 = 0.75
        supports = [3, 1]
        per_class = [1.0, 0.5]
        weighted = sum(s * f for s, f in zip(supports, per_class)) / sum(supports)
        macro = sum(per_class) / len(per_class)
        assert weighted == pytest.approx(0.875)
        assert macro == pytest.approx(0.75)

    def test_matches_oracle_random(self):
        rng = random.Random(13)
        for _ in range(100):
            n_classes = rng.randint(2, 5)
            n = rng.randint(1, 50)
            y_true = [rng.randrange(n_classes) for _ in range(n)]
            y_pred = [rng.randrange(n_classes) for _ in range(n)]
            got = f1_scores(y_true, y_pred, n_classes)
            exp = oracle_f1(y_true, y_pred, n_classes)
            for g, e in zip(got[0], exp[0]):
                assert g == pytest.approx(e, abs=1e-12)
            assert got[1] == pytest.approx(exp[1], abs=1e-12)
            assert got[2] == pytest.approx(exp[2], abs=1e-12)

    def test_weighted_equals_macro_on_balanced_supports(self):
        rng = random.Random(29)
        for _ in range(50):
            n_classes = rng.randint(2, 4)
            per = 8
            y_true = [c for c in range(n_classes) for _ in range(per)]
            y_pred = [rng.randrange(n_classes) for _ in y_true]
            _, weighted, macro = f1_scores(y_true, y_pred, n_classes)
            assert weighted == pytest.approx(macro, abs=1e-12)

    def test_absent_class_zero_in_macro(self):
        per_class, weighted, macro = f1_scores([0, 0], [0, 0], 3)
        assert per_class == [1.0, 0.0, 0.0]
        assert weighted == pytest.approx(1.0)
        assert macro == pytest.approx(1 / 3)

    def test_no_samples_scores_zero(self):
        assert f1_scores([], [], 2) == ([0.0, 0.0], 0.0, 0.0)

    def test_sums_left_to_right_on_every_interpreter(self, monkeypatch):
        # Per-class F1 2/3, 1/2 and 2/5; Python 3.12's compensated sum gives 0.5222222222222223.
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        _, weighted, macro = f1_scores([0, 0, 1, 1, 2, 2], [2, 0, 2, 1, 2, 1], 3)
        assert weighted == macro == 0.5222222222222221

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 true vs 2 predicted"):
            f1_scores([0], [0, 1], 2)


class MajorityPipeline:
    """Trivial pipeline predicting the training majority class."""

    def __init__(self):
        self.majority = 0
        self.fit_calls = []

    def fit(self, docs, labels):
        self.fit_calls.append([d.doc_id for d in docs])
        self.majority = Counter(labels).most_common(1)[0][0]

    def predict(self, docs):
        return [self.majority] * len(docs)


def corpus(n=30, n_classes=3):
    docs = [make_document(f"d{i}", f"word {i}.") for i in range(n)]
    labels = [i % n_classes for i in range(n)]
    return docs, labels


class TestCrossValidate:
    def test_shapes_and_determinism(self):
        docs, labels = corpus()
        r1 = cross_validate(MajorityPipeline(), docs, labels, 3, k=5, seed=7)
        r2 = cross_validate(MajorityPipeline(), docs, labels, 3, k=5, seed=7)
        assert len(r1.fold_weighted) == 5
        assert r1.fold_weighted == r2.fold_weighted
        assert r1.fold_macro == r2.fold_macro

    def test_population_sd(self):
        docs, labels = corpus()
        report = cross_validate(MajorityPipeline(), docs, labels, 3, k=5, seed=7)
        assert report.sd_weighted == pytest.approx(float(np.std(report.fold_weighted)))

    def test_each_fold_fit_excludes_test_docs(self):
        docs, labels = corpus()
        pipe = MajorityPipeline()
        cross_validate(pipe, docs, labels, 3, k=5, seed=7)
        all_ids = {d.doc_id for d in docs}
        seen_test_sets = []
        for fit_ids in pipe.fit_calls:
            train_ids = set(fit_ids)
            seen_test_sets.append(all_ids - train_ids)
        # the five held-out sets partition the corpus
        union = set()
        for s in seen_test_sets:
            assert not (union & s)
            union |= s
        assert union == all_ids


class TestSizeAblation:
    def test_nested_and_deterministic(self):
        docs, labels = corpus(n=60)
        c1 = size_ablation(MajorityPipeline(), MajorityPipeline(), [10, 20], docs, labels, 3, seed=7)
        c2 = size_ablation(MajorityPipeline(), MajorityPipeline(), [10, 20], docs, labels, 3, seed=7)
        assert c1 == c2
        assert [s for s, _, _ in c1] == [10, 20]

    def test_size_too_large(self):
        docs, labels = corpus(n=20)
        with pytest.raises(SizeTooLarge):
            size_ablation(MajorityPipeline(), MajorityPipeline(), [17], docs, labels, 3)

    def test_training_prefixes_nest(self):
        docs, labels = corpus(n=60)
        with_pipe = MajorityPipeline()
        size_ablation(with_pipe, MajorityPipeline(), [10, 20], docs, labels, 3, seed=7)
        ids_10, ids_20 = with_pipe.fit_calls
        assert ids_20[:10] == ids_10

    def test_prefixes_stay_stratified(self):
        docs, labels = corpus(n=60)
        with_pipe = MajorityPipeline()
        size_ablation(with_pipe, MajorityPipeline(), [12], docs, labels, 3, seed=7)
        by_id = {d.doc_id: l for d, l in zip(docs, labels)}
        counts = Counter(by_id[i] for i in with_pipe.fit_calls[0])
        assert max(counts.values()) - min(counts.values()) <= 1


class _Doc:
    """Stand-in document: the evaluation code reads only ``doc_id``."""

    def __init__(self, doc_id, index):
        self.doc_id = doc_id
        self.index = index


class _RecordingPipeline:
    """Records the document indices of every fit and predict; predicts class 0."""

    def __init__(self, calls):
        self.calls = calls

    def fit(self, docs, labels):
        self.calls.append(("fit", [d.index for d in docs]))

    def predict(self, docs):
        self.calls.append(("predict", [d.index for d in docs]))
        return [0] * len(docs)


def random_split_case(rng, min_n):
    """Ids and labels: up to 6 labels drawn from 0..9 (so with gaps, or a
    single class), and in about a third of the cases repeated ids."""
    n = rng.randint(min_n, 40)
    label_values = rng.sample(range(10), rng.randint(1, 6))
    labels = [rng.choice(label_values) for _ in range(n)]
    if rng.random() < 0.3:
        ids = [f"d{rng.randrange(max(1, n // 2))}" for _ in range(n)]
    else:
        ids = [f"d{j}" for j in rng.sample(range(1000), n)]
    return ids, labels


class TestSplitsMatchPerClassLoops:
    CASES = 20_000

    def test_kfold(self):
        rng = random.Random(101)
        for _ in range(self.CASES):
            ids, labels = random_split_case(rng, min_n=2)
            k = rng.randint(2, len(ids))
            seed = rng.randrange(1000)
            got = kfold(ids, labels, k, seed)
            assert list(got.items()) == list(oracle_kfold(ids, labels, k, seed).items())

    def test_ablation_training_order_and_test_split(self):
        rng = random.Random(202)
        for _ in range(self.CASES):
            ids, labels = random_split_case(rng, min_n=5)
            seed = rng.randrange(1000)
            fold_of = oracle_kfold(ids, labels, 5, seed)
            test = [i for i, d in enumerate(ids) if fold_of[d] == 0]
            pool = [i for i, d in enumerate(ids) if fold_of[d] != 0]
            # Every id repeats one that fold 0 holds, or one is left: no size of at least 2 fits.
            if len(pool) < 2:
                continue
            order = oracle_stratified_order(pool, labels, random.Random(seed))
            calls = []
            docs = [_Doc(d, i) for i, d in enumerate(ids)]
            pipe = _RecordingPipeline(calls)
            size_ablation(pipe, pipe, [len(pool)], docs, labels, max(labels) + 1, seed=seed)
            assert calls == [("fit", order), ("predict", test)] * 2
