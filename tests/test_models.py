import os
import pickle

import numpy as np
import pytest

from oracles import oracle_grid_search_c, oracle_train_svm
from readgauge import models
from readgauge.errors import (
    DegenerateLabels,
    FeatureMismatch,
    MissingFile,
    NameCollision,
)
from readgauge.evaluation import kfold
from readgauge.models import (
    DEFAULT_C_GRID,
    _fold_f1s,
    _map_forked,
    _svm_fit_stack,
    fuse,
    grid_search_c,
    hinge_loss_grad,
    load_model,
    predict,
    save_model,
    softmax_loss_grad,
    standardize,
    train_linear_svm,
    train_logistic,
)
from readgauge.pipeline import FeaturePipeline, PipelineConfig
from readgauge.registry import Resources
from readgauge.textcore import make_document


def blobs(n_per_class=20, n_classes=3, n_features=4, seed=0, sep=6.0):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(n_classes):
        center = np.zeros(n_features)
        center[c % n_features] = sep * (c + 1)
        X.append(rng.normal(center, 1.0, size=(n_per_class, n_features)))
        y.extend([c] * n_per_class)
    return np.vstack(X), np.array(y)


class TestStandardize:
    def test_column_example(self):
        # column [1, 3]: mean 2, population std 1 -> [-1, 1]
        Xs, scaler = standardize(np.array([[1.0], [3.0]]))
        assert Xs.tolist() == [[-1.0], [1.0]]
        assert scaler.mean.tolist() == [2.0]
        assert scaler.std.tolist() == [1.0]

    def test_constant_column_maps_to_zero(self):
        Xs, scaler = standardize(np.array([[5.0], [5.0], [5.0]]))
        assert Xs.tolist() == [[0.0], [0.0], [0.0]]
        assert scaler.std.tolist() == [0.0]

    def test_transform_reapplies(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0]])
        Xs, scaler = standardize(X)
        np.testing.assert_allclose(scaler.transform(X), Xs)


def central_diff(loss_fn, W, b, eps=1e-6):
    gW = np.zeros_like(W)
    gb = np.zeros_like(b)
    for idx in np.ndindex(W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += eps
        Wm[idx] -= eps
        gW[idx] = (loss_fn(Wp, b) - loss_fn(Wm, b)) / (2 * eps)
    for i in range(b.size):
        bp, bm = b.copy(), b.copy()
        bp[i] += eps
        bm[i] -= eps
        gb[i] = (loss_fn(W, bp) - loss_fn(W, bm)) / (2 * eps)
    return gW, gb


class TestGradients:
    def test_softmax_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 3, size=12)
        W = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        loss, gW, gb = softmax_loss_grad(W, b, X, y, l2=0.01)
        eW, eb = central_diff(lambda w, bb: softmax_loss_grad(w, bb, X, y, 0.01)[0], W, b)
        assert np.abs(gW - eW).max() < 1e-6
        assert np.abs(gb - eb).max() < 1e-6

    def test_hinge_subgradient_matches_away_from_kinks(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 3, size=12)
        W = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        # random points land at margin exactly 1 with probability 0
        loss, gW, gb = hinge_loss_grad(W, b, X, y, C=0.5)
        eW, eb = central_diff(lambda w, bb: hinge_loss_grad(w, bb, X, y, 0.5)[0], W, b)
        assert np.abs(gW - eW).max() < 1e-5
        assert np.abs(gb - eb).max() < 1e-5


class TestTraining:
    def test_logistic_separable(self):
        X, y = blobs()
        model = train_logistic(X, y)
        preds = predict(model, X)
        assert (preds == y).mean() >= 0.95

    def test_svm_separable(self):
        X, y = blobs(seed=4)
        model = train_linear_svm(X, y, C=8.0)
        preds = predict(model, X)
        assert (preds == y).mean() >= 0.95

    def test_deterministic(self):
        X, y = blobs(seed=7)
        m1 = train_logistic(X, y)
        m2 = train_logistic(X, y)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        s1 = train_linear_svm(X, y)
        s2 = train_linear_svm(X, y)
        np.testing.assert_array_equal(s1.weights, s2.weights)

    def test_degenerate_labels(self):
        X = np.zeros((4, 2))
        with pytest.raises(DegenerateLabels):
            train_logistic(X, [0, 0, 0, 0])
        with pytest.raises(DegenerateLabels):
            train_linear_svm(X, [1, 1, 1, 1])

    def test_feature_names_attached(self):
        X, y = blobs(n_features=2)
        model = train_logistic(X, y, feature_names=["a", "b"])
        assert model.feature_names == ("a", "b")


class TestPredict:
    def test_mismatched_names(self):
        X, y = blobs(n_features=2)
        model = train_logistic(X, y, feature_names=["a", "b"])
        with pytest.raises(FeatureMismatch, match="column 1 is 'z' where the model has 'b'"):
            predict(model, X, feature_names=["a", "z"])

    def test_reordered_names_name_the_first_difference(self):
        X, y = blobs(n_features=2)
        model = train_logistic(X, y, feature_names=["a", "b"])
        with pytest.raises(FeatureMismatch, match="column 0 is 'b' where the model has 'a'"):
            predict(model, X, feature_names=["b", "a"])

    def test_mismatched_width(self):
        X, y = blobs(n_features=2)
        model = train_logistic(X, y)
        with pytest.raises(FeatureMismatch):
            predict(model, X[:, :1])


class TestGridSearch:
    def test_ties_prefer_smallest_c(self):
        X, y = blobs(n_per_class=10, sep=50.0)
        # every C in a tight grid separates this data perfectly
        best = grid_search_c(X, y, [4.0, 1.0, 2.0], folds=3, seed=0)
        assert best == 1.0

    def test_default_grid_is_exponential(self):
        assert DEFAULT_C_GRID[0] == 2.0**-5
        assert DEFAULT_C_GRID[-1] == 2.0**15
        ratios = {b / a for a, b in zip(DEFAULT_C_GRID, DEFAULT_C_GRID[1:])}
        assert ratios == {4.0}

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            grid_search_c(np.zeros((4, 1)), [0, 1, 0, 1], [])


def svm_case(name):
    """Overlapping blobs where the C-grid's choice depends on the data."""
    if name == "two_classes":
        return blobs(n_per_class=13, n_classes=2, n_features=3, seed=1, sep=1.0)
    if name == "one_column":
        return blobs(n_per_class=10, n_classes=3, n_features=1, seed=3, sep=1.0)
    X, y = blobs(n_per_class=12, n_classes=3, n_features=4, seed=0, sep=1.5)
    if name == "constant_column":
        X[:, 2] = 5.0
    return X, y


SVM_CASES = ["two_classes", "three_classes", "constant_column", "one_column"]
UNSORTED_GRID = [8.0, 0.25, 2.0**15, 1.0, 8.0]  # with a duplicate value


class TestStackedSvmMatchesSequential:
    """The stacked C-grid kernel against the one-fit-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize("C", [2.0**-5, 1.0, 8.0, 2.0**15])
    @pytest.mark.parametrize("case", SVM_CASES)
    def test_train_linear_svm(self, case, C):
        X, y = svm_case(case)
        got, want = train_linear_svm(X, y, C), oracle_train_svm(X, y, C)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)

    @pytest.mark.parametrize("case", SVM_CASES)
    def test_every_stacked_slice(self, case):
        X, y = svm_case(case)
        Xs, _ = standardize(X)
        W, b = _svm_fit_stack(Xs, y, int(y.max()) + 1, UNSORTED_GRID)
        for g, c in enumerate(UNSORTED_GRID):
            want = oracle_train_svm(X, y, c)
            assert np.array_equal(W[g], want.weights)
            assert np.array_equal(b[g], want.bias)

    @pytest.mark.parametrize("case, grid", [
        *((case, UNSORTED_GRID) for case in SVM_CASES),
        ("three_classes", list(DEFAULT_C_GRID)),
        ("one_column", list(DEFAULT_C_GRID)),
    ])
    def test_grid_search_c(self, case, grid):
        # 26, 30 and 36 rows: the 26- and 36-row cases have unequal inner folds
        X, y = svm_case(case)
        assert grid_search_c(X, y, grid, folds=5, seed=3) == oracle_grid_search_c(X, y, grid, folds=5, seed=3)


def use_cpus(monkeypatch, n):
    """Make ``os.sched_getaffinity`` report ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at(i, bad, parent):
    """``i``, or ``ValueError(i)`` for ``i`` in ``bad``; a forked child dies silently at -1."""
    if i == -1 and os.getpid() != parent:
        os._exit(3)
    if i in bad:
        raise ValueError(i)
    return i


class TestForkedInnerFolds:
    """Inner folds split into one share per usable CPU give the serial loop's bits."""

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_grid_search_c_on_any_cpu_count(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        if cpus == 1:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
        X, y = svm_case("three_classes")
        got = grid_search_c(X, y, UNSORTED_GRID, folds=5, seed=3)
        assert got == oracle_grid_search_c(X, y, UNSORTED_GRID, folds=5, seed=3)
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 8])
    def test_fold_scores_bitwise_in_fold_order(self, monkeypatch, cpus):
        X, y = svm_case("two_classes")
        fold_of = np.arange(len(y)) % 5
        jobs = [(X, y, fold_of == fold, UNSORTED_GRID, 2) for fold in range(5)]
        want = [_fold_f1s(*job) for job in jobs]
        use_cpus(monkeypatch, cpus)
        assert _map_forked(_fold_f1s, jobs) == want
        assert_no_child_left()

    @pytest.mark.parametrize("bad, first", [({3, 4}, 3), ({1, 3}, 1)])
    def test_first_failing_job_raises(self, monkeypatch, bad, first):
        # Two CPUs and five jobs: this process runs jobs 0-1, a child jobs 2-4.
        use_cpus(monkeypatch, 2)
        with pytest.raises(ValueError) as info:
            _map_forked(fail_at, [(i, bad, os.getpid()) for i in range(5)])
        assert info.value.args == (first,)
        assert_no_child_left()

    def test_child_without_result(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="no result"):
            _map_forked(fail_at, [(i, set(), os.getpid()) for i in (0, 1, 2, -1)])
        assert_no_child_left()

    @pytest.mark.parametrize("bad, error", [(set(), pickle.UnpicklingError), ({0}, ValueError)])
    def test_every_child_reaped_before_a_reply_is_decoded(self, monkeypatch, bad, error):
        # Four CPUs and four jobs: three children. A reply that fails to decode
        # leaves no child behind, and does not hide a failure in this process.
        use_cpus(monkeypatch, 4)

        def undecodable(payload):
            raise pickle.UnpicklingError("truncated")

        monkeypatch.setattr(pickle, "loads", undecodable)
        with pytest.raises(error):
            _map_forked(fail_at, [(i, bad, os.getpid()) for i in range(4)])
        assert_no_child_left()

    def test_one_class_fold_in_child_keeps_c_1(self, monkeypatch):
        # 12 easy documents and 1 hard one: the inner fold holding out the hard
        # document trains on one class, so the grid cannot be scored.
        docs = [make_document(f"e{i}", f"The cat sat. It was fun. Word{i}.") for i in range(12)]
        docs.append(make_document("h", "Notwithstanding unprecedented circumstances, it demonstrated nothing."))
        labels = [0] * 12 + [1]
        folds = kfold([str(i) for i in range(len(docs))], labels, k=5, seed=7)
        # Two CPUs and five folds: this process runs folds 0-1, a child folds 2-4.
        assert folds[str(len(docs) - 1)] >= 2
        use_cpus(monkeypatch, 2)
        raised, fitted_c = [], []

        def spy_grid(*args, **kwargs):
            try:
                return grid_search_c(*args, **kwargs)
            except DegenerateLabels as exc:
                raised.append(exc)
                raise

        def spy_fit(X, y, C, names):
            fitted_c.append(C)
            return train_linear_svm(X, y, C, names)

        monkeypatch.setattr(models, "grid_search_c", spy_grid)
        monkeypatch.setattr(models, "train_linear_svm", spy_fit)
        FeaturePipeline(PipelineConfig(feature_sets=["flesch"], model="svm"), Resources()).fit(docs, labels)
        assert len(raised) == 1 and fitted_c == [1.0]
        assert_no_child_left()


class TestFuse:
    def test_appends_scores(self):
        fused = fuse({"f1": 1.0}, [("gpt", 2.0), ("bert", 3.0)])
        assert list(fused) == ["f1", "gpt", "bert"]
        assert fused["gpt"] == 2.0

    def test_name_collision(self):
        with pytest.raises(NameCollision):
            fuse({"f1": 1.0}, [("f1", 2.0)])


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        X, y = blobs(n_features=2)
        model = train_logistic(X, y, feature_names=["a", "b"])
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path, expected_features=["a", "b"])
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.bias, model.bias)
        np.testing.assert_array_equal(loaded.scaler.mean, model.scaler.mean)
        assert loaded.classes == model.classes
        np.testing.assert_array_equal(predict(loaded, X), predict(model, X))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_model(str(tmp_path / "nope.json"))

    def test_feature_mismatch_on_load(self, tmp_path):
        X, y = blobs(n_features=2)
        model = train_logistic(X, y, feature_names=["a", "b"])
        path = str(tmp_path / "model.json")
        save_model(model, path)
        with pytest.raises(FeatureMismatch):
            load_model(path, expected_features=["a", "z"])

    def test_version_check(self, tmp_path):
        import json

        X, y = blobs(n_features=2)
        model = train_logistic(X, y)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FeatureMismatch):
            load_model(str(path))

    @pytest.mark.parametrize("text", [
        '{"format_version": 1, "weights": [[0.5',
        '{"format_version": 1}',
        '[1]',
        '{"format_version": 1, "weights": "x", "bias": [], "scaler_mean": [], "scaler_std": [],'
        ' "feature_names": [], "classes": []}',
    ], ids=["truncated", "no_weights", "not_an_object", "weights_not_numbers"])
    def test_malformed_json(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FeatureMismatch, match="model.json"):
            load_model(str(path))
