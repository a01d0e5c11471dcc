"""Linear multi-class classifiers trained from scratch.

Logistic regression uses deterministic full-batch gradient descent with
backtracking on the multinomial cross-entropy; the SVM uses one-vs-rest
hinge subgradient descent, returning the best-objective checkpoint. Both
are deterministic given identical inputs.

The SVM's C-grid search fits every C of an inner fold together, as one
stack of weight matrices over the fold's shared rows; each slice's
arithmetic is that of a separate fit, so the weights, and the chosen C,
are bitwise equal to fitting each C alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateLabels, FeatureMismatch, NameCollision
from .evaluation import f1_scores, kfold
from .inputs import read_text, write_atomic
from .textcore import mean

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray  # zero-variance columns stored as 0, mapped to 0 output

    def transform(self, X: np.ndarray) -> np.ndarray:
        safe = np.where(self.std > 0, self.std, 1.0)
        return (X - self.mean) / safe


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (n_classes, n_features)
    bias: np.ndarray  # (n_classes,)
    scaler: Scaler
    feature_names: tuple[str, ...]
    classes: tuple[int, ...]

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return self.scaler.transform(X) @ self.weights.T + self.bias


# Logistic regression: L2 weight penalty, epochs and first step size.
LOGISTIC_L2 = 1e-4
LOGISTIC_EPOCHS = 300
LOGISTIC_LR = 1.0

# Linear SVM: epochs and first step size (step t is SVM_LR / (1 + t)).
SVM_EPOCHS = 500
SVM_LR = 1.0


# Exponential grid for tuning the SVM's C, 2^-5 .. 2^15.
DEFAULT_C_GRID = tuple(2.0**k for k in range(-5, 16, 2))


def standardize(X: np.ndarray) -> tuple[np.ndarray, Scaler]:
    """Per-column (x - mean) / population std; constant columns map to 0."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        shape = X.shape[1] if X.ndim == 2 else 0
        scaler = Scaler(mean=np.zeros(shape), std=np.zeros(shape))
        return X.copy(), scaler
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scaler = Scaler(mean=mean, std=std)
    return scaler.transform(X), scaler


def _check_labels(y: np.ndarray) -> int:
    """The class count ``max(y) + 1``; ``DegenerateLabels`` unless ``y`` has 2 classes or more."""
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateLabels("need at least 2 classes")
    return int(classes.max()) + 1


def softmax_loss_grad(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean multinomial cross-entropy with L2 on weights, and its gradient."""
    n = X.shape[0]
    scores = X @ W.T + b
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=1, keepdims=True)
    nll = -np.log(probs[np.arange(n), y] + 1e-300).mean()
    loss = nll + 0.5 * l2 * float((W * W).sum())
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    grad_W = delta.T @ X / n + l2 * W
    grad_b = delta.sum(axis=0) / n
    return loss, grad_W, grad_b


def _targets(y: np.ndarray, n_classes: int) -> np.ndarray:
    """One-vs-rest targets: +1 in each row's class column, -1 elsewhere."""
    Y = -np.ones((len(y), n_classes))
    Y[np.arange(len(y)), y] = 1.0
    return Y


def _hinge_stack(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray, Cs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hinge losses (G,) and subgradients of G weight slices on the same rows.

    Slice g is ``W[g]`` (classes, d), ``b[g]`` and ``Cs[g]``; every slice
    gets one matmul of the shapes a single fit would use.
    """
    n = X.shape[0]
    margins = Y * (X @ W.transpose(0, 2, 1) + b[:, None, :])
    hinge = np.maximum(0.0, 1.0 - margins)
    loss = 0.5 * (W * W).sum(axis=(1, 2)) + Cs * hinge.sum(axis=(1, 2)) / n
    active = (hinge > 0).astype(float) * Y  # (G, n, classes)
    grad_W = W - Cs[:, None, None] * (active.transpose(0, 2, 1) @ X) / n
    grad_b = -Cs[:, None] * active.sum(axis=1) / n
    return loss, grad_W, grad_b


def hinge_loss_grad(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray, C: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """One-vs-rest L2-regularized mean hinge loss and a subgradient."""
    Y = _targets(y, W.shape[0])
    loss, grad_W, grad_b = _hinge_stack(W[None], b[None], X, Y, np.array([float(C)]))
    return float(loss[0]), grad_W[0], grad_b[0]


def _svm_fit_stack(
    Xs: np.ndarray, y: np.ndarray, n_classes: int, Cs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Hinge subgradient descent for every C in ``Cs`` on one standardized matrix.

    Returns weights (G, classes, d) and biases (G, classes): each slice's
    best-objective checkpoint, bitwise equal to a fit with that C alone.
    """
    Cs = np.asarray(Cs, dtype=float)
    Y = _targets(y, n_classes)
    W = np.zeros((Cs.size, n_classes, Xs.shape[1]))
    b = np.zeros((Cs.size, n_classes))
    best_W, best_b = W.copy(), b.copy()
    best_loss = np.full(Cs.size, np.inf)
    # Pass SVM_EPOCHS only scores the final weights; its step is discarded.
    for t in range(SVM_EPOCHS + 1):
        loss, grad_W, grad_b = _hinge_stack(W, b, Xs, Y, Cs)
        better = loss < best_loss
        best_loss[better] = loss[better]
        best_W[better] = W[better]
        best_b[better] = b[better]
        step = SVM_LR / (1.0 + t)
        W = W - step * grad_W
        b = b - step * grad_b
    return best_W, best_b


def _linear_model(
    W: np.ndarray, b: np.ndarray, scaler: Scaler, feature_names: Optional[Sequence[str]]
) -> LinearModel:
    return LinearModel(
        weights=W,
        bias=b,
        scaler=scaler,
        feature_names=tuple(feature_names or (f"f{i}" for i in range(W.shape[1]))),
        classes=tuple(range(W.shape[0])),
    )


def train_logistic(
    X: np.ndarray, y: Sequence[int], feature_names: Optional[Sequence[str]] = None
) -> LinearModel:
    """Full-batch gradient descent with step-halving backtracking."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = _check_labels(y)
    Xs, scaler = standardize(X)
    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    lr = LOGISTIC_LR
    loss, grad_W, grad_b = softmax_loss_grad(W, b, Xs, y, LOGISTIC_L2)
    for _ in range(LOGISTIC_EPOCHS):
        for _attempt in range(50):
            W_new = W - lr * grad_W
            b_new = b - lr * grad_b
            new_loss, new_gW, new_gb = softmax_loss_grad(W_new, b_new, Xs, y, LOGISTIC_L2)
            if new_loss <= loss:
                break
            lr *= 0.5
        else:
            break
        W, b, loss, grad_W, grad_b = W_new, b_new, new_loss, new_gW, new_gb
    return _linear_model(W, b, scaler, feature_names)


def train_linear_svm(
    X: np.ndarray,
    y: Sequence[int],
    C: float = 1.0,
    feature_names: Optional[Sequence[str]] = None,
) -> LinearModel:
    """One-vs-rest hinge subgradient descent; keeps the best checkpoint."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = _check_labels(y)
    Xs, scaler = standardize(X)
    W, b = _svm_fit_stack(Xs, y, n_classes, [C])
    return _linear_model(W[0], b[0], scaler, feature_names)


def predict(model: LinearModel, X: np.ndarray, feature_names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Argmax class ids with deterministic lowest-id tie-break."""
    X = np.asarray(X, dtype=float)
    if feature_names is not None and tuple(feature_names) != model.feature_names:
        got = tuple(feature_names)
        i, want, have = next(
            (i, w, h) for i, (w, h) in enumerate(zip_longest(model.feature_names, got)) if w != h
        )
        raise FeatureMismatch(
            f"expected {len(model.feature_names)} features, got {len(got)}; "
            f"column {i} is {have!r} where the model has {want!r}"
        )
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise FeatureMismatch(
            f"X has {X.shape[1] if X.ndim == 2 else '?'} columns, model expects {len(model.feature_names)}"
        )
    scores = model.decision_scores(X)
    return scores.argmax(axis=1)


def grid_search_c(
    X: np.ndarray,
    y: Sequence[int],
    grid: Sequence[float],
    folds: int = 5,
    seed: int = 0,
) -> float:
    """C maximizing mean k-fold weighted F1; ties go to the smallest C.

    Each inner fold fits the whole grid in one ``_svm_fit_stack`` call and
    scores it with one stacked product.
    """
    if not grid:
        raise ValueError("empty grid")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1
    ids = [str(i) for i in range(len(y))]
    assignments = kfold(ids, list(y), k=folds, seed=seed)
    fold_of = np.array([assignments[i] for i in ids])
    Cs = sorted(grid)
    scores: list[list[float]] = [[] for _ in Cs]
    for fold in range(folds):
        test = fold_of == fold
        y_train = y[~test]
        fold_classes = _check_labels(y_train)
        Xs, scaler = standardize(X[~test])
        W, b = _svm_fit_stack(Xs, y_train, fold_classes, Cs)
        preds = (scaler.transform(X[test]) @ W.transpose(0, 2, 1) + b[:, None, :]).argmax(axis=2)
        for g, p in enumerate(preds):
            scores[g].append(f1_scores(list(y[test]), list(p), n_classes)[1])
    means = [mean(s) for s in scores]
    return float(Cs[means.index(max(means))])


def fuse(
    linguistic: dict[str, float], external_scores: Sequence[tuple[str, float]]
) -> dict[str, float]:
    """Append external score columns after the linguistic features."""
    fused = dict(linguistic)
    for name, value in external_scores:
        if name in fused:
            raise NameCollision(name)
        fused[name] = float(value)
    return fused


def save_model(model: LinearModel, path: str) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "classes": list(model.classes),
        "scaler_mean": model.scaler.mean.tolist(),
        "scaler_std": model.scaler.std.tolist(),
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
    }
    write_atomic(path, lambda fh: json.dump(payload, fh))


def load_model(path: str, expected_features: Optional[Sequence[str]] = None) -> LinearModel:
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FeatureMismatch(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise FeatureMismatch(f"{path}: not a JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise FeatureMismatch(f"{path}: unsupported model format {payload.get('format_version')}")
    try:
        model = LinearModel(
            weights=np.asarray(payload["weights"], dtype=float),
            bias=np.asarray(payload["bias"], dtype=float),
            scaler=Scaler(
                mean=np.asarray(payload["scaler_mean"], dtype=float),
                std=np.asarray(payload["scaler_std"], dtype=float),
            ),
            feature_names=tuple(payload["feature_names"]),
            classes=tuple(payload["classes"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FeatureMismatch(f"{path}: malformed model ({type(exc).__name__}: {exc})") from None
    if expected_features is not None and tuple(expected_features) != model.feature_names:
        raise FeatureMismatch("feature names do not match the persisted model")
    return model
