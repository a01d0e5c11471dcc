"""Linear multi-class classifiers trained from scratch.

Logistic regression uses deterministic full-batch gradient descent with
backtracking on the multinomial cross-entropy; the SVM uses one-vs-rest
hinge subgradient descent, returning the best-objective checkpoint. Both
are deterministic given identical inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateLabels, FeatureMismatch, NameCollision
from .inputs import read_text

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


def _check_labels(y: np.ndarray) -> tuple[np.ndarray, int]:
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateLabels("need at least 2 classes")
    n_classes = int(classes.max()) + 1
    return classes, n_classes


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


def hinge_loss_grad(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray, C: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """One-vs-rest L2-regularized mean hinge loss and a subgradient."""
    n, _ = X.shape
    n_classes = W.shape[0]
    Y = -np.ones((n, n_classes))
    Y[np.arange(n), y] = 1.0
    margins = Y * (X @ W.T + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    loss = 0.5 * float((W * W).sum()) + C * float(hinge.sum()) / n
    active = (hinge > 0).astype(float) * Y  # (n, classes)
    grad_W = W - C * (active.T @ X) / n
    grad_b = -C * active.sum(axis=0) / n
    return loss, grad_W, grad_b


def train_logistic(
    X: np.ndarray, y: Sequence[int], feature_names: Optional[Sequence[str]] = None
) -> LinearModel:
    """Full-batch gradient descent with step-halving backtracking."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    _, n_classes = _check_labels(y)
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
    return LinearModel(
        weights=W,
        bias=b,
        scaler=scaler,
        feature_names=tuple(feature_names or (f"f{i}" for i in range(X.shape[1]))),
        classes=tuple(range(n_classes)),
    )


def train_linear_svm(
    X: np.ndarray,
    y: Sequence[int],
    C: float = 1.0,
    feature_names: Optional[Sequence[str]] = None,
) -> LinearModel:
    """One-vs-rest hinge subgradient descent; keeps the best checkpoint."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    _, n_classes = _check_labels(y)
    Xs, scaler = standardize(X)
    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    best_loss, _, _ = hinge_loss_grad(W, b, Xs, y, C)
    best_W, best_b = W.copy(), b.copy()
    for t in range(SVM_EPOCHS):
        loss, grad_W, grad_b = hinge_loss_grad(W, b, Xs, y, C)
        if loss < best_loss:
            best_loss = loss
            best_W, best_b = W.copy(), b.copy()
        step = SVM_LR / (1.0 + t)
        W = W - step * grad_W
        b = b - step * grad_b
    loss, _, _ = hinge_loss_grad(W, b, Xs, y, C)
    if loss < best_loss:
        best_W, best_b = W, b
    return LinearModel(
        weights=best_W,
        bias=best_b,
        scaler=scaler,
        feature_names=tuple(feature_names or (f"f{i}" for i in range(X.shape[1]))),
        classes=tuple(range(n_classes)),
    )


def predict(model: LinearModel, X: np.ndarray, feature_names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Argmax class ids with deterministic lowest-id tie-break."""
    X = np.asarray(X, dtype=float)
    if feature_names is not None and tuple(feature_names) != model.feature_names:
        raise FeatureMismatch(
            f"expected {len(model.feature_names)} features, got {len(tuple(feature_names))}"
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
    """C maximizing mean k-fold weighted F1; ties go to the smallest C."""
    from .evaluation import f1_scores, kfold

    if not grid:
        raise ValueError("empty grid")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1
    ids = [str(i) for i in range(len(y))]
    plan = kfold(ids, list(y), k=folds, seed=seed, stratified=True)
    best_c = None
    best_score = -1.0
    for c in sorted(grid):
        scores = []
        for fold in range(folds):
            test_idx = [i for i in range(len(y)) if plan.assignments[ids[i]] == fold]
            train_idx = [i for i in range(len(y)) if plan.assignments[ids[i]] != fold]
            model = train_linear_svm(X[train_idx], y[train_idx], c)
            preds = predict(model, X[test_idx])
            _, weighted, _ = f1_scores(list(y[test_idx]), list(preds), n_classes)
            scores.append(weighted)
        mean_score = sum(scores) / len(scores)
        if mean_score > best_score:
            best_score = mean_score
            best_c = c
    return float(best_c)


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
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


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
