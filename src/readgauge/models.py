"""Linear multi-class classifiers trained from scratch.

Logistic regression uses deterministic full-batch gradient descent with
backtracking on the multinomial cross-entropy; the SVM uses one-vs-rest
hinge subgradient descent, returning the best-objective checkpoint. Both
are deterministic given identical inputs.

The SVM's C-grid search fits every C of an inner fold together, as one
stack of weight matrices over the fold's shared rows; each slice's
arithmetic is that of a separate fit, so the weights, and the chosen C,
are bitwise equal to fitting each C alone. The inner folds run in forked
processes, one contiguous share per usable CPU; each fold's scores are
computed by the same code in fold order, so the output is the same on any
CPU count.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, Callable, Optional, Sequence

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


def _hinge_work(G: int, n: int, n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work arrays of shape (G, n, classes) for ``_hinge_stack``: two float, one bool."""
    shape = (G, n, n_classes)
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)


def _hinge_stack(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray, Cs: np.ndarray,
    work: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hinge losses (G,) and subgradients of G weight slices on the same rows.

    Slice g is ``W[g]`` (classes, d), ``b[g]`` and ``Cs[g]``; every slice
    gets one matmul of the shapes a single fit would use. The (G, n, classes)
    intermediates overwrite ``work`` (from ``_hinge_work``), so a fit that
    passes the same arrays every epoch allocates none of them. Arrays of that
    size freed every epoch can go back to the OS and fault in again on the
    next one, depending on where the heap put them.
    """
    n = X.shape[0]
    margins, hinge, positive = work
    np.matmul(X, W.transpose(0, 2, 1), out=margins)
    margins += b[:, None, :]
    np.multiply(Y, margins, out=margins)
    np.subtract(1.0, margins, out=hinge)
    np.maximum(0.0, hinge, out=hinge)
    loss = 0.5 * (W * W).sum(axis=(1, 2)) + Cs * hinge.sum(axis=(1, 2)) / n
    np.greater(hinge, 0, out=positive)
    active = np.multiply(positive, Y, out=margins)  # (G, n, classes)
    grad_W = W - Cs[:, None, None] * (active.transpose(0, 2, 1) @ X) / n
    grad_b = -Cs[:, None] * active.sum(axis=1) / n
    return loss, grad_W, grad_b


def hinge_loss_grad(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray, C: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """One-vs-rest L2-regularized mean hinge loss and a subgradient."""
    Y = _targets(y, W.shape[0])
    work = _hinge_work(1, X.shape[0], W.shape[0])
    loss, grad_W, grad_b = _hinge_stack(W[None], b[None], X, Y, np.array([float(C)]), work)
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
    work = _hinge_work(Cs.size, Xs.shape[0], n_classes)
    # Pass SVM_EPOCHS only scores the final weights; its step is discarded.
    for t in range(SVM_EPOCHS + 1):
        loss, grad_W, grad_b = _hinge_stack(W, b, Xs, Y, Cs, work)
        better = loss < best_loss
        np.copyto(best_loss, loss, where=better)
        np.copyto(best_W, W, where=better[:, None, None])
        np.copyto(best_b, b, where=better[:, None])
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


def _fold_f1s(
    X: np.ndarray, y: np.ndarray, test: np.ndarray, Cs: Sequence[float], n_classes: int
) -> list[float]:
    """Weighted F1 on the rows ``test`` of each C in ``Cs``, fit on the other rows.

    The fit is one ``_svm_fit_stack`` call, scored with one stacked product.
    """
    y_train = y[~test]
    fold_classes = _check_labels(y_train)
    Xs, scaler = standardize(X[~test])
    W, b = _svm_fit_stack(Xs, y_train, fold_classes, Cs)
    preds = (scaler.transform(X[test]) @ W.transpose(0, 2, 1) + b[:, None, :]).argmax(axis=2)
    return [f1_scores(list(y[test]), list(p), n_classes)[1] for p in preds]


def _share_outcome(fn: Callable[..., Any], jobs: Sequence[tuple]) -> tuple[bool, Any]:
    """``(True, results)`` of ``fn`` over ``jobs`` in order, or ``(False, exc)`` of the first that raised."""
    try:
        return True, [fn(*job) for job in jobs]
    except Exception as exc:
        return False, exc


def _wait(pid: int, fd: int) -> tuple[int, int, bytes]:
    """``(pid, wait status, payload)`` of a forked share, once ``pid`` has exited."""
    with os.fdopen(fd, "rb") as pipe:
        payload = pipe.read()
    return pid, os.waitpid(pid, 0)[1], payload


def _decode(pid: int, status: int, payload: bytes) -> tuple[bool, Any]:
    """The outcome a forked share pickled, or ``(False, ChildProcessError)`` if it did not exit cleanly."""
    if status != 0:
        return False, ChildProcessError(f"worker {pid} exited with wait status {status} and no result")
    return pickle.loads(payload)


def _map_forked(fn: Callable[..., Any], jobs: Sequence[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, with the jobs split across the usable CPUs.

    Each CPU in ``os.sched_getaffinity(0)`` gets one contiguous share of the
    jobs, and there are never more shares than jobs. Every share after the
    first runs in a forked child, which pickles its outcome into a pipe; this
    process runs the first share, then reads every pipe and waits for every
    child, whatever raised, and decodes the replies only after that. With one
    usable CPU, or where ``os.fork`` or ``os.sched_getaffinity`` is missing,
    there is one share and nothing is forked. Results come back in job order;
    a failure raises the exception of the first failing job. A child that
    dies without a result raises ``ChildProcessError``: a fault of the
    machine, such as a killed process, not of the input.
    """
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    shares = max(1, min(len(os.sched_getaffinity(0)), len(jobs))) if can_fork else 1
    bounds = [len(jobs) * i // shares for i in range(shares + 1)]
    children: list[tuple[int, int]] = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                # os._exit: the child must not unwind into the caller, run its
                # atexit handlers or flush the output buffers it inherited.
                code = 1
                try:
                    os.close(read_fd)
                    payload = pickle.dumps(_share_outcome(fn, jobs[lo:hi]))
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [fn(*job) for job in jobs[: bounds[1]]]
    finally:
        replies = [_wait(pid, fd) for pid, fd in children]
    for reply in replies:
        ok, value = _decode(*reply)
        if not ok:
            raise value
        results.extend(value)
    return results


def grid_search_c(
    X: np.ndarray,
    y: Sequence[int],
    grid: Sequence[float],
    folds: int = 5,
    seed: int = 0,
) -> float:
    """C maximizing mean k-fold weighted F1; ties go to the smallest C.

    The inner folds run through ``_map_forked``, one share per usable CPU.
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
    fold_f1s = _map_forked(_fold_f1s, [(X, y, fold_of == fold, Cs, n_classes) for fold in range(folds)])
    means = [mean([f1s[g] for f1s in fold_f1s]) for g in range(len(Cs))]
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
