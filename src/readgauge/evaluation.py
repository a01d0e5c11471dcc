"""Cross-validation, F1 scoring and the training-set-size ablation.

The CLI imports this module for every command, so numpy is imported only by
the functions that use it: ``EvalReport``'s statistics and ``confusion_matrix``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import TYPE_CHECKING, Protocol, Sequence

from .errors import BadSize, LengthMismatch, SizeTooLarge, TooFewSamples
from .textcore import Document, mean, ratio

if TYPE_CHECKING:
    import numpy as np


@dataclass
class EvalReport:
    fold_weighted: list[float]
    fold_macro: list[float]

    @property
    def mean_weighted(self) -> float:
        return _mean_sd(self.fold_weighted)[0]

    @property
    def mean_macro(self) -> float:
        return _mean_sd(self.fold_macro)[0]

    @property
    def sd_weighted(self) -> float:
        return _mean_sd(self.fold_weighted)[1]

    @property
    def sd_macro(self) -> float:
        return _mean_sd(self.fold_macro)[1]


def _mean_sd(folds: list[float]) -> tuple[float, float]:
    """numpy's mean and population SD, whose pairwise sums differ from ``sum`` at 8 folds up."""
    import numpy as np

    return float(np.mean(folds)), float(np.std(folds))


class Pipeline(Protocol):
    def fit(self, docs: Sequence[Document], labels: Sequence[int]) -> None: ...

    def predict(self, docs: Sequence[Document]) -> list[int]: ...


def kfold(doc_ids: Sequence[str], labels: Sequence[int], k: int, seed: int) -> dict[str, int]:
    """Deterministic, per-class balanced fold of each document id."""
    n = len(doc_ids)
    if len(labels) != n:
        raise LengthMismatch(f"{n} ids vs {len(labels)} labels")
    if k < 2 or k > n:
        raise TooFewSamples(f"k={k} with n={n}")
    pools = _class_pools(doc_ids, labels, seed)
    return {doc_id: i % k for i, doc_id in enumerate(chain.from_iterable(pools))}


def _class_pools(items: Sequence, labels: Sequence[int], seed: int) -> list[list]:
    """``items`` grouped by label in label order, each group sorted, then
    shuffled in turn by one ``random.Random(seed)``."""
    by_class: dict[int, list] = {}
    for item, label in zip(items, labels):
        by_class.setdefault(label, []).append(item)
    rng = random.Random(seed)
    pools = [sorted(by_class[label]) for label in sorted(by_class)]
    for pool in pools:
        rng.shuffle(pool)
    return pools


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int], n_classes: int) -> np.ndarray:
    import numpy as np

    cm = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(y_true, y_pred):
        cm[t, p] += 1
    return cm


def f1_scores(
    y_true: Sequence[int], y_pred: Sequence[int], n_classes: int
) -> tuple[list[float], float, float]:
    """Per-class F1, support-weighted F1, and unweighted macro F1.

    Classes absent from y_true contribute zero weight to the weighted score
    and an F1 of zero to the macro mean.
    """
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true vs {len(y_pred)} predicted")
    cm = confusion_matrix(y_true, y_pred, n_classes)
    per_class = []
    for c in range(n_classes):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        per_class.append(ratio(2 * tp, 2 * tp + fp + fn))
    supports = cm.sum(axis=1)
    weighted = float(ratio(sum(s * f for s, f in zip(supports, per_class)), supports.sum()))
    return per_class, weighted, float(mean(per_class))


def _fit_f1(
    pipeline: Pipeline, docs: Sequence[Document], labels: Sequence[int],
    train: Sequence[int], test: Sequence[int], n_classes: int,
) -> tuple[float, float]:
    """Weighted and macro F1 on the ``test`` indices of ``pipeline`` refit on the ``train`` indices."""
    pipeline.fit([docs[i] for i in train], [labels[i] for i in train])
    preds = pipeline.predict([docs[i] for i in test])
    _, weighted, macro = f1_scores([labels[i] for i in test], preds, n_classes)
    return weighted, macro


def cross_validate(
    pipeline: Pipeline,
    docs: Sequence[Document],
    labels: Sequence[int],
    n_classes: int,
    k: int = 5,
    seed: int = 7,
) -> EvalReport:
    """k-fold protocol: refit ``pipeline`` on the train folds only, score the held-out fold."""
    doc_ids = [d.doc_id for d in docs]
    fold_of = kfold(doc_ids, labels, k=k, seed=seed)
    report = EvalReport(fold_weighted=[], fold_macro=[])
    for fold in range(k):
        train = [i for i, d in enumerate(docs) if fold_of[d.doc_id] != fold]
        test = [i for i, d in enumerate(docs) if fold_of[d.doc_id] == fold]
        weighted, macro = _fit_f1(pipeline, docs, labels, train, test, n_classes)
        report.fold_weighted.append(weighted)
        report.fold_macro.append(macro)
    return report


def size_ablation(
    pipeline_with: Pipeline,
    pipeline_without: Pipeline,
    sizes: Sequence[int],
    docs: Sequence[Document],
    labels: Sequence[int],
    n_classes: int,
    seed: int = 7,
) -> list[tuple[int, float, float]]:
    """Macro F1 of both pipelines at nested training sizes on one fixed test split.

    A stratified 20% split is held out once; each size trains on a prefix of
    one stratified shuffle of the remaining pool, so samples nest.
    """
    if len(docs) < 5:
        raise TooFewSamples("the ablation holds out a stratified 20% test split (5 folds)"
                            f" and needs at least 5 documents, got {len(docs)}")
    doc_ids = [d.doc_id for d in docs]
    fold_of = kfold(doc_ids, labels, k=5, seed=seed)
    test_idx = [i for i, d in enumerate(docs) if fold_of[d.doc_id] == 0]
    pool_idx = [i for i, d in enumerate(docs) if fold_of[d.doc_id] != 0]
    if not sizes or min(sizes) < 1:
        raise BadSize(f"training sizes must be integers >= 1, got {list(sizes)}")
    repeated = [s for i, s in enumerate(sizes) if s in sizes[:i]]
    if repeated:
        raise BadSize(f"training size {repeated[0]} is repeated in {list(sizes)}")
    if max(sizes) > len(pool_idx):
        raise SizeTooLarge(f"max size {max(sizes)} > pool {len(pool_idx)}")
    pools = _class_pools(pool_idx, [labels[i] for i in pool_idx], seed)
    # Round-robin over the class pools, so every prefix is balanced.
    order = [i for row in zip_longest(*pools) for i in row if i is not None]
    curve: list[tuple[int, float, float]] = []
    for size in sizes:
        train = order[:size]
        _, macro_with = _fit_f1(pipeline_with, docs, labels, train, test_idx, n_classes)
        _, macro_without = _fit_f1(pipeline_without, docs, labels, train, test_idx, n_classes)
        curve.append((size, macro_with, macro_without))
    return curve
