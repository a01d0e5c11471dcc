"""Cross-validation, F1 scoring and the training-set-size ablation.

F1 is counted in Python over the label pairs. The CLI imports this module
for every command, so numpy is imported only where ``cross_validate``
summarizes its folds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Protocol, Sequence

from .errors import BadSize, SizeTooLarge, TooFewSamples
from .textcore import Document, mean, ratio, sum_in_order


@dataclass
class EvalReport:
    """Each fold's weighted and macro F1, and their means and population SDs."""

    fold_weighted: list[float]
    fold_macro: list[float]
    mean_weighted: float
    mean_macro: float
    sd_weighted: float
    sd_macro: float


class Pipeline(Protocol):
    def fit(self, docs: Sequence[Document], labels: Sequence[int]) -> None: ...

    def predict(self, docs: Sequence[Document]) -> list[int]: ...


def kfold(doc_ids: Sequence[str], labels: Sequence[int], k: int, seed: int) -> dict[str, int]:
    """Deterministic, per-class balanced fold of each document id."""
    n = len(doc_ids)
    if len(labels) != n:
        raise ValueError(f"{n} ids vs {len(labels)} labels")
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


def f1_scores(
    y_true: Sequence[int], y_pred: Sequence[int], n_classes: int
) -> tuple[list[float], float, float]:
    """Per-class F1, support-weighted F1, and unweighted macro F1.

    Classes absent from y_true contribute zero weight to the weighted score
    and an F1 of zero to the macro mean. A class's F1 is 2·correct / (true +
    predicted), the same ratio as 2·tp / (2·tp + fp + fn).
    """
    if len(y_true) != len(y_pred):
        raise ValueError(f"{len(y_true)} true vs {len(y_pred)} predicted")
    true, predicted, correct = [0] * n_classes, [0] * n_classes, [0] * n_classes
    for t, p in zip(y_true, y_pred):
        true[t] += 1
        predicted[p] += 1
        if t == p:
            correct[t] += 1
    per_class = [ratio(2 * c, t + p) for c, t, p in zip(correct, true, predicted)]
    weighted = ratio(sum_in_order(t * f for t, f in zip(true, per_class)), len(y_true))
    return per_class, weighted, mean(per_class)


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
    weighted, macro = [], []
    for fold in range(k):
        train = [i for i, d in enumerate(docs) if fold_of[d.doc_id] != fold]
        test = [i for i, d in enumerate(docs) if fold_of[d.doc_id] == fold]
        w, m = _fit_f1(pipeline, docs, labels, train, test, n_classes)
        weighted.append(w)
        macro.append(m)
    # numpy's mean and population SD: its pairwise sums differ from ``sum`` at 8 folds and up.
    # Imported after the fits: imported before them, it raised eval's peak RSS by about 1 MB.
    import numpy as np

    return EvalReport(
        weighted, macro, float(np.mean(weighted)), float(np.mean(macro)),
        float(np.std(weighted)), float(np.std(macro)),
    )


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
    # One document holds one class; the round-robin order below gives any longer
    # prefix two, when the pool has two.
    if not sizes or min(sizes) < 2:
        raise BadSize(f"training sizes must be integers >= 2, since a model needs two classes"
                      f" and one document has one, got {list(sizes)}")
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
