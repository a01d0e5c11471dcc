"""Conversion of raw corpus class labels into model targets."""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import UnknownClass
from .inputs import read_text
from .textcore import RawLabel


def as_classes(
    labels: Sequence[RawLabel],
    ordering: Optional[Sequence[str]] = None,
) -> tuple[list[int], list[str]]:
    """Map class names to ids, by ordering file or first-seen order."""
    if ordering is not None:
        order = list(ordering)
        index = {name: i for i, name in enumerate(order)}
        ids = []
        for lab in labels:
            if lab.class_name not in index:
                raise UnknownClass(lab.class_name)
            ids.append(index[lab.class_name])
        return ids, order
    order = []
    index = {}
    ids = []
    for lab in labels:
        if lab.class_name not in index:
            index[lab.class_name] = len(order)
            order.append(lab.class_name)
        ids.append(index[lab.class_name])
    return ids, order


def load_difficulty_order(path: str) -> list[str]:
    """One class name per line, easiest first."""
    return [line.strip() for line in read_text(path).split("\n") if line.strip()]
