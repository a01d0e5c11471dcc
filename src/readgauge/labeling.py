"""Conversion of raw corpus class labels into model targets."""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import MalformedRow, UnknownClass
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
    """One class name per line, easiest first; a name may appear only once."""
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        name = line.strip()
        if name in first_line:
            raise MalformedRow(f"{path}: line {lineno}: class {name!r} repeats line {first_line[name]}")
        if name:
            first_line[name] = lineno
    return list(first_line)
