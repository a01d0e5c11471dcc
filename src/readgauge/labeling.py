"""Conversion of raw corpus class labels into model targets."""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import MalformedRow, UnknownClass
from .inputs import read_text


def as_classes(
    names: Sequence[str],
    ordering: Optional[Sequence[str]] = None,
) -> tuple[list[int], list[str]]:
    """Map class names to ids, by ordering file (else ``UnknownClass``) or first-seen order."""
    order = list(ordering) if ordering is not None else list(dict.fromkeys(names))
    index = {name: i for i, name in enumerate(order)}
    for name in names:
        if name not in index:
            raise UnknownClass(f"class {name!r} is not in the difficulty order")
    return [index[name] for name in names], order


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
