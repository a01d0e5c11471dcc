"""How an input file becomes text and CSV rows, and how an output file is written.

Every file the toolkit reads goes through ``read_text`` or ``csv_rows``, so a
missing file, bytes that are not UTF-8 and a CSV the ``csv`` module rejects
all end in a ``ReadgaugeError`` naming the file, never in a traceback. Every
output file goes through ``write_atomic``, so a path that cannot be written
ends in ``BadOutput`` and never in a partial file. A CSV field is checked by
``text_field``, ``number_field`` or ``count_field``, and a word table's rows
come from ``word_rows``, so each of their rules raises or warns in one place.
A number, in a CSV field, a grammar or on the command line, passes
``ascii_numeral``, and ``ascii_int`` reads the integers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import os
import unicodedata
from typing import Callable, Optional, TextIO

from .errors import BadEncoding, BadOutput, MalformedRow, MissingFile

log = logging.getLogger(__name__)


def _decode(path: str, newline: Optional[str]) -> str:
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise MissingFile(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{path}: byte {exc.start}: {exc.reason}") from None


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``, with ``\\r\\n`` and ``\\r`` read as ``\\n``."""
    return _decode(path, None)


def write_atomic(path: str, write: Callable[[TextIO], None]) -> str:
    """Create ``path``'s directory, let ``write`` fill a UTF-8 temporary file
    opened with ``newline=""``, then rename it to ``path``; returns ``path``.

    Any ``OSError`` removes the temporary file and raises ``BadOutput``.
    """
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise BadOutput(f"cannot write {path}: {exc}") from None
    return path


def csv_rows(path: str, width: Optional[int] = None) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Stripped header and non-blank rows of a UTF-8 CSV, each row with its number (the header is row 1).

    Every row must have ``width`` fields, or as many as the header when
    ``width`` is None. An empty file, a header that names a column twice, a
    row of another width and anything the ``csv`` module rejects raise
    ``MalformedRow``.
    """
    reader = csv.reader(io.StringIO(_decode(path, ""), newline=""))
    rows: list[tuple[int, list[str]]] = []
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow(f"{path}: empty file, header required")
        header = [c.strip() for c in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise MalformedRow(f"{path}: header names column {name!r} twice")
        expected = len(header) if width is None else width
        for rownum, row in enumerate(reader, start=2):
            if not any(c.strip() for c in row):
                continue
            if len(row) != expected:
                raise MalformedRow(f"{path}: row {rownum} has {len(row)} fields, expected {expected}")
            rows.append((rownum, row))
    except csv.Error as exc:
        raise MalformedRow(f"{path}: line {reader.line_num}: {exc}") from None
    return header, rows


def text_field(path: str, rownum: int, column: str, raw: str) -> str:
    """``raw`` stripped, else ``MalformedRow`` naming the file, the row and the column."""
    value = raw.strip()
    if not value:
        raise MalformedRow(f"{path}: row {rownum}: empty {column}")
    return value


def ascii_numeral(raw: str) -> str:
    """``raw`` if it is ASCII without ``_``, else ``ValueError``: ``int()`` and
    ``float()`` also read digit groups (``1_6``) and any Unicode decimal digit
    (``١٦``), and no number readgauge reads may hold either."""
    if raw.isascii() and "_" not in raw:
        return raw
    raise ValueError(f"not an ASCII numeral: {raw!r}")


def ascii_int(raw: str) -> int:
    """``raw`` as ``int()`` reads it, sign and surrounding blanks included, if
    it is ASCII without ``_``; else ``ValueError``."""
    return int(ascii_numeral(raw))


def number_field(path: str, rownum: int, column: str, raw: str) -> float:
    """``raw``, ASCII without ``_``, as a finite float, else ``MalformedRow`` naming the file, row and column."""
    try:
        value = float(ascii_numeral(raw))
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise MalformedRow(f"{path}: row {rownum}: {column} {raw!r} is not a finite number")


def count_field(path: str, rownum: int, column: str, raw: str) -> int:
    """``raw`` as an ``ascii_int`` >= 0, else ``MalformedRow`` naming the file, row and column."""
    try:
        value = ascii_int(raw)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise MalformedRow(f"{path}: row {rownum}: {column} {raw!r} is not a non-negative integer")


def word_rows(path: str, width: Optional[int] = None) -> tuple[list[str], list[tuple[int, str, list[str]]]]:
    """``csv_rows`` of a table keyed by its first column, a word: rows as ``(rownum, word, rest)``.

    The header's first column must be named ``word``, so a file without a
    header cannot lose its first row; otherwise ``MalformedRow``. The word is
    stripped, NFC-normalized like document text and lowercased; an empty one
    raises ``MalformedRow`` naming the file and the row. A word that repeats
    logs one warning per repeated row, and the caller's last row wins.
    """
    header, rows = csv_rows(path, width)
    if not header or header[0].lower() != "word":
        raise MalformedRow(f"{path}: first header column must be 'word'")
    keyed = []
    seen: set[str] = set()
    for rownum, row in rows:
        word = unicodedata.normalize("NFC", text_field(path, rownum, "word", row[0])).lower()
        if word in seen:
            log.warning("duplicate word %r in %s (row %d), last wins", word, path, rownum)
        seen.add(word)
        keyed.append((rownum, word, row[1:]))
    return header, keyed
