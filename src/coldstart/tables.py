"""One reader for the numeric CSV inputs: the run record ``metrics`` replays,
the ``identify`` data and trajectory tables.

Each is a header line that names each column once, then rows that fill the
header; blank lines are skipped.  Every cell is a finite number that numpy's
C reader takes (the routine ``float()`` uses, without underscores or
non-ASCII digits), except in a named text column.  The body is read by one
``np.loadtxt`` call; where that refuses it, the text is re-read row by row,
once, to raise a ConfigError naming the first faulty line and column.
JSON inputs are decoded by ``json_value``, whose ConfigError names the input.
Every CSV field the program writes as text (the events of ``run.csv``,
every cell of ``sweep.csv``) is quoted by one rule, ``csv_field``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from typing import NoReturn

import numpy as np

from .errors import ConfigError

# any character other than a line end
_NON_BLANK = re.compile(r"[^\r\n]")
# characters that make a field need quoting
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with quotes doubled, when it holds
    a comma, a quote, CR or LF.  This is csv.writer's quoting, except that a
    bare CR is quoted too, so the csv reader can read the field back."""
    if not _CSV_SPECIAL.search(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def json_value(text: str, what: str) -> object:
    """The JSON value in ``text``; a ConfigError naming ``what`` when the
    text is not JSON, or holds an int of more digits than int() takes."""
    try:
        return json.loads(text)
    except ValueError as err:
        raise ConfigError(f"{what} is not valid JSON: {err}") from None


def csv_float(cell: str) -> float:
    """The number in one CSV cell, refusing what numpy's C reader refuses
    and ``float()`` takes: underscores and non-ASCII digits.  Both skip
    whitespace, Unicode or not, around the number."""
    number = cell.strip()
    if "_" in number or not number.isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(number)


def read_header(text: str, where: str) -> list[str]:
    """The column names on the first line of ``text``, each named once.
    ``where`` names the input in the ConfigError for any other header."""
    try:
        header = next(csv.reader(io.StringIO(text)), None)
    except csv.Error as err:
        raise ConfigError(f"{where} line 1: {err}") from None
    if not header:
        raise ConfigError(f"{where} line 1: header is empty")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ConfigError(f"{where} line 1: column {name!r} is named twice")
    return header


def read_body(
    text: str, where: str, header: list[str], text_column: str | None = None,
) -> tuple[np.ndarray, list[str]]:
    """The rows after the header line of ``text`` as one ``(rows, columns)``
    float table in ``header`` order, with no row when none holds data, and
    the cells of ``text_column``, if given (its table column holds 0.0).

    Every row must fill the header, and every number must be finite.
    Anything else is a ConfigError naming ``where`` and the first faulty line
    and column.
    """
    texts: list[str] = []
    converters = None
    if text_column is not None:

        def keep(cell: str) -> float:
            texts.append(cell)
            return 0.0

        converters = {header.index(text_column): keep}
    header_end = text.find("\n")
    if header_end < 0 or _NON_BLANK.search(text, header_end + 1) is None:
        return np.empty((0, len(header))), texts  # numpy warns on a body with no data
    try:
        table = np.loadtxt(
            io.StringIO(text), dtype=float, delimiter=",", quotechar='"', comments=None,
            skiprows=1, ndmin=2, encoding=None, converters=converters,
        )
    except ValueError as err:
        _locate_fault(text, where, header, text_column, str(err))
    if table.shape[1] != len(header) or not np.isfinite(table).all():
        _locate_fault(text, where, header, text_column, "body does not fit its header")
    return table, texts


def _locate_fault(
    text: str, where: str, header: list[str], text_column: str | None, reason: str
) -> NoReturn:
    """Raise the ConfigError for a body ``read_body`` refused, naming the
    first faulty line and column found by re-reading ``text`` row by row,
    or carrying ``reason`` when that finds none."""
    reader = csv.reader(io.StringIO(text))
    try:
        next(reader)
        for row in reader:
            if not row:
                continue  # skipped by the C reader too
            at = f"{where} line {reader.line_num}"
            if len(row) > len(header):
                raise ConfigError(
                    f"{at}: cell {len(header) + 1} is past the {len(header)} named columns"
                )
            if len(row) < len(header):
                raise ConfigError(f"{at}: the row ends before column {header[len(row)]!r}")
            for name, cell in zip(header, row):
                if name == text_column:
                    continue
                try:
                    value = csv_float(cell)
                except ValueError:
                    raise ConfigError(f"{at}: column {name!r} is not a number: {cell!r}") from None
                if not math.isfinite(value):
                    raise ConfigError(f"{at}: column {name!r} is not finite: {cell!r}")
    except csv.Error as err:
        raise ConfigError(f"{where} line {reader.line_num}: {err}") from None
    raise ConfigError(f"{where}: {reason}")
