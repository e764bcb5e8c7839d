"""Reference readers for the differential tests of the CSV readers.

These are the row-by-row csv-module loops that ``RunRecord.from_csv`` and
the ``identify`` data table used before numpy's C reader took over: one
``float()`` call per cell. Each returns the parsed columns or raises the
error the old reader raised (``ConfigError``, or ``csv.Error`` from the data
table loop, which did not catch it).
"""

import csv
import io

import numpy as np

from coldstart.errors import ConfigError
from coldstart.looplab import RECORD_COLUMNS


def reference_record(text: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """The series and events of a run record, read cell by cell."""
    reader = csv.reader(io.StringIO(text))
    columns: dict[str, list[float]] = {c: [] for c in RECORD_COLUMNS if c != "events"}
    events: list[str] = []
    try:
        header = next(reader, None)
        if header is None:
            raise ConfigError("run record CSV is empty")
        if tuple(header) != RECORD_COLUMNS:
            raise ConfigError("run record CSV does not have the expected columns")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(RECORD_COLUMNS):
                raise ConfigError(f"run record line {line_no} has {len(row)} fields")
            for name, cell in zip(RECORD_COLUMNS, row):
                if name == "events":
                    events.append(cell)
                else:
                    try:
                        columns[name].append(float(cell))
                    except ValueError:
                        raise ConfigError(
                            f"run record line {line_no}: column {name!r} is not a number"
                        ) from None
    except csv.Error as err:
        raise ConfigError(f"run record line {reader.line_num}: {err}") from None
    series = {name: np.asarray(vals, dtype=float) for name, vals in columns.items()}
    return series, events


def reference_data_table(text: str, path: str = "data.csv") -> dict[str, np.ndarray]:
    """The named columns of an ``identify`` data CSV, read cell by cell."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ConfigError(f"{path}: data CSV is empty")
    columns: dict[str, list[float]] = {name: [] for name in reader.fieldnames}
    for line_no, row in enumerate(reader, start=2):
        for name in reader.fieldnames:
            cell = row.get(name)
            if cell is None or cell == "":
                raise ConfigError(f"{path} line {line_no}: column {name!r} is empty")
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise ConfigError(
                    f"{path} line {line_no}: column {name!r} is not a number: {cell!r}"
                ) from None
    return {name: np.asarray(vals) for name, vals in columns.items()}
