"""Reference readers for the differential tests of the CSV readers.

These are the row-by-row csv-module loops that ``RunRecord.from_csv``, the
``identify`` data table and ``TrajectoryTable.from_csv`` used before numpy's
C reader took over: one ``float()`` call per cell. Each returns what the old
reader returned or raises the error it raised (``ConfigError``, or
``csv.Error`` from the data table loop, which did not catch it).
"""

import csv
import io

import numpy as np

from coldstart.errors import ConfigError
from coldstart.looplab import RECORD_COLUMNS
from coldstart.trajectory import COLUMNS as TRAJECTORY_COLUMNS
from coldstart.trajectory import TrajectoryTable


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


def reference_trajectory(text: str) -> TrajectoryTable:
    """A trajectory table, read cell by cell."""
    reader = csv.DictReader(io.StringIO(text))
    cols: dict[str, list[float]] = {c: [] for c in TRAJECTORY_COLUMNS}
    try:
        header = reader.fieldnames or []
        missing = [c for c in TRAJECTORY_COLUMNS if c not in header]
        if missing:
            raise ConfigError(f"trajectory file is missing column(s) {missing}")
        for row in reader:
            for c in TRAJECTORY_COLUMNS:
                try:
                    cols[c].append(float(row[c]))
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"trajectory line {reader.reader.line_num}: "
                        f"column {c!r} is not a number: {row[c]!r}"
                    ) from None
    except csv.Error as err:
        raise ConfigError(f"trajectory line {reader.reader.line_num}: {err}") from None
    return TrajectoryTable(
        time=tuple(cols["time"]),
        afr_d=tuple(cols["afr_d"]),
        omega_d=tuple(cols["omega_d"]),
        t_exh_d=tuple(cols["t_exh_d"]),
    )
