"""Differential checks of the table readers against the row-by-row loops
they replaced (``reference_readers``): the run record read by ``metrics``,
the ``identify`` data table and the trajectory table.

Where both readers accept a table, the columns must match bit for bit. Every
refusal must be a ``ConfigError``. The readers now skip blank lines, so a
table is also compared with the reference's reading of the same text with
its blank lines taken out; apart from those, the new readers accept nothing
the reference refuses.
"""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldstart import cli
from coldstart.errors import ConfigError
from coldstart.looplab import RECORD_COLUMNS, RunRecord
from coldstart.trajectory import COLUMNS as TRAJECTORY_COLUMNS
from coldstart.trajectory import TrajectoryTable
from reference_readers import reference_data_table, reference_record, reference_trajectory

SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 1.7976931348623157e308,
]


@st.composite
def decimals_25(draw):
    """A 25-digit decimal, its point anywhere and a wide exponent."""
    digits = str(draw(st.integers(0, 10**25 - 1))).zfill(25)
    point = draw(st.integers(0, 25))
    sign = draw(st.sampled_from(["", "-", "+"]))
    return f"{sign}{digits[:point]}.{digits[point:]}e{draw(st.integers(-340, 320))}"


finite_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([repr(v) for v in SPECIAL_FLOATS if math.isfinite(v)]),
    decimals_25(),
)
positive_numbers = finite_numbers.filter(lambda s: 0.0 < float(s) < math.inf)
numbers = st.one_of(
    finite_numbers,
    st.floats().map(repr),
    st.sampled_from([repr(v) for v in SPECIAL_FLOATS] + ["-nan", "+inf", "Infinity", "1e999"]),
)


def written_as(text_of_number):
    """The number as written in a cell: plain, quoted or padded with spaces."""
    return st.one_of(
        text_of_number,
        text_of_number.map(lambda s: f'"{s}"'),
        st.tuples(st.sampled_from([" ", "\t", "  "]), text_of_number).map(
            lambda t: f"{t[0]}{t[1]}{t[0]}"
        ),
    )


# cells either reader may refuse: underscores, empty, non-ASCII digits, words
ODD_CELLS = ["1_0", "2_5e-3", "", " ", "١٢", "１", "१.5", "x", "0x10", '""']
EVENT_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n; '), st.characters()), max_size=8)


def csv_text(draw, header: list[str], rows: list[list[str]]) -> tuple[str, str]:
    """``rows`` under ``header`` as CSV text with LF or CRLF line ends, with
    and without blank lines drawn between (and after) the rows."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    blanks = draw(st.lists(st.integers(1, len(lines)), max_size=3))
    with_blanks = list(lines)
    for at in sorted(blanks, reverse=True):
        with_blanks.insert(at, "")
    last = draw(st.sampled_from([end, ""]))
    return end.join(with_blanks) + last, end.join(lines) + last


@st.composite
def tables(draw, n_columns: int, cells, odd_cells):
    """Rows of ``n_columns`` cells cycled from a short drawn pool, so each
    example stays cheap, with at most one odd cell and at most one row one
    cell short or long."""
    n = draw(st.integers(0, 5))
    pool = draw(st.lists(cells, min_size=1, max_size=6))
    start = draw(st.integers(0, len(pool) - 1))
    rows = [
        [pool[(start + r * n_columns + c) % len(pool)] for c in range(n_columns)]
        for r in range(n)
    ]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n_columns - 1))] = draw(odd_cells)
    if n and draw(st.integers(0, 7)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(cells))
    return rows


def quoted_event(text: str) -> str:
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def record_texts(draw):
    rows = draw(tables(len(RECORD_COLUMNS) - 1, written_as(numbers), st.sampled_from(ODD_CELLS)))
    for row in rows:
        row.append(quoted_event(draw(EVENT_TEXT)))
    return csv_text(draw, list(RECORD_COLUMNS), rows)


@st.composite
def data_texts(draw):
    header = draw(st.lists(st.sampled_from(["u1", "u2", "y1_1", "y2_1"]), min_size=1, unique=True))
    odd = st.sampled_from(ODD_CELLS + ["nan", "-inf", "1e999", "\"nan\""])
    rows = draw(tables(len(header), written_as(finite_numbers), odd))
    return csv_text(draw, header, rows)


@st.composite
def trajectory_texts(draw):
    """The four columns in any order, at times 0, 1, 2, ... and positive
    numbers elsewhere, so that the reference accepts many; sometimes with a
    fifth column, extra or repeating one."""
    header = list(draw(st.permutations(TRAJECTORY_COLUMNS)))
    header += draw(st.lists(st.sampled_from(["note", "time", "afr_d"]), max_size=1))
    odd = st.sampled_from(ODD_CELLS + ["nan", "-inf", "1e999", "note"])
    rows = draw(tables(len(header), written_as(positive_numbers), odd))
    at = header.index("time")
    for r, row in enumerate(rows):
        if at < len(row) and draw(st.integers(0, 15)):
            row[at] = str(r)
    return csv_text(draw, header, rows)


def assert_bits_equal(got: np.ndarray, want: np.ndarray, name: str) -> None:
    # the raw 64-bit patterns, so signed zeros and NaN signs count
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, name
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), name


def refused(read, text):
    """``read(text)``, or None where it refuses with ConfigError."""
    try:
        return read(text)
    except ConfigError:
        return None


@settings(max_examples=200, deadline=None)
@given(texts=record_texts())
def test_record_reader_matches_the_reference_reader(texts):
    text, compact = texts
    got = refused(RunRecord.from_csv, text)
    if got is None:
        return
    # a blank line is the only text the reference refuses and this accepts
    want = refused(reference_record, compact)
    assert want is not None, "accepted a record the reference refuses"
    series, events = want
    assert got.events == events
    for name in series:
        assert_bits_equal(got.series[name], series[name], name)
        # a view of the one table; a table of no rows holds no memory to share
        assert np.shares_memory(got.series[name], got.table) or not len(got), name


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("data") / "exp.csv"


def read_data_file(path):
    def read(text):
        path.write_text(text, encoding="utf-8", newline="")
        return cli._read_data_table(str(path))

    return read


def reference_data(text):
    try:
        return reference_data_table(text)
    except csv.Error:
        return None  # the old loop let the csv module's error escape


@settings(max_examples=200, deadline=None)
@given(texts=data_texts())
def test_data_table_reader_matches_the_reference_reader(data_path, texts):
    text, compact = texts
    got = refused(read_data_file(data_path), text)
    if got is None:
        return
    want = refused(reference_data, compact)
    assert want is not None, "accepted a data table the reference refuses"
    assert list(got) == list(want)
    for name in want:
        assert_bits_equal(got[name], want[name], name)


@settings(max_examples=200, deadline=None)
@given(texts=trajectory_texts())
def test_trajectory_reader_matches_the_reference_reader(texts):
    text, compact = texts
    got = refused(TrajectoryTable.from_csv, text)
    if got is None:
        return
    want = refused(reference_trajectory, compact)
    assert want is not None, "accepted a trajectory the reference refuses"
    for name in TRAJECTORY_COLUMNS:
        assert_bits_equal(getattr(got, name), getattr(want, name), name)


def test_header_only_files_emit_no_warning(tmp_path):
    header = ",".join(RECORD_COLUMNS)
    data = tmp_path / "exp.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in (header, header + "\n", header + "\r\n\n\r\n"):
            record = RunRecord.from_csv(text)
            assert len(record) == 0 and record.series["time"].shape == (0,)
            data.write_text(text.replace(header, "u1,y1_1"), encoding="utf-8", newline="")
            with pytest.raises(ConfigError, match="no data rows"):
                cli._read_data_table(str(data))
