"""Every input either runs or is refused: whatever its input files hold,
``coldstart.cli.main`` returns 0, 2, 3 or 4 and raises nothing.

Each example takes the valid input files of one subcommand, damages one of
them (a JSON value, a CSV cell or line, or one byte) and runs the command
in process. An input refused with exit 2 leaves no ``--out``, and is refused
before any controller step runs or any helper is forked, unless the record
of a finished run overflows its metrics. Warnings are errors in this suite,
so a stray numpy or ``math`` warning fails the property too. Runs are
short: the scenarios last 1 s on the shipped 20 ms grid, and no damage the
strategy can do lengthens them.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldstart import fanout
from coldstart.cli import main
from coldstart.dsmc import CascadeController
from coldstart.looplab import RECORD_COLUMNS, ScenarioConfig, run_scenario
from coldstart.trajectory import default_table
from lab_helpers import (
    default_coupling_matrix,
    from_gain_time_constant,
    simulate_first_order,
    tf_matrix_csv,
    trajectory_csv,
)

HUGE_INT = int("1" + "0" * 400)


@pytest.fixture(autouse=True)
def quiet_logs(monkeypatch):
    monkeypatch.setenv("COLDSTART_LOG", "quiet")


def identify_files() -> dict[str, str]:
    """A 2x2 identification experiment of 40 samples per input."""
    T = 0.02
    rng = np.random.default_rng(5)
    u = {"u1": rng.standard_normal(40), "u2": rng.standard_normal(40)}
    cols = dict(u)
    for (i, j), (gain, tc) in {
        (1, 1): (2.0, 0.5), (2, 1): (0.5, 1.0), (1, 2): (0.8, 0.25), (2, 2): (1.5, 0.7),
    }.items():
        cols[f"y{i}_{j}"] = simulate_first_order(from_gain_time_constant(gain, tc), u[f"u{j}"], T)
    data = ",".join(cols) + "\n" + "".join(
        ",".join(repr(float(cols[c][k])) for c in cols) + "\n" for k in range(40)
    )
    pairs = {
        "T": T,
        "experiments": [
            {"input": "u1", "outputs": ["y1_1", "y2_1"]},
            {"input": "u2", "outputs": ["y1_2", "y2_2"]},
        ],
    }
    return {"data.csv": data, "pairs.json": json.dumps(pairs)}


SHORT = ScenarioConfig(duration=1.0, metrics_window_start=0.5)
RUN = {"run.csv": run_scenario(SHORT).to_csv(), "config.json": SHORT.to_json()}
# the valid input files of each command, by name
VALID = {
    "rga-json": {"model.json": default_coupling_matrix().to_json()},
    "rga-csv": {"model.csv": tf_matrix_csv(default_coupling_matrix())},
    "identify": identify_files(),
    "simulate": {"traj.csv": trajectory_csv(default_table(SHORT.duration))},
    "metrics": {f"{run}/{name}": text for run in ("run", "base") for name, text in RUN.items()},
    "sweep": {
        "template.json": SHORT.to_json(),
        "grid.json": json.dumps({"phi_true.fuel": [0.5, 1.0], "T": [0.02]}),
    },
}


def argv(command: str, d: Path) -> list[str]:
    out = ["--out", str(d / "out")]
    return {
        "rga-json": ["rga", "--model", str(d / "model.json"), "--points", "5", *out],
        "rga-csv": ["rga", "--model", str(d / "model.csv"), "--points", "5", *out],
        "identify": ["identify", "--data", str(d / "data.csv"), "--pairs", str(d / "pairs.json"),
                     *out],
        "simulate": ["simulate", "--trajectory", str(d / "traj.csv"), "--override",
                     "duration=1.0", "--override", "metrics_window_start=0.5", *out],
        "metrics": ["metrics", "--run", str(d / "run/run.csv"), "--baseline",
                    str(d / "base/run.csv")],
        "sweep": ["sweep", "--template", str(d / "template.json"), "--grid",
                  str(d / "grid.json"), *out],
    }[command]


STRAY_JSON = [
    None, True, False, 0, -1, 0.5, 2, 1e308, -1e308, 1e-300, HUGE_INT, math.nan, math.inf,
    -math.inf, "x", "0.02", "", [], {}, [1.0], {"x": 1},
]
STRAY_CELLS = [
    "", "x", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "1_0",
    "١٢", '"', 'a"b', "a\rb", " 7 ", str(HUGE_INT),
]


def json_paths(value, path=()):
    """The path of ``value`` and of everything nested in it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from json_paths(item, (*path, key))


@st.composite
def damaged_json(draw, text: str) -> str:
    """``text`` with one value set to a stray one, or one key dropped or added."""
    root = json.loads(text)
    path = draw(st.sampled_from(list(json_paths(root))))
    stray = draw(st.sampled_from(STRAY_JSON))
    if not path:
        return json.dumps(stray)
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["set", "drop", "add"]))
    if action == "set":
        parent[path[-1]] = stray
    elif action == "drop":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["junk"] = stray
    else:
        parent.append(stray)
    return json.dumps(root)


@st.composite
def damaged_lines(draw, text: str) -> str:
    """``text`` with one cell replaced, dropped or added, one line dropped,
    repeated or blanked, or every cell of one column below the header set
    to one value."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(",")
    j = draw(st.integers(0, len(cells) - 1))
    stray = draw(st.sampled_from(STRAY_CELLS) | st.floats().map(repr))
    action = draw(st.sampled_from(
        ["cell", "drop-cell", "add-cell", "drop", "repeat", "blank", "column"]
    ))
    if action == "column":
        for k in range(1, len(lines)):
            row = lines[k].split(",")
            if len(row) > j:
                row[j] = stray
                lines[k] = ",".join(row)
        return "\n".join(lines)
    if action == "cell":
        cells[j] = stray
    elif action == "drop-cell":
        del cells[j]
    elif action == "add-cell":
        cells.insert(j, stray)
    lines[i:i + 1] = {
        "drop": [], "repeat": [lines[i]] * 2, "blank": [""],
    }.get(action, [",".join(cells)])
    return "\n".join(lines)


@st.composite
def damaged_bytes(draw, text: str) -> bytes:
    """``text`` as UTF-8 with one byte replaced or the tail cut off."""
    data = bytearray(text.encode("utf-8"))
    at = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        return bytes(data[:at])
    data[at] = draw(st.sampled_from(b'\xff\x00\r\n",{}[]0-e.'))
    return bytes(data)


@st.composite
def damaged_inputs(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    files = dict(VALID[command])
    name = draw(st.sampled_from(sorted(files)))
    text = files[name]
    kinds = [damaged_lines(text), damaged_bytes(text)]
    if name.endswith(".json"):
        kinds.append(damaged_json(text))
    files[name] = draw(st.one_of(kinds))
    return command, files


def run_main(command: str, files: dict[str, str | bytes]) -> tuple[int, str, bool]:
    """The exit code, the stderr and whether ``--out`` exists afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, content in files.items():
            path = d / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, str):
                content = content.encode("utf-8")
            path.write_bytes(content)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv(command, d))
        made_out = (d / "out").exists()
    return code, stderr.getvalue(), made_out


def with_file(command: str, name: str, content) -> tuple[str, dict]:
    """The valid files of ``command`` with ``name`` holding ``content``."""
    return command, {**VALID[command], name: content}


def with_cell(text: str, line: int, cell: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[line - 1].split(",")
    cells[cell] = value
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def template_with(**fields) -> str:
    return json.dumps({**SHORT.to_dict(), **fields})


def spec_with(T) -> str:
    return json.dumps({**json.loads(VALID["identify"]["pairs.json"]), "T": T})


RUN_CSV, TRAJ, DATA = RUN["run.csv"], VALID["simulate"]["traj.csv"], VALID["identify"]["data.csv"]
S1 = RECORD_COLUMNS.index("s1")
NOT_UTF8 = b'{"n": 1, "entries": [[{"tau": 1, "k": 1\xff}]]}'


# the stray inputs of the error contract, each once
@settings(max_examples=60, deadline=None)
@given(case=damaged_inputs())
@example(case=with_file("metrics", "run/config.json", "[]"))
@example(case=with_file("metrics", "run/config.json", '{"phi_true": "abc"}'))
@example(case=with_file("metrics", "run/config.json", '{"metrics_window_start": "x"}'))
@example(case=with_file("metrics", "run/config.json", '{"phi_true": {"fuel": 0}}'))
@example(case=with_file("metrics", "base/run.csv", with_cell(RUN_CSV, 3, S1, "x")))
@example(case=with_file("metrics", "run/run.csv", with_cell(RUN_CSV, 40, S1, "1e200")))
@example(case=with_file("metrics", "run/run.csv", RUN_CSV.split("\n")[0] + "\n"))
@example(case=with_file("sweep", "template.json", template_with(
    initial_state={**SHORT.to_dict()["initial_state"], "m_a": 1e200},
)))
@example(case=with_file("sweep", "grid.json", '{"initial_state.m_a": [0.004, 1e200]}'))
@example(case=with_file("sweep", "template.json", template_with(T=1e-300)))
@example(case=with_file("simulate", "traj.csv", with_cell(TRAJ, 3, 3, "1e308")))
@example(case=with_file("identify", "pairs.json", spec_with(True)))
@example(case=with_file("identify", "pairs.json", spec_with("0.02")))
@example(case=with_file("identify", "pairs.json", spec_with(1e308)))
@example(case=with_file("identify", "data.csv", with_cell(DATA, 6, 2, "1e200")))
@example(case=with_file("identify", "data.csv", "u1,u2,y1_1,y2_1,y1_2,y2_2\n" + "0,1,1,1,1,1\n" * 40))
@example(case=with_file("rga-csv", "model.csv", "row\n1\n"))
@example(case=with_file("rga-csv", "model.csv", "row,tau_1\n1,2\n"))
@example(case=with_file("rga-json", "model.json", NOT_UTF8))
def test_main_exits_0_2_3_or_4_and_raises_nothing(case):
    command, files = case
    step = mock.patch.object(
        CascadeController, "step", autospec=True, side_effect=CascadeController.step
    )
    fork = mock.patch.object(
        fanout.Stream, "_fork", autospec=True, side_effect=fanout.Stream._fork
    )
    with step as steps, fork as forks:
        code, stderr, made_out = run_main(command, files)
    assert code in (0, 2, 3, 4), stderr
    if code in (2, 3):
        assert stderr.startswith("error: ")
    if code == 2:
        assert not made_out, stderr
        # the one refusal that can only follow a run: its record overflows the metrics
        if not stderr.startswith("error: run record values overflow its metrics: "):
            assert (steps.call_count, forks.call_count) == (0, 0), stderr
