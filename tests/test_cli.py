"""End-to-end command checks: files, exit codes, stdout, determinism."""

import builtins
import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import coldstart
from coldstart import cli, dsmc, fanout, looplab, rga
from coldstart.cli import main
from coldstart.looplab import PhiTrue, RunRecord, ScenarioConfig
from coldstart.trajectory import TrajectoryTable
from lab_helpers import (
    default_coupling_matrix,
    from_gain_time_constant,
    kill_first_helper_mid_block,
    log_block_pids,
    simulate_first_order,
    tf_matrix_csv,
    wait_for,
)


@pytest.fixture(autouse=True)
def quiet_logs(monkeypatch):
    monkeypatch.setenv("COLDSTART_LOG", "quiet")


def write_short_config(path, **overrides):
    cfg = ScenarioConfig(duration=2.0, metrics_window_start=1.0, **overrides)
    path.write_text(cfg.to_json(), encoding="utf-8")
    return cfg


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_the_artifact_set(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_short_config(cfg_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--plots"])
    assert code == 0
    for name in (
        "run.csv", "metrics.txt", "config.json",
        "tracking.svg", "estimates.svg", "hc_rates.svg", "hc_cumulative.svg", "eta_cat.svg",
    ):
        assert (out / name).exists(), name
    # stdout repeats the metrics file
    assert capsys.readouterr().out == (out / "metrics.txt").read_text(encoding="utf-8")
    # every SVG is well-formed XML
    for name in ("tracking.svg", "estimates.svg", "eta_cat.svg"):
        ET.fromstring((out / name).read_text(encoding="utf-8"))
    record = RunRecord.from_csv((out / "run.csv").read_text(encoding="utf-8"))
    assert len(record) == 101
    assert np.all(np.diff(record.series["hc_cum"]) >= 0.0)


def test_simulate_is_byte_identical_on_reruns(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_short_config(cfg_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("run.csv", "metrics.txt", "config.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_simulate_overrides_are_echoed_into_the_config_artifact(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "simulate", "--out", str(out),
            "--override", "duration=1.0",
            "--override", "metrics_window_start=0.5",
            "--override", "phi_true.fuel=0.5",
            "--override", "adaptation_enabled=false",
        ]
    )
    assert code == 0
    echoed = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert echoed["phi_true"]["fuel"] == 0.5
    assert echoed["adaptation_enabled"] is False
    text = (out / "metrics.txt").read_text(encoding="utf-8")
    assert "removal_ratio_overall = absent" in text


# the attributes of a chart element that hold coordinates
SVG_COORDINATES = ("points", "x", "y", "x1", "x2", "y1", "y2")


def assert_finite_chart(path) -> int:
    """Check that the SVG at ``path`` parses and that no coordinate is NaN
    or infinite; the number of its polylines."""
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    for element in root.iter():
        for name in SVG_COORDINATES:
            value = element.get(name, "").lower()
            assert "nan" not in value and "inf" not in value, (path.name, element.tag, name)
    return sum(1 for element in root.iter() if element.tag.endswith("polyline"))


def test_simulate_duration_zero_single_row(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "simulate", "--out", str(out), "--plots",
            "--override", "duration=0.0",
            "--override", "metrics_window_start=0.0",
        ]
    )
    assert code == 0
    rows = (out / "run.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 2  # header plus the single initial sample
    # one time and a constant series: both chart axes are degenerate
    for name in ("tracking.svg", "estimates.svg", "hc_rates.svg", "hc_cumulative.svg", "eta_cat.svg"):
        assert 1 <= assert_finite_chart(out / name) <= 4, name


def test_simulate_trajectory_file_replaces_the_table(tmp_path):
    traj = tmp_path / "traj.csv"
    traj.write_text(
        "time,afr_d,omega_d,t_exh_d\n"
        "0.0,12.5,125.0,650.0\n"
        "30.0,14.0,110.0,650.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(
        [
            "simulate", "--out", str(out), "--trajectory", str(traj),
            "--override", "duration=1.0",
            "--override", "metrics_window_start=0.5",
        ]
    )
    assert code == 0
    echoed = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert echoed["trajectory"]["omega_d"] == [125.0, 110.0]


def test_a_trajectory_is_sampled_only_for_a_run(tmp_path, monkeypatch):
    sampled = []
    sample = TrajectoryTable.sample
    monkeypatch.setattr(
        TrajectoryTable, "sample", lambda self, *grid: sampled.append(grid) or sample(self, *grid)
    )
    ScenarioConfig()
    assert sampled == []
    traj = tmp_path / "traj.csv"
    traj.write_text(
        "time,afr_d,omega_d,t_exh_d\n0.0,12.5,125.0,650.0\n30.0,14.0,110.0,650.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = [
        "simulate", "--out", str(out), "--trajectory", str(traj),
        "--override", "duration=1.0", "--override", "metrics_window_start=0.5",
    ]
    assert main(argv) == 0
    assert sampled == [(0.02, 1.0)]
    assert main(["metrics", "--run", str(out / "run.csv")]) == 0  # echoes its config.json
    assert sampled == [(0.02, 1.0)]


def test_simulate_trajectory_too_short_for_the_run_names_the_file(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    traj.write_text(
        "time,afr_d,omega_d,t_exh_d\n0.0,12.5,125.0,650.0\n0.5,14.0,110.0,650.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = ["simulate", "--out", str(out), "--trajectory", str(traj), "--override", "duration=1.0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {traj}: trajectory ends at 0.5 s but must cover 1.02 s "
        "(duration plus one sample)\n"
    )
    assert not out.exists()


def test_simulate_trajectory_with_bare_cr_line_ends_exits_2(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    traj.write_bytes(b"time,afr_d,omega_d,t_exh_d\r0.0,12.5,125.0,650.0\r30.0,14.0,110.0,650.0\r")
    assert main(["simulate", "--out", str(tmp_path / "out"), "--trajectory", str(traj)]) == 2
    assert f"error: {traj}: trajectory line 1: new-line character" in capsys.readouterr().err


def test_simulate_validation_failures_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--override", "nope=1"]) == 2
    assert "config has unknown key(s) ['nope']" in capsys.readouterr().err
    assert main(["simulate", "--out", str(out), "--override", "T=-1"]) == 2
    capsys.readouterr()
    assert main(["simulate", "--out", str(out), "--override", "duration=1.01"]) == 2
    assert capsys.readouterr().err == (
        "error: duration 1.01 is not an integer number of 0.02 s samples\n"
    )
    assert main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == 2


@pytest.mark.parametrize("value", ["False", "off", "0", "null"])
def test_simulate_non_boolean_switch_exits_2(tmp_path, capsys, value):
    out = tmp_path / "out"
    argv = ["simulate", "--out", str(out), "--override", f"adaptation_enabled={value}"]
    assert main(argv) == 2
    assert "adaptation_enabled must be true or false" in capsys.readouterr().err
    assert not (out / "run.csv").exists()


# a JSON integer too large for a float: json reads it exactly, float() overflows
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "path, value, refusal",
    [
        pytest.param("T", HUGE_INT, "a finite number", id="T"),
        pytest.param("quant_bits", HUGE_INT, "a finite number", id="quant_bits"),
        pytest.param("phi_true.fuel", HUGE_INT, "a finite number", id="phi_true.fuel"),
        pytest.param("initial_state.t_cat", HUGE_INT, "a finite number", id="initial_state.t_cat"),
        # more digits than int() converts: taken as a string, like any non-JSON value
        pytest.param("T", "1" + "0" * 5000, "a number", id="T-past-the-int-digit-limit"),
    ],
)
def test_simulate_int_too_large_for_a_float_exits_2(tmp_path, capsys, path, value, refusal):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--override", f"{path}={value}"]) == 2
    assert f"error: {path} must be {refusal}, got " in capsys.readouterr().err
    assert not (out / "run.csv").exists()


def test_simulate_config_file_with_an_int_past_the_digit_limit_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"T": 1' + "0" * 5000 + "}", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {cfg_path}: config is not valid JSON: Exceeds the limit" in (
        capsys.readouterr().err
    )


def test_simulate_override_of_a_key_the_default_echo_leaves_out(tmp_path):
    out = tmp_path / "out"
    argv = [
        "simulate", "--out", str(out), "--override", "constants.J=0.2",
        "--override", "duration=2.0", "--override", "metrics_window_start=1.0",
    ]
    assert main(argv) == 0
    assert json.loads((out / "config.json").read_text(encoding="utf-8"))["constants"] == {"J": 0.2}


def test_a_partial_config_takes_an_override_of_a_field_it_omits(tmp_path):
    cfg_path = tmp_path / "partial.json"
    cfg_path.write_text('{"duration": 2.0, "metrics_window_start": 1.0}', encoding="utf-8")
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg_path), "--out", str(out), "--override", "substeps=2"]
    assert main(argv) == 0
    assert json.loads((out / "config.json").read_text(encoding="utf-8"))["substeps"] == 2


def test_simulate_runtime_abort_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "stall.json"
    cfg = ScenarioConfig(duration=2.0, metrics_window_start=1.0, quantization_enabled=False)
    data = cfg.to_dict()
    data["bounds"]["mdot_ai"] = [0.0, 1e-9]  # pinched air path: engine must stall
    data["initial_state"]["m_a"] = 1e-5
    data["initial_state"]["omega_e"] = 80.0
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "stalled" in err and "step" in err


def test_simulate_air_mass_whose_afr_overflows_aborts_with_exit_3(tmp_path, capsys):
    state = '{"m_a": 1e200, "omega_e": 125.0, "mdot_f": 7.7e-4, "t_cat": 25.0, "t_exh": 25.0}'
    out = tmp_path / "out"
    argv = ["simulate", "--out", str(out), "--override", f"initial_state={state}"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: runtime abort: step 0: plant: AFR -inf ")
    assert not (out / "run.csv").exists()


@pytest.mark.parametrize("T", ["1e-300", "1e-15"])
def test_simulate_past_max_steps_exits_2_before_running(tmp_path, capsys, T):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--override", f"T={T}"]) == 2
    steps = 40.0 / float(T)
    assert capsys.readouterr().err == (
        f"error: duration / T must be at most {looplab.MAX_STEPS} steps, got {steps!r}\n"
    )
    assert not out.exists()


def test_simulate_whose_surfaces_overflow_the_metrics_exits_2(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    traj.write_text(
        "time,afr_d,omega_d,t_exh_d\n0.0,12.5,125.0,650.0\n1.5,12.665,167.0,1e308\n"
        "26.0,14.7,100.0,650.0\n",
        encoding="utf-8",
    )
    argv = [
        "simulate", "--out", str(tmp_path / "out"), "--trajectory", str(traj),
        "--override", "duration=1.0", "--override", "metrics_window_start=0.5",
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: run record values overflow its metrics: ")
    assert not (tmp_path / "out").exists()


def test_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"n": 1, "entries": [[{"tau": 1.0, "k": 1\xff}]]}')
    assert main(["rga", "--model", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text: ")


def test_main_lets_a_value_error_of_the_program_escape(tmp_path, monkeypatch):
    # only ColdstartError and OSError are refused input; anything else is a bug
    def broken(args):
        raise ValueError("math domain error")

    monkeypatch.setattr(cli, "cmd_metrics", broken)
    with pytest.raises(ValueError, match="math domain error"):
        main(["metrics", "--run", str(tmp_path / "run.csv")])


def test_simulate_matches_the_benchmark_reference_digests(tmp_path):
    refs = json.loads(
        (Path(__file__).parents[1] / "bench" / "refs" / "references.json").read_text(
            encoding="utf-8"
        )
    )["cold_start"]
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 0
    for name in ("run.csv", "metrics.txt"):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == refs[name], name


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_simulate_digests_hold_on_any_cpu_count(tmp_path, monkeypatch, cpus):
    refs = json.loads(
        (Path(__file__).parents[1] / "bench" / "refs" / "references.json").read_text(
            encoding="utf-8"
        )
    )["cold_start"]
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    pids = tmp_path / "pids"
    log_block_pids(monkeypatch, RunRecord, pids, caller_waits=cpus == 4)
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 0
    for name in ("run.csv", "metrics.txt"):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == refs[name], name
    assert_block_pids(pids, cpus, 2001)


def assert_block_pids(pids, cpus, n_rows):
    """The ``n_rows`` rows are split into blocks of ``fanout.BLOCK_ROWS``
    rows, each formatted once; only this process formats them on one CPU,
    and helpers did too on four."""
    runs = pids.read_text(encoding="utf-8").split()
    assert len(runs) == -(-n_rows // fanout.BLOCK_ROWS)
    if cpus == 1:
        assert set(runs) == {str(os.getpid())}
    if cpus == 4:
        assert len(set(runs)) > 1
    assert not multiprocessing.active_children()


def test_simulate_digests_hold_when_the_stream_helper_dies_mid_block(tmp_path, monkeypatch):
    refs = json.loads(
        (Path(__file__).parents[1] / "bench" / "refs" / "references.json").read_text(
            encoding="utf-8"
        )
    )["cold_start"]
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    kill_first_helper_mid_block(monkeypatch, RunRecord, tmp_path / "died")
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 0
    assert (tmp_path / "died").exists()
    for name in ("run.csv", "metrics.txt"):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == refs[name], name
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("cpus", [1, 2])
def test_simulate_abort_mid_run_exits_3_and_writes_no_record(tmp_path, monkeypatch, capsys, cpus):
    """The fuel law goes NaN at step 1000, after the loop has handed three
    blocks to the stream; its helper is stopped with the run."""
    real = dsmc.control_law
    calls = []

    def nan_from_step_1000(*args):
        value = real(*args)
        if args[-1].rho != dsmc.RHO_DEFAULTS["fuel"]:
            return value
        calls.append(None)
        return math.nan if len(calls) > 1000 else value

    monkeypatch.setattr(dsmc, "control_law", nan_from_step_1000)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: runtime abort: step 1000: controller: command is NaN; "
        "cannot saturate to (0.0, 0.01)\n"
    )
    assert not out.exists()
    assert not multiprocessing.active_children()


def test_simulate_out_naming_a_file_exits_2_with_the_path(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    assert main(["simulate", "--out", str(out), "--override", "duration=6.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert out.read_text(encoding="utf-8") == "not a directory\n"
    assert not multiprocessing.active_children()


def count_controller_steps(monkeypatch) -> list:
    """A list that grows by one at each controller step of this process."""
    steps = []
    inner = dsmc.CascadeController.step

    def step(self, *args, **kwargs):
        steps.append(None)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(dsmc.CascadeController, "step", step)
    return steps


def out_argv(tmp_path, subcommand) -> list[str]:
    """The arguments of a ``subcommand`` run that would succeed, but for --out."""
    if subcommand == "simulate":
        return ["simulate", "--override", "duration=6.0"]
    if subcommand == "sweep":
        template, grid = write_mixed_sweep(tmp_path)
        return sweep_argv(template, grid, tmp_path / "unused")[:-2]
    if subcommand == "rga":
        return ["rga", "--model", str(diag_model(tmp_path)), "--points", "2000"]
    data, pairs, _ = write_ident_fixture(tmp_path)
    return ["identify", "--data", str(data), "--pairs", str(pairs)]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("subcommand", ["simulate", "sweep", "rga", "identify"])
def test_an_out_that_cannot_be_a_directory_is_refused_before_any_work(
    tmp_path, monkeypatch, capsys, subcommand, below
):
    argv = out_argv(tmp_path, subcommand)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    steps = count_controller_steps(monkeypatch)
    forks = []
    fork = fanout.Stream._fork
    monkeypatch.setattr(fanout.Stream, "_fork", lambda *args: forks.append(fork(*args)))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = taken / "run" if below else taken
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {out}: {taken} is not a directory\n"
    assert (steps, forks) == ([], [])
    assert taken.read_text(encoding="utf-8") == "not a directory\n"
    assert not multiprocessing.active_children()


# the files each command names, in the order it writes them
ARTIFACTS = {
    "simulate": [
        "run.csv", "metrics.txt", "config.json",
        "tracking.svg", "estimates.svg", "hc_rates.svg", "hc_cumulative.svg", "eta_cat.svg",
    ],
    "rga": ["rga.csv", "rga.svg"],
    "identify": ["model.json", "report.txt"],
    "sweep": ["sweep.csv"],
}


@pytest.mark.parametrize("subcommand", list(ARTIFACTS))
def test_each_command_writes_exactly_the_artifacts_it_names(tmp_path, monkeypatch, subcommand):
    argv = out_argv(tmp_path, subcommand)
    if subcommand in ("simulate", "rga"):
        argv.append("--plots")
    out = tmp_path / "out"
    calls, opened = [], []
    write = cli._write

    def spy(path, artifacts):
        calls.append((path, list(artifacts)))
        return write(path, artifacts)

    def recording(inner):
        def open_file(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                opened.append(Path(file))
            return inner(file, mode, *args, **kwargs)

        return open_file

    def refuse(*args, **kwargs):
        raise AssertionError("a file written outside cli._write")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write", spy)
        patch.setattr(Path, "write_text", refuse)
        patch.setattr(Path, "write_bytes", refuse)
        patch.setattr(io, "open", recording(io.open))
        patch.setattr(builtins, "open", recording(builtins.open))
        assert main([*argv, "--out", str(out)]) == (4 if subcommand == "sweep" else 0)
    assert calls == [(str(out), ARTIFACTS[subcommand])]
    assert sorted(os.listdir(out)) == sorted(ARTIFACTS[subcommand])
    assert opened == [out / f"{name}.tmp" for name in ARTIFACTS[subcommand]]


def test_a_write_cut_by_the_file_size_limit_exits_2_naming_its_file(tmp_path):
    resource = pytest.importorskip("resource")

    def limit_file_size():  # runs in the child, after the fork: the limit is the child's own
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, hard))

    src = str(Path(coldstart.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "coldstart.cli", "simulate", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_file_size,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(out / 'run.csv')!r}\n"
    )


def test_a_write_cut_by_the_file_size_limit_leaves_the_old_run_whole(tmp_path):
    """Each artifact is moved onto its name only once it is whole, and
    run.csv comes first, so a cut run.csv leaves the run already in
    ``--out`` as it was, and no tmp file."""
    resource = pytest.importorskip("resource")

    def limit_file_size():  # in the child, as in the test above
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, hard))

    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--override", "duration=10.0"]) == 0
    old = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert sorted(old) == ["config.json", "metrics.txt", "run.csv"]
    src = str(Path(coldstart.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coldstart.cli", "simulate", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_file_size,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(out / 'run.csv')!r}\n"
    )
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == old
    assert not list(out.glob("*.tmp"))
    assert not multiprocessing.active_children()


def test_simulate_refuses_an_empty_metrics_window_before_it_steps(tmp_path, monkeypatch, capsys):
    steps = count_controller_steps(monkeypatch)
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--override", "duration=4.0"]) == 2
    assert capsys.readouterr().err == (
        "error: metrics window starting at 5.0 s is empty for a 4.0 s record\n"
    )
    assert steps == []
    assert not out.exists()
    assert not multiprocessing.active_children()


def test_sweep_cell_with_an_empty_metrics_window_fails_alone_before_it_steps(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)  # every step in this process
    steps = count_controller_steps(monkeypatch)
    template = tmp_path / "template.json"
    write_short_config(template)  # a 1 s metrics window start
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"duration": [0.5, 2.0]}))
    out = tmp_path / "out"
    assert main(sweep_argv(template, grid, out)) == 4
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))
    assert [row[-1] for row in rows[1:]] == [
        "metrics window starting at 1.0 s is empty for a 0.5 s record", ""
    ]
    assert len(steps) == 100  # the 2 s cell's, and none of the 0.5 s cell's


def test_log_level_defaults_to_quiet(tmp_path):
    # a fresh process, because logging is configured once per process
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text("{}")
    env = {k: v for k, v in os.environ.items() if k != "COLDSTART_LOG"}
    src = str(Path(coldstart.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coldstart.cli", "sweep", "--template", str(template),
         "--grid", str(grid), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "sweep.csv").exists()
    # no INFO lines, and no runpy warning about an already imported coldstart.cli
    assert proc.stderr == ""


def test_bad_log_level_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLDSTART_LOG", "loud")
    assert main(["simulate", "--out", str(tmp_path / "out")]) == 2
    assert "COLDSTART_LOG" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rga


def diag_model(tmp_path):
    k = from_gain_time_constant
    model = rga.TFMatrix(
        [[k(1.0, 0.5), None], [None, k(2.0, 0.3)]]
    )
    path = tmp_path / "model.json"
    path.write_text(model.to_json() + "\n", encoding="utf-8")
    return path


def test_rga_decoupled_model_scores_unit_dominance(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["rga", "--model", str(diag_model(tmp_path)), "--out", str(out), "--plots"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pairing 1-1: dominance = 1.0000" in stdout
    assert "pairing 2-2: dominance = 1.0000" in stdout
    rows = list(csv.reader((out / "rga.csv").read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 1 + 200  # header + default grid
    assert rows[0][:2] == ["omega", "gap"]
    ET.fromstring((out / "rga.svg").read_text(encoding="utf-8"))


def test_rga_csv_model_and_custom_grid(tmp_path):
    k = from_gain_time_constant
    model = rga.TFMatrix([[k(1.0, 0.3), k(0.4, 0.5)], [k(0.25, 0.6), k(2.0, 0.8)]])
    path = tmp_path / "model.csv"
    path.write_text(tf_matrix_csv(model), encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["rga", "--model", str(path), "--out", str(out),
         "--wmin", "0.1", "--wmax", "10", "--points", "7"]
    )
    assert code == 0
    rows = (out / "rga.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 1 + 7
    assert rows[1].startswith("0.1,")


def test_rga_singular_frequencies_are_gaps_not_failures(tmp_path, capsys):
    # equal rows at DC: response matrix singular at low frequency
    k = from_gain_time_constant
    model = rga.TFMatrix(
        [[k(1.0, 0.5), k(1.0, 0.9)], [k(1.0, 0.5), k(1.0, 0.9)]]
    )
    path = tmp_path / "model.json"
    path.write_text(model.to_json(), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["rga", "--model", str(path), "--out", str(out)])
    assert code == 4
    rows = list(csv.reader((out / "rga.csv").read_text(encoding="utf-8").splitlines()))
    assert all(r[1] == "1" for r in rows[1:])  # every frequency is a gap here


def test_rga_malformed_model_names_the_cell(tmp_path, capsys):
    path = tmp_path / "model.csv"
    path.write_text("row,tau_1,k_1\n1,abc,0.5\n", encoding="utf-8")
    assert main(["rga", "--model", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "channel (1,1)" in capsys.readouterr().err


def test_rga_model_csv_with_a_bare_cr_in_a_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "model.csv"
    path.write_bytes(b"row,tau_1,k_1\n1,0.5\r,1.0\n")
    assert main(["rga", "--model", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: line 2: new-line character" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "model.json",
            '{"n": 1, "entries": [[{"tau": NaN, "k": 1.0}]]}',
            "channel (1,1): tau must be a finite number, got nan",
        ),
        (
            "model.json",
            '{"n": 2, "entries": [[{"tau": 1.0, "k": 1.0}, null],'
            ' [null, {"tau": 1.0, "k": Infinity}]]}',
            "channel (2,2): k must be a finite number, got inf",
        ),
        pytest.param(
            "model.json",
            '{"n": 1, "entries": [[{"tau": ' + HUGE_INT + ', "k": 1.0}]]}',
            "channel (1,1): tau must be a finite number, got " + HUGE_INT,
            id="model.json-int-too-large-for-a-float",
        ),
        ("model.csv", "row,tau_1,k_1\n1,nan,1.0\n", "tau must be a finite number"),
        ("model.csv", "row,tau_1,k_1\n1,0.5,-inf\n", "k must be a finite number"),
    ],
)
def test_rga_non_finite_channel_parameters_exit_2(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["rga", "--model", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name}: channel (" in err and message in err
    assert not (out / "rga.csv").exists()


@pytest.mark.parametrize("text", ["row\n1\n", "row,tau_1\n1,2\n"])
def test_rga_model_csv_header_without_a_channel_pair_exits_2(tmp_path, capsys, text):
    path = tmp_path / "m0.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["rga", "--model", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 1: header needs a label and a (tau, k) pair per input\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("row,tau_1,k_1\n", "transfer matrix CSV needs a header and at least one row"),
        ("row,tau_1,k_1,tau_2,k_2\n1,0.5,1.0,,\n2,0.5,1.0\n", "line 3 has 3 fields, expected 5"),
    ],
    ids=["header only", "short row"],
)
def test_rga_model_csv_with_no_row_or_a_short_row_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "model.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["rga", "--model", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_rga_plot_of_a_model_whose_every_frequency_is_a_gap_has_finite_axes(tmp_path, caplog):
    # two equal rows: every response matrix is singular, so no curve has a point
    k = from_gain_time_constant
    model = rga.TFMatrix([[k(1.0, 0.5), k(1.0, 0.9)], [k(1.0, 0.5), k(1.0, 0.9)]])
    path = tmp_path / "model.json"
    path.write_text(model.to_json(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["rga", "--model", str(path), "--out", str(out), "--plots"]) == 4
    assert "200 of 200 frequencies were too ill-conditioned and are gap rows" in caplog.text
    assert assert_finite_chart(out / "rga.svg") == 0


@pytest.mark.parametrize(
    "text, row",
    [
        ('{"n": 1, "entries": [5]}', 1),
        ('{"n": 2, "entries": [[{"tau": 1.0, "k": 1.0}, null], 3]}', 2),
    ],
)
def test_rga_model_json_row_that_is_not_an_array_exits_2(tmp_path, capsys, text, row):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["rga", "--model", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: transfer matrix row {row} must be an array, not int" in err
    assert not out.exists()


# sha256 of rga.csv for default_coupling_matrix() at 2000 points, recorded with
# the per-frequency sweep before it was evaluated over the whole grid at once
DEFAULT_MODEL_RGA_CSV_SHA256 = "18a76a6b23b075bfa240ddc62060395f0dbaf1fd3950a733a237f74ab9cde617"


# both ran np.logspace: a MemoryError, and a ValueError past numpy's size limit
@pytest.mark.parametrize("points", [10**12, 10**20])
def test_rga_points_past_the_cap_exit_2_before_the_model_is_read(tmp_path, capsys, points):
    missing = tmp_path / "missing.json"
    out = tmp_path / "out"
    assert main(["rga", "--model", str(missing), "--points", str(points), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --points must be at most {rga.MAX_POINTS}, got {points}\n"
    )
    assert not out.exists()


def test_rga_points_cap_is_read_when_the_flags_are_checked(tmp_path, capsys):
    argv = ["rga", "--model", str(diag_model(tmp_path)), "--out", str(tmp_path / "out")]
    with mock.patch.object(rga, "MAX_POINTS", 10):
        assert main([*argv, "--points", "11"]) == 2
        assert capsys.readouterr().err == "error: --points must be at most 10, got 11\n"
        assert main([*argv, "--points", "10"]) == 0


def test_rga_csv_bytes_match_the_per_frequency_digest(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(default_coupling_matrix().to_json(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["rga", "--model", str(path), "--points", "2000", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "rga.csv").read_bytes()).hexdigest()
    assert digest == DEFAULT_MODEL_RGA_CSV_SHA256


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_rga_csv_digest_holds_on_any_cpu_count(tmp_path, monkeypatch, cpus):
    path = tmp_path / "model.json"
    path.write_text(default_coupling_matrix().to_json(), encoding="utf-8")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    pids = tmp_path / "pids"
    log_block_pids(monkeypatch, rga.RGAResult, pids, caller_waits=cpus == 4)
    out = tmp_path / "out"
    assert main(["rga", "--model", str(path), "--points", "2000", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "rga.csv").read_bytes()).hexdigest()
    assert digest == DEFAULT_MODEL_RGA_CSV_SHA256
    assert_block_pids(pids, cpus, 2000)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--wmin", "0"], "--wmin must be a finite positive number, got 0.0"),
        (["--wmin", "-1"], "--wmin must be a finite positive number, got -1.0"),
        (["--wmin", "nan"], "--wmin must be a finite positive number, got nan"),
        (["--wmin", "inf"], "--wmin must be a finite positive number, got inf"),
        (["--wmax", "inf"], "--wmax must be finite and above --wmin, got inf"),
        (["--wmax", "nan"], "--wmax must be finite and above --wmin, got nan"),
        (["--wmin", "10", "--wmax", "1"], "--wmax must be finite and above --wmin, got 1.0"),
        (["--points", "0"], "--points must be at least 1, got 0"),
        (
            ["--wmax", "1e308"],
            "--wmax 1e+308 is too high: response of 1/(2.4*s + 4.0) overflows from omega = 1e+308",
        ),
    ],
)
def test_rga_grid_flags_are_checked_naming_the_flag(tmp_path, capsys, flags, message):
    path = tmp_path / "model.json"
    path.write_text(default_coupling_matrix().to_json(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["rga", "--model", str(path), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def four_by_four(tau, k) -> rga.TFMatrix:
    return rga.TFMatrix(
        [[rga.FirstOrderTF(t, g) for t, g in zip(tau_row, k_row)] for tau_row, k_row in zip(tau, k)]
    )


# 4x4 models of the size the benchmark draws.  At --wmax 1e308 the first
# overflows in a channel response; numpy then raised "Singular matrix".  At
# 1e307, where no response overflows, the second overflows in its RGA, and
# rga.csv held inf and nan cells.  The lab's 3x3 model is a case above
RESPONSE_OVERFLOW_4X4 = four_by_four(
    [[4.6, 0.6, 0.7, 4.9], [3.0, 0.7, 3.5, 0.9], [1.0, 2.3, 3.5, 4.2], [4.3, 2.2, 4.9, 1.1]],
    [[4.2, 1.8, 4.4, 3.1], [0.7, 0.7, 2.1, 1.0], [4.3, 3.0, 4.0, 4.2], [0.8, 2.8, 4.3, 5.5]],
)
RGA_OVERFLOW_4X4 = four_by_four(
    [[1.1, 1.8, 3.1, 3.0], [4.1, 3.0, 1.8, 2.4], [4.2, 3.3, 4.8, 2.2], [3.0, 3.2, 4.3, 1.2]],
    [[2.7, 5.5, 0.7, 5.0], [2.8, 5.1, 0.6, 2.5], [0.9, 4.1, 2.0, 4.4], [5.7, 1.2, 5.3, 0.8]],
)


@pytest.mark.parametrize(
    "model, wmax, message",
    [
        (RESPONSE_OVERFLOW_4X4, "1e308", "response of 1/(4.6*s + 4.2) overflows from omega = 1e+308"),
        (RGA_OVERFLOW_4X4, "1e307", "RGA overflows from omega = 1e+307"),
    ],
    ids=["response", "rga"],
)
def test_rga_4x4_wmax_past_the_float_range_exits_2_naming_the_flag(
    tmp_path, capsys, model, wmax, message
):
    path = tmp_path / "model.json"
    path.write_text(model.to_json(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["rga", "--model", str(path), "--out", str(out), "--wmax", wmax]) == 2
    assert capsys.readouterr().err == f"error: --wmax {float(wmax)!r} is too high: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 3, "entries": [[{"tau": 1.0, "k": 1.0}]]}', "n is 3, but entries has length 1"),
        ('{"entries": [[{"tau": 1.0, "k": 1.0}]]}', "n must be a positive integer, got None"),
        ('{"n": 1, "entries": [[{"tau": true, "k": 1.0}]]}', "channel (1,1): tau must be a number"),
        ('{"n": 1, "entries": [[{"tau": 1.0, "k": "1.5"}]]}', "channel (1,1): k must be a number"),
    ],
)
def test_rga_model_json_with_a_bad_n_or_a_non_number_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["rga", "--model", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# identify


def write_ident_fixture(tmp_path, n_samples=1200, break_pair=None):
    """Two-experiment 2x2 dataset from exact channel simulations."""
    T = 0.02
    tf = {
        (1, 1): from_gain_time_constant(2.0, 0.5),
        (2, 1): from_gain_time_constant(0.5, 1.0),
        (1, 2): from_gain_time_constant(0.8, 0.25),
        (2, 2): from_gain_time_constant(1.5, 0.7),
    }
    rng = np.random.default_rng(11)
    u1, u2 = rng.standard_normal(n_samples), rng.standard_normal(n_samples)
    cols = {
        "u1": u1, "u2": u2,
        "y1_1": simulate_first_order(tf[(1, 1)], u1, T),
        "y2_1": simulate_first_order(tf[(2, 1)], u1, T),
        "y1_2": simulate_first_order(tf[(1, 2)], u2, T),
        "y2_2": simulate_first_order(tf[(2, 2)], u2, T),
    }
    if break_pair is not None:
        # alternating-sign series has a negative discrete pole: not a lag
        cols[break_pair] = np.asarray([(-0.9) ** i for i in range(n_samples)])
    data = tmp_path / "exp.csv"
    with data.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(n_samples):
            writer.writerow([repr(float(cols[k][i])) for k in cols])
    pairs = tmp_path / "pairs.json"
    pairs.write_text(
        json.dumps(
            {
                "T": T,
                "experiments": [
                    {"input": "u1", "outputs": ["y1_1", "y2_1"]},
                    {"input": "u2", "outputs": ["y1_2", "y2_2"]},
                ],
            }
        ),
        encoding="utf-8",
    )
    return data, pairs, tf


def test_identify_round_trip_recovers_the_generator(tmp_path, capsys):
    data, pairs, tf = write_ident_fixture(tmp_path)
    out = tmp_path / "out"
    code = main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(out)])
    assert code == 0
    model = rga.TFMatrix.from_json((out / "model.json").read_text(encoding="utf-8"))
    for (i, j), expect in tf.items():
        got = model.entries[i - 1][j - 1]
        assert got.tau == pytest.approx(expect.tau, rel=1e-3)
        assert got.k == pytest.approx(expect.k, rel=1e-3)
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert report.count("residual_rms") == 4
    assert capsys.readouterr().out == report


def test_identify_missing_column_names_it(tmp_path, capsys):
    data, pairs, _ = write_ident_fixture(tmp_path)
    spec = json.loads(pairs.read_text(encoding="utf-8"))
    spec["experiments"][0]["outputs"][0] = "y_missing"
    pairs.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(tmp_path / "o")]) == 2
    assert "y_missing" in capsys.readouterr().err


def test_identify_failed_channel_is_a_hole_and_partial_exit(tmp_path):
    data, pairs, _ = write_ident_fixture(tmp_path, break_pair="y2_1")
    out = tmp_path / "out"
    code = main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(out)])
    assert code == 4
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "pair (2,1): fit failed:" in report
    model = rga.TFMatrix.from_json((out / "model.json").read_text(encoding="utf-8"))
    assert model.entries[1][0] is None  # the hole
    assert model.entries[0][0] is not None  # the rest still identified


def test_identify_settled_dc_record_flags_tau(tmp_path):
    T = 0.02
    n = 200
    cols = {
        "u1": np.full(n, 2.0),      # constant input
        "y1_1": np.full(n, 4.0),    # settled: DC gain 2, no pole information
    }
    data = tmp_path / "exp.csv"
    with data.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(n):
            writer.writerow([repr(float(cols[k][i])) for k in cols])
    pairs = tmp_path / "pairs.json"
    pairs.write_text(
        json.dumps({"T": T, "experiments": [{"input": "u1", "outputs": ["y1_1"]}]}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "[tau unidentifiable: settled DC record]" in report
    model = rga.TFMatrix.from_json((out / "model.json").read_text(encoding="utf-8"))
    assert model.entries[0][0].k == pytest.approx(0.5)


def test_identify_bad_pairing_spec_exits_2(tmp_path, capsys):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)
    pairs.write_text(json.dumps({"T": 0.02}), encoding="utf-8")
    assert main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(tmp_path / "o")]) == 2
    assert "experiments" in capsys.readouterr().err


def test_identify_pairing_spec_int_too_large_for_a_float_exits_2(tmp_path, capsys):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)
    spec = json.loads(pairs.read_text(encoding="utf-8"))
    out = tmp_path / "o"
    # json writes the non-finite floats as the NaN and Infinity literals it reads back
    for T in (int(HUGE_INT), math.nan, math.inf, -math.inf):
        pairs.write_text(json.dumps({**spec, "T": T}), encoding="utf-8")
        assert main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(out)]) == 2
        assert f"error: {pairs}: T must be a finite number, got " in capsys.readouterr().err
        assert not out.exists()


TWO_EXPERIMENTS = [
    {"input": "u1", "outputs": ["y1_1", "y2_1"]},
    {"input": "u2", "outputs": ["y1_2", "y2_2"]},
]


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--pairs", {"T": 0, "experiments": TWO_EXPERIMENTS}, "T must be positive, got 0.0"),
        ("--pairs", {"T": 0.02, "experiments": []}, "experiments must be a non-empty array"),
        (
            "--pairs", {"T": 0.02, "experiments": {"input": "u1"}},
            "experiments must be a non-empty array",
        ),
        (
            "--pairs", {"T": 0.02, "experiments": [TWO_EXPERIMENTS[0], ["u2"]]},
            "experiment 2 needs exactly the keys input and outputs",
        ),
        (
            "--pairs", {"T": 0.02, "experiments": [{"input": 1, "outputs": ["y1_1"]}]},
            "experiment 1: input must be a column name",
        ),
        (
            "--pairs",
            {"T": 0.02, "experiments": [TWO_EXPERIMENTS[0], {"input": "u2", "outputs": ["y1_2"]}]},
            "experiment 2 must list 2 output column names (one per channel row)",
        ),
        ("--config", [], "config root must be an object"),
        ("--template", "duration", "config root must be an object"),
    ],
    ids=[
        "T", "experiments-empty", "experiments-object", "experiment-keys", "input",
        "outputs", "config-root", "template-root",
    ],
)
def test_an_input_file_of_the_wrong_shape_exits_2_naming_it(
    tmp_path, capsys, option, value, message
):
    data, _, _ = write_ident_fixture(tmp_path, n_samples=50)
    grid = tmp_path / "grid.json"
    grid.write_text('{"substeps": [1]}', encoding="utf-8")
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    subcommand = {
        "--pairs": ["identify", "--data", str(data)],
        "--config": ["simulate"],
        "--template": ["sweep", "--grid", str(grid)],
    }[option]
    out = tmp_path / "out"
    assert main([*subcommand, option, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def rewrite_data_lines(data, edit):
    """Apply ``edit`` to the data CSV's list of lines."""
    lines = data.read_text(encoding="utf-8").splitlines()
    data.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def identify_error(data, pairs, tmp_path, capsys) -> str:
    assert main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(data) in err
    return err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_identify_non_finite_cell_names_its_line_and_column(tmp_path, capsys, cell):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)

    def put(lines):
        cells = lines[5].split(",")
        cells[2] = cell  # column y1_1
        lines[5] = ",".join(cells)
        return lines

    rewrite_data_lines(data, put)
    err = identify_error(data, pairs, tmp_path, capsys)
    assert f"line 6: column 'y1_1' is not finite: '{cell}'" in err


# float() takes these and numpy's reader does not
@pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "\uff11"])
def test_identify_cell_numpy_refuses_names_its_line_and_column(tmp_path, capsys, cell):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)

    def put(lines):
        cells = lines[5].split(",")
        cells[2] = cell  # column y1_1
        lines[5] = ",".join(cells)
        return lines

    rewrite_data_lines(data, put)
    err = identify_error(data, pairs, tmp_path, capsys)
    assert f"line 6: column 'y1_1' is not a number: {cell!r}" in err


def test_identify_row_with_an_extra_cell_exits_2(tmp_path, capsys):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)
    rewrite_data_lines(data, lambda lines: lines[:3] + [lines[3] + ",1.0"] + lines[4:])
    err = identify_error(data, pairs, tmp_path, capsys)
    assert "line 4: cell 7 is past the 6 named columns" in err


def test_identify_header_only_data_exits_2(tmp_path, capsys):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)
    rewrite_data_lines(data, lambda lines: lines[:1])
    err = identify_error(data, pairs, tmp_path, capsys)
    assert "data CSV has no data rows" in err


def test_identify_repeated_column_name_exits_2(tmp_path, capsys):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)
    rewrite_data_lines(data, lambda lines: [lines[0].replace("u2", "u1")] + lines[1:])
    err = identify_error(data, pairs, tmp_path, capsys)
    assert f"error: {data} line 1: column 'u1' is named twice\n" in err


@pytest.mark.parametrize("T", [True, "0.02"])
def test_identify_pairing_spec_t_that_is_not_a_number_exits_2(tmp_path, capsys, T):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)
    spec = json.loads(pairs.read_text(encoding="utf-8"))
    pairs.write_text(json.dumps({**spec, "T": T}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {pairs}: T must be a number, got {T!r}\n"
    assert not out.exists()


def test_identify_fit_no_channel_model_holds_is_a_hole(tmp_path):
    # at T = 1e308 every fitted pole is so slow that tau overflows a float
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)
    spec = json.loads(pairs.read_text(encoding="utf-8"))
    pairs.write_text(json.dumps({**spec, "T": 1e308}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(out)]) == 4
    report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split(": ", 1)[1] for line in report] == [
        "fit failed: tau must be a finite number, got inf"
    ] * 4


def test_identify_sample_whose_square_overflows_fails_its_pair(tmp_path):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)

    def put(lines):
        cells = lines[5].split(",")
        cells[2] = "1e200"  # column y1_1
        lines[5] = ",".join(cells)
        return lines

    rewrite_data_lines(data, put)
    out = tmp_path / "o"
    assert main(["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(out)]) == 4
    report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[0] == "pair (1,1): fit failed: overflow encountered in square"
    assert [line.split(": ")[1][:6] for line in report[1:]] == ["tau = "] * 3


# ---------------------------------------------------------------------------
# metrics


def test_metrics_command_reuses_the_config_echo(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_short_config(cfg_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--run", str(out / "run.csv")]) == 0
    assert capsys.readouterr().out == (out / "metrics.txt").read_text(encoding="utf-8")


def test_metrics_bare_carriage_return_in_an_events_cell_exits_2(tmp_path, capsys):
    header = ",".join(looplab.RECORD_COLUMNS)
    n_numeric = len(looplab.RECORD_COLUMNS) - 1
    row = ",".join(["0.0"] * n_numeric + ["a\rb"])
    path = tmp_path / "run.csv"
    path.write_bytes(f"{header}\n{row}\n".encode("utf-8"))
    assert main(["metrics", "--run", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["2_5e-3", "\u0661\u0662", "\uff11"])
def test_metrics_cell_numpy_refuses_names_its_line_and_column(tmp_path, capsys, cell):
    header = ",".join(looplab.RECORD_COLUMNS)
    cells = ["0.0"] * (len(looplab.RECORD_COLUMNS) - 1) + [""]
    bad = list(cells)
    bad[3] = cell
    path = tmp_path / "run.csv"
    path.write_text(f"{header}\n{','.join(cells)}\n{','.join(bad)}\n", encoding="utf-8")
    assert main(["metrics", "--run", str(path)]) == 2
    column = looplab.RECORD_COLUMNS[3]
    err = capsys.readouterr().err
    assert f"error: {path}: run record line 3: column {column!r} is not a number: {cell!r}\n" in err


def test_metrics_reads_a_record_with_crlf_line_endings(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_short_config(cfg_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    run = out / "run.csv"
    run.write_bytes(run.read_bytes().replace(b"\n", b"\r\n"))
    assert main(["metrics", "--run", str(run)]) == 0
    assert capsys.readouterr().out == (out / "metrics.txt").read_text(encoding="utf-8")


def test_metrics_with_baseline_defines_the_ratios(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_short_config(cfg_path, phi_true=PhiTrue(fuel=0.5, speed=0.5, exh=0.5, air=0.5))
    adaptive_out = tmp_path / "adaptive"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(adaptive_out)]) == 0
    frozen_out = tmp_path / "frozen"
    assert main(
        ["simulate", "--config", str(cfg_path), "--out", str(frozen_out),
         "--override", "adaptation_enabled=false"]
    ) == 0
    capsys.readouterr()
    code = main(
        ["metrics", "--run", str(adaptive_out / "run.csv"),
         "--baseline", str(frozen_out / "run.csv")]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "removal_ratio_overall = absent" not in text
    assert "tracking_ratio_speed = " in text


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """The run.csv and config.json texts of a short run of the shipped scenario."""
    tmp = tmp_path_factory.mktemp("short_run")
    write_short_config(tmp / "config.json")
    out = tmp / "out"
    assert main(["simulate", "--config", str(tmp / "config.json"), "--out", str(out)]) == 0
    return {name: (out / name).read_text(encoding="utf-8") for name in ("run.csv", "config.json")}


def write_run(directory, files, **replaced):
    """The run.csv path of ``files`` written into ``directory``, with the
    texts in ``replaced`` (by file name, dots as underscores) put in."""
    directory.mkdir(exist_ok=True)
    for name, text in files.items():
        text = replaced.get(name.replace(".", "_"), text)
        (directory / name).write_text(text, encoding="utf-8")
    return directory / "run.csv"


def with_cell(run_csv: str, line: int, column: str, cell: str) -> str:
    lines = run_csv.split("\n")
    cells = lines[line - 1].split(",")
    cells[looplab.RECORD_COLUMNS.index(column)] = cell
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "config, message",
    [
        ("[]", "config root must be an object, got list"),
        ('{"phi_true": "abc"}', "phi_true must be an object with the four loop names"),
        ('{"metrics_window_start": "x"}', "metrics_window_start must be a number, got 'x'"),
        ('{"phi_true": {"fuel": 0}}', "phi_true.fuel must be a positive number, got 0.0"),
    ],
)
def test_metrics_checks_the_config_of_the_run_naming_the_file(
    tmp_path, capsys, short_run, config, message
):
    run = write_run(tmp_path / "run", short_run, config_json=config)
    assert main(["metrics", "--run", str(run)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'run' / 'config.json'}: {message}\n"


def test_metrics_baseline_error_names_the_baseline_file(tmp_path, capsys, short_run):
    run = write_run(tmp_path / "run", short_run)
    bad = with_cell(short_run["run.csv"], 3, "mdot_f", "x")
    base = write_run(tmp_path / "base", short_run, run_csv=bad)
    assert main(["metrics", "--run", str(run), "--baseline", str(base)]) == 2
    assert capsys.readouterr().err == (
        f"error: {base}: run record line 3: column 'mdot_f' is not a number: 'x'\n"
    )


def test_metrics_of_a_header_only_record_exits_2(tmp_path, capsys, short_run):
    header = short_run["run.csv"].split("\n")[0] + "\n"
    run = write_run(tmp_path / "run", short_run, run_csv=header)
    assert main(["metrics", "--run", str(run)]) == 2
    assert capsys.readouterr().err == f"error: {run}: run record has no rows to summarize\n"


def test_metrics_of_a_header_only_baseline_names_the_baseline_file(tmp_path, capsys, short_run):
    header = short_run["run.csv"].split("\n")[0] + "\n"
    run = write_run(tmp_path / "run", short_run)
    base = write_run(tmp_path / "base", short_run, run_csv=header)
    assert main(["metrics", "--run", str(run), "--baseline", str(base)]) == 2
    assert capsys.readouterr().err == f"error: {base}: run record has no rows to summarize\n"


def test_metrics_of_a_run_cut_at_a_row_boundary_exits_2_naming_it(tmp_path, capsys, short_run):
    """A write killed between blocks leaves whole rows, fewer than the
    config beside them makes."""
    lines = short_run["run.csv"].splitlines(keepends=True)
    n_rows = len(lines) - 1
    drawn = np.random.default_rng(32).choice(np.arange(2, n_rows - 1), 6, replace=False)
    for cut in (1, *drawn.tolist(), n_rows - 1):
        run = write_run(tmp_path / f"cut{cut}", short_run, run_csv="".join(lines[: 1 + cut]))
        assert main(["metrics", "--run", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"error: {run}: run record is not a run of its config: {cut} rows, where the "
            f"config makes {n_rows}, at times k * 0.02 s\n"
        )


@pytest.mark.parametrize(
    "config, rows", [(ScenarioConfig(), 2001), (ScenarioConfig(duration=4.0, T=0.04), 101)],
    ids=["stale-40-s", "same-rows-other-times"],
)
def test_metrics_of_a_run_beside_another_config_exits_2_naming_it(
    tmp_path, capsys, short_run, config, rows
):
    run = write_run(tmp_path / "run", short_run, config_json=config.to_json())
    assert main(["metrics", "--run", str(run)]) == 2
    assert capsys.readouterr().err == (
        f"error: {run}: run record is not a run of its config: 101 rows, where the "
        f"config makes {rows}, at times k * {config.T!r} s\n"
    )


def test_metrics_of_values_that_overflow_a_summary_exits_2(tmp_path, capsys, short_run):
    # a row inside the 1 s metrics window: the spread of s1 squares it
    bad = with_cell(short_run["run.csv"], 90, "s1", "1e200")
    run = write_run(tmp_path / "run", short_run, run_csv=bad)
    assert main(["metrics", "--run", str(run)]) == 2
    assert capsys.readouterr().err == (
        f"error: {run}: run record values overflow its metrics: overflow encountered in square\n"
    )


def test_metrics_of_a_run_that_overflows_alone_names_the_run_not_its_baseline(
    tmp_path, capsys, short_run
):
    bad = with_cell(short_run["run.csv"], 90, "s1", "1e200")
    run = write_run(tmp_path / "run", short_run, run_csv=bad)
    base = write_run(tmp_path / "base", short_run)
    assert main(["metrics", "--run", str(run), "--baseline", str(base)]) == 2
    assert capsys.readouterr().err == (
        f"error: {run}: run record values overflow its metrics: overflow encountered in square\n"
    )


def test_metrics_of_a_pair_that_overflows_only_together_names_both_files(
    tmp_path, capsys, short_run
):
    # the baseline's removal residual (phi_hat - phi) * f, read only for a pair, overflows
    bad = with_cell(short_run["run.csv"], 90, "phi_hat_fuel", "1e200")
    bad = with_cell(bad, 90, "f_fuel", "1e200")
    run = write_run(tmp_path / "run", short_run)
    base = write_run(tmp_path / "base", short_run, run_csv=bad)
    assert main(["metrics", "--run", str(run)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--run", str(run), "--baseline", str(base)]) == 2
    assert capsys.readouterr().err == (
        f"error: {run} with baseline {base}: run record values overflow its metrics: "
        "overflow encountered in multiply\n"
    )


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_metrics_of_a_non_finite_cell_exits_2_naming_it(tmp_path, capsys, short_run, cell):
    # a row inside the 1 s metrics window, where the cell would reach the summary
    bad = with_cell(short_run["run.csv"], 90, "s1", cell)
    run = write_run(tmp_path / "run", short_run, run_csv=bad)
    assert main(["metrics", "--run", str(run)]) == 2
    assert capsys.readouterr().err == (
        f"error: {run}: run record line 90: column 's1' is not finite: {cell!r}\n"
    )


# ---------------------------------------------------------------------------
# one refusal rule across the CSV inputs


def bad_run_csv(tmp_path, cell):
    header = ",".join(looplab.RECORD_COLUMNS)
    cells = ["0.0"] * (len(looplab.RECORD_COLUMNS) - 1) + [""]
    bad = list(cells)
    bad[3] = cell  # column mdot_f
    path = tmp_path / "run.csv"
    path.write_text(f"{header}\n{','.join(cells)}\n{','.join(bad)}\n", encoding="utf-8")
    return (
        ["metrics", "--run", str(path)],
        f"{path}: run record line 3: column 'mdot_f' is not a number: {cell!r}",
    )


def bad_identify_data(tmp_path, cell):
    data, pairs, _ = write_ident_fixture(tmp_path, n_samples=50)

    def put(lines):
        cells = lines[5].split(",")
        cells[2] = cell  # column y1_1
        lines[5] = ",".join(cells)
        return lines

    rewrite_data_lines(data, put)
    argv = ["identify", "--data", str(data), "--pairs", str(pairs), "--out", str(tmp_path / "o")]
    return argv, f"{data} line 6: column 'y1_1' is not a number: {cell!r}"


def bad_trajectory(tmp_path, cell):
    path = tmp_path / "traj.csv"
    path.write_text(
        f"time,afr_d,omega_d,t_exh_d\n0.0,12.5,125.0,650.0\n30.0,{cell},110.0,650.0\n",
        encoding="utf-8",
    )
    argv = [
        "simulate", "--out", str(tmp_path / "out"), "--trajectory", str(path),
        "--override", "duration=1.0", "--override", "metrics_window_start=0.5",
    ]
    return argv, f"{path}: trajectory line 3: column 'afr_d' is not a number: {cell!r}"


def bad_model_csv(tmp_path, cell):
    path = tmp_path / "model.csv"
    path.write_text(f"row,tau_1,k_1,tau_2,k_2\n1,0.5,1.0,,\n2,,,{cell},2.0\n", encoding="utf-8")
    argv = ["rga", "--model", str(path), "--out", str(tmp_path / "out")]
    return argv, (
        f"{path}: channel (2,2) on line 3: could not convert string to float: {cell!r}"
    )


# float() takes these and numpy's C reader does not
@pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "\uff11"])
@pytest.mark.parametrize(
    "bad_input", [bad_run_csv, bad_identify_data, bad_trajectory, bad_model_csv],
    ids=["metrics-run", "identify-data", "trajectory", "rga-model"],
)
def test_every_csv_input_refuses_a_cell_numpy_refuses(tmp_path, capsys, bad_input, cell):
    argv, message = bad_input(tmp_path, cell)
    assert main(argv) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid_rows_and_partial_failures(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    # duration 0 with a 1 s metrics window cannot be summarized: cell error
    grid.write_text(json.dumps({"phi_true.fuel": [0.5, 1.0], "duration": [2.0, 0.0]}))
    out = tmp_path / "out"
    code = main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)])
    assert code == 4
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))
    header = rows[0]
    assert header[:3] == ["cell", "duration", "phi_true.fuel"]
    assert header[-1] == "error"
    assert len(rows) == 1 + 4
    errors = [r[-1] for r in rows[1:]]
    assert sum(1 for e in errors if e) == 2  # both duration-0 cells fail
    assert all("empty" in e for e in errors if e)
    # healthy cells carry metrics, failed cells leave them blank
    conv_col = header.index("phi_convergence_time_fuel")
    healthy = [r for r in rows[1:] if not r[-1]]
    assert healthy[0][conv_col] != ""


def test_sweep_overflowing_cell_fails_alone(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"feedback_delay_steps": [0, 3]}))
    out = tmp_path / "out"
    code = main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)])
    assert code == 4
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 3
    assert rows[1][-1] == ""
    assert "overflow" in rows[2][-1] and "step" in rows[2][-1]


def test_sweep_cell_whose_afr_overflows_fails_alone(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"initial_state.m_a": [0.004, 1e200]}), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)])
    assert code == 4
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))
    assert [row[:2] for row in rows[1:]] == [["0", "0.004"], ["1", "1e+200"]]
    assert rows[1][-1] == "" and rows[1][2] != ""
    assert rows[2][-1].startswith("step 0: plant: AFR -inf ")


def test_sweep_int_too_large_for_a_float_fails_its_cell_alone(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text('{"T": [0.02, ' + HUGE_INT + "]}", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)])
    assert code == 4
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))
    assert [row[:2] for row in rows[1:]] == [["0", "0.02"], ["1", HUGE_INT]]
    assert rows[1][-1] == ""
    assert rows[2][-1] == f"T must be a finite number, got {HUGE_INT}"


def test_sweep_zero_plant_constant_cell_fails_alone(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"constants": [{}, {"J": 0}]}))
    out = tmp_path / "out"
    code = main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)])
    assert code == 4
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 3
    assert rows[1][-1] == ""
    assert rows[2][-1] == "constants.J must be positive, got 0.0"


def test_sweep_off_grid_duration_cell_fails_alone(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"duration": [2.0, 1.01]}))
    out = tmp_path / "out"
    code = main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)])
    assert code == 4
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 3
    assert rows[1][-1] == ""
    assert rows[2][-1] == "duration 1.01 is not an integer number of 0.02 s samples"


def test_sweep_single_cell_matches_simulate(tmp_path, capsys):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"phi_true.speed": [0.5]}))
    out = tmp_path / "out"
    assert main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)]) == 0
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))

    sim_out = tmp_path / "sim"
    assert main(
        ["simulate", "--config", str(template), "--out", str(sim_out),
         "--override", "phi_true.speed=0.5"]
    ) == 0
    metrics_text = (sim_out / "metrics.txt").read_text(encoding="utf-8")
    mean_abs = dict(
        line.split(" = ") for line in metrics_text.strip().splitlines()
    )["mean_abs_s_speed"]
    assert rows[1][rows[0].index("mean_abs_s_speed")] == mean_abs


def test_sweep_empty_grid_writes_header_only(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text("{}")
    out = tmp_path / "out"
    assert main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text(encoding="utf-8")
    assert len(text.strip().splitlines()) == 1


def test_sweep_rejects_malformed_grid(tmp_path, capsys):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"phi_true.fuel": 0.5}))  # not a list
    assert main(["sweep", "--template", str(template), "--grid", str(grid), "--out", str(tmp_path / "o")]) == 2
    assert "value arrays" in capsys.readouterr().err


def test_sweep_grid_axis_the_template_omits_runs_every_cell(tmp_path):
    template = tmp_path / "template.json"
    template.write_text('{"duration": 2.0, "metrics_window_start": 1.0}', encoding="utf-8")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"substeps": [1, 2], "constants.J": [0.1454, 0.2]}))
    out = tmp_path / "out"
    assert main(sweep_argv(template, grid, out)) == 0
    rows = list(csv.reader((out / "sweep.csv").read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 1 + 4 and all(row[-1] == "" for row in rows[1:])


def test_sweep_grid_past_the_cell_cap_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_CELLS", 3)
    steps = count_controller_steps(monkeypatch)
    forks = []
    monkeypatch.setattr(fanout.Stream, "_fork", lambda *args: forks.append(args))
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"substeps": [1, 2], "quant_bits": [12, 16]}))
    out = tmp_path / "out"
    assert main(sweep_argv(template, grid, out)) == 2
    assert capsys.readouterr().err == f"error: --grid {grid}: 4 cells, more than 3\n"
    assert (steps, forks) == ([], [])
    assert not out.exists()


def test_a_huge_sweep_grid_is_refused_before_a_cell_is_built(tmp_path, capsys):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    paths = [f"phi_true.{loop}" for loop in looplab.LOOPS]
    paths += ["phi_hat_init", "delta_initial", "afi_floor", "T"]
    grid.write_text(json.dumps({path: [0.5 + i / 1000 for i in range(100)] for path in paths}))
    out = tmp_path / "out"
    built = AssertionError("the grid's cells were built")
    with mock.patch.object(cli.itertools, "product", side_effect=built):
        assert main(sweep_argv(template, grid, out)) == 2
    assert capsys.readouterr().err == (
        f"error: --grid {grid}: {100 ** 8} cells, more than {cli.MAX_CELLS}\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep cells shared with forked helpers

# 12 cells: 3 healthy, 3 SimulationAbort (delay 3 overflows), 6 ConfigError (J = 0)
MIXED_GRID = {
    "constants": [{}, {"J": 0}],
    "feedback_delay_steps": [0, 3],
    "phi_true.fuel": [0.5, 0.75, 1.0],
}


def write_mixed_sweep(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(MIXED_GRID), encoding="utf-8")
    return template, grid


def sweep_argv(template, grid, out):
    return ["sweep", "--template", str(template), "--grid", str(grid), "--out", str(out)]


def test_sweep_grid_key_with_a_bare_cr_reads_back_as_one_header_cell(tmp_path):
    template = tmp_path / "template.json"
    write_short_config(template)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"a\rb": [1], "substeps": [1]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(sweep_argv(template, grid, out)) == 4  # the key names no field
    with open(out / "sweep.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 2
    assert rows[0][:3] == ["cell", "a\rb", "substeps"]
    assert rows[1][-1] == "config has unknown key(s) ['a\\rb']"


def record_pids(monkeypatch, path, before=None):
    """Wrap the sweep's run_scenario to append the pid of every process that
    runs a cell to ``path``, after calling ``before(cfg, pid)`` if given."""
    inner = cli.run_scenario

    def run(cfg):
        if before is not None:
            before(cfg, os.getpid())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return inner(cfg)

    monkeypatch.setattr(cli, "run_scenario", run)


def share_both_ways(pids, caller_started):
    """A ``record_pids`` hook under which both this process and a helper run
    a cell: this process runs none before a helper has started one (the
    ``caller_waits`` rule of ``log_block_pids``), and a helper none before
    this process has reached its first cell. Each of the three helpers claims
    at most one cell before it waits, so this process reaches one of the six
    cells that run, whatever the scheduling."""
    caller = os.getpid()

    def helper_started() -> bool:
        return pids.exists() and any(p != str(caller) for p in pids.read_text().split())

    def before(cfg, pid):
        if pid == caller:
            caller_started.touch()
            wait_for(helper_started)
        else:
            wait_for(caller_started.exists)

    return before


def test_sweep_with_helpers_is_byte_identical_to_the_serial_loop(tmp_path, monkeypatch):
    template, grid = write_mixed_sweep(tmp_path)
    results = {}
    for name, cpus in (("serial", 1), ("default", None), ("helpers", 4)):
        pids = tmp_path / f"{name}.pids"
        with monkeypatch.context() as patch:
            if cpus is not None:
                patch.setattr(fanout, "_usable_cpus", lambda cpus=cpus: cpus)
            before = share_both_ways(pids, tmp_path / "caller") if name == "helpers" else None
            record_pids(patch, pids, before)
            out = tmp_path / name
            code = main(sweep_argv(template, grid, out))
        results[name] = code, (out / "sweep.csv").read_bytes()
        runs = pids.read_text(encoding="utf-8").split()
        assert len(runs) == 6  # each cell past validation runs once, wherever it runs
        if name == "serial":
            assert set(runs) == {str(os.getpid())}
        if name == "helpers":
            assert len(set(runs)) > 1 and str(os.getpid()) in runs
    assert results["serial"][0] == 4
    assert results["default"] == results["serial"]
    assert results["helpers"] == results["serial"]
    rows = list(csv.reader(results["serial"][1].decode("utf-8").splitlines()))
    errors = [row[-1] for row in rows[1:]]
    assert sum(e == "" for e in errors) == 3
    assert sum("must be positive" in e for e in errors) == 6
    assert sum("overflow" in e for e in errors) == 3
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("claimant", ["caller", "helper"])
def test_sweep_cell_raising_outside_the_contract_escapes_main(tmp_path, monkeypatch, claimant):
    template, grid = write_mixed_sweep(tmp_path)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    caller = os.getpid()
    raised = tmp_path / "raised"
    raising = tmp_path / "raising"

    def before(cfg, pid):
        role = "caller" if pid == caller else "helper"
        if role == claimant:  # the first cell the chosen role runs is the one that raises
            with contextlib.suppress(FileExistsError), open(raising, "x", encoding="utf-8") as fh:
                fh.write(cfg.to_json())
        if raising.exists() and raising.read_text(encoding="utf-8") == cfg.to_json():
            with open(raised, "a", encoding="utf-8") as fh:
                fh.write(f"{role}\n")
            raise RuntimeError("cell outside the contract")
        if role == "helper" != claimant:
            wait_for((tmp_path / "never").exists)  # until terminated
        if role == "caller" != claimant:
            wait_for(raised.exists)

    record_pids(monkeypatch, tmp_path / "pids", before)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="cell outside the contract"):
        main(sweep_argv(template, grid, tmp_path / "out"))
    assert time.monotonic() - start < 15.0  # the waiting helpers were not waited for
    roles = raised.read_text(encoding="utf-8").split()
    assert roles[0] == claimant and roles[-1] == "caller"
    assert not (tmp_path / "out" / "sweep.csv").exists()
    assert not multiprocessing.active_children()


def test_sweep_survives_a_helper_that_dies_mid_cell(tmp_path, monkeypatch):
    template, grid = write_mixed_sweep(tmp_path)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    assert main(sweep_argv(template, grid, tmp_path / "serial")) == 4
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    caller = os.getpid()
    died = tmp_path / "died"

    def before(cfg, pid):
        if pid == caller:
            wait_for(died.exists)
            return
        try:
            fd = os.open(died, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # one helper dies; the others go on claiming cells
        os.close(fd)
        os._exit(1)

    record_pids(monkeypatch, tmp_path / "pids", before)
    code = main(sweep_argv(template, grid, tmp_path / "out"))
    assert code == 4
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == serial
    assert not multiprocessing.active_children()


def test_sweep_runs_alone_when_a_fork_fails(tmp_path, monkeypatch):
    template, grid = write_mixed_sweep(tmp_path)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    assert main(sweep_argv(template, grid, tmp_path / "serial")) == 4
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    from multiprocessing.context import ForkProcess

    forks = []
    fork = ForkProcess._Popen

    def second_fork_fails(process_obj):
        forks.append(process_obj)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork(process_obj)

    monkeypatch.setattr(ForkProcess, "_Popen", staticmethod(second_fork_fails))
    assert main(sweep_argv(template, grid, tmp_path / "out")) == 4
    assert len(forks) == 2
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == serial
    assert not multiprocessing.active_children()


_FORCED_CPUS = (
    "import sys\n"
    "from coldstart import cli, fanout\n"
    "fanout._usable_cpus = lambda: int(sys.argv[1])\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


def test_sweep_info_log_lists_cells_in_order(tmp_path):
    # fresh processes, because logging is configured once per process
    template, grid = write_mixed_sweep(tmp_path)
    env = dict(os.environ, COLDSTART_LOG="info")
    src = str(Path(coldstart.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    runs = []
    for cpus in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", _FORCED_CPUS, cpus, *sweep_argv(template, grid, out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        runs.append((proc.stderr, (out / "sweep.csv").read_bytes()))
    assert runs[1] == runs[0]
    cells = [line for line in runs[0][0].splitlines() if " cell " in line]
    assert [line.split(":")[1] for line in cells if line.startswith("INFO")] == [
        f" cell {i}/12" for i in range(1, 13)
    ]
    failed = [int(line.split()[3]) for line in cells if line.startswith("WARNING")]
    assert failed == [3, 4, 5, 6, 7, 8, 9, 10, 11]


def test_import_does_not_load_multiprocessing():
    src = str(Path(coldstart.__file__).parents[1])
    code = "import sys, coldstart; print({'multiprocessing', 'fcntl', 'logging'} & set(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.strip() == "set()", proc.stderr
