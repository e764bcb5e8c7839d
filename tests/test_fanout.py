"""The fan-out itself: results equal a serial loop's, a helper's result pipe
holds a whole CSV block, and each share logs one DEBUG line."""

import errno
import logging
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coldstart
from coldstart import fanout
from lab_helpers import wait_for

# about a pickled 256-row block of rga.csv, and more than a default pipe holds
LARGE = 300 << 10

SHARE_LINE = re.compile(
    r"share of (\d+) items: caller (\d+), helpers (\d+) \((\d+) forked\); "
    r"pipe bytes \[(.*)\]; caller waited \d+\.\d ms after its last item"
)


def large_result(idx: int) -> str:
    return f"{idx:x}" * LARGE


def require_wide_pipes() -> None:
    """Skip where this kernel will not give an unprivileged process a pipe of
    ``fanout.PIPE_BYTES`` (not Linux, a lower pipe-max-size, or the user's
    pipe quota spent): there a helper is meant to fall back and wait."""
    fcntl = pytest.importorskip("fcntl")
    reader, writer = os.pipe()
    try:
        fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, fanout.PIPE_BYTES)
    except (AttributeError, OSError) as err:
        pytest.skip(f"no pipe of {fanout.PIPE_BYTES} bytes here: {err}")
    finally:
        os.close(reader)
        os.close(writer)


def share_lines(caplog) -> list[re.Match]:
    lines = [r.getMessage() for r in caplog.records if r.name == "coldstart.fanout"]
    return [SHARE_LINE.fullmatch(line) for line in lines]


def test_a_helper_does_not_wait_for_the_caller_to_read_a_large_result(
    tmp_path, monkeypatch, caplog
):
    """The caller's item does not end before the helper has started its second
    item, so the helper's first result, larger than a default pipe, must
    have gone into the pipe while the caller read nothing."""
    require_wide_pipes()
    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    caller = os.getpid()
    caller_started = tmp_path / "caller-started"
    helper_second = tmp_path / "helper-second"
    stalled = []
    helper_items = []  # grows in the helper's memory only

    def run_item(idx):
        if os.getpid() == caller:
            caller_started.touch()
            try:
                wait_for(helper_second.exists, timeout=20.0)
            except AssertionError:
                stalled.append(idx)
        else:
            helper_items.append(idx)
            if len(helper_items) == 1:
                wait_for(caller_started.exists, timeout=20.0)
            else:
                helper_second.touch()
        return large_result(idx)

    done = fanout.share_items(3, run_item)
    assert not stalled, "the helper sat in send until the caller gave up"
    assert done == {idx: large_result(idx) for idx in range(3)}
    (line,) = share_lines(caplog)
    assert line.group(1, 2, 3, 4, 5) == ("3", "1", "2", "1", str(fanout.PIPE_BYTES))
    assert not multiprocessing.active_children()


def test_a_pipe_the_kernel_will_not_widen_gives_the_serial_results(monkeypatch, caplog):
    import fcntl

    refused = []

    def refuse(fd, cmd, arg=0):
        refused.append(cmd)
        raise OSError(errno.EPERM, os.strerror(errno.EPERM))

    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(fcntl, "fcntl", refuse)
    done = fanout.share_items(6, large_result)
    assert done == {idx: large_result(idx) for idx in range(6)}
    assert refused == [fcntl.F_SETPIPE_SZ]
    (line,) = share_lines(caplog)
    assert line.group(4, 5) == ("1", "None")
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_results_are_the_same_on_any_cpu_count(monkeypatch, caplog, cpus):
    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    done = fanout.share_items(9, large_result)
    assert done == {idx: large_result(idx) for idx in range(9)}
    (line,) = share_lines(caplog)
    count, by_caller, by_helpers, forked = map(int, line.group(1, 2, 3, 4))
    assert (count, by_caller + by_helpers, forked) == (9, 9, cpus - 1)
    if cpus == 1:
        assert (by_caller, line.group(5)) == (9, "")
    assert not multiprocessing.active_children()


def test_simulate_logs_one_share_line_at_debug_and_none_at_info(tmp_path):
    """The 2 001-row record is 8 blocks of ``fanout.BLOCK_ROWS`` rows."""
    src = str(Path(coldstart.__file__).parents[1])
    stderr = {}
    for level in ("info", "debug"):
        proc = subprocess.run(
            [sys.executable, "-m", "coldstart.cli", "simulate", "--out", str(tmp_path / level)],
            env=dict(os.environ, PYTHONPATH=src, COLDSTART_LOG=level),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        stderr[level] = proc.stderr.splitlines()
    assert not [line for line in stderr["info"] if "coldstart.fanout" in line]
    shares = [line for line in stderr["debug"] if line.startswith("DEBUG coldstart.fanout: ")]
    assert len(shares) == 1
    assert SHARE_LINE.fullmatch(shares[0].split(": ", 1)[1]).group(1) == "8"
    assert (tmp_path / "info" / "run.csv").read_bytes() == (
        tmp_path / "debug" / "run.csv"
    ).read_bytes()
