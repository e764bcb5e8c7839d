"""The fan-out itself: results equal a serial loop's, a helper's result pipe
holds a whole CSV block, a fed stream never waits on its helper, and each
share or stream logs one DEBUG line."""

import errno
import logging
import multiprocessing
import os
import re
import subprocess
import sys
import time
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
STREAM_LINE = re.compile(
    r"stream of (\d+) items: helper (\d+) during the feed and (\d+) after it, "
    r"caller (\d+) \((\d+) forked\); pipe bytes \[(.*)\]; "
    r"caller waited \d+\.\d ms after its last item"
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


def share_lines(caplog, pattern=SHARE_LINE) -> list[re.Match]:
    lines = [r.getMessage() for r in caplog.records if r.name == "coldstart.fanout"]
    return [pattern.fullmatch(line) for line in lines]


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


def test_simulate_logs_one_stream_line_at_debug_and_none_at_info(tmp_path):
    """The 2 001-row record is 8 blocks of ``fanout.BLOCK_ROWS`` rows, each
    formatted once, by the helper or by the caller."""
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
    line = STREAM_LINE.fullmatch(shares[0].split(": ", 1)[1])
    count, during, after, by_caller = map(int, line.group(1, 2, 3, 4))
    assert (count, during + after + by_caller) == (8, 8)
    assert (tmp_path / "info" / "run.csv").read_bytes() == (
        tmp_path / "debug" / "run.csv"
    ).read_bytes()


def item_text(idx: int) -> str:
    """The result of item ``idx`` of a fed stream: as large as a CSV block."""
    return f"{idx:x}" * (200 << 10)


def feed(stream, count: int) -> None:
    for idx in range(count):
        stream.hand_over(idx)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_a_fed_stream_gives_the_serial_results_on_any_cpu_count(monkeypatch, caplog, cpus):
    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    with fanout.Stream(item_text) as stream:
        feed(stream, 9)
        done = stream.join(item_text, 10)  # the tenth item is never handed over
    assert done == {idx: item_text(idx) for idx in range(10)}
    (line,) = share_lines(caplog, STREAM_LINE)
    count, during, after, by_caller, forked = map(int, line.group(1, 2, 3, 4, 5))
    assert (count, during + after + by_caller, forked) == (10, 10, min(cpus - 1, 1))
    if cpus == 1:
        assert (by_caller, line.group(6)) == (10, "")
    assert not multiprocessing.active_children()


def test_a_fed_stream_does_not_wait_on_a_helper_that_is_behind(tmp_path, monkeypatch, caplog):
    """The helper takes no item before the feed is over, so every item
    handed over after the item pipe is half full must be kept back: were
    it sent, this process would sit in send while the helper waits."""
    require_wide_pipes()
    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    fed = tmp_path / "fed"
    items = [f"{idx:x}" * (300 << 10) for idx in range(12)]  # pickled, 300 KiB each

    def run_item(item):
        wait_for(fed.exists, timeout=20.0)
        return item.upper()

    start = time.monotonic()
    with fanout.Stream(run_item) as stream:
        for item in items:
            stream.hand_over(item)
        fed.touch()
        done = stream.join(lambda idx: items[idx].upper(), len(items))
    assert time.monotonic() - start < 15.0
    assert done == {idx: item.upper() for idx, item in enumerate(items)}
    (line,) = share_lines(caplog, STREAM_LINE)
    during, after, by_caller = map(int, line.group(2, 3, 4))
    assert during + after + by_caller == 12
    # the item it waits in, and those that fit in half the item pipe
    assert 1 <= during + after <= 1 + fanout.PIPE_BYTES // 2 // (300 << 10)
    assert not multiprocessing.active_children()


def test_a_fed_stream_whose_item_pipe_will_not_widen_forks_no_helper(monkeypatch, caplog):
    import fcntl

    def refuse(fd, cmd, arg=0):
        raise OSError(errno.EPERM, os.strerror(errno.EPERM))

    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(fcntl, "fcntl", refuse)
    with fanout.Stream(item_text) as stream:
        feed(stream, 3)
        done = stream.join(item_text, 3)
    assert done == {idx: item_text(idx) for idx in range(3)}
    (line,) = share_lines(caplog, STREAM_LINE)
    assert line.group(4, 5, 6) == ("3", "0", "None")
    assert not multiprocessing.active_children()


def test_a_fed_stream_outlives_its_helper(tmp_path, monkeypatch):
    """The helper dies on its first item; the items handed over after that
    go into a pipe nobody reads, and the caller runs every one."""
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    died = tmp_path / "died"

    def run_item(idx):
        died.touch()
        os._exit(1)

    with fanout.Stream(run_item) as stream:
        stream.hand_over(0)
        wait_for(died.exists)
        wait_for(lambda: not multiprocessing.active_children())
        feed(stream, 8)
        done = stream.join(item_text, 9)
    assert done == {idx: item_text(idx) for idx in range(1, 9)}  # 0 is the caller's to redo
    assert not multiprocessing.active_children()


def test_a_stream_stops_its_helper_when_the_feed_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    never = tmp_path / "never"
    with pytest.raises(RuntimeError, match="the run aborted"):
        with fanout.Stream(lambda item: wait_for(never.exists, timeout=60.0)) as stream:
            stream.hand_over(0)
            raise RuntimeError("the run aborted")
    assert not multiprocessing.active_children()
