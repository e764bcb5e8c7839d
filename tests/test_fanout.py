"""The fan-out itself: results equal a serial loop's, a helper's result pipe
holds a whole CSV block, a fed stream never waits on its helper, each
stream, ready or fed, logs one DEBUG line, and a CSV writer holds a few
blocks of its text, not the file."""

import errno
import logging
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coldstart
from coldstart import fanout, looplab, rga
from lab_helpers import wait_for

# a result larger than a default pipe of 64 KiB holds
LARGE = 300 << 10

# groups: items, form, by helpers, claimed by helpers before the join, by the
# caller, helpers forked, pipe bytes
STREAM_LINE = re.compile(
    r"stream of (\d+) items \((ready|fed)\): helpers (\d+) \((\d+) before the join\), "
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


def stream_lines(caplog) -> list[re.Match]:
    lines = [r.getMessage() for r in caplog.records if r.name == "coldstart.fanout"]
    return [STREAM_LINE.fullmatch(line) for line in lines]


def share(count: int, run_item) -> dict:
    """The results of a ready stream of ``count`` items, as ``sweep`` runs it."""
    with fanout.Stream(run_item, count) as stream:
        return dict(enumerate(stream.results(run_item)))


def test_a_helper_does_not_wait_for_the_caller_to_read_a_large_result(
    tmp_path, monkeypatch, caplog
):
    """The caller's item, the last, does not end before the helper has
    started its second item, so the helper's first result, larger than a
    default pipe, must have gone into the pipe while the caller read
    nothing."""
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

    done = share(3, run_item)
    assert not stalled, "the helper sat in send until the caller gave up"
    assert done == {idx: large_result(idx) for idx in range(3)}
    (line,) = stream_lines(caplog)
    assert line.group(1, 2, 3, 5, 6, 7) == ("3", "ready", "2", "1", "1", str(fanout.PIPE_BYTES))
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
    done = share(6, large_result)
    assert done == {idx: large_result(idx) for idx in range(6)}
    assert refused == [fcntl.F_SETPIPE_SZ]
    (line,) = stream_lines(caplog)
    assert line.group(6, 7) == ("1", "None")
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_results_are_the_same_on_any_cpu_count(monkeypatch, caplog, cpus):
    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    done = share(9, large_result)
    assert done == {idx: large_result(idx) for idx in range(9)}
    (line,) = stream_lines(caplog)
    count, by_helpers, before_join, by_caller, forked = map(int, line.group(1, 3, 4, 5, 6))
    assert (count, by_caller + by_helpers, forked) == (9, 9, cpus - 1)
    assert line.group(2) == "ready" and before_join <= by_helpers
    if cpus == 1:
        assert (by_caller, line.group(7)) == (9, "")
    assert not multiprocessing.active_children()


def test_simulate_logs_one_stream_line_at_debug_and_none_at_info(tmp_path):
    """The 2 001-row record is split into blocks of ``fanout.BLOCK_ROWS``
    rows, each formatted once, by the helper or by the caller."""
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
    count, by_helpers, by_caller = map(int, line.group(1, 3, 5))
    n_blocks = -(-2001 // fanout.BLOCK_ROWS)
    assert (count, line.group(2), by_helpers + by_caller) == (n_blocks, "fed", n_blocks)
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
        done = dict(enumerate(stream.results(item_text, 10)))  # the tenth is never handed over
    assert done == {idx: item_text(idx) for idx in range(10)}
    (line,) = stream_lines(caplog)
    count, by_helpers, by_caller, forked = map(int, line.group(1, 3, 5, 6))
    assert (count, by_helpers + by_caller, forked) == (10, 10, min(cpus - 1, 1))
    if cpus == 1:
        assert (by_caller, line.group(7)) == (10, "")
    assert not multiprocessing.active_children()


def test_a_fed_stream_does_not_wait_on_a_helper_that_is_behind(tmp_path, monkeypatch, caplog):
    """The helper waits in its first item until the feed is over, so every
    item handed over after the item pipe is half full must be kept back: were
    it sent, this process would sit in send while the helper waits."""
    require_wide_pipes()
    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    inside, fed = tmp_path / "inside", tmp_path / "fed"
    items = [f"{idx:x}" * (300 << 10) for idx in range(12)]  # pickled, 300 KiB each

    def run_item(item):
        inside.touch()
        wait_for(fed.exists, timeout=20.0)
        return item.upper()

    start = time.monotonic()
    with fanout.Stream(run_item) as stream:
        for item in items:
            stream.hand_over(item)
        wait_for(inside.exists)
        fed.touch()
        done = dict(enumerate(stream.results(lambda idx: items[idx].upper(), len(items))))
    assert time.monotonic() - start < 15.0
    assert done == {idx: item.upper() for idx, item in enumerate(items)}
    (line,) = stream_lines(caplog)
    by_helpers, by_caller = map(int, line.group(3, 5))
    assert by_helpers + by_caller == 12
    # the item it waits in, and those that fit in half the item pipe
    assert 1 <= by_helpers <= 1 + fanout.PIPE_BYTES // 2 // (300 << 10)
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
        done = dict(enumerate(stream.results(item_text, 3)))
    assert done == {idx: item_text(idx) for idx in range(3)}
    (line,) = stream_lines(caplog)
    assert line.group(5, 6, 7) == ("3", "0", "None")
    assert not multiprocessing.active_children()


def test_a_fed_stream_outlives_its_helper(tmp_path, monkeypatch):
    """The helper dies on its first item; the items handed over after that
    go into a pipe nobody reads, and the caller runs every one, the first
    item too."""
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
        done = dict(enumerate(stream.results(item_text, 9)))
    assert done == {idx: item_text(idx) for idx in range(9)}
    assert not multiprocessing.active_children()


def test_a_stream_stops_its_helper_when_the_feed_raises(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="coldstart.fanout")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    never = tmp_path / "never"
    with pytest.raises(RuntimeError, match="the run aborted"):
        with fanout.Stream(lambda item: wait_for(never.exists, timeout=60.0)) as stream:
            stream.hand_over(0)
            stream.hand_over(1)
            raise RuntimeError("the run aborted")
    assert not multiprocessing.active_children()
    (line,) = stream_lines(caplog)  # one line, though the stream was never joined
    assert line.group(1, 2, 3, 5) == ("2", "fed", "0", "0")


def random_record(n_rows: int) -> looplab.RunRecord:
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal((n_rows, len(looplab.RECORD_COLUMNS) - 4))
    table = np.hstack([floats, rng.integers(0, 2, (n_rows, 3))])
    return looplab.RunRecord(table, ["" if i % 5 else f"event {i}" for i in range(n_rows)])


def random_sweep(n_freq: int) -> rga.RGAResult:
    rng = np.random.default_rng(n_freq)
    lambdas = rng.standard_normal((n_freq, 3, 3)) + 1j * rng.standard_normal((n_freq, 3, 3))
    gaps = np.arange(n_freq) % 7 == 3
    lambdas[gaps] = np.nan
    return rga.RGAResult(omegas=np.logspace(-3, 3, n_freq), lambdas=lambdas, gaps=gaps)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("make", [random_record, random_sweep], ids=["run.csv", "rga.csv"])
def test_a_csv_writer_holds_about_one_copy_of_its_text(tmp_path, monkeypatch, make, cpus):
    """Each block goes to the file in row order and is then dropped, so the
    traced peak of a 20 000-row write stays near the size of the file;
    joining the blocks into one text first would take twice it."""
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    table = make(20_000)
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        with path.open("w", encoding="utf-8") as file:
            table.write_csv(file)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 1.5 * size, f"peak {peak} bytes for a {size}-byte file"
    assert path.read_text(encoding="utf-8") == table.to_csv()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("make", [random_record, random_sweep], ids=["run.csv", "rga.csv"])
def test_a_csv_writer_holds_a_few_blocks_not_the_file(tmp_path, monkeypatch, make, cpus):
    """The results come in row order, so each block is written as soon as it
    is there: the traced peak of a 20 000-row write is that of a few blocks,
    not of the file."""
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    table = make(20_000)
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        with path.open("w", encoding="utf-8") as file:
            table.write_csv(file)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 0.1 * size, f"peak {peak} bytes for a {size}-byte file"
    assert not multiprocessing.active_children()
