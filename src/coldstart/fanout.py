"""Items of work shared between this process and forked helpers.

A ``Stream`` is a ``with`` block whose helpers run items while this process
goes on; ``join`` collects their results and has this process run the items
no helper took.  Its items are either ready before the helpers are forked,
as ``sweep`` shares its cells and the ``run.csv`` and ``rga.csv`` writers
their blocks of rows (``write_blocks``), or handed over one by one while this
process is still making them, as ``simulate`` hands over the blocks of its
record while the loop steps.  A CSV writer writes each block's text to its
file in row order and drops it, so a table's text is never joined.

Each item is claimed once: helpers take the front and this process the back,
so that it formats the tail of a record while the helpers finish the head.
Helpers are forked, never spawned, and talk over one-way pipes.  No thread is
started, and no helper is forked from a process that has other threads,
because forking a process with threads is unsafe.  Helpers never outlive the
``with`` block, and an item a helper did not deliver is the caller's to redo,
so the result is always that of a serial loop.  ``multiprocessing`` and
``fcntl`` are imported only when a helper is forked, and ``logging`` only
when a stream ends: it logs one DEBUG line.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
from collections import deque

BLOCK_ROWS = 64  # rows of a CSV table that one process converts to text at a time
PIPE_BYTES = 1 << 20  # a pipe: the default pipe-max-size; a new pipe holds 64 KiB
_OPEN = 1 << 62  # the back of a stream whose length is not known yet


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(n_rows: int, format_rows):
    """The number of ``BLOCK_ROWS`` blocks of a CSV table of ``n_rows`` rows,
    and the function that gives ``format_rows`` of the rows of block ``idx``."""

    def run_block(idx: int) -> str:
        return format_rows(slice(idx * BLOCK_ROWS, (idx + 1) * BLOCK_ROWS))

    return -(-n_rows // BLOCK_ROWS), run_block


def _widen(conn) -> int | None:
    """Set the pipe of ``conn`` to ``PIPE_BYTES``; its size, or None where it
    keeps the size it has."""
    import fcntl  # every system with fork has it

    try:
        return fcntl.fcntl(conn, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or past the user's pipe quota
        return None


class _Claims:
    """Which process runs each item of ``0 <= i < back``: helpers claim from
    the front, the caller from the back, and no item twice.  The two ends are
    shared with forked helpers under one lock."""

    def __init__(self, ctx, back: int):
        if ctx is None:
            self._ends, self._lock = [0, back], contextlib.nullcontext()
        else:
            self._ends, self._lock = ctx.RawArray("q", [0, back]), ctx.Lock()

    def taken_from_front(self) -> int:
        with self._lock:
            return self._ends[0]

    def front(self, idx: int | None = None) -> int | None:
        """Claim item ``idx`` (passing over any before it), or else the first
        unclaimed one; None once the caller has claimed it."""
        with self._lock:
            idx = self._ends[0] if idx is None else idx
            if idx >= self._ends[1]:
                return None
            self._ends[0] = idx + 1
            return idx

    def back(self, count: int) -> int | None:
        """Claim the last unclaimed item of the first ``count``; None once
        the front has reached it."""
        with self._lock:
            self._ends[1] = min(self._ends[1], count)
            if self._ends[1] <= self._ends[0]:
                return None
            self._ends[1] -= 1
            return self._ends[1]


class Stream:
    """``run_item`` of items shared between this process and forked helpers,
    as a ``with`` block that the helpers never outlive.

    ``Stream(run_item, count)`` has its items ``0 <= i < count`` ready: each
    of ``min(count, usable CPUs) - 1`` helpers runs ``run_item(i)`` for the
    next unclaimed ``i``.  ``Stream(run_item)`` is fed: one helper is forked
    on entry, ``hand_over(item)`` passes it the next item, and it runs
    ``run_item(item)`` while this process makes the one after.  Either way
    ``join`` gives the results by item.
    """

    def __init__(self, run_item, count: int | None = None):
        self._run_item = run_item
        self._count = count
        self._fed = count is None
        self._claims = _Claims(None, _OPEN if count is None else count)
        self._done: dict = {}
        self._helpers: list = []  # (process, reading end of its result pipe)
        self._readers: list = []  # result pipes not yet at EOF
        self._pipe_bytes: list = []  # of each pipe; None where it keeps its size
        self._inbox = None  # writing end of a fed helper's item pipe
        self._unread: deque = deque()  # (index, pickled bytes) of items in the item pipe
        self._handed = 0
        self._by_helpers = 0  # items the helpers delivered
        self._by_caller = 0
        self._before_join = 0  # items helpers claimed before the join
        self._waited_ms = 0.0  # after the caller's last item
        self._joined = False

    def __enter__(self) -> "Stream":
        cpus = _usable_cpus()
        n_helpers = min(cpus - 1, 1) if self._fed else min(self._count, cpus) - 1
        if n_helpers < 1:
            return self
        # imported here, not at module level: it would add 6-9 ms to the
        # import of the package, and one CPU never needs it
        import multiprocessing

        # a forked helper gets only the calling thread, and any lock another
        # thread holds stays locked in it for good
        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            return self
        # forked, not spawned: a helper starts with this process's imports,
        # monkeypatches and tracer, at no import cost.  Pipe, not Queue: a
        # Queue starts a feeder thread
        ctx = multiprocessing.get_context("fork")
        inbox = None
        try:
            self._claims = _Claims(ctx, _OPEN if self._fed else self._count)
            if self._fed:  # its item pipe comes first in ``_pipe_bytes``
                inbox, self._inbox = ctx.Pipe(duplex=False)
                self._pipe_bytes.append(_widen(self._inbox))
                if self._pipe_bytes[0] is None:  # every item would wait on the helper
                    n_helpers = 0
            for _ in range(n_helpers):
                self._fork(ctx, inbox)
        except OSError:  # no pipe, lock or fork now: go on with the helpers there are
            pass
        finally:
            if inbox is not None:
                inbox.close()
        if not self._helpers:
            self._end_feed()
        return self

    def _fork(self, ctx, inbox) -> None:
        reader, writer = ctx.Pipe(duplex=False)
        try:
            # a CSV block pickles to 22-59 KiB: results past what the pipe
            # holds stall its helper until this process reads between items
            self._pipe_bytes.append(_widen(writer))
            proc = ctx.Process(target=self._helper, args=(writer, inbox), daemon=True)
            proc.start()
        except OSError:
            reader.close()
            raise
        finally:
            writer.close()  # so that the reader sees EOF once the helper exits
        self._helpers.append((proc, reader))
        self._readers.append(reader)

    def _helper(self, writer, inbox) -> None:
        try:
            if inbox is not None:
                self._inbox.close()  # this process's copy: the pipe ends with the caller's
            while True:
                idx, item = inbox.recv() if inbox is not None else (None, None)
                if (idx := self._claims.front(idx)) is None:
                    break
                writer.send((idx, self._run_item(idx if inbox is None else item)))
        finally:
            # no traceback, no atexit hook, no second flush of the parent's
            # stdio buffers: the caller reruns a lost item
            os._exit(0)

    def hand_over(self, item) -> None:
        """Pass ``item``, the next of a fed stream, to its helper.  It is
        sent only if the items the helper has not taken yet, this one
        included, fill at most half the item pipe, so this process never sits
        in ``send`` while the helper sits in its own; ``join`` runs every
        item the helper did not."""
        idx = self._handed
        self._handed += 1
        if self._inbox is None:
            return
        data = pickle.dumps((idx, item), pickle.HIGHEST_PROTOCOL)
        taken = self._claims.taken_from_front()
        while self._unread and self._unread[0][0] < taken:
            self._unread.popleft()
        if sum(size for _, size in self._unread) + len(data) <= self._pipe_bytes[0] // 2:
            try:
                self._inbox.send_bytes(data)
            except OSError:  # the helper has gone
                self._end_feed()
            else:
                self._unread.append((idx, len(data)))
        self._receive(0)  # keep the result pipe from filling up

    def _end_feed(self) -> None:
        if self._inbox is not None:
            self._inbox.close()  # the helper stops after the items it has
            self._inbox = None

    def _receive(self, timeout: float | None) -> None:
        if not self._readers:
            return
        from multiprocessing.connection import wait

        for reader in wait(self._readers, timeout):
            try:
                idx, result = reader.recv()
            except EOFError:
                self._readers.remove(reader)
            else:
                self._done[idx] = result
                self._by_helpers += 1

    def join(self, run_own, count: int | None = None) -> dict:
        """The results by item: the helpers', and ``run_own(i)`` of each item
        ``i`` this process claims from the back until none is left; ``count``
        is the length of a fed stream.

        An item is missing when its run raised, here or in a helper, or when
        its helper died; the caller runs it again.  After an exception here
        no further item is claimed, and the helpers are stopped.
        """
        self._end_feed()
        self._before_join = self._claims.taken_from_front()
        count = self._count if count is None else count
        try:
            while (idx := self._claims.back(count)) is not None:
                self._done[idx] = run_own(idx)
                self._by_caller += 1
                self._receive(0)
            idle_from = time.perf_counter()
            while self._readers:
                self._receive(None)
            self._waited_ms = (time.perf_counter() - idle_from) * 1e3
            self._joined = True
        except Exception:  # noqa: BLE001 - the caller reruns the item in order and raises it there
            pass
        self._count = count
        return self._done

    def write_blocks(self, file, n_rows: int, format_rows) -> None:
        """Write ``format_rows(block)`` of each ``block`` slice of
        ``BLOCK_ROWS`` consecutive rows out of ``n_rows`` to ``file``, in row
        order: the text of a serial loop over the blocks, whichever process
        formatted each one.  Each block's text is dropped once written.  This
        process formats any block it got no text for, in order, so a block
        that raises raises here, after the blocks before it are written."""
        n_blocks, run_block = _blocks(n_rows, format_rows)
        done = self.join(run_block, n_blocks)
        for idx in range(n_blocks):
            file.write(done.pop(idx) if idx in done else run_block(idx))

    def __exit__(self, *exc) -> None:
        self._end_feed()
        for proc, reader in self._helpers:
            if not self._joined:
                proc.terminate()
            proc.join()
            reader.close()
        import logging  # here, like multiprocessing: 5-7 ms off ``import coldstart``

        logging.getLogger(__name__).debug(
            "stream of %d items (%s): helpers %d (%d before the join), caller %d (%d forked); "
            "pipe bytes %s; caller waited %.1f ms after its last item",
            self._handed if self._count is None else self._count, "fed" if self._fed else "ready",
            self._by_helpers, self._before_join, self._by_caller, len(self._helpers),
            self._pipe_bytes, self._waited_ms,
        )


def write_blocks(file, n_rows: int, format_rows) -> None:
    """``Stream.write_blocks`` of a stream whose blocks are all ready: shared
    between this process, from the back, and forked helpers, from the
    front."""
    n_blocks, run_block = _blocks(n_rows, format_rows)
    with Stream(run_block, n_blocks) as stream:
        stream.write_blocks(file, n_rows, format_rows)
