"""Items of work shared between this process and forked helpers.

A ``Stream`` is a ``with`` block whose helpers run items while this process
goes on; ``results`` gives each item's result in item order, and this process
runs items too while it would otherwise wait.  Its items are either ready
before the helpers are forked, as ``sweep`` shares its cells and the
``run.csv`` and ``rga.csv`` writers their blocks of rows (``write_blocks``),
or handed over one by one while this process is still making them, as
``simulate`` hands over the blocks of its record while the loop steps.  A CSV
writer writes each block's text to its file as it comes and drops it, so a
table's text is never joined.

Each item is claimed once, and every process claims the next unclaimed one.
Helpers are forked, never spawned, and talk over one-way pipes.  No thread is
started, and no helper is forked from a process that has other threads,
because forking a process with threads is unsafe.  Helpers never outlive the
``with`` block, and an item a helper did not deliver is the caller's to redo,
in order, so the result is always that of a serial loop.  ``multiprocessing``
and ``fcntl`` are imported only when a helper is forked, and ``logging`` only
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _widen(conn) -> int | None:
    """Set the pipe of ``conn`` to ``PIPE_BYTES``; its size, or None where it
    keeps the size it has."""
    import fcntl  # every system with fork has it

    try:
        return fcntl.fcntl(conn, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or past the user's pipe quota
        return None


class _Claims:
    """Which process runs each item: every process claims the next unclaimed
    one, and no item is claimed twice.  The count of items claimed or passed
    over is shared with forked helpers under one lock."""

    def __init__(self, ctx):
        if ctx is None:
            self._next, self._lock = [0], contextlib.nullcontext()
        else:
            self._next, self._lock = ctx.RawArray("q", [0]), ctx.Lock()

    def taken(self) -> int:
        with self._lock:
            return self._next[0]

    def take(self, end: int, idx: int | None = None) -> int | None:
        """Claim item ``idx`` (passing over any unclaimed before it), or else
        the next unclaimed one; None if it is claimed already or not below
        ``end``."""
        with self._lock:
            idx = self._next[0] if idx is None else idx
            if not self._next[0] <= idx < end:
                return None
            self._next[0] = idx + 1
            return idx


class Stream:
    """``run_item`` of items shared between this process and forked helpers,
    as a ``with`` block that the helpers never outlive.

    ``Stream(run_item, count)`` has its items ``0 <= i < count`` ready: each
    of ``min(count, usable CPUs) - 1`` helpers runs ``run_item(i)`` for the
    next unclaimed ``i``.  ``Stream(run_item)`` is fed: one helper is forked
    on entry, ``hand_over(item)`` passes it the next item, and it runs
    ``run_item(item)`` while this process makes the one after.  Either way
    ``results`` gives the results in item order.
    """

    def __init__(self, run_item, count: int | None = None):
        self._run_item = run_item
        self._count = count
        self._fed = count is None
        self._claims = _Claims(None)
        self._done: dict = {}
        self._helpers: list = []  # (process, reading end of its result pipe)
        self._readers: list = []  # result pipes not yet at EOF
        self._pipe_bytes: list = []  # of each pipe; None where it keeps its size
        self._inbox = None  # writing end of a fed helper's item pipe
        self._unread: deque = deque()  # (index, pickled bytes) of items in the item pipe
        self._kept: set = set()  # items handed over but not sent: this process runs them
        self._handed = 0
        self._by_helpers = 0  # items the helpers delivered
        self._by_caller = 0
        self._before_join = 0  # items helpers claimed before ``results`` was first read
        self._waited_ms = 0.0  # blocked on the helpers, with nothing left to claim

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
            self._claims = _Claims(ctx)
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
                if inbox is None:  # ready: the next unclaimed item, until none is left
                    if (idx := self._claims.take(self._count)) is None:
                        break
                    item = idx
                else:  # fed: each item sent that this process has not claimed, until EOF
                    idx, item = inbox.recv()
                    if self._claims.take(idx + 1, idx) is None:
                        continue
                writer.send((idx, self._run_item(item)))
        finally:
            # no traceback, no atexit hook, no second flush of the parent's
            # stdio buffers: the caller reruns a lost item
            os._exit(0)

    def hand_over(self, item) -> None:
        """Pass ``item``, the next of a fed stream, to its helper.  It is
        sent only if the items the helper has not taken yet, this one
        included, fill at most half the item pipe, so this process never sits
        in ``send`` while the helper sits in its own; an item kept back is
        this process's to run in ``results``."""
        idx = self._handed
        self._handed += 1
        if self._inbox is None:
            return
        data = pickle.dumps((idx, item), pickle.HIGHEST_PROTOCOL)
        taken = self._claims.taken()
        while self._unread and self._unread[0][0] < taken:
            self._unread.popleft()
        if sum(size for _, size in self._unread) + len(data) > self._pipe_bytes[0] // 2:
            self._kept.add(idx)
        else:
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

    def _receive(self, timeout: float | None) -> bool:
        """Read a result, or EOF, from each result pipe that has one within
        ``timeout``; whether any had."""
        if not self._readers:
            return False
        from multiprocessing.connection import wait

        ready = wait(self._readers, timeout)
        for reader in ready:
            try:
                idx, result = reader.recv()
            except EOFError:
                self._readers.remove(reader)
            else:
                self._done[idx] = result
                self._by_helpers += 1
        return bool(ready)

    def results(self, run_own, count: int | None = None):
        """Each item's result, in item order; ``count`` is the length of a
        fed stream.

        While an item has no result and a helper is alive, this process runs
        ``run_own(i)`` of the next unclaimed item ``i``, or, with none left
        to claim, waits on the helpers.  An item still missing, because its
        run raised, here or in a helper, because its helper died, or because
        it was never sent to one, is run here, in order, so a serial loop's
        exception is the first to escape.  Once a run here has raised, no
        helper is waited on.
        """
        self._end_feed()
        self._before_join = self._claims.taken()
        count = self._count if count is None else count
        self._count = count
        for idx in range(count):
            try:
                while self._readers and idx not in self._done and idx not in self._kept:
                    # what the helpers sent is read before more is claimed, so few
                    # results wait here for their turn
                    if self._receive(0):
                        continue
                    if (own := self._claims.take(count)) is not None:
                        self._done[own] = run_own(own)
                        self._by_caller += 1
                    else:
                        idle_from = time.perf_counter()
                        self._receive(None)
                        self._waited_ms += (time.perf_counter() - idle_from) * 1e3
            except Exception:  # noqa: BLE001 - run again below, in order, and raised there
                self._readers.clear()  # wait on no helper: ``__exit__`` stops them
            if idx not in self._done:
                self._done[idx] = run_own(idx)
                self._by_caller += 1
            yield self._done.pop(idx)

    def __exit__(self, *exc) -> None:
        self._end_feed()
        for proc, reader in self._helpers:
            proc.terminate()  # a helper still running holds nothing this process needs
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


def write_blocks(file, n_rows: int, format_rows, stream: Stream | None = None) -> None:
    """Write ``format_rows(block)`` of each ``block`` slice of ``BLOCK_ROWS``
    consecutive rows out of ``n_rows`` to ``file``, in row order: the text of
    a serial loop over the blocks, whichever process formatted each one.
    Each block's text is dropped once written.  The blocks are those of the
    fed ``stream`` when one is given, else of a ready stream of their own."""

    def run_block(idx: int) -> str:
        return format_rows(slice(idx * BLOCK_ROWS, (idx + 1) * BLOCK_ROWS))

    n_blocks = -(-n_rows // BLOCK_ROWS)
    shared = Stream(run_block, n_blocks) if stream is None else contextlib.nullcontext(stream)
    with shared as stream:
        for text in stream.results(run_block, n_blocks):
            file.write(text)
