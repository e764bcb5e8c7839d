"""Independent items of work shared between this process and forked helpers.

``share_items`` runs items ``0 <= i < count`` on every CPU the process may
use: ``sweep`` shares its cells this way, and the ``run.csv`` and ``rga.csv``
writers (``join_blocks``) their blocks of rows.  Helpers are forked, never
spawned, and talk back over one-way pipes.  No thread is started, and no
helper is forked from a process that has other threads, because forking a
process with threads is unsafe.  Helpers never outlive the call, and an item
a helper did not deliver is the caller's to redo, so the result is always
that of a serial loop.  ``multiprocessing`` and ``fcntl`` are imported only
when a helper is forked, and ``logging`` only when a share ends: it logs
one DEBUG line.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

BLOCK_ROWS = 256  # rows of a CSV table that one process converts to text at a time
PIPE_BYTES = 1 << 20  # a result pipe: the default pipe-max-size; a new pipe holds 64 KiB


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_items(count: int, run_item) -> dict:
    """``run_item(i)`` for the items ``0 <= i < count``, shared between this
    process and ``min(count, usable CPUs) - 1`` forked helpers: each takes
    the next unclaimed item until none is left.

    Returns the results by item.  An item is missing when its run raised, in
    this process or in a helper, or when its helper died; the caller runs it
    again.  After an exception here, a failed fork included, no further item
    is claimed and the helpers are stopped.  Helpers never outlive the call.
    """
    n_helpers = min(count, _usable_cpus()) - 1
    if n_helpers > 0:
        # imported here, not at module level: it would add 6-9 ms to the
        # import of the package, and one item never needs it
        import multiprocessing
        from multiprocessing.connection import wait

        # a forked helper gets only the calling thread, and any lock another
        # thread holds stays locked in it for good
        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            n_helpers = 0
    done: dict = {}
    claim = itertools.count().__next__
    helpers = []  # (process, reading end of its pipe)
    open_readers = []
    pipe_bytes = []  # of each helper's pipe; None where it keeps its size
    by_caller = 0
    waited_ms = 0.0  # after the caller's last item

    def receive(timeout: float | None) -> None:
        for reader in wait(open_readers, timeout):
            try:
                idx, result = reader.recv()
            except EOFError:
                open_readers.remove(reader)
            else:
                done[idx] = result

    ok = False
    try:
        if n_helpers > 0:
            # forked, not spawned: a helper starts with this process's
            # imports, monkeypatches and tracer, at no import cost.  Pipe,
            # not Queue: a Queue starts a feeder thread
            ctx = multiprocessing.get_context("fork")
            import fcntl  # every system with fork has it
            counter = ctx.Value("i", 0)

            def claim() -> int:
                with counter.get_lock():
                    idx = counter.value
                    counter.value = idx + 1
                return idx

            def helper(writer) -> None:
                try:
                    while (idx := claim()) < count:
                        writer.send((idx, run_item(idx)))
                finally:
                    # no traceback, no atexit hook, no second flush of the
                    # parent's stdio buffers: the caller reruns a lost item
                    os._exit(0)

            for _ in range(n_helpers):
                reader, writer = ctx.Pipe(duplex=False)
                # a CSV block pickles to 136-255 KiB: a result larger than the
                # pipe stalls its helper until this process reads between items
                try:
                    pipe_bytes.append(fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, PIPE_BYTES))
                except (AttributeError, OSError):  # not Linux, or past the user's pipe quota
                    pipe_bytes.append(None)
                proc = ctx.Process(target=helper, args=(writer,), daemon=True)
                helpers.append((proc, reader))
                proc.start()
                writer.close()  # so that the reader sees EOF once the helper exits
                open_readers.append(reader)
        while (idx := claim()) < count:
            done[idx] = run_item(idx)
            by_caller += 1
            if open_readers:
                receive(0)  # keep the pipes from filling up
        idle_from = time.perf_counter()
        while open_readers:
            receive(None)
        waited_ms = (time.perf_counter() - idle_from) * 1e3
        ok = True
    except Exception:  # noqa: BLE001 - the caller reruns the item in order and raises it there
        pass
    finally:
        for proc, reader in helpers:
            if proc.pid is not None:  # started
                if not ok:
                    proc.terminate()
                proc.join()
            reader.close()
    import logging  # here, like multiprocessing: 5-7 ms off ``import coldstart``
    logging.getLogger(__name__).debug(
        "share of %d items: caller %d, helpers %d (%d forked); pipe bytes %s; "
        "caller waited %.1f ms after its last item",
        count, by_caller, len(done) - by_caller, len(helpers), pipe_bytes, waited_ms,
    )
    return done


def join_blocks(n_rows: int, format_rows) -> str:
    """``format_rows(block)`` of each ``block`` slice of ``BLOCK_ROWS``
    consecutive rows out of ``n_rows``, joined in row order: the text of a
    serial loop over the blocks, whichever process formatted each one.  The
    blocks are shared by ``share_items``; the caller formats any block it
    got no text for, in order, so a block that raises raises here."""
    starts = range(0, n_rows, BLOCK_ROWS)

    def run_block(idx: int) -> str:
        return format_rows(slice(starts[idx], starts[idx] + BLOCK_ROWS))

    done = share_items(len(starts), run_block)
    return "".join(done.pop(idx) if idx in done else run_block(idx) for idx in range(len(starts)))
