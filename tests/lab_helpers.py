"""Model builders and data generators that only the tests use: a cascade
controller with the default gains, the illustrative coupling matrix whose
``rga.csv`` digest is pinned, and the exact sampled response of a
first-order channel that identification round trips are checked against.
Also hooks into the per-block form of the CSV writers, to see which
process formats each block when the blocks are shared across CPUs.
"""

import math
import os
import time

import numpy as np

from coldstart.dsmc import BETA_DEFAULT, RHO_DEFAULTS, AdaptiveLoop, CascadeController
from coldstart.rga import FirstOrderTF, TFMatrix, from_gain_time_constant


def with_default_gains(T: float = 0.02, **kwargs) -> CascadeController:
    return CascadeController(
        AdaptiveLoop(BETA_DEFAULT, RHO_DEFAULTS["fuel"]),
        AdaptiveLoop(BETA_DEFAULT, RHO_DEFAULTS["speed"]),
        AdaptiveLoop(BETA_DEFAULT, RHO_DEFAULTS["exh"]),
        AdaptiveLoop(BETA_DEFAULT, RHO_DEFAULTS["air"]),
        T=T,
        **kwargs,
    )


def default_coupling_matrix() -> TFMatrix:
    """Illustrative 3x3 loop-coupling model (fuel, air, spark channels).

    The numbers are synthetic placeholders for exercising the analysis
    tooling; they are not identified from the engine model.
    """
    k = from_gain_time_constant
    return TFMatrix(
        [
            [k(1.0, 0.3), k(0.4, 0.5), None],
            [k(0.25, 0.6), k(2.0, 0.8), None],
            [k(0.3, 0.2), k(0.5, 0.4), k(1.5, 0.05)],
        ]
    )


def simulate_first_order(tf: FirstOrderTF, u, T: float, y0: float = 0.0) -> np.ndarray:
    """Exact sampled response of 1/(tau*s + k) to a piecewise-constant input.

    Used to generate round-trip test data; the input is held over each step.
    """
    if tf.tau <= 0.0 or tf.k <= 0.0:
        raise ValueError("simulation needs tau > 0 and k > 0")
    u = np.asarray(u, dtype=float).ravel()
    pole = tf.k / tf.tau
    a = math.exp(-pole * T)
    b = (1.0 - a) / tf.k
    y = np.empty(len(u))
    cur = y0
    for idx, uk in enumerate(u):
        y[idx] = cur
        cur = a * cur + b * uk
    return y


def wait_for(done, timeout=30.0) -> None:
    """Poll until ``done()`` is true; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not done():
        assert time.monotonic() < deadline, "waited in vain"
        time.sleep(0.005)


def log_block_pids(monkeypatch, cls, path, caller_waits=False):
    """Wrap ``cls._csv_rows``, the per-block form of a CSV writer, to append
    the pid of each process that formats a block to ``path``.  With
    ``caller_waits``, this process formats no block before another process
    has started one, so a shared write is sure to use a helper."""
    inner = cls._csv_rows
    caller = str(os.getpid())

    def others_started() -> bool:
        return path.exists() and any(p != caller for p in path.read_text().split())

    def rows(self, block):
        if caller_waits and str(os.getpid()) == caller:
            wait_for(others_started)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return inner(self, block)

    monkeypatch.setattr(cls, "_csv_rows", rows)


def kill_first_helper_mid_block(monkeypatch, cls, died):
    """Wrap ``cls._csv_rows`` so that the first helper to take a block exits
    mid-block, creating the file ``died``; the others go on taking blocks,
    and this process formats none before that file exists."""
    inner = cls._csv_rows
    caller = os.getpid()

    def rows(self, block):
        if os.getpid() == caller:
            wait_for(died.exists)
        else:
            try:
                fd = os.open(died, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os._exit(1)
        return inner(self, block)

    monkeypatch.setattr(cls, "_csv_rows", rows)
