"""Host-speed calibration: a fixed pure-Python loop timed between ops.

The benchmark runs on a shared VM whose speed drifts by tens of percent over
minutes, and CPU time drifts with wall time, so a raw latency of one run says
as much about the host as about the program.  This loop does the kind of
work the program's ops do (scalar float math, small objects and dicts, float
``repr`` and string joins) and lives in the benchmark, so no change to the
program can change its cost.  It is timed just before every op and once
after the last, and each op's wall time is scaled by ``REFERENCE_S`` over
the mean of the two timings that bracket it: the latency the op would have
had on a host where this loop takes exactly ``REFERENCE_S``.  Set-up time,
a subprocess and file work that a nearby loop timing tracks less closely,
is scaled by the median of all the run's loop timings instead.

The cyclic garbage collector is off while the loop runs, so the size of the
program's heap does not leak into the loop's time.
"""

from __future__ import annotations

import gc
import math
import random
import time

ITERATIONS = 2000
# the loop's median time on the host the benchmark was defined on (Intel
# Xeon, 2 vCPU, Python 3.11); any fixed value would do, this one keeps the
# adjusted figures close to that host's wall-clock ones
REFERENCE_S = 0.0085


def _loop() -> float:
    rng = random.Random(12345)
    rows = []
    x = 0.3
    acc = 0.0
    for i in range(ITERATIONS):
        x = 0.5 * x + 0.25 * math.exp(-x) + math.tanh(x * 0.1)
        d = {"a": x, "b": x * 2.0, "c": rng.random()}
        acc += d["a"] * d["c"] - min(d["b"], 1.0)
        if i % 2 == 0:
            rows.append(",".join(repr(v) for v in d.values()))
    return len("\n".join(rows)) + acc


def measure() -> float:
    """Wall seconds of one calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, loop_s: float) -> float:
    """``seconds`` at reference speed, given the loop's time on the host then."""
    return seconds * REFERENCE_S / loop_s
