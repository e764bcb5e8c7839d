"""Model builders and data generators that only the tests use: the
gain/time-constant form of a first-order channel, the quantizer's plain
arithmetic that each ADC channel is checked against, the catalyst fit
with the builtin ``min``/``max`` clamps that its comparisons are checked
against, a cascade controller with the default gains, the illustrative
coupling matrix whose ``rga.csv`` digest is pinned, the exact sampled
response of a first-order channel that identification round trips are
checked against, the closed-loop channel gains that the RGA is checked
against, and CSV writers for the model and trajectory files the program
only reads, and the stray values that the argument properties put in
place of one argument of a valid call.
Also hooks into the per-block form of the CSV writers, to see which
process formats each block when the blocks are shared across CPUs.
"""

import csv
import io
import math
import os
import time

import numpy as np
from hypothesis import strategies as st

from coldstart.dsmc import BETA_DEFAULT, RHO_DEFAULTS, AdaptiveLoop, CascadeController
from coldstart.errors import ConfigError, DegenerateInputError, SingularGainError
from coldstart.rga import DEFAULT_COND_LIMIT, FirstOrderTF, TFMatrix, _check_invertible
from coldstart.trajectory import COLUMNS, TrajectoryTable


STRAY = st.text(max_size=3) | st.none() | st.booleans() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -1, 10**5000]
)
# a stray value, or a list, dict or tuple (of any length) holding stray values or floats
STRAYS = st.one_of(
    STRAY,
    st.lists(STRAY | st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=2), STRAY, max_size=2),
    st.lists(STRAY | st.floats(), max_size=3).map(tuple),
)


def to_gain_time_constant(tf: FirstOrderTF) -> tuple[float, float]:
    """Rewrite 1/(tau*s + k) as K/(T*s + 1); returns (K, T)."""
    if tf.k == 0.0:
        raise SingularGainError("k = 0 cannot be expressed in unit-denominator form")
    return 1.0 / tf.k, tf.tau / tf.k


def from_gain_time_constant(gain: float, time_constant: float) -> FirstOrderTF:
    """Inverse of ``to_gain_time_constant``."""
    if gain == 0.0:
        raise ValueError("zero gain has no first-order inverse form")
    return FirstOrderTF(tau=time_constant / gain, k=1.0 / gain)


def reference_quantize(value: float, bits: int, lo: float, hi: float) -> float:
    """Uniform mid-tread quantizer over [lo, hi], written out plainly: the
    oracle ``looplab.adc_channel`` is checked against bit for bit."""
    if bits < 1:
        raise ConfigError(f"quantizer needs at least 1 bit, got {bits!r}")
    if not lo < hi:
        raise ConfigError(f"quantizer range must satisfy lo < hi, got ({lo!r}, {hi!r})")
    if math.isnan(value):
        raise DegenerateInputError(f"cannot quantize NaN over ({lo!r}, {hi!r})")
    clamped = min(max(value, lo), hi)
    levels = (1 << bits) - 1
    code = round((clamped - lo) / (hi - lo) * levels)
    return lo + code * (hi - lo) / levels


def reference_catalyst_efficiency(afr_value: float, t_cat: float, afr_ref: float) -> float:
    """``plant.catalyst_efficiency`` with its four clamps written as the
    builtin ``min`` and ``max``: the oracle its comparisons are checked
    against, NaN and -0.0 included."""
    afr_exp = min(-5.0 * (afr_value / afr_ref - 0.7) ** 15, 700.0)
    temp_exp = min(-0.2 * ((t_cat - 30.0) / 150.0) ** 5, 700.0)
    eta = 0.98 * (1.0 - math.exp(afr_exp)) * (1.0 - math.exp(temp_exp))
    return min(max(eta, 0.0), 0.98)


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


def closed_loop_gains(p: np.ndarray, cond_limit: float = DEFAULT_COND_LIMIT) -> np.ndarray:
    """Apparent channel gains with all other loops closed: 1 / inv(P).T.

    Accepts one matrix or a (..., n, n) stack.  Entries where inv(P).T
    vanishes (no closed-loop path) come out infinite.
    """
    p = np.asarray(p, dtype=complex)
    _check_invertible(p, cond_limit)
    c = np.swapaxes(np.linalg.inv(p), -1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(c == 0, np.inf + 0j, 1.0 / c)


def tf_matrix_csv(tfm: TFMatrix) -> str:
    """One row per output; per input a (tau, k) column pair, blank when zero:
    the layout ``TFMatrix.from_csv`` reads."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["row"]
    for j in range(tfm.n):
        header += [f"tau_{j + 1}", f"k_{j + 1}"]
    writer.writerow(header)
    for i, row in enumerate(tfm.entries):
        cells = [str(i + 1)]
        for tf in row:
            cells += ["", ""] if tf is None else [repr(tf.tau), repr(tf.k)]
        writer.writerow(cells)
    return buf.getvalue()


def trajectory_csv(table: TrajectoryTable) -> str:
    """The layout ``TrajectoryTable.from_csv`` reads."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in zip(table.time, table.afr_d, table.omega_d, table.t_exh_d):
        writer.writerow([repr(v) for v in row])
    return buf.getvalue()


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
