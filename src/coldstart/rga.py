"""Relative-gain-array coupling analysis over first-order loop models.

Each open-loop channel is a first-order transfer function written as
1/(tau*s + k); the array quantifies how much each input-output pairing
changes when the other loops are closed, frequency by frequency.  Also
includes least-squares identification of the channel models from sampled
step or noise responses.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fanout
from .errors import ConfigError, IdentificationError, SingularGainError, SingularMatrixError
from .plant import real
from .tables import csv_float

DEFAULT_COND_LIMIT = 1e12
DEFAULT_GRID = (1e-2, 1e2, 200)  # rad/s span and point count of the sweep
MIN_FIT_SAMPLES = 10  # the fewest samples a first-order fit takes
EXCITATION_FLOOR = 1e-12  # a variance at most this times max(1, mean**2) is a constant signal


@dataclass(frozen=True)
class FirstOrderTF:
    """First-order channel model 1/(tau*s + k)."""

    tau: float  # [s]
    k: float    # inverse DC gain [-]

    def __post_init__(self):
        for name in ("tau", "k"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.tau == 0.0 and self.k == 0.0:
            raise ConfigError("tau and k cannot both be zero")


def freq_response(tf: FirstOrderTF, omega):
    """Evaluate 1/(j*omega*tau + k); omega may be a scalar or an array.
    OverflowError where omega*tau is too large for a float."""
    w = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore"):
        den = 1j * w * tf.tau + tf.k
    overflow = ~np.isfinite(den)
    if overflow.any():
        first = float(np.min(w[overflow]))
        raise OverflowError(f"response of 1/({tf.tau}*s + {tf.k}) overflows from omega = {first!r}")
    if np.any(den == 0):
        raise SingularGainError(
            f"response of 1/({tf.tau}*s + {tf.k}) is singular where omega*tau and k vanish"
        )
    out = 1.0 / den
    return complex(out) if np.isscalar(omega) or w.ndim == 0 else out


@dataclass(frozen=True)
class TFMatrix:
    """Square matrix of first-order channels; None marks explicit zero coupling."""

    entries: tuple  # tuple of tuples of FirstOrderTF | None

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ConfigError("empty transfer matrix")
        rows = []
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ConfigError(f"row {i} has {len(row)} entries, expected {n}")
            rows.append(tuple(row))
        object.__setattr__(self, "entries", tuple(rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def response(self, omega) -> np.ndarray:
        """Complex gain matrix at one frequency, (n, n), or over a 1-D array of
        frequencies, (F, n, n); zero-coupling entries give 0."""
        w = np.asarray(omega, dtype=float)
        p = np.zeros(w.shape + (self.n, self.n), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, tf in enumerate(row):
                if tf is not None:
                    p[..., i, j] = freq_response(tf, w)
        return p

    def to_json(self) -> str:
        cells = [
            [None if tf is None else {"tau": tf.tau, "k": tf.k} for tf in row]
            for row in self.entries
        ]
        return json.dumps({"n": self.n, "entries": cells}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TFMatrix":
        try:
            data = json.loads(text)
        except ValueError as err:  # not JSON, or an int of more digits than int() takes
            raise ConfigError(f"transfer matrix is not valid JSON: {err}") from None
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise ConfigError("transfer matrix JSON must be an object with an 'entries' array")
        n = data.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"transfer matrix n must be a positive integer, got {n!r}")
        entries = data["entries"]
        if len(entries) != n:
            raise ConfigError(f"transfer matrix n is {n}, but entries has length {len(entries)}")
        rows = []
        for i, row in enumerate(entries, start=1):
            if not isinstance(row, list):
                raise ConfigError(
                    f"transfer matrix row {i} must be an array, not {type(row).__name__}"
                )
            if len(row) != n:
                raise ConfigError(f"transfer matrix n is {n}, but row {i} has length {len(row)}")
            cells = []
            for j, c in enumerate(row, start=1):
                if c is None:
                    cells.append(None)
                    continue
                if not isinstance(c, dict) or set(c) != {"tau", "k"}:
                    raise ConfigError(f"channel ({i},{j}) must be null or an object of tau and k")
                tau, k = (real(c[name], f"channel ({i},{j}): {name}") for name in ("tau", "k"))
                try:
                    cells.append(FirstOrderTF(tau, k))
                except ConfigError as err:
                    raise ConfigError(f"channel ({i},{j}): {err}") from None
            rows.append(tuple(cells))
        return cls(tuple(rows))

    @classmethod
    def from_csv(cls, text: str) -> "TFMatrix":
        """One row per output after a header line; per input a (tau, k) pair
        of cells, both blank for no coupling. Each cell is read by
        ``tables.csv_float``, and an error names its line."""
        reader = csv.reader(io.StringIO(text))
        try:
            rows = [(reader.line_num, r) for r in reader if r]
        except csv.Error as err:
            raise ConfigError(f"line {reader.line_num}: {err}") from None
        if len(rows) < 2:
            raise ConfigError("transfer matrix CSV needs a header and at least one row")
        line, header = rows[0]
        if len(header) < 3 or len(header) % 2 == 0:
            raise ConfigError(f"line {line}: header needs a label and a (tau, k) pair per input")
        n = (len(header) - 1) // 2
        m = len(rows) - 1
        if m != n:  # named at the first row past n, or at the last row
            line = rows[min(m, n + 1)][0]
            raise ConfigError(f"line {line}: a model of {n} inputs needs {n} rows, the CSV has {m}")
        out = []
        for i, (line, r) in enumerate(rows[1:], start=1):
            if len(r) != 1 + 2 * n:
                raise ConfigError(f"line {line} has {len(r)} fields, expected {1 + 2 * n}")
            row = []
            for j in range(n):
                tau_s, k_s = r[1 + 2 * j], r[2 + 2 * j]
                where = f"channel ({i},{j + 1}) on line {line}"
                if (tau_s == "") != (k_s == ""):
                    raise ConfigError(f"{where}: tau and k must both be set or both blank")
                if tau_s == "":
                    row.append(None)
                    continue
                try:
                    row.append(FirstOrderTF(csv_float(tau_s), csv_float(k_s)))
                except ValueError as err:  # csv_float's, or the channel's ConfigError
                    raise ConfigError(f"{where}: {err}") from None
            out.append(tuple(row))
        return cls(tuple(out))


def _ill_conditioned(cond: np.ndarray, cond_limit: float) -> np.ndarray:
    """Where a condition number is non-finite or above ``cond_limit``."""
    return ~np.isfinite(cond) | (cond > cond_limit)


def _check_invertible(p: np.ndarray, cond_limit: float) -> None:
    """SingularMatrixError if a square matrix, or any member of a (..., n, n)
    stack, is too ill-conditioned to invert."""
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ConfigError(f"gain matrix must be square, got shape {p.shape}")
    cond = np.linalg.cond(p)
    bad = _ill_conditioned(cond, cond_limit)
    if bad.any():
        worst = np.max(cond[bad])
        raise SingularMatrixError(f"condition number {worst:.3e} above limit {cond_limit:.3e}")


def _rga(p: np.ndarray) -> np.ndarray:
    """P .* inv(P).T of each matrix, with no conditioning check."""
    return p * np.swapaxes(np.linalg.inv(p), -1, -2)


def rga_of_matrix(p: np.ndarray, cond_limit: float = DEFAULT_COND_LIMIT) -> np.ndarray:
    """Relative gain array P .* inv(P).T of a complex gain matrix, or of each
    matrix in a (..., n, n) stack."""
    p = np.asarray(p, dtype=complex)
    _check_invertible(p, cond_limit)
    return _rga(p)


@dataclass
class RGAResult:
    """Frequency sweep of the relative gain array.

    ``lambdas`` is (n_freq, n, n) complex with NaN rows where the gain matrix
    was too ill-conditioned (``gaps`` marks those).  ``mags_db`` holds
    20*log10|lambda| with -inf for exact zeros.  ``dominance`` gives, per
    diagonal pairing, the fraction of non-gap frequencies whose |lambda_ii|
    stays within +-3 dB of unity.
    """

    omegas: np.ndarray
    lambdas: np.ndarray
    gaps: np.ndarray
    mags_db: np.ndarray = field(init=False)
    dominance: np.ndarray = field(init=False)

    def __post_init__(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            self.mags_db = 20.0 * np.log10(np.abs(self.lambdas))
        ok = ~self.gaps
        n = self.lambdas.shape[1]
        scores = np.full(n, np.nan)
        if ok.any():
            diag_db = self.mags_db[ok][:, range(n), range(n)]
            scores = np.mean(np.abs(diag_db) <= 3.0, axis=0)
        self.dominance = scores

    def to_csv(self) -> str:
        """One row per frequency: omega, the gap flag, each element's real and
        imaginary part, then each element's dB magnitude; gap rows are blank.

        Rows are converted a block of ``fanout.BLOCK_ROWS`` at a time, the
        blocks shared across CPUs by ``fanout.join_blocks``.
        """
        n = self.lambdas.shape[1]
        header = ["omega", "gap"]
        for i in range(n):
            for j in range(n):
                header += [f"re_{i + 1}_{j + 1}", f"im_{i + 1}_{j + 1}"]
        for i in range(n):
            for j in range(n):
                header.append(f"db_{i + 1}_{j + 1}")
        rows = fanout.join_blocks(len(self.omegas), self._csv_rows)
        return ",".join(header) + "\n" + rows

    def _csv_rows(self, block: slice) -> str:
        """The CSV lines of the frequencies in ``block``.  Every field is a
        float repr, a flag or blank, none of which needs CSV quoting, so the
        fields are joined directly."""
        n = self.lambdas.shape[1]
        gap_tail = ",1" + "," * (3 * n * n) + "\n"
        lam = self.lambdas[block].reshape(-1, n * n)
        values = np.concatenate(
            [
                np.stack([lam.real, lam.imag], axis=-1).reshape(len(lam), -1),
                self.mags_db[block].reshape(len(lam), -1),
            ],
            axis=1,
        )
        return "".join(
            repr(w) + gap_tail if gap else f"{w!r},0,{','.join(map(repr, row))}\n"
            for w, gap, row in zip(
                self.omegas[block].tolist(), self.gaps[block].tolist(), values.tolist()
            )
        )


def rga_sweep(
    tfm: TFMatrix,
    w_min: float = DEFAULT_GRID[0],
    w_max: float = DEFAULT_GRID[1],
    n_points: int = DEFAULT_GRID[2],
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> RGAResult:
    """Log-spaced RGA sweep; ill-conditioned frequencies become gaps.
    OverflowError where a response or an RGA element overflows a float."""
    if not (w_min > 0 and w_max > w_min):
        raise ConfigError(f"need 0 < w_min < w_max, got [{w_min}, {w_max}]")
    if n_points < 1:
        raise ConfigError("n_points must be at least 1")
    omegas = np.logspace(math.log10(w_min), math.log10(w_max), n_points)
    p = tfm.response(omegas)
    # gap rows are left out first: one singular member fails a batched
    # inverse, and the mask is the conditioning check of the rows kept
    gaps = _ill_conditioned(np.linalg.cond(p), cond_limit)
    lambdas = np.full(p.shape, np.nan, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        lambdas[~gaps] = _rga(p[~gaps])
    lost = ~gaps & ~np.isfinite(lambdas).all(axis=(1, 2))
    if lost.any():
        raise OverflowError(f"RGA overflows from omega = {float(omegas[lost][0])!r}")
    return RGAResult(omegas=omegas, lambdas=lambdas, gaps=gaps)


# ---------------------------------------------------------------------------
# identification


@dataclass(frozen=True)
class FirstOrderFit:
    """Least-squares result for one channel.

    ``a``/``b`` are the one-step regression coefficients
    y[k+1] = a*y[k] + b*u[k]; ``tau_identifiable`` is False when only the DC
    gain could be extracted (constant input and settled output).
    """

    tf: FirstOrderTF
    a: float
    b: float
    residual_rms: float
    tau_identifiable: bool = True


def identify_first_order(u, y, T: float) -> FirstOrderFit:
    """Fit 1/(tau*s + k) to one sampled input/output pair.

    The discrete regression picks up the sampled pole and DC gain; the pole is
    mapped back with the step time ``T``.  A constant, already-settled record
    still yields the DC gain but no time constant.
    """
    u = np.asarray(u, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if T <= 0:
        raise IdentificationError(f"step time must be positive, got {T}")
    if len(u) != len(y):
        raise IdentificationError(f"length mismatch: {len(u)} inputs vs {len(y)} outputs")
    if len(u) < MIN_FIT_SAMPLES:
        raise IdentificationError(f"need at least {MIN_FIT_SAMPLES} samples, got {len(u)}")

    u_mean = float(np.mean(u))
    if float(np.var(u)) <= EXCITATION_FLOOR * max(1.0, u_mean * u_mean):
        y_mean = float(np.mean(y))
        if float(np.var(y)) <= EXCITATION_FLOOR * max(1.0, y_mean * y_mean) and y_mean != 0.0:
            # settled DC record: gain is known, the pole is not
            if u_mean == 0.0:
                raise IdentificationError(f"output settled at {y_mean!r} with no input")
            gain = y_mean / u_mean
            resid = float(np.sqrt(np.mean((y - gain * u) ** 2)))
            return FirstOrderFit(
                tf=FirstOrderTF(tau=0.0, k=1.0 / gain),
                a=math.nan,
                b=math.nan,
                residual_rms=resid,
                tau_identifiable=False,
            )
        raise IdentificationError(
            f"input excitation below floor (var={np.var(u):.3e}) with unsettled output"
        )

    phi = np.column_stack([y[:-1], u[:-1]])
    target = y[1:]
    theta, *_ = np.linalg.lstsq(phi, target, rcond=None)
    a, b = float(theta[0]), float(theta[1])
    resid = float(np.sqrt(np.mean((target - phi @ theta) ** 2)))
    if not 0.0 < a < 1.0:
        raise IdentificationError(
            f"discrete pole a={a:.6g} outside (0, 1); not a stable first-order lag"
            f" (b={b:.6g}, residual_rms={resid:.3e})"
        )
    pole = -math.log(a) / T
    gain = b / (1.0 - a)
    if gain == 0.0:
        raise IdentificationError("zero DC gain; channel looks like no coupling")
    k = 1.0 / gain
    tau = k / pole
    return FirstOrderFit(tf=FirstOrderTF(tau=tau, k=k), a=a, b=b, residual_rms=resid)


@dataclass
class MimoIdentification:
    """Per-pair fits of a square channel matrix from single-input experiments."""

    tfm: TFMatrix
    fits: dict       # (i, j) 1-based -> FirstOrderFit
    holes: dict      # (i, j) 1-based -> reason string ("zero response" or error text)


def identify_mimo(u_series, y_series, T: float, on_error: str = "raise") -> MimoIdentification:
    """Identify every channel of a square system, one input excited at a time.

    ``u_series`` is (n, N): row j is input j's trace during its experiment.
    ``y_series`` is (n, n, N): [i, j] is output i's response in experiment j.
    A flat output becomes an explicit zero-coupling entry.  With
    ``on_error="hole"`` failed fits leave holes instead of raising.
    """
    u_series = np.asarray(u_series, dtype=float)
    y_series = np.asarray(y_series, dtype=float)
    if u_series.ndim != 2:
        raise IdentificationError(f"u_series must be 2-d, got shape {u_series.shape}")
    n = u_series.shape[0]
    if y_series.shape[:2] != (n, n) or y_series.shape[2] != u_series.shape[1]:
        raise IdentificationError(
            f"y_series shape {y_series.shape} incompatible with u_series {u_series.shape}"
        )
    if on_error not in ("raise", "hole"):
        raise ConfigError("on_error must be 'raise' or 'hole'")

    entries = [[None] * n for _ in range(n)]
    fits, holes = {}, {}
    for j in range(n):
        u = u_series[j]
        for i in range(n):
            y = y_series[i, j]
            # an overflow, or a fit no FirstOrderTF can hold, fails the pair
            try:
                with np.errstate(over="raise", invalid="raise"):
                    u_power = max(float(np.var(u)), 1.0)
                    if float(np.var(y)) <= 1e-16 * u_power and abs(float(np.mean(y))) < 1e-12:
                        holes[(i + 1, j + 1)] = "zero response"
                        continue
                    fit = identify_first_order(u, y, T)
            except (IdentificationError, ConfigError, FloatingPointError) as exc:
                if on_error == "raise":
                    raise IdentificationError(str(exc), pair=(i + 1, j + 1)) from exc
                holes[(i + 1, j + 1)] = f"fit failed: {exc}"
                continue
            fits[(i + 1, j + 1)] = fit
            entries[i][j] = fit.tf
    return MimoIdentification(tfm=TFMatrix(entries), fits=fits, holes=holes)
