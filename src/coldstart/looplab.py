"""Closed-loop execution lab: ADC emulation, Euler stepping, records, metrics.

The loop emulates a controller running on sampled hardware: feedback is
digitized by a uniform quantizer at a fixed word length, the cascade runs
once per sample, commands are digitized the same way and held for one sample,
and the plant advances by explicit Euler with a scalar multiplicative
uncertainty injected on each controlled state's drift term.

Everything is deterministic: the same scenario config always produces the
same record, byte for byte in serialized form.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Any, NoReturn

import numpy as np

from . import dsmc, fanout, plant
from .errors import ConfigError, DegenerateInputError, SimulationAbort
from .plant import PhiTrue
from .rga import CSV_BLOCK_ROWS
from .trajectory import COLUMNS as TRAJECTORY_COLUMNS
from .trajectory import SampledTrajectory, TrajectoryTable, default_table

LOOPS = ("fuel", "speed", "exh", "air")
# plant constants the model divides by; zero or negative values are rejected
POSITIVE_CONSTANTS = ("J", "alpha_f", "mcp", "r_c", "afr_cat")

# Euler substeps per sample at most: a run's cost is linear in them, and at
# the shipped T of 20 ms this is a 20 us plant step
MAX_SUBSTEPS = 1000

# ADC spans per signal; command spans default to the actuator bounds.
DEFAULT_SIGNAL_RANGES: dict[str, tuple[float, float]] = {
    "m_a": (0.0, 0.05),
    "omega_e": (0.0, 600.0),
    "mdot_f": (0.0, 0.01),
    "t_cat": (0.0, 1000.0),
    "t_exh": (0.0, 1000.0),
    "mdot_ai": (0.0, 0.1),
    "mdot_fc": (0.0, 0.01),
    "delta": (-10.0, 45.0),
}


# ---------------------------------------------------------------------------
# ADC emulation


def quantize(value: float, bits: int, lo: float, hi: float) -> float:
    """Uniform mid-tread quantizer over [lo, hi]; out-of-range values clamp.

    NaN has no code and raises DegenerateInputError.
    """
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


def adc_channel(bits: int, lo: float, hi: float):
    """``quantize`` bound to one word length and span, checked once: the same
    expression order gives the same float for every input, and NaN raises."""
    if bits < 1:
        raise ConfigError(f"quantizer needs at least 1 bit, got {bits!r}")
    if not lo < hi:
        raise ConfigError(f"quantizer range must satisfy lo < hi, got ({lo!r}, {hi!r})")
    width = hi - lo
    levels = (1 << bits) - 1

    def channel(value: float) -> float:
        if value != value:
            raise DegenerateInputError(f"cannot quantize NaN over ({lo!r}, {hi!r})")
        clamped = lo if value < lo else hi if value > hi else value
        return lo + round((clamped - lo) / width * levels) * width / levels

    return channel


def euler_step(
    state: plant.EngineState,
    inputs: plant.ControlInput,
    model: plant.PlantModel,
    T: float,
    substeps: int = 1,
) -> tuple[plant.EngineState, plant.EmissionOutputs]:
    """One fixed-step Euler advance of ``model`` over ``T`` with ``inputs`` held.

    Returns the next state and the emission chain evaluated at the start
    state, which is the record row of this step.  ``substeps > 1``
    subdivides the interval (stiffness check only; the shipped scenarios
    use a single step).
    """
    if substeps < 1:
        raise ConfigError(f"substeps must be a positive integer, got {substeps!r}")
    h = T / substeps
    state, emission = model.step(state, inputs, h)
    for _ in range(substeps - 1):
        state, _ = model.step(state, inputs, h)
    return plant.EngineState(*state), plant.EmissionOutputs(*emission)


# ---------------------------------------------------------------------------
# scenario configuration


def _real(value, name: str) -> float:
    """``value`` as a finite float; ConfigError naming the field otherwise."""
    number = plant.finite_float(value)
    if number is None:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _count(value, name: str, low: int) -> int:
    """``value`` as an integer of at least ``low``; ConfigError otherwise."""
    if _real(value, name) != int(value) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _pair(value, name: str) -> tuple[float, float]:
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a (lo, hi) pair, got {value!r}") from None
    lo, hi = _real(lo, f"{name}[0]"), _real(hi, f"{name}[1]")
    if not lo < hi:
        raise ConfigError(f"{name} must satisfy lo < hi, got ({lo!r}, {hi!r})")
    return lo, hi


# initial_state fields under their JSON names, in EngineState order
STATE_KEYS = ("m_a", "omega_e", "mdot_f", "t_cat", "t_exh")


def _engine_state(value) -> plant.EngineState:
    """An EngineState, 5 numbers or a ``STATE_KEYS`` object, as an EngineState of floats."""
    if isinstance(value, dict):
        if set(value) != set(STATE_KEYS):
            raise ConfigError(f"initial_state must be an object with fields {sorted(STATE_KEYS)}")
        value = [value[k] for k in STATE_KEYS]
    if not isinstance(value, (tuple, list)) or len(value) != len(STATE_KEYS):
        raise ConfigError(f"initial_state must be 5 numbers or an object, got {value!r}")
    return plant.EngineState(*(_real(v, f"initial_state.{k}") for k, v in zip(STATE_KEYS, value)))


def _phi_true(value) -> PhiTrue:
    """``value`` (a PhiTrue, or an object keyed by loop names) as a PhiTrue."""
    if isinstance(value, PhiTrue):
        return value
    if not isinstance(value, dict):
        raise ConfigError("phi_true must be an object with the four loop names")
    unknown = sorted(set(value) - set(LOOPS))
    if unknown:
        raise ConfigError(f"phi_true has unknown loop(s) {unknown}")
    return PhiTrue(**{k: _real(v, f"phi_true.{k}") for k, v in value.items()})


@dataclass
class ScenarioConfig:
    """Everything one closed-loop run depends on.

    Serializes to plain JSON; ``from_dict`` rejects unknown keys so config
    typos fail loudly instead of silently running defaults.
    """

    T: float = 0.02
    duration: float = 40.0
    quantization_enabled: bool = True
    quant_bits: int = 16
    signal_ranges: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_SIGNAL_RANGES)
    )
    phi_true: PhiTrue = field(default_factory=PhiTrue)
    adaptation_enabled: bool = True
    adapt_sign: float = 1.0
    phi_hat_init: float = 1.0
    beta: dict[str, float] = field(default_factory=lambda: {k: dsmc.BETA_DEFAULT for k in LOOPS})
    rho: dict[str, float] = field(default_factory=lambda: dict(dsmc.RHO_DEFAULTS))
    bounds: dsmc.ActuatorBounds = field(default_factory=dsmc.ActuatorBounds)
    afi_floor: float = dsmc.AFI_FLOOR_DEFAULT
    # default start: cranking speed, air mass just under its idle equilibrium,
    # fuel flow consistent with the rich initial AFR target
    initial_state: plant.EngineState = field(
        default_factory=lambda: plant.EngineState(
            m_a=0.004, omega_e=125.0, mdot_f=7.7e-4, T_cat=25.0, T_exh=25.0
        )
    )
    delta_initial: float = 0.0
    substeps: int = 1
    feedback_delay_steps: int = 0
    metrics_window_start: float = 5.0
    hc_mode: str = "unburned_fraction"
    qgen_grouping: str = "as_printed"
    # shipped default differs from the plant-level default: feed-gas heat
    # warms the brick, otherwise the catalyst can never light off
    qin_direction: str = "heats_catalyst"
    constants: dict[str, float] = field(default_factory=dict)
    trajectory: TrajectoryTable | None = None  # None -> shipped default profile

    def __post_init__(self):
        for name in (
            "T", "duration", "adapt_sign", "phi_hat_init", "afi_floor", "delta_initial",
            "metrics_window_start",
        ):
            _real(getattr(self, name), name)
        if self.adapt_sign not in (-1.0, 1.0):
            raise ConfigError(f"adapt_sign must be +1 or -1, got {self.adapt_sign!r}")
        for name in ("quantization_enabled", "adaptation_enabled"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        for dict_name in ("beta", "rho", "constants"):
            values = getattr(self, dict_name)
            if not isinstance(values, dict):
                raise ConfigError(f"{dict_name} must be an object")
            setattr(self, dict_name, {k: _real(v, f"{dict_name}.{k}") for k, v in values.items()})
        if self.T <= 0.0:
            raise ConfigError(f"T must be positive, got {self.T!r}")
        if self.duration < 0.0:
            raise ConfigError(f"duration must be nonnegative, got {self.duration!r}")
        self.quant_bits = _count(self.quant_bits, "quant_bits", 8)
        if self.quant_bits > 32:
            raise ConfigError(f"quant_bits must be in [8, 32], got {self.quant_bits!r}")
        for name in DEFAULT_SIGNAL_RANGES:
            if name not in self.signal_ranges:
                raise ConfigError(f"signal_ranges is missing {name!r}")
        self.signal_ranges = {
            name: _pair(value, f"signal_ranges.{name}")
            for name, value in self.signal_ranges.items()
        }
        extra = set(self.signal_ranges) - set(DEFAULT_SIGNAL_RANGES)
        if extra:
            raise ConfigError(f"signal_ranges has unknown signal(s) {sorted(extra)}")
        for loops_dict, name in ((self.beta, "beta"), (self.rho, "rho")):
            if set(loops_dict) != set(LOOPS):
                raise ConfigError(f"{name} must have exactly the loops {LOOPS}")
        for loop, b in self.beta.items():
            if not 0.0 < b < 1.0:
                raise ConfigError(f"beta.{loop} must lie in (0, 1), got {b!r}")
        for loop, r in self.rho.items():
            if not r > 0.0:
                raise ConfigError(f"rho.{loop} must be positive, got {r!r}")
        unknown = set(self.constants) - {f.name for f in fields(plant.PlantConstants)}
        if unknown:
            raise ConfigError(f"constants has unknown field(s) {sorted(unknown, key=str)}")
        for name in POSITIVE_CONSTANTS:
            value = self.constants.get(name)
            if value is not None and not value > 0.0:
                raise ConfigError(f"constants.{name} must be positive, got {value!r}")
        substeps = _count(self.substeps, "substeps", 1)
        if substeps > MAX_SUBSTEPS:
            raise ConfigError(f"substeps must be in [1, {MAX_SUBSTEPS}], got {self.substeps!r}")
        self.substeps = substeps
        self.feedback_delay_steps = _count(self.feedback_delay_steps, "feedback_delay_steps", 0)
        if self.metrics_window_start < 0.0:
            raise ConfigError(
                f"metrics_window_start must be nonnegative, got {self.metrics_window_start!r}"
            )
        self.initial_state = _engine_state(self.initial_state)
        self.phi_true = _phi_true(self.phi_true)
        if not isinstance(self.bounds, dsmc.ActuatorBounds):
            raise ConfigError(f"bounds must be ActuatorBounds, got {self.bounds!r}")
        if self.trajectory is not None and not isinstance(self.trajectory, TrajectoryTable):
            raise ConfigError(f"trajectory must be a TrajectoryTable, got {self.trajectory!r}")
        # constructing the conventions validates the three mode strings
        self.build_conventions()

    # -- derived builders ---------------------------------------------------

    def build_constants(self) -> plant.PlantConstants:
        return replace(plant.PlantConstants(), **self.constants)

    def build_conventions(self) -> plant.PlantConventions:
        try:
            return plant.PlantConventions(
                hc_mode=self.hc_mode,
                qgen_grouping=self.qgen_grouping,
                qin_direction=self.qin_direction,
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def build_controller(self) -> dsmc.CascadeController:
        def loop(name: str) -> dsmc.AdaptiveLoop:
            return dsmc.AdaptiveLoop(
                beta=self.beta[name],
                rho=self.rho[name],
                phi_hat=self.phi_hat_init,
                adaptation_enabled=self.adaptation_enabled,
                adapt_sign=self.adapt_sign,
            )

        return dsmc.CascadeController(
            loop("fuel"),
            loop("speed"),
            loop("exh"),
            loop("air"),
            T=self.T,
            constants=self.build_constants(),
            bounds=self.bounds,
            afi_floor=self.afi_floor,
            delta_initial=self.delta_initial,
        )

    def sampled_trajectory(self) -> SampledTrajectory:
        table = self.trajectory if self.trajectory is not None else default_table(self.duration)
        return table.sample(self.T, self.duration)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The fields in declaration order, as plain JSON values."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            signal_ranges={k: list(v) for k, v in self.signal_ranges.items()},
            phi_true={k: getattr(self.phi_true, k) for k in LOOPS},
            beta=dict(self.beta),
            rho=dict(self.rho),
            bounds={f.name: list(getattr(self.bounds, f.name)) for f in fields(self.bounds)},
            initial_state=dict(zip(STATE_KEYS, self.initial_state)),
            constants=dict(self.constants),
            trajectory=None
            if self.trajectory is None
            else {k: list(getattr(self.trajectory, k)) for k in TRAJECTORY_COLUMNS},
        )
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"config has unknown key(s) {unknown}")
        kwargs = dict(data)
        if "signal_ranges" in kwargs:
            if not isinstance(kwargs["signal_ranges"], dict):
                raise ConfigError("signal_ranges must be an object")
            kwargs["signal_ranges"] = {**DEFAULT_SIGNAL_RANGES, **kwargs["signal_ranges"]}
        if "bounds" in kwargs:
            b = kwargs["bounds"]
            if not isinstance(b, dict) or set(b) - {"mdot_ai", "mdot_fc", "delta"}:
                raise ConfigError("bounds must be an object with mdot_ai/mdot_fc/delta pairs")
            kwargs["bounds"] = dsmc.ActuatorBounds(
                **{k: _pair(v, f"bounds.{k}") for k, v in b.items()}
            )
        if kwargs.get("trajectory") is not None:
            t = kwargs["trajectory"]
            if not isinstance(t, dict) or set(t) != set(TRAJECTORY_COLUMNS):
                raise ConfigError(
                    f"trajectory must be an object with columns {sorted(TRAJECTORY_COLUMNS)}"
                )
            if not all(isinstance(t[k], (list, tuple)) for k in TRAJECTORY_COLUMNS):
                raise ConfigError("trajectory columns must be arrays of numbers")
            kwargs["trajectory"] = TrajectoryTable(
                **{
                    k: tuple(_real(v, f"trajectory.{k}[{i}]") for i, v in enumerate(t[k]))
                    for k in TRAJECTORY_COLUMNS
                }
            )
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except ValueError as err:  # not JSON, or an int of more digits than int() takes
            raise ConfigError(f"config is not valid JSON: {err}") from None
        return cls.from_dict(data)


def apply_overrides(data: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply dotted-path ``key=value`` overrides to a config dict.

    Values parse as JSON when possible (numbers, booleans, null, arrays),
    otherwise they are taken as literal strings.  Paths must address keys
    that already exist in the dict being overridden.
    """
    out = json.loads(json.dumps(data))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        target = out
        for key in keys[:-1]:
            if not isinstance(target, dict) or key not in target:
                raise ConfigError(f"override path {path!r} has no match at {key!r}")
            target = target[key]
        last = keys[-1]
        if not isinstance(target, dict) or last not in target:
            raise ConfigError(f"override path {path!r} has no match at {last!r}")
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an int of more digits than int() takes
            value = raw
        target[last] = value
    return out


# ---------------------------------------------------------------------------
# run records


# fixed column order of the serialized record: the float columns, the three
# saturation flags (written as 0/1), then the free-text events column
_FLOAT_COLUMNS = (
    "time",
    "m_a", "omega_e", "mdot_f", "t_cat", "t_exh",
    "mdot_ai", "mdot_fc", "delta",
    "m_a_d",
    "s1", "s2", "s3", "s4",
    "xi1", "xi2", "xi3", "xi4",
    "phi_hat_fuel", "phi_hat_speed", "phi_hat_exh", "phi_hat_air",
    "f_fuel", "f_speed", "f_exh", "f_air",
    "afr", "afr_d", "omega_d", "t_exh_d", "afr_error",
    "hc_eng", "hc_tp", "hc_cum", "eta_cat",
)
_FLAG_COLUMNS = ("sat_air", "sat_fuel", "sat_delta")
RECORD_COLUMNS = _FLOAT_COLUMNS + _FLAG_COLUMNS + ("events",)
# characters that make a field need quoting
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


# any character other than a line end
_NON_BLANK = re.compile(r"[^\r\n]")


def read_csv_body(text: str, converters=None) -> np.ndarray | None:
    """The rows after the header line of ``text`` as one (rows, columns)
    float table, read by numpy's C reader, or None when no row holds data.

    Cells are converted by the routine ``float()`` uses, quoted fields may
    hold commas, quotes, CR and LF, and blank lines are skipped. Every row
    must have the same number of fields. Raises ValueError where numpy
    refuses the text; the caller re-reads it to name the line and column.
    """
    header_end = text.find("\n")
    if header_end < 0 or _NON_BLANK.search(text, header_end + 1) is None:
        return None  # checked first: numpy warns on a body with no data
    return np.loadtxt(
        io.StringIO(text), dtype=float, delimiter=",", quotechar='"', comments=None,
        skiprows=1, ndmin=2, encoding=None, converters=converters,
    )


def csv_float(cell: str) -> float:
    """The number in one CSV cell, refusing what numpy's C reader refuses
    and ``float()`` takes: underscores and non-ASCII digits.  Both skip
    whitespace, Unicode or not, around the number."""
    number = cell.strip()
    if "_" in number or not number.isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(number)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with quotes doubled, when it holds
    a comma, a quote, CR or LF.  This is csv.writer's quoting, except that a
    bare CR is quoted too, so the csv reader can read the field back."""
    if not _CSV_SPECIAL.search(text):
        return text
    return '"' + text.replace('"', '""') + '"'


@dataclass
class RunRecord:
    """Per-sample series of one closed-loop run plus the scenario echo."""

    series: dict[str, np.ndarray]
    events: list[str]  # one (possibly empty) ;-joined string per sample
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.series.values()}
        if len(lengths) != 1 or len(self.events) not in lengths:
            raise ValueError("all record series must share one grid")
        missing = [c for c in RECORD_COLUMNS if c != "events" and c not in self.series]
        if missing:
            raise ValueError(f"record is missing column(s) {missing}")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def times(self) -> np.ndarray:
        return self.series["time"]

    def to_csv(self) -> str:
        """One row per sample in ``RECORD_COLUMNS`` order: float reprs, 0/1
        flags, then the events text, quoted only where CSV needs it.

        Rows are converted a block of ``CSV_BLOCK_ROWS`` at a time, the
        blocks shared across CPUs by ``fanout.join_blocks``.
        """
        header = ",".join(RECORD_COLUMNS) + "\n"
        return header + fanout.join_blocks(len(self), CSV_BLOCK_ROWS, self._csv_rows)

    def _csv_rows(self, block: slice) -> str:
        """The CSV lines of the rows in ``block``, with no per-element numpy
        indexing and no full-size table of strings."""
        values = np.stack(
            [self.series[name][block] for name in _FLOAT_COLUMNS], axis=1, dtype=float
        ).tolist()
        flags = zip(*(self.series[name][block].tolist() for name in _FLAG_COLUMNS))
        return "".join(
            f"{','.join(map(repr, row))},{int(sat_air)},{int(sat_fuel)},"
            f"{int(sat_delta)},{_csv_field(event)}\n"
            for row, (sat_air, sat_fuel, sat_delta), event in zip(
                values, flags, self.events[block]
            )
        )

    @classmethod
    def from_csv(cls, text: str, meta: dict[str, Any] | None = None) -> "RunRecord":
        """Read a record written by ``to_csv``. The header is checked with the
        csv module and the body is read in one pass by ``read_csv_body``, so
        blank lines are skipped. Any fault is a ConfigError naming its line."""
        try:
            header = next(csv.reader(io.StringIO(text)), None)
        except csv.Error as err:
            raise ConfigError(f"run record line 1: {err}") from None
        if header is None:
            raise ConfigError("run record CSV is empty")
        if tuple(header) != RECORD_COLUMNS:
            raise ConfigError("run record CSV does not have the expected columns")
        events: list[str] = []

        def event(cell: str) -> float:
            events.append(cell)
            return 0.0

        try:
            table = read_csv_body(text, converters={len(RECORD_COLUMNS) - 1: event})
        except ValueError as err:
            _refuse_record(text, str(err))
        if table is None:
            table = np.empty((0, len(RECORD_COLUMNS)))
        elif table.shape[1] != len(RECORD_COLUMNS):
            _refuse_record(text, f"rows have {table.shape[1]} fields")
        columns = table.T.copy()  # one contiguous row per column
        series = dict(zip(RECORD_COLUMNS[:-1], columns))
        return cls(series=series, events=events, meta=dict(meta or {}))


def _refuse_record(text: str, reason: str) -> NoReturn:
    """Raise the ConfigError for a run record body the C reader refused,
    naming the first faulty line found by re-reading ``text`` row by row,
    or carrying ``reason`` when that finds none."""
    reader = csv.reader(io.StringIO(text))
    try:
        next(reader)
        for row in reader:
            if not row:
                continue  # skipped by the C reader too
            if len(row) != len(RECORD_COLUMNS):
                raise ConfigError(f"run record line {reader.line_num} has {len(row)} fields")
            for name, cell in zip(RECORD_COLUMNS[:-1], row):
                try:
                    csv_float(cell)
                except ValueError:
                    raise ConfigError(
                        f"run record line {reader.line_num}: column {name!r} is not a number"
                    ) from None
    except csv.Error as err:
        raise ConfigError(f"run record line {reader.line_num}: {err}") from None
    raise ConfigError(f"run record: {reason}")


def run_scenario(config: ScenarioConfig) -> RunRecord:
    """Execute one closed-loop scenario on the sample grid.

    Per step: sample (and quantize) feedback, run the cascade, quantize the
    commands, advance the plant one Euler step.  The row of each step takes
    the emission chain the Euler step evaluated at its start state, so the
    chain runs once per step.  The record gets one row per grid instant
    including the final state, where the last issued commands are shown held.
    """
    model = plant.PlantModel(config.build_constants(), config.build_conventions(), config.phi_true)
    controller = config.build_controller()
    traj = config.sampled_trajectory()
    n_steps = traj.n_steps
    T = config.T
    quantized = config.quantization_enabled
    # one ADC channel per signal, in DEFAULT_SIGNAL_RANGES order
    (
        adc_m_a, adc_omega_e, adc_mdot_f, adc_t_cat, adc_t_exh,
        adc_mdot_ai, adc_mdot_fc, adc_delta,
    ) = (
        adc_channel(config.quant_bits, *config.signal_ranges[name])
        for name in DEFAULT_SIGNAL_RANGES
    )
    isfinite = math.isfinite

    rows: list[tuple] = []  # one tuple per sample in _FLOAT_COLUMNS + _FLAG_COLUMNS order
    events: list[str] = []

    def check_state(state: plant.EngineState, step: int) -> None:
        m_a, omega_e, mdot_f, t_cat, t_exh = state
        if not (
            isfinite(m_a) and isfinite(omega_e) and isfinite(mdot_f)
            and isfinite(t_cat) and isfinite(t_exh)
        ):
            raise SimulationAbort(f"non-finite state {tuple(state)!r}", step=step)
        if omega_e <= 0.0:
            raise SimulationAbort(f"engine stalled: speed {omega_e!r} rad/s", step=step)

    state = config.initial_state
    check_state(state, 0)
    applied = (0.0, 0.0, config.delta_initial)  # commands in ControlInput order
    # optional sensor transport delay: the controller sees an older sample.
    # A delay of n_steps or more only ever shows the initial state, so the
    # line is sized by the run, not by the configured delay.
    depth = min(config.feedback_delay_steps, n_steps) + 1
    fb_queue: deque[plant.EngineState] = deque([state] * depth, maxlen=depth)

    for k in range(n_steps):
        targets = traj.window(k)
        feedback = fb_queue[0]
        if quantized:
            m_a, omega_e, mdot_f, t_cat, t_exh = feedback
            feedback = (
                adc_m_a(m_a), adc_omega_e(omega_e), adc_mdot_f(mdot_f), adc_t_cat(t_cat),
                adc_t_exh(t_exh),
            )
        try:
            out = controller.step(feedback, targets)
        except DegenerateInputError as err:
            raise SimulationAbort(f"controller: {err}", step=k) from None
        if quantized:
            applied = (adc_mdot_ai(out.mdot_ai), adc_mdot_fc(out.mdot_fc), adc_delta(out.delta))
        else:
            applied = (out.mdot_ai, out.mdot_fc, out.delta)
        try:
            next_state, emission = euler_step(state, applied, model, T, config.substeps)
        except DegenerateInputError as err:
            raise SimulationAbort(f"plant: {err}", step=k) from None
        _, afr_value, hc_eng, eta_cat, hc_tp = emission
        rows.append((
            k * T, *state, *applied,
            out.m_a_d, out.s1, out.s2, out.s3, out.s4, out.xi1, out.xi2, out.xi3, out.xi4,
            out.phi_hat_fuel, out.phi_hat_speed, out.phi_hat_exh, out.phi_hat_air,
            out.f_fuel, out.f_speed, out.f_exh, out.f_air,
            afr_value, targets.afr_d, targets.omega_d, targets.t_exh_d, out.afr_error,
            hc_eng, hc_tp, 0.0, eta_cat,  # hc_cum filled below
            out.sat_air, out.sat_fuel, out.sat_delta,
        ))
        events.append(";".join(e.replace(",", ";") for e in out.events) if out.events else "")
        state = next_state
        check_state(state, k + 1)
        fb_queue.append(state)
    # the final grid point gets no controller pass, so no Euler step either:
    # the commands show held, the estimates as left, other controller columns 0
    try:
        _, afr_value, hc_eng, eta_cat, hc_tp = model.emissions(*state[:4], applied[2])
    except DegenerateInputError as err:
        raise SimulationAbort(f"emission chain: {err}", step=n_steps) from None
    rows.append((
        n_steps * T, *state, *applied,
        *(0.0,) * 9,  # m_a_d, s1..s4, xi1..xi4
        controller.loop_fuel.phi_hat, controller.loop_speed.phi_hat,
        controller.loop_exh.phi_hat, controller.loop_air.phi_hat,
        *(0.0,) * 4,  # f_fuel..f_air
        afr_value, traj.afr_d[n_steps], traj.omega_d[n_steps], traj.t_exh_d[n_steps], 0.0,
        hc_eng, hc_tp, 0.0, eta_cat,
        0.0, 0.0, 0.0,
    ))
    events.append("")

    series = dict(zip(_FLOAT_COLUMNS + _FLAG_COLUMNS, np.array(rows, dtype=float).T))
    hc_tp = series["hc_tp"]
    increments = 0.5 * (hc_tp[1:] + hc_tp[:-1]) * np.diff(series["time"])
    series["hc_cum"] = np.concatenate([[0.0], np.cumsum(increments)])
    meta = {"config": config.to_dict()}
    return RunRecord(series=series, events=events, meta=meta)


# ---------------------------------------------------------------------------
# metrics


def _absent(value) -> str:
    return "absent" if value is None else repr(value)


# The one ordered list of summary columns: (column, MetricsSummary field,
# loop). The lines of metrics.txt and the metric columns of sweep.csv are
# both read from it; a field with a loop is a per-loop dict, or None.
_METRIC_COLUMNS: tuple[tuple[str, str, str | None], ...] = (
    ("duration_s", "duration", None),
    ("window_start_s", "window_start", None),
    *(
        (f"{name}_{loop}", name, loop)
        for loop in LOOPS
        for name in ("mean_err", "std_err", "mean_abs_s")
    ),
    ("afr_err_mean", "afr_err_mean", None),
    ("afr_err_std", "afr_err_std", None),
    *(
        (f"{name}_{loop}", name, loop)
        for loop in LOOPS
        for name in ("phi_convergence_time", "phi_converged")
    ),
    ("cumulative_hc_kg", "cumulative_hc_kg", None),
    ("light_off_time_s", "light_off_time", None),
    ("final_eta_cat", "final_eta_cat", None),
    *((f"removal_ratio_{loop}", "removal_ratio", loop) for loop in LOOPS),
    ("removal_ratio_overall", "removal_ratio_overall", None),
    *((f"tracking_ratio_{loop}", "tracking_ratio", loop) for loop in ("fuel", "speed", "exh")),
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


@dataclass
class MetricsSummary:
    """Post-run summary over the configured evaluation window."""

    duration: float
    window_start: float
    mean_err: dict[str, float]
    std_err: dict[str, float]
    mean_abs_s: dict[str, float]
    afr_err_mean: float
    afr_err_std: float
    phi_convergence_time: dict[str, float | None]
    phi_converged: dict[str, bool]
    cumulative_hc_kg: float
    light_off_time: float | None
    final_eta_cat: float
    removal_ratio: dict[str, float] | None = None
    removal_ratio_overall: float | None = None
    tracking_ratio: dict[str, float] | None = None

    def _values(self):
        """(column, value) in ``_METRIC_COLUMNS`` order; None where absent."""
        for column, name, loop in _METRIC_COLUMNS:
            value = getattr(self, name)
            if loop is not None and value is not None:
                value = value.get(loop)
            yield column, value

    def to_text(self) -> str:
        return "".join(f"{column} = {_absent(value)}\n" for column, value in self._values())

    @staticmethod
    def csv_header() -> list[str]:
        return [column for column, _, _ in _METRIC_COLUMNS]

    def to_csv_row(self) -> list[str]:
        return [_csv_cell(value) for _, value in self._values()]


_S_OF_LOOP = {"fuel": "s1", "speed": "s2", "exh": "s3", "air": "s4"}


def compute_metrics(
    record: RunRecord,
    baseline: RunRecord | None = None,
    window_start: float | None = None,
) -> MetricsSummary:
    """Summarize one run; pair with a non-adaptive baseline for the ratios.

    The evaluation window starts at the configured post-adaptation time and
    runs to the end.  Paired records must share the exact time grid.
    """
    config = record.meta.get("config", {})
    if window_start is None:
        window_start = float(config.get("metrics_window_start", 5.0))
    times = record.times
    duration = float(times[-1])
    mask = times >= window_start - 1e-12
    if not mask.any():
        raise ConfigError(
            f"metrics window starting at {window_start!r} s is empty for a "
            f"{duration!r} s record"
        )
    if baseline is not None and not np.array_equal(times, baseline.times):
        raise ConfigError("paired records do not share the same time grid")

    mean_err, std_err, mean_abs = {}, {}, {}
    for loop, col in _S_OF_LOOP.items():
        s = record.series[col][mask]
        mean_err[loop] = float(np.mean(s))
        std_err[loop] = float(np.std(s))
        mean_abs[loop] = float(np.mean(np.abs(s)))

    afr_err = record.series["afr_error"][mask]

    phi_true = config.get("phi_true", {})
    conv_time: dict[str, float | None] = {}
    converged: dict[str, bool] = {}
    for loop in LOOPS:
        phi = float(phi_true.get(loop, 1.0))
        normalized = record.series[f"phi_hat_{loop}"] / phi
        inside = np.abs(normalized - 1.0) <= 0.05
        if inside.all():
            conv_time[loop] = None  # never left the band: already nominal
            converged[loop] = True
        elif not inside[-1]:
            conv_time[loop] = None
            converged[loop] = False
        else:
            last_out = int(np.flatnonzero(~inside)[-1])
            conv_time[loop] = float(times[last_out + 1])
            converged[loop] = True

    eta = record.series["eta_cat"]
    lit = np.flatnonzero(eta >= 0.5)
    light_off = float(times[lit[0]]) if lit.size else None

    removal: dict[str, float] | None = None
    removal_overall: float | None = None
    tracking: dict[str, float] | None = None
    if baseline is not None:
        base_config = baseline.meta.get("config", {})
        base_phi = base_config.get("phi_true", {})
        removal = {}
        for loop in LOOPS:
            phi = float(phi_true.get(loop, 1.0))
            f_col = record.series[f"f_{loop}"]
            resid = np.abs((record.series[f"phi_hat_{loop}"] - phi) * f_col)[mask]
            phi_b = float(base_phi.get(loop, 1.0))
            resid_b = np.abs(
                (baseline.series[f"phi_hat_{loop}"] - phi_b) * baseline.series[f"f_{loop}"]
            )[mask]
            denom = float(np.mean(resid_b))
            removal[loop] = 1.0 - float(np.mean(resid)) / denom if denom > 0.0 else None
        defined = [v for v in removal.values() if v is not None]
        removal_overall = min(defined) if defined else None
        tracking = {}
        for loop in ("fuel", "speed", "exh"):
            col = _S_OF_LOOP[loop]
            base_abs = float(np.mean(np.abs(baseline.series[col][mask])))
            tracking[loop] = mean_abs[loop] / base_abs if base_abs > 0.0 else None

    return MetricsSummary(
        duration=duration,
        window_start=float(window_start),
        mean_err=mean_err,
        std_err=std_err,
        mean_abs_s=mean_abs,
        afr_err_mean=float(np.mean(afr_err)),
        afr_err_std=float(np.std(afr_err)),
        phi_convergence_time=conv_time,
        phi_converged=converged,
        cumulative_hc_kg=float(record.series["hc_cum"][-1]),
        light_off_time=light_off,
        final_eta_cat=float(eta[-1]),
        removal_ratio=removal,
        removal_ratio_overall=removal_overall,
        tracking_ratio=tracking,
    )
