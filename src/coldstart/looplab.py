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

import json
import math
import re
from collections import deque
from dataclasses import dataclass, field, is_dataclass, replace
from functools import cached_property
from typing import Any

import numpy as np

from . import dsmc, fanout, plant, tables
from .errors import ConfigError, DegenerateInputError, SimulationAbort
from .plant import PhiTrue, real, reals
from .trajectory import COLUMNS as TRAJECTORY_COLUMNS
from .trajectory import SampledTrajectory, TrajectoryTable, default_table

LOOPS = ("fuel", "speed", "exh", "air")
# plant constants the model divides by, or that keep the fuel flow it
# divides by off zero; zero or negative values are rejected
POSITIVE_CONSTANTS = ("J", "alpha_f", "mcp", "r_c", "afr_cat", "mdot_f_floor")

# Euler substeps per sample at most: a run's cost is linear in them, and at
# the shipped T of 20 ms this is a 20 us plant step
MAX_SUBSTEPS = 1000
# samples per run at most: a record row is 304 B of float table and about
# 680 B of run.csv text, which simulate formats while the run steps, so a row
# peaks near 1.3 KB while the run builds it (its text, and its table block
# copied into the whole table at the end) and near 1.7 KB while run.csv is
# written (the table, the block texts and the joined text; tracemalloc over
# 18 000 rows), so this run peaks near 1.7 GB: 5.5 h of engine time at the
# shipped T, whose shipped run is 2 000 steps.
MAX_STEPS = 1_000_000

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
# scenario configuration: ``_FIELDS`` holds one row per field, whose ``norm``
# reads the field's Python or JSON form into the value stored (or raises a
# ConfigError naming the field's path) and whose ``dump`` gives the JSON form


class _Row:
    def dump(self, value):
        return value


@dataclass(frozen=True)
class _Real(_Row):
    """A finite float in ``(low, high)``, or in ``[low, high]`` when ``closed``."""

    low: float = -math.inf
    high: float = math.inf
    closed: bool = False
    rule: str = ""  # the range in words

    def norm(self, value, name: str) -> float:
        x = real(value, name)
        if not (self.low <= x <= self.high if self.closed else self.low < x < self.high):
            raise ConfigError(f"{name} {self.rule}, got {x!r}")
        return x


@dataclass(frozen=True)
class _Count(_Row):
    """An integer in ``[low, high]``; a float of integral value is taken."""

    low: int
    high: float = math.inf

    def norm(self, value, name: str) -> int:
        x = real(value, name)  # compared as a float: 2**53 + 1 is an integer too
        if x != int(x) or x < self.low:
            raise ConfigError(f"{name} must be an integer >= {self.low}, got {value!r}")
        if x > self.high:
            raise ConfigError(f"{name} must be in [{self.low}, {self.high}], got {value!r}")
        return int(value)


@dataclass(frozen=True)
class _Choice(_Row):
    """One of ``choices``, stored as it is there: ``1`` reads as ``1.0``, but
    a bool only as a bool."""

    choices: tuple
    rule: str

    def norm(self, value, name: str):
        for choice in self.choices:
            if value == choice and isinstance(value, bool) == isinstance(choice, bool):
                return choice
        raise ConfigError(f"{name} {self.rule}, got {value!r}")


@dataclass(frozen=True)
class _Reals:
    """An array of finite floats, stored as a tuple; with ``pair``, a
    ``(lo, hi)`` pair with ``lo < hi`` and a finite span, which an ADC divides by."""

    pair: bool = False

    def norm(self, value, name: str) -> tuple[float, ...]:
        if self.pair and not (isinstance(value, (tuple, list)) and len(value) == 2):
            raise ConfigError(f"{name} must be a (lo, hi) pair, got {value!r}")
        values = reals(value, name)
        if self.pair and not (values[0] < values[1] and math.isfinite(values[1] - values[0])):
            raise ConfigError(f"{name} must satisfy lo < hi with hi - lo finite, got {values!r}")
        return values

    def dump(self, value):
        return list(value)


@dataclass(frozen=True)
class _Object:
    """An object keyed by ``items``, each value read by its own row, stored as
    a dict or ``build(*values)``; partial objects merge with ``defaults``. A
    dataclass reads as its fields; with ``sequence``, a list of the values."""

    items: dict
    noun: str  # what a key is, in messages
    shape: str  # the form wanted, in messages
    defaults: dict | None = None
    build: Any = None
    sequence: bool = False
    nullable: bool = False

    def _as_object(self, value):
        if self.sequence and isinstance(value, (tuple, list)) and len(value) == len(self.items):
            return dict(zip(self.items, value))
        return vars(value) if is_dataclass(value) else value

    def norm(self, value, name: str):
        if value is None and self.nullable:
            return None
        value = self._as_object(value)
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be {self.shape}")
        if self.defaults is None and set(value) != set(self.items):  # every key is required
            raise ConfigError(f"{name} must be an object with {self.noun}s {sorted(self.items)}")
        unknown = sorted(set(value) - set(self.items), key=str)
        if unknown:
            raise ConfigError(f"{name} has unknown {self.noun}(s) {unknown}")
        value = {**(self.defaults or {}), **value}
        values = {k: self.items[k].norm(value[k], f"{name}.{k}") for k in self.items if k in value}
        return values if self.build is None else self.build(*values.values())

    def dump(self, value):
        if value is None:
            return None
        return {k: self.items[k].dump(v) for k, v in self._as_object(value).items()}


def _loops(row: _Real, **kw) -> _Object:
    return _Object(dict.fromkeys(LOOPS, row), "loop", "an object with the four loop names", **kw)


_REAL, _POSITIVE, _PAIR = _Real(), _Real(0.0, rule="must be positive"), _Reals(pair=True)
_BOOL = _Choice((True, False), "must be true or false")
_FIELDS: dict[str, Any] = {
    "T": _POSITIVE,
    "duration": _Real(0.0, closed=True, rule="must be nonnegative"),
    "quantization_enabled": _BOOL,
    "quant_bits": _Count(8, 32),
    "signal_ranges": _Object(
        dict.fromkeys(DEFAULT_SIGNAL_RANGES, _PAIR), "signal", "an object of pairs",
        DEFAULT_SIGNAL_RANGES,
    ),
    "phi_true": _loops(
        _Real(0.0, rule="must be a positive number"), defaults=vars(PhiTrue()), build=PhiTrue
    ),
    "adaptation_enabled": _BOOL,
    "adapt_sign": _Choice((1.0, -1.0), "must be +1 or -1"),
    "phi_hat_init": _REAL,
    "beta": _loops(_Real(0.0, 1.0, rule="must lie in (0, 1)")),
    "rho": _loops(_POSITIVE),
    "bounds": _Object(
        dict.fromkeys(vars(dsmc.ActuatorBounds()), _PAIR), "bound",
        "an object with mdot_ai/mdot_fc/delta pairs", vars(dsmc.ActuatorBounds()),
        dsmc.ActuatorBounds,
    ),
    "afi_floor": _REAL,
    # under their JSON names, in EngineState order
    "initial_state": _Object(
        dict.fromkeys(("m_a", "omega_e", "mdot_f", "t_cat", "t_exh"), _REAL), "field",
        "5 numbers or an object", build=plant.EngineState, sequence=True,
    ),
    "delta_initial": _REAL,
    "substeps": _Count(1, MAX_SUBSTEPS),
    "feedback_delay_steps": _Count(0),
    "metrics_window_start": _Real(0.0, closed=True, rule="must be nonnegative"),
    "hc_mode": _Choice(plant.HC_MODES, f"must be one of {plant.HC_MODES}"),
    "qgen_grouping": _Choice(plant.QGEN_MODES, f"must be one of {plant.QGEN_MODES}"),
    "qin_direction": _Choice(plant.QIN_MODES, f"must be one of {plant.QIN_MODES}"),
    "constants": _Object(
        {k: _POSITIVE if k in POSITIVE_CONSTANTS else _REAL for k in vars(plant.PlantConstants())},
        "field", "an object of numbers", defaults={},
    ),
    "trajectory": _Object(
        dict.fromkeys(TRAJECTORY_COLUMNS, _Reals()), "column", "an object of number arrays",
        build=TrajectoryTable, nullable=True,
    ),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one closed-loop run depends on.

    Each field is read by its ``_FIELDS`` row, so construction and
    ``from_dict`` take the same forms, and the trajectory's grid and coverage
    are checked on construction, so a config that constructs can run; it is
    sampled only when a run reads it. Frozen: derive one with
    ``dataclasses.replace``. Serializes to plain JSON; ``from_dict`` rejects
    unknown keys so config typos fail loudly instead of running defaults.
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
        for name, row in _FIELDS.items():
            object.__setattr__(self, name, row.norm(getattr(self, name), name))
        steps = self.duration / self.T
        if steps > MAX_STEPS:
            raise ConfigError(f"duration / T must be at most {MAX_STEPS} steps, got {steps!r}")
        # an off-grid duration or a short table is refused here; nothing is sampled
        self._trajectory_table.steps(self.T, self.duration)

    # -- derived builders ---------------------------------------------------

    def build_constants(self) -> plant.PlantConstants:
        return replace(plant.PlantConstants(), **self.constants)

    def build_conventions(self) -> plant.PlantConventions:
        return plant.PlantConventions(
            hc_mode=self.hc_mode,
            qgen_grouping=self.qgen_grouping,
            qin_direction=self.qin_direction,
        )

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

    @property
    def _trajectory_table(self) -> TrajectoryTable:
        return self.trajectory if self.trajectory is not None else default_table(self.duration)

    def check_metrics_window(self) -> None:
        """The ConfigError ``compute_metrics`` gives the record of this
        config when its metrics window holds no sample, raised before a run:
        the window is checked against the record's last time."""
        n_steps = self._trajectory_table.steps(self.T, self.duration)
        _window(np.array([n_steps * self.T]), self.metrics_window_start)

    @cached_property
    def sampled_trajectory(self) -> SampledTrajectory:
        """The targets on the controller grid, sampled when a run first reads them."""
        return self._trajectory_table.sample(self.T, self.duration)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The fields in declaration order, as plain JSON values."""
        return {name: row.dump(getattr(self, name)) for name, row in _FIELDS.items()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        """A config from its JSON form: every field reads the same forms
        here as on construction, and a key that names no field is refused."""
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"config has unknown key(s) {unknown}")
        return cls(**data)

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
_TABLE_COLUMNS = _FLOAT_COLUMNS + _FLAG_COLUMNS  # the columns of ``RunRecord.table``
RECORD_COLUMNS = _TABLE_COLUMNS + ("events",)
# characters that make a field need quoting
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with quotes doubled, when it holds
    a comma, a quote, CR or LF.  This is csv.writer's quoting, except that a
    bare CR is quoted too, so the csv reader can read the field back."""
    if not _CSV_SPECIAL.search(text):
        return text
    return '"' + text.replace('"', '""') + '"'


@dataclass(frozen=True)
class RunRecord:
    """Per-sample values of one closed-loop run plus the scenario echo: one
    row per sample, one ``table`` column per ``RECORD_COLUMNS`` name but
    ``events``, and ``series`` maps each name to a view of its column."""

    table: np.ndarray
    events: list[str]  # one (possibly empty) ;-joined string per sample
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.table.shape != (len(self.events), len(_TABLE_COLUMNS)):
            raise ConfigError(
                f"record table must be {len(self.events)} rows by {len(_TABLE_COLUMNS)} "
                f"columns, got shape {self.table.shape}"
            )

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def series(self) -> dict[str, np.ndarray]:
        return {name: self.table[:, i] for i, name in enumerate(_TABLE_COLUMNS)}

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    def to_csv(self, stream: fanout.Stream | None = None) -> str:
        """One row per sample in ``RECORD_COLUMNS`` order: float reprs, 0/1
        flags, then the events text, quoted only where CSV needs it.

        Rows are converted a block of ``fanout.BLOCK_ROWS`` at a time, the
        blocks shared across CPUs by ``fanout.join_blocks``, or, with the
        ``csv_stream`` that ``run_scenario`` fed this record's blocks to,
        taken from it as its helper formatted them during the run.
        """
        header = ",".join(RECORD_COLUMNS) + "\n"
        if stream is None:
            return header + fanout.join_blocks(len(self), self._csv_rows)
        return header + stream.join_blocks(len(self), self._csv_rows)

    @staticmethod
    def csv_stream() -> fanout.Stream:
        """A stream that formats each block record handed to it, as
        ``run_scenario`` hands them to its ``sink``, while the run steps."""
        return fanout.Stream(lambda block: block._csv_rows(slice(None)))

    def _csv_rows(self, block: slice) -> str:
        """The CSV lines of the rows in ``block``, with no per-element numpy
        indexing and no full-size table of strings."""
        return "".join(
            f"{','.join(map(repr, values))},{int(sat_air)},{int(sat_fuel)},"
            f"{int(sat_delta)},{_csv_field(event)}\n"
            for (*values, sat_air, sat_fuel, sat_delta), event in zip(
                self.table[block].tolist(), self.events[block]
            )
        )

    @classmethod
    def from_csv(cls, text: str, meta: dict[str, Any] | None = None) -> "RunRecord":
        """Read a record written by ``to_csv``: its header must be exactly
        ``RECORD_COLUMNS``, and the body is read by the rule of every numeric
        CSV input (``tables.read_body``), with events as the text column."""
        header = tables.read_header(text, "run record")
        if tuple(header) != RECORD_COLUMNS:
            raise ConfigError("run record CSV does not have the expected columns")
        table, events = tables.read_body(text, "run record", header, text_column="events")
        return cls(table[:, :-1], events, dict(meta or {}))


def run_scenario(config: ScenarioConfig, sink=None) -> RunRecord:
    """Execute one closed-loop scenario on the sample grid.

    Per step: sample (and quantize) feedback, run the cascade, quantize the
    commands, advance the plant one Euler step.  The row of each step takes
    the emission chain the Euler step evaluated at its start state, so the
    chain runs once per step.  The record gets one row per grid instant
    including the final state, where the last issued commands are shown held.

    ``sink``, if given, is called with each full block of
    ``fanout.BLOCK_ROWS`` rows, as a ``RunRecord`` without meta, as soon as
    the loop has made it; its rows are those of the record returned.  The
    rows are checked as finite only when the run ends.
    """
    model = plant.PlantModel(config.build_constants(), config.build_conventions(), config.phi_true)
    controller = config.build_controller()
    traj = config.sampled_trajectory
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

    rows: list[tuple] = []  # one tuple per sample in _TABLE_COLUMNS order, this block's
    blocks: list[np.ndarray] = []  # the float tables of the full blocks
    events: list[str] = []
    block_rows = fanout.BLOCK_ROWS
    # the trapezoid integral of hc_tp, summed in row order as np.cumsum sums
    # it: from -0.0, which adds nothing to any value, -0.0 included, while
    # the first row records 0.0
    hc_cum, prev_hc_tp, prev_t = -0.0, 0.0, 0.0

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
        t = k * T
        if k:
            hc_cum += 0.5 * (hc_tp + prev_hc_tp) * (t - prev_t)
        rows.append((
            t, *state, *applied,
            out.m_a_d, out.s1, out.s2, out.s3, out.s4, out.xi1, out.xi2, out.xi3, out.xi4,
            out.phi_hat_fuel, out.phi_hat_speed, out.phi_hat_exh, out.phi_hat_air,
            out.f_fuel, out.f_speed, out.f_exh, out.f_air,
            afr_value, targets.afr_d, targets.omega_d, targets.t_exh_d, out.afr_error,
            hc_eng, hc_tp, hc_cum if k else 0.0, eta_cat,
            out.sat_air, out.sat_fuel, out.sat_delta,
        ))
        events.append(";".join(e.replace(",", ";") for e in out.events) if out.events else "")
        prev_hc_tp, prev_t = hc_tp, t
        if len(rows) == block_rows:
            blocks.append(np.array(rows, dtype=float))
            rows = []
            if sink is not None:
                sink(RunRecord(blocks[-1], events[-block_rows:]))
        state = next_state
        check_state(state, k + 1)
        fb_queue.append(state)
    # the final grid point gets no controller pass, so no Euler step either:
    # the commands show held, the estimates as left, other controller columns 0
    try:
        _, afr_value, hc_eng, eta_cat, hc_tp = model.emissions(*state[:4], applied[2])
    except DegenerateInputError as err:
        raise SimulationAbort(f"emission chain: {err}", step=n_steps) from None
    t = n_steps * T
    if n_steps:
        hc_cum += 0.5 * (hc_tp + prev_hc_tp) * (t - prev_t)
    rows.append((
        t, *state, *applied,
        *(0.0,) * 9,  # m_a_d, s1..s4, xi1..xi4
        controller.loop_fuel.phi_hat, controller.loop_speed.phi_hat,
        controller.loop_exh.phi_hat, controller.loop_air.phi_hat,
        *(0.0,) * 4,  # f_fuel..f_air
        afr_value, traj.afr_d[n_steps], traj.omega_d[n_steps], traj.t_exh_d[n_steps], 0.0,
        hc_eng, hc_tp, hc_cum if n_steps else 0.0, eta_cat,
        0.0, 0.0, 0.0,
    ))
    events.append("")

    table = np.concatenate([*blocks, np.array(rows, dtype=float)])
    # the state is checked as the run steps, the rest of the record here, row by row
    finite = np.isfinite(table)
    if not finite.all():
        step, column = np.argwhere(~finite)[0]
        name, value = _TABLE_COLUMNS[column], float(table[step, column])
        raise SimulationAbort(f"non-finite {name} {value!r}", step=int(step))
    return RunRecord(table, events, {"config": config.to_dict()})


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
    runs to the end.  Paired records must share the exact time grid. A
    record whose values overflow a float in a summary is a ConfigError.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _summarize(record, baseline, window_start)
    except FloatingPointError as err:
        raise ConfigError(f"run record values overflow its metrics: {err}") from None


def _window(times: np.ndarray, window_start: float) -> np.ndarray:
    """Which of a record's sample ``times`` the metrics window starting at
    ``window_start`` holds; a ConfigError when it holds none."""
    mask = times >= window_start - 1e-12
    if not mask.any():
        raise ConfigError(
            f"metrics window starting at {window_start!r} s is empty for a "
            f"{float(times[-1])!r} s record"
        )
    return mask


def _summarize(record, baseline, window_start) -> MetricsSummary:
    config = record.meta.get("config", {})
    if window_start is None:
        window_start = float(config.get("metrics_window_start", 5.0))
    times = record.times
    if not len(times):
        raise ConfigError("run record has no rows to summarize")
    mask = _window(times, window_start)
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
        duration=float(times[-1]),
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
