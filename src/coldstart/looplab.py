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

import io
import json
import math
from collections import deque
from dataclasses import dataclass, field, is_dataclass
from functools import cached_property
from typing import Any

import numpy as np

from . import dsmc, fanout, plant, tables
from .errors import ConfigError, DegenerateInputError, SimulationAbort
from .plant import BOOL, NONNEGATIVE, PAIR, POSITIVE, REAL, Count, PhiTrue, Reals, shown
from .trajectory import COLUMNS as TRAJECTORY_COLUMNS
from .trajectory import MAX_STEPS, SampledTrajectory, TrajectoryTable, default_table

LOOPS = ("fuel", "speed", "exh", "air")
# the loops that track a desired output; air tracks the speed loop's target
TRACKED_LOOPS = ("fuel", "speed", "exh")

# the state's names in the record and in the config's JSON, in EngineState order
STATE_COLUMNS = ("m_a", "omega_e", "mdot_f", "t_cat", "t_exh")
# ADC spans per signal: the state's, then the commands', which default to the
# actuator bounds
DEFAULT_SIGNAL_RANGES: dict[str, tuple[float, float]] = {
    **dict(zip(STATE_COLUMNS, [(0.0, 0.05), (0.0, 600.0), (0.0, 0.01), (0.0, 1e3), (0.0, 1e3)])),
    **vars(dsmc.ActuatorBounds()),
}


# ---------------------------------------------------------------------------
# ADC emulation

MAX_ADC_BITS = 52  # the longest word whose codes adc_channel rounds exactly
_ROUNDER = 2.0**MAX_ADC_BITS
ADC_BITS = Count(1, MAX_ADC_BITS)


def quantize(value: float, bits: int, lo: float, hi: float) -> float:
    """Uniform mid-tread quantizer over [lo, hi]; out-of-range values clamp.

    NaN has no code and raises DegenerateInputError.  One value through
    ``adc_channel``, the loop's form.
    """
    return adc_channel(bits, lo, hi)(value)


def adc_channel(bits: int, lo: float, hi: float):
    """``quantize`` bound to one word length and span, each read once by its
    row: the quantizer the loop runs on each sampled signal.

    A code is rounded half to even as ``round`` rounds it, but in floats:
    for 0 <= x < 2**52, ``x + 2**52 - 2**52`` is ``round(x)`` exactly, so a
    word is at most ``MAX_ADC_BITS`` long."""
    levels = float((1 << ADC_BITS.norm(bits, "quantizer bits")) - 1)
    lo, hi = PAIR.norm((lo, hi), "quantizer range")  # a finite width: it has codes
    width = hi - lo

    def channel(value: float) -> float:
        if value != value:
            raise DegenerateInputError(f"cannot quantize NaN over ({lo!r}, {hi!r})")
        clamped = lo if value < lo else hi if value > hi else value
        return lo + ((clamped - lo) / width * levels + _ROUNDER - _ROUNDER) * width / levels

    return channel


# the plant state and commands ``euler_step`` takes, each an array of finite floats
_STATE = Reals(size=len(plant.EngineState._fields))
_INPUTS = Reals(size=len(plant.ControlInput._fields))


def euler_step(
    state: plant.EngineState,
    inputs: plant.ControlInput,
    model: plant.PlantModel,
    T: float,
    substeps: int = 1,
) -> tuple[plant.EngineState, plant.EmissionOutputs]:
    """One fixed-step Euler advance of ``model`` over ``T`` with ``inputs``
    held: ``PlantModel.stepper``'s step, the run loop's, as named tuples.

    Returns the next state and the emission chain evaluated at the start
    state, which is the record row of this step.  ``substeps > 1``
    subdivides the interval (stiffness check only; the shipped scenarios
    use a single step).
    """
    step = plant.instance(model, plant.PlantModel, "model").stepper(T, substeps)
    state, emission = step(_STATE.norm(state, "state"), _INPUTS.norm(inputs, "inputs"))
    return plant.EngineState(*state), plant.EmissionOutputs(*emission)


# ---------------------------------------------------------------------------
# scenario configuration: ``_FIELDS`` holds one row per field, a ``plant.Row``
# (the owning class's, where a class owns the rule) or an ``_Object`` of them


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
        unknown = sorted(set(value) - set(self.items), key=shown)
        if unknown:
            raise ConfigError(f"{name} has unknown {self.noun}(s) {shown(unknown)}")
        value = {**(self.defaults or {}), **value}
        values = {k: self.items[k].norm(value[k], f"{name}.{k}") for k in self.items if k in value}
        return values if self.build is None else self.build(*values.values())

    def dump(self, value):
        if value is None:
            return None
        return {k: self.items[k].dump(v) for k, v in self._as_object(value).items()}


def _loops(row: plant.Real, **kw) -> _Object:
    return _Object(dict.fromkeys(LOOPS, row), "loop", "an object with the four loop names", **kw)


_FIELDS: dict[str, Any] = {
    "T": POSITIVE,
    "duration": NONNEGATIVE,
    "quantization_enabled": BOOL,
    "quant_bits": Count(8, 32),
    "signal_ranges": _Object(
        dict.fromkeys(DEFAULT_SIGNAL_RANGES, PAIR), "signal", "an object of pairs",
        DEFAULT_SIGNAL_RANGES,
    ),
    "phi_true": _loops(plant.PHI_TRUE, defaults=vars(PhiTrue()), build=PhiTrue),
    "adaptation_enabled": dsmc.LOOP_ROWS["adaptation_enabled"],
    "adapt_sign": dsmc.LOOP_ROWS["adapt_sign"],
    "phi_hat_init": dsmc.LOOP_ROWS["phi_hat"],
    "beta": _loops(dsmc.LOOP_ROWS["beta"]),
    "rho": _loops(dsmc.LOOP_ROWS["rho"]),
    "bounds": _Object(
        dict.fromkeys(vars(dsmc.ActuatorBounds()), PAIR), "bound",
        "an object with mdot_ai/mdot_fc/delta pairs", vars(dsmc.ActuatorBounds()),
        dsmc.ActuatorBounds,
    ),
    "afi_floor": REAL,
    "initial_state": _Object(
        dict.fromkeys(STATE_COLUMNS, REAL), "field",
        "5 numbers or an object", build=plant.EngineState, sequence=True,
    ),
    "delta_initial": REAL,
    "substeps": plant.SUBSTEPS,
    "feedback_delay_steps": Count(0),
    "metrics_window_start": NONNEGATIVE,
    **plant.CONVENTION_ROWS,
    "constants": _Object(
        plant.CONSTANT_ROWS, "field", "an object of numbers", defaults={},
    ),
    "trajectory": _Object(
        dict.fromkeys(TRAJECTORY_COLUMNS, Reals()), "column", "an object of number arrays",
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
    hc_mode: str = plant.PlantConventions.hc_mode
    qgen_grouping: str = plant.PlantConventions.qgen_grouping
    # shipped default differs from the plant-level default: feed-gas heat
    # warms the brick, otherwise the catalyst can never light off
    qin_direction: str = "heats_catalyst"
    constants: dict[str, float] = field(default_factory=dict)
    trajectory: TrajectoryTable | None = None  # None -> shipped default profile

    def __post_init__(self):
        plant.check_fields(self, _FIELDS)
        # too many steps, an off-grid duration or a short table: refused, not sampled
        self._trajectory_table.steps(self.T, self.duration)

    # -- derived builders ---------------------------------------------------

    def build_constants(self) -> plant.PlantConstants:
        return plant.PlantConstants(**self.constants)

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
        unknown = sorted(set(data) - set(_FIELDS), key=shown)
        if unknown:
            raise ConfigError(f"config has unknown key(s) {shown(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(tables.json_value(text, "config"))


def apply_overrides(data: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply dotted-path ``key=value`` overrides to a config dict.

    Values parse as JSON when possible (numbers, booleans, null, arrays),
    otherwise they are taken as literal strings.  ``_FIELDS`` alone decides
    which paths exist, on any document: a field, or one key of an object row,
    made where the document lacks it or holds null.  A name no field has is
    left for ``ScenarioConfig.from_dict`` to refuse.  The input is not changed.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    out = dict(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        name, *keys = path.split(".")
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an int of more digits than int() takes
            value = raw
        row = _FIELDS.get(name)
        if keys and row is not None:
            depth = 1 if isinstance(row, _Object) else 0  # the keys the row takes
            if len(keys) > depth:
                raise ConfigError(f"override path {path!r} has no match at {keys[depth]!r}")
            section = {} if out.get(name) is None else row._as_object(out[name])
            # a section of any other form is left for from_dict to refuse
            value = {**section, keys[0]: value} if isinstance(section, dict) else section
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# run records


# fixed column order of the serialized record: the float columns, the three
# saturation flags (written as 0/1), then the free-text events column
_FLOAT_COLUMNS = (
    "time", *STATE_COLUMNS,
    *dsmc.ControllerOutput._fields[:20],  # the commands, then m_a_d .. f_air
    "afr", "afr_d", "omega_d", "t_exh_d", "afr_error",
    "hc_eng", "hc_tp", "hc_cum", "eta_cat",
)
_FLAG_COLUMNS = dsmc.ControllerOutput._fields[21:24]  # sat_air, sat_fuel, sat_delta
_TABLE_COLUMNS = _FLOAT_COLUMNS + _FLAG_COLUMNS  # the columns of ``RunRecord.table``
RECORD_COLUMNS = _TABLE_COLUMNS + ("events",)


@dataclass(frozen=True)
class RunRecord:
    """Per-sample values of one closed-loop run plus the config it ran: one
    row per sample, one ``table`` column per ``RECORD_COLUMNS`` name but
    ``events``, and ``series`` maps each name to a view of its column."""

    table: np.ndarray
    events: list[str]  # one (possibly empty) ;-joined string per sample
    config: ScenarioConfig | None = None

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

    def write_csv(self, file, stream: fanout.Stream | None = None) -> None:
        """Write one row per sample in ``RECORD_COLUMNS`` order to ``file``:
        float reprs, 0/1 flags, then the events text, quoted only where CSV
        needs it.

        Rows are converted a block of ``fanout.BLOCK_ROWS`` at a time, the
        blocks shared across CPUs by ``fanout.write_blocks``, or, with the
        ``csv_stream`` that ``run_scenario`` fed this record's blocks to,
        taken from it as its helper formatted them during the run.  Each
        block is written in row order and then dropped.
        """
        file.write(",".join(RECORD_COLUMNS) + "\n")
        fanout.write_blocks(file, len(self), self._csv_rows, stream)

    def to_csv(self) -> str:
        """The text ``write_csv`` writes."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

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
            f"{int(sat_delta)},{tables.csv_field(event)}\n"
            for (*values, sat_air, sat_fuel, sat_delta), event in zip(
                self.table[block].tolist(), self.events[block]
            )
        )

    @classmethod
    def from_csv(cls, text: str, config: ScenarioConfig | None = None) -> "RunRecord":
        """Read a record of ``config`` written by ``to_csv``: its header must be
        exactly ``RECORD_COLUMNS``, and the body is read by the rule of every
        numeric CSV input (``tables.read_body``), with events as the text column.
        A record with rows must have those of a run of ``config``, if given:
        one per step and one more, at times ``k * T``, so a cut file is refused."""
        header = tables.read_header(text, "run record")
        if tuple(header) != RECORD_COLUMNS:
            raise ConfigError("run record CSV does not have the expected columns")
        table, events = tables.read_body(text, "run record", header, text_column="events")
        if config is not None and events:
            n_rows = config._trajectory_table.steps(config.T, config.duration) + 1
            times = np.arange(n_rows) * config.T
            if len(events) != n_rows or not np.array_equal(table[:, 0], times):
                raise ConfigError(
                    f"run record is not a run of its config: {len(events)} rows, where the "
                    f"config makes {n_rows}, at times k * {config.T!r} s"
                )
        return cls(table[:, :-1], events, config)


def _check_state(state: tuple, step: int) -> None:
    """SimulationAbort at ``step`` unless ``state`` is finite with the engine turning."""
    if not all(map(math.isfinite, state)):
        raise SimulationAbort(f"non-finite state {tuple(state)!r}", step=step)
    if state[1] <= 0.0:
        raise SimulationAbort(f"engine stalled: speed {state[1]!r} rad/s", step=step)


def run_scenario(config: ScenarioConfig, sink=None) -> RunRecord:
    """Execute one closed-loop scenario on the sample grid.

    Per step: sample (and quantize) feedback, run the cascade, quantize the
    commands, advance the plant one Euler step.  The row of each step takes
    the emission chain the Euler step evaluated at its start state, so the
    chain runs once per step.  The record gets one row per grid instant
    including the final state, where the last issued commands are shown held.

    ``sink``, if given, is called with each full block of
    ``fanout.BLOCK_ROWS`` rows, as a ``RunRecord`` without a config, as soon as
    the loop has made it; its rows are those of the record returned.  The
    rows are checked as finite only when the run ends.  The record's table is
    allocated once and each row set in place, so a block is a view of rows
    the loop never writes again, and a sink that keeps a block keeps the
    run's whole table alive; ``fanout.Stream.hand_over`` pickles each at once.
    """
    conventions = plant.PlantConventions(config.hc_mode, config.qgen_grouping, config.qin_direction)
    model = plant.PlantModel(config.build_constants(), conventions, config.phi_true)
    controller = config.build_controller()
    traj = config.sampled_trajectory
    n_steps = traj.n_steps
    T = config.T
    quantized = config.quantization_enabled
    step = model.stepper(T, config.substeps)
    # one ADC channel per signal, in DEFAULT_SIGNAL_RANGES order
    (
        adc_m_a, adc_omega_e, adc_mdot_f, adc_t_cat, adc_t_exh,
        adc_mdot_ai, adc_mdot_fc, adc_delta,
    ) = (
        adc_channel(config.quant_bits, *config.signal_ranges[name])
        for name in DEFAULT_SIGNAL_RANGES
    )
    isfinite = math.isfinite

    # the record's table, one row per sample in _TABLE_COLUMNS order, each
    # set once as the loop makes it
    table = np.empty((n_steps + 1, len(_TABLE_COLUMNS)))
    events: list[str] = []
    block_rows = fanout.BLOCK_ROWS
    # the trapezoid integral of hc_tp, summed in row order as np.cumsum sums
    # it: from -0.0, which adds nothing to any value, -0.0 included, while
    # the first row records 0.0
    hc_cum, prev_hc_tp, prev_t = -0.0, 0.0, 0.0

    state = config.initial_state
    _check_state(state, 0)
    applied = (0.0, 0.0, config.delta_initial)  # commands in ControlInput order
    # optional sensor transport delay: the controller sees an older sample.
    # A delay of n_steps or more only ever shows the initial state, so the
    # line is sized by the run, not by the configured delay.
    depth = min(config.feedback_delay_steps, n_steps) + 1
    fb_queue: deque[tuple] = deque([state] * depth, maxlen=depth)

    for k, targets in enumerate(traj.windows()):
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
            next_state, (_, afr_value, hc_eng, eta_cat, hc_tp) = step(state, applied)
        except DegenerateInputError as err:
            raise SimulationAbort(f"plant: {err}", step=k) from None
        t = k * T
        if k:
            hc_cum += 0.5 * (hc_tp + prev_hc_tp) * (t - prev_t)
        table[k] = (
            t, *state, *applied,
            *out[3:20],  # m_a_d .. f_air, the columns between the commands and afr
            afr_value, targets.afr_d, targets.omega_d, targets.t_exh_d, out.afr_error,
            hc_eng, hc_tp, hc_cum if k else 0.0, eta_cat,
            out.sat_air, out.sat_fuel, out.sat_delta,
        )
        events.append(";".join(out.events) if out.events else "")
        prev_hc_tp, prev_t = hc_tp, t
        if sink is not None and (k + 1) % block_rows == 0:
            sink(RunRecord(table[k + 1 - block_rows:k + 1], events[-block_rows:]))
        state = next_state
        # a finite sum means five finite values; a failed test (an overflowing
        # sum of finite values too) goes to the full check, which names the fault
        if not (isfinite(sum(state)) and state[1] > 0.0):
            _check_state(state, k + 1)
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
    table[n_steps] = (
        t, *state, *applied,
        *(0.0,) * 9,  # m_a_d, s1..s4, xi1..xi4
        controller.loop_fuel.phi_hat, controller.loop_speed.phi_hat,
        controller.loop_exh.phi_hat, controller.loop_air.phi_hat,
        *(0.0,) * 4,  # f_fuel..f_air
        afr_value, traj.afr_d[n_steps], traj.omega_d[n_steps], traj.t_exh_d[n_steps], 0.0,
        hc_eng, hc_tp, hc_cum if n_steps else 0.0, eta_cat,
        0.0, 0.0, 0.0,
    )
    events.append("")

    # the state is checked as the run steps, the rest of the record here, row by row
    finite = np.isfinite(table)
    if not finite.all():
        step, column = np.argwhere(~finite)[0]
        name, value = _TABLE_COLUMNS[column], float(table[step, column])
        raise SimulationAbort(f"non-finite {name} {value!r}", step=int(step))
    return RunRecord(table, events, config)


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
    *((f"tracking_ratio_{loop}", "tracking_ratio", loop) for loop in TRACKED_LOOPS),
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


S_OF_LOOP = {"fuel": "s1", "speed": "s2", "exh": "s3", "air": "s4"}  # each loop's surface


def compute_metrics(record: RunRecord, baseline: RunRecord | None = None) -> MetricsSummary:
    """Summarize one run; pair with a non-adaptive baseline for the ratios.

    The window runs from the ``metrics_window_start`` of the record's config
    (the default config's without one) to the end, and each record's
    estimates are judged by its own config's ``phi_true``.  Paired records
    must share the exact time grid. A float overflow in a summary is a ConfigError.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _summarize(record, baseline)
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


def _summarize(record, baseline) -> MetricsSummary:
    config = record.config or ScenarioConfig()
    times = record.times
    if not len(times):
        raise ConfigError("run record has no rows to summarize")
    mask = _window(times, config.metrics_window_start)
    if baseline is not None and not np.array_equal(times, baseline.times):
        raise ConfigError("paired records do not share the same time grid")

    mean_err, std_err, mean_abs = {}, {}, {}
    for loop, col in S_OF_LOOP.items():
        s = record.series[col][mask]
        mean_err[loop] = float(np.mean(s))
        std_err[loop] = float(np.std(s))
        mean_abs[loop] = float(np.mean(np.abs(s)))

    afr_err = record.series["afr_error"][mask]

    phi = vars(config.phi_true)
    conv_time: dict[str, float | None] = {}
    converged: dict[str, bool] = {}
    for loop in LOOPS:
        normalized = record.series[f"phi_hat_{loop}"] / phi[loop]
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
        base_phi = vars((baseline.config or ScenarioConfig()).phi_true)
        removal = {}
        for loop in LOOPS:
            f_col = record.series[f"f_{loop}"]
            resid = np.abs((record.series[f"phi_hat_{loop}"] - phi[loop]) * f_col)[mask]
            base_hat = baseline.series[f"phi_hat_{loop}"]
            resid_b = np.abs((base_hat - base_phi[loop]) * baseline.series[f"f_{loop}"])[mask]
            denom = float(np.mean(resid_b))
            removal[loop] = 1.0 - float(np.mean(resid)) / denom if denom > 0.0 else None
        defined = [v for v in removal.values() if v is not None]
        removal_overall = min(defined) if defined else None
        tracking = {}
        for loop in TRACKED_LOOPS:
            base_abs = float(np.mean(np.abs(baseline.series[S_OF_LOOP[loop]][mask])))
            tracking[loop] = mean_abs[loop] / base_abs if base_abs > 0.0 else None

    return MetricsSummary(
        duration=float(times[-1]),
        window_start=config.metrics_window_start,
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
