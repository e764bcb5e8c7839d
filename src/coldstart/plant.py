"""Mean-value SI engine model for cold-start studies.

Five lumped states: intake-manifold air mass, crankshaft speed, in-cylinder
fuel flow, catalyst brick temperature and exhaust gas temperature.  All
closed-form pieces (volumetric efficiency, torque, spark-timing influence,
burn duration, engine-out HC, catalyst conversion efficiency) are exposed
as pure functions so they can be checked in isolation.

The four controlled states are control-affine, x' = phi*f(x) + g(x)*u.
f(x) lives in ``PlantModel``, built once per run: the Euler step that
``stepper`` binds runs the emission chain once per substep, then the drift,
the brick heat balance and the update.  ``emissions`` is a face over it for
callers that hold the frozen parameter objects, and the controller reads the
drift and speed-row input gain from its own model.

Angles are in crank degrees unless noted, temperatures in degC, flows in kg/s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import ConfigError, DegenerateInputError

# Torque fit: the speed/constant terms are the load (the speed row's drift),
# the air-mass term is the drive (its input gain).
TORQUE_AIR_GAIN = 30000.0  # Nm per kg of manifold air
TORQUE_SPEED_COEF = 0.4    # Nm per rad/s
TORQUE_CONST = 100.0       # Nm

# Exhaust temperature fit: base temperature plus spark retard contribution,
# scaled by the AFR influence factor.
SPARK_TEMP_GAIN = 7.5      # degC per deg of retard
SPARK_TEMP_BASE = 600.0    # degC

AIR_OUTFLOW_COEF = 0.0254  # cylinder pumping coefficient [1/rad]

AFR_ST_DEFAULT = 14.7      # stoichiometric air-fuel ratio for gasoline

# HC exponent handling: "unburned_fraction" reads the in-cylinder oxidation
# exponent as a decay (bounded unburned fraction); "as_printed" keeps the
# literal sign of the fitted constant, which amplifies instead.
HC_MODES = ("unburned_fraction", "as_printed")
# Generated-heat grouping: the fitted expression multiplies only the fuel
# term by exhaust temperature; the alternate applies it to the flow sum.
QGEN_MODES = ("as_printed", "flow_times_temp")
# Exhaust-to-brick heat direction: as printed it is subtracted from the brick
# balance; "heats_catalyst" adds it, which is the physically consistent form
# (hot feed gas warms the brick) and what the shipped scenarios use.
QIN_MODES = ("as_printed", "heats_catalyst")


@dataclass(frozen=True)
class PlantConstants:
    """Fixed physical parameters of the engine and catalyst (``CONSTANT_ROWS``)."""

    J: float = 0.1454        # crankshaft inertia [kg m^2]
    alpha_f: float = 0.06    # fuel-film lag time constant [s]
    mcp: float = 1250.0      # catalyst brick thermal capacity [J/K]
    a: float = -2.0          # in-cylinder HC oxidation exponent constant [-]
    n: float = 5.0           # in-cylinder HC oxidation exponent power [-]
    theta_evo: float = 110.0  # exhaust valve opening angle [deg ATDC]
    r_c: float = 9.0         # compression ratio [-]
    afr_st: float = AFR_ST_DEFAULT  # stoichiometric AFR [-]
    t_atm: float = 25.0      # ambient temperature [degC]
    # AFR normalization of the catalyst conversion fit.  With the fit taken
    # at face value the conversion term is ~1e-7 at stoichiometry, so the
    # chemical value cannot reproduce warm-catalyst efficiencies; a smaller
    # reference recovers the intended lean-limit shape (see decision log).
    afr_cat: float = 8.4     # catalyst conversion AFR reference [-]
    mdot_f_floor: float = 1e-9  # fuel flow below this is degenerate [kg/s]

    def __post_init__(self):
        check_fields(self, CONSTANT_ROWS, "constants.")


@dataclass(frozen=True)
class PlantConventions:
    """Switchable resolutions of ambiguous closed-form readings (``CONVENTION_ROWS``)."""

    hc_mode: str = "unburned_fraction"
    qgen_grouping: str = "as_printed"
    qin_direction: str = "as_printed"

    def __post_init__(self):
        check_fields(self, CONVENTION_ROWS)


class EngineState(NamedTuple):
    m_a: float      # intake manifold air mass [kg]
    omega_e: float  # crankshaft speed [rad/s]
    mdot_f: float   # in-cylinder fuel flow [kg/s]
    T_cat: float    # catalyst brick temperature [degC]
    T_exh: float    # exhaust gas temperature [degC]


class ControlInput(NamedTuple):
    mdot_ai: float  # throttle air inflow command [kg/s]
    mdot_fc: float  # injected fuel flow command [kg/s]
    delta: float    # spark retard from nominal timing [deg]


def real(value, name: str) -> float:
    """``value`` as a finite float; ConfigError naming the field ``name``
    otherwise. The one rule for every number read from outside.

    Booleans and non-numbers are refused, and so is an int too large for a
    float: it counts as non-finite, where ``math.isfinite`` would raise
    OverflowError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {shown(value)}")
    return number


def shown(value) -> str:
    """``value`` as a message echoes it: its ``repr``, except that an int of
    more digits than Python writes (4 300) is shown by its size."""
    try:
        return repr(value)
    except ValueError:  # such an int, or a container holding one
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer of over 4300 digits"


def reals(value, name: str) -> tuple[float, ...]:
    """A list or tuple ``value`` as a tuple of finite floats, each read by
    ``real`` as ``name[i]``; ConfigError naming ``name`` for anything else."""
    if not isinstance(value, (tuple, list)):
        raise ConfigError(f"{name} must be an array of numbers, got {shown(value)}")
    return tuple(real(v, f"{name}[{i}]") for i, v in enumerate(value))


class Row:
    """A value rule: ``norm(value, name)`` is the value stored for a Python or
    JSON form, or a ConfigError naming ``name``; ``dump`` is the JSON form. A
    class and the config table (``looplab._FIELDS``) read a field by one row."""

    def dump(self, value):
        return value


@dataclass(frozen=True)
class Real(Row):
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
class Count(Row):
    """An integer in ``[low, high]``; a float of integral value is taken."""

    low: int
    high: float = math.inf

    def norm(self, value, name: str) -> int:
        x = real(value, name)  # compared as a float: 2**53 + 1 is an integer too
        if x != int(x) or x < self.low:
            raise ConfigError(f"{name} must be an integer >= {self.low}, got {shown(value)}")
        if x > self.high:
            raise ConfigError(f"{name} must be in [{self.low}, {self.high}], got {shown(value)}")
        return int(value)


@dataclass(frozen=True)
class Choice(Row):
    """One of ``choices``, stored as it is there: ``1`` reads as ``1.0``, but
    a bool only as a bool."""

    choices: tuple
    rule: str

    def norm(self, value, name: str):
        for choice in self.choices:
            if value == choice and isinstance(value, bool) == isinstance(choice, bool):
                return choice
        raise ConfigError(f"{name} {self.rule}, got {shown(value)}")


@dataclass(frozen=True)
class Reals(Row):
    """An array of finite floats, stored as a tuple, of ``size`` items where
    given; with ``pair``, a ``(lo, hi)`` pair with ``lo < hi`` and a finite
    span, which an ADC divides by."""

    pair: bool = False
    size: int | None = None

    def norm(self, value, name: str) -> tuple[float, ...]:
        if self.pair and not (isinstance(value, (tuple, list)) and len(value) == 2):
            raise ConfigError(f"{name} must be a (lo, hi) pair, got {shown(value)}")
        if self.size is not None and not (
            isinstance(value, (tuple, list)) and len(value) == self.size
        ):
            raise ConfigError(f"{name} must be {self.size} numbers, got {shown(value)}")
        values = reals(value, name)
        if self.pair and not (values[0] < values[1] and math.isfinite(values[1] - values[0])):
            raise ConfigError(f"{name} must satisfy lo < hi with hi - lo finite, got {values!r}")
        return values

    def dump(self, value):
        return list(value)


REAL, POSITIVE, PAIR = Real(), Real(0.0, rule="must be positive"), Reals(pair=True)
NONNEGATIVE = Real(0.0, closed=True, rule="must be nonnegative")
BOOL = Choice((True, False), "must be true or false")
CONVENTION_ROWS = {
    "hc_mode": Choice(HC_MODES, f"must be one of {HC_MODES}"),
    "qgen_grouping": Choice(QGEN_MODES, f"must be one of {QGEN_MODES}"),
    "qin_direction": Choice(QIN_MODES, f"must be one of {QIN_MODES}"),
}
PHI_TRUE = Real(0.0, rule="must be a positive number")
# Euler substeps per sample at most: a run's cost is linear in them, and at
# the shipped T of 20 ms this is a 20 us plant step
MAX_SUBSTEPS = 1000
SUBSTEPS = Count(1, MAX_SUBSTEPS)
# the constants the model divides by, or that keep the fuel flow it divides by
# off zero, are positive
CONSTANT_ROWS = {f.name: REAL for f in fields(PlantConstants)} | dict.fromkeys(
    ("J", "alpha_f", "mcp", "r_c", "afr_cat", "mdot_f_floor"), POSITIVE
)


def check_fields(obj, rows: dict, prefix: str = "") -> None:
    """Read each field of ``obj`` named in ``rows`` by its row; errors name ``prefix + name``."""
    for name, row in rows.items():
        object.__setattr__(obj, name, row.norm(getattr(obj, name), prefix + name))


def instance(value, cls: type, name: str, default: bool = False):
    """``value``, or with ``default`` a ``cls()`` for None; ConfigError naming
    the argument ``name`` for anything but a ``cls``. The one rule for an
    object argument."""
    if value is None and default:
        return cls()
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ConfigError(f"{name} must be {article} {cls.__name__}, got {shown(value)}")
    return value


@dataclass(frozen=True)
class PhiTrue:
    """True multiplicative uncertainty on each controlled state's drift (``PHI_TRUE``)."""

    fuel: float = 1.0
    speed: float = 1.0
    exh: float = 1.0
    air: float = 1.0

    def __post_init__(self):
        check_fields(self, dict.fromkeys(vars(self), PHI_TRUE), "phi_true.")


class EmissionOutputs(NamedTuple):
    mdot_ao: float  # cylinder air flow the chain was evaluated at [kg/s]
    afr: float      # air-fuel ratio fed to the emission chain [-]
    hc_eng: float   # engine-out HC flow [kg/s]
    eta_cat: float  # catalyst conversion efficiency [-]
    hc_tp: float    # tailpipe HC flow [kg/s]


def volumetric_efficiency(m_a: float, omega_e: float) -> float:
    """Quadratic-in-speed, quadratic-in-air-charge pumping efficiency fit."""
    w2 = omega_e * omega_e
    return (
        m_a * m_a * (-0.1636 * w2 - 7.093 * omega_e - 1750.0)
        + m_a * (0.0029 * w2 - 0.4033 * omega_e + 85.38)
        - (1.06e-6 * w2 - 0.0021 * omega_e - 0.2719)
    )


def air_outflow(m_a: float, omega_e: float) -> float:
    """Air mass flow pumped out of the manifold into the cylinders [kg/s]."""
    return AIR_OUTFLOW_COEF * volumetric_efficiency(m_a, omega_e) * m_a * omega_e


def load_torque(omega_e: float) -> float:
    """Friction plus accessory load absorbed by the crankshaft [Nm]."""
    return TORQUE_CONST + TORQUE_SPEED_COEF * omega_e


def afi(afr_value: float) -> float:
    """AFR influence factor on exhaust temperature, cosine fit (radians)."""
    return math.cos(0.13 * (afr_value - 13.5))


def afr(mdot_ao: float, mdot_f: float, floor: float = PlantConstants.mdot_f_floor) -> float:
    """Air-fuel ratio from cylinder air flow and in-cylinder fuel flow; a
    non-finite ratio (an air flow that overflowed) is a degenerate input."""
    if mdot_f <= floor:
        raise DegenerateInputError(
            f"fuel flow {mdot_f!r} kg/s at or below floor {floor!r}; AFR undefined"
        )
    ratio = mdot_ao / mdot_f
    if not math.isfinite(ratio):
        raise DegenerateInputError(f"AFR {ratio!r} at air flow {mdot_ao!r} kg/s is not finite")
    return ratio


def exhaust_time_constant(omega_e: float) -> float:
    """Exhaust temperature lag: one crank revolution at current speed [s]."""
    if omega_e <= 0.0:
        raise DegenerateInputError(f"engine speed must be positive, got {omega_e!r}")
    return 2.0 * math.pi / omega_e


def burn_duration(afr_value: float, afr_st: float = AFR_ST_DEFAULT) -> float:
    """Combustion burn duration in crank degrees, branched rich/lean.

    At exactly stoichiometric AFR the lean coefficient applies.
    """
    k1 = 0.1 if afr_value >= afr_st else 0.4
    d = afr_value - 16.2
    return k1 * d * d + 80.0


def burn_start(delta: float) -> float:
    """Crank angle where combustion effectively starts [deg ATDC]."""
    return delta + 10.0


def engine_out_hc(
    mdot_f: float,
    delta: float,
    afr_value: float,
    constants: PlantConstants = PlantConstants(),
    hc_mode: str = "unburned_fraction",
) -> float:
    """Engine-out unburned HC mass flow [kg/s].

    The unreacted fraction decays with the crank-angle interval left for
    oxidation between burn start and exhaust valve opening, normalized by
    burn duration.  ``hc_mode="as_printed"`` keeps the literal sign of the
    fitted exponent constant (amplifying for the default constants);
    the default reads it as a decay so the fraction stays bounded by 1
    whenever burn start precedes valve opening.
    """
    if hc_mode not in HC_MODES:
        raise ConfigError(f"hc_mode must be one of {HC_MODES}, got {hc_mode!r}")
    ratio = (constants.theta_evo - burn_start(delta)) / burn_duration(afr_value, constants.afr_st)
    powered = ratio**constants.n
    if isinstance(powered, complex):  # a burn starting past valve opening, to a fractional power
        raise DegenerateInputError(f"oxidation ratio {ratio!r} to the power {constants.n!r}")
    if hc_mode == "unburned_fraction":
        exponent = -abs(constants.a) * powered
    else:
        exponent = -constants.a * powered
    return mdot_f * (constants.r_c - 1.0) / constants.r_c * math.exp(exponent)


def catalyst_efficiency(
    afr_value: float, t_cat: float, afr_ref: float = AFR_ST_DEFAULT
) -> float:
    """HC conversion efficiency of the catalyst, clamped to [0, 0.98].

    Product of an AFR-sensitivity term (cuts conversion off rich of the
    reference) and a temperature term (cuts it off on a cold brick).
    """
    # exponents are clamped so far-out-of-domain inputs saturate instead of
    # overflowing; the clamp only engages where the result is 0 anyway.  Each
    # clamp is the comparison min(x, c) or max(x, c) makes, so NaN and -0.0
    # pass as there, without the builtin's call once per Euler substep
    afr_exp = -5.0 * (afr_value / afr_ref - 0.7) ** 15
    afr_exp = 700.0 if 700.0 < afr_exp else afr_exp
    temp_exp = -0.2 * ((t_cat - 30.0) / 150.0) ** 5
    temp_exp = 700.0 if 700.0 < temp_exp else temp_exp
    eta = 0.98 * (1.0 - math.exp(afr_exp)) * (1.0 - math.exp(temp_exp))
    eta = 0.0 if 0.0 > eta else eta
    return 0.98 if 0.98 < eta else eta


def tailpipe_hc(hc_eng: float, eta_cat: float) -> float:
    """Tailpipe HC flow after catalyst conversion [kg/s]."""
    return hc_eng * (1.0 - eta_cat)


class PlantModel:
    """The plant of one run: f(x), the emission chain and the Euler step.

    The constants are read and the convention branches resolved once, here;
    the per-step methods take and give plain floats and tuples, in
    ``EngineState``, ``ControlInput`` and ``EmissionOutputs`` order."""

    def __init__(
        self,
        constants: PlantConstants = PlantConstants(),
        conventions: PlantConventions = PlantConventions(),
        phi: PhiTrue = PhiTrue(),
    ):
        self.constants = constants = instance(constants, PlantConstants, "constants")
        conventions = instance(conventions, PlantConventions, "conventions")
        phi = instance(phi, PhiTrue, "phi")
        for name in ("J", "alpha_f", "mcp", "t_atm", "afr_cat", "mdot_f_floor"):
            setattr(self, name, getattr(constants, name))
        self.speed_gain = TORQUE_AIR_GAIN / constants.J  # speed-row input gain on manifold air
        phi_rows = phi.fuel, phi.speed, phi.exh, phi.air
        self.phi_fuel, self.phi_speed, self.phi_exh, self.phi_air = phi_rows
        self.hc_mode = conventions.hc_mode
        self.flow_times_temp = conventions.qgen_grouping == "flow_times_temp"
        # the exhaust-to-brick heat enters the brick balance with this sign
        self.qin_sign = 1.0 if conventions.qin_direction == "heats_catalyst" else -1.0

    def emissions(self, m_a: float, omega_e: float, mdot_f: float, T_cat: float, delta: float):
        """The engine-out -> catalyst -> tailpipe HC chain at one state.

        An AFR or temperature so far out of range that a fit overflows is
        reported as a degenerate input, like a fuel flow at the floor.
        """
        mdot_ao = air_outflow(m_a, omega_e)
        afr_value = afr(mdot_ao, mdot_f, self.mdot_f_floor)
        try:
            hc_eng = engine_out_hc(mdot_f, delta, afr_value, self.constants, self.hc_mode)
            eta = catalyst_efficiency(afr_value, T_cat, self.afr_cat)
        except ArithmeticError:  # a fit overflows, or raises 0 to a negative power
            raise DegenerateInputError(
                f"emission chain overflows at AFR {afr_value!r}, T_cat {T_cat!r}"
            ) from None
        return mdot_ao, afr_value, hc_eng, eta, tailpipe_hc(hc_eng, eta)

    def drift(self, omega_e: float, mdot_f: float, T_exh: float, mdot_ao: float, afr_value: float):
        """(afi, alpha_e, f_fuel, f_speed, f_exh, f_air) given the air flow and
        AFR at the state: phi scales exactly the four f terms."""
        afi_value = afi(afr_value)
        alpha_e = exhaust_time_constant(omega_e)
        return (
            afi_value,
            alpha_e,
            -mdot_f / self.alpha_f,
            -load_torque(omega_e) / self.J,
            (SPARK_TEMP_BASE * afi_value - T_exh) / alpha_e,
            -mdot_ao,
        )

    def heat_terms(self, T_cat, T_exh, mdot_f, mdot_ao, eta_cat, hc_eng):
        """Brick heat flows [W]: exhaust feed q_in, convection to ambient q_out
        and exothermic HC conversion q_gen."""
        if self.flow_times_temp:
            flow_term = (mdot_ao + mdot_f) * T_exh
        else:
            flow_term = mdot_ao + mdot_f * T_exh
        q_gen = 22.53 * flow_term * eta_cat * hc_eng
        return 16.0 * (T_exh - T_cat), 0.642 * (T_cat - self.t_atm), q_gen

    def rates(self, state: tuple, inputs: tuple) -> tuple[tuple, tuple]:
        """x' = phi*f(x) + g(x)*u at ``state``, and the emission chain there.
        The catalyst row carries no uncertainty."""
        m_a, omega_e, mdot_f, T_cat, T_exh = state
        mdot_ai, mdot_fc, delta = inputs
        chain = mdot_ao, afr_value, hc_eng, eta, _ = self.emissions(
            m_a, omega_e, mdot_f, T_cat, delta
        )
        afi_value, alpha_e, f_fuel, f_speed, f_exh, f_air = self.drift(
            omega_e, mdot_f, T_exh, mdot_ao, afr_value
        )
        q_in, q_out, q_gen = self.heat_terms(T_cat, T_exh, mdot_f, mdot_ao, eta, hc_eng)
        return (
            self.phi_air * f_air + mdot_ai,
            self.phi_speed * f_speed + self.speed_gain * m_a,
            self.phi_fuel * f_fuel + mdot_fc / self.alpha_f,
            (q_gen + self.qin_sign * q_in - q_out) / self.mcp,
            self.phi_exh * f_exh + (SPARK_TEMP_GAIN * afi_value / alpha_e) * delta,
        ), chain

    def stepper(self, T: float, substeps: int = 1):
        """``step(state, inputs)``: the state ``T`` later by ``substeps`` Euler
        substeps x + h*x' of h = T/substeps with ``inputs`` held, and the chain
        at ``state``. ``T`` and ``substeps`` are read once, here, by their rows."""
        substeps = SUBSTEPS.norm(substeps, "substeps")
        h = NONNEGATIVE.norm(T, "T") / substeps

        def step(state: tuple, inputs: tuple) -> tuple[tuple, tuple]:
            chain = None
            for _ in range(substeps):
                (d_m_a, d_omega_e, d_mdot_f, d_T_cat, d_T_exh), at = self.rates(state, inputs)
                chain = chain or at  # the first substep's, at ``state``
                m_a, omega_e, mdot_f, T_cat, T_exh = state
                state = (
                    m_a + h * d_m_a,
                    omega_e + h * d_omega_e,
                    mdot_f + h * d_mdot_f,
                    T_cat + h * d_T_cat,
                    T_exh + h * d_T_exh,
                )
            return state, chain

        return step


def emissions(
    state: EngineState,
    delta: float,
    constants: PlantConstants = PlantConstants(),
    conventions: PlantConventions = PlantConventions(),
) -> EmissionOutputs:
    """Evaluate the engine-out -> catalyst -> tailpipe HC chain at one state."""
    chain = PlantModel(constants, conventions).emissions(*state[:4], delta)
    return EmissionOutputs(*chain)

