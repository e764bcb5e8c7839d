"""Mean-value SI engine model for cold-start studies.

Five lumped states: intake-manifold air mass, crankshaft speed, in-cylinder
fuel flow, catalyst brick temperature and exhaust gas temperature.  All
closed-form pieces (volumetric efficiency, torque, spark-timing influence,
burn duration, engine-out HC, catalyst conversion efficiency, catalyst heat
balance) are exposed as pure functions so they can be checked in isolation.

The four controlled states are control-affine, x' = phi*f(x) + g(x)*u.
``drift`` is the only place f(x) is written down; ``derivatives`` builds
every row from it, and the controller reads its drift terms and speed-row
input gain from the same function.

Angles are in crank degrees unless noted, temperatures in degC, flows in kg/s.
"""

from __future__ import annotations

import math
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
    """Fixed physical parameters of the engine and catalyst."""

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


@dataclass(frozen=True)
class PlantConventions:
    """Resolutions of ambiguous closed-form readings, kept switchable."""

    hc_mode: str = "unburned_fraction"
    qgen_grouping: str = "as_printed"
    qin_direction: str = "as_printed"

    def __post_init__(self):
        if self.hc_mode not in HC_MODES:
            raise ValueError(f"hc_mode must be one of {HC_MODES}, got {self.hc_mode!r}")
        if self.qgen_grouping not in QGEN_MODES:
            raise ValueError(f"qgen_grouping must be one of {QGEN_MODES}, got {self.qgen_grouping!r}")
        if self.qin_direction not in QIN_MODES:
            raise ValueError(f"qin_direction must be one of {QIN_MODES}, got {self.qin_direction!r}")


@dataclass(frozen=True)
class EngineState:
    m_a: float      # intake manifold air mass [kg]
    omega_e: float  # crankshaft speed [rad/s]
    mdot_f: float   # in-cylinder fuel flow [kg/s]
    T_cat: float    # catalyst brick temperature [degC]
    T_exh: float    # exhaust gas temperature [degC]


@dataclass(frozen=True)
class ControlInput:
    mdot_ai: float  # throttle air inflow command [kg/s]
    mdot_fc: float  # injected fuel flow command [kg/s]
    delta: float    # spark retard from nominal timing [deg]


@dataclass(frozen=True)
class PhiTrue:
    """True multiplicative uncertainty on each controlled state's drift."""

    fuel: float = 1.0
    speed: float = 1.0
    exh: float = 1.0
    air: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"phi_true.{f.name} must be a positive number, got {v!r}")


class StateDerivative(NamedTuple):
    m_a: float      # [kg/s]
    omega_e: float  # [rad/s^2]
    mdot_f: float   # [kg/s^2]
    T_cat: float    # [degC/s]
    T_exh: float    # [degC/s]


class Drift(NamedTuple):
    """Drift f(x) of the four controlled rows, with the intermediates it uses."""

    mdot_ao: float     # cylinder air flow [kg/s]
    afr: float         # air-fuel ratio [-]
    afi: float         # AFR influence factor on exhaust temperature [-]
    alpha_e: float     # exhaust temperature lag [s]
    f_fuel: float      # fuel-flow drift [kg/s^2]
    f_speed: float     # speed drift [rad/s^2]
    f_exh: float       # exhaust-temperature drift [degC/s]
    f_air: float       # manifold air drift [kg/s]
    speed_gain: float  # speed-row input gain on manifold air [rad/s^2 per kg]


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


def afr(mdot_ao: float, mdot_f: float, floor: float = 1e-9) -> float:
    """Air-fuel ratio from cylinder air flow and in-cylinder fuel flow."""
    if mdot_f <= floor:
        raise DegenerateInputError(
            f"fuel flow {mdot_f!r} kg/s at or below floor {floor!r}; AFR undefined"
        )
    return mdot_ao / mdot_f


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
        raise ValueError(f"hc_mode must be one of {HC_MODES}, got {hc_mode!r}")
    ratio = (constants.theta_evo - burn_start(delta)) / burn_duration(afr_value, constants.afr_st)
    powered = ratio**constants.n
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
    # overflowing; the clamp only engages where the result is 0 anyway
    afr_exp = min(-5.0 * (afr_value / afr_ref - 0.7) ** 15, 700.0)
    temp_exp = min(-0.2 * ((t_cat - 30.0) / 150.0) ** 5, 700.0)
    eta = 0.98 * (1.0 - math.exp(afr_exp)) * (1.0 - math.exp(temp_exp))
    return min(max(eta, 0.0), 0.98)


def tailpipe_hc(hc_eng: float, eta_cat: float) -> float:
    """Tailpipe HC flow after catalyst conversion [kg/s]."""
    return hc_eng * (1.0 - eta_cat)


def emissions(
    state: EngineState,
    delta: float,
    constants: PlantConstants = PlantConstants(),
    conventions: PlantConventions = PlantConventions(),
) -> EmissionOutputs:
    """Evaluate the engine-out -> catalyst -> tailpipe HC chain at one state.

    An AFR or temperature so far out of range that a fit overflows is
    reported as a degenerate input, like a fuel flow at the floor.
    """
    mdot_ao = air_outflow(state.m_a, state.omega_e)
    afr_value = afr(mdot_ao, state.mdot_f, constants.mdot_f_floor)
    try:
        hc_eng = engine_out_hc(state.mdot_f, delta, afr_value, constants, conventions.hc_mode)
        eta = catalyst_efficiency(afr_value, state.T_cat, constants.afr_cat)
    except OverflowError:
        raise DegenerateInputError(
            f"emission chain overflows at AFR {afr_value!r}, T_cat {state.T_cat!r}"
        ) from None
    return EmissionOutputs(
        mdot_ao=mdot_ao,
        afr=afr_value,
        hc_eng=hc_eng,
        eta_cat=eta,
        hc_tp=tailpipe_hc(hc_eng, eta),
    )


def catalyst_heat_terms(
    state: EngineState,
    emission: EmissionOutputs,
    constants: PlantConstants = PlantConstants(),
    conventions: PlantConventions = PlantConventions(),
) -> tuple[float, float, float]:
    """Heat flows of the catalyst brick balance: (q_in, q_out, q_gen) [W].

    q_in is exhaust-to-brick feed heat, q_out convection to ambient, q_gen
    exothermic HC conversion on the brick.
    """
    mdot_ao = emission.mdot_ao
    q_in = 16.0 * (state.T_exh - state.T_cat)
    q_out = 0.642 * (state.T_cat - constants.t_atm)
    if conventions.qgen_grouping == "as_printed":
        flow_term = mdot_ao + state.mdot_f * state.T_exh
    else:
        flow_term = (mdot_ao + state.mdot_f) * state.T_exh
    q_gen = 22.53 * flow_term * emission.eta_cat * emission.hc_eng
    return q_in, q_out, q_gen


def drift(state: EngineState, constants: PlantConstants = PlantConstants()) -> Drift:
    """Drift terms f(x) of the fuel, speed, exhaust and air rows at ``state``.

    The multiplicative uncertainty phi scales exactly these terms; the
    controller estimates it against the same values.
    """
    mdot_ao = air_outflow(state.m_a, state.omega_e)
    afr_value = afr(mdot_ao, state.mdot_f, constants.mdot_f_floor)
    afi_value = afi(afr_value)
    alpha_e = exhaust_time_constant(state.omega_e)
    return Drift(
        mdot_ao,
        afr_value,
        afi_value,
        alpha_e,
        -state.mdot_f / constants.alpha_f,
        -load_torque(state.omega_e) / constants.J,
        (SPARK_TEMP_BASE * afi_value - state.T_exh) / alpha_e,
        -mdot_ao,
        TORQUE_AIR_GAIN / constants.J,
    )


def derivatives(
    state: EngineState,
    inputs: ControlInput,
    constants: PlantConstants = PlantConstants(),
    conventions: PlantConventions = PlantConventions(),
    phi: PhiTrue = PhiTrue(),
) -> tuple[StateDerivative, EmissionOutputs]:
    """State derivative x' = phi*f(x) + g(x)*u, and the emission chain at ``state``.

    phi scales only the drift of the four controlled rows; the catalyst row
    carries no uncertainty.  The default phi of 1 is the plain plant.
    """
    d = drift(state, constants)
    emission = emissions(state, inputs.delta, constants, conventions)
    q_in, q_out, q_gen = catalyst_heat_terms(state, emission, constants, conventions)
    q_in_signed = q_in if conventions.qin_direction == "heats_catalyst" else -q_in
    return StateDerivative(
        m_a=phi.air * d.f_air + inputs.mdot_ai,
        omega_e=phi.speed * d.f_speed + d.speed_gain * state.m_a,
        mdot_f=phi.fuel * d.f_fuel + inputs.mdot_fc / constants.alpha_f,
        T_cat=(q_gen + q_in_signed - q_out) / constants.mcp,
        T_exh=phi.exh * d.f_exh + (SPARK_TEMP_GAIN * d.afi / d.alpha_e) * inputs.delta,
    ), emission
