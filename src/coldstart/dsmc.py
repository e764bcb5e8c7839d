"""Four cascaded SISO adaptive second-order discrete sliding-mode loops.

Each loop drives a sliding surface s and its one-step difference to zero
(xi(k) = s(k+1) + beta*s(k) -> 0), which under an exact model yields the
geometric closed-loop decay s(k+1) = -beta*s(k).  A scalar multiplicative
uncertainty on each drift term is estimated online; the control law always
uses the freshly updated estimate.

Loop layout:
  fuel   — in-cylinder fuel flow tracks the AFR target (fuel-flow domain)
  speed  — crankshaft speed; emits a synthetic manifold-air-mass target
  exh    — exhaust temperature via spark retard
  air    — manifold air mass tracks the speed loop's synthetic target

All four loops run one law, ``control_law``: before saturation,

  u = gain_inv * (phi_hat*a*b - (beta + 1)*s + d_next - d_now)

where phi_hat*a*b is the estimated drift of the loop's surface s, d its
target, and gain_inv the inverse of the input gain:

  loop   gain_inv                           a * b
  speed  J / (TORQUE_AIR_GAIN * T)          (T / J) * load_torque(omega_pred)
  air    1 / T                              mdot_ao * T
  fuel   alpha_f / T                        (T / alpha_f) * mdot_f
  exh    alpha_e / (SPARK_TEMP_GAIN*afi*T)  -(T / alpha_e) * (SPARK_TEMP_BASE*afi - T_exh)

Below the AFI floor the spark gain is singular: the exhaust loop holds its command.

The speed loop's synthetic target is evaluated at the one-step-ahead
predicted speed state, not the current one.  The inner air loop can only
realize a target one step after it is issued, so a current-state evaluation
feeds the speed loop its own target with one step of lag; the loop gain
30000*T/J ~ 4e3 amplifies that lag into instability for any beta above
0.4*T/J ~ 0.055.  Prediction with the current estimate is exact whenever the
estimate matches the true uncertainty, restoring the geometric decay.  The
fuel-flow target's lookahead is predicted the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import plant
from .errors import DegenerateInputError

AFI_FLOOR_DEFAULT = 0.05

# Default adaptation gains, tuned on the shipped 50%-uncertainty scenario so
# every estimate settles within its 5% band in under 5 s without ringing.
# Scale: rho ~ T^2 * f_i^2 at the operating point (see the contraction factor
# 1 - T^2 f^2 / (rho (1+beta)) of the combined estimate/surface recursion).
RHO_DEFAULTS = {"fuel": 1e-6, "speed": 8e3, "exh": 1.5e4, "air": 7e-7}
BETA_DEFAULT = 0.5


LOOP_ROWS = {
    "beta": plant.Real(0.0, 1.0, rule="must lie in (0, 1)"),  # a stable surface
    "rho": plant.POSITIVE,
    "phi_hat": plant.REAL,
    "s_prev": plant.REAL,
    "adaptation_enabled": plant.BOOL,
    "adapt_sign": plant.Choice((1.0, -1.0), "must be +1 or -1"),
}


@dataclass
class AdaptiveLoop:
    """State of one sliding-mode loop: gains plus the running estimate (``LOOP_ROWS``)."""

    beta: float
    rho: float
    phi_hat: float = 1.0
    s_prev: float = 0.0
    adaptation_enabled: bool = True
    adapt_sign: float = 1.0  # -1 flips the estimator increment (diagnostic)

    def __post_init__(self):
        plant.check_fields(self, LOOP_ROWS)


def adapt(loop: AdaptiveLoop, s: float, f: float, T: float) -> float:
    """One estimator step; returns (and stores) the updated estimate.

    Frozen estimate when adaptation is disabled; exact fixed point at s = 0.
    """
    if loop.adaptation_enabled:
        loop.phi_hat += loop.adapt_sign * T * s * f / loop.rho
    return loop.phi_hat


@dataclass(frozen=True)
class ActuatorBounds:
    """Saturation limits of every emitted command, ``(lo, hi)`` pairs (``plant.PAIR``)."""

    mdot_ai: tuple[float, float] = (0.0, 0.1)    # throttle air [kg/s]
    mdot_fc: tuple[float, float] = (0.0, 0.01)   # injected fuel [kg/s]
    delta: tuple[float, float] = (-10.0, 45.0)   # spark retard [deg]

    def __post_init__(self):
        plant.check_fields(self, dict.fromkeys(vars(self), plant.PAIR), "bounds.")


def saturate(value: float, bound: tuple[float, float]) -> tuple[float, bool]:
    """``value`` clamped to ``bound``, and whether it was clamped.

    NaN is refused: it compares false with both bounds, so it would pass
    as an unsaturated command.
    """
    if value != value:  # NaN, tested without a call, as the ADC tests it
        raise DegenerateInputError(f"command is NaN; cannot saturate to {bound!r}")
    lo, hi = bound
    if value < lo:
        return lo, True
    if value > hi:
        return hi, True
    return value, False


# ---------------------------------------------------------------------------
# the control law (one call = one step; all series indexed at the call step)


def control_law(
    gain_inv: float, a: float, b: float, s: float, d_now: float, d_next: float, loop: AdaptiveLoop
) -> float:
    """The second-order DSMC law all four loops run, before saturation; the
    module doc gives each loop's coefficients."""
    return gain_inv * (loop.phi_hat * a * b - (loop.beta + 1.0) * s + d_next - d_now)


# ---------------------------------------------------------------------------
# cascade orchestration


class ControllerOutput(NamedTuple):
    """Saturated commands plus per-step telemetry."""

    mdot_ai: float
    mdot_fc: float
    delta: float
    m_a_d: float        # synthetic target tracked this step
    s1: float
    s2: float
    s3: float
    s4: float
    xi1: float
    xi2: float
    xi3: float
    xi4: float
    phi_hat_fuel: float
    phi_hat_speed: float
    phi_hat_exh: float
    phi_hat_air: float
    f_fuel: float
    f_speed: float
    f_exh: float
    f_air: float
    afr_error: float    # raw AFR tracking error, logged alongside s1
    sat_air: bool
    sat_fuel: bool
    sat_delta: bool
    events: tuple[str, ...]


class CascadeController:
    """Runs the four loops in cascade order once per sample.

    Owns the loop records, the synthetic-target delay line and the held
    spark command; one instance per scenario.
    """

    def __init__(
        self,
        loop_fuel: AdaptiveLoop,
        loop_speed: AdaptiveLoop,
        loop_exh: AdaptiveLoop,
        loop_air: AdaptiveLoop,
        T: float = 0.02,
        constants: plant.PlantConstants | None = None,
        bounds: ActuatorBounds | None = None,
        afi_floor: float = AFI_FLOOR_DEFAULT,
        delta_initial: float = 0.0,
    ):
        self.loop_fuel = plant.instance(loop_fuel, AdaptiveLoop, "loop_fuel")
        self.loop_speed = plant.instance(loop_speed, AdaptiveLoop, "loop_speed")
        self.loop_exh = plant.instance(loop_exh, AdaptiveLoop, "loop_exh")
        self.loop_air = plant.instance(loop_air, AdaptiveLoop, "loop_air")
        self.T = plant.POSITIVE.norm(T, "sample time")
        self.constants = plant.instance(constants, plant.PlantConstants, "constants", default=True)
        self._plant = plant.PlantModel(self.constants)  # the drift the law reads
        self.bounds = plant.instance(bounds, ActuatorBounds, "bounds", default=True)
        self.afi_floor = plant.REAL.norm(afi_floor, "afi_floor")
        self._m_a_target: float | None = None  # target the air loop tracks next step
        self._delta_held = plant.REAL.norm(delta_initial, "delta_initial")
        # anti-windup: the estimator update consumes s(k) as evidence about the
        # transition driven by the previous command, which is only valid when
        # that command was applied unsaturated.  At k=0 there is no previous
        # command, so every loop starts held.  The speed loop holds with the
        # air actuator because a saturated inner loop cannot realize the
        # synthetic target, and the exhaust loop holds when the spark law was
        # singular (no control authority, so s3 is open-loop drift).
        # The flags are kept in loop order: fuel, speed, exh, air.
        self._adapt_hold = (True, True, True, True)

    def step(self, feedback: plant.EngineState, targets) -> ControllerOutput:
        """One full cascade pass: surfaces -> estimates -> commands."""
        model = self._plant
        T = self.T
        hold_fuel, hold_speed, hold_exh, hold_air = self._adapt_hold
        m_a, omega_e, mdot_f, _, T_exh = feedback

        # drift terms of the four controlled states at the current sample
        mdot_ao = plant.air_outflow(m_a, omega_e)
        afr_value = plant.afr(mdot_ao, mdot_f, model.mdot_f_floor)
        afi_value, alpha_e, f_fuel, f_speed, f_exh, f_air = model.drift(
            omega_e, mdot_f, T_exh, mdot_ao, afr_value
        )

        # output-loop surfaces; the air surface needs the delay-line target
        if targets.afr_d <= 0.0 or targets.afr_d_next <= 0.0:
            raise DegenerateInputError(
                f"desired AFR must be positive, got {targets.afr_d!r}/{targets.afr_d_next!r}"
            )
        mdot_fd_now = mdot_ao / targets.afr_d
        s1 = mdot_f - mdot_fd_now
        s2 = omega_e - targets.omega_d
        s3 = T_exh - targets.t_exh_d

        xi1 = s1 + self.loop_fuel.beta * self.loop_fuel.s_prev
        xi2 = s2 + self.loop_speed.beta * self.loop_speed.s_prev
        xi3 = s3 + self.loop_exh.beta * self.loop_exh.s_prev

        if not hold_fuel:
            adapt(self.loop_fuel, s1, f_fuel, T)
        if not hold_speed:
            adapt(self.loop_speed, s2, f_speed, T)
        if not hold_exh:
            adapt(self.loop_exh, s3, f_exh, T)

        # synthetic target for the NEXT step, from the one-step speed
        # prediction with the freshly updated drag estimate
        omega_pred = omega_e + T * (self.loop_speed.phi_hat * f_speed + model.speed_gain * m_a)
        m_a_d_next = control_law(
            model.J / (plant.TORQUE_AIR_GAIN * T), T / model.J, plant.load_torque(omega_pred),
            omega_pred - targets.omega_d_next, targets.omega_d_next, targets.omega_d_next2,
            self.loop_speed,
        )
        if self._m_a_target is None:
            self._m_a_target = m_a_d_next  # first step: duplicate the first target
        m_a_d_now = self._m_a_target

        s4 = m_a - m_a_d_now
        xi4 = s4 + self.loop_air.beta * self.loop_air.s_prev
        if not hold_air:
            adapt(self.loop_air, s4, f_air, T)

        u_air = control_law(1.0 / T, mdot_ao, T, s4, m_a_d_now, m_a_d_next, self.loop_air)
        mdot_ai, sat_air = saturate(u_air, self.bounds.mdot_ai)

        # fuel-flow target lookahead: propagate air mass and speed one step
        # with the current estimates and the command the plant will receive
        m_a_pred = m_a + T * (self.loop_air.phi_hat * f_air + mdot_ai)
        mdot_ao_pred = plant.air_outflow(m_a_pred, omega_pred)
        mdot_fd_next = mdot_ao_pred / targets.afr_d_next
        u_fuel = control_law(
            model.alpha_f / T, T / model.alpha_f, mdot_f,
            s1, mdot_fd_now, mdot_fd_next, self.loop_fuel,
        )
        mdot_fc, sat_fuel = saturate(u_fuel, self.bounds.mdot_fc)

        spark_singular = abs(afi_value) < self.afi_floor
        if spark_singular:
            u_delta = self._delta_held
            events = ("spark gain below AFI floor; holding previous command",)
        else:
            u_delta = control_law(
                alpha_e / (plant.SPARK_TEMP_GAIN * afi_value * T), -(T / alpha_e),
                plant.SPARK_TEMP_BASE * afi_value - T_exh,
                s3, targets.t_exh_d, targets.t_exh_d_next, self.loop_exh,
            )
            events = ()
        delta, sat_delta = saturate(u_delta, self.bounds.delta)

        self.loop_fuel.s_prev = s1
        self.loop_speed.s_prev = s2
        self.loop_exh.s_prev = s3
        self.loop_air.s_prev = s4
        self._delta_held = delta
        self._m_a_target = m_a_d_next
        self._adapt_hold = (sat_fuel, sat_air, sat_delta or spark_singular, sat_air)

        # made by tuple.__new__, as TargetWindow is, with no Python call
        return tuple.__new__(ControllerOutput, (
            mdot_ai, mdot_fc, delta, m_a_d_now,
            s1, s2, s3, s4, xi1, xi2, xi3, xi4,
            self.loop_fuel.phi_hat, self.loop_speed.phi_hat,
            self.loop_exh.phi_hat, self.loop_air.phi_hat,
            f_fuel, f_speed, f_exh, f_air,
            afr_value - targets.afr_d,
            sat_air, sat_fuel, sat_delta,
            events,
        ))
