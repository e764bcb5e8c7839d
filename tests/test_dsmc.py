"""Sliding-mode loop laws: hand-evaluated cases plus cascade behavior."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldstart import dsmc, plant, rga
from coldstart.errors import ConfigError, DegenerateInputError
from coldstart.trajectory import TargetWindow
from lab_helpers import STRAYS, with_default_gains


def make_loop(beta=0.5, rho=1.0, phi_hat=1.0, **kw):
    return dsmc.AdaptiveLoop(beta=beta, rho=rho, phi_hat=phi_hat, **kw)


def constant_targets(afr_d=13.0, omega_d=140.0, t_exh_d=650.0):
    return TargetWindow(
        afr_d=afr_d,
        afr_d_next=afr_d,
        omega_d=omega_d,
        omega_d_next=omega_d,
        omega_d_next2=omega_d,
        t_exh_d=t_exh_d,
        t_exh_d_next=t_exh_d,
    )


# ---------------------------------------------------------------------------
# loop record validation


@pytest.mark.parametrize("beta", [0.0, 1.0, -0.1, 1.5])
def test_beta_outside_unit_interval_rejected(beta):
    with pytest.raises(ValueError):
        dsmc.AdaptiveLoop(beta=beta, rho=1.0)


def test_rho_must_be_positive():
    with pytest.raises(ValueError):
        dsmc.AdaptiveLoop(beta=0.5, rho=0.0)
    with pytest.raises(ValueError):
        dsmc.AdaptiveLoop(beta=0.5, rho=-1.0)


def test_phi_hat_must_be_finite():
    with pytest.raises(ValueError):
        dsmc.AdaptiveLoop(beta=0.5, rho=1.0, phi_hat=float("nan"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_loop(adapt_sign=0.5), "adapt_sign must be +1 or -1, got 0.5"),
        (lambda: with_default_gains(T=0.0), "sample time must be positive, got 0.0"),
        (lambda: with_default_gains(T=-0.02), "sample time must be positive, got -0.02"),
    ],
    ids=["adapt-sign", "T-zero", "T-negative"],
)
def test_a_loop_or_controller_out_of_its_domain_is_refused(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


# A valid call of each value-checking constructor: per argument, its valid
# value, the name a refusal of it starts with, and the attribute the built
# object keeps it in (None where it keeps no such attribute: then only a
# refusal passes).
CONSTRUCTORS = {
    "AdaptiveLoop": (dsmc.AdaptiveLoop, {a: (v, a, a) for a, v in vars(make_loop()).items()}),
    "ActuatorBounds": (
        dsmc.ActuatorBounds,
        {a: (v, f"bounds.{a}", a) for a, v in vars(dsmc.ActuatorBounds()).items()},
    ),
    "PhiTrue": (
        plant.PhiTrue, {a: (v, f"phi_true.{a}", a) for a, v in vars(plant.PhiTrue()).items()},
    ),
    "PlantConventions": (
        plant.PlantConventions, {a: (v, a, a) for a, v in vars(plant.PlantConventions()).items()},
    ),
    "PlantConstants": (
        plant.PlantConstants,
        {a: (v, f"constants.{a}", a) for a, v in vars(plant.PlantConstants()).items()},
    ),
    "PlantModel": (
        plant.PlantModel,
        {
            "constants": (plant.PlantConstants(), "constants", "constants"),
            "conventions": (plant.PlantConventions(), "conventions", None),
            "phi": (plant.PhiTrue(), "phi", None),
        },
    ),
    "CascadeController": (
        dsmc.CascadeController,
        {
            **{
                f"loop_{k}": (dsmc.AdaptiveLoop(dsmc.BETA_DEFAULT, rho), f"loop_{k}", f"loop_{k}")
                for k, rho in dsmc.RHO_DEFAULTS.items()
            },
            "T": (0.02, "sample time", "T"),
            "afi_floor": (dsmc.AFI_FLOOR_DEFAULT, "afi_floor", "afi_floor"),
            "delta_initial": (0.0, "delta_initial", "_delta_held"),
            "constants": (plant.PlantConstants(), "constants", "constants"),
            "bounds": (dsmc.ActuatorBounds(), "bounds", "bounds"),
        },
    ),
    "FirstOrderTF": (rga.FirstOrderTF, {a: (1.0, a, a) for a in ("tau", "k")}),
    "TFMatrix": (rga.TFMatrix, {"entries": ([[rga.FirstOrderTF(1.0, 1.0)]], "entries", None)}),
}


@st.composite
def damaged_calls(draw):
    name = draw(st.sampled_from(sorted(CONSTRUCTORS)))
    return name, draw(st.sampled_from(sorted(CONSTRUCTORS[name][1]))), draw(STRAYS)


@settings(max_examples=300, deadline=None)
@given(case=damaged_calls())
@example(case=("ActuatorBounds", "mdot_ai", ("0", "1")))
@example(case=("ActuatorBounds", "mdot_ai", (False, True)))
@example(case=("ActuatorBounds", "mdot_ai", (0.0, math.inf)))
@example(case=("ActuatorBounds", "mdot_ai", 0.5))
@example(case=("ActuatorBounds", "mdot_ai", (0.0, 0.5, 1.0)))
@example(case=("AdaptiveLoop", "beta", "x"))
@example(case=("AdaptiveLoop", "phi_hat", 10**5000))
@example(case=("AdaptiveLoop", "rho", math.inf))
@example(case=("AdaptiveLoop", "s_prev", math.nan))
@example(case=("AdaptiveLoop", "adaptation_enabled", "no"))
@example(case=("CascadeController", "T", math.nan))
@example(case=("CascadeController", "T", True))
@example(case=("CascadeController", "T", "x"))
@example(case=("CascadeController", "afi_floor", None))
@example(case=("CascadeController", "delta_initial", math.nan))
@example(case=("CascadeController", "constants", "x"))
@example(case=("CascadeController", "bounds", "x"))
@example(case=("FirstOrderTF", "tau", True))
@example(case=("FirstOrderTF", "tau", "x"))
@example(case=("FirstOrderTF", "k", 10**5000))
@example(case=("PlantConstants", "J", "x"))
@example(case=("PlantConstants", "J", 0.0))
@example(case=("PlantConstants", "J", math.nan))
@example(case=("PlantConstants", "alpha_f", -1.0))
@example(case=("PlantModel", "constants", "x"))
@example(case=("CascadeController", "loop_fuel", "x"))
@example(case=("CascadeController", "loop_air", None))
@example(case=("TFMatrix", "entries", None))
@example(case=("TFMatrix", "entries", [[1.0]]))
def test_a_constructor_keeps_a_clean_value_or_refuses_naming_the_argument(case):
    """One argument of a valid call replaced by a stray value: the call
    raises a ConfigError naming that argument, or builds an object that
    keeps a value of the valid one's type, with finite numbers (a pair
    increasing)."""
    name, arg, value = case
    make, args = CONSTRUCTORS[name]
    like, refused_as, kept_in = args[arg]
    try:
        built = make(**{**{a: v for a, (v, _, _) in args.items()}, arg: value})
    except ConfigError as e:
        assert re.match(rf"{re.escape(refused_as)}[ \[]", str(e)), str(e)
        return
    assert kept_in is not None, built
    kept = getattr(built, kept_in)
    assert type(kept) is type(like), kept
    if isinstance(like, tuple):
        assert len(kept) == 2 and all(type(v) is float for v in kept) and kept[0] < kept[1], kept
        assert math.isfinite(kept[1] - kept[0]), kept
    elif isinstance(like, float):
        assert math.isfinite(kept), kept


# ---------------------------------------------------------------------------
# adaptation law


def test_adapt_zero_surface_is_fixed_point():
    loop = make_loop(rho=10.0)
    assert dsmc.adapt(loop, 0.0, 123.4, 0.02) == 1.0
    assert loop.phi_hat == 1.0


def test_adapt_zero_drift_is_fixed_point():
    loop = make_loop(rho=10.0)
    assert dsmc.adapt(loop, 5.0, 0.0, 0.02) == 1.0


def test_adapt_hand_value():
    # T=0.02, s=2, f=0.5, rho=10: 1 + 0.02*2*0.5/10 = 1.002
    loop = make_loop(rho=10.0)
    assert dsmc.adapt(loop, 2.0, 0.5, 0.02) == pytest.approx(1.002, rel=1e-15)


def test_adapt_disabled_freezes_estimate():
    loop = make_loop(rho=10.0, adaptation_enabled=False)
    dsmc.adapt(loop, 2.0, 0.5, 0.02)
    assert loop.phi_hat == 1.0


def test_adapt_sign_flip():
    up = make_loop(rho=10.0)
    down = make_loop(rho=10.0, adapt_sign=-1.0)
    dsmc.adapt(up, 2.0, 0.5, 0.02)
    dsmc.adapt(down, 2.0, 0.5, 0.02)
    assert up.phi_hat - 1.0 == pytest.approx(-(down.phi_hat - 1.0), rel=1e-15)


# ---------------------------------------------------------------------------
# surfaces


def state_on_afr(afr_d, m_a=0.004, omega=140.0, t_exh=650.0, mdot_f_offset=0.0):
    """State whose fuel flow sits ``mdot_f_offset`` above the AFR target's."""
    mdot_ao = plant.air_outflow(m_a, omega)
    return plant.EngineState(m_a, omega, mdot_ao / afr_d + mdot_f_offset, 25.0, t_exh)


def test_surfaces_zero_when_feedback_matches_targets():
    state = state_on_afr(13.0)
    out = with_default_gains().step(state, constant_targets(13.0))
    assert (out.s1, out.s2, out.s3) == (0.0, 0.0, 0.0)
    # the air surface tracks the synthetic target the speed loop issued
    assert out.s4 == state.m_a - out.m_a_d


def test_surface_speed_is_plain_error():
    state = state_on_afr(13.0, omega=110.0)
    out = with_default_gains().step(state, constant_targets(omega_d=100.0))
    assert out.s2 == 10.0


def test_surface_fuel_flow_domain():
    # the AFR target becomes a fuel-flow target through the cylinder air flow
    state = state_on_afr(14.7, mdot_f_offset=2e-4)
    out = with_default_gains().step(state, constant_targets(14.7))
    assert out.s1 == pytest.approx(2e-4, rel=1e-12)


def test_surfaces_reject_degenerate_afr_target():
    state = state_on_afr(13.0)
    with pytest.raises(DegenerateInputError):
        with_default_gains().step(state, constant_targets(0.0))


# ---------------------------------------------------------------------------
# the control law: each loop's coefficients, hand values, and the longhand laws


def fuel_row(mdot_f, T, alpha_f):
    return alpha_f / T, T / alpha_f, mdot_f


def speed_row(omega_e, T, J):
    return J / (plant.TORQUE_AIR_GAIN * T), T / J, plant.load_torque(omega_e)


def air_row(mdot_ao, T):
    return 1.0 / T, mdot_ao, T


def exh_row(t_exh, afi_value, alpha_e, T):
    return (
        alpha_e / (plant.SPARK_TEMP_GAIN * afi_value * T),
        -(T / alpha_e),
        plant.SPARK_TEMP_BASE * afi_value - t_exh,
    )


def test_fuel_law_pure_feedforward_holds_equilibrium():
    loop = make_loop()
    got = dsmc.control_law(*fuel_row(1e-3, 0.02, 0.06), 0.0, 5e-4, 5e-4, loop)
    assert got == pytest.approx(1e-3, rel=1e-15)


def test_fuel_law_zero_estimate_zero_surface():
    loop = make_loop(phi_hat=0.0)
    assert dsmc.control_law(*fuel_row(1e-3, 0.02, 0.06), 0.0, 5e-4, 5e-4, loop) == 0.0


def test_fuel_law_hand_value():
    # 3*(0.02/0.06*0.001 - 1.5*2e-4) = 1e-4
    loop = make_loop(beta=0.5)
    got = dsmc.control_law(*fuel_row(1e-3, 0.02, 0.06), 2e-4, 7e-4, 7e-4, loop)
    assert got == pytest.approx(1e-4, rel=1e-9)


def test_synthetic_air_mass_equilibrium():
    loop = make_loop()
    got = dsmc.control_law(*speed_row(140.0, 0.02, 0.1454), 0.0, 140.0, 140.0, loop)
    assert got == pytest.approx((100.0 + 0.4 * 140.0) / 30000.0, rel=1e-12)


def test_synthetic_air_mass_zero_speed():
    loop = make_loop()
    got = dsmc.control_law(*speed_row(0.0, 0.02, 0.1454), 0.0, 100.0, 100.0, loop)
    assert got == pytest.approx(100.0 / 30000.0, rel=1e-12)


def test_synthetic_air_mass_zero_estimate():
    loop = make_loop(phi_hat=0.0)
    assert dsmc.control_law(*speed_row(140.0, 0.02, 0.1454), 0.0, 140.0, 140.0, loop) == 0.0


def test_airflow_law_holds_air_mass():
    loop = make_loop()
    got = dsmc.control_law(*air_row(0.01, 0.02), 0.0, 0.004, 0.004, loop)
    assert got == pytest.approx(0.01, rel=1e-15)


def test_airflow_law_hand_value():
    # 50*(0.01*0.02 + 1.5e-4) = 0.0175
    loop = make_loop(beta=0.5)
    got = dsmc.control_law(*air_row(0.01, 0.02), -1e-4, 0.004, 0.004, loop)
    assert got == pytest.approx(0.0175, rel=1e-12)


def test_spark_law_zero_at_consistent_exhaust_temp():
    loop = make_loop()
    afi_v = 0.9
    row = exh_row(600.0 * afi_v, afi_v, plant.exhaust_time_constant(140.0), 0.02)
    got = dsmc.control_law(*row, 0.0, 540.0, 540.0, loop)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_spark_law_static_inverse():
    loop = make_loop()
    afi_v, t_exh = 0.95, 640.0
    row = exh_row(t_exh, afi_v, plant.exhaust_time_constant(140.0), 0.02)
    got = dsmc.control_law(*row, 0.0, t_exh, t_exh, loop)
    assert got == pytest.approx((t_exh - 600.0 * afi_v) / (7.5 * afi_v), rel=1e-12)


def test_spark_law_beta_two_point_difference():
    # with s3 = 10 the beta term contributes (beta+1)*10 inside the bracket
    afi_v, omega, t_exh, s3, T = 0.9, 140.0, 620.0, 10.0, 0.02
    alpha_e = 2.0 * math.pi / omega
    row = exh_row(t_exh, afi_v, plant.exhaust_time_constant(omega), T)
    lo = dsmc.control_law(*row, s3, 650.0, 650.0, make_loop(beta=0.05))
    hi = dsmc.control_law(*row, s3, 650.0, 650.0, make_loop(beta=0.9))
    want = alpha_e / (7.5 * afi_v * T) * (0.9 - 0.05) * s3
    assert lo - hi == pytest.approx(want, rel=1e-12)


# Each loop's law written out longhand, in its own expression order: the
# oracles that control_law at that loop's coefficients is checked against,
# bit for bit.  The spark law's AFI floor is the controller's (step tests).


def longhand_fuel(mdot_f, s1, mdot_fd_now, mdot_fd_next, loop, T, alpha_f):
    return (alpha_f / T) * (
        loop.phi_hat * (T / alpha_f) * mdot_f
        - (loop.beta + 1.0) * s1
        + mdot_fd_next
        - mdot_fd_now
    )


def longhand_speed(omega_e, s2, omega_d_now, omega_d_next, loop, T, J):
    return (J / (plant.TORQUE_AIR_GAIN * T)) * (
        loop.phi_hat * (T / J) * plant.load_torque(omega_e)
        - (loop.beta + 1.0) * s2
        + omega_d_next
        - omega_d_now
    )


def longhand_air(mdot_ao, s4, m_a_d_now, m_a_d_next, loop, T):
    return (1.0 / T) * (
        loop.phi_hat * mdot_ao * T - (loop.beta + 1.0) * s4 + m_a_d_next - m_a_d_now
    )


def longhand_exh(t_exh, afi_value, alpha_e, s3, t_exh_d_now, t_exh_d_next, loop, T):
    return (alpha_e / (plant.SPARK_TEMP_GAIN * afi_value * T)) * (
        -loop.phi_hat * (T / alpha_e) * (plant.SPARK_TEMP_BASE * afi_value - t_exh)
        - (loop.beta + 1.0) * s3
        + t_exh_d_next
        - t_exh_d_now
    )


finite = st.floats(allow_nan=False, allow_infinity=False)
# bounded so that no product of sample time, plant constant and influence
# factor underflows to a zero divisor
positive = st.floats(min_value=1e-6, max_value=1e6)


@settings(max_examples=400, deadline=None)
@given(
    x=finite, s=finite, d_now=finite, d_next=finite, T=positive, p=positive,
    afi_value=st.floats(min_value=1e-3, max_value=1.0) | st.floats(min_value=-1.0, max_value=-1e-3),
    phi_hat=st.sampled_from((0.0, -0.0, -1.0)) | finite,
    beta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_control_law_is_each_longhand_law_bit_for_bit(
    x, s, d_now, d_next, T, p, afi_value, phi_hat, beta
):
    """``x`` is the loop's drift input, ``p`` its J, alpha_f or alpha_e."""
    loop = make_loop(beta=beta, phi_hat=phi_hat)
    law = dsmc.control_law
    pairs = {
        "fuel": (
            law(*fuel_row(x, T, p), s, d_now, d_next, loop),
            longhand_fuel(x, s, d_now, d_next, loop, T, p),
        ),
        "speed": (
            law(*speed_row(x, T, p), s, d_now, d_next, loop),
            longhand_speed(x, s, d_now, d_next, loop, T, p),
        ),
        "air": (
            law(*air_row(x, T), s, d_now, d_next, loop),
            longhand_air(x, s, d_now, d_next, loop, T),
        ),
        "exh": (
            law(*exh_row(x, afi_value, p, T), s, d_now, d_next, loop),
            longhand_exh(x, afi_value, p, s, d_now, d_next, loop, T),
        ),
    }
    for name, (got, want) in pairs.items():
        assert got.hex() == want.hex(), name


# ---------------------------------------------------------------------------
# saturation


def test_saturate_passes_and_clamps():
    assert dsmc.saturate(0.5, (0.0, 1.0)) == (0.5, False)
    assert dsmc.saturate(-0.1, (0.0, 1.0)) == (0.0, True)
    assert dsmc.saturate(1.7, (0.0, 1.0)) == (1.0, True)


def test_saturate_refuses_nan():
    with pytest.raises(DegenerateInputError, match="NaN"):
        dsmc.saturate(math.nan, (0.0, 1.0))


def test_bounds_reject_inverted_range():
    with pytest.raises(ValueError):
        dsmc.ActuatorBounds(delta=(45.0, -10.0))


# ---------------------------------------------------------------------------
# full cascade step


def equilibrium_state(omega=140.0, afr_d=13.0, t_exh_target=650.0):
    """State where every loop sits exactly on its target."""
    m_a = (100.0 + 0.4 * omega) / 30000.0
    mdot_ao = plant.air_outflow(m_a, omega)
    mdot_f = mdot_ao / afr_d
    return plant.EngineState(m_a=m_a, omega_e=omega, mdot_f=mdot_f, T_cat=25.0, T_exh=t_exh_target)


def test_controller_step_equilibrium_feedforward():
    state = equilibrium_state()
    mdot_ao = plant.air_outflow(state.m_a, state.omega_e)
    afr_value = mdot_ao / state.mdot_f
    afi_v = plant.afi(afr_value)
    ctl = with_default_gains()
    out = ctl.step(state, constant_targets(afr_d=afr_value, omega_d=140.0, t_exh_d=650.0))
    # at the cascade's fixed point the commands are the plant's equilibrium
    # feedforward: hold air mass, hold fuel flow, spark solving the static
    # exhaust-temperature balance
    assert out.s2 == 0.0 and out.s3 == 0.0
    assert abs(out.s1) < 1e-12 and abs(out.s4) < 1e-12
    assert out.mdot_ai == pytest.approx(mdot_ao, rel=1e-9)
    assert out.mdot_fc == pytest.approx(state.mdot_f, rel=1e-9)
    assert out.delta == pytest.approx((650.0 - 600.0 * afi_v) / (7.5 * afi_v), rel=1e-9)
    assert not (out.sat_air or out.sat_fuel or out.sat_delta)
    assert out.events == ()


def test_controller_step_telemetry_consistency():
    state = equilibrium_state(omega=150.0)
    ctl = with_default_gains()
    targets = constant_targets(afr_d=13.5, omega_d=149.8, t_exh_d=640.0)
    out = ctl.step(state, targets)
    assert out.s2 == pytest.approx(0.2)
    # first step: xi = s since s_prev starts at zero
    assert out.xi2 == pytest.approx(out.s2)
    # no estimator update on the first step: s(0) is an initial condition,
    # not evidence about a previously applied command
    assert out.phi_hat_speed == 1.0
    assert not out.sat_air
    out2 = ctl.step(state, targets)
    assert out2.xi2 == pytest.approx(out2.s2 + 0.5 * out.s2)
    # second step adapts (the step-0 air command was applied unsaturated)
    # and the output carries the post-update value
    assert out2.phi_hat_speed != 1.0


def test_controller_step_afi_floor_holds_previous_delta():
    # force AFR far lean so the cosine influence factor collapses:
    # afi = cos(0.13*(afr-13.5)) < 0.05 needs afr ~ 25.1
    omega = 140.0
    m_a = (100.0 + 0.4 * omega) / 30000.0
    mdot_ao = plant.air_outflow(m_a, omega)
    state = plant.EngineState(m_a, omega, mdot_f=mdot_ao / 25.4, T_cat=25.0, T_exh=650.0)
    assert abs(plant.afi(mdot_ao / state.mdot_f)) < 0.05
    ctl = with_default_gains(delta_initial=7.5)
    out = ctl.step(state, constant_targets(afr_d=14.7))
    assert out.delta == 7.5
    assert any("holding previous" in e for e in out.events)
    assert not out.sat_delta


def test_controller_step_afi_floor_is_strict():
    # the spark law runs at a floor equal to |afi|, and one ulp above it holds
    state = equilibrium_state()
    floor = abs(plant.afi(plant.air_outflow(state.m_a, state.omega_e) / state.mdot_f))
    ran = with_default_gains(afi_floor=floor, delta_initial=7.5).step(state, constant_targets())
    held = with_default_gains(afi_floor=math.nextafter(floor, math.inf), delta_initial=7.5).step(
        state, constant_targets()
    )
    assert ran.events == () and ran.delta != 7.5
    assert held.events == ("spark gain below AFI floor; holding previous command",)
    assert held.delta == 7.5


def test_controller_step_saturation_flags():
    # massive speed error drives the air command into its upper bound
    state = equilibrium_state(omega=60.0)
    ctl = with_default_gains()
    out = ctl.step(state, constant_targets(omega_d=500.0))
    assert out.sat_air and out.mdot_ai == 0.1


def test_controller_step_degenerate_fuel_propagates():
    state = plant.EngineState(0.004, 140.0, 0.0, 25.0, 650.0)
    ctl = with_default_gains()
    with pytest.raises(DegenerateInputError):
        ctl.step(state, constant_targets())


def test_speed_loop_only_output_is_the_synthetic_target():
    """Cascade structure: changing the speed target moves the air command only
    through the synthetic air-mass target."""
    state = equilibrium_state()
    t1 = constant_targets(omega_d=140.0)
    t2 = constant_targets(omega_d=150.0)
    ctl1 = with_default_gains()
    ctl2 = with_default_gains()
    out1 = ctl1.step(state, t1)
    out2 = ctl2.step(state, t2)
    # on a first step the tracked target is the one just issued
    assert out1.m_a_d != out2.m_a_d
    # the spark loop is untouched by the speed target; the fuel command may
    # move because its target lookahead predicts through the air command
    assert out1.delta == out2.delta
    assert out1.s1 == out2.s1 and out1.s3 == out2.s3
