"""Sliding-mode loop laws: hand-evaluated cases plus cascade behavior."""

import math

import pytest

from coldstart import dsmc, plant
from coldstart.errors import DegenerateInputError, SingularGainError
from coldstart.trajectory import TargetWindow
from lab_helpers import with_default_gains


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
# control laws, hand values


def test_fuel_law_pure_feedforward_holds_equilibrium():
    loop = make_loop()
    got = dsmc.control_fuel(1e-3, 0.0, 5e-4, 5e-4, loop, 0.02, 0.06)
    assert got == pytest.approx(1e-3, rel=1e-15)


def test_fuel_law_zero_estimate_zero_surface():
    loop = make_loop(phi_hat=0.0)
    assert dsmc.control_fuel(1e-3, 0.0, 5e-4, 5e-4, loop, 0.02, 0.06) == 0.0


def test_fuel_law_hand_value():
    # 3*(0.02/0.06*0.001 - 1.5*2e-4) = 1e-4
    loop = make_loop(beta=0.5)
    got = dsmc.control_fuel(1e-3, 2e-4, 7e-4, 7e-4, loop, 0.02, 0.06)
    assert got == pytest.approx(1e-4, rel=1e-9)


def test_synthetic_air_mass_equilibrium():
    loop = make_loop()
    got = dsmc.synthetic_air_mass(140.0, 0.0, 140.0, 140.0, loop, 0.02, 0.1454)
    assert got == pytest.approx((100.0 + 0.4 * 140.0) / 30000.0, rel=1e-12)


def test_synthetic_air_mass_zero_speed():
    loop = make_loop()
    got = dsmc.synthetic_air_mass(0.0, 0.0, 100.0, 100.0, loop, 0.02, 0.1454)
    assert got == pytest.approx(100.0 / 30000.0, rel=1e-12)


def test_synthetic_air_mass_zero_estimate():
    loop = make_loop(phi_hat=0.0)
    assert dsmc.synthetic_air_mass(140.0, 0.0, 140.0, 140.0, loop, 0.02, 0.1454) == 0.0


def test_airflow_law_holds_air_mass():
    loop = make_loop()
    got = dsmc.control_airflow(0.01, 0.0, 0.004, 0.004, loop, 0.02)
    assert got == pytest.approx(0.01, rel=1e-15)


def test_airflow_law_hand_value():
    # 50*(0.01*0.02 + 1.5e-4) = 0.0175
    loop = make_loop(beta=0.5)
    got = dsmc.control_airflow(0.01, -1e-4, 0.004, 0.004, loop, 0.02)
    assert got == pytest.approx(0.0175, rel=1e-12)


def test_spark_law_zero_at_consistent_exhaust_temp():
    loop = make_loop()
    afi_v = 0.9
    got = dsmc.control_spark(600.0 * afi_v, afi_v, plant.exhaust_time_constant(140.0), 0.0, 540.0, 540.0, loop, 0.02)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_spark_law_static_inverse():
    loop = make_loop()
    afi_v, t_exh = 0.95, 640.0
    got = dsmc.control_spark(t_exh, afi_v, plant.exhaust_time_constant(140.0), 0.0, t_exh, t_exh, loop, 0.02)
    assert got == pytest.approx((t_exh - 600.0 * afi_v) / (7.5 * afi_v), rel=1e-12)


def test_spark_law_beta_two_point_difference():
    # with s3 = 10 the beta term contributes (beta+1)*10 inside the bracket
    afi_v, omega, t_exh, s3, T = 0.9, 140.0, 620.0, 10.0, 0.02
    alpha_e = 2.0 * math.pi / omega
    lo = dsmc.control_spark(
        t_exh, afi_v, plant.exhaust_time_constant(omega), s3, 650.0, 650.0, make_loop(beta=0.05), T
    )
    hi = dsmc.control_spark(
        t_exh, afi_v, plant.exhaust_time_constant(omega), s3, 650.0, 650.0, make_loop(beta=0.9), T
    )
    want = alpha_e / (7.5 * afi_v * T) * (0.9 - 0.05) * s3
    assert lo - hi == pytest.approx(want, rel=1e-12)


def test_spark_law_raises_below_afi_floor():
    loop = make_loop()
    with pytest.raises(SingularGainError):
        dsmc.control_spark(650.0, 0.01, plant.exhaust_time_constant(140.0), 0.0, 650.0, 650.0, loop, 0.02)


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
