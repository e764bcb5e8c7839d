"""Closed-form engine model checks against hand values and a flat re-transcription."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lab_helpers import reference_catalyst_efficiency

from coldstart import plant
from coldstart.errors import ConfigError, DegenerateInputError
from coldstart.looplab import euler_step
from coldstart.plant import (
    ControlInput,
    EngineState,
    PhiTrue,
    PlantConstants,
    PlantConventions,
    PlantModel,
)


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# independent transcription used as the derivative oracle: every formula is
# re-typed flat here, no calls into the package under test.


def oracle_derivatives(
    state, inputs, c, hc_mode, qgen_grouping, qin_direction, phi=(1.0, 1.0, 1.0, 1.0)
):
    m_a, omega_e, mdot_f, t_cat, t_exh = state
    mdot_ai, mdot_fc, delta = inputs
    phi_fuel, phi_speed, phi_exh, phi_air = phi

    w2 = omega_e * omega_e
    eta_vol = (
        m_a * m_a * (-0.1636 * w2 - 7.093 * omega_e - 1750.0)
        + m_a * (0.0029 * w2 - 0.4033 * omega_e + 85.38)
        - (1.06e-6 * w2 - 0.0021 * omega_e - 0.2719)
    )
    mdot_ao = 0.0254 * eta_vol * m_a * omega_e
    afr = mdot_ao / mdot_f
    alpha_e = 2.0 * math.pi / omega_e
    afi = math.cos(0.13 * (afr - 13.5))

    theta_0 = delta + 10.0
    k1 = 0.1 if afr >= c["afr_st"] else 0.4
    dtheta = k1 * (afr - 16.2) ** 2 + 80.0
    powered = ((c["theta_evo"] - theta_0) / dtheta) ** c["n"]
    exponent = -abs(c["a"]) * powered if hc_mode == "unburned_fraction" else -c["a"] * powered
    hc_eng = mdot_f * (c["r_c"] - 1.0) / c["r_c"] * math.exp(exponent)

    afr_exp = min(-5.0 * (afr / c["afr_cat"] - 0.7) ** 15, 700.0)
    temp_exp = min(-0.2 * ((t_cat - 30.0) / 150.0) ** 5, 700.0)
    eta_cat = 0.98 * (1.0 - math.exp(afr_exp)) * (1.0 - math.exp(temp_exp))
    eta_cat = min(max(eta_cat, 0.0), 0.98)

    q_in = 16.0 * (t_exh - t_cat)
    q_out = 0.642 * (t_cat - c["t_atm"])
    if qgen_grouping == "as_printed":
        flow_term = mdot_ao + mdot_f * t_exh
    else:
        flow_term = (mdot_ao + mdot_f) * t_exh
    q_gen = 22.53 * flow_term * eta_cat * hc_eng
    q_in_signed = q_in if qin_direction == "heats_catalyst" else -q_in

    return (
        mdot_ai - phi_air * mdot_ao,
        (30000.0 * m_a - phi_speed * (0.4 * omega_e + 100.0)) / c["J"],
        (mdot_fc - phi_fuel * mdot_f) / c["alpha_f"],
        (q_gen + q_in_signed - q_out) / c["mcp"],
        (phi_exh * (600.0 * afi - t_exh) + 7.5 * delta * afi) / alpha_e,
    )


def random_states_and_inputs(n, seed=12345):
    # air charge kept inside the region where the pumping fit stays positive
    rng = np.random.default_rng(seed)
    for _ in range(n):
        state = EngineState(
            m_a=float(rng.uniform(5e-4, 0.012)),
            omega_e=float(rng.uniform(30.0, 500.0)),
            mdot_f=float(rng.uniform(1e-5, 0.008)),
            T_cat=float(rng.uniform(0.0, 900.0)),
            T_exh=float(rng.uniform(0.0, 950.0)),
        )
        inputs = ControlInput(
            mdot_ai=float(rng.uniform(0.0, 0.1)),
            mdot_fc=float(rng.uniform(0.0, 0.01)),
            delta=float(rng.uniform(-10.0, 45.0)),
        )
        yield state, inputs


# ---------------------------------------------------------------------------
# volumetric efficiency and air outflow


def test_volumetric_efficiency_at_rest_is_constant_term():
    assert plant.volumetric_efficiency(0.0, 0.0) == pytest.approx(0.2719, abs=0.0)


def test_volumetric_efficiency_zero_charge_hand_value():
    # only the trailing bracket survives: -(1.06e-6*1e4 - 0.21 - 0.2719)
    assert plant.volumetric_efficiency(0.0, 100.0) == pytest.approx(0.4713, rel=1e-12)


def test_volumetric_efficiency_matches_flat_polynomial():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m_a = float(rng.uniform(0.0, 0.05))
        w = float(rng.uniform(0.0, 600.0))
        expected = (
            m_a**2 * (-0.1636 * w**2 - 7.093 * w - 1750.0)
            + m_a * (0.0029 * w**2 - 0.4033 * w + 85.38)
            - (1.06e-6 * w**2 - 0.0021 * w - 0.2719)
        )
        assert rel_diff(plant.volumetric_efficiency(m_a, w), expected) < 1e-12


def test_air_outflow_vanishes_without_charge_or_speed():
    assert plant.air_outflow(0.0, 300.0) == 0.0
    assert plant.air_outflow(0.01, 0.0) == 0.0


def test_air_outflow_nominal_value():
    m_a, w = 0.004, 125.0
    expected = 0.0254 * plant.volumetric_efficiency(m_a, w) * m_a * w
    assert plant.air_outflow(m_a, w) == pytest.approx(expected, rel=0.0)


# ---------------------------------------------------------------------------
# speed-row split and AFR helpers


def test_speed_row_is_load_drift_plus_air_drive():
    # m_a=0.01, w=150: drift -(100 + 0.4*150) = -160 Nm, drive 30000*0.01 = 300 Nm
    state = EngineState(m_a=0.01, omega_e=150.0, mdot_f=1e-3, T_cat=25.0, T_exh=500.0)
    model = PlantModel()
    mdot_ao, afr_value, *_ = model.emissions(*state[:4], 0.0)
    _, _, _, f_speed, _, _ = model.drift(
        state.omega_e, state.mdot_f, state.T_exh, mdot_ao, afr_value
    )
    J = PlantConstants().J
    assert f_speed * J == pytest.approx(-160.0, rel=1e-14)
    assert (f_speed + model.speed_gain * state.m_a) * J == pytest.approx(140.0, rel=1e-14)


def test_afi_peaks_at_cosine_center():
    assert plant.afi(13.5) == 1.0


def test_afi_stoichiometric_value():
    assert plant.afi(14.7) == pytest.approx(math.cos(0.156), rel=1e-15)


def test_afi_zero_at_quarter_period():
    assert abs(plant.afi(13.5 + math.pi / 0.26)) < 1e-12


def test_afi_bounded_by_one():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-50.0, 80.0, size=500):
        assert abs(plant.afi(float(x))) <= 1.0


def test_afr_ratio_and_zero_numerator():
    assert plant.afr(0.0147, 0.001) == pytest.approx(14.7, rel=1e-14)
    assert plant.afr(0.0, 0.001) == 0.0


def test_afr_degenerate_fuel_flow_raises():
    with pytest.raises(DegenerateInputError):
        plant.afr(0.01, 1e-9)
    with pytest.raises(DegenerateInputError):
        plant.afr(0.01, 0.0)


def test_afr_non_finite_ratio_is_degenerate():
    # an air flow that overflowed would reach math.cos(inf) in afi
    for mdot_ao in (math.inf, -math.inf, math.nan):
        with pytest.raises(DegenerateInputError, match="is not finite"):
            plant.afr(mdot_ao, 0.001)


def test_exhaust_time_constant_one_revolution():
    assert plant.exhaust_time_constant(2.0 * math.pi) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DegenerateInputError):
        plant.exhaust_time_constant(0.0)
    with pytest.raises(DegenerateInputError):
        plant.exhaust_time_constant(-5.0)


# ---------------------------------------------------------------------------
# burn duration and engine-out HC


def test_burn_duration_rich_branch():
    assert plant.burn_duration(12.0) == pytest.approx(87.056, rel=1e-12)


def test_burn_duration_lean_branch():
    assert plant.burn_duration(18.0) == pytest.approx(80.324, rel=1e-12)


def test_burn_duration_stoichiometric_uses_lean_coefficient():
    assert plant.burn_duration(14.7) == pytest.approx(0.1 * (14.7 - 16.2) ** 2 + 80.0, rel=0.0)


def test_burn_duration_floor_is_eighty_degrees():
    rng = np.random.default_rng(11)
    for x in rng.uniform(5.0, 30.0, size=200):
        assert plant.burn_duration(float(x)) >= 80.0


def test_engine_out_hc_hand_value_default_mode():
    got = plant.engine_out_hc(0.001, 0.0, 16.2)
    expected = 0.001 * (8.0 / 9.0) * math.exp(-2.0 * (100.0 / 80.0) ** 5)
    assert got == pytest.approx(expected, rel=1e-14)


def test_engine_out_hc_literal_mode_amplifies():
    got = plant.engine_out_hc(0.001, 0.0, 16.2, hc_mode="as_printed")
    expected = 0.001 * (8.0 / 9.0) * math.exp(2.0 * (100.0 / 80.0) ** 5)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got > 0.001  # literal reading exceeds the fuel flow itself


def test_engine_out_hc_no_oxidation_window():
    # burn start pushed to the exhaust valve opening angle leaves no time to burn
    got = plant.engine_out_hc(0.002, 100.0, 14.0)
    assert got == pytest.approx(0.002 * (8.0 / 9.0), rel=1e-14)


def test_engine_out_hc_default_mode_bounded_by_unburned_fraction():
    rng = np.random.default_rng(21)
    for _ in range(300):
        mdot_f = float(rng.uniform(1e-5, 0.01))
        delta = float(rng.uniform(-10.0, 100.0))  # burn start at or before valve opening
        afr_value = float(rng.uniform(8.0, 25.0))
        hc = plant.engine_out_hc(mdot_f, delta, afr_value)
        assert 0.0 <= hc <= mdot_f * (8.0 / 9.0) * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "overrides, delta",
    [
        ({"n": 1.5}, 120.0),  # a burn past valve opening, to a fractional power: complex
        ({"n": -1.0}, 100.0),  # no oxidation window, to a negative power: 0 ** -1
    ],
)
def test_emission_chain_without_a_real_value_is_a_degenerate_input(overrides, delta):
    model = PlantModel(replace(PlantConstants(), **overrides))
    with pytest.raises(DegenerateInputError):
        model.emissions(0.004, 125.0, 7.7e-4, 25.0, delta)


def test_engine_out_hc_rejects_unknown_mode():
    with pytest.raises(ValueError):
        plant.engine_out_hc(0.001, 0.0, 14.0, hc_mode="bogus")


# ---------------------------------------------------------------------------
# catalyst efficiency and heat balance


def test_catalyst_efficiency_zero_at_afr_cutoff():
    ref = 14.7
    assert plant.catalyst_efficiency(0.7 * ref, 400.0, afr_ref=ref) == 0.0


def test_catalyst_efficiency_hand_value_at_reference():
    got = plant.catalyst_efficiency(14.7, 330.0, afr_ref=14.7)
    expected = (
        0.98
        * (1.0 - math.exp(-5.0 * 0.3**15))
        * (1.0 - math.exp(-0.2 * 2.0**5))
    )
    assert got == pytest.approx(expected, rel=1e-13)


def test_catalyst_efficiency_cold_brick_clamps_to_zero():
    assert plant.catalyst_efficiency(14.7, 25.0) == 0.0
    assert plant.catalyst_efficiency(14.7, -40.0) == 0.0


def test_catalyst_efficiency_rich_mixture_clamps_to_zero():
    # far rich of the cutoff the AFR term goes negative before clamping
    assert plant.catalyst_efficiency(6.0, 500.0, afr_ref=14.7) == 0.0


def test_catalyst_efficiency_bounds_and_monotonicity():
    rng = np.random.default_rng(31)
    ref = 8.4
    for _ in range(300):
        a = float(rng.uniform(0.3 * ref, 3.0 * ref))
        t = float(rng.uniform(-50.0, 1200.0))
        eta = plant.catalyst_efficiency(a, t, afr_ref=ref)
        assert 0.0 <= eta <= 0.98
    # nondecreasing in brick temperature above the cold cutoff
    for afr_value in [0.71 * ref, ref, 1.5 * ref, 2.0 * ref]:
        grid = np.linspace(30.0, 1000.0, 80)
        etas = [plant.catalyst_efficiency(afr_value, float(t), afr_ref=ref) for t in grid]
        assert all(b >= a - 1e-15 for a, b in zip(etas, etas[1:]))


def catalyst_outcome(efficiency, *args):
    """What ``efficiency`` gives at ``args``: the exception type it raises, or
    the bits of its value, with every NaN alike."""
    try:
        eta = efficiency(*args)
    except ArithmeticError as err:  # a fit overflows, or a zero reference
        return type(err)
    return "nan" if math.isnan(eta) else eta.hex()


EDGES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
# AFR over its reference: rich of -0.69 the AFR exponent clamps at 700; near
# 0.7 the AFR factor is exactly 0.0, which a negative brick factor makes -0.0
RATIOS = st.floats(-3.0, 3.0) | st.floats(0.6, 0.8) | EDGES
# below about -740 degC the brick exponent clamps at 700; near 30 its factor is 0.0
BRICK = st.floats(-3000.0, 1500.0) | st.floats(20.0, 40.0) | st.floats() | EDGES


@st.composite
def catalyst_inputs(draw):
    afr_ref = draw(st.sampled_from([plant.AFR_ST_DEFAULT, 8.4]) | st.floats() | EDGES)
    afr_value = draw(st.builds(lambda r: r * afr_ref, RATIOS) | st.floats() | EDGES)
    return afr_value, draw(BRICK), afr_ref


@settings(max_examples=500, deadline=None)
@given(args=catalyst_inputs())
@example(args=(-2.0 * 14.7, 400.0, 14.7))  # the AFR exponent clamps, then eta at 0
@example(args=(14.7, -1000.0, 14.7))  # the brick exponent clamps, then eta at 0
@example(args=(0.0, -1000.0, 14.7))  # eta clamps at 0.98
@example(args=(0.7 * 14.7, 20.0, 14.7))  # eta is -0.0, which max(eta, 0.0) keeps
@example(args=(math.nan, 400.0, 14.7))
@example(args=(14.7, math.nan, 14.7))
@example(args=(-math.inf, math.inf, 14.7))
@example(args=(math.inf, -math.inf, 14.7))
@example(args=(14.7, 330.0, 0.0))  # ZeroDivisionError
@example(args=(1e300, 400.0, 14.7))  # OverflowError
def test_catalyst_clamps_give_the_bits_of_min_and_max(args):
    """The comparisons that clamp ``catalyst_efficiency`` give what the
    builtin ``min``/``max`` give, bit for bit, for every float input."""
    assert catalyst_outcome(plant.catalyst_efficiency, *args) == catalyst_outcome(
        reference_catalyst_efficiency, *args
    ), args


def test_tailpipe_hc_fraction_passes_through():
    assert plant.tailpipe_hc(2e-5, 0.75) == pytest.approx(5e-6, rel=1e-14)
    assert plant.tailpipe_hc(2e-5, 0.0) == 2e-5
    rng = np.random.default_rng(41)
    for _ in range(200):
        hc = float(rng.uniform(0.0, 1e-3))
        eta = float(rng.uniform(0.0, 0.98))
        tp = plant.tailpipe_hc(hc, eta)
        assert 0.0 <= tp <= hc


def catalyst_heat_terms(state, emission, constants, conventions=PlantConventions()):
    """(q_in, q_out, q_gen) of the brick balance at ``state``, from the model."""
    return PlantModel(constants, conventions).heat_terms(
        state.T_cat, state.T_exh, state.mdot_f, emission.mdot_ao, emission.eta_cat,
        emission.hc_eng,
    )


def test_catalyst_heat_terms_signs_and_zeros():
    c = PlantConstants()
    state = EngineState(m_a=0.004, omega_e=125.0, mdot_f=4e-4, T_cat=25.0, T_exh=25.0)
    em = plant.emissions(state, 0.0, c)
    q_in, q_out, q_gen = catalyst_heat_terms(state, em, c)
    assert q_in == 0.0  # equal gas and brick temperatures
    assert q_out == 0.0  # brick at ambient
    state_hot = EngineState(m_a=0.004, omega_e=125.0, mdot_f=4e-4, T_cat=25.0, T_exh=650.0)
    em_cold_brick = plant.emissions(state_hot, 0.0, c)
    q_in, q_out, q_gen = catalyst_heat_terms(state_hot, em_cold_brick, c)
    assert q_in == pytest.approx(16.0 * 625.0, rel=1e-14)
    assert em_cold_brick.eta_cat == 0.0  # cold brick converts nothing
    assert q_gen == 0.0


def test_catalyst_heat_generated_grouping_switch():
    c = PlantConstants()
    state = EngineState(m_a=0.006, omega_e=150.0, mdot_f=1e-3, T_cat=400.0, T_exh=700.0)
    em = plant.emissions(state, 10.0, c)
    assert em.eta_cat > 0.0
    mdot_ao = plant.air_outflow(state.m_a, state.omega_e)
    _, _, q_printed = catalyst_heat_terms(state, em, c, PlantConventions())
    _, _, q_grouped = catalyst_heat_terms(
        state, em, c, PlantConventions(qgen_grouping="flow_times_temp")
    )
    assert q_printed == pytest.approx(
        22.53 * (mdot_ao + state.mdot_f * state.T_exh) * em.eta_cat * em.hc_eng, rel=1e-13
    )
    assert q_grouped == pytest.approx(
        22.53 * (mdot_ao + state.mdot_f) * state.T_exh * em.eta_cat * em.hc_eng, rel=1e-13
    )


# ---------------------------------------------------------------------------
# full derivative vector against the flat transcription


CONST_DICT = {
    "J": 0.1454,
    "alpha_f": 0.06,
    "mcp": 1250.0,
    "a": -2.0,
    "n": 5.0,
    "theta_evo": 110.0,
    "r_c": 9.0,
    "afr_st": 14.7,
    "t_atm": 25.0,
    "afr_cat": 8.4,
}


# every combination of the three convention switches
ALL_CONVENTIONS = [
    PlantConventions(),
    PlantConventions(qin_direction="heats_catalyst"),
    PlantConventions(hc_mode="as_printed", qgen_grouping="flow_times_temp"),
    PlantConventions(hc_mode="as_printed"),
    PlantConventions(qgen_grouping="flow_times_temp"),
    PlantConventions(hc_mode="as_printed", qin_direction="heats_catalyst"),
    PlantConventions(qgen_grouping="flow_times_temp", qin_direction="heats_catalyst"),
    PlantConventions(
        hc_mode="as_printed", qgen_grouping="flow_times_temp", qin_direction="heats_catalyst"
    ),
]
# a non-unit true uncertainty, different on every row
PHI = PhiTrue(fuel=0.5, speed=1.5, exh=0.75, air=1.25)


def oracle_call(state, inputs, conventions, phi):
    return oracle_derivatives(
        tuple(state),
        tuple(inputs),
        CONST_DICT,
        conventions.hc_mode,
        conventions.qgen_grouping,
        conventions.qin_direction,
        (phi.fuel, phi.speed, phi.exh, phi.air),
    )


@pytest.mark.parametrize("conventions", ALL_CONVENTIONS)
def test_derivatives_match_flat_transcription(conventions):
    constants = PlantConstants()
    for phi in (PhiTrue(), PHI):
        model = PlantModel(constants, conventions, phi)
        for state, inputs in random_states_and_inputs(1000):
            got, _ = model.rates(state, inputs)
            want = oracle_call(state, inputs, conventions, phi)
            for name, a, b in zip(EngineState._fields, got, want):
                assert rel_diff(a, b) <= 1e-12, f"{name}: {a} vs {b}"


@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("conventions", ALL_CONVENTIONS)
def test_euler_step_matches_flat_transcription(conventions, substeps):
    T = 0.02
    h = T / substeps
    model = PlantModel(PlantConstants(), conventions, PHI)
    for state, inputs in random_states_and_inputs(300, seed=2024):
        got, emission = euler_step(state, inputs, model, T, substeps)
        want = tuple(state)
        for _ in range(substeps):
            rates = oracle_call(want, inputs, conventions, PHI)
            want = tuple(x + h * d for x, d in zip(want, rates))
        for name, a, b in zip(EngineState._fields, got, want):
            assert rel_diff(a, b) <= 1e-12, f"{name}: {a} vs {b}"
        assert emission == plant.emissions(state, inputs.delta, PlantConstants(), conventions)


def bits(values):
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("substeps", [1, 2, 4])
def test_advance_is_its_substeps_chained(substeps):
    # one call over T has the bits of n single-substep calls over T/n, and
    # the chain of the first one
    T = 0.02
    model = PlantModel(PlantConstants(), PlantConventions(qin_direction="heats_catalyst"), PHI)
    for state, inputs in random_states_and_inputs(300, seed=77):
        got, chain = model.stepper(T, substeps)(state, inputs)
        want, want_chain = model.stepper(T / substeps)(state, inputs)
        for _ in range(substeps - 1):
            want, _ = model.stepper(T / substeps)(want, inputs)
        assert type(got) is tuple and type(chain) is tuple
        assert bits(got) == bits(want)
        assert bits(chain) == bits(want_chain) == bits(model.rates(state, inputs)[1])


@pytest.mark.parametrize("substeps", [1, 2])
def test_euler_step_is_advance_as_named_tuples(substeps):
    model = PlantModel(phi=PHI)
    for state, inputs in random_states_and_inputs(50, seed=78):
        x, chain = model.stepper(0.02, substeps)(state, inputs)
        got_state, got_chain = euler_step(state, inputs, model, 0.02, substeps)
        assert type(got_state) is EngineState and type(got_chain) is plant.EmissionOutputs
        assert bits(got_state) == bits(EngineState(*x))
        assert bits(got_chain) == bits(plant.EmissionOutputs(*chain))


@pytest.mark.parametrize("substeps", [0, -1])
def test_advance_refuses_substeps_below_one(substeps):
    state, inputs = next(random_states_and_inputs(1))
    message = f"^substeps must be an integer >= 1, got {substeps}$"
    with pytest.raises(ConfigError, match=message):
        PlantModel().stepper(0.02, substeps)
    with pytest.raises(ConfigError, match=message):
        euler_step(state, inputs, PlantModel(), 0.02, substeps)


@pytest.mark.parametrize(
    "state",
    [
        # in-cylinder fuel flow at the floor: the AFR is undefined
        EngineState(m_a=0.004, omega_e=125.0, mdot_f=1e-9, T_cat=25.0, T_exh=25.0),
        # a stalled engine has no exhaust time constant
        EngineState(m_a=0.004, omega_e=0.0, mdot_f=7.7e-4, T_cat=25.0, T_exh=25.0),
        EngineState(m_a=0.004, omega_e=-5.0, mdot_f=7.7e-4, T_cat=25.0, T_exh=25.0),
        # a brick temperature far out of range overflows the conversion fit
        EngineState(m_a=0.004, omega_e=125.0, mdot_f=7.7e-4, T_cat=1e70, T_exh=25.0),
    ],
    ids=["fuel_floor", "zero_speed", "negative_speed", "emission_overflow"],
)
@pytest.mark.parametrize("substeps", [1, 2])
def test_euler_step_refuses_degenerate_states(state, substeps):
    with pytest.raises(DegenerateInputError):
        euler_step(state, ControlInput(0.01, 0.001, 0.0), PlantModel(), 0.02, substeps)


def test_phi_scales_only_the_drift_of_each_controlled_row():
    phi = PhiTrue(fuel=0.5, speed=1.5, exh=0.75, air=1.25)
    plain_model, scaled_model = PlantModel(), PlantModel(phi=phi)
    for state, inputs in random_states_and_inputs(200):
        rates, emission = plain_model.rates(state, inputs)
        plain = dict(zip(EngineState._fields, rates))
        scaled = dict(zip(EngineState._fields, scaled_model.rates(state, inputs)[0]))
        mdot_ao, afr_value = emission[:2]
        _, _, f_fuel, f_speed, f_exh, f_air = plain_model.drift(
            state.omega_e, state.mdot_f, state.T_exh, mdot_ao, afr_value
        )
        for name, f, p in (
            ("m_a", f_air, phi.air),
            ("omega_e", f_speed, phi.speed),
            ("mdot_f", f_fuel, phi.fuel),
            ("T_exh", f_exh, phi.exh),
        ):
            a, b = scaled[name], plain[name]
            scale = max(abs(a), abs(b), abs(f))
            assert a - b == pytest.approx((p - 1.0) * f, abs=1e-12 * scale), name
        assert scaled["T_cat"] == plain["T_cat"]
        assert emission == plant.emissions(state, inputs.delta)


def test_derivatives_propagate_degenerate_fuel():
    state = EngineState(m_a=0.004, omega_e=125.0, mdot_f=0.0, T_cat=25.0, T_exh=25.0)
    with pytest.raises(DegenerateInputError):
        PlantModel().rates(state, ControlInput(0.01, 0.001, 0.0))


def test_conventions_reject_unknown_modes():
    with pytest.raises(ValueError):
        PlantConventions(hc_mode="nope")
    with pytest.raises(ValueError):
        PlantConventions(qgen_grouping="nope")
    with pytest.raises(ValueError):
        PlantConventions(qin_direction="nope")
