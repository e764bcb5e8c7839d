"""Execution-lab checks: quantizer contract, stepping oracle, configs, runs, metrics."""

import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import re
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldstart import cli, dsmc, fanout, looplab, plant, rga
from coldstart.errors import ConfigError, DegenerateInputError, SimulationAbort
from coldstart.looplab import (
    LOOPS,
    MetricsSummary,
    PhiTrue,
    RunRecord,
    ScenarioConfig,
    adc_channel,
    apply_overrides,
    compute_metrics,
    euler_step,
    quantize,
    run_scenario,
)
from coldstart.trajectory import COLUMNS as TRAJECTORY_COLUMNS
from coldstart.trajectory import TrajectoryTable, default_table
from lab_helpers import (
    STRAYS,
    kill_first_helper_mid_block,
    reference_quantize,
    simulate_first_order,
)


# ---------------------------------------------------------------------------
# quantizer


def test_quantize_endpoints_are_fixed_points():
    assert quantize(0.0, 16, 0.0, 1.0) == 0.0
    assert quantize(1.0, 16, 0.0, 1.0) == 1.0
    assert quantize(-10.0, 12, -10.0, 45.0) == -10.0
    assert quantize(45.0, 12, -10.0, 45.0) == 45.0


def test_quantize_grid_codes_are_fixed_points():
    levels = (1 << 16) - 1
    for code in (0, 1, 7, 1000, levels - 1, levels):
        x = code * 1.0 / levels
        assert quantize(x, 16, 0.0, 1.0) == pytest.approx(x, abs=1e-15)


def test_quantize_error_bounded_by_half_lsb():
    rng = np.random.default_rng(20260819)
    lo, hi, bits = -10.0, 45.0, 12
    half_lsb = (hi - lo) / ((1 << bits) - 1) / 2.0
    for x in rng.uniform(lo, hi, size=500):
        assert abs(quantize(float(x), bits, lo, hi) - x) <= half_lsb * (1 + 1e-12)


def test_quantize_idempotent_and_monotone():
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(0.0, 0.05, size=300))
    qs = [quantize(float(x), 10, 0.0, 0.05) for x in xs]
    for x, q in zip(xs, qs):
        assert quantize(q, 10, 0.0, 0.05) == q
    assert all(b >= a for a, b in zip(qs, qs[1:]))


def test_quantize_clamps_out_of_range():
    assert quantize(2.0, 16, 0.0, 1.0) == 1.0
    assert quantize(-0.5, 16, 0.0, 1.0) == 0.0


def test_quantize_validates_arguments():
    with pytest.raises(ConfigError):
        quantize(0.5, 0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        quantize(0.5, 8, 1.0, 1.0)
    # a code rounds in floats, which holds below 2**52 levels
    with pytest.raises(ConfigError, match=r"^quantizer bits must be in \[1, 52\], got 53$"):
        quantize(0.5, 53, 0.0, 1.0)
    for lo, hi, message in (
        (-math.inf, 0.0, r"^quantizer range\[0\] must be a finite number, got -inf$"),
        (0.0, math.inf, r"^quantizer range\[1\] must be a finite number, got inf$"),
        (-1e308, 1e308, "hi - lo finite"),
    ):
        with pytest.raises(ConfigError, match=message):
            quantize(0.5, 8, lo, hi)


def test_quantize_rounds_a_tie_to_even_as_round_does():
    """A code halfway between two levels goes to the even one, bit for bit as
    ``round`` takes it in the reference, at 8, 16 and 32 bits; and the widest
    word, 52 bits, matches the reference too."""
    for bits in (8, 16, 32):
        levels = (1 << bits) - 1
        lo, hi = -1.0, levels - 1.0  # a unit step: a value's code is value - lo
        ties = [n + 0.5 for n in (0, 1, 2, 3, levels // 2, levels - 2, levels - 1)]
        for code in ties:
            value = lo + code
            assert (value - lo) / (hi - lo) * levels == code  # an exact tie
            got = quantize(value, bits, lo, hi)
            assert got.hex() == reference_quantize(value, bits, lo, hi).hex(), (bits, code)
            assert got - lo == 2 * round(code / 2), (bits, code)
    for value in (0.0, 1.0 / 3.0, 0.5, 1.0 - 2**-52, 1.0, 2.0):
        assert quantize(value, 52, 0.0, 1.0).hex() == reference_quantize(value, 52, 0.0, 1.0).hex()


def test_quantize_refuses_nan():
    with pytest.raises(DegenerateInputError, match="NaN"):
        quantize(math.nan, 16, 0.0, 1.0)


def test_quantize_one_bit_is_a_comparator():
    assert quantize(0.49, 1, 0.0, 1.0) == 0.0
    assert quantize(0.51, 1, 0.0, 1.0) == 1.0


@pytest.mark.parametrize("name", list(looplab.DEFAULT_SIGNAL_RANGES))
def test_adc_channel_matches_quantize_bit_for_bit(name):
    lo, hi = looplab.DEFAULT_SIGNAL_RANGES[name]
    width = hi - lo
    edges = (lo, hi, 0.0, -0.0, lo - width, hi + width, math.inf, -math.inf)

    def check(value, bits):
        got = looplab.adc_channel(bits, lo, hi)(value)
        assert got.hex() == reference_quantize(value, bits, lo, hi).hex(), (value, bits)

    for value in edges:
        for bits in (8, 32):
            check(value, bits)

    @settings(max_examples=150, deadline=None)
    @given(
        value=st.floats(lo - width, hi + width) | st.floats(allow_nan=False),
        bits=st.sampled_from((8, 16, 32)),
    )
    def around_the_span(value, bits):
        check(value, bits)

    around_the_span()
    for bits in (8, 32):
        with pytest.raises(DegenerateInputError, match="NaN"):
            looplab.adc_channel(bits, lo, hi)(math.nan)


def test_adc_channel_validates_its_arguments_once():
    with pytest.raises(ConfigError):
        looplab.adc_channel(0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        looplab.adc_channel(8, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Euler stepping


def nominal_state():
    return plant.EngineState(m_a=0.005, omega_e=140.0, mdot_f=8e-4, T_cat=100.0, T_exh=500.0)


def nominal_inputs():
    return plant.ControlInput(mdot_ai=0.011, mdot_fc=8e-4, delta=12.0)


def test_euler_step_matches_plain_derivative_at_unit_phi():
    state, inputs = nominal_state(), nominal_inputs()
    c = plant.PlantConstants()
    conv = plant.PlantConventions(qin_direction="heats_catalyst")
    T = 0.02
    model = plant.PlantModel(c, conv)
    rates, _ = model.rates(state, inputs)
    expect = plant.EngineState(*(x + T * d for x, d in zip(state, rates)))
    got, _ = euler_step(state, inputs, model, T)
    for name in ("m_a", "omega_e", "mdot_f", "T_cat", "T_exh"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a == pytest.approx(b, rel=1e-15), name


def test_euler_step_scales_only_the_drift():
    # fuel row: mdot_f' = mdot_f + T*(phi*(-mdot_f/alpha_f) + u/alpha_f)
    state, inputs = nominal_state(), nominal_inputs()
    T = 0.02
    got, _ = euler_step(state, inputs, plant.PlantModel(phi=PhiTrue(fuel=0.5)), T)
    expect = state.mdot_f + T * (0.5 * (-state.mdot_f / 0.06) + inputs.mdot_fc / 0.06)
    assert got.mdot_f == pytest.approx(expect, rel=1e-15)
    # air row with phi_air=2: m_a' = m_a + T*(2*(-mdot_ao) + mdot_ai)
    mdot_ao = plant.air_outflow(state.m_a, state.omega_e)
    got2, _ = euler_step(state, inputs, plant.PlantModel(phi=PhiTrue(air=2.0)), T)
    assert got2.m_a == pytest.approx(state.m_a + T * (2.0 * -mdot_ao + inputs.mdot_ai), rel=1e-15)
    # the uncertainty multiplies the drift only, never the input path
    assert got.m_a == pytest.approx(state.m_a + T * (-mdot_ao + inputs.mdot_ai), rel=1e-15)


def test_euler_step_zero_interval_is_identity():
    state, inputs = nominal_state(), nominal_inputs()
    got, _ = euler_step(state, inputs, plant.PlantModel(), 0.0)
    assert got == state


def test_euler_step_substeps_refine_toward_smaller_steps():
    state, inputs = nominal_state(), nominal_inputs()
    one, _ = euler_step(state, inputs, plant.PlantModel(), 0.02, substeps=1)
    two, _ = euler_step(state, inputs, plant.PlantModel(), 0.02, substeps=2)
    four, _ = euler_step(state, inputs, plant.PlantModel(), 0.02, substeps=4)
    # fixed-step refinement halves the local defect on a smooth field
    d12 = abs(one.T_exh - two.T_exh)
    d24 = abs(two.T_exh - four.T_exh)
    assert 0.0 < d24 < d12
    with pytest.raises(ConfigError):
        euler_step(state, inputs, plant.PlantModel(), 0.02, substeps=0)


# a step-excited first-order record, which identifies cleanly at T = 0.02
FIT_U = np.where(np.arange(200) // 50 % 2 == 0, 1.0, 0.0)
FIT_Y = simulate_first_order(rga.FirstOrderTF(tau=0.5, k=2.0), FIT_U, 0.02)
# entry -> (call, {argument: (valid value, name a refusal starts with)});
# a stepper runs its step, and identify_mimo gives the fit of its one pair,
# so a T that fails the fit, not the call, shows
ADC_ARGS = {
    "bits": (8, "quantizer bits"), "lo": (0.0, "quantizer range"), "hi": (1.0, "quantizer range"),
}
STEP_ARGS = {"T": (0.02, "T"), "substeps": (1, "substeps")}
GRID_ARGS = {"T": (0.02, "sample time"), "duration": (1.0, "duration")}
RUN_ENTRIES = {
    "adc_channel": (adc_channel, ADC_ARGS),
    "quantize": (lambda **kw: quantize(0.5, **kw), ADC_ARGS),
    "stepper": (
        lambda T, substeps: plant.PlantModel().stepper(T, substeps)(
            nominal_state(), nominal_inputs()
        ),
        STEP_ARGS,
    ),
    "euler_step": (
        euler_step,
        {
            "state": (nominal_state(), "state"), "inputs": (nominal_inputs(), "inputs"),
            "model": (plant.PlantModel(), "model"), **STEP_ARGS,
        },
    ),
    "steps": (lambda T, duration: default_table().steps(T, duration), GRID_ARGS),
    "sample": (lambda T, duration: default_table().sample(T, duration), GRID_ARGS),
    "identify_first_order": (
        lambda T: rga.identify_first_order(FIT_U, FIT_Y, T),
        {"T": (0.02, "T")},
    ),
    "identify_mimo": (
        lambda T: rga.identify_mimo(FIT_U[None], FIT_Y[None, None], T).fits[(1, 1)],
        {"T": (0.02, "T")},
    ),
}


@st.composite
def damaged_run_calls(draw):
    name = draw(st.sampled_from(sorted(RUN_ENTRIES)))
    return name, {draw(st.sampled_from(sorted(RUN_ENTRIES[name][1]))): draw(STRAYS)}


@settings(max_examples=300, deadline=None)
@given(case=damaged_run_calls())
@example(case=("adc_channel", {"bits": 1.5}))
@example(case=("steps", {"T": "x"}))
@example(case=("identify_first_order", {"T": math.inf}))
@example(case=("stepper", {"substeps": True}))
@example(case=("adc_channel", {"lo": "a", "hi": "b"}))
@example(case=("adc_channel", {"bits": True}))
@example(case=("stepper", {"substeps": 1.5}))
@example(case=("steps", {"T": True}))
@example(case=("identify_mimo", {"T": "x"}))
@example(case=("identify_mimo", {"T": math.nan}))
@example(case=("euler_step", {"model": "x"}))
@example(case=("euler_step", {"state": (0.004, 125.0)}))
@example(case=("euler_step", {"inputs": (0.01, "x", 0.0)}))
def test_a_run_entry_keeps_a_clean_value_or_refuses_naming_the_argument(case):
    """Arguments of a valid call replaced by stray values: the call raises a
    ConfigError naming one of them, or returns what the valid call returns
    the type of.  Three finite commands are a clean value the plant may not
    step, as ``test_euler_step_refuses_degenerate_states`` pins for states."""
    name, stray = case
    call, args = RUN_ENTRIES[name]
    valid = call(**{a: v for a, (v, _) in args.items()})
    try:
        got = call(**{**{a: v for a, (v, _) in args.items()}, **stray})
    except ConfigError as e:
        names = "|".join(re.escape(args[a][1]) for a in stray)
        assert re.match(rf"({names})[ \[]", str(e)), str(e)
        return
    except DegenerateInputError:
        assert (name, set(stray)) == ("euler_step", {"inputs"}), stray
        return
    assert type(got) is type(valid), got


def test_phi_true_validation():
    with pytest.raises(ConfigError):
        PhiTrue(fuel=0.0)
    with pytest.raises(ConfigError):
        PhiTrue(exh=-1.0)
    with pytest.raises(ConfigError):
        PhiTrue(air=float("nan"))


@pytest.mark.parametrize(
    "value",
    ["x", None, True, False, 1j, [0.5], pytest.param(10**400, id="int-too-large-for-a-float")],
)
@pytest.mark.parametrize("loop", LOOPS)
def test_phi_true_refuses_non_numbers_and_booleans(loop, value):
    with pytest.raises(ConfigError, match=rf"phi_true\.{loop}"):
        PhiTrue(**{loop: value})


# ---------------------------------------------------------------------------
# scenario config


def test_config_json_round_trip_is_identity():
    cfg = ScenarioConfig(
        duration=10.0,
        phi_true=PhiTrue(fuel=0.5, speed=0.8, exh=1.2, air=0.6),
        rho={"fuel": 2e-6, "speed": 5e3, "exh": 2e4, "air": 9e-7},
        constants={"J": 0.15},
        feedback_delay_steps=2,
    )
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again.to_dict() == cfg.to_dict()
    assert again.to_json() == cfg.to_json()


# sha256 of json.dumps(to_dict()), which keeps the key order, and of
# to_json(), the config.json echo; recorded while to_dict named every key
CONFIG_ECHO_DIGESTS = {
    "default": (
        "70cc317afd1c2ebbfc217522ff3544204ea99b349ab084b870a7930a44d054cd",
        "dccb315b7b4b058691dd865c6494e7391d02ada318cb5216c6c125e6d607e1b5",
    ),
    "custom": (
        "74b545a0c504b5f707f904a9b703875f30f371542f8a8f8d3a4f770690da92a7",
        "f3d8ae6c09d3b43db69b04c9cbe85e4f7a13f617a414e74ce75de8b4159bdd86",
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ECHO_DIGESTS))
def test_config_echo_bytes_match_the_recorded_digests(case):
    cfg = ScenarioConfig()
    if case == "custom":
        cfg = ScenarioConfig(
            duration=3.0,
            phi_true=PhiTrue(fuel=0.5, speed=0.8, exh=1.2, air=0.6),
            bounds=dsmc.ActuatorBounds(
                mdot_ai=(0.0, 0.08), mdot_fc=(0.0, 0.02), delta=(-5.0, 40.0)
            ),
            trajectory=TrajectoryTable(
                time=(0.0, 1.0, 3.5), afr_d=(12.0, 13.5, 14.7),
                omega_d=(125.0, 150.0, 110.0), t_exh_d=(25.0, 400.0, 600.0),
            ),
            constants={"J": 0.15},
            feedback_delay_steps=1,
        )
    ordered_digest, json_digest = CONFIG_ECHO_DIGESTS[case]
    assert hashlib.sha256(json.dumps(cfg.to_dict()).encode("utf-8")).hexdigest() == ordered_digest
    assert hashlib.sha256(cfg.to_json().encode("utf-8")).hexdigest() == json_digest
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


def test_config_json_with_an_int_past_the_digit_limit_is_not_valid_json():
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    with pytest.raises(ConfigError, match="config is not valid JSON: Exceeds the limit"):
        ScenarioConfig.from_json('{"T": 1' + "0" * 5000 + "}")


def test_config_rejects_unknown_keys():
    data = ScenarioConfig().to_dict()
    data["rho_air"] = 1.0
    with pytest.raises(ConfigError, match="rho_air"):
        ScenarioConfig.from_dict(data)


def test_config_validation_messages_name_the_field():
    with pytest.raises(ConfigError, match="T must be positive"):
        ScenarioConfig(T=0.0)
    with pytest.raises(ConfigError, match="duration"):
        ScenarioConfig(duration=-1.0)
    with pytest.raises(ConfigError, match="quant_bits"):
        ScenarioConfig(quant_bits=4)
    with pytest.raises(ConfigError, match="beta.speed"):
        ScenarioConfig(beta={"fuel": 0.5, "speed": 1.5, "exh": 0.5, "air": 0.5})
    with pytest.raises(ConfigError, match="rho"):
        ScenarioConfig(rho={"fuel": 1e-6, "speed": 8e3, "exh": 1.5e4})
    with pytest.raises(ConfigError, match="feedback_delay_steps"):
        ScenarioConfig(feedback_delay_steps=-1)
    with pytest.raises(ConfigError, match="unknown signal"):
        ScenarioConfig(signal_ranges={**looplab.DEFAULT_SIGNAL_RANGES, "boost": (0, 1)})


@pytest.mark.parametrize(
    "path, value",
    [
        ("beta.fuel", "x"),
        ("T", math.nan),
        ("delta_initial", math.nan),
        ("constants.J", math.nan),
        ("signal_ranges.m_a", [0.0, math.inf]),
        ("signal_ranges.m_a", [-1e308, 1e308]),
        ("initial_state.t_cat", "x"),
        ("quant_bits", 8.5),
        ("substeps", math.nan),
    ],
)
def test_config_rejects_bad_numbers_with_the_field_path(path, value):
    data = ScenarioConfig().to_dict()
    *parents, last = path.split(".")
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        ScenarioConfig.from_dict(data)


def test_the_readme_integer_ranges_are_those_of_the_field_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for name in ("quant_bits", "substeps", "feedback_delay_steps"):
        cell = re.search(rf"^\| `{name}` \| ([^|]*) \|", readme, re.M).group(1)
        low, high = re.match(r"(\d[\d ]*) (?:to (\d[\d ]*)|or more)", cell).groups()
        documented = (int(low.replace(" ", "")), int(high.replace(" ", "")) if high else math.inf)
        row = looplab._FIELDS[name]
        assert documented == (row.low, row.high), name


def test_config_substeps_are_capped():
    assert ScenarioConfig(substeps=plant.MAX_SUBSTEPS).substeps == 1000
    assert ScenarioConfig(substeps=2.0).substeps == 2
    # an int past 2**53 is no float, but still an integer
    assert ScenarioConfig(feedback_delay_steps=2**53 + 1).feedback_delay_steps == 2**53 + 1
    for value in (1001, 1e300):
        message = f"substeps must be in [1, 1000], got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ScenarioConfig.from_dict({"substeps": value})


def test_config_steps_are_capped_before_anything_is_allocated():
    assert ScenarioConfig(T=0.02, duration=0.01 * looplab.MAX_STEPS).duration == 10_000.0
    for data, steps in (
        ({"T": 1e-15}, 40.0 / 1e-15),
        ({"T": 1.0, "duration": 1e308}, 1e308),
        ({"T": 5e-324}, math.inf),
    ):
        message = f"duration / T must be at most {looplab.MAX_STEPS} steps, got {steps!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ScenarioConfig.from_dict(data)


@pytest.mark.parametrize(
    "name", [n for n, row in plant.CONSTANT_ROWS.items() if row is plant.POSITIVE]
)
@pytest.mark.parametrize("value", [0, -0.5])
def test_config_rejects_non_positive_plant_constants(name, value):
    message = f"constants.{name} must be positive, got {float(value)!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(constants={name: value})


# clean, non-positive and non-finite numbers, and values of the wrong type
CONSTANT_VALUES = st.one_of(
    st.floats(), st.integers(-2, 2), st.text(max_size=2), st.none(),
    st.sampled_from([True, 10**5000, [1.0]]),
)


@settings(max_examples=200, deadline=None)
@given(constants=st.dictionaries(st.sampled_from(list(plant.CONSTANT_ROWS)), CONSTANT_VALUES))
@example(constants={"J": "x"})
@example(constants={"J": 0.0})
@example(constants={"J": math.nan})
@example(constants={"alpha_f": -1.0})
def test_the_config_and_plant_constants_refuse_or_build_alike(constants):
    """``PlantConstants`` owns the rule of its fields: a config refuses a
    constants object with the message ``PlantConstants`` gives, or builds
    the same constants."""
    try:
        expected = plant.PlantConstants(**constants)
    except ConfigError as err:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(err))}$"):
            ScenarioConfig(constants=constants)
        return
    assert ScenarioConfig(constants=constants).build_constants() == expected


@pytest.mark.parametrize("name", ["quantization_enabled", "adaptation_enabled"])
@pytest.mark.parametrize("value", ["False", "off", 0, None])
def test_config_boolean_fields_accept_only_booleans(name, value):
    message = f"{name} must be true or false, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig.from_dict({name: value})


def test_config_partial_sections_merge_with_defaults():
    cfg = ScenarioConfig.from_dict(
        {"phi_true": {"fuel": 0.5}, "signal_ranges": {"omega_e": [0, 800]}}
    )
    assert cfg.phi_true.fuel == 0.5
    assert cfg.phi_true.speed == 1.0
    assert cfg.signal_ranges["omega_e"] == (0.0, 800.0)
    assert cfg.signal_ranges["m_a"] == looplab.DEFAULT_SIGNAL_RANGES["m_a"]


def test_config_accepts_a_sequence_or_object_for_the_initial_state():
    values = (0.004, 125.0, 7.7e-4, 25.0, 25.0)
    expected = plant.EngineState(*values)
    keys = ("m_a", "omega_e", "mdot_f", "t_cat", "t_exh")
    for given_state in (expected, values, list(values), dict(zip(keys, values))):
        cfg = ScenarioConfig(duration=1.0, initial_state=given_state)
        assert cfg.initial_state == expected
        assert isinstance(cfg.initial_state, plant.EngineState)
    default = run_scenario(ScenarioConfig(duration=1.0)).to_csv()
    assert run_scenario(ScenarioConfig(duration=1.0, initial_state=values)).to_csv() == default


@pytest.mark.parametrize(
    "value, message",
    [
        ((0.004, 125.0, 7.7e-4, 25.0), "initial_state must be 5 numbers"),
        (3.0, "initial_state must be 5 numbers"),
        ((0.004, 125.0, "x", 25.0, 25.0), r"initial_state\.mdot_f"),
        ((0.004, math.nan, 7.7e-4, 25.0, 25.0), r"initial_state\.omega_e"),
        ({"m_a": 0.004}, "initial_state must be an object"),
    ],
)
def test_config_rejects_a_bad_initial_state(value, message):
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(initial_state=value)


def test_config_accepts_an_object_for_phi_true():
    cfg = ScenarioConfig(duration=1.0, phi_true={"fuel": 0.5})
    assert cfg.phi_true == PhiTrue(fuel=0.5)
    assert run_scenario(cfg).to_csv() == run_scenario(
        ScenarioConfig(duration=1.0, phi_true=PhiTrue(fuel=0.5))
    ).to_csv()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"phi_true": {"boost": 0.5}}, "phi_true has unknown loop"),
        ({"phi_true": {"fuel": "x"}}, r"phi_true\.fuel"),
        ({"phi_true": 0.5}, "phi_true must be an object"),
        ({"bounds": 0.5}, "bounds must be"),
        ({"trajectory": "x"}, "trajectory must be"),
        ({"adapt_sign": 0.5}, "adapt_sign must be"),
        ({"constants": {"flywheel": 1.0}}, r"constants has unknown field\(s\) \['flywheel'\]"),
    ],
)
def test_config_rejects_wrong_types_naming_the_field(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**kwargs)


@pytest.mark.parametrize(
    "pair, message",
    [(("a", "b"), r"bounds\.mdot_ai\[0\]"), ((0.0, math.inf), r"bounds\.mdot_ai\[1\]")],
    ids=["not-numbers", "infinite"],
)
def test_actuator_bounds_refuse_a_bad_pair_naming_its_config_path(pair, message):
    with pytest.raises(ConfigError, match=message):
        dsmc.ActuatorBounds(mdot_ai=pair)


def test_config_unknown_plant_constant_is_rejected():
    with pytest.raises(ConfigError, match="unknown field"):
        ScenarioConfig(constants={"flywheel": 1.0}).build_constants()


def test_config_builds_controller_with_requested_gains():
    cfg = ScenarioConfig(
        adaptation_enabled=False,
        phi_hat_init=0.7,
        beta={"fuel": 0.3, "speed": 0.4, "exh": 0.5, "air": 0.6},
    )
    ctl = cfg.build_controller()
    assert ctl.loop_fuel.beta == 0.3 and ctl.loop_air.beta == 0.6
    assert ctl.loop_speed.phi_hat == 0.7
    assert not ctl.loop_exh.adaptation_enabled


def test_apply_overrides_paths_and_parsing():
    data = ScenarioConfig().to_dict()
    out = apply_overrides(
        data,
        ["phi_true.fuel=0.5", "quantization_enabled=false", "hc_mode=linear_afr"],
    )
    assert out["phi_true"]["fuel"] == 0.5
    assert out["quantization_enabled"] is False
    assert out["hc_mode"] == "linear_afr"  # non-JSON token falls back to string
    assert data["phi_true"]["fuel"] == 1.0  # input is not mutated


def test_apply_overrides_rejects_bad_items():
    data = ScenarioConfig().to_dict()
    with pytest.raises(ConfigError, match="path=value"):
        apply_overrides(data, ["phi_true.fuel"])
    with pytest.raises(ConfigError, match=re.escape("phi_true has unknown loop(s) ['boost']")):
        ScenarioConfig.from_dict(apply_overrides(data, ["phi_true.boost=1"]))
    with pytest.raises(ConfigError, match=re.escape("config has unknown key(s) ['nope']")):
        ScenarioConfig.from_dict(apply_overrides(data, ["nope.fuel=1"]))
    with pytest.raises(ConfigError, match="override path 'T.x' has no match at 'x'"):
        apply_overrides(data, ["T.x=1"])


INITIAL_STATE = [0.004, 125.0, 7.7e-4, 25.0, 25.0]


@pytest.mark.parametrize(
    "data, override, name, value",
    [
        ({"phi_true": PhiTrue()}, "phi_true.fuel=0.5", "phi_true", {**vars(PhiTrue()), "fuel": 0.5}),
        (
            {"initial_state": INITIAL_STATE}, "initial_state.m_a=0.003", "initial_state",
            {**dict(zip(looplab.STATE_COLUMNS, INITIAL_STATE)), "m_a": 0.003},
        ),
        ({"T": 10**5000}, "duration=2.0", "duration", 2.0),
    ],
    ids=["dataclass", "sequence", "huge int"],
)
def test_apply_overrides_reads_a_python_document_and_leaves_it_as_it_was(
    data, override, name, value
):
    before = {key: copy.deepcopy(item) for key, item in data.items()}
    assert apply_overrides(data, [override]) == {**data, name: value}
    assert data == before


def test_apply_overrides_refuses_a_root_that_is_not_an_object():
    with pytest.raises(ConfigError, match="^config root must be an object, got list$"):
        apply_overrides([], [])


# JSON values as json.loads gives them, with ints too large for a float and
# the non-finite floats that json reads from NaN and Infinity
json_scalars = (
    st.none() | st.booleans() | st.text(max_size=6) | st.floats() | st.integers()
    | st.sampled_from((2**1024, 10**400, -(10**400)))
)
json_containers = st.lists(json_scalars, max_size=3) | st.dictionaries(
    st.text(max_size=4), json_scalars, max_size=3
)
json_values = json_scalars | json_containers | st.lists(json_containers, max_size=2)
# a document may also hold an int of more digits than repr writes (4 300); an
# override's text cannot, since json.dumps cannot write it
document_values = json_values | st.just(10**5000) | st.lists(st.just(10**5000), max_size=2)
DEFAULT_CONFIG = ScenarioConfig().to_dict()
# every key of the default config, and every key of its sections, as a dotted path
CONFIG_PATHS = sorted(
    [*DEFAULT_CONFIG]
    + [
        f"{key}.{sub}"
        for key, value in DEFAULT_CONFIG.items() if isinstance(value, dict)
        for sub in value
    ]
)


@st.composite
def config_inputs(draw):
    """A JSON-like config: the default one with a few sections replaced by
    junk, or by the section with junk in a few of its keys, or now and then
    a junk root; then ``path=value`` overrides of dotted paths, most of them
    known."""
    data = dict(DEFAULT_CONFIG)
    for key in draw(st.lists(st.sampled_from([*DEFAULT_CONFIG, "junk"]), max_size=3)):
        section = data.get(key)
        if isinstance(section, dict) and draw(st.booleans()):
            subs = st.sampled_from([*section, "junk"])
            data[key] = {**section, **draw(st.dictionaries(subs, document_values, max_size=2))}
        else:
            data[key] = draw(document_values)
    # now and then: a malformed table stops from_dict before the other checks
    if draw(st.sampled_from((False,) * 7 + (True,))):
        # columns of one length, time from 0: the checks past the shape run
        n = draw(st.integers(0, 4))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        column = st.lists(finite, min_size=n, max_size=n)
        data["trajectory"] = {name: draw(column) for name in TRAJECTORY_COLUMNS}
        if n and draw(st.booleans()):
            data["trajectory"]["time"][0] = 0.0
    if draw(st.sampled_from((False,) * 9 + (True,))):
        data = draw(document_values)
    path = st.sampled_from([*CONFIG_PATHS, "", "nope", "T.x", "phi_true.boost"])
    raw = json_values.map(json.dumps) | st.text(max_size=8)
    overrides = draw(st.lists(st.tuples(path, raw).map("=".join), max_size=2))
    return data, overrides


@settings(max_examples=200, deadline=None)
@given(inputs=config_inputs())
def test_config_from_json_like_input_raises_only_config_errors(inputs):
    data, overrides = inputs
    try:
        cfg = ScenarioConfig.from_dict(apply_overrides(data, overrides))
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


@pytest.mark.parametrize("name", list(looplab._FIELDS))
def test_an_int_past_the_repr_digit_limit_is_refused_naming_its_field(name):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**{name: 10**5000})
    assert str(err.value).startswith(name), str(err.value)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: ScenarioConfig(T=10**5000),
            "T must be a finite number, got an integer of 16610 bits",
        ),
        (
            lambda: ScenarioConfig(initial_state=[10**5000] * 5),
            "initial_state.m_a must be a finite number, got an integer of 16610 bits",
        ),
        (
            lambda: PhiTrue(fuel=10**5000),
            "phi_true.fuel must be a finite number, got an integer of 16610 bits",
        ),
        (
            lambda: ScenarioConfig(T=[10**5000]),
            "T must be a number, got a list holding an integer of over 4300 digits",
        ),
        (
            lambda: ScenarioConfig(constants={10**5000: 1.0}),
            "constants has unknown field(s) a list holding an integer of over 4300 digits",
        ),
        (
            lambda: ScenarioConfig.from_dict({10**5000: 1.0, "nope": 1.0}),
            "config has unknown key(s) a list holding an integer of over 4300 digits",
        ),
        (
            lambda: ScenarioConfig.from_dict({1: 1.0, "nope": 1.0}),
            "config has unknown key(s) ['nope', 1]",
        ),
    ],
    ids=["scalar", "initial_state", "PhiTrue", "in a list", "object key", "config key", "mixed keys"],
)
def test_an_int_past_the_repr_digit_limit_is_shown_by_its_size(make, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make()


# Strategies drawn from the rows of looplab._FIELDS: values inside a row's
# range, and values with one part pushed outside it.


def finite_floats(low=-math.inf, high=math.inf, closed=True):
    """Finite floats in ``[low, high]``, or ``(low, high)`` when not ``closed``."""
    return st.floats(
        None if math.isinf(low) else low,
        None if math.isinf(high) else high,
        exclude_min=not closed and math.isfinite(low),
        exclude_max=not closed and math.isfinite(high),
        allow_nan=False,
        allow_infinity=False,
    )


def inside(row) -> st.SearchStrategy:
    """JSON forms of values inside ``row``'s range."""
    if isinstance(row, plant.Real):
        return finite_floats(row.low, row.high, row.closed)
    if isinstance(row, plant.Count):
        return st.integers(row.low, None if math.isinf(row.high) else int(row.high))
    if isinstance(row, plant.Choice):
        return st.sampled_from(row.choices)
    if isinstance(row, plant.Reals):
        if row.pair:  # lo < hi, and a span hi - lo that is finite
            pairs = st.lists(finite_floats(), min_size=2, max_size=2, unique=True).map(sorted)
            return pairs.filter(lambda pair: math.isfinite(pair[1] - pair[0]))
        return st.lists(finite_floats(), max_size=3)
    items = {key: inside(item) for key, item in row.items.items()}
    if row.defaults is None:
        return st.fixed_dictionaries(items)
    return st.fixed_dictionaries({}, optional=items)


NOT_NUMBERS = st.none() | st.booleans() | st.text(max_size=3)
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])


@st.composite
def pushed(draw, row, path):
    """``(path, value)``: a JSON form for ``row`` with one part outside its
    range, and the dotted path of that part."""
    if isinstance(row, (plant.Real, plant.Count)):
        outside = [NOT_NUMBERS, NOT_FINITE, st.lists(finite_floats(), max_size=2)]
        closed = isinstance(row, plant.Count) or row.closed
        if math.isfinite(row.low):
            outside.append(finite_floats(high=row.low, closed=not closed))
        if math.isfinite(row.high):
            outside.append(finite_floats(low=row.high, closed=not closed))
        if isinstance(row, plant.Count):
            outside.append(st.integers(row.low, row.low + 99).map(lambda i: i + 0.5))
        return path, draw(st.one_of(outside))
    if isinstance(row, plant.Choice):
        candidates = NOT_NUMBERS | NOT_FINITE | st.floats() | st.integers()
        return path, draw(candidates.filter(lambda value: value not in row.choices))
    if isinstance(row, plant.Reals):
        good = draw(inside(row))
        kind = draw(st.sampled_from(["shape", "cell", "order"] if row.pair else ["shape", "cell"]))
        if kind == "shape":
            return path, draw(st.none() | finite_floats() | st.text(max_size=3))
        if kind == "order":
            return path, draw(st.sampled_from([good[::-1], [good[0]] * 2, [-1e308, 1e308]]))
        i = draw(st.integers(0, len(good) - 1)) if good else 0
        return f"{path}[{i}]", [*good[:i], draw(NOT_NUMBERS | NOT_FINITE), *good[i + 1:]]
    base = draw(inside(row))
    kinds = ["shape", "unknown key", "item"] + (["missing key"] if row.defaults is None else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "shape":
        return path, draw(finite_floats() | st.text(max_size=3) | st.lists(st.none(), max_size=1))
    if kind == "unknown key":
        return path, {**base, "junk": 1.0}
    key = draw(st.sampled_from(sorted(row.items)))
    if kind == "missing key":
        return path, {k: v for k, v in base.items() if k != key}
    inner_path, value = draw(pushed(row.items[key], f"{path}.{key}"))
    return inner_path, {**base, key: value}


@st.composite
def valid_config_data(draw, max_steps=50):
    """JSON forms of configs with every field drawn inside its row's range.

    Runs stay short: at most ``max_steps`` steps, 2 000 plant substeps and
    2 s, with ``duration`` a whole number of samples. A trajectory table is
    drawn to the rules of ``TrajectoryTable`` itself (time from 0, strictly
    increasing; positive AFR) and covers the run and its lookahead sample.
    """
    rows = looplab._FIELDS
    data = {name: draw(inside(row)) for name, row in rows.items() if name != "trajectory"}
    substeps = data["substeps"]
    n = draw(st.integers(0, min(max_steps, 2000 // substeps)))
    T = rows["T"]
    data["T"] = draw(finite_floats(T.low, min(T.high, 2.0 / max(n, 1)), T.closed))
    data["duration"] = n * data["T"]
    if draw(st.booleans()):
        horizon = (n + 1) * data["T"]
        times = sorted({0.0, *draw(st.lists(finite_floats(0.0, closed=False), max_size=3))})
        if times[-1] < horizon:
            times.append(horizon)
        column = st.lists(finite_floats(), min_size=len(times), max_size=len(times))
        afr = st.lists(finite_floats(0.0, closed=False), min_size=len(times), max_size=len(times))
        data["trajectory"] = {
            "time": times, "afr_d": draw(afr), "omega_d": draw(column), "t_exh_d": draw(column)
        }
    return data


def valid_configs(max_steps=50):
    return valid_config_data(max_steps).map(ScenarioConfig.from_dict)


@st.composite
def gated_config_data(draw):
    """``(kind, data)``: ``valid_config_data``, or half the time with its
    ``duration`` moved off the sample grid by a quarter to three quarters of
    ``T`` ("off grid", refused when that is over the 1e-9 s tolerance), or
    with a table that ends short of the run's horizon ("short table")."""
    data = draw(valid_config_data())
    kind = draw(st.sampled_from(["valid", "valid", "off grid", "short table"]))
    T, duration = data["T"], data["duration"]
    if kind == "off grid":
        data["duration"] = duration + draw(st.floats(0.25, 0.75)) * T
    elif kind == "short table":
        end = (duration + T) * draw(st.floats(0.01, 0.99))
        data["trajectory"] = {
            "time": [0.0, end], "afr_d": [14.7, 14.7], "omega_d": [100.0, 100.0],
            "t_exh_d": [650.0, 650.0],
        }
    return kind, data


def run_outcome(cfg: ScenarioConfig) -> str:
    """The run.csv of ``cfg``, or the abort that ended its run."""
    try:
        return run_scenario(cfg).to_csv()
    except SimulationAbort as err:
        return f"abort at step {err.step}: {err}"


@settings(max_examples=10, deadline=None)
@given(cfg=valid_configs())
def test_config_echo_gives_an_equal_config_and_the_same_run(cfg):
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_json() == cfg.to_json()
    assert ScenarioConfig.from_json(cfg.to_json()) == cfg
    assert run_outcome(again) == run_outcome(cfg)


def test_the_field_table_has_one_row_per_field_in_declaration_order():
    assert list(looplab._FIELDS) == [f.name for f in dataclasses.fields(ScenarioConfig)]


@settings(max_examples=40, deadline=None)
@given(cfg=valid_configs())
def test_a_valid_config_runs_or_aborts_and_its_record_reads_back(cfg):
    try:
        record = run_scenario(cfg)
    except SimulationAbort:
        return
    again = RunRecord.from_csv(record.to_csv())
    assert again.to_csv() == record.to_csv()


@settings(max_examples=40, deadline=None)
@given(case=gated_config_data())
def test_a_config_that_constructs_can_run(case):
    kind, data = case
    try:
        cfg = ScenarioConfig.from_dict(data)
    except ConfigError as err:
        assert kind != "valid" and str(err).startswith(("duration", "trajectory")), str(err)
        return
    try:
        run_scenario(cfg)
    except SimulationAbort:
        pass


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"duration": 1.01}, "duration 1.01 is not an integer number of 0.02 s samples"),
        (
            {"duration": 3.0, "trajectory": TrajectoryTable(
                time=(0.0, 3.0), afr_d=(14.7, 14.7), omega_d=(100.0, 100.0),
                t_exh_d=(650.0, 650.0),
            )},
            "trajectory ends at 3.0 s but must cover 3.02 s (duration plus one sample)",
        ),
    ],
    ids=["off grid", "short table"],
)
def test_a_config_that_cannot_be_sampled_is_refused_on_construction(kw, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(**kw)


def test_a_config_is_frozen():
    cfg = ScenarioConfig(duration=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.T = 1.0
    assert dataclasses.replace(cfg, duration=2.0).sampled_trajectory.n_steps == 100


# every field, and every key of the rows that merge a partial object with
# defaults: phi_true, signal_ranges, bounds and constants
OVERRIDE_ROWS = [
    *looplab._FIELDS.items(),
    *(
        (f"{name}.{key}", item)
        for name, row in looplab._FIELDS.items() if getattr(row, "defaults", None) is not None
        for key, item in row.items.items()
    ),
]


def override_outcome(data: dict, override: str):
    """The config ``override`` on ``data`` gives, or the message of its ConfigError."""
    try:
        return ScenarioConfig.from_dict(apply_overrides(data, [override]))
    except ConfigError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_an_override_does_the_same_on_an_empty_and_on_the_default_document(data):
    path, row = data.draw(st.sampled_from(OVERRIDE_ROWS))
    override = f"{path}={json.dumps(data.draw(inside(row)))}"
    if data.draw(st.booleans()):  # a path past a field, or a column of the null trajectory
        path = data.draw(st.sampled_from(["T.x", "trajectory.time", "phi_true.fuel.x"]))
        override = f"{path}={json.dumps(data.draw(json_values))}"
    assert override_outcome({}, override) == override_outcome(ScenarioConfig().to_dict(), override)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_config_with_one_field_outside_its_row_names_that_field(data):
    name = data.draw(st.sampled_from(list(looplab._FIELDS)))
    path, value = data.draw(pushed(looplab._FIELDS[name], name))
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({name: value})
    assert re.match(re.escape(path) + r"(?!\w)", str(err.value)), (path, str(err.value))


# ---------------------------------------------------------------------------
# closed-loop runs


def short_config(**kw):
    kw.setdefault("duration", 2.0)
    return ScenarioConfig(**kw)


def test_run_zero_duration_emits_single_initial_row():
    rec = run_scenario(short_config(duration=0.0))
    assert len(rec) == 1
    assert rec.series["time"][0] == 0.0
    assert rec.series["mdot_ai"][0] == 0.0
    assert rec.series["hc_cum"][0] == 0.0
    assert rec.series["omega_e"][0] == 125.0


def test_run_is_deterministic_byte_for_byte():
    cfg = short_config(phi_true=PhiTrue(fuel=0.6, speed=0.6, exh=0.6, air=0.6))
    a = run_scenario(cfg).to_csv()
    b = run_scenario(ScenarioConfig.from_json(cfg.to_json())).to_csv()
    assert a == b


def test_run_grid_and_meta_echo():
    cfg = short_config()
    rec = run_scenario(cfg)
    assert len(rec) == 101  # 2 s at 20 ms plus the final state row
    assert rec.series["time"][-1] == pytest.approx(2.0)
    assert np.all(np.diff(rec.series["time"]) > 0)
    assert rec.config is cfg
    assert len(rec.events) == len(rec)


def test_a_record_read_from_csv_carries_the_config_it_is_given():
    cfg = short_config(duration=0.2)
    text = run_scenario(cfg).to_csv()
    assert RunRecord.from_csv(text, cfg).config is cfg
    assert RunRecord.from_csv(text).config is None


def test_run_adaptation_off_freezes_estimates():
    rec = run_scenario(short_config(adaptation_enabled=False, phi_hat_init=0.9))
    for loop in LOOPS:
        assert np.all(rec.series[f"phi_hat_{loop}"] == 0.9)


def test_run_stall_aborts_with_step_index():
    # air actuator pinched to nothing: the manifold empties and the engine
    # spins down with no way to recover
    cfg = short_config(
        bounds=dsmc.ActuatorBounds(mdot_ai=(0.0, 1e-9)),
        initial_state=plant.EngineState(
            m_a=1e-5, omega_e=80.0, mdot_f=7.7e-4, T_cat=25.0, T_exh=25.0
        ),
        quantization_enabled=False,
    )
    with pytest.raises(SimulationAbort, match="stalled") as err:
        run_scenario(cfg)
    assert err.value.step >= 1


def test_run_whose_record_would_hold_a_non_finite_value_aborts_at_that_step():
    # a finite state whose engine-out HC overflows: mdot_f * (r_c - 1) is past the largest float
    state = (0.0, 1.0, 2.247116418577895e307, 0.0, 0.0)
    with pytest.raises(SimulationAbort, match="^step 0: non-finite hc_eng inf$"):
        run_scenario(ScenarioConfig(duration=0.0, initial_state=state))


def test_run_overflow_in_the_emission_chain_aborts_at_its_step():
    # a long sensor delay destabilizes the fuel loop until the catalyst
    # conversion fit overflows
    with pytest.raises(SimulationAbort, match="overflow") as err:
        run_scenario(short_config(feedback_delay_steps=3))
    assert 1 <= err.value.step < 100


def test_run_feedback_delay_past_the_run_matches_a_delay_of_the_run_length():
    # every delay of n_steps or more only ever feeds back the initial state
    n_steps = 5
    same = run_scenario(short_config(duration=0.1, feedback_delay_steps=n_steps))
    huge = run_scenario(short_config(duration=0.1, feedback_delay_steps=10**18))
    assert len(huge) == n_steps + 1
    assert huge.to_csv() == same.to_csv()


def test_run_non_finite_state_abort_names_the_state(monkeypatch):
    def nan_stepper(self, *args):
        def step(state, inputs):
            return (math.nan, 140.0, 8e-4, 25.0, 25.0), self.emissions(*state[:4], 0.0)

        return step

    monkeypatch.setattr(plant.PlantModel, "stepper", nan_stepper)
    message = "step 1: non-finite state (nan, 140.0, 0.0008, 25.0, 25.0)"
    with pytest.raises(SimulationAbort, match=f"^{re.escape(message)}$") as err:
        run_scenario(short_config())
    assert err.value.step == 1


def test_run_state_check_passes_finite_values_whose_sum_overflows(monkeypatch):
    # the loop's fast test sums the state; a sum that overflows is not a
    # non-finite state, so the plant is the one to refuse the next step
    real = plant.PlantModel.stepper

    def hot(self, *args):
        real_step = real(self, *args)

        def step(state, inputs):
            (m_a, omega_e, mdot_f, _, _), chain = real_step(state, inputs)
            return (m_a, omega_e, mdot_f, 1e308, 1e308), chain

        return step

    monkeypatch.setattr(plant.PlantModel, "stepper", hot)
    with pytest.raises(SimulationAbort, match=r"^step 1: plant: emission chain overflows") as err:
        run_scenario(short_config())
    assert err.value.step == 1


def test_run_row_reads_the_controller_telemetry_as_one_slice():
    # the row copies ControllerOutput fields 3..19 as record columns 9..25
    assert dsmc.ControllerOutput._fields[3:20] == looplab._FLOAT_COLUMNS[9:26]


# run.csv of variants of the shipped scenario: (overrides, rows with an
# event, sha256), recorded before the per-step values became tuples
RUN_CSV_VARIANTS = {
    "quant_bits_10": (
        {"quant_bits": 10},
        0,
        "9e04f1df2a5ce6f8370e1f25dc653fdd8e9e1a3c6922aaf858151293fdc002b8",
    ),
    "unquantized": (
        {"quantization_enabled": False},
        0,
        "19681ab8b21e5ee9bf44ad7ffff9d670dcc5cf8cf2d8e0ac373daf715dd191df",
    ),
    "feedback_delay_2": (
        {"feedback_delay_steps": 2},
        18,
        "2262e502f41dfe5fdb691ac6c05121a0d282f623e608eec14485eae1da46c603",
    ),
    "substeps_2": (
        {"substeps": 2},
        0,
        "dfa17a3b9496e3246ffda79aed134028fd9055903a064065b89d91814f98dc7f",
    ),
    "phi_half_frozen": (
        {"phi_true": {loop: 0.5 for loop in LOOPS}, "adaptation_enabled": False},
        0,
        "ad4e9f033b9d4ac6b1ab5c993df2cd27fa805e553d24223faa567b9c6aec81ed",
    ),
    # the non-default plant conventions, recorded before the plant model
    # resolved them once per run
    "hc_as_printed": (
        {"hc_mode": "as_printed"},
        0,
        "56ce528602d4e6dec2ad7fd9a268df8bdcaff8dc66b6810c5d6427f7113f3b07",
    ),
    "qgen_flow_times_temp": (
        {"qgen_grouping": "flow_times_temp"},
        0,
        "bf50669d8885f7b1028f4430ec471a5685b6213c5dc60267d2948e4ece14f032",
    ),
    "qin_as_printed": (
        {"qin_direction": "as_printed"},
        0,
        "0a7afdea6867afa7f8289dd3c1c9837feb2c8b60b3aa421412157eacf3a319fc",
    ),
    "alternate_conventions_substeps_2": (
        {
            "hc_mode": "as_printed",
            "qgen_grouping": "flow_times_temp",
            "qin_direction": "as_printed",
            "substeps": 2,
        },
        0,
        "8fec8588d14ae5f77dd5b7a808b3b92a464d2df19b54816972e4aed35f8e392f",
    ),
}


@pytest.mark.parametrize("variant", sorted(RUN_CSV_VARIANTS))
def test_run_csv_bytes_match_the_recorded_variant_digests(variant):
    overrides, event_rows, digest = RUN_CSV_VARIANTS[variant]
    rec = run_scenario(ScenarioConfig.from_dict(overrides))
    assert sum(1 for e in rec.events if e) == event_rows
    assert hashlib.sha256(rec.to_csv().encode("utf-8")).hexdigest() == digest


def override_args(overrides: dict, prefix: str = "") -> list[str]:
    """The ``--override`` arguments that set each leaf of ``overrides``."""
    args = []
    for key, value in overrides.items():
        if isinstance(value, dict):
            args += override_args(value, f"{prefix}{key}.")
        else:
            args += ["--override", f"{prefix}{key}={json.dumps(value)}"]
    return args


@pytest.mark.parametrize("variant", sorted(RUN_CSV_VARIANTS))
def test_streamed_run_csv_matches_the_recorded_variant_digests(
    tmp_path, monkeypatch, capsys, variant
):
    """``simulate`` formats the blocks while the loop steps, with a helper."""
    overrides, _, digest = RUN_CSV_VARIANTS[variant]
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--out", str(out), *override_args(overrides)]) == 0
    assert hashlib.sha256((out / "run.csv").read_bytes()).hexdigest() == digest
    assert not multiprocessing.active_children()


HC_CUM = looplab.RECORD_COLUMNS.index("hc_cum")
HC_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 8e307, -8e307, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan, 1e-6]


@settings(max_examples=100, deadline=None)
@given(
    T=st.sampled_from([0.02, 0.01, 0.025]),
    n_steps=st.integers(0, 300),
    pool=st.lists(st.one_of(st.floats(), st.sampled_from(HC_EXTREMES)), min_size=1, max_size=6),
)
def test_the_running_hc_cum_has_the_bits_of_a_cumsum(T, n_steps, pool):
    """The loop sums the trapezoids of the ``hc_tp`` it is given in row
    order; ``np.cumsum`` of the numpy increments gives the same bits, NaN
    aside, whose sign and payload the record does not show.  A record that
    goes non-finite aborts, so its rows are read as they were handed over."""
    hc_tp = [pool[i % len(pool)] for i in range(n_steps + 1)]  # one per row
    values = iter(hc_tp)
    inner = plant.PlantModel.emissions

    def emissions(self, *args):  # once per row at one substep
        *chain, _ = inner(self, *args)
        return (*chain, next(values))

    blocks = []
    config = ScenarioConfig(T=T, duration=n_steps * T)
    with mock.patch.object(plant.PlantModel, "emissions", emissions), \
            mock.patch.object(fanout, "BLOCK_ROWS", 1):
        try:
            table = run_scenario(config, sink=blocks.append).table
        except SimulationAbort:
            table = np.concatenate([np.empty((0, 38)), *(block.table for block in blocks)])
    times = np.arange(n_steps + 1) * T
    with np.errstate(over="ignore", invalid="ignore"):
        increments = 0.5 * (np.array(hc_tp[1:]) + np.array(hc_tp[:-1])) * np.diff(times)
        want = np.concatenate([[0.0], np.cumsum(increments)])[:len(table)]
    got = table[:, HC_CUM]
    np.testing.assert_array_equal(table[:, 0], times[:len(table)])
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


def test_run_cumulative_hc_matches_trapezoid_and_is_nondecreasing():
    rec = run_scenario(short_config(duration=3.0))
    t, hc_tp, hc_cum = (rec.series[k] for k in ("time", "hc_tp", "hc_cum"))
    assert hc_cum[0] == 0.0
    assert np.all(np.diff(hc_cum) >= 0.0)
    oracle = np.concatenate([[0.0], np.cumsum(0.5 * (hc_tp[1:] + hc_tp[:-1]) * np.diff(t))])
    np.testing.assert_allclose(hc_cum, oracle, rtol=0, atol=0)


def test_run_quantization_floor_shows_in_surfaces():
    quantized = run_scenario(short_config(duration=4.0))
    clean = run_scenario(short_config(duration=4.0, quantization_enabled=False))
    tail = quantized.series["time"] >= 2.0
    # with a 16-bit word the speed surface cannot settle below the half-LSB
    # of the 600 rad/s span; the unquantized loop goes orders further down
    lsb = 600.0 / ((1 << 16) - 1)
    assert np.mean(np.abs(quantized.series["s2"][tail])) > lsb / 10.0
    assert np.mean(np.abs(clean.series["s2"][tail])) < lsb / 10.0


def test_run_feedback_delay_shifts_the_loop():
    base = run_scenario(short_config(duration=1.0))
    delayed = run_scenario(short_config(duration=1.0, feedback_delay_steps=3))
    assert not np.array_equal(base.series["s2"], delayed.series["s2"])
    # delayed feedback still sees the initial state for the first samples
    assert delayed.series["s2"][1] == pytest.approx(
        125.0 - delayed.series["omega_d"][1], abs=600.0 / ((1 << 16) - 1)
    )


@pytest.mark.parametrize("quantization_enabled", [True, False])
@pytest.mark.parametrize(
    "loop, bound",
    [("fuel", (0.0, 0.01)), ("air", (0.0, 0.1)), ("exh", (-10.0, 45.0)), ("speed", (0.0, 0.1))],
    # named by what the law computes for the loop; a NaN synthetic air-mass
    # target aborts through the air command it feeds
    ids=["control_fuel", "control_airflow", "control_spark", "synthetic_air_mass"],
)
def test_run_nan_control_law_aborts_at_its_step(monkeypatch, loop, bound, quantization_enabled):
    real = dsmc.control_law
    rho = dsmc.RHO_DEFAULTS[loop]  # distinct per loop, so it tells the loops apart
    calls = []

    def nan_from_step_7(*args):
        value = real(*args)
        if args[-1].rho != rho:
            return value
        calls.append(None)
        return math.nan if len(calls) > 7 else value

    monkeypatch.setattr(dsmc, "control_law", nan_from_step_7)
    message = f"command is NaN; cannot saturate to {bound!r}"
    with pytest.raises(SimulationAbort, match=re.escape(message)) as err:
        run_scenario(short_config(quantization_enabled=quantization_enabled))
    assert err.value.step == 7


@pytest.mark.parametrize("rows", [63, 64, 65, 128, 129])
def test_the_sink_blocks_are_the_record_rows(rows):
    """Each full block of ``BLOCK_ROWS`` rows goes to the sink in order, as
    rows of the record the run returns; the final row, which no step makes,
    is never handed over."""
    blocks = []
    record = run_scenario(short_config(duration=(rows - 1) * 0.02), sink=blocks.append)
    assert len(record) == rows
    assert len(blocks) == (rows - 1) // fanout.BLOCK_ROWS
    handed = np.concatenate([np.empty((0, 38)), *(block.table for block in blocks)])
    assert np.array_equal(handed, record.table[:fanout.BLOCK_ROWS * len(blocks)])
    assert [e for block in blocks for e in block.events] == record.events[:len(handed)]
    assert all(block.config is None for block in blocks)


def test_the_rows_handed_over_before_an_abort_are_those_of_the_run(monkeypatch):
    """A run that aborts at step 7 has handed over its first 7 rows, bit for
    bit those of the same run left to finish: the run's partial record."""
    clean = run_scenario(short_config())
    real = dsmc.control_law
    rho = dsmc.RHO_DEFAULTS["fuel"]
    calls = []

    def nan_from_step_7(*args):
        value = real(*args)
        if args[-1].rho != rho:
            return value
        calls.append(None)
        return math.nan if len(calls) > 7 else value

    monkeypatch.setattr(dsmc, "control_law", nan_from_step_7)
    monkeypatch.setattr(fanout, "BLOCK_ROWS", 1)
    blocks = []
    with pytest.raises(SimulationAbort) as err:
        run_scenario(short_config(), sink=blocks.append)
    assert err.value.step == 7
    handed = np.concatenate([block.table for block in blocks])
    assert handed.shape == (7, 38)
    np.testing.assert_array_equal(handed.view(np.uint64), clean.table[:7].view(np.uint64))
    assert [e for block in blocks for e in block.events] == clean.events[:7]


def test_a_run_builds_its_record_in_one_table():
    """The table is allocated once and each row set in place, so the traced
    peak of a 6 000-step run with no sink, all in this process, is its
    304 B-a-row table, its targets and the loop's working set: no second
    copy of a row is held while the run builds its record."""
    config = short_config(duration=6000 * 0.02)
    tracemalloc.start()
    try:
        record = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(record) == 6001
    assert peak <= 550 * len(record), f"peak {peak / len(record):.0f} B a row"


def test_record_csv_round_trip_exact():
    rec = run_scenario(short_config(duration=1.0))
    text = rec.to_csv()
    back = RunRecord.from_csv(text, rec.config)
    for name in rec.series:
        np.testing.assert_array_equal(rec.series[name], back.series[name], err_msg=name)
    assert back.events == rec.events
    assert back.to_csv() == text


def reference_csv(rec):
    """The record written cell by cell through csv.writer: float reprs,
    integer flags, events as text.  Each row is quoted as csv.writer quotes
    it under a CRLF terminator, which quotes a bare CR too, and ends in LF."""

    def line(cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(cells)
        return buf.getvalue()[:-2] + "\n"

    lines = [line(looplab.RECORD_COLUMNS)]
    for i in range(len(rec)):
        row = []
        for name in looplab.RECORD_COLUMNS:
            if name == "events":
                row.append(rec.events[i])
            elif name.startswith("sat_"):
                row.append(str(int(rec.series[name][i])))
            else:
                row.append(repr(float(rec.series[name][i])))
        lines.append(line(row))
    return "".join(lines)


def columns_record(values, flags, events):
    """A record from per-row float values, 0/1 flags and event strings."""
    n = len(events)
    table = np.hstack([
        np.asarray(values, dtype=float).reshape(n, N_FLOAT_COLUMNS),
        np.asarray(flags, dtype=float).reshape(n, 3),
    ])
    return RunRecord(table, list(events))


N_FLOAT_COLUMNS = len(looplab.RECORD_COLUMNS) - 4
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf,
                  math.nan, 1.7976931348623157e308, 1e-300, 0.1]


@st.composite
def records(draw):
    n = draw(st.integers(0, 7))
    # a short pool of values cycled over the cells keeps each example cheap
    pool = draw(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)), min_size=1))
    values = [pool[i % len(pool)] for i in range(n * N_FLOAT_COLUMNS)]
    flags = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=3 * n, max_size=3 * n))
    event_text = st.text(st.one_of(st.sampled_from(',"\r\n; '), st.characters()), max_size=8)
    events = draw(st.lists(event_text, min_size=n, max_size=n))
    return columns_record(values, flags, events)


@settings(max_examples=200, deadline=None)
@given(rec=records(), block_rows=st.integers(1, 4))
def test_record_csv_matches_a_csv_writer_reference(rec, block_rows):
    # small blocks so a handful of rows spans several of them
    with mock.patch.object(fanout, "BLOCK_ROWS", block_rows):
        text = rec.to_csv()
    assert text == reference_csv(rec)
    if not all(np.isfinite(values).all() for values in rec.series.values()):
        # a record that run_scenario can write is finite; the reader refuses the rest
        with pytest.raises(ConfigError, match=r"^run record line \d+: column '\w+' is not finite"):
            RunRecord.from_csv(text)
        return
    back = RunRecord.from_csv(text)
    assert back.events == rec.events
    for name in rec.series:
        np.testing.assert_array_equal(rec.series[name], back.series[name], err_msg=name)


def boundary_record(offset):
    """A record of ``fanout.BLOCK_ROWS + offset`` rows of random floats, NaN
    and -0.0 included, flags, and events some of which need quoting."""
    n = fanout.BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    cells = n * N_FLOAT_COLUMNS
    values = rng.standard_normal(cells) * 10.0 ** rng.integers(-300, 300, cells)
    values[::97] = math.nan
    values[1::89] = -0.0
    flags = rng.integers(0, 2, 3 * n)
    events = ["" if i % 5 else f"kind {i}, detail \"{i}\"" for i in range(n)]
    return columns_record(values, flags, events)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_record_csv_across_the_block_boundary(offset):
    rec = boundary_record(offset)
    text = rec.to_csv()
    assert text == reference_csv(rec)
    assert text.count("\n") == len(rec) + 1


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_record_csv_across_the_block_boundary_is_the_same_on_any_cpu_count(
    monkeypatch, offset, cpus
):
    rec = boundary_record(offset)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    assert rec.to_csv() == reference_csv(rec)
    assert not multiprocessing.active_children()


def record_forks(monkeypatch) -> list:
    """The helper processes forked from now on, in order."""
    from multiprocessing.context import ForkProcess

    forks = []
    fork = ForkProcess._Popen
    monkeypatch.setattr(ForkProcess, "_Popen", staticmethod(lambda p: forks.append(p) or fork(p)))
    return forks


def test_record_csv_of_one_block_forks_no_helper(monkeypatch):
    forks = record_forks(monkeypatch)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    rec = boundary_record(0)
    assert rec.to_csv() == reference_csv(rec)
    assert forks == []
    assert boundary_record(1).to_csv() == reference_csv(boundary_record(1))
    assert len(forks) == 1  # two blocks: one helper


def test_record_csv_forks_no_helper_beside_another_thread(monkeypatch):
    forks = record_forks(monkeypatch)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    rec = boundary_record(1)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    other.start()
    try:
        text = rec.to_csv()
    finally:
        stop.set()
        other.join(30.0)
    assert not other.is_alive()
    assert text == reference_csv(rec)
    assert forks == []


def test_record_csv_survives_a_helper_that_dies_mid_block(tmp_path, monkeypatch):
    rec = run_scenario(ScenarioConfig())
    serial = reference_csv(rec)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    kill_first_helper_mid_block(monkeypatch, RunRecord, tmp_path / "died")
    assert rec.to_csv() == serial
    assert (tmp_path / "died").exists()
    assert not multiprocessing.active_children()


def test_record_csv_nan_flag_in_a_shared_write_raises_in_the_caller(monkeypatch):
    rec = boundary_record(1)
    rec.series["sat_fuel"][-1] = math.nan  # the last row, alone in the second block
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    with pytest.raises(ValueError):
        rec.to_csv()
    assert not multiprocessing.active_children()


def test_record_csv_round_trips_events_that_need_quoting():
    events = ["a,b", 'say "hi"', "two\nlines", "", 'all, "three"\n', ";plain;", "bare\rcr"]
    n = len(events)
    rec = columns_record(np.arange(n * N_FLOAT_COLUMNS) / 7.0, [0.0, 1.0, 0.0] * n, events)
    back = RunRecord.from_csv(rec.to_csv())
    assert back.events == events
    for name in rec.series:
        np.testing.assert_array_equal(rec.series[name], back.series[name], err_msg=name)


def test_record_csv_nan_flag_raises():
    rec = columns_record([0.0] * N_FLOAT_COLUMNS, [math.nan, 0.0, 0.0], [""])
    with pytest.raises(ValueError):
        rec.to_csv()


def test_record_csv_rejects_foreign_tables():
    with pytest.raises(ConfigError, match="columns"):
        RunRecord.from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="empty"):
        RunRecord.from_csv("")


def test_record_requires_a_table_of_one_row_per_event_and_one_column_per_name():
    rec = run_scenario(short_config(duration=0.02))
    assert rec.table.shape == (2, len(looplab.RECORD_COLUMNS) - 1)
    for table, events in (
        (rec.table[:, 1:], rec.events),  # a column short
        (rec.table[:1], rec.events),  # a row short
        (rec.table, rec.events + [""]),  # an event too many
        (rec.table.ravel(), rec.events),
    ):
        with pytest.raises(ConfigError, match="record table must be"):
            RunRecord(table, list(events))


def test_record_series_are_views_of_its_table():
    rec = run_scenario(short_config(duration=1.0))
    for i, name in enumerate(looplab.RECORD_COLUMNS[:-1]):
        assert np.shares_memory(rec.series[name], rec.table), name
        np.testing.assert_array_equal(rec.series[name], rec.table[:, i], err_msg=name)
    assert np.shares_memory(rec.times, rec.table)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.events = []


# ---------------------------------------------------------------------------
# metrics


def synthetic_record(times, phi_true=None, window_start=5.0, **series_overrides):
    """Minimal well-formed record: zeros everywhere unless overridden."""
    n = len(times)
    columns = looplab.RECORD_COLUMNS[:-1]
    table = np.zeros((n, len(columns)))
    table[:, 0] = times
    for loop in LOOPS:
        table[:, columns.index(f"phi_hat_{loop}")] = 1.0
    for name, values in series_overrides.items():
        table[:, columns.index(name)] = values
    config = ScenarioConfig(phi_true=dict(phi_true or {}), metrics_window_start=window_start)
    return RunRecord(table, [""] * n, config)


def test_metrics_perfect_tracking_is_all_zero():
    t = np.arange(0.0, 10.0 + 1e-9, 0.02)
    m = compute_metrics(synthetic_record(t))
    for loop in LOOPS:
        assert m.mean_err[loop] == 0.0
        assert m.std_err[loop] == 0.0
        assert m.mean_abs_s[loop] == 0.0
    assert m.afr_err_mean == 0.0 and m.afr_err_std == 0.0
    assert m.light_off_time is None
    assert m.cumulative_hc_kg == 0.0
    assert m.removal_ratio is None and m.tracking_ratio is None


def test_metrics_window_masks_early_samples():
    t = np.arange(0.0, 10.0 + 1e-9, 0.02)
    s2 = np.where(t < 5.0, 100.0, 2.0)  # big transient, small tail
    m = compute_metrics(synthetic_record(t, s2=s2))
    assert m.mean_abs_s["speed"] == pytest.approx(2.0)
    with pytest.raises(ConfigError, match="empty"):
        compute_metrics(synthetic_record(t, window_start=50.0))


def test_metrics_light_off_first_crossing():
    t = np.arange(0.0, 10.0 + 1e-9, 0.02)
    eta = np.clip((t - 3.0) / 6.0, 0.0, 1.0)  # crosses 0.5 at t = 6.0
    m = compute_metrics(synthetic_record(t, eta_cat=eta))
    assert m.light_off_time == pytest.approx(6.0, abs=0.02)
    assert m.final_eta_cat == pytest.approx(eta[-1])


def test_metrics_convergence_time_semantics():
    t = np.arange(0.0, 10.0 + 1e-9, 0.02)
    inside_all = np.full(len(t), 0.51)  # within 5% of 0.5 throughout
    leaves_and_returns = np.where(t < 3.0, 1.0, 0.5)
    never_returns = np.full(len(t), 1.0)
    rec = synthetic_record(
        t,
        phi_true={loop: 0.5 for loop in LOOPS},
        phi_hat_fuel=inside_all,
        phi_hat_speed=leaves_and_returns,
        phi_hat_exh=never_returns,
        phi_hat_air=leaves_and_returns,
    )
    m = compute_metrics(rec)
    assert m.phi_convergence_time["fuel"] is None and m.phi_converged["fuel"]
    assert m.phi_converged["speed"] and m.phi_convergence_time["speed"] == pytest.approx(3.0)
    assert not m.phi_converged["exh"] and m.phi_convergence_time["exh"] is None
    # band is on the normalized estimate: 0.5 +/- 2.5% here
    assert m.phi_convergence_time["air"] == pytest.approx(3.0)


def test_metrics_removal_and_tracking_ratios():
    t = np.arange(0.0, 10.0 + 1e-9, 0.02)
    n = len(t)
    phi = {loop: 0.5 for loop in LOOPS}
    adaptive = synthetic_record(
        t,
        phi_true=phi,
        phi_hat_fuel=np.full(n, 0.45),  # |(0.45-0.5)*2| = 0.1
        phi_hat_speed=np.full(n, 0.5),  # exact: residual 0
        phi_hat_exh=np.full(n, 0.5),
        phi_hat_air=np.full(n, 0.5),
        f_fuel=np.full(n, 2.0),
        f_speed=np.full(n, 2.0),
        f_exh=np.full(n, 2.0),
        f_air=np.full(n, 2.0),
        s1=np.full(n, 0.5),
        s2=np.full(n, 1.0),
        s3=np.full(n, 2.0),
    )
    baseline = synthetic_record(
        t,
        phi_true=phi,
        f_fuel=np.full(n, 2.0),
        f_speed=np.full(n, 2.0),
        f_exh=np.full(n, 2.0),
        f_air=np.zeros(n),  # denominator collapses: ratio undefined
        s1=np.full(n, 10.0),
        s2=np.full(n, 10.0),
        s3=np.full(n, 10.0),
    )
    m = compute_metrics(adaptive, baseline=baseline)
    # baseline residual |(1-0.5)*2| = 1 per loop with nonzero regressor
    assert m.removal_ratio["fuel"] == pytest.approx(1.0 - 0.1 / 1.0)
    assert m.removal_ratio["speed"] == pytest.approx(1.0)
    assert m.removal_ratio["air"] is None
    assert m.removal_ratio_overall == pytest.approx(0.9)  # min over defined loops
    assert m.tracking_ratio["fuel"] == pytest.approx(0.05)
    assert m.tracking_ratio["speed"] == pytest.approx(0.1)
    assert m.tracking_ratio["exh"] == pytest.approx(0.2)


def test_metrics_paired_grid_must_match():
    t = np.arange(0.0, 10.0 + 1e-9, 0.02)
    other = np.arange(0.0, 8.0 + 1e-9, 0.02)
    with pytest.raises(ConfigError, match="grid"):
        compute_metrics(synthetic_record(t), baseline=synthetic_record(other))


@pytest.mark.parametrize("paired", [False, True], ids=["alone", "paired"])
def test_metrics_of_a_record_with_no_rows_is_refused(paired):
    empty = synthetic_record(np.empty(0))
    with pytest.raises(ConfigError, match="^run record has no rows to summarize$"):
        compute_metrics(empty, baseline=empty if paired else None)


def test_metrics_text_and_csv_shapes():
    t = np.arange(0.0, 10.0 + 1e-9, 0.02)
    m = compute_metrics(synthetic_record(t))
    text = m.to_text()
    assert "light_off_time_s = absent" in text
    assert "mean_abs_s_speed = 0.0" in text
    header, row = MetricsSummary.csv_header(), m.to_csv_row()
    assert len(header) == len(row)
    assert row[header.index("light_off_time_s")] == ""
    assert row[header.index("phi_converged_fuel")] == "1"


# sha256 of metrics.txt and of the sweep.csv header and row (csv.writer) for
# short runs of the shipped scenario, recorded while each column was still
# written out by hand in to_text, csv_header and to_csv_row
METRIC_BYTES = {
    # phi = 0.5 on every loop, adaptive against frozen: every ratio is defined
    "paired_phi_half": (
        "8c03ccc58823e38bfad406c7ece925c4e0de8121e514cc5e8f822b14de80a98e",
        "aaa9522f1e7c4d6b41e69f5c220471a235348f9af3cd8e5e342d40f5c1c1aa58",
    ),
    # nominal plant, adaptive against frozen: the frozen estimate is exact, so
    # every removal ratio is undefined while the tracking ratios are not
    "paired_nominal": (
        "2e2978062f01b50046b1ee69eb41ec1412396a6886cbb7bfe599134e44d1ddb0",
        "a80d6d95f79abd2b468337536d91b3163a9be855a76c3664901d4716be44e6a7",
    ),
    # no baseline: every ratio is absent
    "unpaired_nominal": (
        "91723c9f9068ea96108f6957f81c8ffca2f0a1b072c7799751af24437e8a89c9",
        "2b4e63584b326ee6a32aa850612472c529ba577aed08cb8af7588c345a8a2ba8",
    ),
}


@pytest.mark.parametrize("case", sorted(METRIC_BYTES))
def test_metrics_text_and_csv_bytes_match_the_recorded_digests(case):
    data = {"duration": 2.0, "metrics_window_start": 1.0}
    if case == "paired_phi_half":
        data["phi_true"] = {loop: 0.5 for loop in LOOPS}
    baseline = None
    if case.startswith("paired"):
        baseline = run_scenario(ScenarioConfig.from_dict({**data, "adaptation_enabled": False}))
    m = compute_metrics(run_scenario(ScenarioConfig.from_dict(data)), baseline=baseline)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([MetricsSummary.csv_header(), m.to_csv_row()])
    text_digest, csv_digest = METRIC_BYTES[case]
    assert hashlib.sha256(m.to_text().encode("utf-8")).hexdigest() == text_digest
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == csv_digest
