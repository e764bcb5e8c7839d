"""Coupling-analysis and identification checks."""

import json
import math
import multiprocessing
import re

import numpy as np
import pytest

from coldstart import fanout, rga
from coldstart.errors import IdentificationError, SingularGainError, SingularMatrixError
from coldstart.rga import (
    FirstOrderTF,
    TFMatrix,
    closed_loop_gains,
    freq_response,
    from_gain_time_constant,
    identify_first_order,
    identify_mimo,
    rga_of_matrix,
    rga_sweep,
    to_gain_time_constant,
)
from lab_helpers import default_coupling_matrix, kill_first_helper_mid_block, simulate_first_order


def random_well_conditioned(n, rng, tries=50):
    for _ in range(tries):
        p = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(p) < 50.0:
            return p
    raise AssertionError("could not draw a well-conditioned matrix")


def random_tf_matrix(n, rng):
    """Random first-order channels, some static; about a third of the
    off-diagonal entries are explicit zero coupling (None)."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i != j and rng.random() < 0.3:
                row.append(None)
            else:
                tau = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 2.0))
                row.append(FirstOrderTF(tau, float(rng.uniform(0.1, 3.0))))
        rows.append(row)
    return TFMatrix(rows)


def per_frequency_sweep(tfm, omegas):
    """The RGA sweep by its definition: one gain matrix per frequency."""
    lambdas = np.full((len(omegas), tfm.n, tfm.n), np.nan, dtype=complex)
    gaps = np.zeros(len(omegas), dtype=bool)
    for idx, w in enumerate(omegas):
        try:
            lambdas[idx] = rga_of_matrix(tfm.response(float(w)))
        except SingularMatrixError:
            gaps[idx] = True
    return lambdas, gaps


# ---------------------------------------------------------------------------
# first-order channels


def test_tf_rejects_double_zero():
    with pytest.raises(ValueError):
        FirstOrderTF(0.0, 0.0)


@pytest.mark.parametrize(
    "tau, k, name",
    [(math.nan, 1.0, "tau"), (math.inf, 1.0, "tau"), (1.0, -math.inf, "k"), (0.0, math.nan, "k")],
)
def test_tf_rejects_non_finite_parameters(tau, k, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        FirstOrderTF(tau, k)


def test_freq_response_unit_values():
    tf = FirstOrderTF(tau=1.0, k=1.0)
    assert freq_response(tf, 1.0) == pytest.approx(0.5 - 0.5j, rel=1e-15)
    assert freq_response(tf, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_freq_response_dc_is_inverse_k():
    tf = FirstOrderTF(tau=3.0, k=0.25)
    assert freq_response(tf, 0.0) == pytest.approx(4.0, rel=1e-15)


def test_freq_response_singular_at_dc_with_zero_k():
    tf = FirstOrderTF(tau=1.0, k=0.0)
    with pytest.raises(SingularGainError):
        freq_response(tf, 0.0)
    # away from DC the integrator-like channel responds fine
    assert abs(freq_response(tf, 2.0)) == pytest.approx(0.5, rel=1e-15)


def test_freq_response_vectorized():
    tf = FirstOrderTF(tau=0.5, k=2.0)
    w = np.array([0.1, 1.0, 10.0])
    got = freq_response(tf, w)
    want = 1.0 / (1j * w * 0.5 + 2.0)
    assert np.allclose(got, want, rtol=1e-15)


def test_gain_time_constant_round_trip():
    gain, t_const = to_gain_time_constant(FirstOrderTF(tau=0.4, k=0.5))
    assert gain == pytest.approx(2.0, rel=1e-15)
    assert t_const == pytest.approx(0.8, rel=1e-15)
    back = from_gain_time_constant(gain, t_const)
    assert back.tau == pytest.approx(0.4, rel=1e-15)
    assert back.k == pytest.approx(0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# transfer matrix container


def test_tf_matrix_rejects_ragged_and_empty():
    g = FirstOrderTF(1.0, 1.0)
    with pytest.raises(ValueError):
        TFMatrix([[g, g], [g]])
    with pytest.raises(ValueError):
        TFMatrix([])


def test_response_uses_zero_for_explicit_no_coupling():
    g = FirstOrderTF(1.0, 1.0)
    tfm = TFMatrix([[g, None], [None, g]])
    p = tfm.response(0.0)
    assert p[0, 1] == 0.0 and p[1, 0] == 0.0
    assert p[0, 0] == pytest.approx(1.0)


def test_tfmatrix_json_round_trip():
    tfm = default_coupling_matrix()
    back = TFMatrix.from_json(tfm.to_json())
    assert back == tfm


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"entries": [[{"tau": 1.0, "k": 1.0}]]}, "n must be a positive integer, got None"),
        ({"n": 1.0, "entries": [[{"tau": 1.0, "k": 1.0}]]}, "n must be a positive integer"),
        ({"n": True, "entries": [[{"tau": 1.0, "k": 1.0}]]}, "n must be a positive integer"),
        ({"n": "1", "entries": [[{"tau": 1.0, "k": 1.0}]]}, "n must be a positive integer"),
        ({"n": 3, "entries": [[{"tau": 1.0, "k": 1.0}]]}, "n is 3, but entries has length 1"),
        ({"n": 2, "entries": [[None, None], [None]]}, "n is 2, but row 2 has length 1"),
    ],
)
def test_tfmatrix_json_refuses_a_missing_or_mismatched_n(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TFMatrix.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "cell, message",
    [
        ({"tau": True, "k": 1.0}, "channel (1,2): tau must be a number, got True"),
        ({"tau": 1.0, "k": "1.5"}, "channel (1,2): k must be a number, got '1.5'"),
        ({"tau": None, "k": 1.0}, "channel (1,2): tau must be a number, got None"),
        ({"tau": 1.0}, "channel (1,2) must be null or an object of tau and k"),
        ({"tau": 1.0, "k": 1.0, "x": 2.0}, "channel (1,2) must be null or an object of tau and k"),
        ([1.0, 1.0], "channel (1,2) must be null or an object of tau and k"),
    ],
)
def test_tfmatrix_json_refuses_booleans_and_strings_naming_the_channel(cell, message):
    doc = {"n": 2, "entries": [[{"tau": 1.0, "k": 1.0}, cell], [None, {"tau": 1, "k": 2}]]}
    with pytest.raises(ValueError, match=re.escape(message)):
        TFMatrix.from_json(json.dumps(doc))


def test_tfmatrix_csv_round_trip():
    tfm = default_coupling_matrix()
    back = TFMatrix.from_csv(tfm.to_csv())
    assert back == tfm


# ---------------------------------------------------------------------------
# relative gain array algebra


def test_rga_of_identity_is_identity():
    lam = rga_of_matrix(np.eye(3))
    assert np.allclose(lam, np.eye(3), atol=1e-14)


def test_rga_two_by_two_closed_form():
    p = np.array([[2.0, 0.5], [1.0, 3.0]])
    lam = rga_of_matrix(p)
    lam11 = 1.0 / (1.0 - (p[0, 1] * p[1, 0]) / (p[0, 0] * p[1, 1]))
    assert lam[0, 0] == pytest.approx(lam11, rel=1e-12)
    assert lam[0, 1] == pytest.approx(1.0 - lam11, rel=1e-12)
    assert lam[1, 0] == pytest.approx(1.0 - lam11, rel=1e-12)
    assert lam[1, 1] == pytest.approx(lam11, rel=1e-12)


def test_rga_rows_and_columns_sum_to_one():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(20):
            p = random_well_conditioned(n, rng)
            lam = rga_of_matrix(p)
            assert np.allclose(lam.sum(axis=0), 1.0, atol=1e-10)
            assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-10)


def test_rga_invariant_under_diagonal_scaling():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_well_conditioned(3, rng)
        d1 = np.diag(rng.uniform(0.2, 5.0, size=3))
        d2 = np.diag(rng.uniform(0.2, 5.0, size=3))
        assert np.allclose(rga_of_matrix(d1 @ p @ d2), rga_of_matrix(p), atol=1e-10)


def test_rga_permutation_equivariance():
    rng = np.random.default_rng(7)
    p = random_well_conditioned(3, rng)
    perm = np.eye(3)[[2, 0, 1]]
    lam = rga_of_matrix(p)
    assert np.allclose(rga_of_matrix(p @ perm), lam @ perm, atol=1e-10)
    assert np.allclose(rga_of_matrix(perm @ p), perm @ lam, atol=1e-10)


def test_rga_times_closed_loop_gain_recovers_open_loop():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = random_well_conditioned(3, rng)
        lam = rga_of_matrix(p)
        q = closed_loop_gains(p)
        finite = np.isfinite(q.real)
        assert np.allclose((lam * q)[finite], p[finite], atol=1e-10)


def test_rga_rejects_singular_matrix():
    with pytest.raises(SingularMatrixError):
        rga_of_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        rga_of_matrix(np.ones((2, 3)))


def test_rga_at_decoupled_plant():
    g = FirstOrderTF(1.0, 1.0)
    tfm = TFMatrix([[g, None], [None, FirstOrderTF(0.3, 2.0)]])
    lam = rga_of_matrix(tfm.response(0.5))
    assert np.allclose(lam, np.eye(2), atol=1e-14)


def test_rga_of_a_stack_equals_each_matrix():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        stack = np.stack([random_well_conditioned(n, rng) for _ in range(6)]).reshape(2, 3, n, n)
        lam = rga_of_matrix(stack)
        q = closed_loop_gains(stack)
        assert lam.shape == q.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(lam[idx], rga_of_matrix(stack[idx]))
            assert np.array_equal(q[idx], closed_loop_gains(stack[idx]))


def test_rga_of_a_stack_with_one_ill_conditioned_member_raises():
    rng = np.random.default_rng(37)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    stack = np.stack([random_well_conditioned(2, rng), singular, random_well_conditioned(2, rng)])
    with pytest.raises(SingularMatrixError):
        rga_of_matrix(stack)
    with pytest.raises(SingularMatrixError):
        closed_loop_gains(stack)


# ---------------------------------------------------------------------------
# frequency sweep


def test_sweep_grid_defaults():
    res = rga_sweep(default_coupling_matrix())
    assert len(res.omegas) == 200
    assert res.omegas[0] == pytest.approx(1e-2, rel=1e-12)
    assert res.omegas[-1] == pytest.approx(1e2, rel=1e-12)
    assert not res.gaps.any()


def test_sweep_decoupled_dominance_is_unity():
    g1, g2 = FirstOrderTF(1.0, 1.0), FirstOrderTF(0.2, 0.8)
    res = rga_sweep(TFMatrix([[g1, None], [None, g2]]))
    assert np.allclose(res.dominance, 1.0)
    # off-diagonal magnitudes are exact zeros -> -inf dB
    assert np.all(np.isneginf(res.mags_db[:, 0, 1]))
    assert np.all(np.isneginf(res.mags_db[:, 1, 0]))


def test_sweep_coupled_static_plant_fails_dominance():
    # static entries chosen so lambda_11 = 2 (about 6 dB) at every frequency
    tfm = TFMatrix(
        [
            [FirstOrderTF(0.0, 1.0), FirstOrderTF(0.0, 2.0)],
            [FirstOrderTF(0.0, 1.0), FirstOrderTF(0.0, 1.0)],
        ]
    )
    res = rga_sweep(tfm)
    assert np.allclose(res.lambdas[:, 0, 0], 2.0, atol=1e-12)
    assert np.allclose(res.dominance, 0.0)


def test_sweep_singular_at_dc_leaves_gap_rows():
    # rows become proportional as omega -> 0; elsewhere well conditioned
    tfm = TFMatrix(
        [
            [FirstOrderTF(1.0, 1.0), FirstOrderTF(0.0, 1.0)],
            [FirstOrderTF(0.0, 1.0), FirstOrderTF(2.0, 1.0)],
        ]
    )
    res = rga_sweep(tfm, w_min=1e-8, w_max=1e2, n_points=60, cond_limit=1e6)
    assert res.gaps[0]  # lowest frequencies are ill conditioned
    assert not res.gaps[-1]
    assert res.gaps.sum() < len(res.omegas)
    # gap rows carry no numbers but the sweep output keeps its shape
    lines = res.to_csv().splitlines()
    assert len(lines) == 61


def boundary_result(offset):
    """A 2x2 sweep result of ``CSV_BLOCK_ROWS + offset`` frequencies with
    random elements, exact zeros and every seventh row a gap."""
    n_freq = rga.CSV_BLOCK_ROWS + offset
    rng = np.random.default_rng(n_freq)
    lambdas = rng.standard_normal((n_freq, 2, 2)) + 1j * rng.standard_normal((n_freq, 2, 2))
    lambdas[:, 0, 1] = 0.0
    gaps = np.arange(n_freq) % 7 == 3
    lambdas[gaps] = np.nan
    return rga.RGAResult(omegas=np.logspace(-3, 3, n_freq), lambdas=lambdas, gaps=gaps)


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sweep_csv_across_the_block_boundary_is_the_same_on_any_cpu_count(
    monkeypatch, offset, cpus
):
    res = boundary_result(offset)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    serial = res.to_csv()
    assert serial.count("\n") == len(res.omegas) + 1
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    assert res.to_csv() == serial
    assert not multiprocessing.active_children()


def test_sweep_csv_survives_a_helper_that_dies_mid_block(tmp_path, monkeypatch):
    res = rga_sweep(default_coupling_matrix(), n_points=2000)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    serial = res.to_csv()
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 4)
    kill_first_helper_mid_block(monkeypatch, rga.RGAResult, tmp_path / "died")
    assert res.to_csv() == serial
    assert (tmp_path / "died").exists()
    assert not multiprocessing.active_children()


def test_response_over_a_grid_stacks_the_single_frequency_matrices():
    tfm = random_tf_matrix(3, np.random.default_rng(43))
    omegas = np.logspace(-2, 2, 50)
    p = tfm.response(omegas)
    assert p.shape == (50, 3, 3)
    for idx, w in enumerate(omegas):
        assert np.array_equal(p[idx], tfm.response(float(w)))
    assert tfm.response(0.5).shape == (3, 3)


def test_sweep_matches_the_per_frequency_definition():
    rng = np.random.default_rng(41)
    for _ in range(12):
        tfm = random_tf_matrix(int(rng.integers(2, 5)), rng)
        res = rga_sweep(tfm, n_points=300)
        lambdas, gaps = per_frequency_sweep(tfm, res.omegas)
        assert np.array_equal(res.gaps, gaps)
        assert np.array_equal(res.lambdas, lambdas, equal_nan=True)


def test_sweep_near_singular_gaps_match_the_per_frequency_definition():
    # proportional rows at DC: ill conditioned below about 1e-12 rad/s
    g = FirstOrderTF(1.0, 1.0)
    tfm = TFMatrix([[g, g], [g, FirstOrderTF(2.0, 1.0)]])
    res = rga_sweep(tfm, w_min=1e-16, w_max=1.0, n_points=300)
    lambdas, gaps = per_frequency_sweep(tfm, res.omegas)
    assert 0 < gaps.sum() < len(gaps)
    assert np.array_equal(res.gaps, gaps)
    assert np.array_equal(res.lambdas, lambdas, equal_nan=True)


def test_sweep_validates_grid():
    with pytest.raises(ValueError):
        rga_sweep(default_coupling_matrix(), w_min=1.0, w_max=0.1)
    with pytest.raises(ValueError):
        rga_sweep(default_coupling_matrix(), n_points=0)


def test_sweep_csv_layout():
    res = rga_sweep(default_coupling_matrix(), n_points=4)
    lines = res.to_csv().splitlines()
    header = lines[0].split(",")
    n = default_coupling_matrix().n
    assert len(header) == 2 + 3 * n * n
    assert header[0] == "omega" and header[1] == "gap"
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# identification


def test_identify_round_trip_exact():
    tf = FirstOrderTF(tau=2.0, k=0.5)
    rng = np.random.default_rng(17)
    u = rng.normal(size=4000)
    y = simulate_first_order(tf, u, T=0.02)
    fit = identify_first_order(u, y, T=0.02)
    assert fit.tau_identifiable
    assert abs(fit.tf.tau - 2.0) / 2.0 < 1e-3
    assert abs(fit.tf.k - 0.5) / 0.5 < 1e-3
    assert fit.residual_rms < 1e-12


def test_identify_settled_dc_record_flags_time_constant():
    u = np.full(50, 3.0)
    y = np.full(50, 6.0)
    fit = identify_first_order(u, y, T=0.02)
    assert not fit.tau_identifiable
    assert fit.tf.k == pytest.approx(0.5, rel=1e-12)
    assert fit.tf.tau == 0.0


def test_identify_rejects_unsettled_output_without_excitation():
    u = np.zeros(100)
    y = np.exp(-0.05 * np.arange(100.0))  # free decay, no input information
    with pytest.raises(IdentificationError):
        identify_first_order(u, y, T=0.02)


def test_identify_rejects_bad_lengths():
    with pytest.raises(IdentificationError):
        identify_first_order(np.ones(5), np.ones(5), T=0.02)
    with pytest.raises(IdentificationError):
        identify_first_order(np.ones(20), np.ones(19), T=0.02)
    with pytest.raises(IdentificationError):
        identify_first_order(np.ones(20), np.ones(20), T=0.0)


def test_identify_rejects_unstable_pole():
    rng = np.random.default_rng(19)
    u = rng.normal(size=200)
    y = np.zeros(200)
    for k in range(199):
        y[k + 1] = 1.05 * y[k] + 0.1 * u[k]  # growing record
    with pytest.raises(IdentificationError) as err:
        identify_first_order(u, y, T=0.02)
    assert "outside (0, 1)" in str(err.value)


def test_identify_mimo_marks_zero_coupling():
    rng = np.random.default_rng(23)
    g11 = FirstOrderTF(1.0, 1.0)
    g21 = FirstOrderTF(0.5, 2.0)
    g22 = FirstOrderTF(0.25, 0.5)
    n_samples = 2000
    u1 = rng.normal(size=n_samples)
    u2 = rng.normal(size=n_samples)
    y = np.zeros((2, 2, n_samples))
    y[0, 0] = simulate_first_order(g11, u1, T=0.02)
    y[1, 0] = simulate_first_order(g21, u1, T=0.02)
    y[0, 1] = np.zeros(n_samples)  # no path from input 2 to output 1
    y[1, 1] = simulate_first_order(g22, u2, T=0.02)
    result = identify_mimo(np.stack([u1, u2]), y, T=0.02)
    assert result.holes == {(1, 2): "zero response"}
    assert result.tfm.entries[0][1] is None
    assert result.tfm.entries[0][0].tau == pytest.approx(1.0, rel=1e-6)
    assert result.tfm.entries[1][0].k == pytest.approx(2.0, rel=1e-6)
    assert result.tfm.entries[1][1].tau == pytest.approx(0.25, rel=1e-6)


def test_identify_mimo_attaches_pair_to_errors():
    rng = np.random.default_rng(29)
    n_samples = 500
    u1 = rng.normal(size=n_samples)
    u2 = rng.normal(size=n_samples)
    good = simulate_first_order(FirstOrderTF(1.0, 1.0), u1, T=0.02)
    bad = np.zeros(n_samples)
    for k in range(n_samples - 1):
        bad[k + 1] = 1.02 * bad[k] + 0.1 * u1[k]
    y = np.zeros((2, 2, n_samples))
    y[0, 0] = good
    y[1, 0] = bad
    y[0, 1] = simulate_first_order(FirstOrderTF(0.5, 1.0), u2, T=0.02)
    y[1, 1] = simulate_first_order(FirstOrderTF(0.5, 2.0), u2, T=0.02)
    with pytest.raises(IdentificationError) as err:
        identify_mimo(np.stack([u1, u2]), y, T=0.02)
    assert err.value.pair == (2, 1)

    partial = identify_mimo(np.stack([u1, u2]), y, T=0.02, on_error="hole")
    assert (2, 1) in partial.holes and "fit failed" in partial.holes[(2, 1)]
    assert (1, 1) in partial.fits and (2, 2) in partial.fits
