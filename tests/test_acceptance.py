"""End-to-end acceptance checklist for the cold-start laboratory.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line directly to the terminal (bypassing pytest's capture) so a plain
``pytest -v`` run always shows the checklist verdict next to the numbers
that produced it.  The criteria are deliberately black-box: they exercise
the shipped scenario runner, controller, metrics, RGA toolkit and
quantizer through their public entry points only.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from coldstart import dsmc, looplab, plant, rga
from lab_helpers import from_gain_time_constant, simulate_first_order, to_gain_time_constant

LOOPS = ("fuel", "speed", "exh", "air")


@pytest.fixture
def report(capfd):
    """One PASS/FAIL checklist line per criterion, written to the terminal."""

    def _report(num: int, label: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"[criterion {num:>2}] {verdict}  {label} :: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# ---------------------------------------------------------------------------
# shared scenario runs (module-scoped: several criteria read the same records)


@pytest.fixture(scope="module")
def nominal_record():
    return looplab.run_scenario(looplab.ScenarioConfig())


@pytest.fixture(scope="module")
def mismatch_records():
    """Adaptive run and frozen-estimator baseline under a 2x model error."""
    phi = looplab.PhiTrue(fuel=0.5, speed=0.5, exh=0.5, air=0.5)
    adaptive = looplab.run_scenario(looplab.ScenarioConfig(phi_true=phi))
    frozen = looplab.run_scenario(
        looplab.ScenarioConfig(phi_true=phi, adaptation_enabled=False)
    )
    return adaptive, frozen


# ---------------------------------------------------------------------------
# criterion 1: with a perfectly matched model every sliding surface obeys
# s(k+1) = -beta * s(k) to numerical precision once the cascade has issued
# its first command


def _settled_air_mass(cfg, omega0: float, mdot_f0: float, t_exh0: float) -> float:
    # The synthetic air-mass target computed on the first sample is affine in
    # the starting air mass, so a single secant step lands exactly on the
    # fixed point where the initial charge already equals the target and the
    # air surface starts at zero.  A fresh controller per probe keeps the
    # delay line and held-spark state out of the fit.
    straj = cfg.sampled_trajectory

    def gap(m: float) -> float:
        ctl = cfg.build_controller()
        state = plant.EngineState(m, omega0, mdot_f0, 25.0, t_exh0)
        return ctl.step(state, straj.window(0)).m_a_d - m

    m0, m1 = 0.0035, 0.0045
    g0, g1 = gap(m0), gap(m1)
    return m0 - g0 * (m1 - m0) / (g1 - g0)


def test_criterion_1_matched_model_geometric_decay(report):
    # wide actuator limits and no quantizer: the construction must isolate
    # the closed-loop recursion itself, not saturation or ADC effects
    cfg0 = looplab.ScenarioConfig(
        duration=4.0,
        quantization_enabled=False,
        adaptation_enabled=False,
        bounds=dsmc.ActuatorBounds(
            mdot_ai=(-1.0, 1.0), mdot_fc=(-0.1, 0.1), delta=(-2000.0, 2000.0)
        ),
        metrics_window_start=1.0,
    )
    omega0, t_exh0 = 127.0, 660.0
    m_star = _settled_air_mass(cfg0, omega0, 7.7e-4, t_exh0)
    # initial tracking offsets on the three output loops; the air loop starts
    # on target because its initial condition doubles as the speed loop's
    # first actuator value
    mdot_f0 = plant.air_outflow(m_star, omega0) / 12.5 + 2e-5
    cfg = replace(
        cfg0,
        initial_state=plant.EngineState(m_star, omega0, mdot_f0, 25.0, t_exh0),
    )
    rec = looplab.run_scenario(cfg)

    n_ctl = len(rec.series["time"]) - 1  # last row holds final state, no command
    beta = dsmc.BETA_DEFAULT
    worst = 0.0
    for name in ("s1", "s2", "s3", "s4"):
        s = rec.series[name][:n_ctl]
        # s(1) is shaped by the initial conditions, not by a command the
        # cascade issued, so the recursion is asserted from the second step on
        resid = np.abs(s[2:] + beta * s[1:-1])
        scale = np.maximum(1.0, np.abs(s[1:-1]))
        worst = max(worst, float(np.max(resid / scale)))

    sat_steps = sum(
        int(rec.series[c][:n_ctl].sum()) for c in ("sat_air", "sat_fuel", "sat_delta")
    )
    offsets = [float(rec.series[k][0]) for k in ("s1", "s2", "s3")]
    ok = worst <= 1e-9 and sat_steps == 0 and all(abs(o) > 1e-7 for o in offsets)
    report(
        1,
        "matched-model surfaces decay geometrically",
        ok,
        f"worst |s(k+1)+beta*s(k)| = {worst:.3e} rel (tol 1e-9), "
        f"saturated steps = {sat_steps}, injected offsets = "
        + ", ".join(f"{o:.3g}" for o in offsets),
    )


# ---------------------------------------------------------------------------
# criterion 2: under a 2x model error with 16-bit feedback the estimates of
# all four loops enter and stay inside +/-5 % of the true value within 5 s


def test_criterion_2_estimator_convergence(report, mismatch_records):
    adaptive, _ = mismatch_records
    m = looplab.compute_metrics(adaptive)
    parts = []
    ok = True
    for loop in LOOPS:
        t = m.phi_convergence_time[loop]
        stayed = m.phi_converged[loop]
        # the estimate starts at 100 % error, so a convergence time must exist
        ok = ok and stayed and t is not None and t <= 5.0
        parts.append(f"{loop} {'never' if t is None else format(t, '.2f') + ' s'}")
    report(2, "estimates within 5 % of truth in <= 5 s", ok, ", ".join(parts))


# ---------------------------------------------------------------------------
# criterion 3: adaptation cancels >= 90 % of the injected model error
# relative to a frozen-estimator baseline over the post-convergence window


def test_criterion_3_model_error_removal(report, mismatch_records):
    adaptive, frozen = mismatch_records
    m = looplab.compute_metrics(adaptive, baseline=frozen)
    r = m.removal_ratio_overall
    ok = r is not None and r >= 0.90
    per_loop = (
        "n/a"
        if m.removal_ratio is None
        else ", ".join(
            f"{k} {v:.4f}" for k, v in m.removal_ratio.items() if v is not None
        )
    )
    report(
        3,
        "adaptation removes >= 90 % of model error",
        ok,
        f"overall = {'n/a' if r is None else format(r, '.4f')} (need >= 0.90; {per_loop})",
    )


# ---------------------------------------------------------------------------
# criterion 4: converged tracking error is <= 10 % of the frozen baseline's
# on the three output loops


def test_criterion_4_tracking_ratio(report, mismatch_records):
    adaptive, frozen = mismatch_records
    m = looplab.compute_metrics(adaptive, baseline=frozen)
    ok = m.tracking_ratio is not None
    parts = []
    for loop in ("fuel", "speed", "exh"):
        v = None if m.tracking_ratio is None else m.tracking_ratio.get(loop)
        ok = ok and v is not None and v <= 0.10
        parts.append(f"{loop} {'n/a' if v is None else format(v, '.4f')}")
    report(
        4,
        "tracking error <= 10 % of frozen baseline",
        ok,
        ", ".join(parts) + " (need <= 0.10 each)",
    )


# ---------------------------------------------------------------------------
# criterion 5: the default scenario meets the cold-start emission targets


def test_criterion_5_cold_start_targets(report, nominal_record):
    m = looplab.compute_metrics(nominal_record)
    hc_g = m.cumulative_hc_kg * 1000.0
    lo = m.light_off_time
    ok = hc_g <= 2.5 and lo is not None and lo <= 35.0 and m.final_eta_cat >= 0.85
    report(
        5,
        "nominal cold start meets emission targets",
        ok,
        f"tailpipe HC = {hc_g:.3f} g (<= 2.5), light-off = "
        f"{'never' if lo is None else format(lo, '.2f') + ' s'} (<= 35), "
        f"final eta = {m.final_eta_cat:.4f} (>= 0.85)",
    )


# ---------------------------------------------------------------------------
# criterion 6: physical invariants hold on every run: tailpipe HC never
# exceeds engine-out HC, conversion efficiency stays in [0, 0.98], the
# cumulative HC integral never decreases, and no series goes non-finite


def test_criterion_6_run_invariants(report, nominal_record, mismatch_records):
    records = (nominal_record, *mismatch_records)
    ok = True
    checked = 0
    for rec in records:
        ok = ok and bool(np.all(rec.series["hc_tp"] <= rec.series["hc_eng"]))
        eta = rec.series["eta_cat"]
        ok = ok and bool(np.all((eta >= 0.0) & (eta <= 0.98)))
        ok = ok and bool(np.all(np.diff(rec.series["hc_cum"]) >= 0.0))
        for arr in rec.series.values():
            ok = ok and bool(np.all(np.isfinite(arr)))
            checked += 1
    report(
        6,
        "emission invariants hold on every run",
        ok,
        f"{len(records)} records, {checked} series: hc_tp <= hc_eng, "
        "eta in [0, 0.98], hc_cum nondecreasing, all finite",
    )


# ---------------------------------------------------------------------------
# criterion 7: algebraic properties of the relative gain array


def test_criterion_7_rga_algebra(report):
    # (a) a diagonal (fully decoupled) plant pairs as the identity
    lam_a = rga.rga_of_matrix(np.diag([1.0 + 2.0j, 3.0, 0.5 - 1.0j]))
    err_a = float(np.max(np.abs(lam_a - np.eye(3))))

    # (b) symmetric 2x2 interaction with a known closed form
    lam_b = rga.rga_of_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    want_b = np.array([[4.0 / 3.0, -1.0 / 3.0], [-1.0 / 3.0, 4.0 / 3.0]])
    err_b = float(np.max(np.abs(lam_b - want_b)))

    # (c) every row and column sums to exactly one
    rng = np.random.default_rng(20260819)
    err_c = 0.0
    for _ in range(1000):
        p = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lam = rga.rga_of_matrix(p)
        err_c = max(
            err_c,
            float(np.max(np.abs(lam.sum(axis=0) - 1.0))),
            float(np.max(np.abs(lam.sum(axis=1) - 1.0))),
        )

    # (d) invariance under diagonal input/output scaling, signs included
    err_d = 0.0
    for _ in range(100):
        p = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        d1 = np.diag(rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3))
        d2 = np.diag(rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3))
        err_d = max(
            err_d,
            float(np.max(np.abs(rga.rga_of_matrix(d1 @ p @ d2) - rga.rga_of_matrix(p)))),
        )

    ok = err_a <= 1e-12 and err_b <= 1e-12 and err_c <= 1e-10 and err_d <= 1e-10
    report(
        7,
        "RGA algebra (identity, closed form, sums, scaling)",
        ok,
        f"diag err {err_a:.2e}, 2x2 err {err_b:.2e} (tol 1e-12); "
        f"sum err {err_c:.2e}, scaling err {err_d:.2e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# criterion 8: first-order identification recovers a known 3x3 channel
# matrix from sampled data: exact to 0.1 % noiseless, within 2 % at 60 dB SNR


def test_criterion_8_identification_accuracy(report):
    T = 0.02
    gains = [[1.0, 0.4, 0.2], [0.3, 2.0, 0.5], [0.6, 0.25, 1.5]]
    taus = [[0.3, 0.5, 1.0], [0.6, 0.8, 0.4], [0.2, 0.7, 0.05]]
    n, N = 3, 2000

    rng = np.random.default_rng(8)
    u_series = rng.standard_normal((n, N))
    y_clean = np.zeros((n, n, N))
    for j in range(n):  # experiment j excites input j only
        for i in range(n):
            tf = from_gain_time_constant(gains[i][j], taus[i][j])
            y_clean[i, j] = simulate_first_order(tf, u_series[j], T)

    def worst_error(y_series) -> float:
        ident = rga.identify_mimo(u_series, y_series, T)
        assert not ident.holes
        worst = 0.0
        for (i, j), fit in ident.fits.items():
            k_hat, tau_hat = to_gain_time_constant(fit.tf)
            k_true, tau_true = gains[i - 1][j - 1], taus[i - 1][j - 1]
            worst = max(
                worst,
                abs(k_hat / k_true - 1.0),
                abs(tau_hat / tau_true - 1.0),
            )
        return worst

    err_clean = worst_error(y_clean)

    err_noisy = 0.0
    for seed in range(100):
        nrng = np.random.default_rng(1000 + seed)
        y_noisy = np.empty_like(y_clean)
        for i in range(n):
            for j in range(n):
                sigma = np.std(y_clean[i, j]) / 1000.0  # 60 dB SNR
                y_noisy[i, j] = y_clean[i, j] + sigma * nrng.standard_normal(N)
        err_noisy = max(err_noisy, worst_error(y_noisy))

    ok = err_clean <= 1e-3 and err_noisy <= 0.02
    report(
        8,
        "3x3 identification recovers tau and gain",
        ok,
        f"noiseless worst rel err = {err_clean:.2e} (tol 1e-3); "
        f"60 dB SNR worst over 100 seeds = {err_noisy:.2e} (tol 2e-2)",
    )


# ---------------------------------------------------------------------------
# criterion 9: with no injected uncertainty the discrete stepper agrees with
# an independent flat transcription of the model equations


def _oracle_step(st: plant.EngineState, u: plant.ControlInput, T: float):
    """One Euler step written out longhand from the model equations."""
    ma, w, f, tc, te = st.m_a, st.omega_e, st.mdot_f, st.T_cat, st.T_exh

    ve = (
        ma * ma * (-0.1636 * (w * w) - 7.093 * w - 1750.0)
        + ma * (0.0029 * (w * w) - 0.4033 * w + 85.38)
        - (1.06e-6 * (w * w) - 0.0021 * w - 0.2719)
    )
    ao = 0.0254 * ve * ma * w
    av = ao / f
    af = math.cos(0.13 * (av - 13.5))
    ae = 2.0 * math.pi / w

    k1 = 0.1 if av >= 14.7 else 0.4
    d = av - 16.2
    bd = k1 * d * d + 80.0
    ratio = (110.0 - (u.delta + 10.0)) / bd
    hc = f * (9.0 - 1.0) / 9.0 * math.exp(-2.0 * ratio**5.0)

    afr_exp = min(-5.0 * (av / 8.4 - 0.7) ** 15, 700.0)
    temp_exp = min(-0.2 * ((tc - 30.0) / 150.0) ** 5, 700.0)
    eta = 0.98 * (1.0 - math.exp(afr_exp)) * (1.0 - math.exp(temp_exp))
    eta = min(max(eta, 0.0), 0.98)

    q_in = 16.0 * (te - tc)
    q_out = 0.642 * (tc - 25.0)
    q_gen = 22.53 * (ao + f * te) * eta * hc

    return (
        ma + T * (-ao + u.mdot_ai),
        w + T * (-(100.0 + 0.4 * w) / 0.1454 + (30000.0 / 0.1454) * ma),
        f + T * (-f / 0.06 + u.mdot_fc / 0.06),
        tc + T * ((q_gen + q_in - q_out) / 1250.0),
        te + T * ((600.0 * af - te) / ae + (7.5 * af / ae) * u.delta),
    )


def test_criterion_9_stepper_matches_transcription(report):
    T = 0.02
    conv = plant.PlantConventions(qin_direction="heats_catalyst")
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        st = plant.EngineState(
            m_a=rng.uniform(0.001, 0.008),
            omega_e=rng.uniform(80.0, 250.0),
            mdot_f=rng.uniform(2e-4, 2e-3),
            T_cat=rng.uniform(25.0, 600.0),
            T_exh=rng.uniform(25.0, 900.0),
        )
        u = plant.ControlInput(
            mdot_ai=rng.uniform(0.0, 0.05),
            mdot_fc=rng.uniform(0.0, 0.005),
            delta=rng.uniform(-10.0, 45.0),
        )
        got, _ = looplab.euler_step(st, u, plant.PlantModel(conventions=conv), T)
        want = _oracle_step(st, u, T)
        for a, b in zip((got.m_a, got.omega_e, got.mdot_f, got.T_cat, got.T_exh), want):
            denom = max(abs(a), abs(b))
            if denom > 0.0:
                worst = max(worst, abs(a - b) / denom)
    ok = worst <= 1e-15
    report(
        9,
        "stepper matches longhand transcription",
        ok,
        f"worst elementwise rel diff over 1000 states = {worst:.3e} (tol 1e-15)",
    )


# ---------------------------------------------------------------------------
# criterion 10: the 16-bit quantizer is idempotent, order-preserving and
# never moves an in-range value by more than half an LSB


def test_criterion_10_quantizer_properties(report):
    bits = 16
    worst_frac = 0.0
    ok = True
    for name, (lo, hi) in looplab.DEFAULT_SIGNAL_RANGES.items():
        lsb = (hi - lo) / (2**bits - 1)
        xs = np.linspace(lo, hi, 20001)
        q = np.array([looplab.quantize(x, bits, lo, hi) for x in xs])
        qq = np.array([looplab.quantize(v, bits, lo, hi) for v in q])
        ok = ok and bool(np.all(qq == q))           # idempotent
        ok = ok and bool(np.all(np.diff(q) >= 0.0))  # order-preserving
        err = float(np.max(np.abs(q - xs)))
        worst_frac = max(worst_frac, err / lsb)
        ok = ok and err <= 0.5 * lsb * (1.0 + 1e-9)
    report(
        10,
        "16-bit quantizer round-trip properties",
        ok,
        f"8 signal ranges x 20001 points: worst rounding = {worst_frac:.6f} LSB "
        "(<= 0.5), idempotent, order-preserving",
    )
