"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed: the program under test is never
imported, so the files it reads are the same whatever the program does.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

LOOPS = ("fuel", "speed", "exh", "air")

# Sweep cells draw their model error from this lattice so that every cell a
# seed can produce has a recorded reference row (refs/sweep_cells.csv).
PHI_LATTICE = (0.5, 0.75, 1.0, 1.25, 1.5)
# Sweep cells run the shipped scenario's first 10 s (500 steps at T = 20 ms):
# a 16-cell sweep then takes under a second, so a run holds enough sweeps
# for a steady median.
SWEEP_DURATION = 10.0
STEPS_PER_CELL = 500
QUANT_BITS = (10, 16)
FEEDBACK_DELAYS = (0, 1, 2)

# Shipped adaptation gains at the time the benchmark was defined; the
# rho.speed edge probe overrides one of them, so the template spells all out.
RHO_SHIPPED = {"fuel": 1e-6, "speed": 8e3, "exh": 1.5e4, "air": 7e-7}

# Edge probes: single-cell sweeps on a sweep template (no delay) that drive the
# plant out of its domain.  The documented outcome is exit 4 with the cell's
# error in sweep.csv.  The last one is the only lattice combination the
# code cannot run (plant.catalyst_efficiency overflows), so it is a probe and
# never a grid cell: a grid cell that kills its whole sweep would hide every
# other cell's result.
EDGE_PROBES = (
    {"feedback_delay_steps": [3]},
    {"rho.speed": [1.0]},
    {"phi_true.speed": [1.5], "feedback_delay_steps": [2]},
)

RGA_POINTS = 2000
IDENT_T = 0.02
IDENT_SAMPLES = 4000
IDENT_HOLD = 5  # PRBS samples per level
IDENT_SNR_DIVISOR = 1000.0  # noise std = signal std / 1000, i.e. 60 dB


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# sweep


def sweep_template(bits: int, delay: int) -> dict:
    """Scenario template: shipped defaults except horizon, word length and delay."""
    return {
        "duration": SWEEP_DURATION,
        "quant_bits": bits,
        "feedback_delay_steps": delay,
        "quantization_enabled": True,
        "adaptation_enabled": True,
        "substeps": 1,
        "phi_true": {loop: 1.0 for loop in LOOPS},
        "rho": dict(RHO_SHIPPED),
    }


def phi_choices(loop: str, delay: int) -> tuple[float, ...]:
    """Lattice values a grid may use on ``loop``; see the last edge probe."""
    return tuple(v for v in PHI_LATTICE if not (loop == "speed" and delay == 2 and v == 1.5))


CELLS_PER_SWEEP = 16


def sweep_spec(rng: np.random.Generator, index: int) -> dict:
    """One 16-cell Cartesian sweep: 2 phi x adaptation x quantization x substeps.

    The loop and the feedback delay follow the spec's index, because they
    change the cost of a cell (a delayed loop takes about a quarter longer);
    the seed picks the model-error values and the word length.  So every
    seed runs the same mix of work, with other values.
    """
    loop = LOOPS[index % len(LOOPS)]
    delay = FEEDBACK_DELAYS[index % len(FEEDBACK_DELAYS)]
    bits = int(rng.choice(QUANT_BITS))
    pair = sorted(float(v) for v in rng.choice(phi_choices(loop, delay), size=2, replace=False))
    return {"template": sweep_template(bits, delay), "grid": sweep_grid(loop, pair)}


def sweep_grid(loop: str, phis) -> dict:
    """Grid axes of a sweep: model error on ``loop`` x adaptation x quantization x substeps."""
    return {
        f"phi_true.{loop}": list(phis),
        "adaptation_enabled": [True, False],
        "quantization_enabled": [True, False],
        "substeps": [1, 2],
    }


def cell_key(template: dict, cell: dict) -> str:
    """Canonical identity of one sweep cell, shared with the reference file.

    ``cell`` maps override paths to values and wins over ``template``.
    """
    phi = dict(template["phi_true"])
    for path, value in cell.items():
        if path.startswith("phi_true."):
            phi[path.split(".", 1)[1]] = float(value)
    quant = cell.get("quantization_enabled", template["quantization_enabled"])
    off_nominal = [f"{loop}={phi[loop]!r}" for loop in LOOPS if phi[loop] != 1.0]
    return "|".join(
        [
            "phi:" + (",".join(off_nominal) or "nominal"),
            f"adapt:{int(cell.get('adaptation_enabled', template['adaptation_enabled']))}",
            f"bits:{template['quant_bits'] if quant else 0}",
            f"substeps:{cell.get('substeps', template['substeps'])}",
            f"delay:{cell.get('feedback_delay_steps', template['feedback_delay_steps'])}",
        ]
    )


def write_sweep_fixtures(root: Path, seed: int, pool: int) -> list[dict]:
    """Write ``pool`` sweep specs plus the edge probes; returns their file paths."""
    rng = np.random.default_rng([seed, 1])
    specs = []
    for idx in range(pool):
        spec = sweep_spec(rng, idx)
        template, grid = root / f"template_{idx}.json", root / f"grid_{idx}.json"
        _write_json(template, spec["template"])
        _write_json(grid, spec["grid"])
        specs.append({"template_path": str(template), "grid_path": str(grid), **spec})
    probes = []
    for idx, probe_grid in enumerate(EDGE_PROBES):
        template, grid = root / f"probe_template_{idx}.json", root / f"probe_grid_{idx}.json"
        _write_json(template, sweep_template(int(rng.choice(QUANT_BITS)), 0))
        _write_json(grid, probe_grid)
        probes.append({"template_path": str(template), "grid_path": str(grid)})
    return specs + probes


# ---------------------------------------------------------------------------
# analysis


def channel_matrix(rng: np.random.Generator, n: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Gains K and time constants Tc of n x n first-order channels K/(Tc s + 1)."""
    diag = np.eye(n, dtype=bool)
    gain = np.where(diag, rng.uniform(0.5, 2.0, (n, n)), rng.uniform(0.1, 0.5, (n, n)))
    time_constant = rng.uniform(0.1, 1.0, (n, n))
    return gain, time_constant


def tau_k(gain: np.ndarray, time_constant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The program's 1/(tau s + k) parameters of K/(Tc s + 1)."""
    return time_constant / gain, 1.0 / gain


def write_rga_model(path: Path, rng: np.random.Generator) -> dict:
    tau, k = tau_k(*channel_matrix(rng))
    n = tau.shape[0]
    entries = [
        [{"tau": float(tau[i, j]), "k": float(k[i, j])} for j in range(n)] for i in range(n)
    ]
    _write_json(path, {"n": n, "entries": entries})
    return {"tau": tau, "k": k}


def first_order_response(gain: float, time_constant: float, u: np.ndarray, T: float):
    """Exact sampled response of K/(Tc s + 1) to a zero-order-held input, y[0] = 0."""
    a = math.exp(-T / time_constant)
    b = gain * (1.0 - a)
    y = np.empty(len(u))
    cur = 0.0
    for idx, uk in enumerate(u.tolist()):
        y[idx] = cur
        cur = a * cur + b * uk
    return y


def write_identify_fixture(data_path: Path, pairs_path: Path, rng: np.random.Generator) -> dict:
    """4 single-input PRBS experiments on a seeded 4x4 system at 60 dB SNR."""
    gain, time_constant = channel_matrix(rng)
    n = gain.shape[0]
    levels = rng.choice([-1.0, 1.0], size=(n, -(-IDENT_SAMPLES // IDENT_HOLD)))
    u = np.repeat(levels, IDENT_HOLD, axis=1)[:, :IDENT_SAMPLES]
    columns = {f"u{j + 1}": u[j] for j in range(n)}
    for j in range(n):
        for i in range(n):
            y = first_order_response(gain[i, j], time_constant[i, j], u[j], IDENT_T)
            noise = rng.standard_normal(IDENT_SAMPLES) * (np.std(y) / IDENT_SNR_DIVISOR)
            columns[f"y{i + 1}_{j + 1}"] = y + noise
    names = list(columns)
    with data_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in zip(*(columns[name].tolist() for name in names)):
            writer.writerow([repr(v) for v in row])
    experiments = [
        {"input": f"u{j + 1}", "outputs": [f"y{i + 1}_{j + 1}" for i in range(n)]}
        for j in range(n)
    ]
    _write_json(pairs_path, {"T": IDENT_T, "experiments": experiments})
    tau, k = tau_k(gain, time_constant)
    return {"tau": tau, "k": k}


def write_analysis_fixtures(root: Path, seed: int) -> dict:
    """RGA model, identification data and the replay pair's model error.

    The replay pair itself is simulated by the program under test; the seed
    fixes its ``phi_true`` overrides.
    """
    rng = np.random.default_rng([seed, 2])
    return {
        "model": write_rga_model(root / "model.json", rng),
        "truth": write_identify_fixture(root / "experiments.csv", root / "pairs.json", rng),
        "phi": {loop: float(rng.uniform(0.5, 1.5)) for loop in LOOPS},
    }
