"""Reference checks for every benchmark op.

Each check returns an error string, or None when the op's outputs are right.
References come from three places:

- ``refs/references.json``: sha256 of the shipped-scenario ``simulate``
  artifacts, recorded when the benchmark was defined (byte-identical output
  is the gate);
- ``refs/sweep_cells.csv``: the recorded metric row of every sweep cell
  a seed can produce (see ``inputs.PHI_LATTICE``);
- oracles computed here with numpy from the generated inputs: the RGA of the
  channel matrix, the identification truth, and the paired metric ratios.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from inputs import cell_key

REFS = Path(__file__).resolve().parent / "refs"

# Sweep statistics that a batched engine may reproduce only to the last bits.
# Anything else in a sweep row (times on the sample grid, flags, blanks) is
# compared as text.  |got - ref| <= SWEEP_RTOL * max(|ref|, |companion ref|):
# the companion gives signed means a scale when they nearly cancel.
SWEEP_RTOL = 1e-9
_COMPANION = {f"mean_err_{loop}": f"mean_abs_s_{loop}" for loop in ("fuel", "speed", "exh", "air")}
_COMPANION["afr_err_mean"] = "afr_err_std"
CONTINUOUS = {
    *(f"{stat}_{loop}" for stat in ("mean_err", "std_err", "mean_abs_s")
      for loop in ("fuel", "speed", "exh", "air")),
    "afr_err_mean", "afr_err_std", "cumulative_hc_kg", "final_eta_cat",
}

RGA_TOL = 1e-9       # elementwise lambda vs oracle, and row/column sums vs 1
IDENT_RTOL = 2e-2    # fitted tau and k vs the generating truth at 60 dB SNR
RATIO_RTOL = 1e-9    # paired-metric ratios vs the numpy recomputation


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_references() -> dict:
    refs = json.loads((REFS / "references.json").read_text(encoding="utf-8"))
    with (REFS / "sweep_cells.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        refs["sweep_metric_header"] = header[1:]
        refs["sweep_cells"] = {row[0]: dict(zip(header[1:], row[1:])) for row in reader}
    return refs


# ---------------------------------------------------------------------------
# closed loop


def check_simulate(out: Path, code: int, stdout: str, refs: dict) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    for name in ("run.csv", "metrics.txt"):
        path = out / name
        if not path.exists():
            return f"{name} was not written"
        if sha256(path) != refs["cold_start"][name]:
            return f"{name} differs from the recorded reference"
    if stdout != (out / "metrics.txt").read_text(encoding="utf-8"):
        return "stdout differs from metrics.txt"
    return None


def _cell_matches(name: str, got: str, ref: dict) -> bool:
    want = ref[name]
    if name not in CONTINUOUS or want == "" or got == "":
        return got == want
    g, w = float(got), float(want)
    scale = max(abs(w), abs(float(ref[_COMPANION.get(name, name)])))
    return math.isfinite(g) and abs(g - w) <= SWEEP_RTOL * scale


def check_sweep(out: Path, code: int, spec: dict, refs: dict) -> str | None:
    """Every cell row against its stored reference; completed cells only."""
    if code != 0:
        return f"exit {code}, expected 0"
    path = out / "sweep.csv"
    if not path.exists():
        return "sweep.csv was not written"
    grid, template = spec["grid"], spec["template"]
    axes = sorted(grid)
    metric_header = refs["sweep_metric_header"]
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    if rows[0] != ["cell", *axes, *metric_header, "error"]:
        return "sweep.csv header differs"
    combos = list(itertools.product(*(grid[a] for a in axes)))
    if len(rows) - 1 != len(combos):
        return f"sweep.csv has {len(rows) - 1} cells, expected {len(combos)}"
    for idx, (row, combo) in enumerate(zip(rows[1:], combos)):
        if row[: 1 + len(axes)] != [str(idx), *(json.dumps(v) for v in combo)]:
            return f"cell {idx}: index or axis values differ"
        if row[-1] != "":
            return f"cell {idx}: failed: {row[-1]}"
        ref = refs["sweep_cells"][cell_key(template, dict(zip(axes, combo)))]
        for name, got in zip(metric_header, row[1 + len(axes):-1]):
            if not _cell_matches(name, got, ref):
                return f"cell {idx}: {name} = {got!r}, reference {ref[name]!r}"
    return None


def check_probe(out: Path, code: int) -> str | None:
    """Documented contract for a failing cell: exit 4 and the error in sweep.csv."""
    if code != 4:
        return f"exit {code}, expected 4"
    path = out / "sweep.csv"
    if not path.exists():
        return "sweep.csv was not written"
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    if len(rows) != 2 or rows[1][-1] == "":
        return "sweep.csv does not carry the cell's error"
    return None


# ---------------------------------------------------------------------------
# structure


def rga_oracle(tau: np.ndarray, k: np.ndarray, omegas: np.ndarray) -> dict:
    """RGA of 1/(tau s + k) on ``omegas`` and the +-3 dB diagonal dominance."""
    p = 1.0 / (1j * omegas[:, None, None] * tau[None] + k[None])
    lam = p * np.swapaxes(np.linalg.inv(p), -1, -2)
    n = tau.shape[0]
    diag_db = 20.0 * np.log10(np.abs(lam[:, range(n), range(n)]))
    dominance = np.mean(np.abs(diag_db) <= 3.0, axis=0)
    lines = "".join(
        f"pairing {i + 1}-{i + 1}: dominance = {score:.4f}\n" for i, score in enumerate(dominance)
    )
    return {"omegas": omegas, "lambdas": lam, "stdout": lines}


def check_rga(out: Path, code: int, stdout: str, oracle: dict) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    if stdout != oracle["stdout"]:
        return "dominance scores differ from the oracle"
    path = out / "rga.csv"
    if not path.exists():
        return "rga.csv was not written"
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))[1:]
    lam_ref = oracle["lambdas"]
    n = lam_ref.shape[1]
    if len(rows) != len(lam_ref) or any(r[1] != "0" for r in rows):
        return "rga.csv has the wrong rows or gap rows"
    values = np.asarray([[float(c) for c in r] for r in rows])
    if not np.allclose(values[:, 0], oracle["omegas"], rtol=1e-12, atol=0.0):
        return "rga.csv frequency grid differs"
    pairs = values[:, 2 : 2 + 2 * n * n]
    lam = (pairs[:, 0::2] + 1j * pairs[:, 1::2]).reshape(-1, n, n)
    if np.max(np.abs(lam - lam_ref) / np.maximum(1.0, np.abs(lam_ref))) > RGA_TOL:
        return "RGA elements differ from the oracle"
    if np.max(np.abs(lam.sum(axis=2) - 1.0)) > RGA_TOL or np.max(np.abs(lam.sum(axis=1) - 1.0)) > RGA_TOL:
        return "RGA rows or columns do not sum to 1"
    db = values[:, 2 + 2 * n * n:].reshape(-1, n, n)
    if np.max(np.abs(db - 20.0 * np.log10(np.abs(lam)))) > RGA_TOL:
        return "RGA magnitudes in dB disagree with the elements"
    return None


def check_identify(code: int, stdout: str, truth: dict) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    lines = stdout.splitlines()
    n = truth["tau"].shape[0]
    if len(lines) != n * n:
        return f"report has {len(lines)} lines, expected {n * n}"
    for line in lines:
        head, _, body = line.partition(": ")
        i, j = (int(v) for v in head[len("pair ("):-1].split(","))
        try:
            fields = dict(part.split(" = ") for part in body.split(", "))
            tau, k = float(fields["tau"]), float(fields["k"])
        except (KeyError, ValueError):
            return f"pair ({i},{j}) was not fitted: {body}"
        for name, got, want in (("tau", tau, truth["tau"][i - 1, j - 1]), ("k", k, truth["k"][i - 1, j - 1])):
            if not abs(got / want - 1.0) <= IDENT_RTOL:
                return f"pair ({i},{j}): {name} = {got!r}, truth {want!r}"
    return None


def _record_columns(path: Path, names: list[str]) -> dict[str, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = [[float(row[name]) for name in names] for row in reader]
    return dict(zip(names, np.asarray(rows).T))


def replay_oracle(adaptive: Path, frozen: Path) -> dict:
    """Expected ``metrics --baseline`` text, from the stored runs, recomputed."""
    loops = ("fuel", "speed", "exh", "air")
    s_col = {"fuel": "s1", "speed": "s2", "exh": "s3", "air": "s4"}
    names = ["time", *s_col.values(), *(f"phi_hat_{l}" for l in loops), *(f"f_{l}" for l in loops)]
    runs, configs = [], []
    for run_dir in (adaptive, frozen):
        runs.append(_record_columns(run_dir / "run.csv", names))
        configs.append(json.loads((run_dir / "config.json").read_text(encoding="utf-8")))
    phis = [config["phi_true"] for config in configs]
    window_start = float(configs[0]["metrics_window_start"])
    mask = runs[0]["time"] >= window_start - 1e-12

    def resid(run, phi, loop):
        return np.mean(np.abs((run[f"phi_hat_{loop}"] - phi[loop]) * run[f"f_{loop}"])[mask])

    ratios = {}
    for loop in loops:
        ratios[f"removal_ratio_{loop}"] = 1.0 - resid(runs[0], phis[0], loop) / resid(runs[1], phis[1], loop)
    ratios["removal_ratio_overall"] = min(ratios.values())
    for loop in ("fuel", "speed", "exh"):
        col = s_col[loop]
        ratios[f"tracking_ratio_{loop}"] = float(
            np.mean(np.abs(runs[0][col][mask])) / np.mean(np.abs(runs[1][col][mask]))
        )
    unpaired = dict(
        line.split(" = ", 1)
        for line in (adaptive / "metrics.txt").read_text(encoding="utf-8").splitlines()
    )
    return {"ratios": ratios, "unpaired": unpaired}


def check_replay(code: int, stdout: str, oracle: dict) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    got = dict(line.split(" = ", 1) for line in stdout.splitlines())
    if set(got) != set(oracle["unpaired"]):
        return "metrics report has different fields"
    for name, want in oracle["unpaired"].items():
        if name in oracle["ratios"]:
            try:
                value = float(got[name])
            except ValueError:
                return f"{name} = {got[name]}, recomputed {oracle['ratios'][name]!r}"
            if not abs(value - oracle["ratios"][name]) <= RATIO_RTOL * abs(oracle["ratios"][name]):
                return f"{name} = {got[name]}, recomputed {oracle['ratios'][name]!r}"
        elif got[name] != want:
            return f"{name} = {got[name]}, simulate wrote {want}"
    return None
