"""Batch command-line front end.

Five subcommands: ``simulate`` runs one closed-loop scenario and writes the
record, metrics, and optional plots; ``sweep`` runs a Cartesian grid of
config overrides; ``rga`` sweeps the relative gain array of a channel-model
file; ``identify`` fits first-order channel models from experiment data;
``metrics`` re-summarizes stored run records.

Exit codes: 0 success, 2 validation error, 3 runtime abort, 4 partial
results with warnings.  CSV outputs are authoritative; SVG plots are
cosmetic extras behind ``--plots``.  Verbosity comes from the environment
variable COLDSTART_LOG (quiet, info, or debug).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fanout, rga
from .errors import ColdstartError, ConfigError, SimulationAbort
from .looplab import (
    LOOPS,
    S_OF_LOOP,
    MetricsSummary,
    RunRecord,
    ScenarioConfig,
    apply_overrides,
    compute_metrics,
    run_scenario,
)
from .plant import POSITIVE
from .rga import TFMatrix, identify_mimo, rga_sweep
from .tables import csv_field, json_value, read_body, read_header
from .trajectory import TrajectoryTable

log = logging.getLogger("coldstart.cli")

# cells per sweep at most, checked before any is built: a cell of a two-axis
# grid peaks near 2.1 KB (tracemalloc over 8 000 cells on two CPUs), so the
# largest sweep peaks near 1.7 GB, the most any one command is sized to hold
MAX_CELLS = 800_000

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    name = os.environ.get("COLDSTART_LOG", "quiet")
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"COLDSTART_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
    )


def _read_text(path: str) -> str:
    # newline="" hands line endings to the CSV and JSON parsers as written,
    # so a CR inside a quoted CSV field is read back as a CR
    with open(path, encoding="utf-8", newline="") as f:
        try:
            return f.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text: {err}") from None


def _parse_file(path, parse):
    """``parse`` of the text of the file at ``path``; a ConfigError it
    raises is raised again with the path in front."""
    text = _read_text(path)
    try:
        return parse(text)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


def _config_document(path: str) -> dict:
    """The JSON object of a ``--config`` or ``--template`` file; it may be partial."""
    data = _parse_file(path, lambda text: json_value(text, "config"))
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return data


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that is, or lies below, an existing non-directory:
    checked before any work, though the directory is made only after it."""
    for part in (Path(path), *Path(path).parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"--out {path}: {part} is not a directory")
            return


def _write(out: str, artifacts: dict) -> Path:
    """Make the ``--out`` directory, parents too, and write each artifact in
    order: a file name maps to its text, or to a function that writes the
    text to the open file. Each is written to ``<name>.tmp`` beside it, then
    moved onto its name, so a failed write leaves the file it would replace
    whole and no tmp file: the OSError names the artifact it failed on."""
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        path = directory / name
        tmp = directory / f"{name}.tmp"
        try:
            with tmp.open("w", encoding="utf-8") as file:
                content(file) if callable(content) else file.write(content)
            os.replace(tmp, path)
        except OSError as err:
            raise OSError(err.errno, err.strerror, str(path)) from None
        finally:
            tmp.unlink(missing_ok=True)
    return directory


# ---------------------------------------------------------------------------
# hand-rolled SVG line charts (deterministic, no plotting dependency)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT, _TICKS = 760, 380, 6  # every chart's size in pixels, and ticks per axis


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def _line_chart(title, x_label, y_label, x, series) -> str:
    """Minimal multi-series line chart; ``series`` is [(label, y-array), ...]."""
    ml, mr, mt, mb = 64, 16, 30, 44
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb
    x = np.asarray(x, dtype=float)
    finite_y = np.concatenate(
        [np.asarray(y, dtype=float)[np.isfinite(np.asarray(y, dtype=float))] for _, y in series]
    )
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if finite_y.size:
        y_lo, y_hi = float(finite_y.min()), float(finite_y.max())
    else:
        y_lo, y_hi = 0.0, 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" y2="{mt + ph + 4}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{mt + ph + 16}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml - 4}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(ty):.2f}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="monospace" font-size="10">{ty:.4g}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" font-family="monospace" '
        f'font-size="11" transform="rotate(-90 14 {mt + ph / 2:.1f})">{y_label}</text>'
    )
    for s_idx, (label, ys) in enumerate(series):
        color = _PALETTE[s_idx % len(_PALETTE)]
        ys = np.asarray(ys, dtype=float)
        run: list[str] = []
        # a NaN past the last point ends the last run of finite points
        for xv, yv in itertools.chain(zip(x, ys), [(x_lo, math.nan)]):
            if math.isfinite(yv):
                run.append(f"{px(xv):.2f},{py(max(min(yv, y_hi), y_lo)):.2f}")
            elif run:
                parts.append(
                    f'<polyline points="{" ".join(run)}" fill="none" stroke="{color}" '
                    f'stroke-width="1.2"/>'
                )
                run = []
        parts.append(
            f'<text x="{ml + pw - 8}" y="{mt + 14 + 13 * s_idx}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _run_plots(record: RunRecord) -> dict:
    """The five SVG charts of a run, by file name."""
    t = record.series["time"]
    return {
        "tracking.svg": _line_chart(
            "sliding surfaces", "time [s]", "s_i",
            t, [(loop, record.series[col]) for loop, col in S_OF_LOOP.items()],
        ),
        "estimates.svg": _line_chart(
            "uncertainty estimates", "time [s]", "phi_hat",
            t, [(loop, record.series[f"phi_hat_{loop}"]) for loop in LOOPS],
        ),
        "hc_rates.svg": _line_chart(
            "hydrocarbon flow", "time [s]", "kg/s",
            t, [("engine-out", record.series["hc_eng"]), ("tailpipe", record.series["hc_tp"])],
        ),
        "hc_cumulative.svg": _line_chart(
            "cumulative tailpipe HC", "time [s]", "kg",
            t, [("cumulative", record.series["hc_cum"])],
        ),
        "eta_cat.svg": _line_chart(
            "catalyst efficiency", "time [s]", "eta",
            t, [("eta_cat", record.series["eta_cat"])],
        ),
    }


# ---------------------------------------------------------------------------
# subcommands


def _load_scenario(args) -> ScenarioConfig:
    data = _config_document(args.config) if args.config is not None else ScenarioConfig().to_dict()
    data = apply_overrides(data, list(args.override or ()))
    cfg = ScenarioConfig.from_dict(data)
    if args.trajectory is not None:  # sampled as it is built: a short table names its file
        cfg = _parse_file(
            args.trajectory, lambda text: replace(cfg, trajectory=TrajectoryTable.from_csv(text))
        )
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    cfg.check_metrics_window()
    log.info("running %.3g s scenario (T = %.3g s)", cfg.duration, cfg.T)
    # run.csv is formatted while the loop steps, by a helper forked before it
    with RunRecord.csv_stream() as stream:
        record = run_scenario(cfg, sink=stream.hand_over)
        metrics = compute_metrics(record).to_text()
        out = _write(args.out, {  # made only for a run that has its record and metrics
            "run.csv": lambda file: record.write_csv(file, stream),
            "metrics.txt": metrics,
            "config.json": cfg.to_json(),
            **(_run_plots(record) if args.plots else {}),
        })
    log.info("wrote %s", out / "run.csv")
    sys.stdout.write(metrics)
    return 0


def cmd_metrics(args) -> int:
    def load(path: str) -> RunRecord:
        sibling = Path(path).parent / "config.json"
        # checked as a config: the metrics read only valid fields
        config = _parse_file(sibling, ScenarioConfig.from_json) if sibling.exists() else None

        def read(text: str) -> RunRecord:
            record = RunRecord.from_csv(text, config)
            if not len(record):  # an error about this file, not about the pair
                raise ConfigError("run record has no rows to summarize")
            return record

        return _parse_file(path, read)

    record = load(args.run)
    baseline = load(args.baseline) if args.baseline is not None else None
    try:
        metrics = compute_metrics(record, baseline=baseline)
    except ConfigError as err:  # such as an overflow: name the run, or else the pair
        where = args.run
        if baseline is not None:
            try:
                compute_metrics(record)
            except ConfigError as own:
                err = own
            else:
                where = f"{args.run} with baseline {args.baseline}"
        raise ConfigError(f"{where}: {err}") from None
    sys.stdout.write(metrics.to_text())
    return 0


def _check_grid_flags(args) -> None:
    """ConfigError naming the flag unless ``0 < --wmin < --wmax``, both
    finite, and ``1 <= --points <= rga.MAX_POINTS``."""
    if not (math.isfinite(args.wmin) and args.wmin > 0.0):
        raise ConfigError(f"--wmin must be a finite positive number, got {args.wmin!r}")
    if not (math.isfinite(args.wmax) and args.wmax > args.wmin):
        raise ConfigError(f"--wmax must be finite and above --wmin, got {args.wmax!r}")
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points!r}")
    if args.points > rga.MAX_POINTS:
        raise ConfigError(f"--points must be at most {rga.MAX_POINTS}, got {args.points!r}")


def cmd_rga(args) -> int:
    _check_grid_flags(args)

    def parse_model(text: str) -> TFMatrix:
        is_json = text.lstrip().startswith(("{", "["))
        return (TFMatrix.from_json if is_json else TFMatrix.from_csv)(text)

    model = _parse_file(args.model, parse_model)
    try:
        result = rga_sweep(model, args.wmin, args.wmax, args.points)
    except OverflowError as err:
        raise ConfigError(f"--wmax {args.wmax!r} is too high: {err}") from None
    artifacts = {"rga.csv": result.write_csv}
    if args.plots:
        with np.errstate(invalid="ignore"):
            artifacts["rga.svg"] = _line_chart(
                "diagonal RGA magnitude", "log10 omega [rad/s]", "|lambda_ii| [dB]",
                np.log10(result.omegas),
                [
                    (f"{i + 1}-{i + 1}", result.mags_db[:, i, i])
                    for i in range(result.lambdas.shape[1])
                ],
            )
    _write(args.out, artifacts)
    for i, score in enumerate(result.dominance, start=1):
        sys.stdout.write(f"pairing {i}-{i}: dominance = {score:.4f}\n")
    n_gaps = int(result.gaps.sum())
    if n_gaps:
        log.warning(
            "%d of %d frequencies were too ill-conditioned and are gap rows",
            n_gaps, len(result.omegas),
        )
        return 4
    return 0


def _read_data_table(path: str) -> dict[str, np.ndarray]:
    """The named columns of an ``identify`` data CSV, read by the rule of
    every numeric CSV input (``tables``): each column named once, every row
    filling the header, every cell a finite number. It needs a data row."""
    text = _read_text(path)
    header = read_header(text, path)
    table, _ = read_body(text, path, header)
    if not len(table):
        raise ConfigError(f"{path}: data CSV has no data rows")
    return dict(zip(header, table.T))


def _pairing_spec(text: str) -> tuple[float, list[dict]]:
    spec = json_value(text, "pairing spec")
    if not isinstance(spec, dict) or set(spec) != {"T", "experiments"}:
        raise ConfigError("pairing spec needs exactly the keys T and experiments")
    T = POSITIVE.norm(spec["T"], "T")
    exps = spec["experiments"]
    if not isinstance(exps, list) or not exps:
        raise ConfigError("experiments must be a non-empty array")
    n = len(exps)
    for idx, exp in enumerate(exps, 1):
        if not isinstance(exp, dict) or set(exp) != {"input", "outputs"}:
            raise ConfigError(f"experiment {idx} needs exactly the keys input and outputs")
        if not isinstance(exp["input"], str):
            raise ConfigError(f"experiment {idx}: input must be a column name")
        outs = exp["outputs"]
        if not isinstance(outs, list) or len(outs) != n or not all(
            isinstance(o, str) for o in outs
        ):
            raise ConfigError(
                f"experiment {idx} must list {n} output column names (one per channel row)"
            )
    return T, exps


def cmd_identify(args) -> int:
    T, experiments = _parse_file(args.pairs, _pairing_spec)
    data = _read_data_table(args.data)
    n = len(experiments)
    for exp in experiments:
        for col in [exp["input"], *exp["outputs"]]:
            if col not in data:
                raise ConfigError(f"{args.data}: data CSV is missing column {col!r}")
    n_samples = len(next(iter(data.values())))
    u_series = np.empty((n, n_samples))
    y_series = np.empty((n, n, n_samples))
    for j, exp in enumerate(experiments):
        u_series[j] = data[exp["input"]]
        for i, col in enumerate(exp["outputs"]):
            y_series[i, j] = data[col]

    ident = identify_mimo(u_series, y_series, T)
    lines = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) in ident.fits:
                fit = ident.fits[(i, j)]
                line = (
                    f"pair ({i},{j}): tau = {fit.tf.tau!r}, k = {fit.tf.k!r}, "
                    f"residual_rms = {fit.residual_rms!r}"
                )
                if not fit.tau_identifiable:
                    line += "  [tau unidentifiable: settled DC record]"
                lines.append(line)
            else:
                lines.append(f"pair ({i},{j}): {ident.holes[(i, j)]}")
                if (i, j) in ident.failed:
                    log.warning("pair (%d,%d): %s", i, j, ident.holes[(i, j)])
    report = "\n".join(lines) + "\n"
    _write(args.out, {"model.json": ident.tfm.to_json() + "\n", "report.txt": report})
    sys.stdout.write(report)
    if ident.failed:
        log.warning("%d of %d channels could not be fitted", len(ident.failed), n * n)
        return 4
    return 0


def cmd_sweep(args) -> int:
    template = _config_document(args.template)
    grid = _parse_file(args.grid, lambda text: json_value(text, "grid"))
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError(f"{args.grid}: grid must map override paths to value arrays")
    n_cells = math.prod(map(len, grid.values()))
    if n_cells > MAX_CELLS:
        raise ConfigError(f"--grid {args.grid}: {n_cells} cells, more than {MAX_CELLS}")

    axes = sorted(grid)
    rows = [["cell", *axes, *MetricsSummary.csv_header(), "error"]]

    cells = list(itertools.product(*(grid[a] for a in axes))) if axes else []
    n_metrics = len(MetricsSummary.csv_header())

    def overrides(idx: int) -> list[str]:
        return [f"{a}={json.dumps(v)}" for a, v in zip(axes, cells[idx])]

    def run_cell(idx: int) -> tuple[list[str], str | None]:
        """The sweep.csv row of cell ``idx`` and, when the cell failed, its error."""
        values = [json.dumps(v) for v in cells[idx]]
        try:
            cfg = ScenarioConfig.from_dict(apply_overrides(template, overrides(idx)))
            cfg.check_metrics_window()
            metrics = compute_metrics(run_scenario(cfg))
        except (ConfigError, SimulationAbort) as err:
            return [str(idx), *values, *[""] * n_metrics, str(err)], str(err)
        return [str(idx), *values, *metrics.to_csv_row(), ""], None

    # rows, log lines and the first escaping exception are those of a serial
    # loop: the results come in cell order, wherever each cell ran, and a
    # cell is logged before its result is asked for
    n_failed = 0
    with fanout.Stream(run_cell, len(cells)) as stream:
        results = stream.results(run_cell)
        for idx in range(len(cells)):
            log.info("cell %d/%d: %s", idx + 1, len(cells), ", ".join(overrides(idx)) or "-")
            row, error = next(results)
            if error is not None:
                n_failed += 1
                log.warning("cell %d failed: %s", idx, error)
            rows.append(row)

    text = "".join(",".join(map(csv_field, row)) + "\n" for row in rows)
    out = _write(args.out, {"sweep.csv": text})
    log.info("wrote %s (%d cells, %d failed)", out / "sweep.csv", len(cells), n_failed)
    return 4 if n_failed else 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldstart",
        description="Cold-start control laboratory: scenario runs, coupling "
        "analysis, identification, and batch sweeps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="run one closed-loop scenario")
    sim.add_argument("--config", help="scenario JSON (defaults to the shipped scenario)")
    sim.add_argument("--trajectory", help="desired-trajectory CSV replacing the config's table")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--override", action="append", metavar="PATH=VALUE",
        help="dotted-path config override, repeatable",
    )
    sim.add_argument("--plots", action="store_true", help="also write SVG line charts")
    sim.set_defaults(func=cmd_simulate)

    rga_p = sub.add_parser("rga", help="relative-gain-array frequency sweep")
    rga_p.add_argument("--model", required=True, help="channel-model file (JSON or CSV)")
    w_min, w_max, n_points = rga.DEFAULT_GRID
    rga_p.add_argument("--wmin", type=float, default=w_min, help="sweep start [rad/s]")
    rga_p.add_argument("--wmax", type=float, default=w_max, help="sweep end [rad/s]")
    rga_p.add_argument("--points", type=int, default=n_points, help="number of frequencies")
    rga_p.add_argument("--out", required=True, help="output directory")
    rga_p.add_argument("--plots", action="store_true", help="also write an SVG chart")
    rga_p.set_defaults(func=cmd_rga)

    ident = sub.add_parser("identify", help="fit first-order channel models")
    ident.add_argument("--data", required=True, help="experiment data CSV")
    ident.add_argument("--pairs", required=True, help="pairing spec JSON")
    ident.add_argument("--out", required=True, help="output directory")
    ident.set_defaults(func=cmd_identify)

    met = sub.add_parser("metrics", help="summarize a stored run record")
    met.add_argument("--run", required=True, help="run.csv to summarize")
    met.add_argument("--baseline", help="non-adaptive run.csv for the paired ratios")
    met.set_defaults(func=cmd_metrics)

    swp = sub.add_parser("sweep", help="run a Cartesian grid of config overrides")
    swp.add_argument("--template", required=True, help="scenario JSON template")
    swp.add_argument("--grid", required=True, help="JSON object: override path -> value list")
    swp.add_argument("--out", required=True, help="output directory")
    swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        if "out" in args:
            _check_out(args.out)
        return args.func(args)
    except SimulationAbort as err:
        print(f"error: runtime abort: {err}", file=sys.stderr)
        return 3
    except (ColdstartError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
