"""Record the benchmark's references from the program in ``src/``.

    python3 bench/make_refs.py

Writes ``refs/references.json`` (sha256 of the shipped-scenario ``simulate``
artifacts) and ``refs/sweep_cells.csv`` (the metric row of every sweep cell a
seed can produce: each lattice model error on each loop, adaptation on/off,
quantization off/10/16 bit, 1-2 substeps, feedback delay 0-2).  The stored
references were recorded from the code the benchmark was defined on; run
this again only when a change is meant to alter simulated results, and say
so in the change.  Takes a few minutes on one core.
"""

import os
import sys

import run  # first: pins BLAS threads and logging before numpy loads

import csv  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


def main() -> int:
    _, cli = run.import_program()
    work = run.WORK / f"make_refs-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        code, _, stderr, _ = run.call_cli(cli, ["simulate", "--out", str(work / "sim")])
        if code != 0:
            raise SystemExit(f"simulate failed: {stderr}")
        refs = {
            "cold_start": {
                name: checks.sha256(work / "sim" / name) for name in ("run.csv", "metrics.txt")
            }
        }
        rows, header = {}, None
        for bits, delay, loop in itertools.product(
            inputs.QUANT_BITS, inputs.FEEDBACK_DELAYS, inputs.LOOPS
        ):
            template = inputs.sweep_template(bits, delay)
            grid = inputs.sweep_grid(loop, inputs.phi_choices(loop, delay))
            (work / "template.json").write_text(json.dumps(template), encoding="utf-8")
            (work / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
            argv = ["sweep", "--template", str(work / "template.json"),
                    "--grid", str(work / "grid.json"), "--out", str(work / "sweep")]
            code, _, stderr, _ = run.call_cli(cli, argv)
            if code != 0:
                raise SystemExit(f"reference sweep {bits} bit, delay {delay}, {loop} failed: {stderr}")
            table = list(csv.reader(io.StringIO((work / "sweep" / "sweep.csv").read_text(encoding="utf-8"))))
            axes = sorted(grid)
            header = table[0][1 + len(axes):-1]
            for row in table[1:]:
                cell = {a: json.loads(v) for a, v in zip(axes, row[1:1 + len(axes)])}
                key = inputs.cell_key(template, cell)
                metrics = row[1 + len(axes):-1]
                if rows.setdefault(key, metrics) != metrics:
                    raise SystemExit(f"cell {key} is not deterministic across sweeps")
            print(f"{bits} bit, delay {delay}, {loop}: {len(rows)} distinct cells so far", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (checks.REFS / "references.json").write_text(
        json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with (checks.REFS / "sweep_cells.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["key", *header])
        for key in sorted(rows):
            writer.writerow([key, *rows[key]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
