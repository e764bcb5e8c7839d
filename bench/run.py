"""coldstart benchmark: three workloads through ``coldstart.cli.main``.

    python3 bench/run.py --workload {cold_start,sweep,analysis} --seed N \
        --seconds S --trace {0,1}

One process, one caller, closed loop: each op starts when the previous one
returns.  Ops run in-process, so the numpy import is paid once and measured
as ``setup_s`` rather than swamping every op.  Every op's outputs are checked
(see ``checks.py``).  Set-up, warm-up ops and output checks are outside the
timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs half
the time untraced, then half with per-layer spans (``tracer.py``), and prints
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the lines before it are a readable report.
"""

import os
import sys

# BLAS/OpenMP on one thread and the README's quiet logging, set before numpy
# loads; the helper scripts import this module first for the same reason
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "COLDSTART_LOG": "quiet",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
SWEEP_POOL = 12        # distinct sweep specs per run, cycled: every loop x delay
SWEEP_RUN = 4          # schedule: every edge probe once, then 4 sweeps, repeated

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import coldstart\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass
class Op:
    kind: str  # CLI subcommand, or "probe" for an edge probe
    argv: list[str]
    out: Path
    check: Callable[[int, str], str | None]


@dataclass
class OpResult:
    kind: str
    seconds: float
    error: str | None
    spans: dict | None = None
    loop_s: float = 0.0  # calibration loop time around the op (speed.py)
    adjusted: float = 0.0  # seconds at reference host speed


# ---------------------------------------------------------------------------
# workloads


class ColdStart:
    """Repeated ``simulate`` of the shipped 40 s scenario; writes the record."""

    name = "cold_start"
    warmup = 1
    period = 1

    def setup(self, root: Path, seed: int, refs: dict, cli) -> None:
        self.out = root / "simulate"
        self.refs = refs

    def op(self, i: int) -> Op:
        return Op(
            "simulate",
            ["simulate", "--out", str(self.out)],
            self.out,
            lambda code, stdout: checks.check_simulate(self.out, code, stdout, self.refs),
        )


class Sweep:
    """Repeated seeded 16-cell ``sweep`` calls plus a fixed share of edge probes."""

    name = "sweep"
    warmup = len(inputs.EDGE_PROBES)
    period = 1

    def setup(self, root: Path, seed: int, refs: dict, cli) -> None:
        specs = inputs.write_sweep_fixtures(root, seed, SWEEP_POOL)
        self.specs, self.probes = specs[:SWEEP_POOL], specs[SWEEP_POOL:]
        self.out = root / "sweep_out"
        self.refs = refs

    def op(self, i: int) -> Op:
        n_probes = len(self.probes)
        group, slot = divmod(i, n_probes + SWEEP_RUN)
        if slot < n_probes:
            probe = self.probes[slot]
            argv = ["sweep", "--template", probe["template_path"], "--grid", probe["grid_path"],
                    "--out", str(self.out)]
            return Op("probe", argv, self.out, lambda code, _: checks.check_probe(self.out, code))
        spec = self.specs[(group * SWEEP_RUN + slot - n_probes) % len(self.specs)]
        argv = ["sweep", "--template", spec["template_path"], "--grid", spec["grid_path"],
                "--out", str(self.out)]
        return Op(
            "sweep",
            argv,
            self.out,
            lambda code, _: checks.check_sweep(self.out, code, spec, self.refs),
        )


class Analysis:
    """Rotating ``rga`` / ``identify`` / ``metrics --baseline`` ops; no stepping."""

    name = "analysis"
    warmup = 3
    period = 3  # one round: each kind once

    def setup(self, root: Path, seed: int, refs: dict, cli) -> None:
        fixtures = inputs.write_analysis_fixtures(root, seed)
        model = fixtures["model"]
        omegas = np.logspace(-2.0, 2.0, inputs.RGA_POINTS)
        self.rga_oracle = checks.rga_oracle(model["tau"], model["k"], omegas)
        self.ident_truth = fixtures["truth"]
        phi_overrides = [
            f"--override=phi_true.{loop}={value!r}" for loop, value in fixtures["phi"].items()
        ]
        self.runs = {}
        for label, adapt in (("adaptive", "true"), ("frozen", "false")):
            run_dir = root / label
            argv = ["simulate", "--out", str(run_dir), *phi_overrides,
                    f"--override=adaptation_enabled={adapt}"]
            code, _, stderr, _ = call_cli(cli, argv)
            if code != 0:
                raise RuntimeError(f"set-up simulate of the {label} run failed: {stderr}")
            self.runs[label] = run_dir
        self.replay_oracle = checks.replay_oracle(self.runs["adaptive"], self.runs["frozen"])
        self.root = root

    def op(self, i: int) -> Op:
        kind = ("rga", "identify", "metrics")[i % 3]
        out = self.root / f"{kind}_out"
        if kind == "rga":
            argv = ["rga", "--model", str(self.root / "model.json"), "--points",
                    str(inputs.RGA_POINTS), "--out", str(out)]
            check = lambda code, stdout: checks.check_rga(out, code, stdout, self.rga_oracle)  # noqa: E731
        elif kind == "identify":
            argv = ["identify", "--data", str(self.root / "experiments.csv"), "--pairs",
                    str(self.root / "pairs.json"), "--out", str(out)]
            check = lambda code, stdout: checks.check_identify(code, stdout, self.ident_truth)  # noqa: E731
        else:
            argv = ["metrics", "--run", str(self.runs["adaptive"] / "run.csv"),
                    "--baseline", str(self.runs["frozen"] / "run.csv")]
            check = lambda code, stdout: checks.check_replay(code, stdout, self.replay_oracle)  # noqa: E731
        return Op(kind, argv, out, check)


WORKLOADS = {w.name: w for w in (ColdStart, Sweep, Analysis)}


# ---------------------------------------------------------------------------
# running ops


def call_cli(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """One in-process CLI call: exit code, stdout, stderr, wall seconds.

    An exception escaping ``main`` is what a shell user sees as a traceback
    and exit status 1, so it is reported as exit 1.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the op failed; the benchmark goes on
            code = 1
            stderr.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, stdout.getvalue(), stderr.getvalue(), elapsed


def run_op(cli, op: Op, trace: "tracer.Tracer | None") -> OpResult:
    if op.out.exists():
        shutil.rmtree(op.out)  # a stale output must not pass for a new one
    if trace is not None:
        trace.take()
    code, stdout, stderr, elapsed = call_cli(cli, op.argv)
    spans = trace.take() if trace is not None else None
    try:
        error = op.check(code, stdout)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the op, not the run
        error = f"output check raised {exc!r}"
    if error is not None and stderr:
        error += " | " + stderr.strip().splitlines()[-1]
    return OpResult(op.kind, elapsed, error, spans)


def run_phase(cli, workload, first: int, seconds: float, trace=None, between=None, times=0):
    """Ops from index ``first`` until ``seconds`` pass and a period is complete.

    The calibration loop runs before every op and after the last, and each
    result gets its time at reference speed.  ``between`` runs ``times``
    times, spread evenly over the phase at op boundaries; it is not part of
    any op's time.
    """
    results = []
    calib = []
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + seconds * (k + 1) / (times + 1) for k in range(times)]
    i = first
    while True:
        calib.append(speed.measure())
        results.append(run_op(cli, workload.op(i), trace))
        i += 1
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            between()
        if time.perf_counter() >= deadline and i % workload.period == 0:
            calib.append(speed.measure())
            for k, r in enumerate(results):
                r.loop_s = 0.5 * (calib[k] + calib[k + 1])
                r.adjusted = speed.at_reference(r.seconds, r.loop_s)
            return results, i


def measure_import() -> float:
    """Seconds for ``import coldstart`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# reduction


def op_latencies_ms(workload, results: list[OpResult]) -> list[float]:
    """Latency of the workload's unit of work; for ``analysis`` one full round."""
    timed = [r for r in results if r.kind != "probe"]
    if workload.period == 1:
        return [1e3 * r.seconds for r in timed]
    return [
        1e3 * sum(r.seconds for r in timed[i:i + workload.period])
        for i in range(0, len(timed) - workload.period + 1, workload.period)
    ]


def p50_p90(values: list[float]) -> tuple[float, float]:
    return float(np.percentile(values, 50)), float(np.percentile(values, 90))


def environment(seed: int, workload: str, seconds: int, trace: int) -> dict:
    cpu = os.uname().machine
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pinned_env": PINNED_ENV,
    }


def report_failures(results: list[OpResult], label: str) -> None:
    for r in results:
        if r.error is not None:
            print(f"first {label} failure ({r.kind}): {r.error}")
            return


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    if not (SRC / "coldstart" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import coldstart
    from coldstart import cli

    if Path(coldstart.__file__).resolve().parent != SRC / "coldstart":
        raise SystemExit(f"error: imported coldstart from {coldstart.__file__}, not {SRC}")
    return coldstart, cli


def main(argv=None) -> int:
    args = parse_args(argv)
    coldstart, cli = import_program()
    refs = checks.load_references()
    workload = WORKLOADS[args.workload]()
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        return run(args, workload, coldstart, cli, refs, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def run(args, workload, coldstart, cli, refs, run_dir: Path) -> int:
    print("env = " + json.dumps(environment(args.seed, args.workload, args.seconds, args.trace)))

    # set-ups are spread over the timed phase so that their median sees the
    # same host-speed drift as the ops do
    setups = []

    def set_up():
        import_s = measure_import()
        start = time.perf_counter()
        workload.setup(run_dir, args.seed, refs, cli)
        setups.append(import_s + time.perf_counter() - start)

    for _ in range(3):
        speed.measure()  # warm the calibration loop
    set_up()
    warm = [run_op(cli, workload.op(i), None) for i in range(workload.warmup)]
    seconds = args.seconds / 2 if args.trace else args.seconds
    repeats = 0 if args.trace else SETUP_REPEATS - 1
    timed, next_op = run_phase(cli, workload, workload.warmup, seconds, between=set_up, times=repeats)
    traced: list[OpResult] = []
    if args.trace:
        spans = tracer.Tracer(coldstart)
        spans.install()
        try:
            traced, _ = run_phase(cli, workload, next_op, seconds, spans)
        finally:
            spans.uninstall()
        print("patched aliases: " + ", ".join(spans.aliases))

    everything = warm + timed + traced
    checked = [r for r in everything if r.kind != "probe"]
    failed = sum(r.error is not None for r in checked)
    probes = [r for r in everything if r.kind == "probe"]
    probe_failed = sum(r.error is not None for r in probes)
    print(f"ops = {len(checked)} checked, failed = {failed}, "
          f"failed_ratio = {failed / len(checked):.4f}")
    if probes:
        print(f"edge_probes = {len(probes)}, contract failures = {probe_failed}, "
              f"failed_ratio_with_probes = {(failed + probe_failed) / len(everything):.4f}")
    report_failures(checked, "op")
    report_failures(probes, "edge probe")

    if args.trace:
        metrics = trace_metrics(workload, timed, traced)
    else:
        metrics = end_to_end_metrics(workload, timed, setups)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# report name of each op kind's latency
KIND_LATENCY = {"simulate": "simulate_ms", "sweep": "sweep_ms", "rga": "rga_ms",
                "identify": "identify_ms", "metrics": "replay_ms"}


def end_to_end_metrics(workload, timed: list[OpResult], setups: list[float]) -> dict:
    loop_s = statistics.median(r.loop_s for r in timed)
    print(f"setup_s wall = {', '.join(f'{s:.4f}' for s in setups)} s; "
          f"calibration loop median = {1e3 * loop_s:.4g} ms "
          f"(reference {1e3 * speed.REFERENCE_S:.4g} ms)")
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for r in timed:
        by_kind.setdefault(r.kind, []).append((1e3 * r.seconds, 1e3 * r.adjusted))
    # the gated latency: each kind's median at reference speed, summed over
    # the kinds in a unit of work, so an analysis round rests on every op
    # rather than on rounds
    unit_p50 = 0.0
    for kind, values in by_kind.items():
        if kind in KIND_LATENCY:
            p50, p90 = p50_p90([wall for wall, _ in values])
            adj_p50 = statistics.median(adj for _, adj in values)
            unit_p50 += adj_p50
            print(f"{KIND_LATENCY[kind]}.p50 = {p50:.6g} ms, .p90 = {p90:.6g} ms, "
                  f"p50 at reference speed = {adj_p50:.6g} ms (n = {len(values)})")
    if workload.name == "sweep":
        done = [r for r in timed if r.kind == "sweep" and r.error is None]
        steps = inputs.STEPS_PER_CELL * inputs.CELLS_PER_SWEEP * len(done)
        seconds = sum(r.seconds for r in done)
        print(f"sim_steps_per_s = {steps / seconds if seconds else 0.0:.6g} steps/s")
    latencies = op_latencies_ms(workload, timed)
    p50, p90 = p50_p90(latencies)
    print(f"unit of work, wall: p50 = {p50:.6g} ms, p90 = {p90:.6g} ms, "
          f"best = {min(latencies):.6g} ms (n = {len(latencies)})")
    return {
        "op_ms_adj.p50": (unit_p50, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "setup_s": (speed.at_reference(statistics.median(setups), loop_s), "s"),
    }


def trace_metrics(workload, untraced: list[OpResult], traced: list[OpResult]) -> dict:
    def kind_medians(results):
        by_kind: dict[str, list[float]] = {}
        for r in results:
            if r.kind != "probe":
                by_kind.setdefault(r.kind, []).append(r.adjusted)
        return {kind: statistics.median(v) for kind, v in by_kind.items()}

    base, with_spans = kind_medians(untraced), kind_medians(traced)
    for kind in with_spans:
        print(f"{KIND_LATENCY[kind]}.p50 at reference speed, untraced = {1e3 * base[kind]:.6g} ms, "
              f"traced = {1e3 * with_spans[kind]:.6g} ms")
    overhead = sum(with_spans.values()) / sum(base[k] for k in with_spans)
    ops = [r for r in traced if r.kind != "probe"]
    for r in ops:
        if not r.spans[tracer.ENTRY_LAYER[r.kind]][tracer.CALLS]:
            raise RuntimeError(f"spans missed the CLI path of {r.kind}: {tracer.ENTRY_LAYER[r.kind]}")
    print(f"per-layer table, {workload.name}, {len(ops)} traced ops:")
    for line in tracer.layer_table(ops):
        print("  " + line)
    return tracer.layer_metrics(ops, overhead)


if __name__ == "__main__":
    sys.exit(main())
