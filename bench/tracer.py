"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each layer function of ``coldstart`` with a
wrapper that records calls, wall time and self time (wall time minus the
time of wrapped calls made inside it).  Names other modules imported by
value (``cli.run_scenario``, ``cli.compute_metrics``, ...) are patched too,
otherwise the spans would silently miss the CLI path.  Counts are kept in
memory per op and read with ``Tracer.take``.
"""

from __future__ import annotations

import functools
import statistics
import time

# (module, qualified name) of every traced layer
LAYERS = (
    ("cli", "main"),
    ("looplab", "run_scenario"),
    ("dsmc", "CascadeController.step"),
    ("looplab", "euler_step"),
    ("plant", "emissions"),
    ("looplab", "quantize"),
    ("trajectory", "SampledTrajectory.window"),
    ("looplab", "RunRecord.to_csv"),
    ("looplab", "RunRecord.from_csv"),
    ("looplab", "compute_metrics"),
    ("rga", "rga_sweep"),
    ("rga", "TFMatrix.response"),
    ("rga", "rga_of_matrix"),
    ("rga", "RGAResult.to_csv"),
    ("rga", "identify_mimo"),
    ("rga", "identify_first_order"),
)
NAMES = tuple(f"{module}.{qual}" for module, qual in LAYERS)

# layers whose result is also measured: bytes written, frequencies lost to gaps
_RESULT_UNITS = {
    "looplab.RunRecord.to_csv": len,
    "rga.rga_sweep": lambda result: int(result.gaps.sum()),
}

CALLS, TOTAL_NS, SELF_NS, UNITS = range(4)

# the layer each CLI subcommand must reach, to prove the spans see the CLI path
ENTRY_LAYER = {
    "simulate": "looplab.run_scenario",
    "sweep": "looplab.run_scenario",
    "rga": "rga.rga_sweep",
    "identify": "rga.identify_mimo",
    "metrics": "looplab.compute_metrics",
}


class Tracer:
    def __init__(self, package):
        self._package = package
        self._acc = {name: [0, 0, 0, 0] for name in NAMES}
        self._open: list[int] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.aliases: list[str] = []

    def _wrap(self, name, fn):
        rec = self._acc[name]
        open_spans = self._open
        clock = time.perf_counter_ns
        units = _RESULT_UNITS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                rec[CALLS] += 1
                rec[TOTAL_NS] += elapsed
                rec[SELF_NS] += elapsed - child
            if units is not None:
                rec[UNITS] += units(result)
            return result

        return span

    def install(self) -> None:
        modules = {"coldstart": self._package}
        for module_name, _ in LAYERS:
            modules.setdefault(module_name, getattr(self._package, module_name))
        for (module_name, qual), name in zip(LAYERS, NAMES):
            owner = modules[module_name]
            *classes, attr = qual.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, raw, classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapped = self._wrap(name, raw)
            self._patch(owner, attr, raw, wrapped)
            if classes:
                continue
            for other_name, other in modules.items():
                for alias, value in list(vars(other).items()):
                    if value is raw and other is not owner:
                        self._patch(other, alias, raw, wrapped)
                        self.aliases.append(f"{other_name}.{alias}")

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> dict[str, tuple[int, int, int, int]]:
        """Counts since the last call, per layer; resets them."""
        snap = {}
        for name, rec in self._acc.items():
            snap[name] = tuple(rec)
            rec[:] = [0, 0, 0, 0]
        return snap


# ---------------------------------------------------------------------------
# reduction of per-op counts to the per-layer metrics


def _sum(ops, name, field):
    return sum(op.spans[name][field] for op in ops)


def _per_call_ms(ops, name):
    per_op = [
        op.spans[name][TOTAL_NS] / op.spans[name][CALLS] / 1e6
        for op in ops
        if op.spans[name][CALLS]
    ]
    return statistics.median(per_op) if per_op else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(ops, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, with units, from traced ops.

    Per-step figures divide by controller steps (``CascadeController.step``
    calls), per-frequency ones by ``TFMatrix.response`` calls; ``.ms`` is
    the median over ops of the mean call time.  A layer an op kind never
    reaches reads 0.
    """
    steps = _sum(ops, "dsmc.CascadeController.step", CALLS)
    freqs = _sum(ops, "rga.TFMatrix.response", CALLS)
    out = {}
    for name in (
        "looplab.run_scenario",
        "dsmc.CascadeController.step",
        "looplab.euler_step",
        "plant.emissions",
        "looplab.quantize",
        "trajectory.SampledTrajectory.window",
    ):
        out[f"{name}.self_us_per_step"] = (_ratio(_sum(ops, name, SELF_NS) / 1e3, steps), "us")
    for name in ("plant.emissions", "looplab.quantize"):
        out[f"{name}.calls_per_step"] = (_ratio(_sum(ops, name, CALLS), steps), "count")
    to_csv = "looplab.RunRecord.to_csv"
    out[f"{to_csv}.ms"] = (_per_call_ms(ops, to_csv), "ms")
    out[f"{to_csv}.mb_per_s"] = (
        _ratio(_sum(ops, to_csv, UNITS) / 1e6, _sum(ops, to_csv, TOTAL_NS) / 1e9), "MB/s"
    )
    for name in ("looplab.RunRecord.from_csv", "looplab.compute_metrics"):
        out[f"{name}.ms"] = (_per_call_ms(ops, name), "ms")
    for name in ("rga.TFMatrix.response", "rga.rga_of_matrix"):
        out[f"{name}.self_us_per_freq"] = (_ratio(_sum(ops, name, SELF_NS) / 1e3, freqs), "us")
    out["rga.RGAResult.to_csv.ms"] = (_per_call_ms(ops, "rga.RGAResult.to_csv"), "ms")
    out["rga.rga_sweep.gap_ratio"] = (_ratio(_sum(ops, "rga.rga_sweep", UNITS), freqs), "ratio")
    out["rga.identify_mimo.ms"] = (_per_call_ms(ops, "rga.identify_mimo"), "ms")
    out["rga.identify_first_order.calls"] = (
        _ratio(_sum(ops, "rga.identify_first_order", CALLS), _sum(ops, "rga.identify_mimo", CALLS)),
        "count",
    )
    for kind in ENTRY_LAYER:
        self_ms = [op.spans["cli.main"][SELF_NS] / 1e6 for op in ops if op.kind == kind]
        out[f"cli.main.self_ms.{kind}"] = (statistics.median(self_ms) if self_ms else 0.0, "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def layer_table(ops) -> list[str]:
    """Calls, self time and share of op time per layer, averaged over ops."""
    op_ns = _sum(ops, "cli.main", TOTAL_NS)
    lines = [f"{'layer':<40} {'calls/op':>10} {'self ms/op':>11} {'share':>7}"]
    for name in NAMES:
        calls = _sum(ops, name, CALLS)
        if not calls:
            continue
        self_ns = _sum(ops, name, SELF_NS)
        lines.append(
            f"{name:<40} {calls / len(ops):>10.1f} {self_ns / 1e6 / len(ops):>11.3f} "
            f"{100.0 * self_ns / op_ns:>6.1f}%"
        )
    return lines
