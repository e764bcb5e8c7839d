"""Self-tests of the benchmark's inputs, checks and spans.

    python3 bench/selftest.py

They show that inputs depend on the seed alone, that one flipped byte of a
record or one perturbed sweep statistic counts as a failed op, that the
edge probes are judged by the documented exit-4 contract, that the
spans see the CLI path, and that every timed op is scaled to reference
host speed.  A few seconds on one core.
"""

import run  # first: pins BLAS threads and logging before numpy loads

import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

COLDSTART, CLI = run.import_program()
REFS = checks.load_references()


class BenchTestCase(unittest.TestCase):
    def setUp(self):
        self.root = run.WORK / f"selftest-{os.getpid()}-{self._testMethodName}"
        self.root.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.root, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()

    def fixture_bytes(self, seed: int, label: str) -> dict[str, bytes]:
        out = self.root / label
        out.mkdir()
        inputs.write_sweep_fixtures(out, seed, run.SWEEP_POOL)
        phi = inputs.write_analysis_fixtures(out, seed)["phi"]
        (out / "replay_phi.json").write_text(json.dumps(phi), encoding="utf-8")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class Inputs(BenchTestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        first = self.fixture_bytes(7, "first")
        again = self.fixture_bytes(7, "again")
        other = self.fixture_bytes(8, "other")
        self.assertEqual(first, again)
        self.assertEqual(first.keys(), other.keys())
        changed = [name for name in first if first[name] != other[name]]
        self.assertIn("experiments.csv", changed)
        self.assertIn("model.json", changed)
        self.assertIn("replay_phi.json", changed)
        self.assertTrue(any(name.startswith("grid_") for name in changed))

    def test_every_seeded_sweep_cell_has_a_reference(self):
        for seed in range(20):
            for spec in inputs.write_sweep_fixtures(self.root, seed, run.SWEEP_POOL)[: run.SWEEP_POOL]:
                grid, axes = spec["grid"], sorted(spec["grid"])
                for combo in itertools.product(*(grid[a] for a in axes)):
                    key = inputs.cell_key(spec["template"], dict(zip(axes, combo)))
                    self.assertIn(key, REFS["sweep_cells"])


class Checks(BenchTestCase):
    def test_flipped_byte_in_run_csv_is_a_failed_op(self):
        workload = run.ColdStart()
        workload.setup(self.root, 0, REFS, CLI)
        op = workload.op(0)
        self.assertIsNone(run.run_op(CLI, op, None).error)
        path = op.out / "run.csv"
        data = bytearray(path.read_bytes())
        idx = data.index(b"0.02,")  # time of the second sample
        data[idx + 3] = ord("3")
        path.write_bytes(bytes(data))
        stdout = (op.out / "metrics.txt").read_text(encoding="utf-8")
        self.assertIn("run.csv differs", op.check(0, stdout))

    def single_cell_sweep(self):
        spec = {"template": inputs.sweep_template(16, 0), "grid": {"phi_true.fuel": [0.75]}}
        for name in ("template", "grid"):
            (self.root / f"{name}.json").write_text(json.dumps(spec[name]), encoding="utf-8")
        out = self.root / "sweep"
        argv = ["sweep", "--template", str(self.root / "template.json"),
                "--grid", str(self.root / "grid.json"), "--out", str(out)]
        code, _, _, _ = run.call_cli(CLI, argv)
        self.assertIsNone(checks.check_sweep(out, code, spec, REFS))
        return spec, out

    def rewrite_cell(self, out: Path, column: str, transform) -> None:
        path = out / "sweep.csv"
        rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
        col = rows[0].index(column)
        rows[1][col] = transform(rows[1][col])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        path.write_text(buf.getvalue(), encoding="utf-8")

    def test_perturbed_sweep_statistic_is_a_failed_op(self):
        spec, out = self.single_cell_sweep()
        self.rewrite_cell(out, "cumulative_hc_kg", lambda v: repr(float(v) * (1 + 1e-7)))
        self.assertIn("cumulative_hc_kg", checks.check_sweep(out, 0, spec, REFS))

    def test_last_bit_difference_passes_and_discrete_change_fails(self):
        spec, out = self.single_cell_sweep()
        self.rewrite_cell(out, "std_err_speed", lambda v: repr(math.nextafter(float(v), math.inf)))
        self.assertIsNone(checks.check_sweep(out, 0, spec, REFS))
        self.rewrite_cell(out, "phi_convergence_time_fuel", lambda v: repr(float(v) + 0.02))
        self.assertIn("phi_convergence_time_fuel", checks.check_sweep(out, 0, spec, REFS))

    def test_probe_contract(self):
        out = self.root / "probe"
        self.assertIn("exit 1", checks.check_probe(out, 1))
        out.mkdir()
        (out / "sweep.csv").write_text("cell,feedback_delay_steps,error\n0,3,\n", encoding="utf-8")
        self.assertIsNotNone(checks.check_probe(out, 4))
        (out / "sweep.csv").write_text(
            "cell,feedback_delay_steps,error\n0,3,step 9: engine stalled\n", encoding="utf-8"
        )
        self.assertIsNone(checks.check_probe(out, 4))

    def test_edge_probes_count_as_failed_while_the_plant_overflows(self):
        try:
            COLDSTART.plant.catalyst_efficiency(1e30, 500.0)
        except OverflowError:
            pass
        else:
            self.skipTest("plant.catalyst_efficiency no longer overflows")
        workload = run.Sweep()
        workload.setup(self.root, 0, REFS, CLI)
        for i in range(len(inputs.EDGE_PROBES)):
            op = workload.op(i)
            self.assertEqual(op.kind, "probe")
            result = run.run_op(CLI, op, None)
            self.assertIn("OverflowError", result.error)


class Spans(BenchTestCase):
    def test_spans_see_the_cli_path_and_uninstall_cleanly(self):
        original = CLI.run_scenario
        spans = tracer.Tracer(COLDSTART)
        spans.install()
        try:
            self.assertIn("cli.run_scenario", spans.aliases)
            argv = ["simulate", "--out", str(self.root / "sim"), "--override=duration=6.0"]
            code, _, _, _ = run.call_cli(CLI, argv)
            counts = spans.take()
        finally:
            spans.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(CLI.run_scenario, original)
        self.assertEqual(counts["cli.main"][tracer.CALLS], 1)
        self.assertEqual(counts["looplab.run_scenario"][tracer.CALLS], 1)
        self.assertEqual(counts["dsmc.CascadeController.step"][tracer.CALLS], 300)
        self.assertEqual(counts["plant.emissions"][tracer.CALLS], 601)
        main = counts["cli.main"]
        self.assertLessEqual(main[tracer.SELF_NS], main[tracer.TOTAL_NS])


class Speed(BenchTestCase):
    def test_every_timed_op_is_scaled_by_the_loop_timings_around_it(self):
        class FakeCli:
            @staticmethod
            def main(argv):
                return 0

        class Idle:
            period = 2

            def op(self_, i):
                return run.Op("simulate", [], self.root / "none", lambda code, stdout: None)

        gc_was_enabled = gc.isenabled()
        results, next_op = run.run_phase(FakeCli, Idle(), 0, 0.0)
        self.assertEqual(gc.isenabled(), gc_was_enabled)
        self.assertEqual((len(results), next_op), (2, 2))
        for r in results:
            self.assertGreater(r.loop_s, 0.0)
            self.assertAlmostEqual(r.adjusted, r.seconds * run.speed.REFERENCE_S / r.loop_s)


if __name__ == "__main__":
    unittest.main()
