"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

import run  # puts perfbench/ on sys.path

import checks
import hostspeed
import inputs
import spans

sys.path.insert(0, str(run.SRC))


class Work:
    """A temporary directory inside the benchmark's work area."""

    def __init__(self, name: str):
        self.path = run.WORK / "selftest" / name

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.lens_spaces(7), inputs.lens_spaces(7))
        self.assertEqual(inputs.walks(7), inputs.walks(7))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(inputs.lens_spaces(7), inputs.lens_spaces(8))
        self.assertNotEqual(inputs.walks(7), inputs.walks(8))

    def test_lens_spaces_cover_the_range(self):
        spaces = inputs.lens_spaces(3)
        self.assertEqual(len(spaces), inputs.LENS_COUNT)
        for p, q in spaces:
            self.assertTrue(inputs.LENS_P_MIN <= p <= inputs.LENS_P_MAX)
            self.assertEqual(math.gcd(p, q), 1)

    def test_walks_are_dual_and_sized(self):
        for walk in inputs.walks(5) + [inputs.control_walk()]:
            for column in walk.columns:
                self.assertEqual(column[:2], ((0, 1), (1, 0)))
                for (a, b), (c, d) in zip(column, column[1:]):
                    self.assertEqual(abs(a * d - b * c), 1)
        self.assertEqual([w.order for w in inputs.walks(5)], [40, 52, 66, 60, 80, 84, 80, 100, 120])


class Checks(unittest.TestCase):
    def test_lens_reps(self):
        self.assertEqual(checks.lens_reps(7, 2), {2, 5, 4, 3})
        self.assertEqual(checks.lens_reps(5, 1), {1, 4})

    def test_walk_check_rejects_a_bad_step(self):
        checks.check_walk([(0, 1), (1, 0), (3, 1), (7, 2)], 7, 2, even=False)
        with self.assertRaises(checks.CheckFailed):
            checks.check_walk([(0, 1), (1, 0), (7, 2)], 7, 2, even=False)

    def test_walk_check_rejects_an_odd_untwisted_vertex(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_walk([(0, 1), (1, 0), (3, 1), (7, 2)], 7, 2, even=True)

    def test_oracle_small_cases(self):
        oracle = checks.CappedOracle()
        self.assertEqual(oracle.bound(2, 1, False), 1)  # 0/1, 1/0, 2/1
        self.assertEqual(oracle.bound(7, 2, False), 2)  # ..., 1/0, 4/1, 7/2

    def test_render_line_count(self):
        # layers 1/0, 3/1, 7/2, 3/1: 1 + 4 + (7 + 2) + 4 lines
        walk = inputs.Walk((((0, 1), (1, 0), (3, 1), (7, 2)),))
        self.assertEqual(walk.blue_lines, 18)
        # 2/1 is cut at t = 1/2 once for both coordinates
        self.assertEqual(inputs.Walk((((0, 1), (1, 0), (2, 1)),)).blue_lines, 1 + 2)


class RoundCheck(unittest.TestCase):
    def test_changed_output_fails(self):
        class Counter:
            calls = 0

            def main(self, argv):
                Counter.calls += 1
                print(Counter.calls)
                return 0

        runner = run.Runner()
        runner.cli = Counter()
        op = run.Op(["count"], lambda stdout, texts: [])
        runner.run(op, slot=0)
        runner.run(op, slot=0)
        self.assertEqual((runner.attempted, runner.failed), (2, 1))


def _run_ops(ops, cli) -> list[tuple[object, str, list[str]]]:
    runner = run.Runner()
    runner.cli = cli
    outputs = []
    for op in ops:
        _, rc, stdout = runner.call(op, None)
        outputs.append((rc, stdout, [p.read_bytes() for p in op.files]))
    return outputs


class HostSpeed(unittest.TestCase):
    def test_scaled_is_work_at_reference_speed(self):
        ref = hostspeed.REFERENCE_PROBE_S
        self.assertAlmostEqual(hostspeed.scaled(2.0, [ref] * 10), 2.0)
        self.assertAlmostEqual(hostspeed.scaled(2.0, [2 * ref] * 10), 1.0)
        # the slowest and fastest tenth are dropped
        self.assertAlmostEqual(hostspeed.scaled(2.0, [ref] * 18 + [100 * ref, ref / 100]), 2.0)
        self.assertEqual(hostspeed.scaled(2.0, []), 2.0)

    def test_clock_samples_a_busy_section_and_restores_the_handler(self):
        clock = hostspeed.HostClock()
        previous = signal.getsignal(signal.SIGALRM)
        with clock.running():
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        samples = clock.take()
        self.assertGreaterEqual(len(samples), 5)
        self.assertAlmostEqual(sum(samples), clock.probe_s)
        self.assertEqual(clock.take(), [])


class Program(unittest.TestCase):
    def setUp(self):
        self.cli = run._import_fresh()

    def test_repeats_are_byte_identical(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name), Work(name) as work:
                workload = run.WORKLOADS[name](11, work)
                ops = workload.warmup()
                self.assertEqual(_run_ops(ops, self.cli), _run_ops(ops, self.cli))

    def test_every_tampered_field_is_rejected(self):
        with Work("tamper") as work:
            workload = run.BuildVerify(4, work)
            runner = run.Runner()
            runner.cli = self.cli
            for op in workload.warmup():
                runner.run(op)
            for field in inputs.TAMPERS:
                workload.tamper_field = field
                runner.run(workload.control()[0])
            self.assertEqual(runner.attempted, 3 + len(inputs.TAMPERS))
            self.assertEqual(runner.failed, 0, runner.problems)

    def test_self_times_sum_to_span_total(self):
        package = sys.modules["spinebound"]
        with Work("trace") as work:
            ops = run.BuildVerify(2, work).warmup() + run.LensLarge(2, work).warmup()
            tracer = spans.Tracer(package)
            runner = run.Runner()
            runner.cli = self.cli
            with tracer.installed():
                for op in ops:
                    runner.run(op, tracer)
        self.assertEqual(runner.failed, 0, runner.problems)
        self.assertAlmostEqual(sum(tracer.self_seconds()), tracer.root_seconds(), delta=1e-6)
        self.assertTrue(all(s >= -1e-9 for s in tracer.self_seconds()))
        names = {s.name for s in tracer.spans}
        self.assertTrue({"cli.build", "forms.signature", "farey.distance", "lens.bound"} <= names)
        # the tracer restores every attribute it patched
        self.assertIs(package.lens.farey_distance, sys.modules["spinebound.farey"].farey_distance)

    def test_isolation_flags_a_foreign_layer(self):
        tracer = spans.Tracer(sys.modules["spinebound"])
        with tracer.span("op"), tracer.span("forms.signature"):
            pass
        self.assertEqual(spans.isolation_problems(tracer, "build-verify"), [])
        self.assertEqual(len(spans.isolation_problems(tracer, "table")), 1)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.LAYER_UNITS))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END_UNITS[m["name"]])
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.LAYER_UNITS[m["name"]])

    def test_fails_without_the_program(self):
        with Work("bare") as work:
            shutil.copy(run.ROOT / "BENCHMARK.json", work)
            shutil.copytree(run.HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=work, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
