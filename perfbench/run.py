"""Benchmark of the spinebound CLI: table, lens-large and build-verify.

Run from the repository root:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

Each run imports the program from ./src, generates its inputs from the
seed, warms up, then repeats one round of CLI calls (made in-process
through spinebound.cli.main) until --seconds is used up.  Every call's
output is checked.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

SETUPS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "exact_share": "ratio",
    "mean_n": "summands",
}

LAYER_UNITS = {
    "farey.distance_calls": "count",
    "farey.distance_s": "s",
    "farey.giveup_ratio": "ratio",
    "farey.giveup_s": "s",
    "evenfarey.distance_calls": "count",
    "evenfarey.distance_s": "s",
    "evenfarey.giveup_ratio": "ratio",
    "evenfarey.giveup_s": "s",
    "evenfarey.trace_s": "s",
    "lens.bound_calls": "count",
    "lens.bound_self_s": "s",
    "lens.dist_calls_per_bound": "calls/bound",
    "forms.signature_s": "s",
    "forms.smith_s": "s",
    "forms.det_s": "s",
    "forms.consistency_self_s": "s",
    "forms.matrix_order_sum": "rows",
    "construct.validate_s": "s",
    "construct.build_diagram_s": "s",
    "construct.kirby_link_s": "s",
    "construct.classify_s": "s",
    "cli.table_self_s": "s",
    "cli.lens_bounds_self_s": "s",
    "cli.build_self_s": "s",
    "cli.verify_self_s": "s",
    "cli.render_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One CLI call; `check` gets its stdout and the text of `files` after it ran."""

    argv: list[str]
    check: Callable[[str, list[str]], list[checks.Answer] | None]
    files: tuple[Path, ...] = ()
    expect_rc: int = 0
    prepare: Callable[[], None] | None = None  # writes the call's input file


class Runner:
    """Makes CLI calls, checks them and keeps the counts of one run."""

    def __init__(self, clock: hostspeed.HostClock | None = None):
        self.cli = None
        self.clock = clock  # samples host speed during each call, if set
        self.speeds: list[float] = []  # mean host speed of each round
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_out = 0
        self._first: dict[int, str] = {}  # output digest of each round position

    def fail(self, op: Op, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{' '.join(op.argv)}: {message}")

    def call(self, op: Op, tracer: spans.Tracer | None) -> tuple[float, object, str]:
        """Returns (seconds, exit code, stdout); seconds leave out host probes."""
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        clock = self.clock.running() if self.clock else contextlib.nullcontext()
        probes_before = self.clock.probe_s if self.clock else 0.0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span, clock:
            start = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            seconds = time.perf_counter() - start
        if self.clock:
            seconds -= self.clock.probe_s - probes_before
        return seconds, rc, out.getvalue()

    def run(self, op: Op, tracer: spans.Tracer | None = None, slot: int | None = None):
        """Returns (seconds, answers); answers is None when the op failed.

        An op at round position `slot` must reproduce, byte for byte, the
        output of the first op run at that position.
        """
        self.attempted += 1
        seconds, answers = 0.0, None
        try:
            if op.prepare:
                op.prepare()
            seconds, rc, stdout = self.call(op, tracer)
            texts = [path.read_text() for path in op.files]
            self.bytes_out += len(stdout.encode()) + sum(len(t.encode()) for t in texts)
            if rc != op.expect_rc:
                raise checks.CheckFailed(f"exit code {rc}, expected {op.expect_rc}")
            if slot is not None:
                digest = hashlib.sha256(repr((rc, stdout, texts)).encode()).hexdigest()
                if self._first.setdefault(slot, digest) != digest:
                    raise checks.CheckFailed("output differs from the first round")
            answers = op.check(stdout, texts) or []
        except checks.CheckFailed as exc:
            self.fail(op, str(exc))
        except Exception:  # a crash in the program is a failed operation
            self.fail(op, traceback.format_exc())
        return seconds, answers


class Workload:
    """Makes a workload's CLI calls: warm-up, one round, and the control."""

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def control(self) -> list[Op]:
        return []


class Table(Workload):
    """`table --pmax 60`: many small searches; construct and forms stay idle."""

    def __init__(self, seed: int, work: Path):
        del seed  # the table has no random input
        self.work = work
        self.oracle = checks.CappedOracle()

    def _op(self, pmax: int, name: str, oracle) -> Op:
        out = self.work / name
        return Op(
            ["table", "--pmax", str(pmax), "--out", str(out)],
            lambda stdout, texts: checks.check_table(texts[0], pmax, oracle),
            (out,),
        )

    def warmup(self) -> list[Op]:
        return [self._op(inputs.TABLE_WARMUP_PMAX, "warmup.csv", None)]

    def round(self) -> list[Op]:
        return [self._op(inputs.TABLE_PMAX, "table.csv", self.oracle)]


class LensLarge(Workload):
    """One `lens-bounds p q` per lens space with p in [10^3, 10^4]: the fixed
    heavy anchor, then the seeded ones."""

    def __init__(self, seed: int, work: Path):
        self.spaces = inputs.lens_spaces(seed)

    @staticmethod
    def _op(p: int, q: int) -> Op:
        return Op(
            ["lens-bounds", str(p), str(q)],
            lambda stdout, texts: checks.check_lens_bounds(p, q, stdout),
        )

    def warmup(self) -> list[Op]:
        return [self._op(*inputs.LENS_WARMUP)]

    def round(self) -> list[Op]:
        return [self._op(p, q) for p, q in [inputs.LENS_ANCHOR] + self.spaces]


class BuildVerify(Workload):
    """Seeded walks through `build --path-file`, `verify` and, for genus 1, `render`."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.walks = inputs.walks(seed)
        self.control_walk = inputs.control_walk()
        self.tamper_field = inputs.tamper_field(seed)
        for i, walk in enumerate(self.walks):
            walk.write(work / f"walk-{i}.json")
        self.control_walk.write(work / "walk-control.json")

    def _ops(self, walk: inputs.Walk, tag: str) -> list[Op]:
        walk_file = self.work / f"walk-{tag}.json"
        diagram = self.work / f"diagram-{tag}.json"
        svg = self.work / f"diagram-{tag}.svg"
        ops = [
            Op(
                ["build", "--path-file", str(walk_file), "--out", str(diagram)],
                lambda stdout, texts: checks.check_build(walk, stdout, texts[0]),
                (diagram,),
            ),
            Op(["verify", str(diagram)], lambda stdout, texts: checks.check_verify(walk, stdout)),
        ]
        if walk.genus == 1:
            ops.append(
                Op(
                    ["render", str(diagram), str(svg)],
                    lambda stdout, texts: checks.check_render(walk, texts[0]),
                    (svg,),
                )
            )
        return ops

    def warmup(self) -> list[Op]:
        return self._ops(self.control_walk, "control")

    def round(self) -> list[Op]:
        return [op for i, walk in enumerate(self.walks) for op in self._ops(walk, str(i))]

    def control(self) -> list[Op]:
        """Verify must reject the warm-up's control diagram with one field changed."""
        tampered = self.work / "diagram-tampered.json"

        def prepare():
            doc = json.loads((self.work / "diagram-control.json").read_text())
            inputs.tamper(doc, self.tamper_field)
            tampered.write_text(json.dumps(doc, indent=2) + "\n")

        return [
            Op(
                ["verify", str(tampered)],
                lambda stdout, texts: checks.check_tampered(stdout),
                expect_rc=2,
                prepare=prepare,
            )
        ]


WORKLOADS = {"table": Table, "lens-large": LensLarge, "build-verify": BuildVerify}


def _import_fresh():
    """Import spinebound as a new process would, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "spinebound" or m.startswith("spinebound.")]:
        del sys.modules[name]
    return importlib.import_module("spinebound.cli")


def _setup(name: str, seed: int, work: Path, runner: Runner):
    """Import, input generation and warm-up, timed as one.

    With a host clock, the time is scaled to the reference speed (see
    hostspeed); the clock then runs through the whole set-up.
    """
    clock = runner.clock
    runner.clock = None  # one clock over the whole set-up, not per call
    probing = clock.running() if clock else contextlib.nullcontext()
    probes_before = clock.probe_s if clock else 0.0
    if clock:
        clock.take()
    with probing:
        start = time.perf_counter()
        runner.cli = _import_fresh()
        workload = WORKLOADS[name](seed, work)
        for op in workload.warmup():
            runner.run(op)
        elapsed = time.perf_counter() - start
    runner.clock = clock
    if clock:
        elapsed = hostspeed.scaled(elapsed - (clock.probe_s - probes_before), clock.take())
    return elapsed, workload


def _rounds(runner: Runner, ops: list[Op], seconds: float, package) -> tuple[list[float], list, list]:
    """Repeats the round until the next one would overrun `seconds` (at least once).

    With a package to trace, each op runs a second time, traced, right
    after its untraced run, so both see the same host conditions; each
    round's traced (CLI seconds, tracer, bytes written) is returned too.
    With a host clock on the runner, each untraced round's CLI seconds are
    scaled to the reference speed by the probes taken during its calls.
    Returns (untraced round walls, the first round's answers, traced rounds).
    """
    walls, traced, answers = [], [], None
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        if runner.clock:
            runner.clock.take()
        wall, got = 0.0, []
        tracer = spans.Tracer(package) if package is not None else None
        traced_wall, traced_bytes = 0.0, 0
        for slot, op in enumerate(ops):
            op_seconds, op_answers = runner.run(op, slot=slot)
            wall += op_seconds
            got.extend(op_answers or [])
            if tracer is not None:
                before = runner.bytes_out
                with tracer.installed():
                    op_seconds, _ = runner.run(op, tracer, slot)
                traced_wall += op_seconds
                traced_bytes += runner.bytes_out - before
        if runner.clock:
            speed = hostspeed.mean_speed(runner.clock.take())
            runner.speeds.append(speed)
            wall *= speed
        walls.append(wall)
        answers = got if answers is None else answers
        if tracer is not None:
            traced.append((traced_wall, tracer, traced_bytes))
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:
            return walls, answers, traced


def _layer_report(name: str, seed: int, walls: list[float], traced: list) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced rounds) and layer-isolation problems."""
    rounds = [spans.layer_metrics(tracer, out) for _, tracer, out in traced]
    metrics = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    metrics["trace.overhead_s"] = statistics.median(w for w, _, _ in traced) - statistics.median(walls)
    tracers = [tracer for _, tracer, _ in traced]
    spans.write_all(tracers, WORK / "spans" / f"{name}-seed{seed}.jsonl")
    problems = [p for tracer in tracers for p in spans.isolation_problems(tracer, name)]
    return {k: (metrics[k], unit) for k, unit in LAYER_UNITS.items()}, sorted(set(problems))


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    # Untraced times are scaled to the reference host speed; traced runs
    # keep raw times, and so does trace.overhead_s, which compares the two.
    runner = Runner(None if trace else hostspeed.HostClock())
    setups = []
    for _ in range(SETUPS):
        elapsed, workload = _setup(name, seed, work, runner)
        setups.append(elapsed)
    package = sys.modules["spinebound"] if trace else None
    walls, answers, traced = _rounds(runner, workload.round(), seconds, package)
    for op in workload.control():
        runner.run(op)

    isolation: list[str] = []
    if trace:
        metrics, isolation = _layer_report(name, seed, walls, traced)
    else:
        n_answers = len(answers) or 1
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "exact_share": sum(ok for _, ok in answers) / n_answers,
            "mean_n": sum(n for n, _ in answers) / n_answers,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    for problem in runner.problems + isolation:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"{name} seed {seed}: {runner.attempted} ops; round seconds "
        + " ".join(f"{w:.3f}" for w in walls)
        + ("; host speed " + " ".join(f"{v:.3f}" for v in runner.speeds) if runner.speeds else ""),
        file=sys.stderr,
    )
    return {
        "correct": runner.failed == 0 and not isolation and bool(answers),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinebound" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'spinebound'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
