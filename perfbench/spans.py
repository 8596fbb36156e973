"""Spans recorded from the benchmark's side of each layer boundary.

The tracer replaces a public function at the module attribute where its
caller looks it up (`spinebound.lens.farey_distance`, not the definition
in `spinebound.farey`), so nothing inside the program changes.  Spans are
kept in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute, span name).  Bound and search entry points are wrapped
# where lens and construct import them; construct and cli functions are
# wrapped on their own modules, which is where cli and forms look them up.
_LENS = (
    ("lens", "farey_distance", "farey.distance"),
    ("lens", "even_distance", "evenfarey.distance"),
    ("lens", "even_trace", "evenfarey.trace"),
    ("lens", "twisted_bound", "lens.bound"),
    ("lens", "untwisted_bound", "lens.bound"),
    ("lens", "prop_bound_table", "lens.table"),
    ("construct", "twisted_bound", "lens.bound"),
    ("construct", "untwisted_bound", "lens.bound"),
)
_FORMS = (
    ("forms", "signature", "forms.signature"),
    ("forms", "det_int", "forms.det"),
    ("forms", "smith_normal_form", "forms.smith"),
    ("forms", "consistency_check", "forms.consistency"),
)
_GIVE_UP = "NoPathWithinCap"


def wrap_points(package) -> list[tuple[object, str, str]]:
    """Every (module object, attribute, span name) the tracer patches."""
    points = [(getattr(package, mod), attr, name) for mod, attr, name in _LENS + _FORMS]
    for mod, prefix in ((package.construct, "construct."), (package.cli, "cli.")):
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                if mod is package.cli and not attr.startswith("cmd_"):
                    continue
                points.append((mod, attr, prefix + attr.removeprefix("cmd_")))
    return points


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    error: str | None = None
    size: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, package):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._points = wrap_points(package)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if name == "forms.signature":
                    rec.size = args[0].order
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._points]
        try:
            for (mod, attr, fn), (_, _, name) in zip(originals, self._points):
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def root_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)


def write_all(tracers: list[Tracer], path: Path) -> None:
    """One JSON line per span, tagged with its traced round."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for round_no, tracer in enumerate(tracers):
            for s, own in zip(tracer.spans, tracer.self_seconds()):
                fh.write(json.dumps({"round": round_no, **asdict(s), "self": own}) + "\n")


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, float]:
    """Per-layer counts and times of one traced round."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    gave_up: dict[str, int] = defaultdict(int)
    gave_up_s: dict[str, float] = defaultdict(float)
    sizes: dict[str, int] = defaultdict(int)
    for s, self_s in zip(tracer.spans, tracer.self_seconds()):
        calls[s.name] += 1
        total[s.name] += s.seconds
        own[s.name] += self_s
        sizes[s.name] += s.size or 0
        if s.error == _GIVE_UP:
            gave_up[s.name] += 1
            gave_up_s[s.name] += s.seconds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for layer in ("farey", "evenfarey"):
        name = f"{layer}.distance"
        out[f"{layer}.distance_calls"] = calls[name]
        out[f"{layer}.distance_s"] = total[name]
        out[f"{layer}.giveup_ratio"] = ratio(gave_up[name], calls[name])
        out[f"{layer}.giveup_s"] = gave_up_s[name]
    out["evenfarey.trace_s"] = total["evenfarey.trace"]
    distance_calls = calls["farey.distance"] + calls["evenfarey.distance"]
    out["lens.bound_calls"] = calls["lens.bound"]
    out["lens.bound_self_s"] = own["lens.bound"]
    out["lens.dist_calls_per_bound"] = ratio(distance_calls, calls["lens.bound"])
    out["forms.signature_s"] = total["forms.signature"]
    out["forms.smith_s"] = total["forms.smith"]
    out["forms.det_s"] = total["forms.det"]
    out["forms.consistency_self_s"] = own["forms.consistency"]
    out["forms.matrix_order_sum"] = sizes["forms.signature"]
    out["construct.validate_s"] = total["construct.validate_path"]
    out["construct.build_diagram_s"] = total["construct.build_diagram"]
    out["construct.kirby_link_s"] = total["construct.kirby_link"]
    out["construct.classify_s"] = total["construct.classify"]
    out["cli.table_self_s"] = own["cli.table"]
    out["cli.lens_bounds_self_s"] = own["cli.lens_bounds"]
    out["cli.build_self_s"] = own["cli.build"]
    out["cli.verify_self_s"] = own["cli.verify"]
    out["cli.render_s"] = total["cli.render"]
    out["cli.bytes_out"] = bytes_out
    return out


# Span-name prefixes that must not appear on each workload.
FORBIDDEN = {
    "table": ("construct.", "forms."),
    "lens-large": ("construct.", "forms."),
    "build-verify": ("farey.", "evenfarey.", "lens."),
}


def isolation_problems(tracer: Tracer, workload: str) -> list[str]:
    seen = sorted({s.name for s in tracer.spans if s.name.startswith(FORBIDDEN[workload])})
    return [f"{workload} reached {name}" for name in seen]
