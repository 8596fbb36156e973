"""The benchmark's tracer (perfbench/spans.py) patches program functions by
module attribute.  A rename or removal on the program's side would make a
traced run fail, so every attribute it patches must resolve."""

import sys
import types
from pathlib import Path

import spinebound
import spinebound.cli  # noqa: F401  (the tracer wraps the cli commands too)
from test_package_import import run_fresh

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    """perfbench/spans.py as a module, without writing a bytecode cache next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    sys.modules[module.__name__] = module  # dataclasses look their module up by name
    try:
        exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_wrap_point_resolves():
    points = load_spans().wrap_points(spinebound)
    assert {name for _, _, name in points} >= {"forms.consistency", "cli.verify", "lens.bound"}
    missing = [
        f"{mod.__name__}.{attr} ({name})"
        for mod, attr, name in points
        if not callable(getattr(mod, attr, None))
    ]
    assert missing == []


def test_wrap_points_resolve_on_a_fresh_import():
    """A benchmark process imports only `spinebound.cli`, which leaves
    `construct` and `forms` unloaded until the tracer reads them."""
    script = """
import json, sys
import test_trace_points as t  # imports spinebound and spinebound.cli only

before = sorted(m for m in sys.modules if m.startswith("spinebound."))
points = t.load_spans().wrap_points(t.spinebound)
missing = [f"{m.__name__}.{a}" for m, a, _ in points if not callable(getattr(m, a, None))]
print(json.dumps([before, sorted({n.split(".")[0] for _, _, n in points}), missing]))
"""
    before, layers, missing = run_fresh(script)
    assert [m.removeprefix("spinebound.") for m in before] == ["cli", "evenfarey", "farey", "lens"]
    assert layers == ["cli", "construct", "evenfarey", "farey", "forms", "lens"]
    assert missing == []


def test_verify_reaches_the_forms_spans(tmp_path, capsys):
    """The benchmark's forms metrics come from spans on `forms.signature`; a
    verify that bypasses that name would make them read 0."""
    diagram = str(tmp_path / "d.json")
    assert spinebound.cli.main(["build", "7", "2", "--out", diagram]) == 0
    tracer = load_spans().Tracer(spinebound)
    with tracer.installed():
        assert spinebound.cli.main(["verify", diagram]) == 0
    sizes = {s.name: s.size for s in tracer.spans}
    assert {"cli.verify", "forms.consistency", "forms.signature"} <= sizes.keys()
    assert sizes["forms.signature"] == 4


def test_build_reaches_the_construct_spans(tmp_path):
    """The benchmark's construct metrics come from spans on the `construct`
    module attributes.  As in a benchmark run, the first `build` loads the
    program untraced, so a name bound from `construct` at load time would
    miss the spans and make those metrics read 0."""
    argv = ["build", "7", "2", "--out", str(tmp_path / "d.json")]
    assert spinebound.cli.main(argv) == 0
    tracer = load_spans().Tracer(spinebound)
    with tracer.installed():
        assert spinebound.cli.main(argv) == 0
    names = {s.name for s in tracer.spans}
    spans = {"cli.build", "construct.build_diagram", "construct.kirby_link", "construct.classify"}
    assert spans <= names
