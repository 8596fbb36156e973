"""The bound commands load only the modules they run.

`lens-bounds`, `table` and `dist` need `farey`, `evenfarey` and `lens`.
`diagrams`, the diagram-file half of the CLI, loads on the first `build`,
`render` or `verify`; `construct` loads with `build` and `verify`, and
`forms` with `verify`, or either on a name read from the package.  Each
check runs in a fresh interpreter, since the test session has imported
every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

BOUND_MODULES = [
    "spinebound",
    "spinebound.cli",
    "spinebound.evenfarey",
    "spinebound.farey",
    "spinebound.lens",
]

# Every name the package exports, by the module it comes from.
EXPORTS = {
    "farey": [
        "DomainError", "InvalidSlopeError", "LONGITUDE", "MERIDIAN", "NoPathWithinCap",
        "PathKind", "Slope", "SlopePath", "canonical", "common_neighbors", "farey_det",
        "farey_distance", "farey_parents", "is_even_vertex", "neighbors",
    ],
    "evenfarey": ["even_distance", "even_trace"],
    "lens": [
        "BoundResult", "Exactness", "LensSpace", "TableRow", "equivalent_reps", "normalize",
        "prop_bound_table", "twisted_bound", "untwisted_bound",
    ],
    "construct": [
        "BlueCurve", "ConnectSum", "CutSystem", "DualPath", "FramedLink", "KirbyCurve",
        "PathMode", "PathViolation", "ScaffoldCurve", "TrisectionDiagram", "ViolationKind",
        "build_diagram", "classify", "kirby_link", "path_from_lens", "path_product",
        "validate_path",
    ],
    "forms": [
        "CongruenceError", "ConsistencyReport", "FormInvariants", "Parity", "TridiagonalForm",
        "congruence", "consistency_check", "det_int", "form_invariants", "identify", "parity",
        "signature", "smith_normal_form",
    ],
}


def run_fresh(script: str, *args: str):
    """What `script` prints as JSON on its last line, run in a new interpreter
    that finds the package and the test modules."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


COMMANDS = """
import contextlib, io, json, sys
import spinebound.cli

loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = spinebound.cli.main(argv)
    loaded.append((code, sorted(m for m in sys.modules if m.startswith("spinebound"))))
print(json.dumps(loaded))
"""


def test_each_command_loads_only_what_it_runs(tmp_path):
    diagram = str(tmp_path / "d.json")
    commands = [
        ["lens-bounds", "7", "2"],
        ["table", "--pmax", "12", "--out", str(tmp_path / "t.csv")],
        ["dist", "1/0", "5/3"],
        ["dist", "--even", "1/0", "5/4"],
        ["build", "7", "2", "--out", diagram],
        ["verify", diagram],
    ]
    loaded = run_fresh(COMMANDS, json.dumps(commands))
    built = sorted(BOUND_MODULES + ["spinebound.construct", "spinebound.diagrams"])
    assert loaded[:4] == [[0, BOUND_MODULES]] * 4
    assert loaded[4] == [0, built]
    assert loaded[5] == [0, sorted(built + ["spinebound.forms"])]


def test_render_loads_neither_construct_nor_forms(tmp_path):
    """`render` reads the drawing off the file and recomputes nothing."""
    diagram, svg = str(tmp_path / "d.json"), str(tmp_path / "d.svg")
    assert run_fresh(COMMANDS, json.dumps([["build", "7", "2", "--out", diagram]]))[0][0] == 0
    loaded = run_fresh(COMMANDS, json.dumps([["render", diagram, svg]]))
    assert loaded == [[0, sorted(BOUND_MODULES + ["spinebound.diagrams"])]]


RESOLVE = """
import importlib, json, sys
import spinebound

exports = json.loads(sys.argv[1])
found = {"at_import": sorted(m for m in sys.modules if m.startswith("spinebound"))}
for module, names in exports.items():
    for name in names:
        namespace = {}
        exec(f"from spinebound import {name}", namespace)
        source = importlib.import_module(f"spinebound.{module}")
        if not (namespace[name] is getattr(spinebound, name) is getattr(source, name)):
            found.setdefault("differ", []).append(name)
found["modules"] = [getattr(spinebound, m) is sys.modules[f"spinebound.{m}"] for m in exports]
found["unknown"] = [hasattr(spinebound, n) for n in sys.argv[2:]]
print(json.dumps(found))
"""


def test_every_export_resolves():
    unknown = ["nope", "iteration_index", "even_parent", "blue_layer_path"]
    found = run_fresh(RESOLVE, json.dumps(EXPORTS), *unknown)
    assert found == {
        "at_import": ["spinebound", "spinebound.evenfarey", "spinebound.farey", "spinebound.lens"],
        "modules": [True] * len(EXPORTS),
        "unknown": [False] * len(unknown),
    }
