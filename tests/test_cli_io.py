"""The CLI's file layer: the diagram writer's bytes, pinned diagram digests,
unwritable output paths and the messages of a failing `verify`."""

import copy
import hashlib
import json
import sys
import types
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from spinebound import build_diagram, classify, diagrams, kirby_link, lens
from spinebound.cli import main
from spinebound.diagrams import _diagram_text, _difference, _same
from test_cli_total import DIAGRAM, field_paths, replaced
from test_construct import walks

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"

# Ints on both sides of the float53 limit, bools mixed into int lists,
# every code point in strings and keys, and empty containers at any depth.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**53 - 3, 2**53 + 3)
    | st.integers(-(2**53) - 3, -(2**53) + 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers() | st.booleans(), max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(walks())
def test_diagram_text_is_json_dumps_indent_2(path):
    """The writer's bytes are those of `json.dumps(doc, indent=2)` for the
    reference document, whose matrix is the oracle's dense fill."""
    diagram, link, csum = build_diagram(path), kirby_link(path), classify(path)
    doc = oracles.diagram_doc(diagram, link, csum)
    assert _diagram_text(diagram, link, csum) == json.dumps(doc, indent=2) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_19_7_even_pinned_bytes(capsys, tmp_path):
    out = tmp_path / "d.json"
    assert run(capsys, "build", "19", "7", "--mode", "even", "--out", str(out))[0] == 0
    # Digest of the file written by `json.dumps(doc, indent=2)`.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f7a5c80473f3d395246c2d1fe3a25e6e8759882c0abc2814315fd301a65e5857"
    )


def test_framings_beyond_float53_pinned_bytes(capsys, tmp_path):
    """The walk 0/1, 1/0, N/1, (Nk+1)/k with N = k = 10^10 has framings and
    linking entries above 2^53, so its matrix rows mix strings and ints."""
    n = k = 10**10
    walk = {
        "mode": "dual",
        "systems": [
            [{"p": 0, "q": 1}],
            [{"p": 1, "q": 0}],
            [{"p": n, "q": 1}],
            [{"p": str(n * k + 1), "q": k}],
        ],
    }
    walk_file, out = tmp_path / "w.json", tmp_path / "d.json"
    walk_file.write_text(json.dumps(walk))
    assert run(capsys, "build", "--path-file", str(walk_file), "--out", str(out))[0] == 0
    rows = json.loads(out.read_text())["kirby"]["linking_matrix"]
    assert {type(x) for row in rows for x in row} == {int, str}
    assert {type(x) for x in rows[1]} == {int, str}
    # Digest of the file written by `json.dumps(doc, indent=2)`.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a3cd60b9560e0e048bb3d6f7ec61f72800d05e6b907d53a961870b647ec16f2a"
    )


def _assert_cannot_write(code, out, err, target):
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_build_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing" / "d.json"
    _assert_cannot_write(*run(capsys, "build", "7", "2", "--out", str(target)), target)


def test_table_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    _assert_cannot_write(*run(capsys, "table", "--pmax", "5", "--out", str(target)), target)


def test_table_opens_its_output_before_computing(capsys, tmp_path, monkeypatch):
    """A bad --out fails at once, not after every row has been computed."""

    def no_rows(pmax):
        raise AssertionError("the table was computed before --out was opened")

    monkeypatch.setattr(lens, "prop_bound_table", no_rows)
    target = tmp_path / "missing" / "x.csv"
    _assert_cannot_write(*run(capsys, "table", "--pmax", "150", "--out", str(target)), target)


def test_render_unwritable_output(capsys, tmp_path):
    diagram, target = tmp_path / "d.json", tmp_path / "missing" / "x.svg"
    assert run(capsys, "build", "7", "2", "--out", str(diagram))[0] == 0
    _assert_cannot_write(*run(capsys, "render", str(diagram), str(target)), target)


def load_inputs() -> types.ModuleType:
    """perfbench/inputs.py as a module, without writing a bytecode cache next to it."""
    module = types.ModuleType("perfbench_inputs")
    module.__file__ = str(INPUTS)
    sys.modules[module.__name__] = module  # dataclasses look their module up by name
    try:
        exec(compile(INPUTS.read_text(), str(INPUTS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture
def diagram(capsys, tmp_path):
    """The benchmark's control walk built into a diagram file, and its document."""
    walk_file, out = tmp_path / "w.json", tmp_path / "d.json"
    load_inputs().control_walk().write(walk_file)
    assert run(capsys, "build", "--path-file", str(walk_file), "--out", str(out))[0] == 0
    return out, json.loads(out.read_text())


def _verify_edited(capsys, diagram, edit) -> list[str]:
    out, doc = diagram
    edit(doc)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 2 and stdout.startswith("FAIL ")
    return stdout.splitlines()


def test_verify_names_the_tampered_blue_field(capsys, diagram):
    """The benchmark's `blue.reflected` tamper is named by curve and field."""
    reflected = diagram[1]["blue"][0]["reflected"]
    lines = _verify_edited(
        capsys, diagram, lambda doc: load_inputs().tamper(doc, "blue.reflected")
    )
    assert lines == [
        f"FAIL blue[0].reflected: file says {json.dumps(not reflected)}, "
        f"recomputed {json.dumps(reflected)}"
    ]


def test_verify_names_the_tampered_kirby_field(capsys, diagram):
    """The benchmark's `kirby.curves.framing` tamper is named down to the field."""
    curves = diagram[1]["kirby"]["curves"]
    framing = curves[-1]["framing"]
    lines = _verify_edited(
        capsys, diagram, lambda doc: load_inputs().tamper(doc, "kirby.curves.framing")
    )
    assert lines == [
        f"FAIL kirby.curves[{len(curves) - 1}].framing: file says {framing + 1}, "
        f"recomputed {framing}"
    ]


def test_verify_compares_the_path_too(capsys, diagram):
    """A slope written as a string reads as the same walk, but the file is
    not the recomputed document."""

    def edit(doc):
        doc["path"]["systems"][2][0]["p"] = str(doc["path"]["systems"][2][0]["p"])

    p = diagram[1]["path"]["systems"][2][0]["p"]
    lines = _verify_edited(capsys, diagram, edit)
    assert lines == [f'FAIL path.systems[2][0].p: file says "{p}", recomputed {p}']


def test_verify_names_curve_counts(capsys, diagram):
    count = len(diagram[1]["red"])
    lines = _verify_edited(capsys, diagram, lambda doc: doc["red"].pop())
    assert lines == [f"FAIL red: file has {count - 1}, recomputed {count}"]


def test_verify_names_missing_and_unknown_fields(capsys, diagram):
    def edit(doc):
        del doc["green"][1]["kind"]
        doc["blue"][2]["extra"] = 1

    lines = _verify_edited(capsys, diagram, edit)
    assert lines[0] == 'FAIL blue[2]: unknown key "extra"'
    assert lines[1].startswith('FAIL green[1].kind: missing, recomputed "')


def test_verify_prints_json_values(capsys, diagram):
    def edit(doc):
        doc["genus_per_copy"] = True
        del doc["num_copies"]
        doc["kirby"]["curves"][0]["framing"] = None

    framing = diagram[1]["kirby"]["curves"][0]["framing"]
    copies = diagram[1]["num_copies"]
    lines = _verify_edited(capsys, diagram, edit)
    assert lines[:2] == [
        "FAIL genus_per_copy: file says true, recomputed 1",
        f"FAIL num_copies: missing, recomputed {copies}",
    ]
    assert lines[2] == f"FAIL kirby.curves[0].framing: file says null, recomputed {json.dumps(framing)}"


def test_verify_of_a_built_file_runs_no_differ(capsys, diagram, monkeypatch):
    """A file whose bytes are the recomputed text verifies without a differ."""

    def no_differ(*args):
        raise AssertionError("the differ ran on a file that build wrote")

    monkeypatch.setattr(diagrams, "_difference", no_differ)
    code, stdout, _ = run(capsys, "verify", str(diagram[0]))
    assert code == 0 and stdout.startswith("OK ")


def test_verify_compares_other_files_as_json(capsys, diagram, monkeypatch):
    """The same document, compact and with its top-level keys reversed, is
    not the recomputed text; it verifies through the differ."""
    out, doc = diagram
    out.write_text(json.dumps(dict(reversed(doc.items()))))
    keys = []

    def differ(where, got, want):
        keys.append(where)
        return _difference(where, got, want)

    monkeypatch.setattr(diagrams, "_difference", differ)
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0 and stdout.startswith("OK ")
    assert keys == list(doc)


@pytest.mark.parametrize(
    "field, line",
    [
        ("classification.raw_untwisted", "classification.raw_untwisted: file says 10, recomputed 9"),
        ("kirby.linking_matrix", "kirby.linking_matrix[0][1]: file says 2, recomputed 1"),
        ("kirby.curves.framing", "kirby.curves[29].framing: file says -1, recomputed -2"),
        ("blue.reflected", "blue[0].reflected: file says false, recomputed true"),
        ("stats.total_genus", "stats.total_genus: file says 32, recomputed 30"),
    ],
)
def test_verify_names_each_benchmark_tamper(capsys, diagram, field, line):
    """Each tamper of the benchmark's control diagram gives one `FAIL` line,
    naming the changed field with both values."""
    inputs = load_inputs()
    assert field in inputs.TAMPERS
    assert _verify_edited(capsys, diagram, lambda doc: inputs.tamper(doc, field)) == [f"FAIL {line}"]


@pytest.mark.parametrize("spelling", ["1_0", " 10 ", "+10", "\u0661\u0660"])
def test_integer_fields_are_decimal_digits(capsys, tmp_path, spelling):
    """A string integer field holds `-?[0-9]+`, as the writer spells one;
    `int` would read each of these as 10."""
    walk = {"mode": "dual", "systems": [[{"p": 0, "q": 1}], [{"p": 1, "q": 0}], [{"p": 10, "q": 1}]]}
    walk_file, out = tmp_path / "w.json", tmp_path / "d.json"
    walk_file.write_text(json.dumps(walk))
    assert run(capsys, "build", "--path-file", str(walk_file), "--out", str(out))[0] == 0
    doc = json.loads(out.read_text())
    walk["systems"][2][0]["p"] = doc["path"]["systems"][2][0]["p"] = spelling
    walk_file.write_text(json.dumps(walk))
    out.write_text(json.dumps(doc, indent=2) + "\n")
    code, stdout, err = run(capsys, "build", "--path-file", str(walk_file), "--out", str(tmp_path / "x.json"))
    assert (code, stdout) == (1, "")
    assert err == f"error: cannot read walk: expected an integer field, got {spelling!r}\n"
    code, stdout, err = run(capsys, "verify", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"error: cannot read diagram: expected an integer field, got {spelling!r}\n"


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_render_reads_reflected_as_a_boolean(capsys, tmp_path, value):
    diagram, svg = tmp_path / "d.json", tmp_path / "d.svg"
    assert run(capsys, "build", "7", "2", "--out", str(diagram))[0] == 0
    doc = json.loads(diagram.read_text())
    doc["blue"][1]["reflected"] = value
    diagram.write_text(json.dumps(doc, indent=2) + "\n")
    code, stdout, err = run(capsys, "render", str(diagram), str(svg))
    assert (code, stdout) == (1, "") and not svg.exists()
    kind = type(value).__name__
    assert err == f'error: malformed diagram: expected "reflected" to be a boolean, got {kind}\n'


def _path_text(keys) -> str:
    """`kirby.curves[2].framing` for the keys ("kirby", "curves", 2, "framing")."""
    return keys[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys[1:])


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(JSON_VALUES, JSON_VALUES)
def test_difference_is_none_exactly_when_same(a, b):
    for got, want in ((a, b), (copy.deepcopy(a), a)):
        found = _difference("x", got, want)
        assert (found is None) == _same(got, want)
        assert found is None or found.startswith("x")


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.sampled_from(list(field_paths(DIAGRAM))), JSON_VALUES)
def test_difference_names_the_edited_field(keys, value):
    """Replacing one field of a built diagram is reported at that field or
    below it, and only when the JSON differs."""
    doc = replaced(DIAGRAM, keys, value)
    top = keys[0]
    found = _difference(top, doc[top], DIAGRAM[top])
    assert (found is None) == _same(doc, DIAGRAM)
    if found is not None:
        text = _path_text(keys)
        assert found.startswith(text) and found[len(text)] in ":.["
