"""The CLI is total on malformed documents: replacing any one field of a
built diagram or of a walk file by an arbitrary JSON value makes `verify`,
`render` and `build --path-file` end with an exit code in {0, 1, 2, 3},
never a traceback, and a repeat run gives the same bytes."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from spinebound.cli import main

# Integers reach 64 bits: `render` counts a diagram's lines before it draws
# them and refuses more than its limit, so a large slope ends at once.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

RUNS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

WALK = {
    "mode": "dual",
    "systems": [
        [{"p": 0, "q": 1}, {"p": 0, "q": 1}],
        [{"p": 1, "q": 0}, {"p": 1, "q": 0}],
        [{"p": 3, "q": 1}, {"p": 2, "q": 1}],
        [{"p": 7, "q": 2}, {"p": 5, "q": 2}],
    ],
}


def _built_diagram() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "d.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", "7", "2", "--out", str(out)]) == 0
        return json.loads(out.read_text())


DIAGRAM = _built_diagram()


def field_paths(doc, prefix=()):
    """The key/index path of every field nested in `doc`."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def run_twice(argv_for, doc, output_name=None):
    """Run the command twice on `doc`; assert a clean, repeatable ending
    and return its exit code."""
    results = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            doc_file, output = Path(tmp) / "doc.json", Path(tmp) / (output_name or "none")
            doc_file.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv_for(str(doc_file), str(output)))
            written = output.read_bytes() if output.exists() else None
            # Temporary paths differ between the runs; error messages may name them.
            text = (out.getvalue() + err.getvalue()).replace(tmp, "<tmp>")
            results.append((code, text, written))
    code, text, _ = results[0]
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in text
    assert results[0] == results[1]
    return code


@RUNS
@given(st.sampled_from(list(field_paths(DIAGRAM))), JSON_VALUES)
def test_verify_total(path, value):
    run_twice(lambda doc, _: ["verify", doc], replaced(DIAGRAM, path, value))


@RUNS
@given(st.sampled_from(list(field_paths(DIAGRAM))), JSON_VALUES)
def test_render_total(path, value):
    run_twice(lambda doc, svg: ["render", doc, svg], replaced(DIAGRAM, path, value), "d.svg")


@RUNS
@given(st.sampled_from(list(field_paths(WALK))), JSON_VALUES)
def test_build_path_file_total(path, value):
    run_twice(
        lambda doc, out: ["build", "--path-file", doc, "--out", out],
        replaced(WALK, path, value),
        "d.json",
    )


def test_unmutated_documents_succeed():
    assert run_twice(lambda doc, _: ["verify", doc], DIAGRAM) == 0
    assert run_twice(lambda doc, svg: ["render", doc, svg], DIAGRAM, "d.svg") == 0
    build = lambda doc, out: ["build", "--path-file", doc, "--out", out]  # noqa: E731
    assert run_twice(build, WALK, "d.json") == 0
